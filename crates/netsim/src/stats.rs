//! Measurement: per-link traffic counters and named global counters.
//!
//! The paper's evaluation is largely about *costs* — control bandwidth
//! (§5.3), message counts for proactive counting (Figure 8), delivered
//! bytes for the unicast-vs-multicast comparison (§1). Links count
//! automatically on every send; protocols additionally bump named counters
//! through [`crate::engine::Ctx::count`].
//!
//! Counter keys follow the `<proto>.<event>` convention documented in
//! `docs/OBSERVABILITY.md`. Counters are **interned**: each distinct key
//! maps to an integer [`CounterId`] handle backed by a plain `Vec<u64>`
//! slot, so the per-packet fast path ([`Stats::count_id`]) is an array
//! index instead of an ordered-map probe. The string API
//! ([`Stats::count`]) survives as a thin registration wrapper, and labeled
//! counters such as `ecmp.count_msgs{chan=(10.0.0.5, 232.0.0.1)}` intern
//! their composed key once per distinct `(base, channel)` pair
//! ([`Stats::channel_counter`]) — no per-bump formatting.

use crate::id::LinkId;
use express_wire::addr::Channel;
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::num::NonZeroU32;
use std::sync::Arc;

/// Whether a packet is application data or protocol control traffic.
/// Separated so experiments can report control overhead independently of
/// the data stream (e.g. §5.3's "424 kilobits per second of control
/// traffic").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Application payload on a channel.
    Data,
    /// Routing / membership / counting protocol messages.
    Control,
}

/// Counters for a single link (summed over both directions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data packets carried.
    pub data_packets: u64,
    /// Data octets carried.
    pub data_bytes: u64,
    /// Control packets carried.
    pub control_packets: u64,
    /// Control octets carried.
    pub control_bytes: u64,
    /// Packets dropped by the loss process.
    pub drops: u64,
}

impl LinkStats {
    /// Total packets of both classes.
    pub fn packets(&self) -> u64 {
        self.data_packets + self.control_packets
    }

    /// Total octets of both classes.
    pub fn bytes(&self) -> u64 {
        self.data_bytes + self.control_bytes
    }
}

/// A pre-registered handle to one named counter — bumping through the
/// handle ([`Stats::count_id`]) is an array index, the per-packet fast
/// path. Obtain one with [`Stats::counter`] (or
/// [`crate::engine::Ctx::counter`]) and keep it for the run's lifetime.
///
/// Never zero — slot 0 of a [`Stats`] table is a placeholder no key is
/// filed under — so an `Option<CounterId>` is 4 bytes, the size of the
/// handle (every agent row that holds one lazily pays nothing for the
/// `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(NonZeroU32);

impl CounterId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0.get() as usize
    }
}

/// A counter key or trace-event name: a string literal, or a composed key
/// (`base{chan=…}`) held once by the [`Stats`] table that interned it and
/// shared from there. Cloning either never allocates, so a counter bump
/// mirrored into the trace carries its name for a refcount at most.
/// Compares, hashes and prints as the string it holds.
#[derive(Debug, Clone)]
pub enum Name {
    /// A string literal.
    Static(&'static str),
    /// A composed or imported name.
    Shared(Arc<str>),
}

impl Name {
    /// The name.
    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Shared(s) => s,
        }
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::Static("")
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Self {
        Name::Static(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::Shared(s.into())
    }
}

impl From<Cow<'static, str>> for Name {
    fn from(s: Cow<'static, str>) -> Self {
        match s {
            Cow::Borrowed(s) => Name::Static(s),
            Cow::Owned(s) => s.into(),
        }
    }
}

/// The interning maps' hasher: multiply-rotate over 8-byte words. Their
/// keys are names and channels the engine and its agents choose, not
/// outside input, so SipHash's resistance to chosen keys buys nothing, and
/// a labeled bump (`ecmp.count_msgs` per Count sent) hashes a name and a
/// channel every time.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            self.add(rest.iter().rev().fold(0, |word, &b| word << 8 | u64::from(b)));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map from an interned key to its slot.
type Interned<K> = HashMap<K, CounterId, BuildHasherDefault<WordHasher>>;

/// A link's control and drop counters: `[control packets, control octets,
/// drops]`.
type ColdRow = [u64; 3];

/// All measurement state for one simulation run.
#[derive(Debug, Default)]
pub struct Stats {
    /// Per link, `[data packets, data octets]`: the pair a data
    /// transmission bumps, and all of a link's row that one touches.
    link_data: Vec<[u64; 2]>,
    /// Per link, the rest of its row. Empty ≡ all zero: allocated (for
    /// every link) by the first control transmission or drop, so a run
    /// that only forwards data never holds it.
    link_cold: Vec<ColdRow>,
    /// Interned counter slots, indexed by [`CounterId`]. Slot 0 (and its
    /// entries in the two tables below) is a placeholder that no handle
    /// names, pushed with the first real slot: a handle is its index, with
    /// no offset to subtract, and still never zero.
    values: Vec<u64>,
    /// Whether the slot has ever been bumped (even by zero). Registration
    /// alone must not surface a counter in [`named_counters`](Self::named_counters):
    /// a key appears only once some call site has counted with it, exactly
    /// as under the pre-interning map representation.
    touched: Vec<bool>,
    /// Slot names, indexed by [`CounterId`] (static for plain keys, shared
    /// for labeled ones).
    names: Vec<Name>,
    /// Name → slot. Keyed by the full composed key.
    by_name: Interned<Name>,
    /// `(base, channel)` → slot, so per-channel labeled bumps skip even the
    /// key formatting. Bases are compared by string content.
    by_channel: Interned<(&'static str, Channel)>,
    /// Reusable key-formatting buffer for composed keys (no allocation per
    /// lookup once the key is interned).
    scratch: String,
}

impl Stats {
    /// Stats sized for `links` links.
    pub fn new(links: usize) -> Self {
        Stats {
            link_data: vec![[0; 2]; links],
            ..Stats::default()
        }
    }

    /// The control and drop counters, allocated here if this is the first
    /// write to them.
    fn cold_mut(&mut self) -> &mut [ColdRow] {
        if self.link_cold.is_empty() {
            self.link_cold = vec![[0; 3]; self.link_data.len()];
        }
        &mut self.link_cold
    }

    pub(crate) fn record_tx(&mut self, link: LinkId, bytes: usize, class: TrafficClass) {
        match class {
            TrafficClass::Data => {
                let [packets, octets] = &mut self.link_data[link.index()];
                *packets += 1;
                *octets += bytes as u64;
            }
            TrafficClass::Control => {
                let [packets, octets, _] = &mut self.cold_mut()[link.index()];
                *packets += 1;
                *octets += bytes as u64;
            }
        }
    }

    pub(crate) fn record_drop(&mut self, link: LinkId) {
        self.cold_mut()[link.index()][2] += 1;
    }

    /// Counters for one link.
    pub fn link(&self, link: LinkId) -> LinkStats {
        let [data_packets, data_bytes] = self.link_data[link.index()];
        let [control_packets, control_bytes, drops] = self.link_cold.get(link.index()).copied().unwrap_or_default();
        LinkStats {
            data_packets,
            data_bytes,
            control_packets,
            control_bytes,
            drops,
        }
    }

    /// Sum of the counters over all links.
    pub fn total(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for [packets, octets] in &self.link_data {
            t.data_packets += packets;
            t.data_bytes += octets;
        }
        for [packets, octets, drops] in &self.link_cold {
            t.control_packets += packets;
            t.control_bytes += octets;
            t.drops += drops;
        }
        t
    }

    /// Intern `key`, returning its stable handle. Registering does **not**
    /// make the counter visible in [`named_counters`](Self::named_counters);
    /// only bumping does.
    pub fn counter(&mut self, key: impl Into<Cow<'static, str>>) -> CounterId {
        let key = key.into();
        if let Some(&id) = self.by_name.get(key.as_ref()) {
            return id;
        }
        self.insert_slot(key.into())
    }

    fn insert_slot(&mut self, key: Name) -> CounterId {
        if self.values.is_empty() {
            self.values.push(0);
            self.touched.push(false);
            self.names.push(Name::Static(""));
        }
        let index = u32::try_from(self.values.len()).ok().and_then(NonZeroU32::new);
        let id = CounterId(index.expect("counter slots exhausted"));
        self.values.push(0);
        self.touched.push(false);
        self.names.push(key.clone());
        self.by_name.insert(key, id);
        id
    }

    /// Intern the per-channel labeled key `base{chan=channel}` — e.g.
    /// `ecmp.count_msgs{chan=(10.0.0.5, 232.0.0.1)}` — and return its
    /// handle. The composed key is formatted exactly once per distinct
    /// `(base, channel)` pair; later calls are a hash probe on the pair.
    pub fn channel_counter(&mut self, base: &'static str, channel: Channel) -> CounterId {
        if let Some(&id) = self.by_channel.get(&(base, channel)) {
            return id;
        }
        use std::fmt::Write;
        self.scratch.clear();
        let _ = write!(self.scratch, "{base}{{chan={channel}}}");
        let id = match self.by_name.get(self.scratch.as_str()) {
            Some(&id) => id,
            None => self.insert_slot(Name::Shared(self.scratch.as_str().into())),
        };
        self.by_channel.insert((base, channel), id);
        id
    }

    /// The interned name behind `id` (the full composed key for labeled
    /// counters).
    pub fn name_of(&self, id: CounterId) -> &Name {
        &self.names[id.index()]
    }

    /// Bump a counter through its pre-registered handle — the per-packet
    /// fast path: one array index, no hashing, no formatting.
    #[inline]
    pub fn count_id(&mut self, id: CounterId, delta: u64) {
        self.values[id.index()] += delta;
        self.touched[id.index()] = true;
    }

    /// Bump a named counter. Accepts both the classic `&'static str` keys
    /// and owned `String` keys (for labeled counters built elsewhere).
    /// Interns the key on first use; hot call sites should pre-register
    /// with [`counter`](Self::counter) and bump via [`count_id`](Self::count_id).
    pub fn count(&mut self, key: impl Into<Cow<'static, str>>, delta: u64) {
        let id = self.counter(key);
        self.count_id(id, delta);
    }

    /// Read a named counter (0 if never bumped).
    pub fn named(&self, key: &str) -> u64 {
        self.by_name.get(key).map_or(0, |id| self.values[id.index()])
    }

    /// All named counters that have been bumped at least once, sorted by
    /// name (registered-but-never-bumped slots are hidden).
    pub fn named_counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        let mut out: Vec<(&str, u64)> = self
            .names
            .iter()
            .zip(&self.values)
            .zip(&self.touched)
            .filter(|&(_, &t)| t)
            .map(|((n, &v), _)| (n.as_ref(), v))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use express_wire::addr::Ipv4Addr;

    #[test]
    fn link_accounting() {
        let mut s = Stats::new(2);
        s.record_tx(LinkId(0), 100, TrafficClass::Data);
        s.record_tx(LinkId(0), 20, TrafficClass::Control);
        s.record_tx(LinkId(1), 50, TrafficClass::Data);
        s.record_drop(LinkId(1));
        assert_eq!(s.link(LinkId(0)).data_bytes, 100);
        assert_eq!(s.link(LinkId(0)).control_bytes, 20);
        assert_eq!(s.link(LinkId(0)).packets(), 2);
        assert_eq!(s.total().bytes(), 170);
        assert_eq!(s.total().drops, 1);
    }

    /// The link table against one `LinkStats` per link, through a seeded
    /// sequence of transmissions and drops, with the control-and-drop half
    /// coming to exist after the first round or not at all.
    #[test]
    fn link_table_matches_a_row_per_link_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const LINKS: usize = 7;
        fn add(to: &mut LinkStats, m: &LinkStats) {
            to.data_packets += m.data_packets;
            to.data_bytes += m.data_bytes;
            to.control_packets += m.control_packets;
            to.control_bytes += m.control_bytes;
            to.drops += m.drops;
        }
        let check = |s: &Stats, model: &[LinkStats]| {
            let mut total = LinkStats::default();
            for (l, m) in model.iter().enumerate() {
                assert_eq!(s.link(LinkId(l as u32)), *m, "link {l}");
                add(&mut total, m);
            }
            assert_eq!(s.total(), total);
        };
        // Whether control traffic or drops are written from the second
        // round on, or never (data only).
        for cold in [false, true] {
            let mut rng = StdRng::seed_from_u64(u64::from(cold));
            let (mut s, mut model) = (Stats::new(LINKS), [LinkStats::default(); LINKS]);
            s.count("kept", 1);
            for round in 0..4 {
                for _ in 0..40 {
                    let l = rng.random_range(0..LINKS);
                    let bytes = rng.random_range(1..1500usize);
                    // The last link sees no data; the first nothing else.
                    match rng.random_range(0..if cold && round > 0 { 3u32 } else { 1 }) {
                        0 if l < LINKS - 1 => {
                            s.record_tx(LinkId(l as u32), bytes, TrafficClass::Data);
                            model[l].data_packets += 1;
                            model[l].data_bytes += bytes as u64;
                        }
                        1 if l > 0 => {
                            s.record_tx(LinkId(l as u32), bytes, TrafficClass::Control);
                            model[l].control_packets += 1;
                            model[l].control_bytes += bytes as u64;
                        }
                        2 if l > 0 => {
                            s.record_drop(LinkId(l as u32));
                            model[l].drops += 1;
                        }
                        _ => {}
                    }
                }
                check(&s, &model);
                assert_eq!(s.link_cold.is_empty(), !(cold && round > 0), "allocated by the first write only");
            }
            assert_eq!(s.named_counters().collect::<Vec<_>>(), vec![("kept", 1)]);
        }
    }

    #[test]
    fn a_missing_counter_handle_costs_no_byte() {
        assert_eq!(std::mem::size_of::<Option<CounterId>>(), 4);
        let mut s = Stats::new(0);
        let (a, b) = (s.counter("a"), s.counter("b"));
        assert_eq!((a.index(), b.index()), (1, 2), "slot 0 is the placeholder");
        s.count_id(b, 1);
        assert_eq!(s.named_counters().collect::<Vec<_>>(), vec![("b", 1)]);
    }

    #[test]
    fn named_counters() {
        let mut s = Stats::new(0);
        s.count("ecmp.count_msgs", 3);
        s.count("ecmp.count_msgs", 2);
        assert_eq!(s.named("ecmp.count_msgs"), 5);
        assert_eq!(s.named("missing"), 0);
        assert_eq!(s.named_counters().collect::<Vec<_>>(), vec![("ecmp.count_msgs", 5)]);
    }

    #[test]
    fn owned_and_labeled_keys() {
        let mut s = Stats::new(0);
        s.count(String::from("x.y"), 1);
        s.count("x.y", 1);
        let [a, b] = [1, 2].map(|n| Channel::new(Ipv4Addr::new(10, 0, 0, n), 1).unwrap());
        let id = s.channel_counter("ecmp.count_msgs", a);
        s.count_id(id, 2);
        s.count_id(id, 3);
        let id = s.channel_counter("ecmp.count_msgs", b);
        s.count_id(id, 1);
        assert_eq!(s.named("x.y"), 2);
        assert_eq!(s.named(&format!("ecmp.count_msgs{{chan={a}}}")), 5);
        assert_eq!(s.named(&format!("ecmp.count_msgs{{chan={b}}}")), 1);
        // Base key untouched by labeled bumps.
        assert_eq!(s.named("ecmp.count_msgs"), 0);
        assert_eq!(s.named_counters().count(), 3);
    }

    #[test]
    fn interned_handles_alias_string_keys() {
        let mut s = Stats::new(0);
        let id = s.counter("express.data_fwd");
        // Registration alone leaves the counter invisible.
        assert_eq!(s.named_counters().count(), 0);
        s.count_id(id, 4);
        s.count("express.data_fwd", 1);
        assert_eq!(s.named("express.data_fwd"), 5);
        assert_eq!(s.counter("express.data_fwd"), id);
        assert_eq!(s.name_of(id).as_str(), "express.data_fwd");
        // A zero-delta bump still surfaces the key (matches the old map
        // behavior of `count(key, 0)`).
        let other = s.counter("ecmp.auth_reject");
        s.count_id(other, 0);
        assert_eq!(
            s.named_counters().collect::<Vec<_>>(),
            vec![("ecmp.auth_reject", 0), ("express.data_fwd", 5)]
        );
    }

    #[test]
    fn channel_counters_compose_stable_keys() {
        let mut s = Stats::new(0);
        let src = Ipv4Addr::new(10, 0, 0, 5);
        let chan = Channel::new(src, 1).unwrap();
        let id = s.channel_counter("ecmp.count_msgs", chan);
        assert_eq!(s.channel_counter("ecmp.count_msgs", chan), id);
        s.count_id(id, 7);
        // The composed key is an ordinary string key, so a bump by name
        // lands on the same slot.
        s.count(format!("ecmp.count_msgs{{chan={chan}}}"), 1);
        assert_eq!(s.named(&format!("ecmp.count_msgs{{chan={chan}}}")), 8);
        assert_eq!(s.named_counters().count(), 1);
    }
}
