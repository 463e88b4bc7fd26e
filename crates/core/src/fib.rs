//! The EXPRESS forwarding table: exact-match `(S, E)` lookup over the
//! packed 12-byte entries of Figure 5.
//!
//! Forwarding semantics (§3.4):
//!
//! * A packet matching an entry **and** arriving on the entry's incoming
//!   (RPF) interface is forwarded to the entry's outgoing interface set.
//! * A packet arriving on the *wrong* interface is dropped (the standard
//!   reverse-path data-loop check).
//! * A packet matching **no** entry is "simply counted and dropped, as
//!   opposed to being forwarded to a rendezvous point as in PIM-SM or
//!   broadcast as with PIM-DM and DVMRP" — this is the mechanism that makes
//!   unauthorized senders harmless (§1's third problem).
//!
//! Storage: the entries themselves, keyed by the `(S, E)` each one carries
//! in its first seven octets — there is no separate key. A table of at most
//! one entry lives inline in the [`Fib`]; a second entry moves it to an
//! open-addressed array of slots (linear probing, power-of-two capacity, at
//! most three quarters full, backward-shift deletion so there are no
//! tombstones). A slot is an entry plus an occupancy octet, 13 B.

use express_wire::addr::Channel;
use express_wire::fib::{FibEntry, FIB_ENTRY_LEN};

/// The fast-path decision for one received channel packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forward {
    /// Forward to these outgoing interfaces (bitmask; never includes the
    /// arrival interface).
    To(u32),
    /// No FIB entry for this (S,E): count and drop.
    NoEntry,
    /// Entry exists but the packet arrived on the wrong interface
    /// (RPF check failed): drop.
    WrongInterface,
}

/// Per-table drop/forward counters (the "counted" part of count-and-drop).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibCounters {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped with no matching entry (unauthorized or unknown
    /// senders).
    pub no_entry_drops: u64,
    /// Packets dropped by the incoming-interface check.
    pub rpf_drops: u64,
}

type Slot = Option<FibEntry>;

/// Where the entries live.
#[derive(Debug)]
enum Store {
    /// At most one entry, in the table's owner: a router with one route —
    /// every hop of a single-channel distribution tree — owns no heap
    /// table.
    Inline(Slot),
    /// `slots.len()` is a power of two ≥ [`Fib::MIN_SLOTS`] and
    /// `len ≤ ¾ · slots.len()`, so every probe sequence ends at a vacancy.
    Table { slots: Box<[Slot]>, len: usize },
}

/// The 56-bit `(S, E)` of a channel — the first seven octets of its entry.
fn key_of(channel: Channel) -> u64 {
    u64::from(channel.source.to_u32()) << 24 | u64::from(channel.dest.value())
}

/// The `(S, E)` key an entry carries, read off its packed octets.
fn entry_key(e: &FibEntry) -> u64 {
    let r = e.raw();
    u64::from_be_bytes([0, r[0], r[1], r[2], r[3], r[4], r[5], r[6]])
}

/// Home slot of `key` in a table of `mask + 1` slots: the SplitMix64
/// finalizer, so channels that differ in a few low bits (one source's
/// consecutive `E`s, the common case) scatter instead of forming one run.
/// The function is fixed, not seeded: table order is reproducible, and the
/// keys are the experiment's own channels, not an adversary's.
fn home(key: u64, mask: usize) -> usize {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize & mask
}

/// Where `key`'s probe sequence ends in `slots`: the slot holding it, or
/// the vacancy it would fill. `None` only for the one-slot inline store
/// occupied by another channel.
fn probe(slots: &[Slot], key: u64) -> Option<usize> {
    let mask = slots.len() - 1;
    let mut i = home(key, mask);
    for _ in 0..slots.len() {
        match &slots[i] {
            Some(e) if entry_key(e) != key => i = (i + 1) & mask,
            _ => return Some(i),
        }
    }
    None
}

/// The EXPRESS FIB.
///
/// Entries are stored in their packed 12-byte wire representation and
/// [`memory_bytes`](Fib::memory_bytes) reports `entries × 12`: exactly the
/// structure the paper's §5.1 cost model prices. (The host table behind it
/// spends one more octet per slot on occupancy; see the module docs.)
///
/// ```
/// use express::fib::{Fib, Forward};
/// use express_wire::addr::{Channel, Ipv4Addr};
/// use express_wire::fib::FibEntry;
///
/// let mut fib = Fib::new();
/// let chan = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 7).unwrap();
/// fib.install(FibEntry::new(chan, 0, 0b0110).unwrap());
///
/// // Matching packet on the RPF interface: forwarded.
/// assert_eq!(fib.lookup(chan, 0), Forward::To(0b0110));
/// // Unknown (S', E): counted and dropped — §3.4's access control.
/// let rogue = Channel::new(Ipv4Addr::new(10, 9, 9, 9), 7).unwrap();
/// assert_eq!(fib.lookup(rogue, 0), Forward::NoEntry);
/// assert_eq!(fib.memory_bytes(), 12);
/// ```
#[derive(Debug)]
pub struct Fib {
    store: Store,
    counters: FibCounters,
    /// Last channel resolved by [`lookup`](Self::lookup) with a copy of
    /// its entry — a one-line cache in front of the table probe. Channel
    /// popularity in a forwarding run is extremely skewed (a router on a
    /// distribution tree sees one channel millions of times), so the
    /// steady state is a two-word compare instead of a hash and a probe.
    /// Invalidated by every mutating entry point.
    cached: Option<(Channel, FibEntry)>,
}

impl Default for Fib {
    fn default() -> Self {
        Fib {
            store: Store::Inline(None),
            counters: FibCounters::default(),
            cached: None,
        }
    }
}

impl Fib {
    /// Capacity of the first heap table (it takes over from the inline
    /// slot at two entries).
    const MIN_SLOTS: usize = 4;

    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn slots(&self) -> &[Slot] {
        match &self.store {
            Store::Inline(slot) => std::slice::from_ref(slot),
            Store::Table { slots, .. } => slots,
        }
    }

    fn slots_mut(&mut self) -> &mut [Slot] {
        match &mut self.store {
            Store::Inline(slot) => std::slice::from_mut(slot),
            Store::Table { slots, .. } => slots,
        }
    }

    /// Install or replace the entry for `channel`.
    pub fn install(&mut self, entry: FibEntry) {
        self.cached = None;
        let key = entry_key(&entry);
        let mut vacancy = probe(self.slots(), key);
        if let Some(i) = vacancy {
            if self.slots()[i].is_some() {
                self.slots_mut()[i] = Some(entry);
                return;
            }
        }
        // A new channel. The inline slot is full when taken; a table grows
        // before it would pass three quarters, so its probes keep ending.
        let (cap, len) = (self.slots().len(), self.len());
        if vacancy.is_none() || (cap > 1 && (len + 1) * 4 > cap * 3) {
            let mut grown: Box<[Slot]> = vec![None; (cap * 2).max(Self::MIN_SLOTS)].into();
            for e in self.slots_mut().iter_mut().filter_map(Option::take) {
                let i = probe(&grown, entry_key(&e)).expect("a grown table has room");
                grown[i] = Some(e);
            }
            vacancy = probe(&grown, key);
            self.store = Store::Table { slots: grown, len };
        }
        let i = vacancy.expect("a table under its load bound has a vacancy");
        match &mut self.store {
            Store::Inline(slot) => *slot = Some(entry),
            Store::Table { slots, len } => {
                slots[i] = Some(entry);
                *len += 1;
            }
        }
    }

    /// Remove the entry for `channel`; returns it if present.
    pub fn remove(&mut self, channel: Channel) -> Option<FibEntry> {
        self.cached = None;
        let mut hole = probe(self.slots(), key_of(channel))?;
        let removed = self.slots_mut()[hole].take()?;
        let Store::Table { slots, len } = &mut self.store else {
            return Some(removed);
        };
        *len -= 1;
        // Backward-shift repair: walk the run after the hole and pull back
        // every entry whose probe sequence passed through it, so no probe
        // is ever cut short by the vacancy.
        let mask = slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some(e) = &slots[j] else { break };
            let from_home = j.wrapping_sub(home(entry_key(e), mask)) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                slots[hole] = slots[j].take();
                hole = j;
            }
        }
        Some(removed)
    }

    /// Read the entry for `channel`.
    pub fn get(&self, channel: Channel) -> Option<&FibEntry> {
        let slots = self.slots();
        slots[probe(slots, key_of(channel))?].as_ref()
    }

    /// Mutable access to the entry for `channel`. Invalidates the lookup
    /// cache: the caller may edit the entry in place. (An entry's setters
    /// reach its interfaces only, never the `(S, E)` it is filed under.)
    pub fn get_mut(&mut self, channel: Channel) -> Option<&mut FibEntry> {
        self.cached = None;
        let i = probe(self.slots(), key_of(channel))?;
        self.slots_mut()[i].as_mut()
    }

    /// The forwarding decision of §3.4 for a packet on `channel` arriving
    /// on interface `in_iface`; updates the counters.
    pub fn lookup(&mut self, channel: Channel, in_iface: u8) -> Forward {
        let decision = self.decide(channel, in_iface);
        self.record(decision);
        decision
    }

    /// The §3.4 decision alone, uncounted: the router has a say of its own
    /// (TTL expiry) before a packet counts as forwarded, and hands the
    /// outcome it settled on to [`record`](Self::record).
    pub(crate) fn decide(&mut self, channel: Channel, in_iface: u8) -> Forward {
        let e = match self.cached {
            Some((c, e)) if c == channel => e,
            _ => match self.get(channel) {
                None => return Forward::NoEntry,
                Some(&e) => {
                    self.cached = Some((channel, e));
                    e
                }
            },
        };
        if e.in_iface() != in_iface {
            Forward::WrongInterface
        } else {
            // Defensive: never reflect out the arrival interface.
            Forward::To(e.oif_mask() & !(1u32 << in_iface))
        }
    }

    /// Count one packet handled per `decision`.
    pub(crate) fn record(&mut self, decision: Forward) {
        match decision {
            Forward::To(_) => self.counters.forwarded += 1,
            Forward::NoEntry => self.counters.no_entry_drops += 1,
            Forward::WrongInterface => self.counters.rpf_drops += 1,
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Inline(slot) => usize::from(slot.is_some()),
            Store::Table { len, .. } => *len,
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fast-path memory consumed, in octets: `entries × 12` (Figure 5).
    /// This is the quantity experiment E1 feeds to the §5.1 cost model.
    pub fn memory_bytes(&self) -> usize {
        self.len() * FIB_ENTRY_LEN
    }

    /// The drop/forward counters.
    pub fn counters(&self) -> FibCounters {
        self.counters
    }

    /// Iterate all entries (in table order, which is no particular order).
    pub fn iter(&self) -> impl Iterator<Item = &FibEntry> {
        self.slots().iter().flatten()
    }

    /// Channels present in the table.
    pub fn channels(&self) -> impl Iterator<Item = Channel> + '_ {
        self.iter().map(FibEntry::channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use express_wire::addr::Ipv4Addr;

    fn chan(n: u32) -> Channel {
        Channel::new(Ipv4Addr::new(10, 0, 0, 1), n).unwrap()
    }

    #[test]
    fn forward_on_match() {
        let mut fib = Fib::new();
        fib.install(FibEntry::new(chan(1), 0, 0b0110).unwrap());
        assert_eq!(fib.lookup(chan(1), 0), Forward::To(0b0110));
        assert_eq!(fib.counters().forwarded, 1);
    }

    #[test]
    fn count_and_drop_on_no_entry() {
        let mut fib = Fib::new();
        // An unauthorized sender S' sending to the same E as an existing
        // channel matches nothing: (S',E) ≠ (S,E).
        fib.install(FibEntry::new(chan(1), 0, 0b10).unwrap());
        let rogue = Channel::new(Ipv4Addr::new(10, 9, 9, 9), 1).unwrap();
        assert_eq!(fib.lookup(rogue, 0), Forward::NoEntry);
        assert_eq!(fib.counters().no_entry_drops, 1);
        assert_eq!(fib.counters().forwarded, 0);
    }

    #[test]
    fn rpf_check_drops_wrong_interface() {
        let mut fib = Fib::new();
        fib.install(FibEntry::new(chan(2), 3, 0b1).unwrap());
        assert_eq!(fib.lookup(chan(2), 1), Forward::WrongInterface);
        assert_eq!(fib.counters().rpf_drops, 1);
    }

    #[test]
    fn arrival_interface_excluded_from_output() {
        let mut fib = Fib::new();
        // oif mask erroneously includes the in_iface; lookup must mask it.
        fib.install(FibEntry::new(chan(3), 2, 0b0111).unwrap());
        assert_eq!(fib.lookup(chan(3), 2), Forward::To(0b0011));
    }

    #[test]
    fn memory_accounting_is_twelve_bytes_per_entry() {
        let mut fib = Fib::new();
        for i in 0..100 {
            fib.install(FibEntry::new(chan(i), 0, 1).unwrap());
        }
        assert_eq!(fib.len(), 100);
        assert_eq!(fib.memory_bytes(), 1200);
        fib.remove(chan(0)).unwrap();
        assert_eq!(fib.memory_bytes(), 1188);
    }

    #[test]
    fn install_replaces() {
        let mut fib = Fib::new();
        fib.install(FibEntry::new(chan(1), 0, 0b1).unwrap());
        fib.install(FibEntry::new(chan(1), 0, 0b11).unwrap());
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.get(chan(1)).unwrap().oif_mask(), 0b11);
    }

    #[test]
    fn mutate_in_place() {
        let mut fib = Fib::new();
        fib.install(FibEntry::new(chan(1), 0, 0).unwrap());
        fib.get_mut(chan(1)).unwrap().add_oif(4).unwrap();
        assert_eq!(fib.lookup(chan(1), 0), Forward::To(0b10000));
    }

    #[test]
    fn one_route_table_owns_no_heap_and_a_second_route_moves_it_out() {
        let mut fib = Fib::new();
        fib.install(FibEntry::new(chan(1), 0, 0b1).unwrap());
        fib.install(FibEntry::new(chan(1), 0, 0b11).unwrap());
        assert!(matches!(fib.store, Store::Inline(Some(_))));
        assert_eq!(fib.remove(chan(1)).unwrap().oif_mask(), 0b11);
        assert!(matches!(fib.store, Store::Inline(None)));
        assert_eq!(fib.lookup(chan(1), 0), Forward::NoEntry);

        fib.install(FibEntry::new(chan(1), 0, 0b10).unwrap());
        fib.install(FibEntry::new(chan(2), 0, 0b100).unwrap());
        assert!(matches!(&fib.store, Store::Table { slots, len: 2 } if slots.len() == Fib::MIN_SLOTS));
        assert_eq!(fib.lookup(chan(1), 0), Forward::To(0b10));
        assert_eq!(fib.lookup(chan(2), 0), Forward::To(0b100));
    }
}
