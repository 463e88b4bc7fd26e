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
//! in its first seven octets — there is no separate key — in a
//! [`Table`]: a table of at most one entry lives
//! inline in the [`Fib`]; a second entry moves it to an open-addressed
//! array of slots. A slot is an entry plus an occupancy octet, 13 B.

use crate::table::{channel_key, Keyed, Table};
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

/// The `(S, E)` key an entry carries, read off its packed octets (equal to
/// [`channel_key`] of its channel).
impl Keyed for FibEntry {
    type Key = u64;

    fn key(&self) -> u64 {
        let r = self.raw();
        u64::from_be_bytes([0, r[0], r[1], r[2], r[3], r[4], r[5], r[6]])
    }
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
#[derive(Debug, Default)]
pub struct Fib {
    /// Looked up through [`Table::get_hinted`]: channel popularity in a
    /// forwarding run is extremely skewed — a router on a distribution tree
    /// sees one channel millions of times — so the steady state is a key
    /// compare instead of a hash and a probe.
    entries: Table<FibEntry>,
    forwarded: u64,
    /// The two drop counters, allocated by the first drop: a forward never
    /// touches them, and a router on a working tree never drops.
    drops: Option<Box<Drops>>,
}

/// The drop half of [`FibCounters`].
#[derive(Debug, Default)]
struct Drops {
    no_entry: u64,
    rpf: u64,
}

impl Fib {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install or replace the entry for `channel`.
    pub fn install(&mut self, entry: FibEntry) {
        self.entries.insert(entry);
    }

    /// Remove the entry for `channel`; returns it if present.
    pub fn remove(&mut self, channel: Channel) -> Option<FibEntry> {
        self.entries.remove(channel_key(channel))
    }

    /// Read the entry for `channel`.
    pub fn get(&self, channel: Channel) -> Option<&FibEntry> {
        self.entries.get(channel_key(channel))
    }

    /// Mutable access to the entry for `channel`: the caller may edit it in
    /// place. (An entry's setters reach its interfaces only, never the
    /// `(S, E)` it is filed under.)
    pub fn get_mut(&mut self, channel: Channel) -> Option<&mut FibEntry> {
        self.entries.get_mut(channel_key(channel))
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
        let Some(e) = self.entries.get_hinted(channel_key(channel)) else {
            return Forward::NoEntry;
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
            Forward::To(_) => self.forwarded += 1,
            Forward::NoEntry => self.drops.get_or_insert_with(Box::default).no_entry += 1,
            Forward::WrongInterface => self.drops.get_or_insert_with(Box::default).rpf += 1,
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
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
        let (no_entry_drops, rpf_drops) = self.drops.as_ref().map_or((0, 0), |d| (d.no_entry, d.rpf));
        FibCounters { forwarded: self.forwarded, no_entry_drops, rpf_drops }
    }

    /// Iterate all entries (in table order, which is no particular order).
    pub fn iter(&self) -> impl Iterator<Item = &FibEntry> {
        self.entries.iter()
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
        assert!(fib.drops.is_none(), "a forward allocates no drop counters");
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
        assert!(fib.drops.is_some(), "the first drop allocates them");
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
        assert_eq!((fib.entries.capacity(), fib.len()), (1, 1), "one entry lives inline");
        assert_eq!(fib.remove(chan(1)).unwrap().oif_mask(), 0b11);
        assert_eq!((fib.entries.capacity(), fib.len()), (1, 0));
        assert_eq!(fib.lookup(chan(1), 0), Forward::NoEntry);

        fib.install(FibEntry::new(chan(1), 0, 0b10).unwrap());
        fib.install(FibEntry::new(chan(2), 0, 0b100).unwrap());
        assert_eq!((fib.entries.capacity(), fib.len()), (Table::<FibEntry>::MIN_SLOTS, 2));
        assert_eq!(fib.lookup(chan(1), 0), Forward::To(0b10));
        assert_eq!(fib.lookup(chan(2), 0), Forward::To(0b100));
    }
}
