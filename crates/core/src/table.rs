//! Keyed storage for records that carry their own key: the open-addressed
//! [`Table`] behind the FIB and the router's channel table, and the small
//! ordered [`InlineSet`] behind a channel's downstream neighbours, a
//! pending count's awaited neighbours, and a host's pending actions and
//! subscriptions.
//!
//! Neither has a separate key column — a record says what it is filed under
//! ([`Keyed`]) — and neither is seeded: the order in which the records are
//! handed out is a function of the keys alone, the same in every process,
//! at every shard count and after every history of inserts and removals
//! that ends in the same contents. [`InlineSet`] iterates in ascending key
//! order; [`Table`] probes in an order that depends on past collisions, so
//! agents walk it through [`Table::picked`].

use express_wire::addr::Channel;
use std::collections::VecDeque;

/// A record that carries the key it is filed under. The key must not
/// change while the record sits in a container.
pub trait Keyed {
    /// What records are told apart and ordered by.
    type Key: Copy + Ord;

    /// This record's key.
    fn key(&self) -> Self::Key;
}

/// The 56-bit `(S, E)` of a channel, the [`Table`] key of everything filed
/// per channel. Ascending keys are ascending `(S, E)`.
pub fn channel_key(channel: Channel) -> u64 {
    u64::from(channel.source.to_u32()) << 24 | u64::from(channel.dest.value())
}

type Slot<T> = Option<T>;

/// Home slot of `key` in a table of `mask + 1` slots: the SplitMix64
/// finalizer, so keys that differ in a few low bits (one source's
/// consecutive `E`s, the common case) scatter instead of forming one run.
/// The function is fixed, not seeded: the keys are the experiment's own
/// channels, not an adversary's.
fn home(key: u64, mask: usize) -> usize {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize & mask
}

/// Where `key`'s probe sequence ends in `slots`: the slot holding it, or
/// the vacancy it would fill. `None` only for the one-slot inline store
/// occupied by another key.
fn probe<T: Keyed<Key = u64>>(slots: &[Slot<T>], key: u64) -> Option<usize> {
    let mask = slots.len() - 1;
    let mut i = home(key, mask);
    for _ in 0..slots.len() {
        match &slots[i] {
            Some(e) if e.key() != key => i = (i + 1) & mask,
            _ => return Some(i),
        }
    }
    None
}

/// Where the records live.
#[derive(Debug)]
enum Store<T> {
    /// At most one record, in the table's owner: a router with one route —
    /// every hop of a single-channel distribution tree — owns no heap
    /// table.
    Inline(Slot<T>),
    /// `slots.len()` is a power of two ≥ [`Table::MIN_SLOTS`] and
    /// `len ≤ ¾ · slots.len()`, so every probe sequence ends at a vacancy.
    /// `hint` is the slot [`get_hinted`](Table::get_hinted) last found a
    /// record in; the inline store needs none, its one slot is the hint.
    Heap { slots: Box<[Slot<T>]>, len: u32, hint: u32 },
}

/// An exact-match table of records keyed by a `u64` each one carries.
///
/// A table of at most one record lives inline; a second record moves it to
/// an open-addressed array of slots (linear probing, power-of-two capacity,
/// at most three quarters full, backward-shift deletion so there are no
/// tombstones). Capacity never shrinks, so a table that has held its
/// working set allocates no more.
#[derive(Debug)]
pub struct Table<T> {
    store: Store<T>,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            store: Store::Inline(None),
        }
    }
}

impl<T: Keyed<Key = u64>> Table<T> {
    /// Capacity of the first heap table (it takes over from the inline
    /// slot at two records).
    pub const MIN_SLOTS: usize = 4;

    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn slots(&self) -> &[Slot<T>] {
        match &self.store {
            Store::Inline(slot) => std::slice::from_ref(slot),
            Store::Heap { slots, .. } => slots,
        }
    }

    fn slots_mut(&mut self) -> &mut [Slot<T>] {
        match &mut self.store {
            Store::Inline(slot) => std::slice::from_mut(slot),
            Store::Heap { slots, .. } => slots,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Inline(slot) => usize::from(slot.is_some()),
            Store::Heap { len, .. } => *len as usize,
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots owned: 1 while the table is its inline slot.
    pub fn capacity(&self) -> usize {
        self.slots().len()
    }

    /// The record filed under `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        let slots = self.slots();
        slots[probe(slots, key)?].as_ref()
    }

    /// [`get`](Self::get), looking first in the slot the last call found
    /// its record in and leaving there the slot this one finds: a caller
    /// that keeps asking for one key pays a compare, not a hash and a
    /// probe. The hint is checked against the key every time, so any value
    /// is safe and no insert or removal has to reset it.
    pub fn get_hinted(&mut self, key: u64) -> Option<&T> {
        let (slots, hint): (&[Slot<T>], _) = match &mut self.store {
            Store::Inline(slot) => return slot.as_ref().filter(|r| r.key() == key),
            Store::Heap { slots, hint, .. } => (slots, hint),
        };
        if let Some(Some(record)) = slots.get(*hint as usize) {
            if record.key() == key {
                return Some(record);
            }
        }
        let i = probe(slots, key)?;
        let record = slots[i].as_ref()?;
        *hint = i as u32;
        Some(record)
    }

    /// Mutable access to the record filed under `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let i = probe(self.slots(), key)?;
        self.slots_mut()[i].as_mut()
    }

    /// The record filed under `key`, filed now as `make()` if there was
    /// none — one probe either way.
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> T) -> &mut T {
        let i = match probe(self.slots(), key) {
            Some(i) if self.slots()[i].is_some() => i,
            vacancy => {
                let record = make();
                debug_assert!(record.key() == key, "a record is filed under the key it carries");
                self.place(vacancy, record)
            }
        };
        self.slots_mut()[i].as_mut().expect("found or placed above")
    }

    /// File `record` under the key it carries; returns the record it
    /// replaces, if any.
    pub fn insert(&mut self, record: T) -> Option<T> {
        match probe(self.slots(), record.key()) {
            Some(i) if self.slots()[i].is_some() => self.slots_mut()[i].replace(record),
            vacancy => {
                self.place(vacancy, record);
                None
            }
        }
    }

    /// File a record whose key is not present, at the `vacancy` its probe
    /// sequence ended in; returns the slot it went to. The inline slot is
    /// full when taken; a heap table grows before it would pass three
    /// quarters, so its probes keep ending.
    fn place(&mut self, mut vacancy: Option<usize>, record: T) -> usize {
        let (cap, len) = (self.capacity(), self.len());
        if vacancy.is_none() || (cap > 1 && (len + 1) * 4 > cap * 3) {
            let mut grown: Box<[Slot<T>]> = std::iter::repeat_with(|| None)
                .take((cap * 2).max(Self::MIN_SLOTS))
                .collect();
            for e in self.slots_mut().iter_mut().filter_map(Option::take) {
                let i = probe(&grown, e.key()).expect("a grown table has room");
                grown[i] = Some(e);
            }
            vacancy = probe(&grown, record.key());
            self.store = Store::Heap { slots: grown, len: len as u32, hint: 0 };
        }
        let i = vacancy.expect("a table under its load bound has a vacancy");
        self.slots_mut()[i] = Some(record);
        if let Store::Heap { len, .. } = &mut self.store {
            *len += 1;
        }
        i
    }

    /// Remove and return the record filed under `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let mut hole = probe(self.slots(), key)?;
        let removed = self.slots_mut()[hole].take()?;
        let Store::Heap { slots, len, .. } = &mut self.store else {
            return Some(removed);
        };
        *len -= 1;
        // Backward-shift repair: walk the run after the hole and pull back
        // every record whose probe sequence passed through it, so no probe
        // is ever cut short by the vacancy.
        let mask = slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some(e) = &slots[j] else { break };
            let from_home = j.wrapping_sub(home(e.key(), mask)) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                slots[hole] = slots[j].take();
                hole = j;
            }
        }
        Some(removed)
    }

    /// Every record, in slot order — no particular order, and not the same
    /// one for equal contents reached by different histories. Fit for sums
    /// and for callers that sort; anything whose *effects* follow the
    /// iteration order walks [`picked`](Self::picked) instead.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots().iter().flatten()
    }

    /// `pick`'s answer for each record it answers for, as `(key, answer)` in
    /// ascending key order: the order an agent acts on its records in, a
    /// function of the contents alone. `pick` sees every record once, in
    /// slot order. A snapshot, so the walk over it may insert and remove as
    /// it goes; one allocation if anything is picked, none if nothing is.
    pub fn picked<V>(&self, mut pick: impl FnMut(&T) -> Option<V>) -> Vec<(u64, V)> {
        let mut picked = Vec::new();
        for record in self.iter() {
            if let Some(v) = pick(record) {
                if picked.is_empty() {
                    picked.reserve_exact(self.len());
                }
                picked.push((record.key(), v));
            }
        }
        picked.sort_unstable_by_key(|&(key, _)| key);
        picked
    }
}

/// How many records an [`InlineSet`] stores in place.
const INLINE: usize = 4;

/// A small set of records in ascending key order: up to
/// [`INLINE`](Self::INLINE) of them stored in place, more than that in one
/// heap ring buffer. The fifth record moves the set into the ring, and the
/// set keeps it from then on, as a [`Table`] keeps its capacity: a set
/// whose size swings across the boundary allocates once, not once per
/// crossing. The ring makes adding a new largest key and removing the
/// smallest O(1), so a queue of pending records (a host's scheduled
/// actions, fired in the order they were made) costs no shift per record.
///
/// Sized for a channel's downstream neighbours: a transit router has one
/// or two, an edge router a few hosts.
#[derive(Debug, Clone)]
pub struct InlineSet<T> {
    repr: Repr<T>,
}

#[derive(Debug, Clone)]
enum Repr<T> {
    /// `slots[..len]` are occupied and ascending, the rest vacant.
    Inline { slots: [Slot<T>; INLINE], len: usize },
    /// The records of a set that has held more than
    /// [`InlineSet::INLINE`], ascending.
    Heap(VecDeque<T>),
}

impl<T> Default for InlineSet<T> {
    fn default() -> Self {
        InlineSet {
            repr: Repr::Inline {
                slots: std::array::from_fn(|_| None),
                len: 0,
            },
        }
    }
}

impl<T: Keyed> InlineSet<T> {
    /// How many records are stored in place.
    pub const INLINE: usize = INLINE;

    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Are the records stored in place (no heap ring)? True until the set
    /// first holds more than [`INLINE`](Self::INLINE) records, false from
    /// then on.
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// The records in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (inline, front, back): (&[Slot<T>], &[T], &[T]) = match &self.repr {
            Repr::Inline { slots, len } => (&slots[..*len], &[], &[]),
            Repr::Heap(v) => {
                let (front, back) = v.as_slices();
                (&[], front, back)
            }
        };
        inline.iter().flatten().chain(front).chain(back)
    }

    /// Where `key` is (`Ok`) or would go (`Err`) among the occupied
    /// `slots`.
    fn position(slots: &[Slot<T>], key: T::Key) -> Result<usize, usize> {
        for (i, slot) in slots.iter().enumerate() {
            match slot.as_ref().expect("occupied prefix").key().cmp(&key) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return Ok(i),
                std::cmp::Ordering::Greater => return Err(i),
            }
        }
        Err(slots.len())
    }

    /// The record with `key`.
    pub fn get(&self, key: T::Key) -> Option<&T> {
        match &self.repr {
            Repr::Inline { slots, len } => {
                let i = Self::position(&slots[..*len], key).ok()?;
                slots[i].as_ref()
            }
            Repr::Heap(v) => v.binary_search_by_key(&key, Keyed::key).ok().map(|i| &v[i]),
        }
    }

    /// Mutable access to the record with `key` (its key must stay).
    pub fn get_mut(&mut self, key: T::Key) -> Option<&mut T> {
        match &mut self.repr {
            Repr::Inline { slots, len } => {
                let i = Self::position(&slots[..*len], key).ok()?;
                slots[i].as_mut()
            }
            Repr::Heap(v) => v.binary_search_by_key(&key, Keyed::key).ok().map(|i| &mut v[i]),
        }
    }

    /// Add `record`, replacing (and returning) the one with its key.
    pub fn insert(&mut self, record: T) -> Option<T> {
        let key = record.key();
        match &mut self.repr {
            Repr::Inline { slots, len } => match Self::position(&slots[..*len], key) {
                Ok(i) => slots[i].replace(record),
                Err(i) if *len < Self::INLINE => {
                    // The vacancy after the prefix rotates down to `i`.
                    slots[i..=*len].rotate_right(1);
                    slots[i] = Some(record);
                    *len += 1;
                    None
                }
                Err(i) => {
                    let mut v = VecDeque::with_capacity(2 * Self::INLINE);
                    v.extend(slots.iter_mut().filter_map(Option::take));
                    v.insert(i, record);
                    self.repr = Repr::Heap(v);
                    None
                }
            },
            Repr::Heap(v) => match v.binary_search_by_key(&key, Keyed::key) {
                Ok(i) => Some(std::mem::replace(&mut v[i], record)),
                Err(i) => {
                    v.insert(i, record);
                    None
                }
            },
        }
    }

    /// Remove and return the record with `key`.
    pub fn remove(&mut self, key: T::Key) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { slots, len } => {
                let i = Self::position(&slots[..*len], key).ok()?;
                let removed = slots[i].take();
                slots[i..*len].rotate_left(1);
                *len -= 1;
                removed
            }
            Repr::Heap(v) => v.remove(v.binary_search_by_key(&key, Keyed::key).ok()?),
        }
    }

    /// Keep the records `keep` says yes to, visiting them in ascending key
    /// order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.repr {
            Repr::Inline { slots, len } => {
                let mut kept = 0;
                for i in 0..*len {
                    let record = slots[i].take().expect("occupied prefix");
                    if keep(&record) {
                        slots[kept] = Some(record);
                        kept += 1;
                    }
                }
                *len = kept;
            }
            Repr::Heap(v) => v.retain(keep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Rec(u64, u32);

    impl Keyed for Rec {
        type Key = u64;
        fn key(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn table_grows_from_its_inline_slot_and_keeps_its_capacity() {
        let mut t = Table::new();
        assert_eq!(t.capacity(), 1);
        assert_eq!(t.insert(Rec(7, 1)), None);
        assert_eq!(t.insert(Rec(7, 2)), Some(Rec(7, 1)));
        assert_eq!(t.capacity(), 1, "one record lives inline");
        t.get_or_insert_with(9, || Rec(9, 3)).1 += 1;
        assert_eq!(t.capacity(), Table::<Rec>::MIN_SLOTS);
        assert_eq!(t.get(9), Some(&Rec(9, 4)));
        for k in 0..100 {
            t.insert(Rec(k, 0));
        }
        let cap = t.capacity();
        assert!(t.len() * 4 <= cap * 3);
        assert_eq!(t.picked(|r| Some(r.1)), (0..100).map(|k| (k, 0)).collect::<Vec<_>>());
        for k in 0..100 {
            assert_eq!(t.remove(k), Some(Rec(k, 0)));
        }
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap, "capacity is kept for the next working set");
    }

    #[test]
    fn a_hint_is_left_at_the_record_and_is_never_more_than_a_shortcut() {
        let mut t = Table::new();
        for k in 0..50 {
            t.insert(Rec(k, 0));
        }
        let hint = |t: &Table<Rec>| match t.store {
            Store::Heap { hint, .. } => hint as usize,
            Store::Inline(_) => unreachable!("fifty records live on the heap"),
        };
        assert_eq!(t.get_hinted(33), Some(&Rec(33, 0)));
        assert_eq!(t.slots()[hint(&t)], Some(Rec(33, 0)));
        // A key that is not there leaves the hint where it was, and the
        // next question for the hinted key is still answered.
        let at = hint(&t);
        assert_eq!(t.get_hinted(99), None);
        assert_eq!(hint(&t), at);
        t.get_mut(33).unwrap().1 = 7;
        assert_eq!(t.get_hinted(33), Some(&Rec(33, 7)));
        // The record goes; the slot, vacant or refilled, answers for no
        // key but its own.
        assert_eq!(t.remove(33), Some(Rec(33, 7)));
        assert_eq!(t.get_hinted(33), None);
        assert_eq!(t.get_hinted(34), Some(&Rec(34, 0)));
        // The one-record table answers from its inline slot, hint-free.
        let mut one = Table::new();
        one.insert(Rec(5, 1));
        assert_eq!(one.get_hinted(5), Some(&Rec(5, 1)));
        assert_eq!(one.get_hinted(6), None);
        assert_eq!(std::mem::size_of::<Table<express_wire::fib::FibEntry>>(), 24);
    }

    #[test]
    fn inline_set_orders_spills_and_keeps_its_ring() {
        let mut s = InlineSet::new();
        for k in [5u64, 1, 3, 7] {
            assert_eq!(s.insert(Rec(k, 0)), None);
        }
        assert!(s.is_inline());
        assert_eq!(s.insert(Rec(3, 9)), Some(Rec(3, 0)));
        assert_eq!(s.insert(Rec(4, 0)), None);
        assert!(!s.is_inline(), "a fifth record spills");
        assert_eq!(s.iter().map(Keyed::key).collect::<Vec<_>>(), [1, 3, 4, 5, 7]);
        s.get_mut(4).unwrap().1 = 2;
        assert_eq!(s.remove(1), Some(Rec(1, 0)));
        assert!(!s.is_inline(), "four records keep the ring they spilled into");
        assert_eq!(s.get(4), Some(&Rec(4, 2)));
        s.retain(|r| r.0 != 5);
        assert_eq!(s.iter().map(Keyed::key).collect::<Vec<_>>(), [3, 4, 7]);
        assert_eq!(s.remove(5), None);
        assert_eq!(s.len(), 3);
        // Used as a queue while spilled (the largest key in, the smallest
        // out), the heap ring wraps; order and lookups must not notice.
        for k in 8..=12 {
            s.insert(Rec(k, 0));
        }
        for k in 13..40u32 {
            let first = s.iter().next().map(Keyed::key).unwrap();
            assert_eq!(s.remove(first).map(|r| r.0), Some(first));
            s.insert(Rec(k.into(), k));
            let keys: Vec<u64> = s.iter().map(Keyed::key).collect();
            assert!(keys.len() == 8 && keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
            assert_eq!(s.get(k.into()), Some(&Rec(k.into(), k)));
        }
    }
}
