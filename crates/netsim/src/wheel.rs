//! The calendar-queue event scheduler: a single-level timer wheel with an
//! overflow heap, replacing the engine's former global `BinaryHeap`.
//!
//! ## Why a wheel
//!
//! At paper scale (§5.3's million-subscriber tree) the pending-event set
//! peaks in the millions; a global binary heap pays O(log n) per operation
//! against that full population even though almost every event is scheduled
//! a few link-latencies ahead of now. The wheel buckets events by coarse
//! timestamp so schedule and pop touch only the handful of events sharing a
//! bucket: O(1) amortized per operation at bounded horizon.
//!
//! ## Structure
//!
//! * **Slots.** Time is divided into buckets of `granularity` microseconds;
//!   slot *s* holds every pending event whose timestamp lies in
//!   `[s·g, (s+1)·g)`. The wheel keeps `slots` consecutive buckets — the
//!   *horizon* is `slots × granularity` microseconds past the cursor. Both
//!   parameters are rounded up to powers of two so bucket math is shift/mask.
//! * **Cursor.** `cursor_slot` is the next undrained bucket. Events land in
//!   a plain `Vec` per slot, *unordered*; ordering is imposed only when the
//!   cursor reaches the slot and its contents are sorted into the `current`
//!   run.
//! * **`current`.** The bucket being drained, sorted descending `(at, seq)`
//!   and popped off the tail — O(1) per pop with sequential access, and the
//!   sort itself is O(k) for the dominant case of a same-timestamp cohort
//!   already in push (= seq) order. Events scheduled *behind* the cursor
//!   mid-drain (same-bucket re-arms during dispatch) go to a small `inbox`
//!   heap merged at pop time. Both hold only behind-cursor events, so their
//!   minimum is always earlier than anything still racked on the wheel.
//! * **Overflow.** Events beyond the horizon (protocol refresh timers tens
//!   of seconds out) go to an ordinary min-heap. When wheel and `current`
//!   are both empty the wheel re-seats: the cursor jumps to the overflow
//!   minimum's bucket and every overflow event within the new horizon is
//!   racked into slots.
//! * **Occupancy bitmap.** One bit per slot, scanned a `u64` word at a time
//!   with `trailing_zeros`, so advancing the cursor over sparse regions
//!   skips 64 empty buckets per instruction instead of probing each `Vec`.
//!
//! ## Determinism tie-break
//!
//! Every push is stamped with a monotonically increasing sequence number,
//! and pops are ordered by `(timestamp, seq)` — exactly the total order the
//! old global heap produced. Within one bucket the sorted run (merged with
//! the `inbox` heap) orders by `(at, seq)`; across buckets, bucket index
//! order *is* timestamp order; the
//! overflow heap orders by `(at, seq)` and only ever re-racks events still
//! in the future. Hence **same-timestamp events pop in scheduling order**
//! (FIFO by seq) — the rule the golden fault-storm replay and the
//! `queue_`-prefixed property tests in this module pin. The order is
//! independent of `granularity` and `slots`, which is what lets the golden
//! replay pass unchanged at a non-default granularity.
//!
//! ## Allocation behavior
//!
//! A drained bucket's buffer is recycled into the next bucket that receives
//! its *first* push (a small spare pool, routed at push time), so after
//! warm-up the steady-state allocation rate of the scheduler itself is ~0
//! per event. Routing spares at push time rather than parking them on the
//! just-drained slot also bounds the wheel's footprint to a few cohort
//! buffers: in a short run the cursor never completes a revolution, so a
//! buffer left on a drained slot would be dead weight — at million-node
//! scale that was hundreds of megabytes of abandoned capacity, and the
//! resident-set bloat cost more in cache and TLB misses than the buckets
//! saved.

use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Configuration of the event wheel: bucket granularity and slot count.
///
/// The horizon — how far ahead of the cursor an event may be and still land
/// on the wheel proper — is `granularity_us × slots` microseconds; events
/// beyond it take the overflow path (correct but O(log n) for them alone).
/// Both fields are rounded **up** to the next power of two at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelConfig {
    /// Bucket width in microseconds. Smaller buckets mean fewer events share
    /// a bucket (cheaper per-bucket ordering) but more buckets to scan.
    pub granularity_us: u64,
    /// Number of buckets on the wheel.
    pub slots: usize,
}

impl Default for WheelConfig {
    /// 128 µs buckets × 16384 slots ≈ a 2.1 s horizon: an order of
    /// magnitude above typical link latencies (100 µs – tens of ms), while
    /// protocol refresh timers (30–60 s) deliberately take the overflow
    /// path — they are rare per event processed.
    fn default() -> Self {
        WheelConfig {
            granularity_us: 128,
            slots: 16_384,
        }
    }
}

/// One scheduled entry: timestamp, tie-break sequence number, payload.
///
/// The sequence is 128 bits wide so callers can supply *canonical keys*
/// (`source rank << 64 | per-source counter` — see `netsim::engine`) through
/// the `*_keyed` methods; auto-assigned sequences from [`TimerWheel::push`]
/// occupy the low half of the space.
struct Entry<T> {
    at: SimTime,
    seq: u128,
    item: T,
}

// Ordering is *inverted* so `BinaryHeap` (a max-heap) pops the earliest
// `(at, seq)` first — the same trick the engine's old global heap used.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A timer wheel holding items of type `T`, popped in `(timestamp, seq)`
/// order — the deterministic total order documented at module level.
///
/// Sequence numbers are assigned internally at [`push`](Self::push), so two
/// wheels fed the same `(at, item)` stream pop identical streams back.
pub struct TimerWheel<T> {
    shift: u32,
    slot_mask: u64,
    nslots: usize,
    /// `slots[s & slot_mask]` holds events of absolute bucket `s` for
    /// `s ∈ [cursor_slot, cursor_slot + nslots)`; unordered.
    slots: Vec<Vec<Entry<T>>>,
    /// One bit per slot position; a set bit means the slot `Vec` is
    /// non-empty. Scanned wordwise with `trailing_zeros`.
    occupancy: Vec<u64>,
    /// Next undrained absolute bucket index.
    cursor_slot: u64,
    /// The bucket currently being drained, sorted *descending* `(at, seq)`
    /// (via `Entry`'s inverted `Ord`) so the earliest entry pops off the
    /// tail in O(1) with sequential access. Its max (= tail = min by time)
    /// is always `<=` anything on the wheel or in overflow.
    current: Vec<Entry<T>>,
    /// Events pushed *behind* the cursor mid-drain (same-bucket re-arms);
    /// few at a time, merged with `current` at pop by `(at, seq)`.
    inbox: BinaryHeap<Entry<T>>,
    /// Events past the horizon, re-racked on re-seat.
    overflow: BinaryHeap<Entry<T>>,
    /// Recycled slot buffers. A drained bucket's capacity is handed to the
    /// next bucket that receives its *first* push — not back to the drained
    /// slot, which (in a short run) may never be hit again. Routing at push
    /// time keeps total wheel footprint ~2 cohort buffers instead of one
    /// abandoned buffer per drained bucket.
    spares: Vec<Vec<Entry<T>>>,
    next_seq: u128,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel with the given configuration (fields rounded up to
    /// powers of two).
    pub fn new(cfg: WheelConfig) -> Self {
        let gran = cfg.granularity_us.max(1).next_power_of_two();
        let nslots = cfg.slots.max(2).next_power_of_two();
        TimerWheel {
            shift: gran.trailing_zeros(),
            slot_mask: (nslots - 1) as u64,
            nslots,
            slots: (0..nslots).map(|_| Vec::new()).collect(),
            occupancy: vec![0u64; nslots.div_ceil(64)],
            cursor_slot: 0,
            current: Vec::new(),
            inbox: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            spares: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // ---- introspection (profiler gauges; see `netsim::prof`) -------------

    /// Number of non-empty slots on the wheel proper — how spread out the
    /// near-horizon workload is (popcount of the occupancy bitmap; cheap
    /// relative to a gauge interval, not per-event).
    pub fn occupied_slots(&self) -> usize {
        self.occupancy.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Events in the behind-cursor merge heap (same-bucket re-arms pushed
    /// mid-drain). Persistently high values mean agents re-arm into the
    /// bucket being drained.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Events parked past the horizon (long protocol refresh timers). Large
    /// values relative to [`len`](Self::len) mean the configured horizon is
    /// too short for the workload.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Events in the bucket currently being drained (the sorted run).
    pub fn current_len(&self) -> usize {
        self.current.len()
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> u64 {
        at.0 >> self.shift
    }

    #[inline]
    fn mark(&mut self, pos: usize) {
        self.occupancy[pos >> 6] |= 1u64 << (pos & 63);
    }

    #[inline]
    fn clear(&mut self, pos: usize) {
        self.occupancy[pos >> 6] &= !(1u64 << (pos & 63));
    }

    /// Cap on retained spare buffers; beyond it, drained buffers are freed.
    const SPARES_MAX: usize = 4;

    /// Append `e` to the slot at ring position `pos`, seeding the slot with
    /// a recycled spare buffer on its first push.
    #[inline]
    fn rack_at(&mut self, pos: usize, e: Entry<T>) {
        if self.slots[pos].capacity() == 0 {
            if let Some(sp) = self.spares.pop() {
                self.slots[pos] = sp;
            }
        }
        self.slots[pos].push(e);
        self.mark(pos);
    }

    /// Schedule `item` at `at`. O(1) amortized while `at` is within the
    /// horizon; O(log overflow) beyond it.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(Entry { at, seq, item });
    }

    /// [`push`](Self::push) with a caller-supplied tie-break key instead of
    /// an auto-assigned sequence number. The pop order is `(at, key)`; keys
    /// need not be pushed in order (the bucket sort restores order), but two
    /// entries at the same `(at, key)` have no defined relative order —
    /// callers must keep keys unique per timestamp. Auto-assigned sequences
    /// and explicit keys share one ordering space; a wheel should use one
    /// style or the other.
    pub fn push_keyed(&mut self, at: SimTime, key: u128, item: T) {
        self.push_entry(Entry { at, seq: key, item });
    }

    #[inline]
    fn push_entry(&mut self, e: Entry<T>) {
        let s = self.bucket_of(e.at);
        self.len += 1;
        if s < self.cursor_slot {
            // Behind the cursor: its bucket was already drained, so it joins
            // the small merge heap directly (same-bucket re-arm).
            self.inbox.push(e);
        } else if s - self.cursor_slot < self.nslots as u64 {
            let pos = (s & self.slot_mask) as usize;
            self.rack_at(pos, e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Schedule a whole same-timestamp cohort at `at` in one operation:
    /// the bucket is resolved once and every item is appended to it
    /// consecutively. Items take consecutive sequence numbers in iteration
    /// order, so the cohort pops FIFO exactly as if pushed one by one —
    /// [`push`](Self::push)ing each item yields the identical pop stream,
    /// this just skips the per-item bucket routing. Behind-cursor and
    /// past-horizon timestamps fall back to per-item routing (those paths
    /// are per-item heap pushes regardless).
    pub fn schedule_bulk<I: IntoIterator<Item = T>>(&mut self, at: SimTime, items: I) {
        let s = self.bucket_of(at);
        if s >= self.cursor_slot && s - self.cursor_slot < self.nslots as u64 {
            let pos = (s & self.slot_mask) as usize;
            if self.slots[pos].capacity() == 0 {
                if let Some(sp) = self.spares.pop() {
                    self.slots[pos] = sp;
                }
            }
            let mut n = 0usize;
            for item in items {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.slots[pos].push(Entry { at, seq, item });
                n += 1;
            }
            if n > 0 {
                self.mark(pos);
                self.len += n;
            }
        } else {
            for item in items {
                self.push(at, item);
            }
        }
    }

    /// [`schedule_bulk`](Self::schedule_bulk) with caller-supplied tie-break
    /// keys: the bucket is resolved once and every `(key, item)` pair is
    /// appended to it. Pop order is `(at, key)` regardless of append order
    /// (the bucket sort restores it).
    pub fn schedule_bulk_keyed<I: IntoIterator<Item = (u128, T)>>(&mut self, at: SimTime, items: I) {
        let s = self.bucket_of(at);
        if s >= self.cursor_slot && s - self.cursor_slot < self.nslots as u64 {
            let pos = (s & self.slot_mask) as usize;
            if self.slots[pos].capacity() == 0 {
                if let Some(sp) = self.spares.pop() {
                    self.slots[pos] = sp;
                }
            }
            let mut n = 0usize;
            for (key, item) in items {
                self.slots[pos].push(Entry { at, seq: key, item });
                n += 1;
            }
            if n > 0 {
                self.mark(pos);
                self.len += n;
            }
        } else {
            for (key, item) in items {
                self.push_keyed(at, key, item);
            }
        }
    }

    /// The most recent entry scheduled at exactly `at`, if it is still the
    /// tail of its bucket — the one queue position a new push at `at` would
    /// land directly behind, so a caller may fold the newcomer into it
    /// instead of pushing (the engine's fan-out cohorts). `None` when the
    /// bucket is empty, its tail carries another timestamp, or `at` lies
    /// behind the cursor or past the horizon (entries there live in heaps,
    /// where "most recent" has no position).
    ///
    /// Folding never reorders: same-timestamp entries share a bucket and
    /// are appended in push order, and any intervening push into the bucket
    /// becomes the new tail. Under explicit keys the tail is not
    /// necessarily the key-maximum at `at`; the caller must refuse a fold
    /// that would violate its own ordering contract.
    pub fn tail_mut_at(&mut self, at: SimTime) -> Option<&mut T> {
        let s = self.bucket_of(at);
        if s < self.cursor_slot || s - self.cursor_slot >= self.nslots as u64 {
            return None;
        }
        let pos = (s & self.slot_mask) as usize;
        self.slots[pos].last_mut().filter(|e| e.at == at).map(|e| &mut e.item)
    }

    /// [`push`](Self::push), but first offer the item to
    /// [`tail_mut_at(at)`](Self::tail_mut_at): `merge(&mut tail, item)`
    /// returning `Ok(())` coalesces the two into one queue entry
    /// ([`len`](Self::len) is unchanged); `Err(item)` hands the item back
    /// for a normal push. Returns `true` when the item was coalesced.
    pub fn push_coalesced<M>(&mut self, at: SimTime, item: T, merge: M) -> bool
    where
        M: FnOnce(&mut T, T) -> Result<(), T>,
    {
        let item = match self.tail_mut_at(at) {
            Some(tail) => match merge(tail, item) {
                Ok(()) => return true,
                Err(back) => back,
            },
            None => item,
        };
        self.push(at, item);
        false
    }

    /// Find the next occupied slot position at or after the cursor, within
    /// one full revolution; returns the *absolute* bucket index.
    fn next_occupied_slot(&self) -> Option<u64> {
        // Wheel contents all lie in [cursor_slot, cursor_slot + nslots), so
        // scanning ring positions starting at the cursor, wrapping once,
        // visits buckets in increasing absolute order.
        let start = (self.cursor_slot & self.slot_mask) as usize;
        let words = self.occupancy.len();
        // First (partial) word: mask off bits below the cursor position.
        let mut wi = start >> 6;
        let mut w = self.occupancy[wi] & (!0u64 << (start & 63));
        for scanned in 0..=words {
            if w != 0 {
                let pos = (wi << 6) + w.trailing_zeros() as usize;
                // Ring position -> absolute bucket: the smallest bucket
                // >= cursor_slot congruent to `pos` modulo nslots.
                let cur_pos = (self.cursor_slot & self.slot_mask) as usize;
                let delta = (pos + self.nslots - cur_pos) & (self.nslots - 1);
                return Some(self.cursor_slot + delta as u64);
            }
            if scanned == words {
                break;
            }
            wi = (wi + 1) % words;
            w = self.occupancy[wi];
            // After wrapping back to the start word, only bits *below* the
            // cursor position remain unscanned.
            if wi == start >> 6 {
                w &= !(!0u64 << (start & 63));
            }
        }
        None
    }

    /// Advance the cursor to the next non-empty bucket and sort it into the
    /// `current` run; re-seats from overflow when the wheel region is empty.
    /// Returns `false` when nothing is pending anywhere.
    fn refill_current(&mut self) -> bool {
        loop {
            if !self.current.is_empty() || !self.inbox.is_empty() {
                return true;
            }
            let slot_next = self.next_occupied_slot();
            // The horizon slides with the cursor, so a fresh push can rack a
            // bucket *beyond* the overflow minimum. Before draining a wheel
            // bucket, rack every overflow event due no later than it.
            let ovf_due = match (self.overflow.peek(), slot_next) {
                (Some(e), Some(s)) if self.bucket_of(e.at) <= s => Some(self.bucket_of(e.at)),
                (Some(e), None) => Some(self.bucket_of(e.at)),
                _ => None,
            };
            if let Some(ob) = ovf_due {
                if slot_next.is_none() && ob >= self.cursor_slot + self.nslots as u64 {
                    // Wheel region empty and the minimum is past the current
                    // horizon: re-seat the cursor at the minimum's bucket.
                    self.cursor_slot = ob;
                }
                let horizon = self.cursor_slot + self.nslots as u64;
                while let Some(e) = self.overflow.peek() {
                    if self.bucket_of(e.at) >= horizon {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked");
                    let pos = (self.bucket_of(e.at) & self.slot_mask) as usize;
                    self.rack_at(pos, e);
                }
                continue;
            }
            if let Some(s) = slot_next {
                let pos = (s & self.slot_mask) as usize;
                self.clear(pos);
                self.cursor_slot = s + 1;
                // Take the bucket (leaving the slot at zero capacity — its
                // buffer will be re-seeded at first push via `rack_at`) and
                // sort it into a run. `Entry`'s inverted `Ord` makes this
                // descending `(at, seq)`, so the earliest entry sits at the
                // tail; pdqsort recognizes the common already-ordered case
                // (a same-timestamp cohort is pushed in seq order) and
                // handles it in O(k).
                let mut v = std::mem::take(&mut self.slots[pos]);
                v.sort_unstable();
                debug_assert!(self.current.is_empty());
                let old = std::mem::replace(&mut self.current, v);
                if old.capacity() > 0 && self.spares.len() < Self::SPARES_MAX {
                    self.spares.push(old);
                }
                continue;
            }
            return false;
        }
    }

    /// Whether the next pop should come from `inbox` rather than the
    /// `current` run tail. Callers guarantee at least one is non-empty.
    #[inline]
    fn inbox_is_next(&self) -> bool {
        match (self.current.last(), self.inbox.peek()) {
            (Some(c), Some(i)) => (i.at, i.seq) < (c.at, c.seq),
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// The timestamp of the next event to pop, or `None` if empty. Takes
    /// `&mut self` because answering may advance the cursor and order a
    /// bucket (the work is not repeated by the following [`pop`](Self::pop)).
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.next_at_key().map(|(at, _)| at)
    }

    /// The smallest pending key at exactly timestamp `at`, **without**
    /// advancing the cursor or draining any bucket — `None` when no pending
    /// event carries that timestamp. Correct only while `at`'s own bucket
    /// has already been drained into the current run (i.e. from within the
    /// dispatch of an event popped at `at`): at that point every pending
    /// same-timestamp event lives either in the run or in the inbox (a
    /// push at `at` lands behind the cursor), so future buckets — which
    /// cannot hold `at` — are never touched. This is the mid-expansion
    /// straggler probe for cohort dispatch: a rotating peek
    /// ([`next_at_key`](Self::next_at_key)) would drain the *next* bucket
    /// and silently disable same-bucket coalescing for every later push.
    pub fn peek_key_at(&self, at: SimTime) -> Option<u128> {
        let run = self.current.last().filter(|e| e.at == at).map(|e| e.seq);
        let inx = self.inbox.peek().filter(|e| e.at == at).map(|e| e.seq);
        match (run, inx) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The `(timestamp, key)` pair of the next event to pop, or `None` if
    /// empty — the full comparison tag a sharded drain needs to bound its
    /// window against another queue's head. Same cursor-advancing caveat as
    /// [`next_at`](Self::next_at).
    pub fn next_at_key(&mut self) -> Option<(SimTime, u128)> {
        if !self.refill_current() {
            return None;
        }
        if self.inbox_is_next() {
            self.inbox.peek().map(|e| (e.at, e.seq))
        } else {
            self.current.last().map(|e| (e.at, e.seq))
        }
    }

    /// The `(timestamp, key)` of the next event **only if it sorts below
    /// `lim`** — `None` otherwise, in which case no bucket at or past `lim`
    /// has been drained. This is the window guard for a sharded drain:
    /// the plain rotating peek ([`next_at_key`](Self::next_at_key)) would,
    /// at the end of a window, sort the *next* window's bucket into the
    /// current run — and cross-shard mail for that bucket, ingested at the
    /// next window's top, would then land behind the cursor in the inbox
    /// heap where per-entry fan-outs cannot coalesce. Leaving the bucket
    /// undrained keeps it open for slot-tail coalescing.
    pub fn next_at_key_below(&mut self, lim: (SimTime, u128)) -> Option<(SimTime, u128)> {
        if !self.current.is_empty() || !self.inbox.is_empty() {
            // Already-drained material: answering from it costs nothing.
            let nk = if self.inbox_is_next() {
                self.inbox.peek().map(|e| (e.at, e.seq)).expect("inbox_is_next saw an entry")
            } else {
                let e = self.current.last().expect("checked non-empty");
                (e.at, e.seq)
            };
            return (nk < lim).then_some(nk);
        }
        // Run and inbox are empty: find the pending minimum by inspection.
        // Wheel buckets partition time, so the wheel region's minimum lives
        // in the first occupied slot (an O(bucket) scan, once per window
        // end — not per pop).
        let slot_min = self.next_occupied_slot().and_then(|s| {
            let pos = (s & self.slot_mask) as usize;
            self.slots[pos].iter().map(|e| (e.at, e.seq)).min()
        });
        let ovf_min = self.overflow.peek().map(|e| (e.at, e.seq));
        let next = match (slot_min, ovf_min) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b)?,
        };
        if next >= lim {
            return None;
        }
        // Something pops this window after all: let the rotating path do
        // its normal drain (it stops at the bucket holding `next`).
        let nk = self.next_at_key().expect("a pending minimum was just observed");
        debug_assert_eq!(nk, next, "rotating peek must agree with the inspected minimum");
        Some(nk)
    }

    /// Remove and return the earliest `(timestamp, seq)` event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(at, _, item)| (at, item))
    }

    /// Remove and return the earliest event together with its tie-break key
    /// (auto-assigned sequence or explicit [`push_keyed`](Self::push_keyed)
    /// key).
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u128, T)> {
        if !self.refill_current() {
            return None;
        }
        let e = if self.inbox_is_next() {
            self.inbox.pop().expect("inbox_is_next saw an entry")
        } else {
            self.current.pop().expect("refill_current returned true")
        };
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    // ---- geometry (lookahead-horizon introspection) ----------------------

    /// The wheel's effective bucket width in microseconds (the configured
    /// value rounded up to a power of two).
    pub fn granularity_us(&self) -> u64 {
        1u64 << self.shift
    }

    /// How far past the cursor an event may land on the wheel proper, in
    /// microseconds (`granularity × slots`). A sharded drain whose lookahead
    /// window is much smaller than a bucket gains nothing from finer
    /// granularity; one whose window exceeds the horizon pushes every
    /// cross-shard arrival through the overflow heap.
    pub fn horizon_us(&self) -> u64 {
        self.granularity_us() * self.nslots as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The reference implementation: the engine's former global heap.
    struct HeapRef<T> {
        heap: BinaryHeap<Entry<T>>,
        next_seq: u128,
    }

    impl<T> HeapRef<T> {
        fn new() -> Self {
            HeapRef {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, at: SimTime, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, item });
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|e| (e.at, e.item))
        }
    }

    fn drain_both<T: PartialEq + std::fmt::Debug>(mut w: TimerWheel<T>, mut h: HeapRef<T>) {
        loop {
            let expect = h.pop();
            if let Some((at, _)) = expect {
                assert_eq!(w.next_at(), Some(at), "next_at disagrees with reference");
            } else {
                assert_eq!(w.next_at(), None);
            }
            let got = w.pop();
            assert_eq!(got, expect, "wheel pop order diverged from heap reference");
            if expect.is_none() {
                assert!(w.is_empty());
                break;
            }
        }
    }

    #[test]
    fn queue_matches_heap_on_randomized_schedules() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = WheelConfig {
                granularity_us: 1 << rng.random_range(0..10u32),
                slots: 1 << rng.random_range(2..9u32),
            };
            let mut w = TimerWheel::new(cfg);
            let mut h = HeapRef::new();
            let mut now = SimTime::ZERO;
            // Interleave pushes and pops the way the engine does: every
            // pushed timestamp is >= the last popped timestamp.
            for step in 0..2_000u32 {
                if rng.random::<f64>() < 0.6 || w.is_empty() {
                    // Spread: mostly near-future, sometimes far past the
                    // horizon so the overflow/re-seat path is exercised.
                    let ahead = if rng.random::<f64>() < 0.1 {
                        rng.random_range(0..10_000_000u64) // up to 10 s out
                    } else {
                        rng.random_range(0..5_000u64)
                    };
                    w.push(now + crate::time::SimDuration(ahead), step);
                    h.push(now + crate::time::SimDuration(ahead), step);
                } else {
                    let got = w.pop();
                    let expect = h.pop();
                    assert_eq!(got, expect, "seed {seed} diverged mid-stream");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
            }
            drain_both(w, h);
        }
    }

    #[test]
    fn queue_same_timestamp_batch_pops_in_push_order() {
        // A large same-timestamp batch (the star-topology burst shape) must
        // pop FIFO by seq — the determinism tie-break rule.
        let mut w = TimerWheel::new(WheelConfig::default());
        let mut h = HeapRef::new();
        let at = SimTime(12_345);
        for i in 0..10_000u32 {
            w.push(at, i);
            h.push(at, i);
        }
        for i in 0..10_000u32 {
            assert_eq!(w.pop(), Some((at, i)));
        }
        assert_eq!(h.pop().map(|(_, i)| i), Some(0)); // reference agrees
        assert!(w.pop().is_none());
    }

    #[test]
    fn queue_far_horizon_overflow_reseats_in_order() {
        // Events far beyond the horizon (minutes out, like protocol refresh
        // timers) plus near events; multiple re-seats must preserve order.
        let cfg = WheelConfig {
            granularity_us: 64,
            slots: 64, // tiny horizon: 4096 us
        };
        let mut w = TimerWheel::new(cfg);
        let mut h = HeapRef::new();
        let times: &[u64] = &[
            60_000_000, 100, 30_000_000, 3_000, 60_000_000, 90_000_000, 4_095, 4_096, 8_192,
            120_000_000, 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime(t), i);
            h.push(SimTime(t), i);
        }
        drain_both(w, h);
    }

    #[test]
    fn queue_push_behind_cursor_during_drain() {
        // Re-arms into the bucket being drained (at >= now but behind the
        // advanced cursor) must merge in order — the Repeater-timer shape.
        let mut w = TimerWheel::new(WheelConfig {
            granularity_us: 1_024,
            slots: 16,
        });
        w.push(SimTime(100), 0u32);
        w.push(SimTime(900), 1);
        assert_eq!(w.pop(), Some((SimTime(100), 0)));
        // Same bucket as the popped event; cursor already past it.
        w.push(SimTime(200), 2);
        w.push(SimTime(150), 3);
        assert_eq!(w.pop(), Some((SimTime(150), 3)));
        assert_eq!(w.pop(), Some((SimTime(200), 2)));
        assert_eq!(w.pop(), Some((SimTime(900), 1)));
        assert!(w.pop().is_none());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn queue_len_and_empty_track_contents() {
        let mut w = TimerWheel::new(WheelConfig::default());
        assert!(w.is_empty());
        assert_eq!(w.next_at(), None);
        w.push(SimTime(5), 'a');
        w.push(SimTime(5_000_000_000), 'b'); // deep overflow
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_at(), Some(SimTime(5)));
        let _ = w.pop();
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((SimTime(5_000_000_000), 'b')));
        assert!(w.is_empty());
    }

    #[test]
    fn queue_config_rounding_to_powers_of_two() {
        let w = TimerWheel::<u8>::new(WheelConfig {
            granularity_us: 100, // -> 128
            slots: 1000,         // -> 1024
        });
        assert_eq!(w.shift, 7);
        assert_eq!(w.nslots, 1024);
    }

    #[test]
    fn queue_bulk_schedule_matches_individual_pushes() {
        // A bulk cohort interleaved with singles must pop exactly as if
        // every item had been pushed one by one (the reference).
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = TimerWheel::new(WheelConfig {
                granularity_us: 1 << rng.random_range(0..8u32),
                slots: 1 << rng.random_range(2..8u32),
            });
            let mut h = HeapRef::new();
            let mut now = SimTime::ZERO;
            let mut tag = 0u32;
            for _ in 0..500 {
                match rng.random_range(0..3u32) {
                    0 => {
                        // Bulk cohort: near, behind-cursor-adjacent, or
                        // deep overflow timestamps all exercised.
                        let at = now + crate::time::SimDuration(rng.random_range(0..8_000_000u64));
                        let k = rng.random_range(0..6usize);
                        let items: Vec<u32> = (0..k as u32).map(|i| tag + i).collect();
                        tag += k as u32;
                        for &it in &items {
                            h.push(at, it);
                        }
                        w.schedule_bulk(at, items);
                    }
                    1 => {
                        let at = now + crate::time::SimDuration(rng.random_range(0..5_000u64));
                        w.push(at, tag);
                        h.push(at, tag);
                        tag += 1;
                    }
                    _ => {
                        let got = w.pop();
                        let expect = h.pop();
                        assert_eq!(got, expect, "seed {seed} diverged mid-stream");
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                }
            }
            drain_both(w, h);
        }
    }

    #[test]
    fn queue_coalesce_merges_only_the_same_timestamp_tail() {
        // Model the engine's fan-out cohorts: items are Vec<u32> and the
        // merge concatenates. Pop order must equal the per-item reference.
        let merge = |tail: &mut Vec<u32>, item: Vec<u32>| {
            tail.extend_from_slice(&item);
            Ok(())
        };
        let mut w = TimerWheel::new(WheelConfig::default());
        let at = SimTime(10_000);
        assert!(!w.push_coalesced(at, vec![0], merge)); // empty bucket: plain push
        assert!(w.push_coalesced(at, vec![1], merge)); // merges into tail
        assert!(w.push_coalesced(at, vec![2], merge));
        assert_eq!(w.len(), 1, "coalesced pushes occupy one entry");
        // A different timestamp in the same bucket becomes the new tail
        // and breaks the chain.
        w.push(SimTime(10_050), vec![99]);
        assert!(!w.push_coalesced(at, vec![3], merge));
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop(), Some((at, vec![0, 1, 2])));
        assert_eq!(w.pop(), Some((at, vec![3])));
        assert_eq!(w.pop(), Some((SimTime(10_050), vec![99])));
        assert!(w.pop().is_none());
    }

    #[test]
    fn queue_coalesce_declined_merge_falls_back_to_push() {
        // The merge closure can refuse (the engine declines across
        // non-mergeable kinds); the item must land as its own entry.
        let mut w = TimerWheel::new(WheelConfig::default());
        let at = SimTime(640);
        w.push(at, 7u32);
        let refused = |_: &mut u32, item: u32| Err(item);
        assert!(!w.push_coalesced(at, 8, refused));
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop(), Some((at, 7)));
        assert_eq!(w.pop(), Some((at, 8)));
    }

    #[test]
    fn queue_coalesce_never_merges_behind_cursor() {
        // Once the cursor passed the bucket, same-timestamp pushes route
        // to the inbox heap — coalescing there could reorder, so it must
        // not happen.
        let mut w = TimerWheel::new(WheelConfig {
            granularity_us: 1_024,
            slots: 16,
        });
        let merge = |tail: &mut Vec<u32>, item: Vec<u32>| {
            tail.extend_from_slice(&item);
            Ok(())
        };
        w.push(SimTime(100), vec![0]);
        assert_eq!(w.pop(), Some((SimTime(100), vec![0])));
        // Same bucket as the popped event; cursor already past it.
        assert!(!w.push_coalesced(SimTime(200), vec![1], merge));
        assert!(!w.push_coalesced(SimTime(200), vec![2], merge));
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop(), Some((SimTime(200), vec![1])));
        assert_eq!(w.pop(), Some((SimTime(200), vec![2])));
    }

    #[test]
    fn queue_order_is_granularity_independent() {
        // The popped stream must not depend on wheel geometry — the property
        // that lets the golden replay run at a non-default granularity.
        let mut rng = StdRng::seed_from_u64(99);
        let schedule: Vec<SimTime> = (0..3_000)
            .map(|_| SimTime(rng.random_range(0..20_000_000u64)))
            .collect();
        let mut streams = Vec::new();
        for cfg in [
            WheelConfig::default(),
            WheelConfig { granularity_us: 1, slots: 4 },
            WheelConfig { granularity_us: 4_096, slots: 32_768 },
        ] {
            let mut w = TimerWheel::new(cfg);
            for (i, &at) in schedule.iter().enumerate() {
                w.push(at, i);
            }
            let mut out = Vec::new();
            while let Some(e) = w.pop() {
                out.push(e);
            }
            streams.push(out);
        }
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
    }

    #[test]
    fn queue_keyed_pushes_pop_in_key_order_regardless_of_push_order() {
        // Canonical-key pushes (sharded-engine style) must pop by (at, key)
        // even when keys arrive out of order within a bucket, across wheel
        // geometries, and through the keyed bulk path.
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let cfg = WheelConfig {
                granularity_us: 1 << rng.random_range(0..10u32),
                slots: 1 << rng.random_range(2..9u32),
            };
            let mut w = TimerWheel::new(cfg);
            let mut expect: Vec<(SimTime, u128, u32)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut popped = 0usize;
            let mut tag = 0u32;
            for _ in 0..1_500 {
                if rng.random::<f64>() < 0.55 || w.is_empty() {
                    let at = now + crate::time::SimDuration(rng.random_range(0..6_000_000u64));
                    // Keys mimic the engine's (rank << 64 | seq) shape and
                    // are unique by construction (tag is globally unique).
                    let key = ((rng.random_range(0..8u64) as u128) << 64) | tag as u128;
                    if rng.random::<f64>() < 0.25 {
                        let k = rng.random_range(1..4u32);
                        let pairs: Vec<(u128, u32)> =
                            (0..k).map(|i| (key + ((i as u128) << 64), tag + i)).collect();
                        for &(kk, it) in &pairs {
                            expect.push((at, kk, it));
                        }
                        tag += k;
                        w.schedule_bulk_keyed(at, pairs);
                    } else {
                        w.push_keyed(at, key, tag);
                        expect.push((at, key, tag));
                        tag += 1;
                    }
                } else {
                    let pending: &mut [(SimTime, u128, u32)] = &mut expect[popped..];
                    pending.sort_unstable_by_key(|&(at, k, _)| (at, k));
                    let want = pending.first().copied();
                    assert_eq!(w.next_at_key(), want.map(|(at, k, _)| (at, k)));
                    assert_eq!(w.pop_keyed(), want, "seed {seed} diverged");
                    if let Some((at, _, _)) = want {
                        now = at;
                        popped += 1;
                    }
                }
            }
            let pending = &mut expect[popped..];
            pending.sort_unstable_by_key(|&(at, k, _)| (at, k));
            for &e in pending.iter() {
                assert_eq!(w.pop_keyed(), Some(e), "seed {seed} diverged in drain");
            }
            assert!(w.pop_keyed().is_none());
        }
    }
}
