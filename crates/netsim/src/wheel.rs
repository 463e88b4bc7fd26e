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
//! * **Cursor.** `cursor_slot` is the next undrained bucket. Events land
//!   in their slot's list, *unordered*; ordering is imposed only when the
//!   cursor reaches the slot and its contents are sorted into the `current`
//!   run.
//! * **`current`.** The bucket being drained, sorted descending `(at, seq)`
//!   and popped off the tail — O(1) per pop with sequential access, and the
//!   sort itself is O(k) for the dominant case of a same-timestamp cohort
//!   already in push (= seq) order. Events scheduled *behind* the cursor
//!   go to an `inbox` heap merged at pop time: same-bucket re-arms during
//!   dispatch, and everything pushed after a peek has sorted a bucket ahead
//!   of the clock into the run (a drain that stops at a segment edge peeks
//!   one bucket past it). Both hold only behind-cursor events, so their
//!   minimum is always earlier than anything still racked on the wheel.
//!   The inbox is a heap: O(log n) per event, and an event there can never
//!   join a slot tail's fan-out cohort.
//! * **Overflow.** Events beyond the horizon (protocol refresh timers tens
//!   of seconds out) go to an ordinary min-heap. When wheel and `current`
//!   are both empty the wheel re-seats: the cursor jumps to the overflow
//!   minimum's bucket and every overflow event within the new horizon is
//!   racked into slots.
//! * **Rewind.** A peek on an otherwise empty wheel re-seats the cursor
//!   onto a timer seconds ahead (a `CountQuery` deadline), and every event
//!   the run then schedules would land in the inbox. So a push behind the
//!   cursor, into an empty inbox, more than one horizon (`slots ×
//!   granularity`) behind it, *rewinds* the cursor to its own bucket
//!   instead: the current run and everything racked lie past the new
//!   horizon, so they move to overflow, and the push racks. The cost is
//!   one move per re-seated entry, paid once per re-seat. A push less than
//!   a horizon behind stays in the inbox: undoing every look-ahead would
//!   also rewind the one-bucket peek at a segment edge, which moves
//!   `peak_queue_depth` (fan-outs would coalesce in slot tails instead) —
//!   a number the benchmark pins.
//! * **Occupancy bitmap.** One bit per slot, scanned a `u64` word at a time
//!   with `trailing_zeros`, so advancing the cursor over sparse regions
//!   skips 64 empty buckets per instruction instead of probing each slot.
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
//! Every racked entry lives in one node arena; a slot is a linked list
//! through it (first and last node, appended in push order), and a drained
//! bucket's nodes go back on a free list that the next pushes take from.
//! The wheel therefore holds at most its peak number of racked entries,
//! however they were spread over buckets, and after warm-up it allocates
//! nothing per event. A buffer per slot cannot do both. A burst of joins
//! spread over a hundred milliseconds occupies ~800 buckets at once, each
//! of which then grows to the ~40 entries its later Count arrivals bring:
//! recycling buffers that fit those buckets holds ~3 MB where the entries
//! take 0.4 MB, and capping the recycled buffers allocates per bucket. A
//! buffer left on its drained slot is worse still: in a short run the
//! cursor never completes a revolution, and at million-node scale that was
//! hundreds of megabytes of abandoned capacity. The `current` run is one
//! vector that keeps the capacity of the largest bucket drained.

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

/// No node: the end of a slot's list, an empty slot, an empty free list.
const NIL: u32 = u32::MAX;

/// One arena cell: a racked entry (`None` while on the free list) and the
/// next node of its slot's list or of the free list.
struct Node<T> {
    entry: Option<Entry<T>>,
    next: u32,
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
    /// `slots[s & slot_mask]` is the first and last node of absolute bucket
    /// `s`'s list for `s ∈ [cursor_slot, cursor_slot + nslots)`, in push
    /// order; `(NIL, NIL)` when the bucket is empty.
    slots: Vec<(u32, u32)>,
    /// One bit per slot position; a set bit means the slot's list is
    /// non-empty. Scanned wordwise with `trailing_zeros`.
    occupancy: Vec<u64>,
    /// Next undrained absolute bucket index.
    cursor_slot: u64,
    /// The bucket currently being drained, sorted *descending* `(at, seq)`
    /// (via `Entry`'s inverted `Ord`) so the earliest entry pops off the
    /// tail in O(1) with sequential access. Its max (= tail = min by time)
    /// is always `<=` anything on the wheel or in overflow.
    current: Vec<Entry<T>>,
    /// Events pushed *behind* the cursor (same-bucket re-arms, pushes after
    /// a look-ahead peek), merged with `current` at pop by `(at, seq)`.
    inbox: BinaryHeap<Entry<T>>,
    /// Events past the horizon, re-racked on re-seat.
    overflow: BinaryHeap<Entry<T>>,
    /// Every racked entry, and the vacated nodes chained from `free`.
    nodes: Vec<Node<T>>,
    free: u32,
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
            slots: vec![(NIL, NIL); nslots],
            occupancy: vec![0u64; nslots.div_ceil(64)],
            cursor_slot: 0,
            current: Vec::new(),
            inbox: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            nodes: Vec::new(),
            free: NIL,
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

    /// Append `e` to the list of the slot at ring position `pos`, in a
    /// vacated node if there is one.
    #[inline]
    fn rack_at(&mut self, pos: usize, e: Entry<T>) {
        let node = Node { entry: Some(e), next: NIL };
        let i = match self.free {
            NIL => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("racked entries exceed u32")
            }
            i => {
                self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
                i
            }
        };
        match self.slots[pos] {
            (NIL, _) => {
                self.slots[pos] = (i, i);
                self.mark(pos);
            }
            (_, last) => {
                self.nodes[last as usize].next = i;
                self.slots[pos].1 = i;
            }
        }
    }

    /// Empty the slot at ring position `pos` into `dst`, in push order,
    /// and put its nodes on the free list.
    fn unrack(&mut self, pos: usize, dst: &mut impl Extend<Entry<T>>) {
        let (mut i, _) = std::mem::replace(&mut self.slots[pos], (NIL, NIL));
        self.clear(pos);
        while i != NIL {
            let node = &mut self.nodes[i as usize];
            dst.extend(node.entry.take());
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = i;
            i = next;
        }
    }

    /// The entries racked in the slot at ring position `pos`, in push order.
    fn racked(&self, pos: usize) -> impl Iterator<Item = &Entry<T>> {
        let mut i = self.slots[pos].0;
        std::iter::from_fn(move || {
            let node = self.nodes.get(i as usize)?;
            i = node.next;
            node.entry.as_ref()
        })
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
            if self.inbox.is_empty() && self.cursor_slot - s > self.nslots as u64 {
                self.rewind(s);
                let pos = (s & self.slot_mask) as usize;
                self.rack_at(pos, e);
            } else {
                // Behind the cursor: its bucket was already drained, so it
                // joins the merge heap directly.
                self.inbox.push(e);
            }
        } else if s - self.cursor_slot < self.nslots as u64 {
            let pos = (s & self.slot_mask) as usize;
            self.rack_at(pos, e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Move the cursor back to bucket `to`, more than one horizon behind it
    /// (see the module docs, "Rewind"). The current run's bucket and every
    /// racked bucket then lie at or past `to + slots`, so all of them move
    /// to overflow.
    #[cold]
    fn rewind(&mut self, to: u64) {
        debug_assert!(self.inbox.is_empty() && self.cursor_slot - to > self.nslots as u64);
        let mut overflow = std::mem::take(&mut self.overflow);
        for wi in 0..self.occupancy.len() {
            while self.occupancy[wi] != 0 {
                let pos = (wi << 6) + self.occupancy[wi].trailing_zeros() as usize;
                self.unrack(pos, &mut overflow);
            }
        }
        overflow.extend(self.current.drain(..));
        self.overflow = overflow;
        self.cursor_slot = to;
    }

    /// Schedule a whole same-timestamp cohort at `at` under caller-supplied
    /// tie-break keys, as [`push_keyed`](Self::push_keyed) one by one. Pop
    /// order is `(at, key)` regardless of append order (the bucket sort
    /// restores it).
    pub fn schedule_bulk_keyed<I: IntoIterator<Item = (u128, T)>>(&mut self, at: SimTime, items: I) {
        for (key, item) in items {
            self.push_keyed(at, key, item);
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
        let (_, last) = self.slots[(s & self.slot_mask) as usize];
        let e = self.nodes.get_mut(last as usize)?.entry.as_mut()?;
        (e.at == at).then_some(&mut e.item)
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
                self.cursor_slot = s + 1;
                // Move the bucket into the run and sort it. `Entry`'s
                // inverted `Ord` makes this descending `(at, seq)`, so the
                // earliest entry sits at the tail; pdqsort recognizes the
                // common already-ordered case (a same-timestamp cohort is
                // pushed in seq order) and handles it in O(k).
                debug_assert!(self.current.is_empty());
                let mut run = std::mem::take(&mut self.current);
                self.unrack((s & self.slot_mask) as usize, &mut run);
                run.sort_unstable();
                self.current = run;
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
        let slot_min = self
            .next_occupied_slot()
            .and_then(|s| self.racked((s & self.slot_mask) as usize).map(|e| (e.at, e.seq)).min());
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
        fn peek_at(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Peek a far-future entry, then push earlier ones: the shape of a
    /// drain that stops at a segment edge with only a deadline pending
    /// (the peek re-seats the cursor onto it) followed by a burst of new
    /// work. Entries up to two horizons past the deadline are racked by
    /// the re-seat and must move back to overflow when the first earlier
    /// push rewinds the cursor; so must the current run, which holds the
    /// deadline itself.
    fn far_peek_then_earlier_pushes(
        rng: &mut StdRng,
        w: &mut TimerWheel<u32>,
        h: &mut HeapRef<u32>,
        now: &mut SimTime,
        tag: &mut u32,
    ) {
        let horizon = w.horizon_us();
        // Past everything pending, so that the clock still lies more than
        // two horizons short of it once the rest has popped.
        let latest = h.heap.iter().map(|e| e.at).fold(*now, SimTime::max);
        let far = latest + crate::time::SimDuration(2 * horizon + 1 + rng.random_range(0..horizon));
        let mut push = |w: &mut TimerWheel<u32>, h: &mut HeapRef<u32>, at: SimTime| {
            w.push(at, *tag);
            h.push(at, *tag);
            *tag += 1;
        };
        push(w, h, far);
        for _ in 0..rng.random_range(0..6u32) {
            push(w, h, far + crate::time::SimDuration(rng.random_range(0..2 * horizon)));
        }
        // Everything due before the deadline pops first, so that the peek
        // below finds the wheel region empty and must re-seat.
        while h.peek_at().is_some_and(|at| at < far) {
            let (got, expect) = (w.pop(), h.pop());
            assert_eq!(got, expect, "drain before the far peek diverged");
            *now = expect.expect("peeked").0;
        }
        assert_eq!(w.next_at(), Some(far), "the peek re-seats onto the deadline");
        push(w, h, *now + crate::time::SimDuration(rng.random_range(0..horizon)));
        assert_eq!(w.inbox_len(), 0, "a push a horizon behind the cursor rewinds it");
        // Later pushes: behind the rewound cursor (to the inbox) or not.
        for _ in 0..rng.random_range(0..8u32) {
            push(w, h, *now + crate::time::SimDuration(rng.random_range(0..horizon)));
        }
        assert_eq!(w.len(), h.heap.len());
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
            let mut tag = 0u32;
            // Interleave pushes and pops the way the engine does: every
            // pushed timestamp is >= the last popped timestamp.
            for _ in 0..2_000u32 {
                let roll = rng.random::<f64>();
                if roll < 0.01 {
                    far_peek_then_earlier_pushes(&mut rng, &mut w, &mut h, &mut now, &mut tag);
                } else if roll < 0.6 || w.is_empty() {
                    // Spread: mostly near-future, sometimes far past the
                    // horizon so the overflow/re-seat path is exercised.
                    let ahead = if rng.random::<f64>() < 0.1 {
                        rng.random_range(0..10_000_000u64) // up to 10 s out
                    } else {
                        rng.random_range(0..5_000u64)
                    };
                    w.push(now + crate::time::SimDuration(ahead), tag);
                    h.push(now + crate::time::SimDuration(ahead), tag);
                    tag += 1;
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
        // Same-timestamp cohorts interleaved with singles must pop exactly
        // as the reference heap pops them.
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
                        // A cohort: near, behind-cursor-adjacent, or deep
                        // overflow timestamps all exercised.
                        let at = now + crate::time::SimDuration(rng.random_range(0..8_000_000u64));
                        let k = rng.random_range(0..6usize);
                        for it in tag..tag + k as u32 {
                            h.push(at, it);
                            w.push(at, it);
                        }
                        tag += k as u32;
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
        // Model the engine's fan-out cohorts: items are Vec<u32>, and a
        // fold appends to the tail. Pop order must equal the per-item
        // reference.
        let mut w = TimerWheel::new(WheelConfig::default());
        let at = SimTime(10_000);
        assert!(w.tail_mut_at(at).is_none(), "empty bucket");
        w.push(at, vec![0]);
        w.tail_mut_at(at).unwrap().push(1);
        w.tail_mut_at(at).unwrap().push(2);
        assert_eq!(w.len(), 1, "folded items occupy one entry");
        // A different timestamp in the same bucket becomes the new tail
        // and breaks the chain.
        w.push(SimTime(10_050), vec![99]);
        assert!(w.tail_mut_at(at).is_none());
        w.push(at, vec![3]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop(), Some((at, vec![0, 1, 2])));
        assert_eq!(w.pop(), Some((at, vec![3])));
        assert_eq!(w.pop(), Some((SimTime(10_050), vec![99])));
        assert!(w.pop().is_none());
    }

    #[test]
    fn queue_coalesce_declined_merge_falls_back_to_push() {
        // A caller may look at the tail and decline to fold (the engine
        // declines across non-mergeable kinds): the offer changes nothing,
        // and the item pushed instead lands as its own entry behind it.
        let mut w = TimerWheel::new(WheelConfig::default());
        let at = SimTime(640);
        w.push(at, 7u32);
        assert_eq!(w.tail_mut_at(at).copied(), Some(7));
        w.push(at, 8);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop(), Some((at, 7)));
        assert_eq!(w.pop(), Some((at, 8)));
    }

    #[test]
    fn queue_coalesce_never_merges_behind_cursor() {
        // Once the cursor passed the bucket, same-timestamp pushes route
        // to the inbox heap — folding there could reorder, so no tail is
        // offered.
        let mut w = TimerWheel::new(WheelConfig {
            granularity_us: 1_024,
            slots: 16,
        });
        w.push(SimTime(100), vec![0]);
        assert_eq!(w.pop(), Some((SimTime(100), vec![0])));
        // Same bucket as the popped event; cursor already past it.
        w.push(SimTime(200), vec![1]);
        assert!(w.tail_mut_at(SimTime(200)).is_none());
        w.push(SimTime(200), vec![2]);
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
