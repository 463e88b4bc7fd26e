//! Draining one segment: the sole shard inline on the calling thread, or
//! one scoped worker per shard under the conservative window protocol
//! (mailboxes, three barriers per window). Window math and the safety
//! argument: `docs/INTERNALS.md` §6.

use super::exec::ShardExec;
use super::world::EventKind;
use super::Sim;
use crate::time::SimTime;
use crate::wheel::TimerWheel;
use std::borrow::Cow;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// What the coordinator tells the workers at a window barrier.
#[derive(Clone, Copy)]
enum SegCmd {
    /// Drain events strictly below this `(time, key)` limit, then flush
    /// exports and meet at the closing barrier.
    Drain(SimTime, u128),
    /// The segment is finished (every shard's next event is at or past the
    /// segment bound): exit the worker loop.
    Stop,
}

/// A timed, canonically-keyed event crossing a shard boundary.
type MailItem = (SimTime, u128, EventKind);
/// One destination shard's inbound mailboxes, indexed by source shard.
type ShardInbox = Vec<Mutex<Vec<MailItem>>>;

/// One shard's drain loop for a parallel segment: ingest cross-shard
/// mail, publish the earliest pending event, meet the coordinator at the
/// window barriers, drain the granted window, flush exports. Window math
/// and safety argument: module docs and `docs/INTERNALS.md` §6.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut exec: ShardExec<'_>,
    s: usize,
    bound: (SimTime, u128),
    mailboxes: &[ShardInbox],
    nexts: &[Mutex<(u64, u128)>],
    cmd: &Mutex<SegCmd>,
    barrier_a: &Barrier,
    barrier_b: &Barrier,
    barrier_c: &Barrier,
) {
    loop {
        // 1. Ingest cross-shard events flushed before the closing barrier
        //    of the previous window (nothing on the first iteration). This
        //    happens before publication, so a shard whose only pending
        //    work is inbound mail still reports it — termination cannot
        //    race ahead of in-flight exports.
        for slot in &mailboxes[s] {
            let mut inbox = slot.lock().unwrap();
            for (at, key, kind) in inbox.drain(..) {
                match kind {
                    // Mirrored fan-outs coalesce on ingest exactly like
                    // local ones: each source shard exports in ascending
                    // key order, so a wide cut (e.g. a tree level split
                    // across the boundary) collapses into a few cohort
                    // entries instead of one entry per cut link.
                    EventKind::Fanout(fs) => {
                        exec.world.push_fanout(at, fs.member, fs.root, fs.root_at, Cow::Owned(fs.bytes));
                    }
                    kind => exec.world.push(at, key, kind),
                }
            }
        }
        // 2. Publish this shard's earliest pending (time, key) so the
        //    coordinator can size the next safe window. The bounded peek
        //    never drains a bucket at or past the segment bound, so mail
        //    ingested after a global transition still slot-coalesces.
        let next = match exec.world.queue.next_at_key_below(bound) {
            Some((at, k)) => (at.0, k),
            None => (u64::MAX, u128::MAX),
        };
        *nexts[s].lock().unwrap() = next;
        let t0 = Instant::now();
        barrier_a.wait();
        barrier_b.wait();
        let mut stall = t0.elapsed().as_nanos() as u64;
        let lim = match *cmd.lock().unwrap() {
            SegCmd::Stop => break,
            SegCmd::Drain(t, k) => (t, k),
        };
        // 3. Drain strictly below the window limit. Lookahead guarantees
        //    no cross-shard event for this window can land inside it. The
        //    bounded peek leaves next-window buckets undrained, keeping
        //    them open for mail coalescing at the next ingest (see
        //    `TimerWheel::next_at_key_below`).
        exec.drain_below(lim, TimerWheel::next_at_key_below);
        // 4. Flush cross-shard events into destination mailboxes; they are
        //    ingested at the next window's top, after the closing barrier.
        let mut outbox = std::mem::take(&mut exec.world.outbox);
        for (dst, at, key, kind) in outbox.drain(..) {
            debug_assert_ne!(dst, s, "local events never route through the outbox");
            mailboxes[dst][s].lock().unwrap().push((at, key, kind));
        }
        exec.world.outbox = outbox;
        let t1 = Instant::now();
        barrier_c.wait();
        stall += t1.elapsed().as_nanos() as u64;
        exec.world.sync_windows += 1;
        exec.world.sync_stall_ns += stall;
        if let Some(p) = &mut exec.world.prof {
            p.record_sync_window(stall);
        }
    }
}

impl Sim {
    /// Drain every shard up to (strictly below) `bound`. The sole shard
    /// drains inline on the calling thread: with no other shard to hear
    /// from, the whole segment is one window — no threads, mailboxes,
    /// barriers or sync windows (`sync_stats()` stays `(0, 0)`). Otherwise
    /// the shards drain in parallel, in conservative lookahead windows.
    /// Threads are scoped per segment: the coordinator needs the worlds
    /// back between segments for global dispatch, and segment boundaries
    /// are rare (one per fault).
    pub(super) fn drain_segment(&mut self, bound: (SimTime, u128)) {
        let s_count = self.worlds.len();
        if s_count == 1 {
            // The rotating peek, not the workers' bounded one: see
            // `ShardExec::drain_below` for what that choice pins.
            self.exec(0).drain_below(bound, |queue, lim| queue.next_at_key().filter(|&next| next < lim));
            return;
        }
        let lookahead = self.shared.plan.lookahead();
        // mailboxes[dst][src]: single-writer (src's worker), single-reader
        // (dst's worker), with the window barrier between write and read.
        let mailboxes: Vec<ShardInbox> = (0..s_count)
            .map(|_| (0..s_count).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let nexts: Vec<Mutex<(u64, u128)>> =
            (0..s_count).map(|_| Mutex::new((u64::MAX, u128::MAX))).collect();
        let cmd = Mutex::new(SegCmd::Stop);
        let barrier_a = Barrier::new(s_count + 1);
        let barrier_b = Barrier::new(s_count + 1);
        let barrier_c = Barrier::new(s_count + 1);
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for (s, (world, agents)) in self.worlds.iter_mut().zip(&mut self.stores).enumerate() {
                let (mailboxes, nexts, cmd) = (&mailboxes, &nexts, &cmd);
                let (ba, bb, bc) = (&barrier_a, &barrier_b, &barrier_c);
                scope.spawn(move || {
                    worker_loop(
                        ShardExec { shared, world, agents },
                        s,
                        bound,
                        mailboxes,
                        nexts,
                        cmd,
                        ba,
                        bb,
                        bc,
                    );
                });
            }
            // Coordinator: size each window from the published minima.
            loop {
                barrier_a.wait();
                let mut min_next = (u64::MAX, u128::MAX);
                for n in &nexts {
                    let v = *n.lock().unwrap();
                    if v < min_next {
                        min_next = v;
                    }
                }
                if min_next.0 == u64::MAX {
                    // Every shard is at or past the bound — and exports
                    // are ingested before publication, so nothing is in
                    // flight. The segment is complete.
                    *cmd.lock().unwrap() = SegCmd::Stop;
                    barrier_b.wait();
                    break;
                }
                // Safe window: any event executed at t >= min_next lands
                // cross-shard no earlier than min_next + L.
                let w_top = SimTime(min_next.0.saturating_add(lookahead.0));
                let lim = if (w_top, 0u128) < bound { (w_top, 0u128) } else { bound };
                *cmd.lock().unwrap() = SegCmd::Drain(lim.0, lim.1);
                barrier_b.wait();
                barrier_c.wait();
            }
        });
    }
}
