//! `ShardExec`: one shard's executor — the one place an agent is handed a
//! [`Ctx`], one event dispatch, one drain loop, and the drain-time half of
//! the batched fan-out path.

use super::store::AgentStore;
use super::world::{event_class, event_node, ArrivalCause, Cohort, EventKind, FanoutSend, Member, Run, Shared, World};
use super::{Agent, Ctx, Payload};
use crate::id::{IfaceId, LinkId, NodeId};
use crate::prof::{EventClass, WheelGauges};
use crate::stats::TrafficClass;
use crate::time::SimTime;
use crate::trace::{DropReason, PacketId, TraceKind};
use crate::wheel::TimerWheel;

/// One shard's executor: the shared engine state, the shard's world and
/// its agent store. The sole shard's inline drain, the parallel workers and
/// the coordinator's agent sweeps all go through this — there is exactly
/// one dispatch implementation.
pub(super) struct ShardExec<'a> {
    pub(super) shared: &'a Shared,
    pub(super) world: &'a mut World,
    pub(super) agents: &'a mut AgentStore,
}

impl<'a> ShardExec<'a> {
    /// Run `f` with the agent at `node` (owned by this shard) and a fresh
    /// dispatch context — one of the two places a [`Ctx`] is built, the
    /// other being [`deliver`](Self::deliver). Split borrow: the agent
    /// store, the world, and the shared state are disjoint — an agent
    /// cannot reach back into the store.
    pub(super) fn with_agent<F: FnOnce(&mut dyn Agent, &mut Ctx<'_>)>(&mut self, node: NodeId, f: F) {
        let mut ctx = Ctx {
            shared: self.shared,
            world: self.world,
            node,
        };
        f(self.agents.agent(node), &mut ctx);
    }

    /// Pop and run every event that sorts strictly below `lim` — a whole
    /// segment for the sole shard, one lookahead window of it for a worker.
    /// `peek` reports the queue head if it is below `lim`, and the two
    /// callers differ in the wheel peek they pass for it. Workers pass the
    /// wheel's bounded peek ([`TimerWheel::next_at_key_below`]), which
    /// leaves buckets at or past `lim` undrained and so open for the mail
    /// coalescing of the next window's ingest. The sole shard passes the
    /// rotating peek ([`TimerWheel::next_at_key`], compared with `lim`
    /// afterwards): at a segment edge it sorts the next bucket into the
    /// current run early, so sends made by the global transition (or by the
    /// harness between `run_until` calls) into that bucket land in the inbox
    /// heap, where fan-outs cannot join a slot tail. Event order, traces and
    /// stats are the same under either peek; `peak_queue_depth` is not
    /// (`tree_1k_observed` at `--check` size: 604 rotating, 358 bounded),
    /// and the benchmark's pinned digests include it — so the sole shard
    /// moves to the bounded peek only together with a re-pin.
    pub(super) fn drain_below<P>(&mut self, lim: (SimTime, u128), peek: P)
    where
        P: Fn(&mut TimerWheel<EventKind>, (SimTime, u128)) -> Option<(SimTime, u128)>,
    {
        while peek(&mut self.world.queue, lim).is_some() {
            let (at, k, kind) = self.world.queue.pop_keyed().expect("peeked event vanished");
            self.run_one(at, k, kind);
        }
    }

    /// Execute one popped event: advance this shard's clock, tag the
    /// dispatch with the event's canonical key, and run it (with profiler
    /// attribution when enabled).
    fn run_one(&mut self, at: SimTime, key: u128, kind: EventKind) {
        debug_assert!(at >= self.world.now);
        self.world.now = at;
        self.world.cur_key = key;
        self.world.cur_sub = 0;
        match kind {
            EventKind::Fanout(fs) => {
                let before = self.world.events_processed;
                self.expand_fanout(fs.member, fs.root, fs.root_at, &fs.bytes);
                self.finish_fanout_pop(before);
            }
            EventKind::FanoutCohort(cohort) => {
                let before = self.world.events_processed;
                self.expand_cohort(at, cohort);
                self.finish_fanout_pop(before);
            }
            kind => {
                self.world.events_processed += 1;
                if self.world.prof.is_none() {
                    self.dispatch_event(kind);
                } else {
                    let class = event_class(&kind);
                    let node = event_node(&kind);
                    let t0 = self.world.prof.as_mut().and_then(|p| p.event_begin());
                    self.dispatch_event(kind);
                    let agent = node.map(|n| self.agents.agent_ref(n).kind_name());
                    if let Some(p) = &mut self.world.prof {
                        p.event_end(class, node, agent, t0);
                    }
                    self.prof_gauges_if_due();
                }
            }
        }
    }

    fn prof_gauges_if_due(&mut self) {
        let World { prof, queue, now, .. } = &mut *self.world;
        if let Some(p) = prof {
            if p.gauge_due() {
                let g = WheelGauges {
                    occupied_slots: queue.occupied_slots(),
                    inbox: queue.inbox_len(),
                    overflow: queue.overflow_len(),
                    current_run: queue.current_len(),
                };
                p.record_gauges(*now, queue.len(), g);
            }
        }
    }

    /// Profiler bookkeeping after a deferred fan-out pop: record the
    /// cohort size (deliveries this pop expanded into) and any due gauges.
    fn finish_fanout_pop(&mut self, events_before: u64) {
        if self.world.prof.is_some() {
            let delivered = self.world.events_processed - events_before;
            if let Some(p) = &mut self.world.prof {
                p.record_cohort(delivered);
            }
            self.prof_gauges_if_due();
        }
    }

    /// Expand a coalesced fan-out cohort member by member, pausing if a
    /// smaller-keyed event lands in the queue between two members: the
    /// remaining members are re-queued under the next member's key and the
    /// interloper runs first — exactly the order the uncoalesced schedule
    /// would have produced. (A *single* deferred fan-out expands
    /// atomically, matching the eager path where its arrivals carry
    /// consecutive keys nothing can fall between.)
    fn expand_cohort(&mut self, at: SimTime, mut cohort: Cohort) {
        let len = cohort.members.len();
        // The run `cohort.members[idx]` belongs to.
        let mut run = 0;
        for idx in 0..len {
            let m = cohort.members[idx];
            while cohort.runs[run].end <= idx {
                run += 1;
            }
            // Non-rotating probe: a same-timestamp straggler can only be in
            // the current run or the inbox (same-bucket by construction); a
            // rotating peek would drain the next bucket mid-expansion and
            // break tail coalescing there.
            if idx > 0 && self.world.queue.peek_key_at(at).is_some_and(|nk| nk < m.key()) {
                let kind = if idx + 1 == len {
                    let r = cohort.runs.pop().expect("the last member's run");
                    EventKind::Fanout(FanoutSend { bytes: r.bytes, root: r.root, root_at: r.root_at, member: m })
                } else {
                    // Re-queue the tail in a recycled buffer — splits are
                    // common under interleaved senders and must not
                    // allocate per pause. It takes the runs from the
                    // current one on; the members already expanded need
                    // none of them.
                    let mut rest = self.world.fanout_spares.pop().unwrap_or_default();
                    rest.members.extend(cohort.members.drain(idx..));
                    rest.runs.extend(cohort.runs.drain(run..).map(|r| Run { end: r.end - idx, ..r }));
                    EventKind::FanoutCohort(rest)
                };
                self.world.push(at, m.key(), kind);
                break;
            }
            let r = &cohort.runs[run];
            self.expand_fanout(m, r.root, r.root_at, &r.bytes);
        }
        cohort.clear();
        if self.world.fanout_spares.len() < World::FANOUT_SPARES_MAX {
            self.world.fanout_spares.push(cohort);
        }
    }

    /// Expand one deferred fan-out into its per-receiver deliveries — the
    /// drain-time half of the batched data path. Per-receiver work is
    /// identical to an eager `Arrival` dispatch (node-down check, link-down
    /// check, rx trace, causal context, agent dispatch) in the identical
    /// order — under an observer it is the same `arrive` call. Link state
    /// cannot change mid-expansion — agents have no synchronous topology
    /// mutation API; link/node flips are themselves queued events — so the
    /// no-observer loop hoists the link-up check out of its body, as it
    /// does the trace/prof enablement checks (the body is branch-free on
    /// them). Only endpoints in this shard's node range are
    /// expanded: a cut-link fan-out is mirrored into each shard the link
    /// touches under the same key, and the per-shard expansions partition
    /// the eager delivery set. Trace records carry
    /// `endpoint index << 32 | counter` sub-tags so the merged stream
    /// reconstructs the single-shard endpoint order.
    fn expand_fanout(&mut self, m: Member, root: PacketId, root_at: SimTime, bytes: &Payload) {
        let sender = m.node();
        let iface = m.iface();
        let (class, cause) = (m.class(), ArrivalCause { id: m.id, root, root_at });
        let Ok(link) = self.shared.topo.link_of(sender, iface) else {
            return;
        };
        let link_ok = self.shared.topo.link_up(link);
        let n_endpoints = self.shared.topo.link_endpoint_count(link);
        let (base, limit) = (self.world.base, self.world.limit);
        self.world.cur_key = m.key();
        if self.world.trace.is_none() && self.world.prof.is_none() {
            // Hot loop: no tracing, no profiling — one enablement branch
            // per *send* instead of several per delivery.
            if n_endpoints == 2 {
                // Point-to-point: the receiver is whichever endpoint is
                // not the sender — no loop, no skip branch per endpoint.
                let (a, ai) = self.shared.topo.link_endpoint(link, 0);
                let (rx, ri) = if a == sender {
                    self.shared.topo.link_endpoint(link, 1)
                } else {
                    (a, ai)
                };
                if rx.0 < base || rx.0 >= limit {
                    return;
                }
                self.world.events_processed += 1;
                if !self.shared.node_down[rx.index()] && link_ok {
                    self.deliver(rx, ri, bytes, class, cause);
                }
                return;
            }
            for e in 0..n_endpoints {
                let (rx, ri) = self.shared.topo.link_endpoint(link, e);
                if rx == sender || rx.0 < base || rx.0 >= limit {
                    continue;
                }
                self.world.events_processed += 1;
                if self.shared.node_down[rx.index()] || !link_ok {
                    continue;
                }
                self.deliver(rx, ri, bytes, class, cause);
            }
            return;
        }
        for e in 0..n_endpoints {
            let (rx, ri) = self.shared.topo.link_endpoint(link, e);
            if rx == sender || rx.0 < base || rx.0 >= limit {
                continue;
            }
            self.world.events_processed += 1;
            self.world.cur_sub = (e as u64) << 32;
            let t0 = self.world.prof.as_mut().and_then(|p| p.event_begin());
            self.arrive(rx, ri, Some(link), bytes, class, cause);
            if self.world.prof.is_some() {
                let agent = self.agents.agent_ref(rx).kind_name();
                if let Some(p) = &mut self.world.prof {
                    p.event_end(EventClass::Fanout, Some(rx), Some(agent), t0);
                }
            }
        }
    }

    /// One arrival of a frame at `node`, off `link` (`None` when the node
    /// has no such interface): the per-receiver step an eager `Arrival`
    /// event and the observed fan-out expansion share. Frames in flight
    /// when a link died are dropped on arrival, as are frames addressed to
    /// a crashed node; any other is recorded as received and delivered.
    fn arrive(&mut self, node: NodeId, iface: IfaceId, link: Option<LinkId>, bytes: &Payload, class: TrafficClass, cause: ArrivalCause) {
        let dropped = if self.shared.node_down[node.index()] {
            Some(DropReason::NodeDown)
        } else if link.is_some_and(|l| !self.shared.topo.link_up(l)) {
            Some(DropReason::LinkDown)
        } else {
            None
        };
        if let Some(reason) = dropped {
            if let Some(l) = link {
                self.world.trace_drop(l, cause, reason, class);
            }
            return;
        }
        let (id, root, age) = (cause.id, cause.root, self.world.now - cause.root_at);
        self.world.trace_push(TraceKind::PacketRx { node, iface, id, root, age, class });
        self.deliver(node, iface, bytes, class, cause);
    }

    /// One delivery: set the causal context and hand the frame to the
    /// receiver's pool, which calls its type's `on_packet` statically —
    /// data and control alike.
    fn deliver(&mut self, node: NodeId, iface: IfaceId, bytes: &Payload, class: TrafficClass, cause: ArrivalCause) {
        self.world.cause = Some(cause);
        let mut ctx = Ctx {
            shared: self.shared,
            world: self.world,
            node,
        };
        self.agents.on_packet(node, &mut ctx, iface, bytes, class);
        self.world.cause = None;
    }

    /// The shard-local event dispatch body. Global transitions (link /
    /// node / loss changes) never reach a shard queue — they dispatch
    /// through the coordinator between parallel segments.
    fn dispatch_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival { node, iface, bytes, class, cause } => {
                let link = self.shared.topo.link_of(node, iface).ok();
                self.arrive(node, iface, link, &bytes, class, cause);
            }
            EventKind::Timer { node, token, epoch } => {
                // Timers from before a crash die with the agent that set
                // them; a down node runs nothing.
                if self.shared.node_down[node.index()] || self.shared.epoch(node) != epoch {
                    return;
                }
                self.world.trace_push(TraceKind::TimerFire { node, token });
                self.with_agent(node, |agent, ctx| agent.on_timer(ctx, token));
            }
            EventKind::LinkChange { .. } | EventKind::NodeChange { .. } | EventKind::LossChange { .. } => {
                unreachable!("global transitions dispatch through the coordinator, not a shard queue")
            }
            EventKind::Fanout(..) | EventKind::FanoutCohort(..) => {
                unreachable!("fan-outs dispatch through expand_fanout, not dispatch_event")
            }
        }
    }
}
