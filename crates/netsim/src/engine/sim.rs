//! [`Sim`]: construction and partitioning, agents, scheduling, the start-up
//! sweep, the segment loop behind [`Sim::run`] / [`Sim::run_until`], and
//! the stop-the-world dispatch of global transitions.

use super::exec::ShardExec;
use super::store::{AgentStore, Row};
use super::world::{event_class, EventKind, Shared, World};
use super::{Agent, AgentFactory, Ctx, IntoAgent, NullAgent, TimerToken, TopologyChange};
use crate::id::{LinkId, NodeId};
use crate::routing::Routing;
use crate::shard::{self, ShardPlan};
use crate::stats::Stats;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::TraceKind;
use crate::wheel::{TimerWheel, WheelConfig};
use std::collections::HashMap;

/// Rank-0 (external/harness) sequence numbers start here so the start-up
/// sweep's trace tags — keyed `(rank 0, node id)` — sort before every
/// pre-scheduled external event.
const EXT_SEQ_BASE: u64 = 1 << 32;

/// The simulation: topology + agents + event queue(s).
///
/// With the default single shard every segment of a run drains inline on
/// the calling thread. [`set_shards`](Self::set_shards) partitions the node
/// space into contiguous shards that drain the same segments in parallel
/// under conservative lookahead synchronization — with byte-identical
/// results at any shard count (see module docs and `docs/INTERNALS.md` §6).
pub struct Sim {
    pub(super) shared: Shared,
    /// One world per shard (`worlds.len() == shared.plan.shard_count()`).
    /// After a sharded run, shard 0 holds the merged stats/metrics/prof.
    pub(super) worlds: Vec<World>,
    /// One agent store per shard, `stores[s]` holding the agents of
    /// `worlds[s]`'s nodes.
    pub(super) stores: Vec<AgentStore>,
    /// Global transitions (link / node / loss changes): coordinator-owned,
    /// dispatched stop-the-world between parallel segments so every shard
    /// observes a topology change at the same instant.
    pub(super) global_queue: TimerWheel<EventKind>,
    pub(super) global_peak: usize,
    /// Rank-0 sequence counter for externally scheduled events (faults,
    /// harness timers); starts at [`EXT_SEQ_BASE`].
    pub(super) ext_seq: u64,
    /// The wheel geometry, kept so [`set_shards`](Self::set_shards) can
    /// rebuild per-shard wheels.
    pub(super) wheel_cfg: WheelConfig,
    pub(super) started: bool,
    /// Links downed by a node's crash, restored at its restart.
    pub(super) crash_downed_links: HashMap<NodeId, Vec<LinkId>>,
    /// Per-node factories used by [`schedule_restart`](Self::schedule_restart)
    /// to build the post-restart agent (empty soft state).
    pub(super) restart_factories: HashMap<NodeId, AgentFactory>,
    /// The listener set a transition sweep walks, copied here (see
    /// [`sweep_live_agents`](Self::sweep_live_agents)); empty between
    /// sweeps, its capacity kept.
    pub(super) sweep_buf: Vec<u32>,
}

impl Sim {
    /// Build a simulation over `topo` with the given RNG seed. Every node
    /// starts with a [`NullAgent`]; attach real protocol agents with
    /// [`set_agent`](Self::set_agent) before calling [`run`](Self::run).
    pub fn new(topo: Topology, seed: u64) -> Self {
        Self::new_with_wheel(topo, seed, WheelConfig::default())
    }

    /// [`new`](Self::new) with an explicit event-wheel geometry. Wheel
    /// geometry affects only scheduling cost, never event order — the popped
    /// stream is identical for every configuration (pinned by the
    /// `queue_order_is_granularity_independent` property test and a golden
    /// replay run at a non-default granularity).
    pub fn new_with_wheel(topo: Topology, seed: u64, wheel: WheelConfig) -> Self {
        let n = topo.node_count();
        let shared = Shared::new(topo, seed);
        let worlds = vec![World::new(&shared.topo, wheel, 0, 0, n as u32)];
        Sim {
            shared,
            worlds,
            stores: vec![AgentStore::new(0, n as u32)],
            global_queue: TimerWheel::new(wheel),
            global_peak: 0,
            ext_seq: EXT_SEQ_BASE,
            wheel_cfg: wheel,
            started: false,
            crash_downed_links: HashMap::new(),
            restart_factories: HashMap::new(),
            sweep_buf: Vec::new(),
        }
    }

    /// Partition the simulation into up to `shards` parallel shards
    /// (contiguous node ranges; see [`crate::shard::partition`] for how
    /// boundaries are chosen). The effective count may be lower — it is
    /// capped at [`shard::MAX_SHARDS`], at the node count, and reduced
    /// when no zero-latency-cut partition of the requested width exists.
    /// Determinism contract: a run's observable results (event order,
    /// traces, stats, RNG draws) are byte-identical at *any* shard count.
    ///
    /// Must be called on a pristine simulation — before agents schedule
    /// anything, before any `schedule_*` call, and before
    /// trace/metrics/prof are enabled (panics otherwise).
    pub fn set_shards(&mut self, shards: usize) {
        let plan = shard::partition(&self.shared.topo, shards);
        self.apply_plan(plan);
    }

    /// Partition with explicit shard boundaries (`bounds` are the
    /// fenceposts, `[0, …, node_count]`, strictly increasing). Panics on
    /// invalid bounds or a zero-latency cut link — this is the
    /// deterministic-partition hook the randomized-partition property
    /// tests drive. Same pristine-state requirements as
    /// [`set_shards`](Self::set_shards).
    pub fn set_shard_bounds(&mut self, bounds: &[u32]) {
        let plan = shard::plan_from_bounds(&self.shared.topo, bounds);
        self.apply_plan(plan);
    }

    /// Number of shards the simulation is partitioned into (1, the default,
    /// drains inline on the calling thread).
    pub fn shard_count(&self) -> usize {
        self.shared.plan.shard_count()
    }

    /// The active shard partition.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.shared.plan
    }

    /// Conservative-sync totals over all shards so far:
    /// `(windows, barrier stall ns)` — `(0, 0)` for single-shard runs, which
    /// meet no barrier.
    pub fn sync_stats(&self) -> (u64, u64) {
        self.worlds.iter().fold((0, 0), |(w, s), world| {
            (w + world.sync_windows, s + world.sync_stall_ns)
        })
    }

    fn apply_plan(&mut self, plan: ShardPlan) {
        assert!(
            !self.started,
            "set_shards/set_shard_bounds must be called before the simulation starts"
        );
        assert!(
            self.global_queue.is_empty() && self.worlds.iter().all(|w| w.queue.is_empty()),
            "set_shards/set_shard_bounds must be called before any events are scheduled"
        );
        assert!(
            self.worlds[0].trace.is_none()
                && self.worlds[0].metrics.is_none()
                && self.worlds[0].prof.is_none(),
            "set_shards/set_shard_bounds must be called before enabling trace/metrics/prof"
        );
        let (worlds, mut stores): (Vec<World>, Vec<AgentStore>) = (0..plan.shard_count())
            .map(|s| {
                let (base, limit) = plan.range(s);
                (World::new(&self.shared.topo, self.wheel_cfg, s, base, limit), AgentStore::new(base, limit))
            })
            .unzip();
        // Agents installed so far move to their new shards' stores; none
        // has run, so none can tell.
        for old in std::mem::take(&mut self.stores) {
            old.rehome(&mut stores, &plan);
        }
        (self.worlds, self.stores) = (worlds, stores);
        self.shared.plan = plan;
    }

    /// Attach `agent` to `node`, replacing whatever was there. If the
    /// simulation has already started this is a process restart: timers the
    /// old agent armed (and harness timers scheduled for it) are
    /// invalidated, its [`Ctx::watch_topology`] registration is dropped, and
    /// the new agent's `on_start` runs immediately.
    ///
    /// A `Box<A>` of a concrete type is unboxed into the pool of every `A`
    /// in the node's shard; a `Box<dyn Agent>` keeps its box, in the pool of
    /// boxed agents (see [`IntoAgent`]). Either way the replaced agent is
    /// dropped where it stood, and its row is reused by the next agent of
    /// its kind.
    pub fn set_agent(&mut self, node: NodeId, agent: impl IntoAgent) {
        agent.place(self, node);
        if self.started {
            let key = self.ext_key();
            let mut sub = 0;
            self.coord_agent(node, key, &mut sub, |agent, ctx| agent.on_start(ctx));
            self.drain_outboxes();
        }
    }

    /// Put `agent` at `node` in place of whatever runs there — the one step
    /// a crash (a [`NullAgent`] moves in), a restart and a mid-run
    /// [`set_agent`](Self::set_agent) share. Once the simulation has
    /// started, nothing the old process asked the engine for outlives it:
    /// the epoch bump strands the timers it armed, and its topology
    /// registration goes, so the newcomer hears transitions only if its own
    /// `on_start` asks. (Before the start no agent has run, so there is
    /// nothing to strand.) The auditor re-reads the node at its next
    /// refresh.
    pub(super) fn install_agent<R: Row>(&mut self, node: NodeId, agent: R) {
        let s = self.shared.plan.shard_of(node);
        self.stores[s].put(node, agent);
        self.worlds[s].mark_audit(node);
        if self.started {
            self.shared.bump_epoch(node);
            self.worlds[s].listeners.remove(&node.0);
        }
    }

    /// Toggle deferred fan-out batching (on by default). With batching off
    /// every receiver is scheduled eagerly as its own arrival event — the
    /// reference semantics the cohort-equivalence property tests compare
    /// against. Event order, traces, stats, and RNG consumption are
    /// identical either way; only queue-depth accounting differs (one
    /// deferred entry vs one entry per receiver), so
    /// [`peak_queue_depth`](Self::peak_queue_depth) is the one figure the
    /// toggle legitimately changes.
    pub fn set_fanout_batching(&mut self, on: bool) {
        self.shared.batch_fanout = on;
    }

    /// Borrow the agent on `node` for inspection. Whatever the caller
    /// changes through it, the auditor re-reads the node at its next
    /// refresh (see [`Ctx::audit_changed`]).
    pub fn agent_mut(&mut self, node: NodeId) -> &mut dyn Agent {
        let s = self.shared.plan.shard_of(node);
        self.worlds[s].mark_audit(node);
        self.stores[s].agent(node)
    }

    /// The agent on `node`, read-only.
    pub(super) fn agent_ref(&self, node: NodeId) -> &dyn Agent {
        self.stores[self.shared.plan.shard_of(node)].agent_ref(node)
    }

    /// Downcast the agent on `node` to a concrete type.
    pub fn agent_as<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.agent_mut(node).as_any_mut().downcast_mut::<T>()
    }

    /// Current simulated time (shards agree whenever the coordinator has
    /// control; mid-window shard clocks advance independently within the
    /// lookahead bound).
    pub fn now(&self) -> SimTime {
        self.worlds[0].now
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// Measurement state. After a sharded run this is the merged view;
    /// mid-run it covers shard 0 only.
    pub fn stats(&self) -> &Stats {
        &self.worlds[0].stats
    }

    /// Unicast routing (for harness-level queries like path lengths).
    pub fn routing_mut(&mut self) -> (&Topology, &mut Routing) {
        (&self.shared.topo, &mut self.worlds[0].routing)
    }

    /// Unicast routing state of shard 0, read-only (cache statistics).
    pub fn routing(&self) -> &Routing {
        &self.worlds[0].routing
    }

    /// Total events dispatched so far, over all shards. A deferred fan-out
    /// pop expands *all* its deliveries inline and counts each delivery
    /// (not the pop), so event totals match the eager path exactly.
    pub fn events_processed(&self) -> u64 {
        self.worlds.iter().map(|w| w.events_processed).sum()
    }

    /// Frame derivations actually run so far — [`Ctx::derive_frame`] calls
    /// the memo did not answer — over all shards. Host work, not a
    /// simulated statistic: each shard remembers its own last derivation,
    /// so the figure grows with the shard count.
    pub fn frames_derived(&self) -> u64 {
        self.worlds.iter().map(|w| w.frames_derived).sum()
    }

    /// High-water mark of the pending-event set over the whole run — the
    /// memory-pressure figure the scale benchmarks report. Under sharding
    /// this is the sum of per-shard (plus coordinator) high-water marks:
    /// an upper bound on, not an exact reading of, the instantaneous
    /// total, and — unlike every protocol-visible result — legitimately
    /// dependent on the shard count.
    pub fn peak_queue_depth(&self) -> usize {
        self.worlds.iter().map(|w| w.peak_queue_depth).sum::<usize>() + self.global_peak
    }

    /// Allocate the next rank-0 (external/harness) canonical event key.
    fn ext_key(&mut self) -> u128 {
        let k = self.ext_seq as u128;
        self.ext_seq += 1;
        k
    }

    fn global_push(&mut self, at: SimTime, kind: EventKind) {
        let key = self.ext_key();
        self.global_queue.push_keyed(at, key, kind);
        if self.global_queue.len() > self.global_peak {
            self.global_peak = self.global_queue.len();
        }
    }

    /// Schedule a link up/down transition at absolute time `at`.
    pub fn schedule_link_change(&mut self, at: SimTime, link: LinkId, up: bool) {
        self.global_push(at, EventKind::LinkChange { link, up });
    }

    /// Schedule a router crash at absolute time `at`: the node's agent —
    /// and with it all channel/count soft state — is discarded (replaced
    /// by a [`NullAgent`]), every link that was up at that instant goes
    /// down (neighbors see [`Agent::on_link_change`], the §3.2 TCP-mode
    /// connection-failure notification), timers the dead agent had pending
    /// are invalidated, and unicast routing re-converges around the node.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.global_push(at, EventKind::NodeChange { node, up: false });
    }

    /// Schedule a restart of a crashed router at absolute time `at`: the
    /// links its crash downed come back, a fresh agent is built by the
    /// factory registered via [`set_restart_factory`](Self::set_restart_factory)
    /// (or a [`NullAgent`] when none is registered) and started with empty
    /// soft state, and routing re-converges. A restart for a node that is
    /// not down is ignored.
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId) {
        self.global_push(at, EventKind::NodeChange { node, up: true });
    }

    /// Register the factory that builds `node`'s post-restart agent.
    pub fn set_restart_factory(&mut self, node: NodeId, factory: AgentFactory) {
        self.restart_factories.insert(node, factory);
    }

    /// Schedule a loss-probability override on `link` at `at`: `Some(p)`
    /// makes datagrams on the link drop with probability `p` regardless of
    /// the link spec; `None` restores the spec's loss. Two of these back to
    /// back form a time-windowed loss burst (see `faults::FaultPlan`).
    pub fn schedule_loss_override(&mut self, at: SimTime, link: LinkId, loss: Option<f64>) {
        self.global_push(at, EventKind::LossChange { link, loss });
    }

    /// Whether `node`'s process is up (false between a crash and restart).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.shared.node_down[node.index()]
    }

    /// Schedule a timer for `node` at absolute time `at` — the hook
    /// workload generators use to drive join/leave churn. The event is
    /// rank-0 keyed (harness scheduling order) and queued on the owning
    /// shard. Like a timer the agent arms itself, it is bound to the
    /// node's process as of this call: if the agent is replaced before
    /// `at` — a crash, a restart, a mid-run [`set_agent`](Self::set_agent)
    /// — the timer is dropped, so one scheduled while the node is down
    /// does not reach the agent its restart installs.
    pub fn schedule_timer_at(&mut self, node: NodeId, at: SimTime, token: TimerToken) {
        let key = self.ext_key();
        let epoch = self.shared.epoch(node);
        let s = self.shared.plan.shard_of(node);
        self.worlds[s].push(at, key, EventKind::Timer { node, token, epoch });
    }

    /// Dispatch `on_start` to every agent (idempotent; also called by the
    /// first `run_*`). The sweep runs in node-id order with per-node
    /// rank-0 keys `(0, node)`, so start-up trace records sort before
    /// every externally scheduled event at t=0 — at any shard count.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.shared.topo.node_count() {
            let mut sub = 0;
            self.coord_agent(NodeId(i as u32), i as u128, &mut sub, |agent, ctx| agent.on_start(ctx));
        }
        self.drain_outboxes();
        // Setup (construction + on_start sweep) ends here; what follows is
        // the run phase.
        for w in &mut self.worlds {
            if let Some(p) = &mut w.prof {
                p.mark_run_start();
            }
        }
    }

    /// Shard `s`'s executor: its world and its agents.
    pub(super) fn exec(&mut self, s: usize) -> ShardExec<'_> {
        ShardExec {
            shared: &self.shared,
            world: &mut self.worlds[s],
            agents: &mut self.stores[s],
        }
    }

    /// Run `f` with the agent at `node` from coordinator context (start-up
    /// sweep, global-transition sweeps): dispatches through the owning
    /// shard's executor, tagging emitted trace records with `key` and the
    /// running `sub` counter so one coordinator sweep keeps a single
    /// canonical order across shards.
    fn coord_agent<F: FnOnce(&mut dyn Agent, &mut Ctx<'_>)>(&mut self, node: NodeId, key: u128, sub: &mut u64, f: F) {
        let mut exec = self.exec(self.shared.plan.shard_of(node));
        exec.world.cur_key = key;
        exec.world.cur_sub = *sub;
        exec.with_agent(node, f);
        *sub = exec.world.cur_sub;
    }

    /// Move coordinator-context cross-shard sends (outbox entries produced
    /// by start-up or global-transition sweeps) into their destination
    /// shards' queues. No-op at one shard: the eager path never routes
    /// through the outbox then.
    fn drain_outboxes(&mut self) {
        for s in 0..self.worlds.len() {
            if self.worlds[s].outbox.is_empty() {
                continue;
            }
            let outbox = std::mem::take(&mut self.worlds[s].outbox);
            for (dst, at, key, kind) in outbox {
                self.worlds[dst].push(at, key, kind);
            }
        }
    }

    /// Dispatch one global transition (link / node / loss change) from
    /// coordinator context: every shard's clock already stands at the
    /// event time, no worker is running, and agent sweeps thread one
    /// `(key, sub)` tag sequence across shards so trace merge order is
    /// canonical.
    fn dispatch_global(&mut self, key: u128, kind: EventKind) {
        let t0 = self.worlds[0].prof.as_mut().and_then(|p| p.event_begin());
        let class = event_class(&kind);
        let topo_transition = matches!(
            kind,
            EventKind::LinkChange { .. } | EventKind::NodeChange { .. }
        );
        if topo_transition {
            // Snapshot the *outgoing* tree before the transition mutates
            // it. Without this, a tree that converged mid-interval (e.g. a
            // re-home after LinkUp) and is reverted by this very fault
            // would appear in neither bracketing snapshot, and its
            // perfectly legal transmissions would trip A1.
            self.audit_refresh(false);
        }
        let mut sub = 0u64;
        match kind {
            EventKind::LinkChange { link, up } => {
                let topo = &self.shared.topo;
                let mut held_down = false;
                for &(n, _) in topo.link_endpoints(link) {
                    // A crashed endpoint holds the link down whatever is
                    // asked of it; the change edits what its restart will
                    // restore.
                    if let Some(restore) = self.crash_downed_links.get_mut(&n) {
                        held_down = true;
                        if !up {
                            restore.retain(|&l| l != link);
                        } else if !restore.contains(&link) {
                            restore.push(link);
                        }
                    }
                }
                if !held_down && topo.link_up(link) != up {
                    self.flip_link(link, up);
                    self.notify_link_change(link, up, key, &mut sub);
                    let change = if up {
                        TopologyChange::LinkUp(link)
                    } else {
                        TopologyChange::LinkDown(link)
                    };
                    self.notify_topology_change(change, key, &mut sub);
                }
            }
            EventKind::NodeChange { node, up } => {
                if up {
                    self.process_restart(node, key, &mut sub);
                } else {
                    self.process_crash(node, key, &mut sub);
                }
            }
            EventKind::LossChange { link, loss } => match loss {
                Some(p) => {
                    self.shared.loss_override.insert(link, p);
                }
                None => {
                    self.shared.loss_override.remove(&link);
                }
            },
            EventKind::Arrival { .. } | EventKind::Timer { .. } => {
                unreachable!("node events are shard-queued, never global")
            }
            EventKind::Fanout(..) | EventKind::FanoutCohort(..) => {
                unreachable!("fan-outs are shard-queued, never global")
            }
        }
        if topo_transition {
            // Keep the auditor's allowed-tree view current across faults:
            // close the A1 interval that ended with this transition
            // (re-homing has already run). Counts are *not* checked here —
            // the network is mid-recovery, not quiescent.
            self.audit_refresh(false);
        }
        if let Some(p) = &mut self.worlds[0].prof {
            p.event_end(class, None, None, t0);
        }
    }

    /// Tell every live endpoint of `link` that it went up or down
    /// ([`Agent::on_link_change`], the §3.2 connection-failure notification
    /// for a reliable-mode neighbor).
    fn notify_link_change(&mut self, link: LinkId, up: bool, key: u128, sub: &mut u64) {
        for e in 0..self.shared.topo.link_endpoint_count(link) {
            let (n, i) = self.shared.topo.link_endpoint(link, e);
            if !self.shared.node_down[n.index()] {
                self.coord_agent(n, key, sub, |agent, ctx| agent.on_link_change(ctx, i, up));
            }
        }
    }

    /// Deliver `change` to every live agent that listens
    /// ([`Ctx::watch_topology`]), then run the [`Agent::on_route_change`]
    /// sweep over the same (routing was already repaired).
    fn notify_topology_change(&mut self, change: TopologyChange, key: u128, sub: &mut u64) {
        {
            let w = &mut self.worlds[0];
            w.cur_key = key;
            w.cur_sub = *sub;
            w.trace_push(TraceKind::Topology(change));
            let now = w.now;
            if let Some(m) = &mut w.metrics {
                m.mark_fault(now, change);
            }
            *sub = w.cur_sub;
        }
        self.sweep_live_agents(key, sub, |agent, ctx| agent.on_topology_change(ctx, change));
        self.sweep_live_agents(key, sub, |agent, ctx| agent.on_route_change(ctx));
    }

    /// [`coord_agent`](Self::coord_agent) over every live listener in
    /// node-id order (shards are ascending id ranges, each set walks in
    /// ascending id), with one executor per shard: a transition costs two
    /// calls per listener, whatever the node count. A crash drops the
    /// registration, so a down node is in the set only if the harness
    /// installed a listening agent on it while it was down; it is skipped
    /// like any down node. The walk is over a copy of the set — the hook
    /// holds the world meanwhile — and misses nothing by it: all a hook can
    /// register is its own node, which is in the set or it would not be
    /// running. The copy goes into one buffer the sweeps reuse.
    fn sweep_live_agents(&mut self, key: u128, sub: &mut u64, f: impl Fn(&mut dyn Agent, &mut Ctx<'_>)) {
        let mut listeners = core::mem::take(&mut self.sweep_buf);
        for s in 0..self.worlds.len() {
            let mut exec = self.exec(s);
            exec.world.cur_key = key;
            exec.world.cur_sub = *sub;
            listeners.clear();
            listeners.extend(exec.world.listeners.iter());
            for &n in &listeners {
                if !exec.shared.node_down[n as usize] {
                    exec.with_agent(NodeId(n), &f);
                }
            }
            *sub = exec.world.cur_sub;
        }
        listeners.clear();
        self.sweep_buf = listeners;
    }

    /// Mark `link` up or down and repair every shard's cached routes: one
    /// link at a time, since a repair takes the trees to be right but for
    /// the link it is given. Its endpoints' audit reports may read the
    /// link's state, so the auditor re-reads them.
    fn flip_link(&mut self, link: LinkId, up: bool) {
        self.shared.topo.set_link_up(link, up);
        for &(n, _) in self.shared.topo.link_endpoints(link) {
            self.worlds[self.shared.plan.shard_of(n)].mark_audit(n);
        }
        for w in &mut self.worlds {
            if up {
                w.routing.link_up(&self.shared.topo, link);
            } else {
                w.routing.link_down(&self.shared.topo, link);
            }
        }
    }

    fn process_crash(&mut self, node: NodeId, key: u128, sub: &mut u64) {
        if self.shared.node_down[node.index()] {
            return;
        }
        self.shared.node_down[node.index()] = true;
        // Soft state dies with the process (§3.2: everything a router knows
        // about channels and counts is soft state rebuilt by the protocol).
        self.install_agent(node, NullAgent);
        // Every up link attached to the node drops; remember which, so the
        // restart restores exactly those.
        let links: Vec<LinkId> = self
            .shared
            .topo
            .links_of(node)
            .into_iter()
            .filter(|&l| self.shared.topo.link_up(l))
            .collect();
        // Every origin recomputes, so the per-link accounting has nothing
        // left to read.
        for w in &mut self.worlds {
            w.routing.forget_origins();
        }
        for &l in &links {
            self.flip_link(l, false);
        }
        self.crash_downed_links.insert(node, links.clone());
        // The crashed node is marked down above, so only its neighbors hear.
        for &l in &links {
            self.notify_link_change(l, false, key, sub);
        }
        self.notify_topology_change(TopologyChange::NodeDown(node), key, sub);
    }

    fn process_restart(&mut self, node: NodeId, key: u128, sub: &mut u64) {
        if !self.shared.node_down[node.index()] {
            return;
        }
        self.shared.node_down[node.index()] = false;
        let links = self.crash_downed_links.remove(&node).unwrap_or_default();
        for w in &mut self.worlds {
            w.routing.forget_origins();
        }
        for &l in &links {
            // (Up already if another crashed endpoint restarted first.)
            if !self.shared.topo.link_up(l) {
                self.flip_link(l, true);
            }
        }
        // Fresh process: factory-built agent with empty soft state.
        match self.restart_factories.get(&node) {
            Some(f) => {
                let agent = f();
                self.install_agent(node, agent);
            }
            None => self.install_agent(node, NullAgent),
        }
        self.coord_agent(node, key, sub, |agent, ctx| agent.on_start(ctx));
        for &l in &links {
            self.notify_link_change(l, true, key, sub);
        }
        self.notify_topology_change(TopologyChange::NodeUp(node), key, sub);
    }

    /// Run until the queues drain.
    pub fn run(&mut self) {
        self.run_segments(None);
    }

    /// Run until simulated time exceeds `until` (events at exactly `until`
    /// are processed) or the queues drain.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_segments(Some(until));
    }

    /// The run loop: alternate segments with stop-the-world global
    /// dispatches. Each segment drains every shard strictly below the next
    /// global transition's `(time, key)` (or the `until` horizon) — inline
    /// for the sole shard, in lookahead-windowed parallel otherwise (see
    /// `drain_segment`); the global then executes with all shard clocks
    /// aligned. "Strictly below" never has a tie to break: global keys and
    /// harness-scheduled node events draw from the single rank-0 sequence,
    /// every other node event from its node's rank.
    fn run_segments(&mut self, until: Option<SimTime>) {
        self.start();
        loop {
            // A global past the horizon waits for a later call.
            let next_global = self.global_queue.next_at_key().filter(|&(at, _)| until.is_none_or(|u| at <= u));
            let bound = match (next_global, until) {
                (Some((gt, gk)), _) => (gt, gk),
                // Horizon bound: everything at or before `until` passes
                // (node keys at `until` all sort below `(until+1, 0)`).
                (None, Some(u)) => (SimTime(u.0.saturating_add(1)), 0u128),
                (None, None) => (SimTime(u64::MAX), u128::MAX),
            };
            self.drain_segment(bound);
            match next_global {
                Some((gt, gk)) => {
                    let (at, key, kind) = self.global_queue.pop_keyed().expect("pending global");
                    debug_assert_eq!((at, key), (gt, gk));
                    for w in &mut self.worlds {
                        debug_assert!(w.now <= at);
                        w.now = at;
                    }
                    self.worlds[0].events_processed += 1;
                    self.dispatch_global(key, kind);
                    self.drain_outboxes();
                }
                None => break,
            }
        }
        let mut end = self.worlds.iter().map(|w| w.now).max().unwrap_or(SimTime::ZERO);
        if let Some(u) = until {
            if end < u {
                end = u;
            }
        }
        for w in &mut self.worlds {
            w.now = end;
        }
        self.merge_worlds();
    }
}
