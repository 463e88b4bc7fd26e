//! [`Sim`]: construction, agents, scheduling, the start-up sweep, the
//! segment loop behind [`Sim::run`] / [`Sim::run_until`], and the dispatch
//! of global transitions between segments.

use super::exec::Exec;
use super::store::{AgentStore, Row};
use super::world::{event_class, EventKind, Shared, World};
use super::{Agent, AgentFactory, Ctx, IntoAgent, NullAgent, TimerToken, TopologyChange};
use crate::id::{LinkId, NodeId};
use crate::routing::Routing;
use crate::stats::Stats;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::TraceKind;
use crate::wheel::{TimerWheel, WheelConfig};
use std::collections::HashMap;

/// The simulation: topology + agents + event queues.
pub struct Sim {
    pub(super) shared: Shared,
    /// The world and the agents each sit in a heap block of their own, not
    /// inline: inline, they moved `star_100k_data` `peak_rss_mb` 9.3 →
    /// 9.9 MB (docs/INTERNALS.md §6, "inline size").
    pub(super) world: Box<World>,
    /// The agents, one per node.
    pub(super) agents: Box<AgentStore>,
    /// Global transitions (link / node / loss changes), dispatched between
    /// segments of the node queue (see [`run_segments`](Self::run_segments)).
    pub(super) global_queue: TimerWheel<EventKind>,
    pub(super) global_peak: usize,
    /// Rank-0 sequence counter for externally scheduled events (faults,
    /// harness timers).
    pub(super) ext_seq: u64,
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
        let shared = Shared::new(topo, seed);
        Sim {
            world: Box::new(World::new(&shared.topo, wheel)),
            agents: Box::new(AgentStore::new(shared.topo.node_count())),
            shared,
            global_queue: TimerWheel::new(wheel),
            global_peak: 0,
            ext_seq: 0,
            started: false,
            crash_downed_links: HashMap::new(),
            restart_factories: HashMap::new(),
            sweep_buf: Vec::new(),
        }
    }

    /// Attach `agent` to `node`, replacing whatever was there. If the
    /// simulation has already started this is a process restart: timers the
    /// old agent armed (and harness timers scheduled for it) are
    /// invalidated, its [`Ctx::watch_topology`] registration is dropped, and
    /// the new agent's `on_start` runs immediately.
    ///
    /// A `Box<A>` of a concrete type is unboxed into the pool of every `A`;
    /// a `Box<dyn Agent>` keeps its box, in the pool of boxed agents (see
    /// [`IntoAgent`]). Either way the replaced agent is dropped where it
    /// stood, and its row is reused by the next agent of its kind.
    pub fn set_agent(&mut self, node: NodeId, agent: impl IntoAgent) {
        agent.place(self, node);
        if self.started {
            self.exec().with_agent(node, |agent, ctx| agent.on_start(ctx));
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
        self.agents.put(node, agent);
        self.world.mark_audit(node);
        if self.started {
            self.shared.bump_epoch(node);
            self.world.listeners.remove(&node.0);
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
        self.world.mark_audit(node);
        self.agents.agent(node)
    }

    /// Downcast the agent on `node` to a concrete type.
    pub fn agent_as<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.agent_mut(node).as_any_mut().downcast_mut::<T>()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// Measurement state.
    pub fn stats(&self) -> &Stats {
        &self.world.stats
    }

    /// Unicast routing (for harness-level queries like path lengths).
    pub fn routing_mut(&mut self) -> (&Topology, &mut Routing) {
        (&self.shared.topo, &mut self.world.routing)
    }

    /// Unicast routing state, read-only (cache statistics).
    pub fn routing(&self) -> &Routing {
        &self.world.routing
    }

    /// Total events dispatched so far. A deferred fan-out pop expands *all*
    /// its deliveries inline and counts each delivery (not the pop), so
    /// event totals match the eager path exactly.
    pub fn events_processed(&self) -> u64 {
        self.world.events_processed
    }

    /// Frame derivations actually run so far — [`Ctx::derive_frame`] calls
    /// the memo did not answer. Host work, not a simulated statistic.
    pub fn frames_derived(&self) -> u64 {
        self.world.frames_derived
    }

    /// High-water mark of the pending-event set over the whole run — the
    /// memory-pressure figure the scale benchmarks report: the node
    /// queue's high-water mark plus the global queue's, an upper bound on
    /// the instantaneous total.
    pub fn peak_queue_depth(&self) -> usize {
        self.world.peak_queue_depth + self.global_peak
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
    /// rank-0 keyed (harness scheduling order). Like a timer the agent arms
    /// itself, it is bound to the node's process as of this call: if the
    /// agent is replaced before `at` — a crash, a restart, a mid-run
    /// [`set_agent`](Self::set_agent) — the timer is dropped, so one
    /// scheduled while the node is down does not reach the agent its
    /// restart installs.
    pub fn schedule_timer_at(&mut self, node: NodeId, at: SimTime, token: TimerToken) {
        let key = self.ext_key();
        let epoch = self.shared.epoch(node);
        self.world.push(at, key, EventKind::Timer { node, token, epoch });
    }

    /// Dispatch `on_start` to every agent in node-id order (idempotent;
    /// also called by the first `run_*`), before any event runs.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let mut exec = self.exec();
        for i in 0..exec.shared.topo.node_count() {
            exec.with_agent(NodeId(i as u32), |agent, ctx| agent.on_start(ctx));
        }
        // Setup (construction + on_start sweep) ends here; what follows is
        // the run phase.
        if let Some(p) = &mut self.world.prof {
            p.mark_run_start();
        }
    }

    /// The executor: the world and the agents.
    pub(super) fn exec(&mut self) -> Exec<'_> {
        Exec {
            shared: &self.shared,
            world: &mut self.world,
            agents: &mut self.agents,
        }
    }

    /// Dispatch one global transition (link / node / loss change); the
    /// clock already stands at the event time.
    fn dispatch_global(&mut self, kind: EventKind) {
        let t0 = self.world.prof.as_mut().and_then(|p| p.event_begin());
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
        match kind {
            EventKind::LinkChange { link, up } => {
                let topo = &self.shared.topo;
                let mut held_down = false;
                for (n, _) in topo.endpoints(link) {
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
                    self.notify_link_change(link, up);
                    let change = if up {
                        TopologyChange::LinkUp(link)
                    } else {
                        TopologyChange::LinkDown(link)
                    };
                    self.notify_topology_change(change);
                }
            }
            EventKind::NodeChange { node, up } => {
                if up {
                    self.process_restart(node);
                } else {
                    self.process_crash(node);
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
                unreachable!("node events are in the node queue, never global")
            }
            EventKind::Fanout(..) | EventKind::FanoutCohort(..) => {
                unreachable!("fan-outs are in the node queue, never global")
            }
        }
        if topo_transition {
            // Keep the auditor's allowed-tree view current across faults:
            // close the A1 interval that ended with this transition
            // (re-homing has already run). Counts are *not* checked here —
            // the network is mid-recovery, not quiescent.
            self.audit_refresh(false);
        }
        if let Some(p) = &mut self.world.prof {
            p.event_end(class, None, None, t0);
        }
    }

    /// Tell every live endpoint of `link` that it went up or down
    /// ([`Agent::on_link_change`], the §3.2 connection-failure notification
    /// for a reliable-mode neighbor).
    fn notify_link_change(&mut self, link: LinkId, up: bool) {
        let mut exec = self.exec();
        for (n, i) in exec.shared.topo.endpoints(link) {
            if !exec.shared.node_down[n.index()] {
                exec.with_agent(n, |agent, ctx| agent.on_link_change(ctx, i, up));
            }
        }
    }

    /// Deliver `change` to every live agent that listens
    /// ([`Ctx::watch_topology`]), then run the [`Agent::on_route_change`]
    /// sweep over the same (routing was already repaired).
    fn notify_topology_change(&mut self, change: TopologyChange) {
        let w = &mut self.world;
        w.trace_push(TraceKind::Topology(change));
        if let Some(m) = &mut w.metrics {
            m.mark_fault(w.now, change);
        }
        self.sweep_live_agents(|agent, ctx| agent.on_topology_change(ctx, change));
        self.sweep_live_agents(|agent, ctx| agent.on_route_change(ctx));
    }

    /// Run `f` with every live listener's agent, in ascending node id: a
    /// transition costs two calls per listener, whatever the node count. A
    /// crash drops the registration, so a down node is in the set only if
    /// the harness installed a listening agent on it while it was down; it
    /// is skipped like any down node. The walk is over a copy of the set —
    /// the hook holds the world meanwhile — and misses nothing by it: all a
    /// hook can register is its own node, which is in the set or it would
    /// not be running. The copy goes into one buffer the sweeps reuse.
    fn sweep_live_agents(&mut self, f: impl Fn(&mut dyn Agent, &mut Ctx<'_>)) {
        let mut listeners = core::mem::take(&mut self.sweep_buf);
        listeners.extend(self.world.listeners.iter());
        let mut exec = self.exec();
        for &n in &listeners {
            if !exec.shared.node_down[n as usize] {
                exec.with_agent(NodeId(n), &f);
            }
        }
        listeners.clear();
        self.sweep_buf = listeners;
    }

    /// Mark `link` up or down and repair the cached routes: one link at a
    /// time, since a repair takes the trees to be right but for the link it
    /// is given. Its endpoints' audit reports may read the link's state, so
    /// the auditor re-reads them.
    fn flip_link(&mut self, link: LinkId, up: bool) {
        self.shared.topo.set_link_up(link, up);
        for (n, _) in self.shared.topo.endpoints(link) {
            self.world.mark_audit(n);
        }
        if up {
            self.world.routing.link_up(&self.shared.topo, link);
        } else {
            self.world.routing.link_down(&self.shared.topo, link);
        }
    }

    fn process_crash(&mut self, node: NodeId) {
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
        self.world.routing.forget_origins();
        for &l in &links {
            self.flip_link(l, false);
        }
        self.crash_downed_links.insert(node, links.clone());
        // The crashed node is marked down above, so only its neighbors hear.
        for &l in &links {
            self.notify_link_change(l, false);
        }
        self.notify_topology_change(TopologyChange::NodeDown(node));
    }

    fn process_restart(&mut self, node: NodeId) {
        if !self.shared.node_down[node.index()] {
            return;
        }
        self.shared.node_down[node.index()] = false;
        let links = self.crash_downed_links.remove(&node).unwrap_or_default();
        self.world.routing.forget_origins();
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
        self.exec().with_agent(node, |agent, ctx| agent.on_start(ctx));
        for &l in &links {
            self.notify_link_change(l, true);
        }
        self.notify_topology_change(TopologyChange::NodeUp(node));
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

    /// The run loop: alternate segments with global dispatches. Each
    /// segment drains the node queue strictly below the next global
    /// transition's `(time, key)` (or the `until` horizon); the global then
    /// executes at its instant. "Strictly below" never has a tie to break:
    /// global keys and harness-scheduled node events draw from the single
    /// rank-0 sequence, every other node event from its node's rank.
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
            self.exec().drain_below(bound);
            match next_global {
                Some((gt, gk)) => {
                    let (at, key, kind) = self.global_queue.pop_keyed().expect("pending global");
                    debug_assert_eq!((at, key), (gt, gk));
                    debug_assert!(self.world.now <= at);
                    self.world.now = at;
                    self.world.events_processed += 1;
                    self.dispatch_global(kind);
                }
                None => break,
            }
        }
        if let Some(u) = until {
            self.world.now = self.world.now.max(u);
        }
    }
}
