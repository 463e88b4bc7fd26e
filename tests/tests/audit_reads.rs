//! What an audited link flap reads, pinned without the host clock: the
//! auditor's refreshes ask `Agent::audit_state` of the nodes whose reports
//! may have moved (`Ctx::audit_changed` and the engine's own marks), not of
//! every node. A counting wrapper around every agent tallies the reads; a
//! refresh that sweeps the whole tree again reads 3 072 nodes four times
//! over.
//!
//! A binary of its own: the counting allocator (`counting_alloc`) is
//! process-wide.

use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{
    extract_auditor, Agent, AuditConfig, AuditNodeState, Auditor, Ctx, IfaceId, NodeId, Payload, Sim, TimerToken, Topology,
    TopologyChange,
};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

mod counting_alloc;
use counting_alloc::ALLOCS;

/// `audit_state` calls made so far, over every wrapped agent.
static READS: AtomicU64 = AtomicU64::new(0);

/// `A`, with its `audit_state` reads counted. Every other hook forwards,
/// the downcast included, so `ExpressHost::schedule` still finds the host.
struct Counted<A>(A);

impl<A: Agent> Agent for Counted<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.on_start(ctx)
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: netsim::stats::TrafficClass) {
        self.0.on_packet(ctx, iface, bytes, class)
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.0.on_timer(ctx, token)
    }
    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        self.0.on_link_change(ctx, iface, up)
    }
    fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
        self.0.on_route_change(ctx)
    }
    fn on_topology_change(&mut self, ctx: &mut Ctx<'_>, change: TopologyChange) {
        self.0.on_topology_change(ctx, change)
    }
    fn audit_state(&self, topo: &Topology, node: NodeId) -> Option<AuditNodeState> {
        READS.fetch_add(1, Ordering::Relaxed);
        self.0.audit_state(topo, node)
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// The tree, its 1 024 members joined and the source sending, audited or
/// not; and the link to flap, a depth-8 router's uplink.
fn joined_tree(audited: bool) -> (Sim, netsim::LinkId) {
    // 2 047 routers in a binary tree of depth 10, one member host under each
    // of the 1 024 leaves, the source on the root: 3 072 nodes.
    let g = topogen::kary_tree(2, 10, LinkSpec::default());
    let src = g.hosts[0];
    let chan = Channel::new(g.topo.ip(src), 1).unwrap();
    let mut sim = Sim::new(g.topo.clone(), 1);
    if audited {
        // Bare joins advertise 0↔nonzero upstream, not exact counts:
        // nothing here converges counts, so A3 stays off.
        let cfg = AuditConfig::default().disable(netsim::AuditCheck::CountConvergence);
        sim.add_trace_sink(Box::new(Auditor::new(cfg)));
    }
    let rcfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };
    for &r in &g.routers {
        sim.set_agent(r, Box::new(Counted(EcmpRouter::new(rcfg))));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(Counted(ExpressHost::new())));
    }
    for (i, &h) in g.hosts[1..].iter().enumerate() {
        ExpressHost::schedule(&mut sim, h, SimTime(1_000 + i as u64 * 97), HostAction::Subscribe { channel: chan, key: None });
    }
    ExpressHost::schedule(&mut sim, src, at_ms(200), HostAction::SendData { channel: chan, payload_len: 100 });
    sim.run_until(at_ms(400));
    sim.audit_checkpoint();
    // Routers are numbered by level: depth 8 is routers[255..511], and
    // interface 0 of one is the link to its depth-7 parent.
    let link = g.topo.link_of(g.routers[300], IfaceId(0)).unwrap();
    (sim, link)
}

/// Flap `link` (down at 500 ms, up at 1 500 ms) and run to just past the
/// link-up: the four refreshes that bracket the two transitions and the
/// down period between them. Returns the `audit_state` reads and the
/// allocations over that stretch.
fn flap(sim: &mut Sim, link: netsim::LinkId) -> (u64, u64) {
    sim.schedule_link_change(at_ms(500), link, false);
    sim.schedule_link_change(at_ms(1_500), link, true);
    sim.run_until(at_ms(499));
    let (reads0, allocs0) = (READS.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    sim.run_until(at_ms(1_500));
    (READS.load(Ordering::Relaxed) - reads0, ALLOCS.load(Ordering::Relaxed) - allocs0)
}

#[test]
fn an_audited_flap_reads_the_cut_subtree_and_the_link_not_the_tree() {
    let (mut plain, link) = joined_tree(false);
    let (_, plain_allocs) = flap(&mut plain, link);
    let (mut sim, link) = joined_tree(true);
    let nodes = sim.topology().node_count() as u64;
    let (reads, allocs) = flap(&mut sim, link);

    // The cut subtree is the depth-8 router, its 2 children and its 4
    // grandchildren: 7 routers (its 4 member hosts keep their state).
    // Before the link goes down nothing has changed since the checkpoint:
    // 0 reads. After it: the 7 routers of the subtree, which re-home to no
    // upstream (the depth-8 one is an endpoint), and the depth-7 endpoint,
    // which prunes the cut branch — 8. Before it comes back: 0, for the
    // zero Counts the re-homing routers send their old upstreams are turned
    // away (no route to the source) and change nothing. After it: the two
    // endpoints — 2; the subtree waits out its re-home hysteresis and
    // re-joins later, read by the refresh after that.
    let subtree = 7;
    let dirty = (subtree + 1) + 2;
    // Debug builds also take the full reference sweep at every refresh and
    // check the truth against it (see `Sim::audit_snapshot`).
    let reference = if cfg!(debug_assertions) { 4 * nodes } else { 0 };
    assert_eq!(reads, dirty + reference, "audit_state reads over the flap's four refreshes");

    // What auditing the flap allocates beyond the flap itself (which
    // re-evaluates every router's channels, ≈ 4 100 allocations): those 10
    // reports and their diffs into the auditor's truth, 59 allocations.
    // The four sweeps of the whole tree this replaces allocated ≈ 7 200
    // times each. Debug builds add a reference sweep and a copy of the truth
    // to every refresh, so the pin holds in release builds
    // (`cargo test --release`).
    const AUDIT_ALLOCS_PER_FLAP: u64 = 100;
    if !cfg!(debug_assertions) {
        assert!(
            allocs - plain_allocs <= AUDIT_ALLOCS_PER_FLAP,
            "auditing the flap allocated {} times ({allocs} audited − {plain_allocs} plain)",
            allocs - plain_allocs
        );
    }

    sim.run_until(at_ms(8_000));
    sim.audit_checkpoint();
    let auditor = extract_auditor(sim.finish_trace().expect("trace enabled")).expect("auditor attached");
    assert!(auditor.is_clean(), "{}", auditor.report().to_text());

    // With the auditor gone, a flap reads nothing at all.
    let reads0 = READS.load(Ordering::Relaxed);
    sim.schedule_link_change(at_ms(9_000), link, false);
    sim.schedule_link_change(at_ms(9_500), link, true);
    sim.run_until(at_ms(10_000));
    assert_eq!(READS.load(Ordering::Relaxed), reads0, "a flap after finish_trace reads no audit state");
}
