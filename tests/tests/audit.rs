//! The online auditor, end to end: every check family (A1–A4) has both a
//! passing path and a firing path here.
//!
//! * Passing: the golden fault-storm scenario (the determinism pin's
//!   recipe) replayed with an auditor attached must come back clean.
//! * Firing: a deliberately corrupted `EcmpRouter` FIB trips A1, a
//!   duplicating forwarder trips both halves of A2, an `EcmpRouter` whose
//!   [`Tamper`] skews its advertised count trips A3, and a DVMRP router
//!   whose `Tamper` drops its data trips A4.
//!
//! Together with the negative runs, the suite proves the auditor's checks
//! are live — a checker that can never fire verifies nothing.

use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use express_wire::fib::FibEntry;
use mcast_baselines::dvmrp::DvmrpRouter;
use mcast_baselines::igmp::{GroupHost, GroupHostAction, IgmpVersion};
use netsim::faults::FaultPlan;
use netsim::stats::TrafficClass;
use netsim::time::{SimDuration, SimTime};
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{
    extract_auditor, Agent, AuditCheck, AuditConfig, AuditNodeState, Auditor, Ctx, IfaceId, LinkId,
    NodeId, Payload, RecoveryBounds, Sim, Tee, TimerToken, Topology, TopologyChange, TraceBuffer, TraceConfig,
};

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// Finalize the capture and pull the auditor back out.
fn finish_audit(sim: &mut Sim) -> Auditor {
    extract_auditor(sim.finish_trace().expect("trace enabled")).expect("auditor attached")
}

// ---- passing path: the golden fault-storm recipe, audited ---------------

/// The determinism pin's fault-storm scenario (same topology, same seed,
/// same fault plan — see `determinism_golden.rs`) with an auditor riding
/// beside the trace ring: every check that can run online must pass.
#[test]
fn golden_fault_storm_replays_audit_clean() {
    let g = topogen::random_connected(30, 10, 40, LinkSpec::default(), 77);
    let mut sim = Sim::new(g.topo.clone(), 4242);
    let cfg = RouterConfig::default();
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(cfg)));
        sim.set_restart_factory(r, Box::new(move || Box::new(EcmpRouter::new(cfg))));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    for (i, &h) in g.hosts[1..17].iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            h,
            at_ms(1 + 30 * i as u64),
            HostAction::Subscribe { channel: chan, key: None },
        );
    }
    let mut t = 100;
    while t <= 2_400 {
        ExpressHost::schedule(&mut sim, g.hosts[0], at_ms(t), HostAction::SendData { channel: chan, payload_len: 100 });
        t += 20;
    }
    // Bare EXPRESS only signals 0↔nonzero subscriber transitions upstream
    // (§3.2); exact counts converge only when a counting round runs. Issue
    // a source CountQuery after the storm — subscriberId replies refresh
    // tree state at every hop, so one round converges the whole chain
    // before the A3 checkpoint.
    ExpressHost::schedule(
        &mut sim,
        g.hosts[0],
        at_ms(4_000),
        HostAction::CountQuery {
            channel: chan,
            count_id: CountId::SUBSCRIBERS,
            timeout: SimDuration::from_millis(500),
        },
    );
    FaultPlan::new()
        .link_flap(LinkId(3), at_ms(600), at_ms(900))
        .link_flap(LinkId(7), at_ms(750), at_ms(1_100))
        .crash_restart(g.routers[5], at_ms(1_000), at_ms(1_400))
        .loss_burst(LinkId(11), at_ms(1_800), 0.3, SimDuration::from_millis(200))
        .apply(&mut sim);

    sim.enable_trace(TraceConfig::default());
    sim.add_trace_sink(Box::new(Auditor::default()));
    sim.run_until(at_ms(2_600));
    // Settle past the last fault plus one proactive τ before the counting
    // checkpoint: A3 is a quiescence check, not a mid-storm one.
    sim.run_until(at_ms(5_000));
    sim.audit_checkpoint();

    let auditor = finish_audit(&mut sim);
    let report = auditor.report();
    assert!(
        report.clean,
        "golden fault storm must be audit-clean, got:\n{}",
        report.to_text()
    );
    assert!(report.health.data_roots > 0, "storm should carry data");
    assert!(report.snapshots > 0, "checkpoints + fault refreshes should snapshot");
}

// ---- a hostile wrapper for the negative runs -----------------------------

/// An agent `A` that misbehaves on demand: otherwise it forwards every
/// call to `A`. Its downcast is its own, so `agent_as::<Tamper<A>>` reaches
/// the switches mid-run.
struct Tamper<A> {
    inner: A,
    /// Added to every advertised count `audit_state` reports (A3).
    skew_advertised: u64,
    /// Drop inbound data before `A` sees it, while `A` stays joined (A4).
    drop_data: bool,
}

impl<A> Tamper<A> {
    fn new(inner: A) -> Self {
        Tamper { inner, skew_advertised: 0, drop_data: false }
    }
}

impl<A: Agent> Agent for Tamper<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx)
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        if !(self.drop_data && class == TrafficClass::Data) {
            self.inner.on_packet(ctx, iface, bytes, class)
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.inner.on_timer(ctx, token)
    }
    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        self.inner.on_link_change(ctx, iface, up)
    }
    fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_route_change(ctx)
    }
    fn on_topology_change(&mut self, ctx: &mut Ctx<'_>, change: TopologyChange) {
        self.inner.on_topology_change(ctx, change)
    }
    fn audit_state(&self, topo: &Topology, node: NodeId) -> Option<AuditNodeState> {
        let mut state = self.inner.audit_state(topo, node)?;
        for route in &mut state.routes {
            route.advertised = route.advertised.map(|n| n + self.skew_advertised);
        }
        Some(state)
    }
}

// ---- shared EXPRESS fixture for the negative runs -----------------------

/// src — r0 — r1 — rcv, plus a bystander host `b` on r1's third
/// interface: the off-tree destination the corrupted FIB leaks to.
struct Line {
    sim: Sim,
    r0: NodeId,
    r1: NodeId,
    src: NodeId,
    rcv: NodeId,
    chan: Channel,
}

/// The line with `r0` running `r0_agent`.
fn express_line(r0_agent: impl Agent) -> Line {
    let mut t = Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let rcv = t.add_host();
    t.connect(rcv, r1, LinkSpec::default()).unwrap();
    let b = t.add_host();
    t.connect(b, r1, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 11);
    sim.set_agent(r0, Box::new(r0_agent));
    sim.set_agent(r1, Box::new(EcmpRouter::new(RouterConfig::default())));
    for h in [src, rcv, b] {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    ExpressHost::schedule(&mut sim, rcv, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    Line { sim, r0, r1, src, rcv, chan }
}

fn stream(sim: &mut Sim, src: NodeId, chan: Channel, from_ms: u64, to_ms: u64) {
    let mut t = from_ms;
    while t <= to_ms {
        ExpressHost::schedule(sim, src, at_ms(t), HostAction::SendData { channel: chan, payload_len: 64 });
        t += 20;
    }
}

// ---- A1 firing path -----------------------------------------------------

/// How a test hands its auditor to the simulation. However it gets into the
/// sink chain, the engine must find it and keep its truth current.
#[derive(Clone, Copy)]
enum Attach {
    /// `Sim::add_trace_sink`, beside whatever capture runs.
    AddSink,
    /// `Sim::enable_trace_sink`, as the whole chain.
    EnableSink,
    /// `Sim::enable_trace_sink` with a tee of a ring and the auditor.
    Tee,
}

fn attach(sim: &mut Sim, how: Attach, auditor: Auditor) {
    match how {
        Attach::AddSink => sim.add_trace_sink(Box::new(auditor)),
        Attach::EnableSink => sim.enable_trace_sink(TraceConfig::default(), Box::new(auditor)),
        Attach::Tee => {
            let ring = TraceBuffer::new(TraceConfig::default());
            sim.enable_trace_sink(TraceConfig::default(), Box::new(Tee::from_sinks(vec![Box::new(ring), Box::new(auditor)])));
        }
    }
}

/// Corrupting r1's FIB with an extra outgoing interface (toward the
/// bystander) diverges the data path from the router's own channel truth;
/// the next checkpoint must flag the off-tree transmissions.
fn corrupted_fib_trips_a1(how: Attach) {
    let mut l = express_line(EcmpRouter::new(RouterConfig::default()));
    attach(&mut l.sim, how, Auditor::default());
    stream(&mut l.sim, l.src, l.chan, 500, 580);
    // The healthy tree passes this checkpoint; only post-corruption
    // intervals may produce violations below.
    l.sim.run_until(at_ms(700));
    l.sim.audit_checkpoint();

    // r1's interfaces: 0 = toward r0 (RPF), 1 = rcv, 2 = bystander. The
    // corrupt entry forwards to both hosts; channel soft state (and so
    // `audit_state` truth) still says only the subscriber's interface.
    let entry = FibEntry::new(l.chan, 0, 0b110).unwrap();
    l.sim
        .agent_as::<EcmpRouter>(l.r1)
        .expect("r1 is an EcmpRouter")
        .install_static_route(entry);
    stream(&mut l.sim, l.src, l.chan, 800, 880);
    l.sim.run_until(at_ms(1_000));
    l.sim.audit_checkpoint();

    let auditor = finish_audit(&mut l.sim);
    assert_eq!(auditor.snapshots(), 2, "both checkpoints reach the auditor");
    let a1: Vec<_> = auditor
        .violations()
        .iter()
        .filter(|v| v.check == AuditCheck::OnTree)
        .collect();
    assert!(!a1.is_empty(), "corrupted FIB must trip A1: {:?}", auditor.report().to_text());
    let v = a1[0];
    assert!(v.summary.contains(&format!("n{}", l.r1.0)), "breach localized to r1: {}", v.summary);
    assert!(v.offending.is_some(), "A1 carries the offending event");
    assert!(!v.window.is_empty(), "A1 carries the causal window");
}

#[test]
fn corrupted_fib_trips_on_tree_check() {
    corrupted_fib_trips_a1(Attach::AddSink);
}

#[test]
fn corrupted_fib_trips_on_tree_check_with_the_auditor_as_the_whole_chain() {
    corrupted_fib_trips_a1(Attach::EnableSink);
}

#[test]
fn corrupted_fib_trips_on_tree_check_with_the_auditor_in_a_tee() {
    corrupted_fib_trips_a1(Attach::Tee);
}

// ---- the audit truth follows what a router does -------------------------

/// A router that lost its upstream takes it back while refusing a join: the
/// only thing the join changes is where the router's upstream points, and
/// for the router next to the source that is the root of the channel's
/// count truth. The next refresh must re-read it — debug builds compare the
/// auditor's truth with a full sweep there.
#[test]
fn a_refused_join_that_restores_the_upstream_is_re_read() {
    let mut t = Topology::new();
    let r0 = t.add_router();
    let src = t.add_host();
    let uplink = t.connect(src, r0, LinkSpec::default()).unwrap();
    let (a, b) = (t.add_host(), t.add_host());
    t.connect(a, r0, LinkSpec::default()).unwrap();
    t.connect(b, r0, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 5);
    sim.set_agent(r0, Box::new(EcmpRouter::new(RouterConfig::default())));
    for h in [src, a, b] {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    sim.add_trace_sink(Box::new(Auditor::default()));
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    ExpressHost::schedule(&mut sim, src, at_ms(1), HostAction::InstallKey { channel: chan, key: 7 });
    ExpressHost::schedule(&mut sim, a, at_ms(2), HostAction::Subscribe { channel: chan, key: Some(7) });
    // The uplink flaps: r0 is orphaned, and the way back waits out the
    // re-home hysteresis (2 s) or the re-join back-off (500 ms).
    sim.schedule_link_change(at_ms(100), uplink, false);
    sim.schedule_link_change(at_ms(200), uplink, true);
    // Inside that wait, a join with the wrong key: r0 finds its upstream
    // again on the way to refusing it.
    ExpressHost::schedule(&mut sim, b, at_ms(300), HostAction::Subscribe { channel: chan, key: Some(8) });
    sim.run_until(at_ms(350));
    sim.audit_checkpoint();

    assert!(!sim.agent_as::<ExpressHost>(b).unwrap().is_subscribed(chan), "the wrong key is refused");
    let router = sim.agent_as::<EcmpRouter>(r0).unwrap();
    assert_eq!(router.upstream_of(chan), Some(chan.source), "the refused join restored the upstream");
    assert_eq!(router.counters().rehomes, 1, "only the orphaning re-homed");
}

/// A mid-run `set_agent` changes what the node reports without any
/// dispatch of the old agent saying so: the engine marks the node itself.
#[test]
fn a_replaced_agent_is_re_read() {
    let mut l = express_line(EcmpRouter::new(RouterConfig::default()));
    l.sim.add_trace_sink(Box::new(Auditor::default()));
    l.sim.run_until(at_ms(400));
    l.sim.audit_checkpoint();
    // r1 forgets the channel: a fresh router reports no route.
    l.sim.set_agent(l.r1, Box::new(EcmpRouter::new(RouterConfig::default())));
    l.sim.run_until(at_ms(410));
    l.sim.audit_checkpoint();
    assert!(!l.sim.agent_as::<EcmpRouter>(l.r1).unwrap().on_tree(l.chan));
}

// ---- A3 firing path -----------------------------------------------------

/// Skewing r0's advertised count away from its validated downstream sum
/// must trip count convergence at the next quiescent checkpoint.
#[test]
fn skewed_advertised_count_trips_count_convergence() {
    let mut l = express_line(Tamper::new(EcmpRouter::new(RouterConfig::default())));
    l.sim.add_trace_sink(Box::new(Auditor::default()));
    l.sim.run_until(at_ms(400));
    l.sim.audit_checkpoint();
    l.sim.agent_as::<Tamper<EcmpRouter>>(l.r0).expect("r0 is a tampered EcmpRouter").skew_advertised = 5;
    l.sim.run_until(at_ms(500));
    l.sim.audit_checkpoint();
    let auditor = finish_audit(&mut l.sim);
    assert!(
        auditor.violations().iter().any(|v| v.check == AuditCheck::CountConvergence),
        "skewed advertised count must trip A3: {}",
        auditor.report().to_text()
    );
    let _ = l.rcv;
}

// ---- A2 firing path -----------------------------------------------------

/// A forwarder that transmits every data frame twice on the same link:
/// the same causal chain crosses one `(node, link)` twice (loop half) and
/// the receiver counts two deliveries of one chain (dup half).
struct DupForwarder;

impl Agent for DupForwarder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        if class != TrafficClass::Data || iface != IfaceId(0) {
            return;
        }
        for _ in 0..2 {
            ctx.send(IfaceId(1), bytes, TrafficClass::Data, netsim::engine::Reliability::Datagram, netsim::engine::Tx::AllOnLink);
        }
    }
}

/// Source: one data frame per timer fire.
struct PulseSource;

impl Agent for PulseSource {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send(IfaceId(0), &[0u8; 32], TrafficClass::Data, netsim::engine::Reliability::Datagram, netsim::engine::Tx::AllOnLink);
    }
}

/// Receiver: one watched-counter bump per arriving data frame.
struct CountingSink;

impl Agent for CountingSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, class: TrafficClass) {
        if class == TrafficClass::Data {
            ctx.count("host.data_rx", 1);
        }
    }
}

#[test]
fn duplicating_forwarder_trips_no_dup_no_loop() {
    let mut t = Topology::new();
    let fwd = t.add_router();
    let src = t.add_host();
    t.connect(fwd, src, LinkSpec::default()).unwrap();
    let rcv = t.add_host();
    t.connect(fwd, rcv, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 3);
    sim.set_agent(fwd, Box::new(DupForwarder));
    sim.set_agent(src, Box::new(PulseSource));
    sim.set_agent(rcv, Box::new(CountingSink));
    sim.add_trace_sink(Box::new(Auditor::default()));
    sim.schedule_timer_at(src, at_ms(10), 1);
    sim.run_until(at_ms(100));

    let auditor = finish_audit(&mut sim);
    let summaries: Vec<&str> = auditor
        .violations()
        .iter()
        .filter(|v| v.check == AuditCheck::NoDupNoLoop)
        .map(|v| v.summary.as_str())
        .collect();
    assert!(
        summaries.iter().any(|s| s.contains("forwarding loop")),
        "double-send on one link must trip the loop half: {summaries:?}"
    );
    assert!(
        summaries.iter().any(|s| s.contains("duplicate delivery")),
        "two deliveries of one chain must trip the dup half: {summaries:?}"
    );
}

/// A forwarder that sends each data frame from interface 0 out both
/// interfaces 1 and 2: two links to one receiver make two deliveries of one
/// chain.
struct SplitForwarder;

impl Agent for SplitForwarder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        if class == TrafficClass::Data && iface == IfaceId(0) {
            for out in [IfaceId(1), IfaceId(2)] {
                ctx.send(out, bytes, TrafficClass::Data, netsim::engine::Reliability::Datagram, netsim::engine::Tx::AllOnLink);
            }
        }
    }
}

/// A checkpoint retires only the chains with nothing queued: a chain
/// whose second copy is still on a slow link when it runs keeps what it
/// has delivered, and the copy's arrival after it is a duplicate.
#[test]
fn a_chain_in_flight_at_a_checkpoint_keeps_its_a2_state() {
    let mut t = Topology::new();
    let fwd = t.add_router();
    let src = t.add_host();
    t.connect(fwd, src, LinkSpec::default()).unwrap();
    let rcv = t.add_host();
    t.connect(fwd, rcv, LinkSpec::default()).unwrap();
    t.connect(fwd, rcv, LinkSpec { latency: SimDuration::from_millis(100), ..LinkSpec::default() }).unwrap();
    let mut sim = Sim::new(t, 3);
    sim.set_agent(fwd, Box::new(SplitForwarder));
    sim.set_agent(src, Box::new(PulseSource));
    sim.set_agent(rcv, Box::new(CountingSink));
    sim.add_trace_sink(Box::new(Auditor::default()));
    // Two pulses: the first chain is over by the checkpoint, the second has
    // delivered once and has its slow copy queued.
    sim.schedule_timer_at(src, at_ms(10), 1);
    sim.schedule_timer_at(src, at_ms(200), 1);
    sim.run_until(at_ms(120));
    sim.audit_checkpoint();
    sim.run_until(at_ms(250));
    sim.audit_checkpoint();
    assert_eq!(sim.stats().named("host.data_rx"), 3, "the second copy of the second pulse is on its way");
    sim.run_until(at_ms(400));

    let auditor = finish_audit(&mut sim);
    let dups: Vec<Option<u64>> = auditor
        .violations()
        .iter()
        .filter(|v| v.check == AuditCheck::NoDupNoLoop)
        .map(|v| v.root.map(|r| r.0))
        .collect();
    assert_eq!(dups.len(), 2, "both chains delivered twice: {:?}", auditor.report().to_text());
    assert_ne!(dups[0], dups[1]);
}

// ---- A4 firing path -----------------------------------------------------

/// A DVMRP router that drops the stream never delivers to the joined
/// member; with recovery bounds configured the auditor must flag the
/// silent stream.
#[test]
fn mis_pruning_dvmrp_trips_recovery_bounds() {
    let mut t = Topology::new();
    let r = t.add_router();
    let src = t.add_host();
    t.connect(src, r, LinkSpec::default()).unwrap();
    let member = t.add_host();
    t.connect(member, r, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 9);
    let mut router = Tamper::new(DvmrpRouter::new());
    router.drop_data = true;
    sim.set_agent(r, Box::new(router));
    sim.set_agent(src, Box::new(GroupHost::new(IgmpVersion::V2)));
    sim.set_agent(member, Box::new(GroupHost::new(IgmpVersion::V2)));
    let group = express_wire::addr::Ipv4Addr::new(224, 5, 5, 5);
    GroupHost::schedule(&mut sim, member, at_ms(1), GroupHostAction::Join { group, sources: vec![] });
    let mut t_ms = 100;
    while t_ms <= 900 {
        GroupHost::schedule(&mut sim, src, at_ms(t_ms), GroupHostAction::SendData { group, payload_len: 64 });
        t_ms += 20;
    }
    sim.add_trace_sink(Box::new(Auditor::new(AuditConfig::default().recovery_bounds(
        RecoveryBounds {
            max_reconvergence: SimDuration::from_millis(200),
            max_gap: SimDuration::from_millis(200),
            stream_start: at_ms(100),
            stream_end: at_ms(900),
        },
    ))));
    sim.run_until(at_ms(1_000));

    let auditor = finish_audit(&mut sim);
    assert!(
        auditor.violations().iter().any(|v| v.check == AuditCheck::RecoveryBounds),
        "mis-pruning DVMRP must trip A4: {}",
        auditor.report().to_text()
    );
}

// ---- sampling refusal ---------------------------------------------------

/// The auditor must refuse (loudly, at attach time) to run on a causally
/// sampled stream: verdicts from a partial stream would be garbage.
#[test]
#[should_panic(expected = "sample")]
fn auditor_refuses_sampled_capture() {
    let mut t = Topology::new();
    let r = t.add_router();
    let h = t.add_host();
    t.connect(h, r, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 1);
    sim.enable_trace(TraceConfig::default().sample_one_in(8));
    sim.add_trace_sink(Box::new(Auditor::default()));
}
