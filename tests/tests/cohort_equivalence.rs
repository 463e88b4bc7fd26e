//! Cohort-equivalence property pin: batched fan-out dispatch must be
//! observationally identical to the reference one-event-at-a-time drain.
//!
//! The engine's deferred fan-out replaces k same-timestamp `Arrival`s with
//! one compact `Fanout` event that expands at pop time (see
//! `docs/INTERNALS.md`, "Cohort batching & deferred fan-out"). The claim is
//! that this is purely a representation change: every delivery happens at
//! the same simulated time, in the same order, with the same RNG stream and
//! the same observable output. These tests make the claim falsifiable the
//! same way the PR 4 `queue_*` wheel tests pin the calendar queue against a
//! `BinaryHeap` reference: run randomized scenarios through both modes
//! (`Sim::set_fanout_batching(true|false)`) and demand byte-identical
//! traces and identical stats.
//!
//! `peak_queue_depth` is deliberately **excluded** from the comparison: the
//! entry count in the queue is the one figure deferral legitimately changes
//! (k arrivals collapse into one cohort entry — that collapse is the
//! optimization), and it is pinned separately: exactly by the benchmark's
//! digests (`benchmark/expected/`) and by `data_plane_allocs`.

use express::host::{ExpressHost, HostAction};
use express::packets;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::engine::{Reliability, Tx};
use netsim::faults::FaultPlan;
use netsim::stats::TrafficClass;
use netsim::time::{SimDuration, SimTime};
use netsim::topogen;
use netsim::topology::{LinkSpec, Topology};
use netsim::{Agent, Ctx, IfaceId, LinkId, Payload, Sim, TraceConfig, WheelConfig};
use std::fmt::Write as _;

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// Everything observable about a finished run except queue-entry counts.
fn observe(sim: &Sim, trace: String) -> (String, String) {
    let mut stats = String::new();
    let _ = writeln!(stats, "events_processed {}", sim.events_processed());
    for (k, v) in sim.stats().named_counters() {
        let _ = writeln!(stats, "counter {k} {v}");
    }
    let total = sim.stats().total();
    let _ = writeln!(
        stats,
        "links total data_pkts={} data_bytes={} ctl_pkts={} ctl_bytes={} drops={}",
        total.data_packets, total.data_bytes, total.control_packets, total.control_bytes, total.drops
    );
    (trace, stats)
}

/// An EXPRESS protocol run over a random graph: staggered joins, a data
/// stream, a link flap and a loss burst (the loss burst keeps the *eager*
/// per-endpoint RNG path in play alongside the deferred loss-free one).
fn protocol_run(seed: u64, topo_seed: u64, batch: bool, wheel: WheelConfig) -> (String, String) {
    let g = topogen::random_connected(12, 5, 18, LinkSpec::default(), topo_seed);
    let mut sim = Sim::new_with_wheel(g.topo.clone(), seed, wheel);
    sim.set_fanout_batching(batch);
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(RouterConfig::default())));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    for (i, &h) in g.hosts[1..].iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            h,
            at_ms(1 + 7 * i as u64),
            HostAction::Subscribe { channel: chan, key: None },
        );
    }
    let mut t = 150;
    while t <= 900 {
        ExpressHost::schedule(&mut sim, g.hosts[0], at_ms(t), HostAction::SendData { channel: chan, payload_len: 100 });
        t += 10;
    }
    FaultPlan::new()
        .link_flap(LinkId(2), at_ms(300), at_ms(450))
        .loss_burst(LinkId(5), at_ms(500), 0.4, SimDuration::from_millis(150))
        .apply(&mut sim);
    sim.enable_trace(TraceConfig::default());
    sim.run_until(at_ms(1_000));
    let trace = sim.take_trace().expect("trace enabled").to_jsonl();
    observe(&sim, trace)
}

/// A shared-LAN fan-out: one source host and `n` receivers on one
/// multi-access segment — the deferral-heaviest shape (every send is one
/// `Fanout` covering the whole LAN).
fn lan_run(seed: u64, n: usize, batch: bool) -> (String, String) {
    let mut topo = Topology::new();
    let nodes: Vec<_> = (0..n + 1).map(|_| topo.add_host()).collect();
    topo.add_lan(&nodes, LinkSpec::lan()).unwrap();
    let chan = Channel::new(topo.ip(nodes[0]), 1).unwrap();
    let mut sim = Sim::new(topo, seed);
    sim.set_fanout_batching(batch);
    for &h in &nodes {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    for (i, &h) in nodes[1..].iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            h,
            at_ms(1 + i as u64),
            HostAction::Subscribe { channel: chan, key: None },
        );
    }
    for k in 0..20u64 {
        ExpressHost::schedule(
            &mut sim,
            nodes[0],
            at_ms(100 + 5 * k),
            HostAction::SendData { channel: chan, payload_len: 64 },
        );
    }
    sim.enable_trace(TraceConfig::default());
    sim.run_until(at_ms(300));
    let trace = sim.take_trace().expect("trace enabled").to_jsonl();
    observe(&sim, trace)
}

/// A hub that answers each arriving frame with two `send_fanout`s in one
/// dispatch: the arriving handle out every receiver interface, and a frame
/// of its own out the odd ones — one cohort holding two shared-handle runs.
/// `own_first` sends its own frame first.
struct Hub {
    own: Payload,
    all: u32,
    own_first: bool,
}

impl Agent for Hub {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        if iface == IfaceId(0) {
            let own = |ctx: &mut Ctx<'_>| ctx.send_fanout(self.all & 0xAAAA_AAAA, &self.own, class, Reliability::Datagram);
            if self.own_first {
                own(ctx);
            }
            ctx.send_fanout(self.all, bytes, class, Reliability::Datagram);
            if !self.own_first {
                own(ctx);
            }
        }
    }
}

/// A receiver that counts each frame under the name of its octets and
/// answers it with a zero-delay timer: an event at the delivery's own timestamp, keyed by the
/// receiver — below the hub's remaining cohort members whenever the
/// receiver's id is below the hub's.
struct Nudger;

impl Agent for Nudger {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
        let frame = match &bytes[..] {
            b"forwarded" => "nudger.rx{frame=forwarded}",
            b"hub's own" => "nudger.rx{frame=hub's own}",
            b"second" => "nudger.rx{frame=second}",
            _ => "nudger.rx{frame=other}",
        };
        ctx.count(frame, 1);
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.count("nudger.nudge", 1);
    }
}

/// Sends `frame` out interface 0 on each timer.
struct Feeder {
    frame: Payload,
}

impl Agent for Feeder {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_shared(IfaceId(0), self.frame.clone(), TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
    }
}

/// Interlopers in the middle of shared-handle runs. Receivers below the hub
/// in id order pause the cohort after every one of their deliveries (their
/// timer undercuts the next member), so the re-queued tail starts inside a
/// run whose handle sits further back; receivers above it let the rest of
/// the cohort expand in one go.
fn interloper_run(batch: bool, traced: bool) -> (String, String) {
    const LOW: usize = 5;
    const HIGH: usize = 3;
    let mut topo = Topology::new();
    let low: Vec<_> = (0..LOW).map(|_| topo.add_host()).collect();
    let (hub, src) = (topo.add_router(), topo.add_host());
    let high: Vec<_> = (0..HIGH).map(|_| topo.add_host()).collect();
    topo.connect(src, hub, LinkSpec::default()).unwrap();
    for &h in low.iter().chain(&high) {
        topo.connect(hub, h, LinkSpec::default()).unwrap();
    }
    let mut sim = Sim::new(topo, 1);
    sim.set_fanout_batching(batch);
    let all = ((1u32 << (LOW + HIGH + 1)) - 1) & !1;
    sim.set_agent(hub, Box::new(Hub { own: Payload::from(&b"hub's own"[..]), all, own_first: false }));
    sim.set_agent(src, Box::new(Feeder { frame: Payload::from(&b"forwarded"[..]) }));
    for &h in low.iter().chain(&high) {
        sim.set_agent(h, Box::new(Nudger));
    }
    for wave in 1..=3 {
        sim.schedule_timer_at(src, at_ms(wave), 0);
    }
    if traced {
        sim.enable_trace(TraceConfig::default());
    }
    sim.run();
    let trace = match traced {
        true => sim.take_trace().expect("trace enabled").to_jsonl(),
        false => String::new(),
    };
    observe(&sim, trace)
}

/// Two hubs, each fed its own frame by its own feeder at the same instant,
/// so the feeders' sends share a cohort and so do the hubs' answers one hop
/// on: the first hub forwards its frame and then sends the hubs' shared own
/// frame, the second sends that shared frame and then forwards its own —
/// three frames and two causal chains in one cohort, and the shared frame's
/// two runs meet with only the chain telling them apart. Each hub's low
/// receivers sit below both hubs in id order and pause the cohort after
/// every delivery, inside its runs.
fn two_hub_run(batch: bool) -> (String, String) {
    const LOW: usize = 3;
    const HIGH: usize = 2;
    let mut topo = Topology::new();
    let low: Vec<Vec<_>> = (0..2).map(|_| (0..LOW).map(|_| topo.add_host()).collect()).collect();
    let hubs = [topo.add_router(), topo.add_router()];
    let feeders = [topo.add_host(), topo.add_host()];
    let high: Vec<Vec<_>> = (0..2).map(|_| (0..HIGH).map(|_| topo.add_host()).collect()).collect();
    for h in 0..2 {
        topo.connect(feeders[h], hubs[h], LinkSpec::default()).unwrap();
        for &r in low[h].iter().chain(&high[h]) {
            topo.connect(hubs[h], r, LinkSpec::default()).unwrap();
        }
    }
    let mut sim = Sim::new(topo, 1);
    sim.set_fanout_batching(batch);
    let all = ((1u32 << (LOW + HIGH + 1)) - 1) & !1;
    let own = Payload::from(&b"hub's own"[..]);
    for (h, frame) in [&b"forwarded"[..], b"second"].into_iter().enumerate() {
        sim.set_agent(hubs[h], Box::new(Hub { own: own.clone(), all, own_first: h == 1 }));
        sim.set_agent(feeders[h], Box::new(Feeder { frame: Payload::from(frame) }));
        for &r in low[h].iter().chain(&high[h]) {
            sim.set_agent(r, Box::new(Nudger));
        }
        for wave in 1..=3 {
            sim.schedule_timer_at(feeders[h], at_ms(wave), 0);
        }
    }
    sim.enable_trace(TraceConfig::default());
    sim.run();
    let trace = sim.take_trace().expect("trace enabled").to_jsonl();
    observe(&sim, trace)
}

/// §5.3's binary tree, depth 10, forwarding on static routes alone: every
/// router's FIB holds the channel on all interfaces but its upstream one, a
/// `Feeder` at the root host sends five frames, and a `Nudger` at every
/// other host answers each delivery — a multi-hop static-FIB fan-out with
/// no control plane.
fn static_tree_run(batch: bool) -> (String, String) {
    let g = topogen::kary_tree(2, 10, LinkSpec::default());
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    let mut sim = Sim::new(g.topo, 7);
    sim.set_fanout_batching(batch);
    let cfg = RouterConfig { neighbor_probe: None, boot_query: false, ..RouterConfig::default() };
    for &r in &g.routers {
        let oifs = ((1u32 << sim.topology().iface_count(r)) - 1) & !1;
        let mut router = EcmpRouter::new(cfg);
        router.install_static_route(FibEntry::new(chan, 0, oifs).unwrap());
        sim.set_agent(r, Box::new(router));
    }
    sim.set_agent(g.hosts[0], Box::new(Feeder { frame: packets::channel_data(chan, 100, 64).into() }));
    for &h in &g.hosts[1..] {
        sim.set_agent(h, Box::new(Nudger));
    }
    for k in 1..=5 {
        sim.schedule_timer_at(g.hosts[0], at_ms(k), 0);
    }
    sim.enable_trace(TraceConfig::default());
    sim.run_until(at_ms(30));
    let trace = sim.take_trace().expect("trace enabled").to_jsonl();
    observe(&sim, trace)
}

#[test]
fn interloper_inside_a_shared_handle_run_delivers_the_right_frames() {
    for traced in [true, false] {
        let reference = interloper_run(false, traced);
        for want in [
            "counter nudger.rx{frame=forwarded} 24\n",
            "counter nudger.rx{frame=hub's own} 12\n",
            "counter nudger.nudge 36\n",
        ] {
            assert!(reference.1.contains(want), "no {want:?} in\n{}", reference.1);
        }
        assert!(!reference.1.contains("frame=other"), "a mangled frame in\n{}", reference.1);
        let got = interloper_run(true, traced);
        assert_eq!(got.0, reference.0, "trace diverged (traced {traced})");
        assert_eq!(got.1, reference.1, "stats diverged (traced {traced})");
    }
}

#[test]
fn a_cohort_of_three_frames_and_two_chains_pauses_inside_its_runs() {
    let reference = two_hub_run(false);
    for want in [
        "counter nudger.rx{frame=forwarded} 15\n",
        "counter nudger.rx{frame=second} 15\n",
        "counter nudger.rx{frame=hub's own} 18\n",
        "counter nudger.nudge 48\n",
    ] {
        assert!(reference.1.contains(want), "no {want:?} in\n{}", reference.1);
    }
    assert!(!reference.1.contains("frame=other"), "a mangled frame in\n{}", reference.1);
    let got = two_hub_run(true);
    assert_eq!(got.0, reference.0, "trace diverged");
    assert_eq!(got.1, reference.1, "stats diverged");
}

#[test]
fn batched_protocol_runs_match_reference_drain() {
    // Randomized over (rng seed, topology seed): same scenario through the
    // batched engine and the reference per-event drain.
    for (seed, topo_seed) in [(1u64, 101u64), (2, 202), (3, 303), (4, 404), (5, 505)] {
        let (trace_b, stats_b) = protocol_run(seed, topo_seed, true, WheelConfig::default());
        let (trace_r, stats_r) = protocol_run(seed, topo_seed, false, WheelConfig::default());
        assert_eq!(
            trace_b, trace_r,
            "trace diverged between batched and reference drain (seed {seed}, topo {topo_seed})"
        );
        assert_eq!(
            stats_b, stats_r,
            "stats diverged between batched and reference drain (seed {seed}, topo {topo_seed})"
        );
    }
}

#[test]
fn batched_lan_fanout_matches_reference_drain() {
    for (seed, n) in [(7u64, 3usize), (8, 17), (9, 64)] {
        let (trace_b, stats_b) = lan_run(seed, n, true);
        let (trace_r, stats_r) = lan_run(seed, n, false);
        assert_eq!(trace_b, trace_r, "trace diverged (seed {seed}, n {n})");
        assert_eq!(stats_b, stats_r, "stats diverged (seed {seed}, n {n})");
        assert!(
            stats_b.contains("host.data_rx"),
            "scenario delivered nothing — not exercising the fan-out path"
        );
    }
}

#[test]
fn batching_is_wheel_granularity_independent() {
    // The deferral must commute with wheel geometry: batched runs on a fine
    // and a coarse wheel produce the same bytes as each other and as the
    // reference drain.
    let fine = WheelConfig::default();
    let coarse = WheelConfig { granularity_us: 1024, slots: 512 };
    let (trace_f, stats_f) = protocol_run(11, 707, true, fine);
    let (trace_c, stats_c) = protocol_run(11, 707, true, coarse);
    let (trace_r, stats_r) = protocol_run(11, 707, false, WheelConfig::default());
    assert_eq!(trace_f, trace_c, "batched trace depends on wheel granularity");
    assert_eq!(stats_f, stats_c, "batched stats depend on wheel granularity");
    assert_eq!(trace_f, trace_r, "batched trace diverged from reference drain");
    assert_eq!(stats_f, stats_r, "batched stats diverged from reference drain");
}

#[test]
fn static_fib_tree_batched_matches_reference_drain() {
    // §5.3's tree on static routes: the five frames reach all 1 024 sinks,
    // and the batched drain delivers them as the eager one does.
    let (trace_b, stats_b) = static_tree_run(true);
    let (trace_r, stats_r) = static_tree_run(false);
    assert!(stats_b.contains("counter nudger.rx{frame=other} 5120\n"), "no 5 120 deliveries in\n{stats_b}");
    assert_eq!(trace_b, trace_r, "static tree trace diverged between batched and reference drain");
    assert_eq!(stats_b, stats_r, "static tree stats diverged between batched and reference drain");
}
