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

/// How to partition the topology before the run starts.
enum Partition {
    /// `Sim::set_shards` — the balanced automatic partitioner.
    Shards(usize),
    /// `Sim::set_shard_bounds` — explicit fenceposts, for the randomized
    /// partition property test.
    Bounds(Vec<u32>),
}

impl Partition {
    fn apply(&self, sim: &mut Sim) {
        match self {
            Partition::Shards(s) => sim.set_shards(*s),
            Partition::Bounds(b) => sim.set_shard_bounds(b),
        }
    }
}

/// SplitMix64 step — the test's own tiny RNG for drawing random partitions,
/// independent of the simulator's seeded streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw a random valid fencepost array `[0, …, n]` with 2–5 shards.
fn random_bounds(n: u32, state: &mut u64) -> Vec<u32> {
    let shards = 2 + (splitmix(state) % 4) as u32;
    let mut cuts = std::collections::BTreeSet::new();
    while (cuts.len() as u32) < shards - 1 {
        cuts.insert(1 + (splitmix(state) % u64::from(n - 1)) as u32);
    }
    let mut bounds = vec![0];
    bounds.extend(cuts);
    bounds.push(n);
    bounds
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
fn protocol_run(
    seed: u64,
    topo_seed: u64,
    batch: bool,
    wheel: WheelConfig,
    partition: &Partition,
) -> (String, String) {
    let g = topogen::random_connected(12, 5, 18, LinkSpec::default(), topo_seed);
    let mut sim = Sim::new_with_wheel(g.topo.clone(), seed, wheel);
    partition.apply(&mut sim);
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
fn lan_run(seed: u64, n: usize, batch: bool, shards: usize) -> (String, String) {
    let mut topo = Topology::new();
    let nodes: Vec<_> = (0..n + 1).map(|_| topo.add_host()).collect();
    topo.add_lan(&nodes, LinkSpec::lan()).unwrap();
    let chan = Channel::new(topo.ip(nodes[0]), 1).unwrap();
    let mut sim = Sim::new(topo, seed);
    sim.set_shards(shards);
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
fn interloper_run(batch: bool, shards: usize, traced: bool) -> (String, String) {
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
    sim.set_shards(shards);
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
fn two_hub_run(batch: bool, shards: usize) -> (String, String) {
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
    sim.set_shards(shards);
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
/// no control plane, cut across shards at every level.
fn static_tree_run(batch: bool, partition: &Partition) -> (String, String) {
    let g = topogen::kary_tree(2, 10, LinkSpec::default());
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    let mut sim = Sim::new(g.topo, 7);
    partition.apply(&mut sim);
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
        let reference = interloper_run(false, 1, traced);
        for want in [
            "counter nudger.rx{frame=forwarded} 24\n",
            "counter nudger.rx{frame=hub's own} 12\n",
            "counter nudger.nudge 36\n",
        ] {
            assert!(reference.1.contains(want), "no {want:?} in\n{}", reference.1);
        }
        assert!(!reference.1.contains("frame=other"), "a mangled frame in\n{}", reference.1);
        for shards in [1usize, 2, 4] {
            for batch in [true, false] {
                let got = interloper_run(batch, shards, traced);
                assert_eq!(got.0, reference.0, "trace diverged (batch {batch}, {shards} shards)");
                assert_eq!(got.1, reference.1, "stats diverged (batch {batch}, {shards} shards, traced {traced})");
            }
        }
    }
}

#[test]
fn a_cohort_of_three_frames_and_two_chains_pauses_inside_its_runs() {
    let reference = two_hub_run(false, 1);
    for want in [
        "counter nudger.rx{frame=forwarded} 15\n",
        "counter nudger.rx{frame=second} 15\n",
        "counter nudger.rx{frame=hub's own} 18\n",
        "counter nudger.nudge 48\n",
    ] {
        assert!(reference.1.contains(want), "no {want:?} in\n{}", reference.1);
    }
    assert!(!reference.1.contains("frame=other"), "a mangled frame in\n{}", reference.1);
    for shards in [1usize, 2, 4] {
        for batch in [true, false] {
            let got = two_hub_run(batch, shards);
            assert_eq!(got.0, reference.0, "trace diverged (batch {batch}, {shards} shards)");
            assert_eq!(got.1, reference.1, "stats diverged (batch {batch}, {shards} shards)");
        }
    }
}

#[test]
fn batched_protocol_runs_match_reference_drain() {
    // Randomized over (rng seed, topology seed): same scenario through the
    // batched engine and the reference per-event drain.
    let one = Partition::Shards(1);
    for (seed, topo_seed) in [(1u64, 101u64), (2, 202), (3, 303), (4, 404)] {
        let (trace_b, stats_b) = protocol_run(seed, topo_seed, true, WheelConfig::default(), &one);
        let (trace_r, stats_r) = protocol_run(seed, topo_seed, false, WheelConfig::default(), &one);
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
        let (trace_b, stats_b) = lan_run(seed, n, true, 1);
        let (trace_r, stats_r) = lan_run(seed, n, false, 1);
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
    let one = Partition::Shards(1);
    let fine = WheelConfig::default();
    let coarse = WheelConfig { granularity_us: 1024, slots: 512 };
    let (trace_f, stats_f) = protocol_run(11, 707, true, fine, &one);
    let (trace_c, stats_c) = protocol_run(11, 707, true, coarse, &one);
    let (trace_r, stats_r) = protocol_run(11, 707, false, WheelConfig::default(), &one);
    assert_eq!(trace_f, trace_c, "batched trace depends on wheel granularity");
    assert_eq!(stats_f, stats_c, "batched stats depend on wheel granularity");
    assert_eq!(trace_f, trace_r, "batched trace diverged from reference drain");
    assert_eq!(stats_f, stats_r, "batched stats diverged from reference drain");
}

/// `run` produces the same bytes at 2 and 4 shards as at one, and what it
/// delivered at one shard shows `delivered` in its stats.
fn assert_shard_count_independent(name: &str, delivered: &str, run: impl Fn(&Partition) -> (String, String)) {
    let (trace_1, stats_1) = run(&Partition::Shards(1));
    assert!(stats_1.contains(delivered), "{name}: no {delivered:?} in\n{stats_1}");
    for shards in [2usize, 4] {
        let (trace_s, stats_s) = run(&Partition::Shards(shards));
        assert_eq!(trace_s, trace_1, "{name} trace diverged at {shards} shards");
        assert_eq!(stats_s, stats_1, "{name} stats diverged at {shards} shards");
    }
}

#[test]
fn batched_cohorts_are_shard_count_independent() {
    // The sharded parallel drain must commute with cohort batching: a
    // protocol run, and a static-FIB tree's fan-out, partitioned over 2 or
    // 4 worker shards produce the same bytes as the single-shard run,
    // batched or not. The tree's five frames reach all 1 024 sinks.
    for batch in [true, false] {
        assert_shard_count_independent(&format!("protocol (batch {batch})"), "counter host.data_rx ", |p| {
            protocol_run(5, 505, batch, WheelConfig::default(), p)
        });
        assert_shard_count_independent(
            &format!("static tree (batch {batch})"),
            "counter nudger.rx{frame=other} 5120\n",
            |p| static_tree_run(batch, p),
        );
    }
}

#[test]
fn sharded_lan_fanout_matches_classic() {
    // A single multi-access segment split across shards is the
    // deferral-heaviest cross-shard shape: every send is one `Fanout`
    // mirrored into every shard owning receivers on the LAN.
    for (seed, n) in [(21u64, 17usize), (22, 64)] {
        let (trace_1, stats_1) = lan_run(seed, n, true, 1);
        for shards in [2usize, 4] {
            let (trace_s, stats_s) = lan_run(seed, n, true, shards);
            assert_eq!(trace_s, trace_1, "LAN trace diverged at {shards} shards (n {n})");
            assert_eq!(stats_s, stats_1, "LAN stats diverged at {shards} shards (n {n})");
        }
        assert!(stats_1.contains("host.data_rx"), "scenario delivered nothing");
    }
}

#[test]
fn randomized_partitions_preserve_the_trace() {
    // Property test: ANY valid contiguous partition — not just the balanced
    // one `set_shards` picks — yields byte-identical output. Fenceposts are
    // drawn at random (2–5 shards, arbitrary uneven cuts) from a seeded
    // stream so failures replay.
    let n = topogen::random_connected(12, 5, 18, LinkSpec::default(), 909)
        .topo
        .node_count() as u32;
    let reference = protocol_run(13, 909, true, WheelConfig::default(), &Partition::Shards(1));
    let mut state = 0xC0FF_EE00_u64;
    for round in 0..6 {
        let bounds = random_bounds(n, &mut state);
        let got =
            protocol_run(13, 909, true, WheelConfig::default(), &Partition::Bounds(bounds.clone()));
        assert_eq!(
            got.0, reference.0,
            "trace diverged under partition {bounds:?} (round {round})"
        );
        assert_eq!(
            got.1, reference.1,
            "stats diverged under partition {bounds:?} (round {round})"
        );
    }
}
