//! The determinism pin for the data-plane fast path: a mid-size fault-storm
//! scenario whose same-seed JSONL trace and final `Stats` must stay
//! **byte-identical** to a committed golden snapshot.
//!
//! The zero-copy fan-out, interned-counter and incremental-routing
//! optimizations all ride on the claim that they do not perturb the event
//! schedule, the RNG stream, or any observable output. This test makes that
//! claim falsifiable: the goldens were blessed before the optimizations
//! landed, so any divergence — one extra RNG draw, one reordered event, one
//! renamed counter key — fails the suite with a diff.
//!
//! Regenerate (only when a change is *intended* to alter observable
//! behavior) with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p integration-tests --test determinism_golden
//! ```

use express::host::{ExpressHost, HostAction};
use express::packets::EcmpMode;
use express::proactive::ErrorToleranceCurve;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use netsim::faults::FaultPlan;
use netsim::time::{SimDuration, SimTime};
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{LinkId, Sim, TraceConfig, WheelConfig};
use std::fmt::Write as _;

const TRACE_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/fault_storm.trace.jsonl");
const STATS_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/fault_storm.stats.txt");

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// One full fault-storm run: a 30-router random graph with 40 edge hosts,
/// 16 staggered subscribers, a 20 ms-cadence EXPRESS stream, two link
/// flaps, a router crash + restart, and a 30% loss burst — every fault
/// class `FaultPlan` models, all while tracing.
fn run_storm(seed: u64) -> (String, String) {
    run_storm_with(seed, WheelConfig::default(), 1)
}

/// Same storm, explicit timer-wheel geometry and shard count — the
/// granularity-independence pin reruns it on a coarse wheel, the
/// shard-independence pin reruns it partitioned 2- and 4-way, and both
/// demand the same golden bytes.
fn run_storm_with(seed: u64, wheel: WheelConfig, shards: usize) -> (String, String) {
    run_storm_sliced(seed, wheel, shards, 1)
}

/// Same storm again, its 2.6 s driven as `slices` equal `run_until` calls
/// instead of one.
fn run_storm_sliced(seed: u64, wheel: WheelConfig, shards: usize, slices: u64) -> (String, String) {
    let g = topogen::random_connected(30, 10, 40, LinkSpec::default(), 77);
    let mut sim = Sim::new_with_wheel(g.topo.clone(), seed, wheel);
    sim.set_shards(shards);
    assert_eq!(sim.shard_count(), shards, "storm topology should partition {shards}-way");
    let cfg = RouterConfig::default();
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(cfg)));
        sim.set_restart_factory(r, Box::new(move || Box::new(EcmpRouter::new(cfg))));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    // 16 subscribers joining at 1, 31, 61, … ms (staggered so join control
    // traffic interleaves with early data).
    for (i, &h) in g.hosts[1..17].iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            h,
            at_ms(1 + 30 * i as u64),
            HostAction::Subscribe { channel: chan, key: None },
        );
    }
    // The stream: 100 B payloads every 20 ms through the whole storm.
    let mut t = 100;
    while t <= 2_400 {
        ExpressHost::schedule(&mut sim, g.hosts[0], at_ms(t), HostAction::SendData { channel: chan, payload_len: 100 });
        t += 20;
    }
    // The storm: flaps on two spanning-tree links, a transit-router
    // crash/restart, and a loss burst on a third link.
    FaultPlan::new()
        .link_flap(LinkId(3), at_ms(600), at_ms(900))
        .link_flap(LinkId(7), at_ms(750), at_ms(1_100))
        .crash_restart(g.routers[5], at_ms(1_000), at_ms(1_400))
        .loss_burst(LinkId(11), at_ms(1_800), 0.3, SimDuration::from_millis(200))
        .apply(&mut sim);

    sim.enable_trace(TraceConfig::default());
    let end = at_ms(2_600).0;
    assert_eq!(end % slices, 0, "slices must be equal");
    for slice in 1..=slices {
        sim.run_until(SimTime(end / slices * slice));
    }

    let trace = sim.take_trace().expect("trace enabled").to_jsonl();
    (trace, stats_dump(&sim))
}

/// Everything countable about a finished run, one line per figure.
fn stats_dump(sim: &Sim) -> String {
    let mut stats = String::new();
    let _ = writeln!(stats, "events_processed {}", sim.events_processed());
    // peak_queue_depth is deliberately NOT part of the golden: it is a
    // capacity high-water mark, the one figure that legitimately depends
    // on the shard count (per-shard queues peak independently). The
    // benchmark's digests and `data_plane_allocs` pin it for single-shard
    // runs instead.
    for (k, v) in sim.stats().named_counters() {
        let _ = writeln!(stats, "counter {k} {v}");
    }
    let total = sim.stats().total();
    let _ = writeln!(
        stats,
        "links total data_pkts={} data_bytes={} ctl_pkts={} ctl_bytes={} drops={}",
        total.data_packets, total.data_bytes, total.control_packets, total.control_bytes, total.drops
    );
    for l in 0..sim.topology().link_count() {
        let s = sim.stats().link(LinkId(l as u32));
        if s.packets() > 0 || s.drops > 0 {
            let _ = writeln!(
                stats,
                "link {l} data={}/{} ctl={}/{} drops={}",
                s.data_packets, s.data_bytes, s.control_packets, s.control_bytes, s.drops
            );
        }
    }
    stats
}

/// The storm topology under a many-channel load: 8 channels over two
/// sources, 16 subscribers each (every host holds several subscriptions),
/// a maintained vote on every channel, 12 staggered link flaps, a router
/// crash + restart, total loss on a host link and on a core link long
/// enough for the soft state behind them to expire, and a closing
/// `CountQuery` per channel. Every step a router or host takes once per
/// channel, neighbor or subscription happens here with several of them at
/// hand, so any step whose order is not fixed by the run's own contents
/// shows up as a diverging trace. `udp` runs every interface in UDP mode
/// (periodic general queries, expiry) instead of the default TCP mode.
fn run_multi_channel_storm(shards: usize, udp: bool) -> (String, String) {
    const VOTE: CountId = CountId(CountId::APPLICATION_BASE + 7);
    let g = topogen::random_connected(30, 10, 40, LinkSpec::default(), 77);
    let mut sim = Sim::new(g.topo.clone(), 4242);
    sim.set_shards(shards);
    assert_eq!(sim.shard_count(), shards, "storm topology should partition {shards}-way");
    let cfg = RouterConfig {
        mode_override: udp.then_some(EcmpMode::Udp),
        udp_refresh: SimDuration::from_millis(400),
        neighbor_probe: Some(SimDuration::from_millis(250)),
        boot_query: true,
        ..RouterConfig::default()
    };
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(cfg)));
        sim.set_restart_factory(r, Box::new(move || Box::new(EcmpRouter::new(cfg))));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let (sources, subscribers) = g.hosts.split_at(2);
    let channels: Vec<(netsim::NodeId, Channel)> = (0..8u32)
        .map(|c| {
            let src = sources[c as usize / 4];
            (src, Channel::new(g.topo.ip(src), c + 1).unwrap())
        })
        .collect();
    for (c, &(src, channel)) in channels.iter().enumerate() {
        // 7 is coprime to the 38 subscriber hosts: 16 distinct hosts per
        // channel, each host on three or four channels.
        for k in 0..16 {
            let h = subscribers[(c * 5 + k * 7) % subscribers.len()];
            let at = at_ms(1 + 7 * (c * 16 + k) as u64);
            ExpressHost::schedule(&mut sim, h, at, HostAction::Subscribe { channel, key: None });
        }
        // The vote is installed once the tree stands, so the install fans
        // out over every router's downstream set.
        let vote = HostAction::EnableProactive {
            channel,
            count_id: VOTE,
            curve: ErrorToleranceCurve::new(2.0, 0.5),
        };
        ExpressHost::schedule(&mut sim, src, at_ms(950 + c as u64), vote);
        let query = HostAction::CountQuery {
            channel,
            count_id: CountId::SUBSCRIBERS,
            timeout: SimDuration::from_millis(400),
        };
        ExpressHost::schedule(&mut sim, src, at_ms(5_000 + 20 * c as u64), query);
    }
    // Votes change while the storm runs: each push goes out on every
    // channel of the host that maintains the count.
    for (i, &h) in subscribers.iter().enumerate() {
        for round in 0..3u64 {
            let at = at_ms(1_200 + 900 * round + 11 * i as u64);
            let vote = HostAction::SetAppValue { count_id: VOTE, value: round + i as u64 % 3 };
            ExpressHost::schedule(&mut sim, h, at, vote);
        }
    }
    // Links 0..29 are the router spanning tree, 29..39 the extra edges,
    // 39.. the host links.
    let mut plan = FaultPlan::new();
    for (i, link) in [2u32, 3, 5, 7, 9, 11, 13, 17, 19, 23, 31, 35].into_iter().enumerate() {
        let down = 1_300 + 150 * i as u64;
        plan = plan.link_flap(LinkId(link), at_ms(down), at_ms(down + 220));
    }
    plan.crash_restart(g.routers[5], at_ms(2_000), at_ms(2_400))
        .loss_burst(LinkId(41), at_ms(3_200), 1.0, SimDuration::from_millis(1_400))
        .loss_burst(LinkId(4), at_ms(3_300), 1.0, SimDuration::from_millis(1_200))
        .apply(&mut sim);

    sim.enable_trace(TraceConfig::default());
    sim.run_until(at_ms(6_000));
    let trace = sim.take_trace().expect("trace enabled").to_jsonl();
    (trace, stats_dump(&sim))
}

#[test]
fn multi_channel_storm_is_byte_identical_across_runs() {
    for udp in [false, true] {
        let (trace, stats) = run_multi_channel_storm(1, udp);
        // The storm did reach the per-channel sweeps it is here for.
        let mut steps = vec!["ecmp.rehome", "ecmp.conn_fail_prune", "ecmp.readvertise", "ecmp.batched_msgs"];
        steps.push(if udp { "ecmp.expire" } else { "ecmp.keepalive_prune" });
        for step in steps {
            let line = stats.lines().find(|l| l.starts_with(&format!("counter {step} ")));
            let n: u64 = line.and_then(|l| l.rsplit(' ').next()).map_or(0, |n| n.parse().unwrap());
            assert!(n >= 2, "udp={udp}: {step} fired {n} times\n{stats}");
        }
        for (shards, run) in [(1, "a second run"), (2, "a 2-shard run")] {
            let (trace2, stats2) = run_multi_channel_storm(shards, udp);
            if let Some((n, (a, b))) = trace.lines().zip(trace2.lines()).enumerate().find(|(_, (a, b))| a != b) {
                panic!("udp={udp}: {run} diverges at trace line {}:\n  {a}\n  {b}", n + 1);
            }
            assert_eq!(trace.len(), trace2.len(), "udp={udp}: {run} has a different trace length");
            assert_eq!(stats, stats2, "udp={udp}: {run} has different stats");
        }
    }
}

#[test]
fn fault_storm_matches_committed_golden() {
    let (trace, stats) = run_storm(4242);
    // Intra-run determinism first: a second identical run must agree with
    // the first before either is compared to the snapshot.
    let (trace2, stats2) = run_storm(4242);
    assert_eq!(trace, trace2, "same-seed runs diverged (trace)");
    assert_eq!(stats, stats2, "same-seed runs diverged (stats)");
    assert!(trace.lines().count() > 1_000, "storm trace suspiciously small");

    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(TRACE_GOLDEN, &trace).unwrap();
        std::fs::write(STATS_GOLDEN, &stats).unwrap();
        eprintln!("blessed golden snapshot ({} trace lines)", trace.lines().count());
        return;
    }
    let want_trace = std::fs::read_to_string(TRACE_GOLDEN)
        .expect("golden trace missing; run with BLESS_GOLDEN=1 to create");
    let want_stats = std::fs::read_to_string(STATS_GOLDEN)
        .expect("golden stats missing; run with BLESS_GOLDEN=1 to create");
    // Compare line counts first for a readable failure, then bytes.
    assert_eq!(
        trace.lines().count(),
        want_trace.lines().count(),
        "trace length diverged from golden"
    );
    assert_eq!(trace, want_trace, "trace bytes diverged from golden");
    assert_eq!(stats, want_stats, "stats dump diverged from golden");
}

#[test]
fn fault_storm_is_wheel_granularity_independent() {
    // A coarse 1.024 ms × 512-slot wheel (vs the default 128 µs × 16384)
    // changes which events share a bucket and how often the overflow heap
    // racks into the wheel — but the (at, seq) pop order, and therefore
    // every traced byte, must not move. Only run the comparison when the
    // goldens exist (BLESS_GOLDEN creates them via the primary test).
    let (trace, stats) = run_storm_with(4242, WheelConfig { granularity_us: 1024, slots: 512 }, 1);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        return;
    }
    let want_trace = std::fs::read_to_string(TRACE_GOLDEN)
        .expect("golden trace missing; run with BLESS_GOLDEN=1 to create");
    let want_stats = std::fs::read_to_string(STATS_GOLDEN)
        .expect("golden stats missing; run with BLESS_GOLDEN=1 to create");
    assert_eq!(trace, want_trace, "trace diverged at non-default wheel granularity");
    assert_eq!(stats, want_stats, "stats diverged at non-default wheel granularity");
}

#[test]
fn fault_storm_is_shard_count_independent() {
    // The sharded engine's whole determinism contract in one pin: the
    // identical storm — faults, loss burst, crash/restart, staggered joins
    // — partitioned 2- and 4-way must reproduce the single-shard golden
    // byte for byte: same trace (merged in canonical (time, key, sub)
    // order), same counters, same per-link totals, same event count.
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        return;
    }
    let want_trace = std::fs::read_to_string(TRACE_GOLDEN)
        .expect("golden trace missing; run with BLESS_GOLDEN=1 to create");
    let want_stats = std::fs::read_to_string(STATS_GOLDEN)
        .expect("golden stats missing; run with BLESS_GOLDEN=1 to create");
    for shards in [2, 4] {
        let (trace, stats) = run_storm_with(4242, WheelConfig::default(), shards);
        assert_eq!(trace, want_trace, "trace diverged at {shards} shards");
        assert_eq!(stats, want_stats, "stats diverged at {shards} shards");
    }
}

#[test]
fn fault_storm_is_run_until_slicing_independent() {
    // Where the harness cuts a run into `run_until` calls must not show:
    // the storm as one call and as 1 000 slices of 2.6 ms — most of them
    // ending between two events of one burst, several on a fault's own
    // microsecond — gives the same trace, counters, per-link totals and
    // `events_processed`, whether a segment drains inline (one shard) or
    // in parallel windows (two). A fault search that probes a schedule
    // slice by slice leans on exactly this. `peak_queue_depth` is
    // deliberately not compared: every slice edge makes the sole shard's
    // rotating peek sort the next bucket early, which moves that
    // high-water mark and nothing else (see `ShardExec::drain_below`).
    for shards in [1, 2] {
        let (trace, stats) = run_storm_sliced(4242, WheelConfig::default(), shards, 1);
        let (sliced_trace, sliced_stats) = run_storm_sliced(4242, WheelConfig::default(), shards, 1_000);
        if let Some((n, (a, b))) = trace.lines().zip(sliced_trace.lines()).enumerate().find(|(_, (a, b))| a != b) {
            panic!("{shards} shard(s): the sliced run diverges at trace line {}:\n  {a}\n  {b}", n + 1);
        }
        assert_eq!(trace.len(), sliced_trace.len(), "{shards} shard(s): trace length");
        assert_eq!(stats, sliced_stats, "{shards} shard(s): stats dump");
    }
}
