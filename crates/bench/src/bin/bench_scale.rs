//! `bench_scale` — the data-plane scale benchmark suite.
//!
//! The paper's thesis is that EXPRESS serves "large-scale single-source
//! applications" — §5.3's reference tree is "20 hops deep with a fanout of
//! two", i.e. one **million** members. This harness drives the simulator's
//! hot path at exactly those scales and records the performance trajectory
//! to `BENCH_scale.json` at the repo root, so every future PR has a number
//! to compare against:
//!
//! * **star fan-out** — one EXPRESS router fanning one stream out to 10⁵
//!   receivers on a multi-access segment (the §5.1 "no fanout except at the
//!   root" worst case, with per-channel delivery accounting at each sink);
//! * **k-ary tree** — the §5.3 `kary_tree(2, 20)` million-subscriber
//!   distribution tree, FIB-seeded via static routes so forwarding (not
//!   tree construction) is what's measured;
//! * **random graph** — a mid-size ISP-like topology where the *full* join
//!   protocol (RPF, Count aggregation, Dijkstra) builds the tree;
//! * **control churn** — the §5.3 event-processing measurement
//!   ([`express_bench::harness::churn_setup`]): joins and leaves of 2 000
//!   channels through an eight-neighbor core router, no data; the one row
//!   whose events are all control-plane work.
//!
//! Metrics per scenario: setup wall time and allocation count (`setup_ms` /
//! `setup_allocs` — the topology-build cost the arena layout drives toward
//! O(1) amortized allocations), events/second over a warm-up + measured
//! window, wall-milliseconds per simulated second, peak event-queue depth,
//! and heap allocations per event / per forwarding hop (via a counting
//! global allocator).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p express-bench --bin bench_scale              # full suite -> BENCH_scale.json
//! cargo run --release -p express-bench --bin bench_scale -- --quick  # CI-size -> BENCH_scale.json
//! cargo run --release -p express-bench --bin bench_scale -- --rebaseline
//!                                  # full suite -> results/bench_scale_baseline.json
//! cargo run --release -p express-bench --bin bench_scale -- --regression-check
//!                                  # gate: fresh best-of-N vs BENCH_scale.json, exit 1 on regression
//! cargo run --release -p express-bench --bin bench_scale -- --shards 4
//!                                  # run the suite on the sharded parallel engine
//! cargo run --release -p express-bench --bin bench_scale -- --shard-smoke
//!                                  # determinism smoke: 1-shard vs sharded observables, exit 1 on divergence
//! cargo run --release -p express-bench --bin bench_scale -- --depth-sweep
//!                                  # the k-ary tree at 2^12 … 2^20 sinks: deliveries/s against depth
//! ```
//!
//! Output schema is `bench_scale/v2`: each scenario row records the shard
//! count it ran at (`"shards"`), and the host block records the
//! parallelism available (`"threads"`). v1 files (no `shards` key) are
//! still read by the gate; their rows default to `shards = 1`, which is
//! what they were.
//!
//! A committed baseline (captured on the pre-optimization tree) lives at
//! `results/bench_scale_baseline.json`; when present, matching scenarios
//! gain a `speedup_vs_baseline` field.

use express::packets;
use express::router::{EcmpRouter, RouterConfig};
use express::host::{ExpressHost, HostAction};
use express_bench::harness;
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::stats::TrafficClass;
use netsim::engine::{Reliability, Tx};
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::{LinkSpec, Topology};
use netsim::{Agent, Ctx, IfaceId, JsonlSink, MetricsConfig, ProfConfig, Sim, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------- allocator

/// Counts every heap allocation so the benchmark can report allocations per
/// event and per forwarding hop — the quantity the zero-copy fan-out and
/// counter-interning work drives toward zero.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------- agents

/// Sends one pre-built channel-data packet out interface 0 per timer fire.
/// The harness schedules the fire times (warm-up burst, drain gap, measured
/// burst) via `Sim::schedule_timer_at`. The packet is built **once** as a
/// shared [`netsim::Payload`] and sent by refcount bump — the send path
/// itself never copies the bytes, so the source contributes zero
/// steady-state allocations and the `allocs_per_fwd` gate can pin the whole
/// data plane at ~0.
struct Blaster {
    pkt: netsim::Payload,
}

impl Agent for Blaster {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_shared(IfaceId(0), self.pkt.clone(), TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
    }
}

/// A receiver doing per-channel delivery accounting — the §5.3 charging
/// story at the edge: total packets plus per-channel packet and byte
/// counters for every delivery. Uses the interned fast path: the total is
/// bumped by pre-registered handle, the per-channel pair by
/// `(base, channel)` probe.
struct AccountingSink {
    data_rx: Option<netsim::CounterId>,
    // Per-channel counter ids, resolved on first sight of each channel so
    // the steady-state path is three indexed bumps with no hash probes.
    chan_ids: Option<(express_wire::addr::Channel, netsim::CounterId, netsim::CounterId)>,
}

impl AccountingSink {
    fn new() -> Self {
        AccountingSink { data_rx: None, chan_ids: None }
    }
}

impl Agent for AccountingSink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.data_rx = Some(ctx.counter("sink.data_rx"));
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &netsim::Payload, _class: TrafficClass) {
        let me = ctx.my_ip();
        if let Ok(packets::Classified::ChannelData { channel, header }) = packets::classify(bytes, me) {
            match self.data_rx {
                Some(id) => ctx.count_id(id, 1),
                None => ctx.count("sink.data_rx", 1),
            }
            let (pkts, bytes_id) = match self.chan_ids {
                Some((c, p, b)) if c == channel => (p, b),
                _ => {
                    let p = ctx.channel_counter("sink.rx_pkts", channel);
                    let b = ctx.channel_counter("sink.rx_bytes", channel);
                    self.chan_ids = Some((channel, p, b));
                    (p, b)
                }
            };
            ctx.count_id(pkts, 1);
            ctx.count_id(bytes_id, header.payload_len as u64);
        }
    }
}

// ---------------------------------------------------------------- harness

/// A quiet router config for FIB-seeded scenarios: no probes, no queries —
/// nothing but the forwarding fast path runs.
fn quiet_cfg() -> RouterConfig {
    RouterConfig {
        neighbor_probe: None,
        boot_query: false,
        ..RouterConfig::default()
    }
}

/// Run a scenario `n` times and keep the repetition with the highest
/// event throughput; `setup_ms`/`setup_allocs` take the minimum across
/// repetitions (setup and sim are independently-timed phases, and the
/// minimum is the estimate least inflated by host noise). Every repetition
/// simulates the identical seeded workload, so all logical metrics
/// (events, deliveries, queue depth) agree across reps by construction.
fn best_of(n: usize, mut run: impl FnMut() -> Measurement) -> Measurement {
    let mut best = run();
    for _ in 1..n {
        let m = run();
        let setup_ms = best.setup_ms.min(m.setup_ms);
        let setup_allocs = best.setup_allocs.min(m.setup_allocs);
        if m.events_per_sec > best.events_per_sec {
            best = m;
        }
        best.setup_ms = setup_ms;
        best.setup_allocs = setup_allocs;
    }
    best
}

struct Measurement {
    name: String,
    topology: String,
    nodes: usize,
    links: usize,
    subscribers: usize,
    shards: usize,
    warmup_packets: usize,
    measured_packets: usize,
    setup_ms: f64,
    setup_allocs: u64,
    events: u64,
    sim_ms: f64,
    wall_ms: f64,
    events_per_sec: f64,
    wall_ms_per_sim_sec: f64,
    peak_queue_depth: usize,
    allocs: u64,
    allocs_per_event: f64,
    data_fwd: u64,
    allocs_per_fwd: f64,
    delivered: u64,
    dijkstra_computes: u64,
    dijkstra_queries: u64,
    /// Conservative-sync windows executed over the whole run (0 when
    /// single-shard — the sharded engine's lookahead loop never ran).
    sync_windows: u64,
    /// Nanoseconds shards spent stalled at the window barrier, summed
    /// across shards — the price of conservative synchronization.
    sync_stall_ns: u64,
    /// Frames actually patched over the measured window
    /// (`Sim::frames_derived`): host work, reported by `--depth-sweep` only.
    frames_derived: u64,
}

/// Drive `sim` through a warm-up window ending at `warm_until` and a
/// measured window ending at `end`, collecting deltas over the measured
/// window only.
#[allow(clippy::too_many_arguments)]
fn measure(
    mut sim: Sim,
    name: &str,
    topology: &str,
    subscribers: usize,
    warmup_packets: usize,
    measured_packets: usize,
    warm_until: SimTime,
    end: SimTime,
    setup_ms: f64,
    setup_allocs: u64,
    delivered_key: &str,
) -> Measurement {
    let nodes = sim.topology().node_count();
    let links = sim.topology().link_count();
    let shards = sim.shard_count();
    sim.run_until(warm_until);
    let ev0 = sim.events_processed();
    let alloc0 = ALLOCS.load(Ordering::Relaxed);
    let fwd0 = sim.stats().named("express.data_fwd");
    let rx0 = sim.stats().named(delivered_key);
    let derived0 = sim.frames_derived();
    let t0 = Instant::now();
    sim.run_until(end);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let events = sim.events_processed() - ev0;
    let allocs = ALLOCS.load(Ordering::Relaxed) - alloc0;
    let data_fwd = sim.stats().named("express.data_fwd") - fwd0;
    let delivered = sim.stats().named(delivered_key) - rx0;
    let sim_ms = (end - warm_until).micros() as f64 / 1e3;
    let (sync_windows, sync_stall_ns) = sim.sync_stats();
    let m = Measurement {
        name: name.into(),
        topology: topology.into(),
        nodes,
        links,
        subscribers,
        shards,
        warmup_packets,
        measured_packets,
        setup_ms,
        setup_allocs,
        events,
        sim_ms,
        wall_ms,
        events_per_sec: events as f64 / (wall_ms / 1e3),
        wall_ms_per_sim_sec: wall_ms / (sim_ms / 1e3),
        peak_queue_depth: sim.peak_queue_depth(),
        allocs,
        allocs_per_event: allocs as f64 / events.max(1) as f64,
        data_fwd,
        allocs_per_fwd: allocs as f64 / data_fwd.max(1) as f64,
        delivered,
        dijkstra_computes: sim.routing().compute_count(),
        dijkstra_queries: sim.routing().query_count(),
        sync_windows,
        sync_stall_ns,
        frames_derived: sim.frames_derived() - derived0,
    };
    eprintln!(
        "  {:<18} {:>9} subs  {:>2} shard(s)  {:>11} events  {:>9.0} ev/s  {:>6.1} ns/ev  {:>7.1} ms wall  peakq {:>8}  {:>6.2} allocs/ev",
        m.name,
        m.subscribers,
        m.shards,
        m.events,
        m.events_per_sec,
        1e9 / m.events_per_sec,
        m.wall_ms,
        m.peak_queue_depth,
        m.allocs_per_event
    );
    if m.shards > 1 {
        eprintln!(
            "  {:<18} sync: {} windows, {:.1} ms stalled at barriers",
            "", m.sync_windows, m.sync_stall_ns as f64 / 1e6
        );
    }
    m
}

/// Timer schedule: `warm` fires at 1..=warm ms, then a drain gap of
/// `drain_ms`, then `meas` fires every 1 ms, then a final drain. Returns
/// (fire times, warm window end, run end).
fn burst_schedule(warm: usize, meas: usize, drain_ms: u64) -> (Vec<SimTime>, SimTime, SimTime) {
    let ms = |m: u64| SimTime(m * 1000);
    let mut fires = Vec::new();
    for i in 0..warm {
        fires.push(ms(1 + i as u64));
    }
    let warm_until = ms(warm as u64 + drain_ms);
    let meas_start = warm as u64 + drain_ms + 1;
    for i in 0..meas {
        fires.push(ms(meas_start + i as u64));
    }
    let end = ms(meas_start + meas as u64 + drain_ms);
    (fires, warm_until, end)
}

/// One hub EXPRESS router; the source is point-to-point behind it, and all
/// `n` subscribers share one multi-access segment — a single `send` fans
/// out to every receiver.
fn star_fanout(n: usize, warm: usize, meas: usize, shards: usize) -> Measurement {
    let t0 = Instant::now();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let mut t = Topology::new();
    let hub = t.add_router();
    let src = t.add_host();
    t.connect(src, hub, LinkSpec::default()).unwrap();
    let mut members = vec![hub];
    for _ in 0..n {
        members.push(t.add_host());
    }
    t.add_lan(&members, LinkSpec::lan()).unwrap();
    let chan = Channel::new(t.ip(src), 1).unwrap();
    let mut sim = Sim::new(t, 7);
    sim.set_shards(shards);
    sim.set_agent(hub, Box::new(EcmpRouter::new(quiet_cfg())));
    sim.agent_as::<EcmpRouter>(hub)
        .unwrap()
        .install_static_route(FibEntry::new(chan, 0, 1 << 1).unwrap());
    for &s in &members[1..] {
        sim.set_agent(s, Box::new(AccountingSink::new()));
    }
    sim.set_agent(src, Box::new(Blaster { pkt: packets::channel_data(chan, 100, 64).into() }));
    let (fires, warm_until, end) = burst_schedule(warm, meas, 5);
    for at in fires {
        sim.schedule_timer_at(src, at, 0);
    }
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let setup_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    measure(
        sim,
        &format!("star_fanout_{}", short(n)),
        "star",
        n,
        warm,
        meas,
        warm_until,
        end,
        setup_ms,
        setup_allocs,
        "sink.data_rx",
    )
}

/// The §5.3 k-ary distribution tree: binary router tree of `depth`, one
/// accounting sink per leaf, FIB pre-seeded down the whole tree.
fn kary_scale(depth: usize, warm: usize, meas: usize, shards: usize) -> Measurement {
    kary_scale_obs(depth, warm, meas, false, shards)
}

/// `kary_scale`, optionally with the full observability stack *enabled*:
/// metrics, the engine self-profiler, and a streaming JSONL trace sink at
/// 1/1024 causal sampling (written to `io::sink` so the A/B comparison in
/// `--overhead-check` measures instrumentation cost, not disk bandwidth).
/// The streaming sink requires a single shard, so `observed` implies
/// `shards == 1`.
fn kary_scale_obs(depth: usize, warm: usize, meas: usize, observed: bool, shards: usize) -> Measurement {
    assert!(!observed || shards == 1, "--overhead-check streams a trace sink; shards must be 1");
    let t0 = Instant::now();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let g = topogen::kary_tree(2, depth, LinkSpec::default());
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    let subscribers = g.hosts.len() - 1;
    let routers = g.routers;
    let hosts = g.hosts;
    let mut sim = Sim::new(g.topo, 7);
    sim.set_shards(shards);
    if observed {
        sim.enable_metrics(MetricsConfig::default());
        sim.enable_prof(ProfConfig::default());
        sim.enable_trace_sink(
            TraceConfig::default().sample_one_in(1024),
            Box::new(JsonlSink::new(std::io::sink())),
        );
    }
    // Build each router completely (config + static route) before boxing:
    // one pass, no re-borrow/downcast of 2M scattered agent boxes.
    for &r in &routers {
        let mut router = EcmpRouter::new(quiet_cfg());
        let ifaces = sim.topology().iface_count(r) as u32;
        let mask = ((1u32 << ifaces) - 1) & !1;
        if mask != 0 {
            router.install_static_route(FibEntry::new(chan, 0, mask).unwrap());
        }
        sim.set_agent(r, Box::new(router));
    }
    for &h in &hosts[1..] {
        sim.set_agent(h, Box::new(AccountingSink::new()));
    }
    sim.set_agent(hosts[0], Box::new(Blaster { pkt: packets::channel_data(chan, 100, 64).into() }));
    // Depth+2 hops at 1 ms each: drain for depth+5 ms between windows.
    let (fires, warm_until, end) = burst_schedule(warm, meas, depth as u64 + 5);
    for at in fires {
        sim.schedule_timer_at(hosts[0], at, 0);
    }
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let setup_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    measure(
        sim,
        &format!("kary_tree_{}", short(subscribers)),
        "kary_tree(2)",
        subscribers,
        warm,
        meas,
        warm_until,
        end,
        setup_ms,
        setup_allocs,
        "sink.data_rx",
    )
}

/// A mid-size ISP-like random graph where the real join protocol builds the
/// tree: every host subscribes through RPF'd Counts, then the source
/// streams. Exercises Dijkstra (+ cache), aggregation, and delivery.
fn random_protocol(n_routers: usize, extra: usize, n_hosts: usize, meas_packets: usize, shards: usize) -> Measurement {
    let t0 = Instant::now();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let g = topogen::random_connected(n_routers, extra, n_hosts, LinkSpec::default(), 99);
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    let subscribers = g.hosts.len() - 1;
    let routers = g.routers;
    let hosts = g.hosts;
    let mut sim = Sim::new(g.topo, 7);
    sim.set_shards(shards);
    for &r in &routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(RouterConfig::default())));
    }
    for &h in &hosts {
        // The benchmark reads `host.data_rx`, not the event log; logging
        // every delivery would be the hosts' only steady-state allocation
        // (Vec doubling across 1k hosts).
        let mut host = ExpressHost::new();
        host.set_data_event_logging(false);
        sim.set_agent(h, Box::new(host));
    }
    // Staggered joins: one per simulated millisecond.
    for (i, &h) in hosts[1..].iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            h,
            SimTime(1_000 * (1 + i as u64)),
            HostAction::Subscribe { channel: chan, key: None },
        );
    }
    // Stream: warm-up burst then measured burst, 10 ms cadence.
    let join_end = subscribers as u64 + 50;
    let warm = 10usize;
    let mut t = join_end;
    for _ in 0..warm {
        ExpressHost::schedule(&mut sim, hosts[0], SimTime(t * 1_000), HostAction::SendData { channel: chan, payload_len: 100 });
        t += 10;
    }
    let warm_until = SimTime((t + 40) * 1_000);
    t += 50;
    for _ in 0..meas_packets {
        ExpressHost::schedule(&mut sim, hosts[0], SimTime(t * 1_000), HostAction::SendData { channel: chan, payload_len: 100 });
        t += 10;
    }
    let end = SimTime((t + 40) * 1_000);
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let setup_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    measure(
        sim,
        &format!("random_protocol_{}", short(subscribers)),
        "random_connected",
        subscribers,
        warm,
        meas_packets,
        warm_until,
        end,
        setup_ms,
        setup_allocs,
        "host.data_rx",
    )
}

/// The §5.3 control-plane measurement: every event is a join or a leave
/// working its way host → edge → core → source router. The first tenth of
/// the window warms the routers' tables; allocations per event over the
/// rest are what the control plane (and the per-channel counter interning
/// behind `ecmp.count_msgs`) still costs.
fn control_churn(n_neighbors: usize, n_channels: usize) -> Measurement {
    let t0 = Instant::now();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let c = harness::churn_setup(n_neighbors, n_channels, 5);
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let setup_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    measure(
        c.sim,
        &format!("control_churn_{}", short(n_channels)),
        &format!("churn_star({n_neighbors})"),
        n_neighbors,
        0,
        0,
        SimTime(c.end.0 / 10),
        c.end,
        setup_ms,
        setup_allocs,
        "ecmp.subscribe",
    )
}

fn short(n: usize) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}m", n / 1_000_000)
    } else if n >= 1_000 {
        format!("{}k", n / 1_000)
    } else {
        format!("{n}")
    }
}

// ---------------------------------------------------------------- output

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench_scale_baseline.json");
const OVERHEAD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench_overhead.json");

/// Strip characters that would need JSON escaping from a host string.
fn json_safe(s: &str) -> String {
    s.chars().filter(|c| !c.is_control() && *c != '"' && *c != '\\').collect()
}

/// The host environment the numbers were taken on — CPU model, core count,
/// kernel — so PERFORMANCE.md's host-noise methodology has the context it
/// tells readers to check.
fn host_env_json(indent: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    // `threads` is what a sharded run can actually exploit: on a 1-thread
    // host the parallel drain serializes and shards>1 rows only measure
    // synchronization overhead (see PERFORMANCE.md).
    format!(
        "{{\n{indent}  \"cpu_model\": \"{}\",\n{indent}  \"cores\": {cores},\n{indent}  \"threads\": {cores},\n{indent}  \"kernel\": \"{}\"\n{indent}}}",
        json_safe(&cpu),
        json_safe(&kernel)
    )
}

fn scenario_json(m: &Measurement, speedup: Option<f64>) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\n      \"name\": \"{}\",\n      \"topology\": \"{}\",\n      \"nodes\": {},\n      \"links\": {},\n      \"subscribers\": {},\n      \"shards\": {},\n      \"warmup_packets\": {},\n      \"measured_packets\": {},\n      \"setup_ms\": {:.1},\n      \"setup_allocs\": {},\n      \"events\": {},\n      \"sim_ms\": {:.1},\n      \"wall_ms\": {:.1},\n      \"events_per_sec\": {:.0},\n      \"ns_per_event\": {:.1},\n      \"wall_ms_per_sim_sec\": {:.1},\n      \"peak_queue_depth\": {},\n      \"allocs\": {},\n      \"allocs_per_event\": {:.3},\n      \"data_fwd\": {},\n      \"allocs_per_fwd\": {:.3},\n      \"delivered\": {},\n      \"dijkstra_computes\": {},\n      \"dijkstra_queries\": {},\n      \"sync_windows\": {},\n      \"sync_stall_ns\": {}",
        m.name,
        m.topology,
        m.nodes,
        m.links,
        m.subscribers,
        m.shards,
        m.warmup_packets,
        m.measured_packets,
        m.setup_ms,
        m.setup_allocs,
        m.events,
        m.sim_ms,
        m.wall_ms,
        m.events_per_sec,
        1e9 / m.events_per_sec,
        m.wall_ms_per_sim_sec,
        m.peak_queue_depth,
        m.allocs,
        m.allocs_per_event,
        m.data_fwd,
        m.allocs_per_fwd,
        m.delivered,
        m.dijkstra_computes,
        m.dijkstra_queries,
        m.sync_windows,
        m.sync_stall_ns
    );
    if let Some(x) = speedup {
        let _ = write!(s, ",\n      \"speedup_vs_baseline\": {x:.2}");
    }
    s.push_str("\n    }");
    s
}

/// One scenario's committed numbers of record, as read back from
/// `BENCH_scale.json` (our own fixed-format JSON; no parser dependency).
struct Record {
    name: String,
    subscribers: usize,
    /// Shard count the row was measured at. Absent in `bench_scale/v1`
    /// files, where every row was a single-shard run — so the
    /// back-compat default is 1. Only `shards == 1` rows gate.
    shards: usize,
    events_per_sec: f64,
    peak_queue_depth: usize,
    allocs_per_event: f64,
    allocs_per_fwd: f64,
}

/// Extract the regression-gate fields for every scenario in a previously
/// written `BENCH_scale.json` (`bench_scale/v1` or `/v2`).
fn parse_records(text: &str) -> Vec<Record> {
    let mut out = Vec::new();
    let mut cur: Option<Record> = None;
    for line in text.lines() {
        let l = line.trim().trim_end_matches(',');
        if let Some(v) = l.strip_prefix("\"name\": \"") {
            if let Some(r) = cur.take() {
                out.push(r);
            }
            cur = Some(Record {
                name: v.trim_end_matches('"').to_string(),
                subscribers: 0,
                shards: 1,
                events_per_sec: 0.0,
                peak_queue_depth: 0,
                allocs_per_event: 0.0,
                allocs_per_fwd: 0.0,
            });
        } else if let Some(r) = cur.as_mut() {
            if let Some(v) = l.strip_prefix("\"subscribers\": ") {
                r.subscribers = v.parse().unwrap_or(0);
            } else if let Some(v) = l.strip_prefix("\"shards\": ") {
                r.shards = v.parse().unwrap_or(1);
            } else if let Some(v) = l.strip_prefix("\"events_per_sec\": ") {
                r.events_per_sec = v.parse().unwrap_or(0.0);
            } else if let Some(v) = l.strip_prefix("\"peak_queue_depth\": ") {
                r.peak_queue_depth = v.parse().unwrap_or(0);
            } else if let Some(v) = l.strip_prefix("\"allocs_per_event\": ") {
                r.allocs_per_event = v.parse().unwrap_or(0.0);
            } else if let Some(v) = l.strip_prefix("\"allocs_per_fwd\": ") {
                r.allocs_per_fwd = v.parse().unwrap_or(0.0);
            }
        }
    }
    if let Some(r) = cur.take() {
        out.push(r);
    }
    out
}

/// The perf-regression gate (`--regression-check`): re-run the full
/// scenario set (best-of-N, same seeds) and compare each against the
/// committed `BENCH_scale.json` numbers of record. Tolerances:
///
/// * `events_per_sec` ≥ 50% of record — wall-clock throughput is the one
///   host-noise-sensitive figure, and on shared single-core hosts steal
///   episodes alone halve it. Best-of-N picks the least-perturbed rep, a
///   scenario that still misses the floor earns up to three *extra* reps
///   (a genuinely slow build never passes; a stalled host gets more
///   chances), and the deliberately coarse floor means a throughput
///   failure is a real ≥2× regression, not scheduler weather.
/// * `peak_queue_depth` ≤ 105% of record — deterministic per seed, so any
///   real growth is a scheduling change, not noise.
/// * `allocs_per_event` ≤ record + 0.005 and `allocs_per_fwd` ≤
///   record + 0.005 — deterministic; pins the data path allocation-free end
///   to end. Since the source builds its packet once as a shared `Payload`
///   and every fan-out clones by refcount, the records sit at ~0.000 and
///   the tolerance is a pure float-noise guard, not headroom.
///
/// Only `shards == 1` rows gate: sharded rows in `BENCH_scale.json` are
/// additive documentation of the parallel engine's overhead/scaling on the
/// recording host, and their wall-clock figures depend on core count in a
/// way the single-shard floors do not. The gate itself always runs at
/// one shard.
///
/// Prints the core count so single-core results aren't misread, never
/// rewrites `BENCH_scale.json`, and exits 1 on any violation.
fn regression_check() {
    const REPS: usize = 3;
    const EXTRA_REPS: usize = 3;
    const EVS_FLOOR: f64 = 0.50;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    eprintln!("bench_scale --regression-check: fresh best-of-{REPS} vs {OUT_PATH} (host: {cores} core(s))");
    let records = match std::fs::read_to_string(OUT_PATH) {
        Ok(t) => parse_records(&t),
        Err(e) => {
            eprintln!("REGRESSION GATE FAIL: cannot read {OUT_PATH}: {e}");
            std::process::exit(1);
        }
    };
    let runners: Vec<Box<dyn Fn() -> Measurement>> = vec![
        Box::new(|| star_fanout(100_000, 5, 20, 1)),
        Box::new(|| kary_scale(14, 2, 10, 1)),
        Box::new(|| kary_scale(20, 2, 5, 1)),
        Box::new(|| random_protocol(400, 150, 1_000, 100, 1)),
        Box::new(|| control_churn(8, 2_000)),
    ];
    let mut failed = false;
    for run in &runners {
        let mut m = best_of(REPS, run);
        let Some(r) = records
            .iter()
            .find(|r| r.name == m.name && r.subscribers == m.subscribers && r.shards == 1)
        else {
            eprintln!("REGRESSION GATE FAIL: {} has no number of record in {OUT_PATH}", m.name);
            failed = true;
            continue;
        };
        let mut ratio = m.events_per_sec / r.events_per_sec;
        let mut extra = 0;
        while ratio < EVS_FLOOR && extra < EXTRA_REPS {
            extra += 1;
            eprintln!(
                "  {:<24} at {:.1}% of record after {} rep(s) — host steal suspected, rep {}",
                m.name,
                ratio * 100.0,
                REPS + extra - 1,
                REPS + extra
            );
            let again = run();
            if again.events_per_sec > m.events_per_sec {
                m = again;
            }
            ratio = m.events_per_sec / r.events_per_sec;
        }
        let peak_cap = (r.peak_queue_depth as f64 * 1.05) as usize;
        let mut bad = Vec::new();
        if ratio < EVS_FLOOR {
            bad.push(format!(
                "events_per_sec {:.0} is {:.1}% of the {:.0} record (floor {:.0}%)",
                m.events_per_sec,
                ratio * 100.0,
                r.events_per_sec,
                EVS_FLOOR * 100.0
            ));
        }
        if m.peak_queue_depth > peak_cap {
            bad.push(format!(
                "peak_queue_depth {} > {} (105% of the {} record)",
                m.peak_queue_depth, peak_cap, r.peak_queue_depth
            ));
        }
        if m.allocs_per_event > r.allocs_per_event + 0.005 {
            bad.push(format!(
                "allocs_per_event {:.3} > record {:.3} + 0.005",
                m.allocs_per_event, r.allocs_per_event
            ));
        }
        if m.allocs_per_fwd > r.allocs_per_fwd + 0.005 {
            bad.push(format!(
                "allocs_per_fwd {:.3} > record {:.3} + 0.005",
                m.allocs_per_fwd, r.allocs_per_fwd
            ));
        }
        if bad.is_empty() {
            eprintln!(
                "  {:<24} ok: {:.0} ev/s ({:.1}% of record), peakq {}, {:.3} allocs/ev",
                m.name,
                m.events_per_sec,
                ratio * 100.0,
                m.peak_queue_depth,
                m.allocs_per_event
            );
        } else {
            for b in bad {
                eprintln!("REGRESSION GATE FAIL: {}: {b}", m.name);
            }
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// `--depth-sweep`: the §5.3 binary tree at 2¹² … 2²⁰ sinks, best of three
/// each. Per delivery the simulated work is the same at every depth (three
/// events, two forwards); what grows is how much router state one wave
/// drags through the cache, so the rate against depth is what a forwarding
/// hop costs in bytes. Packets scale down as the tree scales up, keeping
/// every row at 5 × 2²⁰ deliveries. Prints only; writes no file.
fn depth_sweep() {
    eprintln!("bench_scale --depth-sweep: kary_tree(2), best of 3 per depth");
    eprintln!("  sinks       routers     deliveries/s   ns/delivery   frames patched/wave");
    for depth in [12usize, 14, 16, 18, 20] {
        let packets = 5 << (20 - depth);
        let m = best_of(3, || kary_scale(depth, 2, packets, 1));
        let per_s = m.delivered as f64 / (m.wall_ms / 1e3);
        eprintln!(
            "  2^{depth:<2} {:>9} {:>9} {:>14.0} {:>13.1} {:>13.1}",
            m.subscribers,
            m.nodes - m.subscribers - 1,
            per_s,
            1e9 / per_s,
            m.frames_derived as f64 / packets as f64
        );
    }
    std::process::exit(0);
}

/// Minimal extraction of `(name, subscribers, events_per_sec)` triples from
/// a previously written baseline file (our own fixed-format JSON).
fn parse_baseline(text: &str) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    let mut subs: Option<usize> = None;
    for line in text.lines() {
        let l = line.trim().trim_end_matches(',');
        if let Some(v) = l.strip_prefix("\"name\": \"") {
            name = Some(v.trim_end_matches('"').to_string());
        } else if let Some(v) = l.strip_prefix("\"subscribers\": ") {
            subs = v.parse().ok();
        } else if let Some(v) = l.strip_prefix("\"events_per_sec\": ") {
            if let (Some(n), Some(s), Ok(e)) = (name.take(), subs.take(), v.parse::<f64>()) {
                out.push((n, s, e));
            }
        }
    }
    out
}

/// The observability-overhead gate (`--overhead-check`): A/B the k-ary tree
/// with the full observability stack disabled vs enabled, record both to
/// `results/bench_overhead.json`, and fail hard if
///
/// * the *disabled* run allocates (> 0.05 allocs/event — zero-cost-when-off
///   must not regress into per-event heap traffic), or
/// * the disabled run falls below 95% of the matching BENCH_scale.json
///   number of record (instrumentation compiled in must not slow the
///   uninstrumented path).
fn overhead_check(quick: bool, deep: bool) {
    let (depth, warm, meas, reps) = if deep {
        (20, 2, 5, 1)
    } else if quick {
        (10, 2, 5, 2)
    } else {
        (14, 2, 10, 3)
    };
    eprintln!("bench_scale --overhead-check: kary depth {depth}, observability disabled vs enabled");
    let off = best_of(reps, || kary_scale_obs(depth, warm, meas, false, 1));
    let on = best_of(reps, || kary_scale_obs(depth, warm, meas, true, 1));
    let enabled_ratio = on.events_per_sec / off.events_per_sec;
    let record = std::fs::read_to_string(OUT_PATH)
        .map(|t| parse_baseline(&t))
        .unwrap_or_default()
        .into_iter()
        .find(|(n, s, _)| *n == off.name && *s == off.subscribers)
        .map(|(_, _, e)| e);
    let vs_record = record.map(|r| off.events_per_sec / r);

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_overhead/v1\",\n");
    let _ = writeln!(json, "  \"scenario\": \"{}\",", off.name);
    let _ = writeln!(json, "  \"subscribers\": {},", off.subscribers);
    let _ = writeln!(json, "  \"disabled_events_per_sec\": {:.0},", off.events_per_sec);
    let _ = writeln!(json, "  \"enabled_events_per_sec\": {:.0},", on.events_per_sec);
    let _ = writeln!(json, "  \"enabled_over_disabled\": {enabled_ratio:.3},");
    let _ = writeln!(json, "  \"disabled_allocs_per_event\": {:.4},", off.allocs_per_event);
    if let Some(x) = vs_record {
        let _ = writeln!(json, "  \"disabled_vs_record\": {x:.3},");
    }
    let _ = write!(json, "  \"host\": {}\n}}\n", host_env_json("  "));
    std::fs::write(OVERHEAD_PATH, &json).expect("write overhead output");
    eprintln!("wrote {OVERHEAD_PATH}");
    eprintln!(
        "  disabled {:.0} ev/s | enabled {:.0} ev/s ({:.1}% of disabled)",
        off.events_per_sec,
        on.events_per_sec,
        enabled_ratio * 100.0
    );

    let mut failed = false;
    if off.allocs_per_event > 0.05 {
        eprintln!(
            "OVERHEAD GATE FAIL: disabled run allocates {:.4} allocs/event (> 0.05) — observability is not zero-cost when off",
            off.allocs_per_event
        );
        failed = true;
    }
    match vs_record {
        Some(x) if x < 0.95 => {
            eprintln!(
                "OVERHEAD GATE FAIL: disabled run at {:.1}% of the {} number of record in BENCH_scale.json (floor 95%)",
                x * 100.0,
                off.name
            );
            failed = true;
        }
        Some(x) => eprintln!("  disabled run at {:.1}% of the number of record (floor 95%) — ok", x * 100.0),
        None => eprintln!("  no matching scenario in BENCH_scale.json; record comparison skipped"),
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// One shard-smoke repetition: the FIB-seeded k-ary tree at `shards`
/// shards, returning every deterministic observable — event count plus all
/// named counters and the link-stat totals. (`peak_queue_depth` is
/// deliberately absent: entry counts are per-shard-queue figures and the
/// one number the partition legitimately changes.)
fn shard_smoke_observe(shards: usize) -> (u64, Vec<String>) {
    let g = topogen::kary_tree(2, 10, LinkSpec::default());
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    let routers = g.routers;
    let hosts = g.hosts;
    let mut sim = Sim::new(g.topo, 7);
    sim.set_shards(shards);
    for &r in &routers {
        let mut router = EcmpRouter::new(quiet_cfg());
        let ifaces = sim.topology().iface_count(r) as u32;
        let mask = ((1u32 << ifaces) - 1) & !1;
        if mask != 0 {
            router.install_static_route(FibEntry::new(chan, 0, mask).unwrap());
        }
        sim.set_agent(r, Box::new(router));
    }
    for &h in &hosts[1..] {
        sim.set_agent(h, Box::new(AccountingSink::new()));
    }
    sim.set_agent(hosts[0], Box::new(Blaster { pkt: packets::channel_data(chan, 100, 64).into() }));
    let (fires, _warm_until, end) = burst_schedule(2, 5, 15);
    for at in fires {
        sim.schedule_timer_at(hosts[0], at, 0);
    }
    sim.run_until(end);
    let mut obs: Vec<String> = sim
        .stats()
        .named_counters()
        .map(|(k, v)| format!("counter {k} {v}"))
        .collect();
    obs.sort();
    let t = sim.stats().total();
    obs.push(format!(
        "links total data_pkts={} data_bytes={} ctl_pkts={} ctl_bytes={} drops={}",
        t.data_packets, t.data_bytes, t.control_packets, t.control_bytes, t.drops
    ));
    (sim.events_processed(), obs)
}

/// The determinism smoke for the verify loop (`--shard-smoke`): run the
/// k-ary scenario at one shard (drained inline) and sharded (in parallel)
/// and demand identical deterministic observables. This is the cheap
/// cross-check that the conservative-lookahead drain is still
/// shard-count-invariant *in this build* — the full byte-level contract is
/// pinned by the `determinism_golden` and `cohort_equivalence` tests.
/// Exits 1 on any divergence.
fn shard_smoke(shards: usize) {
    let s = shards.max(2);
    eprintln!("bench_scale --shard-smoke: kary depth 10, 1 shard vs {s} shard(s)");
    let (ev1, obs1) = shard_smoke_observe(1);
    let (evs, obss) = shard_smoke_observe(s);
    let mut failed = false;
    if ev1 != evs {
        eprintln!("SHARD SMOKE FAIL: events_processed {evs} at {s} shards != {ev1} at 1 shard");
        failed = true;
    }
    if obs1 != obss {
        for (a, b) in obs1.iter().zip(obss.iter()) {
            if a != b {
                eprintln!("SHARD SMOKE FAIL: '{b}' at {s} shards != '{a}' at 1 shard");
            }
        }
        if obs1.len() != obss.len() {
            eprintln!(
                "SHARD SMOKE FAIL: {} observables at {s} shards != {} at 1 shard",
                obss.len(),
                obs1.len()
            );
        }
        failed = true;
    }
    if !failed {
        eprintln!("  ok: {ev1} events, {} observables identical at 1 and {s} shard(s)", obs1.len());
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--shards N` takes a value; peel it off before the flag check.
    let mut shards = 1usize;
    let mut args = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--shards" {
            shards = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--shards needs a positive integer argument");
                    std::process::exit(2);
                });
        } else {
            args.push(a);
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let rebaseline = args.iter().any(|a| a == "--rebaseline");
    let overhead = args.iter().any(|a| a == "--overhead-check");
    let deep = args.iter().any(|a| a == "--deep");
    let regression = args.iter().any(|a| a == "--regression-check");
    let smoke = args.iter().any(|a| a == "--shard-smoke");
    let sweep = args.iter().any(|a| a == "--depth-sweep");
    const FLAGS: [&str; 7] = [
        "--quick",
        "--rebaseline",
        "--overhead-check",
        "--deep",
        "--regression-check",
        "--shard-smoke",
        "--depth-sweep",
    ];
    if let Some(bad) = args.iter().find(|a| !FLAGS.contains(&a.as_str())) {
        eprintln!("unknown flag {bad}; usage: bench_scale [--quick] [--shards N] [--rebaseline] [--overhead-check [--deep]] [--regression-check] [--shard-smoke] [--depth-sweep]");
        std::process::exit(2);
    }
    if smoke {
        shard_smoke(shards);
    }
    if overhead {
        overhead_check(quick, deep);
    }
    if regression {
        regression_check();
    }
    if sweep {
        depth_sweep();
    }
    let mode = if quick { "quick" } else { "full" };
    eprintln!("bench_scale ({mode} mode, {shards} shard(s))");

    let scenarios: Vec<Measurement> = if quick {
        vec![
            star_fanout(10_000, 2, 5, shards),
            kary_scale(10, 2, 5, shards),
            random_protocol(100, 40, 200, 30, shards),
            control_churn(8, 500),
        ]
    } else {
        // Same seed every repetition — the simulated work is identical, so
        // the fastest rep is the least-perturbed measurement (standard
        // min-of-N on shared hardware; multi-second host-steal episodes
        // otherwise land on whichever phase happens to be running).
        const REPS: usize = 3;
        let mut v = vec![
            best_of(REPS, || star_fanout(100_000, 5, 20, shards)),
            best_of(REPS, || kary_scale(14, 2, 10, shards)),
            best_of(REPS, || kary_scale(20, 2, 5, shards)),
            best_of(REPS, || random_protocol(400, 150, 1_000, 100, shards)),
            best_of(REPS, || control_churn(8, 2_000)),
        ];
        if shards == 1 {
            // Additive sharded row: the mid-size k-ary tree on the
            // 2-shard parallel engine, so the committed file documents the
            // conservative-sync cost/benefit on the recording host. Never
            // gated (see `regression_check`).
            v.push(best_of(REPS, || kary_scale(14, 2, 10, 2)));
        }
        v
    };

    let baseline = if rebaseline {
        Vec::new()
    } else {
        std::fs::read_to_string(BASELINE_PATH)
            .map(|t| parse_baseline(&t))
            .unwrap_or_default()
    };
    let speedup_of = |m: &Measurement| -> Option<f64> {
        // The committed baseline is a single-shard capture; a sharded row's
        // ratio against it would conflate engine speedups with parallelism.
        if m.shards != 1 {
            return None;
        }
        baseline
            .iter()
            .find(|(n, s, _)| *n == m.name && *s == m.subscribers)
            .map(|(_, _, base)| m.events_per_sec / base)
    };

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_scale/v2\",\n");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"host\": {},", host_env_json("  "));
    json.push_str("  \"scenarios\": [\n");
    for (i, m) in scenarios.iter().enumerate() {
        json.push_str(&scenario_json(m, speedup_of(m)));
        json.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]");
    if let Some(fan) = scenarios.iter().find(|m| m.topology == "star") {
        if let Some(x) = speedup_of(fan) {
            let _ = write!(json, ",\n  \"fanout_speedup_vs_baseline\": {x:.2}");
        }
    }
    json.push_str("\n}\n");

    let path = if rebaseline { BASELINE_PATH } else { OUT_PATH };
    std::fs::write(path, &json).expect("write benchmark output");
    eprintln!("wrote {path}");
}
