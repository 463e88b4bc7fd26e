//! `tree_1k_observed` — what observing a run costs.
//!
//! `kary_tree(2, 10)`: 1 024 `ExpressHost`s join one channel through 2 047
//! `EcmpRouter`s by the real protocol. Each window carries 100 data
//! packets, then one link flap run to quiescence, then a closing
//! `CountQuery` and audit checkpoint. The window runs on **twin
//! simulations in one process**: A plain, B with `MetricsConfig`,
//! `ProfConfig`, an unsampled `JsonlSink` into a byte-counting writer and
//! an `Auditor`; windows alternate which twin goes first. Trace, audit,
//! prof and metrics do most of B's work — and none of any other workload's
//! — so a sink, auditor or serializer change shows here and nowhere else.
//!
//! Operation = one delivery in B. The twins must agree on every simulated
//! statistic: observing a run must not change it.

use super::{
    next_ms, run_to_ms, schedule_count_query, take_count_answer, Cfg, Counters, Digest, Outcome,
    SetupSplit, WindowClock, Workload, QUIESCE_MS, SETTLE_MS,
};
use crate::hostctl::{self, PeakRss};
use crate::layers;
use crate::quantiles::median;
use crate::spans::{self, install, Layer, TimedSink};
use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::trace::{TraceBuffer, TraceConfig, TraceEvent, TraceSink};
use netsim::{
    extract_auditor, Auditor, JsonlSink, LinkId, MetricsConfig, NodeId, ProfConfig, Sim, Tee,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PACKETS_PER_WINDOW: u64 = 100;
const PAYLOAD_LEN: usize = 100;
/// Events the replay source keeps (the tail of its run).
const RING_EVENTS: usize = 1 << 17;

/// Counts the octets the JSONL sink writes and drops them.
struct CountingWriter(Arc<AtomicU64>);

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What is switched on in one simulation of the tree.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    /// Metrics, profiler, unsampled JSONL capture, auditor.
    Observed,
    MetricsOnly,
    /// Plain, on the sharded engine.
    Sharded(usize),
    /// Plain, capturing into an in-memory ring (the replay source).
    Ring,
}

/// One simulation of the tree plus what a window needs.
struct Twin {
    sim: Sim,
    src: NodeId,
    chan: Channel,
    members: u64,
    depth: usize,
    /// Router–router links a window may flap.
    flap_links: Vec<LinkId>,
    /// Octets the JSONL sink wrote (observed variant).
    bytes: Arc<AtomicU64>,
    answers: Vec<u64>,
}

/// Host seconds of one window's three segments.
#[derive(Clone, Copy, Default)]
struct WindowWall {
    data_s: f64,
    fault_s: f64,
    close_s: f64,
}

impl WindowWall {
    /// The segments observation dominates: data, closing count, audit
    /// checkpoint. The flap segment is per-origin Dijkstra in both twins
    /// alike and is reported on its own, as the fault window.
    fn observed(&self) -> f64 {
        self.data_s + self.close_s
    }
    fn total(&self) -> f64 {
        self.data_s + self.fault_s + self.close_s
    }
}

/// The simulated counters the twins must agree on and the digest is made of.
const COUNTERS: [&str; 9] = [
    "events",
    "deliveries",
    "express.data_fwd",
    "ecmp.count_tx",
    "ecmp.count_rx",
    "ecmp.rehome",
    "links.data_pkts",
    "links.ctl_pkts",
    "links.drops",
];
const EVENTS: usize = 0;
const DELIVERIES: usize = 1;
const DATA_FWD: usize = 2;
const COUNT_TX: usize = 3;
const COUNT_RX: usize = 4;
const REHOMES: usize = 5;

impl Twin {
    fn build(cfg: &Cfg, variant: Variant, traced: bool, split: Option<&mut SetupSplit>) -> Twin {
        let depth = if cfg.check { 6 } else { 10 };
        let allocs0 = hostctl::allocs();
        let t0 = Instant::now();
        let g = topogen::kary_tree(2, depth, LinkSpec::default());
        let topology_s = t0.elapsed().as_secs_f64();
        let src = g.hosts[0];
        let chan = Channel::new(g.topo.ip(src), 1 + (cfg.seed % 1000) as u32)
            .expect("valid channel number");
        let flap_links: Vec<LinkId> = g.routers[1..]
            .iter()
            .map(|&r| {
                // Interface 0 of a non-root router is its parent link.
                g.topo
                    .link_of(r, netsim::IfaceId(0))
                    .expect("router has a parent link")
            })
            .collect();
        let nodes = g.topo.node_count();
        let (routers, hosts) = (g.routers, g.hosts);
        let t0 = Instant::now();
        let mut sim = Sim::new(g.topo, cfg.seed);
        if let Variant::Sharded(n) = variant {
            sim.set_shards(n);
        }
        let sim_new_s = t0.elapsed().as_secs_f64();
        let bytes = Arc::new(AtomicU64::new(0));
        match variant {
            Variant::Observed => {
                sim.enable_metrics(MetricsConfig::default());
                sim.enable_prof(ProfConfig::default());
                let jsonl = JsonlSink::new(CountingWriter(bytes.clone()));
                let auditor = Auditor::default();
                if traced {
                    sim.enable_trace_sink(
                        TraceConfig::default(),
                        Box::new(TimedSink::new(jsonl, Layer::JsonlSink)),
                    );
                    sim.add_trace_sink(Box::new(TimedSink::new(auditor, Layer::Auditor)));
                } else {
                    sim.enable_trace_sink(TraceConfig::default(), Box::new(jsonl));
                    sim.add_trace_sink(Box::new(auditor));
                }
            }
            Variant::MetricsOnly => sim.enable_metrics(MetricsConfig::default()),
            Variant::Ring => sim.enable_trace(TraceConfig::default().capacity(RING_EVENTS)),
            Variant::Plain | Variant::Sharded(_) => {}
        }
        let t0 = Instant::now();
        let rcfg = RouterConfig {
            neighbor_probe: None,
            ..RouterConfig::default()
        };
        let wrap = traced && variant == Variant::Observed;
        for &r in &routers {
            install(&mut sim, r, EcmpRouter::new(rcfg), Layer::Router, wrap);
        }
        for &h in &hosts {
            // Deliveries are read off `host.data_rx`; a per-delivery event
            // log would only grow with the window count.
            let mut host = ExpressHost::new();
            host.set_data_event_logging(false);
            install(&mut sim, h, host, Layer::Host, wrap);
        }
        let install_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        sim.start();
        let start_s = t0.elapsed().as_secs_f64();

        let mut twin = Twin {
            sim,
            src,
            chan,
            members: hosts.len() as u64 - 1,
            depth,
            flap_links,
            bytes,
            answers: Vec::new(),
        };
        // Joins, staggered over 100 simulated ms, then the warm-up window.
        let n = twin.members;
        for (i, &h) in hosts[1..].iter().enumerate() {
            let at = SimTime(1_000 + i as u64 * 100_000 / n);
            ExpressHost::schedule(
                &mut twin.sim,
                h,
                at,
                HostAction::Subscribe {
                    channel: chan,
                    key: None,
                },
            );
        }
        twin.sim.run_until(SimTime((101 + SETTLE_MS) * 1000));
        let warm_link = twin.flap_links[0];
        twin.window(warm_link, false);
        if let Some(split) = split {
            *split = SetupSplit {
                nodes,
                topology_s,
                sim_new_s,
                install_s,
                start_s,
                allocs: hostctl::allocs() - allocs0,
            };
        }
        twin
    }

    fn counters(&self) -> Counters<9> {
        let s = self.sim.stats();
        let t = s.total();
        Counters([
            self.sim.events_processed(),
            s.named("host.data_rx"),
            s.named("express.data_fwd"),
            s.named("ecmp.count_tx"),
            s.named("ecmp.count_rx"),
            s.named("ecmp.rehome"),
            t.data_packets,
            t.control_packets,
            t.drops,
        ])
    }

    fn now_ms(&self) -> u64 {
        next_ms(&self.sim)
    }

    fn run_ms(&mut self, until_ms: u64) -> f64 {
        run_to_ms(&mut self.sim, until_ms)
    }

    /// One window: data, flap of `link`, closing count and audit
    /// checkpoint. `spanned` opens a window span (traced twin B only).
    fn window(&mut self, link: LinkId, spanned: bool) -> WindowWall {
        let mut wall = WindowWall::default();
        if spanned {
            spans::window_begin("observed");
        }
        let t = self.now_ms();
        for i in 0..PACKETS_PER_WINDOW {
            let action = HostAction::SendData {
                channel: self.chan,
                payload_len: PAYLOAD_LEN,
            };
            ExpressHost::schedule(&mut self.sim, self.src, SimTime((t + i) * 1000), action);
        }
        wall.data_s = self.run_ms(t + PACKETS_PER_WINDOW + self.depth as u64 + 5);

        let t = self.now_ms();
        self.sim
            .schedule_link_change(SimTime(t * 1000), link, false);
        self.sim
            .schedule_link_change(SimTime((t + 1000) * 1000), link, true);
        wall.fault_s = self.run_ms(t + 1000 + QUIESCE_MS);

        schedule_count_query(&mut self.sim, self.src, self.chan);
        let t = self.now_ms();
        let t0 = Instant::now();
        self.sim.run_until(SimTime((t + SETTLE_MS) * 1000));
        self.sim.audit_checkpoint();
        wall.close_s = t0.elapsed().as_secs_f64();
        if spanned {
            spans::window_end();
        }
        let answer = take_count_answer(&mut self.sim, self.src);
        self.answers.push(answer.unwrap_or(u64::MAX));
        wall
    }
}

pub struct Observed {
    a: Twin,
    b: Twin,
    rng: StdRng,
    split: SetupSplit,
    traced: bool,
    /// A's median window wall, for the metrics-only comparison.
    plain_window_s: f64,
}

/// Records the JSONL sink has taken, through whatever wraps it.
fn jsonl_records(sim: &Sim) -> u64 {
    let Some(tracer) = sim.tracer() else {
        return 0;
    };
    let sink = tracer.sink();
    let find = |s: &dyn TraceSink| {
        s.as_any()
            .downcast_ref::<JsonlSink<CountingWriter>>()
            .map(|j| j.events())
    };
    let records = match sink.as_any().downcast_ref::<Tee>() {
        Some(tee) => tee.sinks().iter().find_map(|s| find(s.as_ref())),
        None => find(sink),
    };
    records.unwrap_or(0)
}

impl Workload for Observed {
    const NAME: &'static str = "tree_1k_observed";

    fn setup(cfg: &Cfg, traced: bool) -> Self {
        let mut split = SetupSplit::default();
        let a = Twin::build(cfg, Variant::Plain, false, None);
        let b = Twin::build(cfg, Variant::Observed, traced, Some(&mut split));
        Observed {
            a,
            b,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x0B5),
            split,
            traced,
            plain_window_s: 0.0,
        }
    }

    fn split(&self) -> SetupSplit {
        self.split
    }

    fn setup_digest(&self) -> Digest {
        let mut d = Digest::default();
        d.put("nodes", self.a.sim.topology().node_count() as u64);
        d.put("members", self.a.members);
        self.a.counters().put(&mut d, "setup", &COUNTERS);
        d.put("setup.count_query_answer", self.a.answers[0]);
        d.put(
            "setup.peak_queue_depth",
            self.a.sim.peak_queue_depth() as u64,
        );
        d
    }

    fn measure(&mut self, cfg: &Cfg, budget_s: f64, rss: &mut PeakRss, out: &mut Outcome) {
        let k = cfg.min_windows(12);
        out.digest = self.setup_digest();
        if self.a.counters() != self.b.counters() {
            out.fail(
                1,
                format!(
                    "twins disagree after set-up: plain {:?}, observed {:?}",
                    self.a.counters(),
                    self.b.counters()
                ),
            );
        }
        let expected = PACKETS_PER_WINDOW * self.a.members;
        let before = self.a.counters();
        let rec0 = jsonl_records(&self.b.sim);
        let bytes0 = self.b.bytes.load(Ordering::Relaxed);
        let mut clock = WindowClock::new(budget_s, k);
        let mut at_k = before;
        let (mut slowdowns, mut plain_walls, mut b_wall_s, mut b_total_s) =
            (Vec::new(), Vec::new(), 0.0, 0.0);
        let mut b_allocs = 0;
        while clock.grant() {
            let w = clock.done();
            let link = self.a.flap_links[self.rng.random_range(0..self.a.flap_links.len())];
            let (a0, b0) = (
                self.a.counters().0[DELIVERIES],
                self.b.counters().0[DELIVERIES],
            );
            // Alternate which twin runs first, so neither always inherits
            // the other's cache and allocator state.
            let (wa, wb);
            if w.is_multiple_of(2) {
                wa = self.a.window(link, false);
                let al = hostctl::allocs();
                wb = self.b.window(link, self.traced);
                b_allocs += hostctl::allocs() - al;
            } else {
                let al = hostctl::allocs();
                wb = self.b.window(link, self.traced);
                b_allocs += hostctl::allocs() - al;
                wa = self.a.window(link, false);
            }
            let (got_a, got_b) = (
                self.a.counters().0[DELIVERIES] - a0,
                self.b.counters().0[DELIVERIES] - b0,
            );
            out.ops_attempted += expected;
            if got_b != expected {
                out.fail(
                    got_b.abs_diff(expected),
                    format!(
                        "window {w}: {got_b} deliveries in the observed twin, expected {expected}"
                    ),
                );
            }
            if got_a != expected {
                out.fail(
                    1,
                    format!(
                        "window {w}: {got_a} deliveries in the plain twin, expected {expected}"
                    ),
                );
            }
            out.ops_attempted += 2;
            for (name, twin) in [("plain", &self.a), ("observed", &self.b)] {
                let answer = *twin.answers.last().expect("window pushed an answer");
                if answer != twin.members {
                    out.fail(1, format!("window {w}: CountQuery in the {name} twin answered {answer}, membership is {}", twin.members));
                }
            }
            out.ops_rates.push(got_b as f64 / wb.observed());
            out.fault_ms.push(wb.fault_s * 1e3);
            slowdowns.push(wb.observed() / wa.observed());
            plain_walls.push(wa.observed());
            b_wall_s += wb.observed();
            b_total_s += wb.total();
            if w == k {
                at_k = self.a.counters();
                rss.pin();
            }
            rss.sample();
        }
        let after = self.a.counters();
        self.plain_window_s = median(&plain_walls);
        out.layer("obs_slowdown", median(&slowdowns));

        // Observing must not change the simulated run.
        out.ops_attempted += 1;
        if self.a.counters() != self.b.counters() || self.a.answers != self.b.answers {
            out.fail(
                1,
                format!(
                    "twins disagree: plain {:?}, observed {:?}",
                    self.a.counters(),
                    self.b.counters()
                ),
            );
        }
        Counters::delta(&before, &at_k).put(&mut out.digest, &format!("windows[{k}]"), &COUNTERS);
        out.digest
            .put("peak_queue_depth", self.a.sim.peak_queue_depth() as u64);

        // Close the capture: audit verdict and sink losses.
        let records = jsonl_records(&self.b.sim);
        let bytes = self.b.bytes.load(Ordering::Relaxed) - bytes0;
        let spans_ns = spans::est_non_engine_ns();
        let layer_t =
            [Layer::Router, Layer::Host, Layer::JsonlSink, Layer::Auditor].map(spans::totals);
        let prof = self.b.sim.take_prof();
        let sink = self
            .b
            .sim
            .finish_trace()
            .expect("observed twin has a trace sink");
        let discarded = sink.discarded();
        let auditor = extract_auditor(sink).expect("observed twin has an auditor");
        let report = auditor.report();
        out.ops_attempted += 2;
        if !report.clean {
            out.fail(
                report.violations.len().max(1) as u64,
                format!("audit violations:\n{}", report.to_text()),
            );
        }
        if discarded != 0 {
            out.fail(discarded, format!("{discarded} trace records discarded"));
        }

        if !self.traced {
            return;
        }
        let ops = (after.0[DELIVERIES] - before.0[DELIVERIES]).max(1) as f64;
        let events = (after.0[EVENTS] - before.0[EVENTS]).max(1) as f64;
        // Spans cover all three segments of B's windows; so does this wall.
        let wall_ns = b_total_s * 1e9;
        let [router_t, host_t, jsonl_t, audit_t] = layer_t;
        let recs = (records - rec0).max(1) as f64;
        out.layer("engine.self_share", 1.0 - spans_ns / wall_ns);
        out.layer("engine.events_per_op", events / ops);
        out.layer(
            "engine.peak_queue_depth",
            self.b.sim.peak_queue_depth() as f64,
        );
        out.layer("engine.allocs_per_event", b_allocs as f64 / events);
        out.layer("router.on_packet_ns", router_t.mean_ns());
        out.layer("router.calls", router_t.calls as f64 / ops);
        out.layer(
            "router.data_fwd",
            (after.0[DATA_FWD] - before.0[DATA_FWD]) as f64 / ops,
        );
        out.layer(
            "router.count_rx",
            (after.0[COUNT_RX] - before.0[COUNT_RX]) as f64 / ops,
        );
        out.layer(
            "router.count_tx",
            (after.0[COUNT_TX] - before.0[COUNT_TX]) as f64 / ops,
        );
        out.layer(
            "router.rehomes",
            (after.0[REHOMES] - before.0[REHOMES]) as f64 / out.fault_ms.len() as f64,
        );
        out.layer("host.on_packet_ns", host_t.mean_ns());
        out.layer("host.calls", host_t.calls as f64 / ops);
        out.layer("trace.records", recs / ops);
        out.layer("trace.bytes_per_record", bytes as f64 / recs);
        out.layer("trace.discarded", discarded as f64);
        out.layer("trace.jsonl_share", jsonl_t.est_total_ns() / wall_ns);
        out.layer("audit.share", audit_t.est_total_ns() / wall_ns);
        out.layer("audit.snapshots", report.snapshots as f64);
        out.layer("audit.violations", report.violations.len() as f64);
        if let Some(p) = prof {
            layers::prof_layers(&p.report(), ops, b_wall_s, out);
        }
        let c = self.a.sim.routing();
        out.layer("routing.computes", c.compute_count() as f64);
        out.layer("routing.queries", c.query_count() as f64);
        out.layer(
            "routing.hit_ratio",
            1.0 - c.compute_count() as f64 / c.query_count().max(1) as f64,
        );
        out.layer(
            "routing.computes_per_fault",
            c.compute_count() as f64 / (out.fault_ms.len() + 1) as f64,
        );
    }

    fn trace_extras(&mut self, cfg: &Cfg, out: &mut Outcome) {
        // A fresh simulation of one variant run for `windows` windows:
        // (the twin, median host seconds of a window's observed segments,
        // host seconds from build to end).
        let run = |variant: Variant, windows: usize| {
            let t0 = Instant::now();
            let mut t = Twin::build(cfg, variant, false, None);
            let mut walls = Vec::new();
            for i in 0..windows {
                let link = t.flap_links[(i * 7 + 1) % t.flap_links.len()];
                walls.push(t.window(link, false).observed());
            }
            (t, median(&walls), t0.elapsed().as_secs_f64())
        };

        // What metrics alone cost, against the plain twin's window.
        let (_, metrics_s, _) = run(Variant::MetricsOnly, 3);
        let (plain, plain_s, _) = run(Variant::Plain, 3);
        let b_window_s =
            self.plain_window_s * out.layers.get("obs_slowdown").copied().unwrap_or(1.0);
        out.layer(
            "metrics.share",
            (metrics_s - plain_s).max(0.0) / b_window_s.max(1e-9),
        );

        // One pass on the sharded engine; informational until the roadmap's
        // "one engine" item settles what sharding is for.
        let (sharded, _, sharded_total_s) = run(Variant::Sharded(2), 3);
        let (sync_windows, stall_ns) = sharded.sim.sync_stats();
        let shards = sharded.sim.shard_count() as f64;
        out.layer("shard.sync_windows", sync_windows as f64);
        out.layer(
            "shard.stall_share",
            stall_ns as f64 / (sharded_total_s * 1e9 * shards),
        );
        let equal = sharded.counters() == plain.counters() && sharded.answers == plain.answers;
        out.layer("shard.observables_equal", if equal { 1.0 } else { 0.0 });
        if !equal {
            out.fail(
                1,
                format!(
                    "sharded pass disagrees with the plain pass: {:?} vs {:?}",
                    sharded.counters(),
                    plain.counters()
                ),
            );
        }

        // Sink costs in isolation: replay the tail of one captured window
        // through each. The auditor gets the tree it would have had.
        let (mut ring, _, _) = run(Variant::Ring, 1);
        let snapshot = ring.sim.audit_snapshot();
        let buffer: TraceBuffer = ring.sim.take_trace().expect("ring capture enabled");
        let events: Vec<TraceEvent> = buffer.events().cloned().collect();
        out.layer(
            "trace.jsonl_record_ns",
            layers::sink_record_ns(&events, || {
                JsonlSink::new(CountingWriter(Arc::new(AtomicU64::new(0))))
            }),
        );
        out.layer(
            "trace.buffer_record_ns",
            layers::sink_record_ns(&events, || TraceBuffer::new(TraceConfig::default())),
        );
        out.layer(
            "audit.record_ns",
            layers::sink_record_ns(&events, || {
                let mut a = Auditor::default();
                a.apply_snapshot(&snapshot, false);
                a
            }),
        );
        let mut snaps = Vec::new();
        for _ in 0..layers::BATCHES {
            let t0 = Instant::now();
            std::hint::black_box(self.a.sim.audit_snapshot());
            snaps.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        out.layer("audit.snapshot_us", median(&snaps));
        let topo = self.a.sim.topology();
        let origins: Vec<NodeId> = topo.node_ids().collect();
        out.layer(
            "routing.compute_us",
            layers::routing_compute_us(topo, &origins, self.a.src),
        );

        // The ledger, per delivery in B.
        let pkt: netsim::Payload =
            express::packets::channel_data(self.a.chan, PAYLOAD_LEN, express::packets::DEFAULT_TTL)
                .into();
        let costs = layers::isolated_costs(&pkt, topo.link_count(), out);
        let get = |out: &Outcome, k: &str| out.layers.get(k).copied().unwrap_or(0.0);
        let ns_per_op = 1e9 / out.ops().median;
        let explained = (get(out, "trace.jsonl_record_ns") + get(out, "audit.record_ns"))
            * get(out, "trace.records")
            + costs.classify_ns * (get(out, "router.calls") + get(out, "host.calls"))
            + costs.wheel_ns * get(out, "engine.events_per_op")
            + costs.count_id_ns * (1.0 + get(out, "router.data_fwd"));
        out.layer("budget.explained_share", explained / ns_per_op);
        out.layer("budget.residual_share", 1.0 - explained / ns_per_op);
    }

    fn expected(cfg: &Cfg) -> Option<&'static str> {
        // The tree and its joins do not depend on the seed; the flapped
        // links do, and the re-join traffic with them.
        (cfg.seed == super::DEFAULT_SEED).then_some(if cfg.check {
            include_str!("../../expected/tree_1k_observed.check.digest")
        } else {
            include_str!("../../expected/tree_1k_observed.full.digest")
        })
    }
}
