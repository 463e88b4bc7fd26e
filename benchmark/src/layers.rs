//! Isolated per-layer op costs and profiler-derived counts for traced runs.
//!
//! Each cost drives one layer's public functions with inputs taken from the
//! workload (its packet, its channel, its captured trace) and reports the
//! median ns per op over [`BATCHES`] batches. They are the factors of the
//! reconciling ledger: Σ(cost × exact multiplicity per operation) against
//! the measured ns per operation.

use crate::quantiles::median;
use crate::workloads::Outcome;
use express::fib::Fib;
use express::packets;
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{self, Count, CountId, EcmpMessage};
use express_wire::fib::FibEntry;
use express_wire::ipv4::Ipv4Repr;
use netsim::routing::Routing;
use netsim::stats::Stats;
use netsim::time::SimTime;
use netsim::topology::Topology;
use netsim::trace::{TraceEvent, TraceSink};
use netsim::{EventClass, NodeId, Payload, ProfReport, TimerWheel, WheelConfig};
use std::hint::black_box;
use std::time::Instant;

/// Batches per isolated cost (the median is reported).
pub const BATCHES: usize = 31;
const OPS_PER_BATCH: usize = 4096;

/// Median ns per op of `op` run `OPS_PER_BATCH` times per batch.
fn ns_per_op(mut op: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..OPS_PER_BATCH {
            op(i);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / OPS_PER_BATCH as f64);
    }
    median(&samples)
}

/// The costs the workloads' ledgers multiply out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    pub wheel_ns: f64,
    pub fib_hit_ns: f64,
    pub classify_ns: f64,
    pub count_id_ns: f64,
    pub ecmp_parse_ns: f64,
    pub ecmp_emit_ns: f64,
}

/// Measure the data-path layers in isolation, record them in `out`, and
/// return the ones ledgers use. `pkt` is the workload's data packet and
/// `links` sizes the `Stats` the counter bumps run against.
pub fn isolated_costs(pkt: &Payload, links: usize, out: &mut Outcome) -> Costs {
    let me = Ipv4Addr::new(10, 200, 0, 1);
    let channel = match packets::classify(pkt, me) {
        Ok(packets::Classified::ChannelData { channel, .. }) => channel,
        other => panic!("workload packet is not channel data: {other:?}"),
    };

    // Wheel: push then pop, within the horizon (+1 ms, one hop's latency)
    // and beyond it (+10 s, a protocol refresh timer).
    let wheel_cost = |ahead_us: u64| {
        let mut wheel: TimerWheel<u64> = TimerWheel::new(WheelConfig::default());
        let mut now = 0u64;
        ns_per_op(|i| {
            if i % 64 == 0 {
                for k in 0..64u64 {
                    wheel.push(SimTime(now + ahead_us + k), k);
                }
                for _ in 0..64 {
                    let (at, item) = wheel.pop().expect("pushed 64");
                    now = at.0;
                    black_box(item);
                }
            }
        })
    };
    let wheel_ns = wheel_cost(1_000);
    out.layer("wheel.push_pop_ns", wheel_ns);
    out.layer("wheel.push_pop_far_ns", wheel_cost(10_000_000));

    // FIB: front-cache hit (one channel) and miss (rotating channels).
    let mut fib = Fib::new();
    for c in 0..1024u32 {
        let ch = Channel::new(channel.source, 5_000 + c).expect("valid channel number");
        fib.install(FibEntry::new(ch, 0, 0b110).expect("valid FIB entry"));
    }
    fib.install(FibEntry::new(channel, 0, 0b110).expect("valid FIB entry"));
    let fib_hit_ns = ns_per_op(|_| {
        black_box(fib.lookup(black_box(channel), 0));
    });
    let rotating: Vec<Channel> = (0..1024u32)
        .map(|c| Channel::new(channel.source, 5_000 + c).expect("valid channel number"))
        .collect();
    let fib_miss_ns = ns_per_op(|i| {
        black_box(fib.lookup(black_box(rotating[i & 1023]), 0));
    });
    out.layer("fib.lookup_hit_ns", fib_hit_ns);
    out.layer("fib.lookup_miss_ns", fib_miss_ns);

    // Wire and packets.
    out.layer(
        "wire.ipv4_parse_ns",
        ns_per_op(|_| {
            black_box(Ipv4Repr::parse(black_box(pkt)).expect("valid header"));
        }),
    );
    let count = [EcmpMessage::from(Count {
        channel,
        count_id: CountId::SUBSCRIBERS,
        count: 1,
        key: None,
    })];
    let (wire_count, _) = ecmp::emit_batch(&count, packets::ECMP_BATCH_BUDGET);
    let ecmp_parse_ns = ns_per_op(|_| {
        black_box(ecmp::parse_batch(black_box(&wire_count)).expect("valid batch"));
    });
    let ecmp_emit_ns = ns_per_op(|_| {
        black_box(ecmp::emit_batch(
            black_box(&count),
            packets::ECMP_BATCH_BUDGET,
        ));
    });
    out.layer("wire.ecmp_parse_ns", ecmp_parse_ns);
    out.layer("wire.ecmp_emit_ns", ecmp_emit_ns);
    let classify_ns = ns_per_op(|_| {
        black_box(packets::classify(black_box(pkt), me).expect("classifies"));
    });
    out.layer("packets.classify_ns", classify_ns);
    out.layer(
        "packets.channel_data_ns",
        ns_per_op(|_| {
            black_box(packets::channel_data(
                black_box(channel),
                100,
                packets::DEFAULT_TTL,
            ));
        }),
    );

    // Stats: interned bump and named read.
    let mut stats = Stats::new(links);
    let id = stats.counter("sink.data_rx");
    let count_id_ns = ns_per_op(|_| stats.count_id(black_box(id), 1));
    out.layer("stats.count_id_ns", count_id_ns);
    out.layer(
        "stats.named_ns",
        ns_per_op(|_| {
            black_box(stats.named(black_box("sink.data_rx")));
        }),
    );

    Costs {
        wheel_ns,
        fib_hit_ns,
        classify_ns,
        count_id_ns,
        ecmp_parse_ns,
        ecmp_emit_ns,
    }
}

/// Median ns per record of replaying `events` through a fresh sink from
/// `make` per batch.
pub fn sink_record_ns<S: TraceSink>(events: &[TraceEvent], mut make: impl FnMut() -> S) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    // `record` consumes its event: clone outside the timed region, into one
    // buffer reused across batches.
    let mut batch: Vec<TraceEvent> = Vec::with_capacity(events.len());
    for _ in 0..BATCHES {
        batch.extend(events.iter().cloned());
        let mut sink = make();
        let t0 = Instant::now();
        for ev in batch.drain(..) {
            sink.record(ev);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / events.len().max(1) as f64);
    }
    median(&samples)
}

/// Exact per-class event counts, cohort shape and wheel gauges from the
/// engine's own profiler over `ops` operations that took `wall_s`.
pub fn prof_layers(report: &ProfReport, ops: f64, wall_s: f64, out: &mut Outcome) {
    let class = |c: EventClass| {
        report
            .kinds
            .iter()
            .find(|k| k.kind == c.as_str())
            .map_or(0, |k| k.count) as f64
            / ops
    };
    out.layer("engine.class_arrival", class(EventClass::Arrival));
    out.layer("engine.class_timer", class(EventClass::Timer));
    out.layer("engine.class_fanout", class(EventClass::Fanout));
    out.layer("engine.fanout_cohorts", report.fanout_cohorts as f64 / ops);
    out.layer(
        "engine.deliveries_per_cohort",
        report.fanout_deliveries as f64 / report.fanout_cohorts.max(1) as f64,
    );
    out.layer(
        "wheel.overflow_peak",
        report
            .gauges
            .iter()
            .map(|g| g.wheel.overflow)
            .max()
            .unwrap_or(0) as f64,
    );
    out.layer(
        "wheel.inbox_peak",
        report
            .gauges
            .iter()
            .map(|g| g.wheel.inbox)
            .max()
            .unwrap_or(0) as f64,
    );
    out.layer(
        "prof.overhead_share",
        report.overhead_ns as f64 / (wall_s * 1e9).max(1.0),
    );
}

/// Median µs of one cold `Routing::rpf` (a full Dijkstra) per origin.
pub fn routing_compute_us(topo: &Topology, origins: &[NodeId], source: NodeId) -> f64 {
    let src_ip = topo.ip(source);
    let mut samples = Vec::new();
    for &o in origins.iter().take(BATCHES) {
        let mut routing = Routing::new();
        let t0 = Instant::now();
        std::hint::black_box(routing.rpf(topo, o, src_ip));
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&samples)
}
