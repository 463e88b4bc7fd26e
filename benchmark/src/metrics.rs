//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names; `tests/check.rs` holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees. `bound` is the
/// share of the parent's median by which it may worsen before a change is
/// rejected. The three timings carry the widest bound the driver allows:
/// on the shared 2-vCPU VM this is gated on, runs minutes apart differ by
/// 5–10 % and a noisy-neighbour episode halves a run (README, "Observed
/// spread"); a tighter gate would reject innocent changes.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these, untraced.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations per second of host time, median over the measured windows",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host seconds from nothing to the first measured window, median of the passes after the cold one",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        what: "VmHWM after the reset, read when the pinned minimum of windows is done",
    },
    EndToEnd {
        name: "fault_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "host ms per fault window (one link flap run to quiescence), median",
    },
];

/// A per-layer metric of the traced run. No bound: these explain, they do
/// not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}
const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in reporting order. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [PerLayer; 72] = [
    // Workload-specific end-to-end figures that cannot be defined on every
    // workload (see README): reported here, never gated by a bound.
    lo("obs_slowdown", "ratio"),
    lo("ctrl_msgs_per_change", "1/op"),
    lo("trace_overhead_share", "ratio"),
    // netsim::engine
    lo("engine.self_share", "ratio"),
    lo("engine.events_per_op", "1/op"),
    lo("engine.peak_queue_depth", "count"),
    lo("engine.allocs_per_event", "1/event"),
    lo("engine.fanout_cohorts", "1/op"),
    hi("engine.deliveries_per_cohort", "count"),
    lo("engine.class_arrival", "1/op"),
    lo("engine.class_timer", "1/op"),
    lo("engine.class_fanout", "1/op"),
    // netsim::wheel
    lo("wheel.push_pop_ns", "ns"),
    lo("wheel.push_pop_far_ns", "ns"),
    lo("wheel.overflow_peak", "count"),
    lo("wheel.inbox_peak", "count"),
    // express::fib
    lo("fib.lookup_hit_ns", "ns"),
    lo("fib.lookup_miss_ns", "ns"),
    lo("fib.forwarded", "1/op"),
    lo("fib.drops", "count"),
    // express_wire, express::packets
    lo("wire.ipv4_parse_ns", "ns"),
    lo("wire.ecmp_parse_ns", "ns"),
    lo("wire.ecmp_emit_ns", "ns"),
    lo("packets.classify_ns", "ns"),
    lo("packets.channel_data_ns", "ns"),
    // express::router, express::host, the benchmark's sinks
    lo("router.on_packet_ns", "ns"),
    lo("router.calls", "1/op"),
    lo("router.data_fwd", "1/op"),
    lo("router.count_rx", "1/op"),
    lo("router.count_tx", "1/op"),
    lo("router.rehomes", "1/fault"),
    lo("host.on_packet_ns", "ns"),
    lo("host.calls", "1/op"),
    lo("sink.on_packet_ns", "ns"),
    // netsim::routing
    lo("routing.compute_us", "us"),
    lo("routing.computes", "count"),
    lo("routing.queries", "count"),
    hi("routing.hit_ratio", "ratio"),
    lo("routing.computes_per_fault", "1/fault"),
    // netsim::stats
    lo("stats.count_id_ns", "ns"),
    lo("stats.named_ns", "ns"),
    // netsim::trace, audit, metrics, prof
    lo("trace.jsonl_record_ns", "ns"),
    lo("trace.buffer_record_ns", "ns"),
    lo("trace.records", "1/op"),
    lo("trace.bytes_per_record", "B"),
    lo("trace.discarded", "count"),
    lo("trace.jsonl_share", "ratio"),
    lo("audit.record_ns", "ns"),
    lo("audit.snapshot_us", "us"),
    lo("audit.snapshots", "count"),
    lo("audit.violations", "count"),
    lo("audit.share", "ratio"),
    lo("metrics.share", "ratio"),
    lo("prof.overhead_share", "ratio"),
    // set-up and teardown
    lo("setup.topology_ns_per_node", "ns"),
    lo("setup.sim_new_ns_per_node", "ns"),
    lo("setup.agent_install_ns_per_node", "ns"),
    lo("setup.start_ns_per_node", "ns"),
    lo("setup.first_wave_over_steady", "ratio"),
    lo("setup.allocs_per_node", "1/node"),
    lo("setup.cold_setup_s", "s"),
    lo("setup.prefault_mb", "MB"),
    lo("teardown_s", "s"),
    // netsim::shard
    lo("shard.sync_windows", "count"),
    lo("shard.stall_share", "ratio"),
    hi("shard.observables_equal", "ratio"),
    // the ledger
    hi("budget.explained_share", "ratio"),
    lo("budget.residual_share", "ratio"),
    // window statistics of the traced run itself
    hi("traced.ops_per_s", "1/s"),
    lo("traced.fault_ms_p50", "ms"),
    lo("traced.windows", "count"),
    lo("traced.ops_failed", "count"),
];
