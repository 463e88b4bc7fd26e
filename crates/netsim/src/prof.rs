//! Engine self-profiler: where does wall-clock time go at million-node
//! scale?
//!
//! A run at the paper's scale is decided by which event classes and agent
//! types dominate it, and by how the timer wheel and event queue behave
//! over time. The profiler attributes engine time three ways:
//!
//! * **Per event class** ([`EventClass`]: arrival, timer, link/node/loss
//!   change) — exact event counts, *sampled* wall-time.
//! * **Per agent type** ([`Agent::kind_name`](crate::engine::Agent::kind_name),
//!   the type's name, reported as the snake_case of its last path segment:
//!   `ecmp_router`, `express_host`, …) — the protocol-logic half of the
//!   attribution.
//! * **Per node** — sampled dispatch time by node id, surfacing hot spots
//!   (e.g. the root of a fan-out tree).
//!
//! # Sampled timing
//!
//! Timing every event would double the cost of cheap events (an `Instant`
//! read pair costs ~20–60 ns; a kary-tree forwarding hop is comparable).
//! Instead one event in [`ProfConfig::sample_every`] (default 64, a power
//! of two so the test is a mask) is bracketed with `Instant::now()` calls;
//! per-class totals are estimated as `sampled_ns × count / sampled_hits`.
//! The cost of the clock reads themselves is calibrated at construction
//! ([`Profiler::timer_cost_ns`]) and the profiler's own overhead is
//! reported alongside the numbers it produces, so a profile that perturbed
//! the run it measured says so.
//!
//! # Gauges
//!
//! Every [`ProfConfig::gauge_every`] events the profiler snapshots the
//! pending-event queue depth and the timer wheel's internals — occupied
//! slots, behind-cursor inbox, overflow heap, current drain run (see
//! [`crate::wheel`]) — into a bounded timeline (thinned by doubling the
//! interval when full).
//!
//! Like tracing and metrics, the profiler is **off by default** and costs
//! one branch per event when off. Enable with
//! [`Sim::enable_prof`](crate::engine::Sim::enable_prof), detach with
//! [`Sim::take_prof`](crate::engine::Sim::take_prof), and render or export
//! with [`Profiler::report`] / [`ProfReport::to_json`] (schema `prof/v1`,
//! documented in `docs/OBSERVABILITY.md`; the `prof_report` bin renders
//! either live runs or saved JSON).

use crate::id::NodeId;
use crate::json::{self, Out};
use crate::time::SimTime;
use crate::trace::parse_flat_json_object;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The profiler's event attribution classes — the public face of the
/// engine's (private) event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// A frame delivery dispatched to [`Agent::on_packet`](crate::engine::Agent::on_packet).
    Arrival = 0,
    /// An agent timer fire.
    Timer = 1,
    /// A link up/down transition (including the notification sweeps).
    LinkChange = 2,
    /// A router crash or restart.
    NodeChange = 3,
    /// A loss-probability override flip.
    LossChange = 4,
    /// A delivery expanded from a deferred fan-out event (the batched
    /// data path; see `docs/INTERNALS.md`, cohort batching). Counted per
    /// expanded delivery so totals stay comparable with [`EventClass::Arrival`]
    /// under the eager path.
    Fanout = 5,
}

impl EventClass {
    /// Number of classes (array sizing).
    pub const COUNT: usize = 6;

    /// All classes, in attribution-array order.
    pub const ALL: [EventClass; EventClass::COUNT] = [
        EventClass::Arrival,
        EventClass::Timer,
        EventClass::LinkChange,
        EventClass::NodeChange,
        EventClass::LossChange,
        EventClass::Fanout,
    ];

    /// Stable lowercase label (used in reports and the `prof/v1` schema).
    pub fn as_str(self) -> &'static str {
        match self {
            EventClass::Arrival => "arrival",
            EventClass::Timer => "timer",
            EventClass::LinkChange => "link_change",
            EventClass::NodeChange => "node_change",
            EventClass::LossChange => "loss_change",
            EventClass::Fanout => "fanout",
        }
    }
}

/// Timer-wheel internals snapshotted at gauge time (see [`crate::wheel`]
/// for what each compartment means).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelGauges {
    /// Non-empty slots on the wheel proper.
    pub occupied_slots: usize,
    /// Behind-cursor merge-heap depth (mid-drain re-arms).
    pub inbox: usize,
    /// Beyond-horizon heap depth (long refresh timers).
    pub overflow: usize,
    /// Entries remaining in the bucket being drained.
    pub current_run: usize,
}

/// One gauge snapshot: simulated time, queue depth, wheel internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSample {
    /// Simulated time of the snapshot.
    pub at: SimTime,
    /// Total pending events.
    pub queue_depth: usize,
    /// Wheel compartments.
    pub wheel: WheelGauges,
}

/// Profiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProfConfig {
    /// Time one event in this many (rounded up to a power of two; min 1 =
    /// time every event). Smaller values sharpen the estimate and raise
    /// overhead.
    pub sample_every: u64,
    /// Snapshot queue/wheel gauges every this many events.
    pub gauge_every: u64,
}

impl Default for ProfConfig {
    /// Sample 1/64 events; gauge every 8192. On a multi-million-event run
    /// this keeps self-measured overhead well under 1%.
    fn default() -> Self {
        ProfConfig {
            sample_every: 64,
            gauge_every: 8192,
        }
    }
}

impl ProfConfig {
    /// Set the timing sample interval.
    pub fn sample_every(mut self, n: u64) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// Set the gauge snapshot interval.
    pub fn gauge_every(mut self, n: u64) -> Self {
        self.gauge_every = n.max(1);
        self
    }
}

/// Gauge timeline cap; when full the timeline is thinned 2:1 and the
/// interval doubled, so memory stays bounded on arbitrarily long runs.
const GAUGE_CAP: usize = 4096;

#[derive(Debug, Clone, Copy, Default)]
struct AgentAccum {
    count: u64,
    sampled_ns: u64,
    sampled_hits: u64,
}

impl AgentAccum {
    fn add(&mut self, other: AgentAccum) {
        self.count += other.count;
        self.sampled_ns += other.sampled_ns;
        self.sampled_hits += other.sampled_hits;
    }
}

/// The report label of an agent kind (a [`type_name`](std::any::type_name)):
/// the snake_case of the type's last path segment, generics stripped —
/// `express::router::EcmpRouter` → `ecmp_router`, `spans::Timed<A>` →
/// `timed`. A name that is already a bare label (`blaster`) is itself.
fn kind_label(name: &str) -> String {
    let path = name.split('<').next().unwrap_or(name);
    let ident: Vec<char> = path.rsplit("::").next().unwrap_or(path).chars().collect();
    let mut label = String::with_capacity(ident.len() + 4);
    for (i, &c) in ident.iter().enumerate() {
        if c.is_uppercase() {
            // A word starts at a capital after a lower-case letter or a
            // digit, or at the capital that ends an acronym (`IPHost` →
            // `ip_host`).
            let prev = i.checked_sub(1).map(|j| ident[j]);
            let next_lower = ident.get(i + 1).is_some_and(|n| n.is_lowercase());
            if prev.is_some_and(|p| p.is_lowercase() || p.is_ascii_digit() || (p.is_uppercase() && next_lower)) {
                label.push('_');
            }
            label.extend(c.to_lowercase());
        } else {
            label.push(c);
        }
    }
    label
}

/// The engine self-profiler. Attach with
/// [`Sim::enable_prof`](crate::engine::Sim::enable_prof); the engine calls
/// the `pub(crate)` hooks around every event dispatch.
#[derive(Debug)]
pub struct Profiler {
    sample_mask: u64,
    sample_every: u64,
    gauge_every: u64,
    /// Calibrated cost of one `Instant::now()` + `elapsed()` pair, ns.
    timer_cost_ns: u64,
    created: Instant,
    run_started: Option<Instant>,
    /// Events whose dispatch began (== events dispatched; the end hook
    /// always follows the begin hook).
    seen: u64,
    counts: [u64; EventClass::COUNT],
    sampled_ns: [u64; EventClass::COUNT],
    sampled_hits: [u64; EventClass::COUNT],
    /// Per agent kind, in first-seen order; `last_agent` indexes the kind
    /// of the previous event, which is most often this one's too.
    agents: Vec<(&'static str, AgentAccum)>,
    last_agent: usize,
    node_ns: Vec<u64>,
    node_hits: Vec<u64>,
    gauges: Vec<GaugeSample>,
    peak_queue_depth: usize,
    /// Deferred fan-out pops: how many, how many deliveries they expanded
    /// into, the largest one, and a log2-bucketed size histogram
    /// (`cohort_buckets[i]` counts cohorts of `2^i ..= 2^(i+1)-1`
    /// deliveries; empty cohorts land in bucket 0).
    cohorts: u64,
    cohort_deliveries: u64,
    cohort_max: u64,
    cohort_buckets: [u64; Self::COHORT_BUCKETS],
    /// Conservative-sync bookkeeping (sharded runs only): windows executed
    /// and wall time spent blocked at window barriers.
    sync_windows: u64,
    sync_stall_ns: u64,
}

impl Profiler {
    /// A fresh profiler for a topology of `node_count` nodes. Calibrates
    /// the timer-read cost so the report can state its own overhead.
    pub fn new(cfg: ProfConfig, node_count: usize) -> Self {
        let sample_every = cfg.sample_every.max(1).next_power_of_two();
        let timer_cost_ns = Self::calibrate_timer_cost();
        Profiler {
            sample_mask: sample_every - 1,
            sample_every,
            gauge_every: cfg.gauge_every.max(1),
            timer_cost_ns,
            created: Instant::now(),
            run_started: None,
            seen: 0,
            counts: [0; EventClass::COUNT],
            sampled_ns: [0; EventClass::COUNT],
            sampled_hits: [0; EventClass::COUNT],
            agents: Vec::new(),
            last_agent: 0,
            node_ns: vec![0; node_count],
            node_hits: vec![0; node_count],
            gauges: Vec::new(),
            peak_queue_depth: 0,
            cohorts: 0,
            cohort_deliveries: 0,
            cohort_max: 0,
            cohort_buckets: [0; Self::COHORT_BUCKETS],
            sync_windows: 0,
            sync_stall_ns: 0,
        }
    }

    /// Log2 histogram width: bucket 21 covers cohorts past 2 M deliveries,
    /// beyond the §5.3 million-subscriber tree.
    const COHORT_BUCKETS: usize = 22;

    fn calibrate_timer_cost() -> u64 {
        // Median of a few batches to shrug off a stray preemption.
        let mut batches = [0u64; 5];
        for b in &mut batches {
            let n = 256u32;
            let start = Instant::now();
            let mut sink = 0u64;
            for _ in 0..n {
                let t = Instant::now();
                sink = sink.wrapping_add(t.elapsed().as_nanos() as u64);
            }
            let total = start.elapsed().as_nanos() as u64;
            // `sink` is consumed so the loop can't be optimized away.
            std::hint::black_box(sink);
            *b = (total / n as u64).max(1);
        }
        batches.sort_unstable();
        batches[2]
    }

    /// Calibrated cost of one timing bracket (two clock reads), ns.
    pub fn timer_cost_ns(&self) -> u64 {
        self.timer_cost_ns
    }

    // ---- engine hooks ----------------------------------------------------

    pub(crate) fn event_begin(&mut self) -> Option<Instant> {
        self.seen += 1;
        if self.seen & self.sample_mask == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    pub(crate) fn event_end(
        &mut self,
        class: EventClass,
        node: Option<NodeId>,
        agent: Option<&'static str>,
        started: Option<Instant>,
    ) {
        let ci = class as usize;
        self.counts[ci] += 1;
        let dt = started.map(|t| t.elapsed().as_nanos() as u64);
        if let Some(name) = agent {
            let a = self.agent_mut(name);
            a.count += 1;
            if let Some(ns) = dt {
                a.sampled_ns += ns;
                a.sampled_hits += 1;
            }
        }
        if let Some(ns) = dt {
            self.sampled_ns[ci] += ns;
            self.sampled_hits[ci] += 1;
            if let Some(n) = node {
                self.node_ns[n.index()] += ns;
                self.node_hits[n.index()] += 1;
            }
        }
    }

    /// The accumulator of agent kind `name`. A kind's name is one static
    /// string (its type's `type_name`), so its address finds it; two copies
    /// that spell the same name share an accumulator all the same.
    fn agent_mut(&mut self, name: &'static str) -> &mut AgentAccum {
        let same = |have: &str| std::ptr::eq(have, name);
        if !self.agents.get(self.last_agent).is_some_and(|a| same(a.0)) {
            let found = self.agents.iter().position(|a| same(a.0)).or_else(|| self.agents.iter().position(|a| a.0 == name));
            self.last_agent = found.unwrap_or_else(|| {
                self.agents.push((name, AgentAccum::default()));
                self.agents.len() - 1
            });
        }
        &mut self.agents[self.last_agent].1
    }

    pub(crate) fn gauge_due(&self) -> bool {
        self.seen.is_multiple_of(self.gauge_every)
    }

    pub(crate) fn record_gauges(&mut self, at: SimTime, queue_depth: usize, wheel: WheelGauges) {
        self.peak_queue_depth = self.peak_queue_depth.max(queue_depth);
        self.gauges.push(GaugeSample { at, queue_depth, wheel });
        if self.gauges.len() >= GAUGE_CAP {
            // Thin 2:1 and halve the sampling rate: bounded memory forever.
            let mut i = 0usize;
            self.gauges.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.gauge_every = self.gauge_every.saturating_mul(2);
        }
    }

    /// One deferred fan-out event popped and expanded into `deliveries`
    /// agent dispatches (the batched data path's cohort size).
    pub(crate) fn record_cohort(&mut self, deliveries: u64) {
        self.cohorts += 1;
        self.cohort_deliveries += deliveries;
        self.cohort_max = self.cohort_max.max(deliveries);
        let b = if deliveries == 0 {
            0
        } else {
            (63 - deliveries.leading_zeros() as usize).min(Self::COHORT_BUCKETS - 1)
        };
        self.cohort_buckets[b] += 1;
    }

    /// One conservative-sync window finished; `stall_ns` is the wall time
    /// this shard's worker spent blocked at the window barriers (sharded
    /// runs only — see `docs/INTERNALS.md` §6).
    pub(crate) fn record_sync_window(&mut self, stall_ns: u64) {
        self.sync_windows += 1;
        self.sync_stall_ns += stall_ns;
    }

    pub(crate) fn mark_run_start(&mut self) {
        if self.run_started.is_none() {
            self.run_started = Some(Instant::now());
        }
    }

    /// Fold another shard's profile into this one and drain the source
    /// (the sharded engine's end-of-run merge). Counts, sampled timings,
    /// per-agent and per-node attributions, and cohort/sync totals are
    /// summed; gauge timelines are interleaved by simulated time; peaks
    /// take the max. Phase timestamps and calibration stay from `self`
    /// (the coordinator's shard 0).
    pub(crate) fn absorb(&mut self, other: &mut Profiler) {
        self.seen += std::mem::take(&mut other.seen);
        for i in 0..EventClass::COUNT {
            self.counts[i] += std::mem::take(&mut other.counts[i]);
            self.sampled_ns[i] += std::mem::take(&mut other.sampled_ns[i]);
            self.sampled_hits[i] += std::mem::take(&mut other.sampled_hits[i]);
        }
        for (name, a) in std::mem::take(&mut other.agents) {
            self.agent_mut(name).add(a);
        }
        for (dst, src) in self.node_ns.iter_mut().zip(other.node_ns.iter_mut()) {
            *dst += std::mem::take(src);
        }
        for (dst, src) in self.node_hits.iter_mut().zip(other.node_hits.iter_mut()) {
            *dst += std::mem::take(src);
        }
        if !other.gauges.is_empty() {
            let mut merged = Vec::with_capacity(self.gauges.len() + other.gauges.len());
            let (mut a, mut b) = (
                std::mem::take(&mut self.gauges).into_iter().peekable(),
                std::mem::take(&mut other.gauges).into_iter().peekable(),
            );
            loop {
                match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) => {
                        if x.at <= y.at {
                            merged.push(a.next().unwrap());
                        } else {
                            merged.push(b.next().unwrap());
                        }
                    }
                    (Some(_), None) => merged.push(a.next().unwrap()),
                    (None, Some(_)) => merged.push(b.next().unwrap()),
                    (None, None) => break,
                }
            }
            self.gauges = merged;
        }
        self.peak_queue_depth = self.peak_queue_depth.max(std::mem::take(&mut other.peak_queue_depth));
        self.cohorts += std::mem::take(&mut other.cohorts);
        self.cohort_deliveries += std::mem::take(&mut other.cohort_deliveries);
        self.cohort_max = self.cohort_max.max(std::mem::take(&mut other.cohort_max));
        for i in 0..Self::COHORT_BUCKETS {
            self.cohort_buckets[i] += std::mem::take(&mut other.cohort_buckets[i]);
        }
        self.sync_windows += std::mem::take(&mut other.sync_windows);
        self.sync_stall_ns += std::mem::take(&mut other.sync_stall_ns);
    }

    // ---- reporting -------------------------------------------------------

    /// Snapshot the profile into a [`ProfReport`] (phase durations are
    /// measured up to this call).
    pub fn report(&self) -> ProfReport {
        let now = Instant::now();
        let setup_ns = self
            .run_started
            .map(|r| r.duration_since(self.created).as_nanos() as u64);
        let run_ns = self.run_started.map(|r| now.duration_since(r).as_nanos() as u64);
        let est = |sampled_ns: u64, hits: u64, count: u64| -> u64 {
            if hits == 0 {
                0
            } else {
                ((sampled_ns as u128 * count as u128) / hits as u128) as u64
            }
        };
        let kinds = EventClass::ALL
            .iter()
            .map(|&c| {
                let ci = c as usize;
                KindStat {
                    kind: c.as_str().to_string(),
                    count: self.counts[ci],
                    sampled_hits: self.sampled_hits[ci],
                    sampled_ns: self.sampled_ns[ci],
                    est_total_ns: est(self.sampled_ns[ci], self.sampled_hits[ci], self.counts[ci]),
                }
            })
            .collect();
        let mut by_label: BTreeMap<String, AgentAccum> = BTreeMap::new();
        for &(name, a) in &self.agents {
            by_label.entry(kind_label(name)).or_default().add(a);
        }
        let agents: Vec<KindStat> = by_label
            .into_iter()
            .map(|(kind, a)| KindStat {
                kind,
                count: a.count,
                sampled_hits: a.sampled_hits,
                sampled_ns: a.sampled_ns,
                est_total_ns: est(a.sampled_ns, a.sampled_hits, a.count),
            })
            .collect();
        let mut hot: Vec<NodeStat> = self
            .node_ns
            .iter()
            .zip(&self.node_hits)
            .enumerate()
            .filter(|(_, (&ns, &hits))| ns > 0 || hits > 0)
            .map(|(i, (&ns, &hits))| NodeStat {
                node: i as u32,
                sampled_hits: hits,
                sampled_ns: ns,
            })
            .collect();
        hot.sort_by(|a, b| b.sampled_ns.cmp(&a.sampled_ns).then(a.node.cmp(&b.node)));
        hot.truncate(16);
        // Self-overhead: every event pays the begin/end bookkeeping; the
        // sampled ones additionally pay the two clock reads. The clock
        // reads dominate, so that is what we account.
        let sampled_total: u64 = self.sampled_hits.iter().sum();
        let overhead_ns = sampled_total.saturating_mul(self.timer_cost_ns);
        ProfReport {
            events: self.seen,
            sample_every: self.sample_every,
            timer_cost_ns: self.timer_cost_ns,
            setup_ns,
            run_ns,
            kinds,
            agents,
            hot_nodes: hot,
            gauges: self.gauges.clone(),
            peak_queue_depth: self.peak_queue_depth,
            overhead_ns,
            fanout_cohorts: self.cohorts,
            fanout_deliveries: self.cohort_deliveries,
            fanout_max_cohort: self.cohort_max,
            fanout_size_pow2: self
                .cohort_buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
            sync_windows: self.sync_windows,
            sync_stall_ns: self.sync_stall_ns,
        }
    }
}

/// Attribution for one event class or agent type: exact count, sampled
/// timing, and the extrapolated total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindStat {
    /// Class label ([`EventClass::as_str`]) or agent kind name.
    pub kind: String,
    /// Exact number of events dispatched.
    pub count: u64,
    /// How many of them were timed.
    pub sampled_hits: u64,
    /// Wall time of the timed ones, ns.
    pub sampled_ns: u64,
    /// `sampled_ns × count / sampled_hits` — the estimated total, ns.
    pub est_total_ns: u64,
}

/// Sampled dispatch time attributed to one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStat {
    /// The node id.
    pub node: u32,
    /// Timed dispatches into this node.
    pub sampled_hits: u64,
    /// Their wall time, ns.
    pub sampled_ns: u64,
}

/// A rendered-or-exportable profile snapshot (schema `prof/v1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfReport {
    /// Events dispatched under the profiler.
    pub events: u64,
    /// Timing sample interval (power of two).
    pub sample_every: u64,
    /// Calibrated clock-read-pair cost, ns.
    pub timer_cost_ns: u64,
    /// Wall time from profiler attach to the start of the run phase, ns.
    pub setup_ns: Option<u64>,
    /// Wall time of the run phase up to the report, ns.
    pub run_ns: Option<u64>,
    /// Per-event-class attribution, in [`EventClass::ALL`] order.
    pub kinds: Vec<KindStat>,
    /// Per-agent-type attribution, sorted by name.
    pub agents: Vec<KindStat>,
    /// Hottest nodes by sampled time (top 16).
    pub hot_nodes: Vec<NodeStat>,
    /// The gauge timeline.
    pub gauges: Vec<GaugeSample>,
    /// Highest queue depth seen at a gauge point.
    pub peak_queue_depth: usize,
    /// The profiler's estimated self-cost (clock reads), ns.
    pub overhead_ns: u64,
    /// Deferred fan-out pops (batched cohort expansions).
    pub fanout_cohorts: u64,
    /// Total deliveries those cohorts expanded into.
    pub fanout_deliveries: u64,
    /// Deliveries in the largest single cohort.
    pub fanout_max_cohort: u64,
    /// Cohort-size histogram: `(p, cohorts)` pairs where `p` is
    /// `floor(log2(deliveries))` — the non-empty power-of-two buckets,
    /// ascending.
    pub fanout_size_pow2: Vec<(u32, u64)>,
    /// Conservative-sync windows executed (sharded runs; 0 at one shard, which meets no barrier).
    pub sync_windows: u64,
    /// Wall time all shard workers spent blocked at window barriers, ns.
    pub sync_stall_ns: u64,
}

impl ProfReport {
    /// Serialize as `prof/v1`: a flat `prof_header` object followed by one
    /// flat object per line for kinds / agents / nodes / gauges — the same
    /// line-oriented shape as the trace JSONL, parseable with
    /// [`parse_flat_json_object`].
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(1024 + self.gauges.len() * 64);
        // One flat object of unsigned fields: `open`, already JSON up to
        // its first value, then `,"key":value` for each of the rest.
        fn line(out: &mut Vec<u8>, open: &[u8], first: u64, rest: &[(&str, u64)]) {
            json::num(out, open, first);
            for &(key, v) in rest {
                json::field_u64(out, key, v);
            }
        }
        line(
            &mut out,
            b"{\"schema\":\"prof/v1\",\"events\":",
            self.events,
            &[
                ("sample_every", self.sample_every),
                ("timer_cost_ns", self.timer_cost_ns),
                ("peak_queue_depth", self.peak_queue_depth as u64),
                ("overhead_ns", self.overhead_ns),
            ],
        );
        if let Some(s) = self.setup_ns {
            json::field_u64(&mut out, "setup_ns", s);
        }
        if let Some(r) = self.run_ns {
            json::field_u64(&mut out, "run_ns", r);
        }
        if self.fanout_cohorts > 0 {
            json::field_u64(&mut out, "fanout_cohorts", self.fanout_cohorts);
            json::field_u64(&mut out, "fanout_deliveries", self.fanout_deliveries);
            json::field_u64(&mut out, "fanout_max_cohort", self.fanout_max_cohort);
        }
        if self.sync_windows > 0 {
            json::field_u64(&mut out, "sync_windows", self.sync_windows);
            json::field_u64(&mut out, "sync_stall_ns", self.sync_stall_ns);
        }
        out.put(b"}\n");
        for &(p, n) in &self.fanout_size_pow2 {
            line(&mut out, b"{\"cohort_pow2\":", p.into(), &[("cohorts", n)]);
            out.put(b"}\n");
        }
        for (label, stats) in [("{\"kind\":", &self.kinds), ("{\"agent\":", &self.agents)] {
            for k in stats {
                out.put(label.as_bytes());
                json::string(&mut out, &k.kind);
                line(
                    &mut out,
                    b",\"count\":",
                    k.count,
                    &[("sampled", k.sampled_hits), ("sampled_ns", k.sampled_ns), ("est_ns", k.est_total_ns)],
                );
                out.put(b"}\n");
            }
        }
        for n in &self.hot_nodes {
            line(&mut out, b"{\"node\":", n.node.into(), &[("sampled", n.sampled_hits), ("sampled_ns", n.sampled_ns)]);
            out.put(b"}\n");
        }
        for g in &self.gauges {
            line(
                &mut out,
                b"{\"gauge_t_us\":",
                g.at.micros(),
                &[
                    ("queue", g.queue_depth as u64),
                    ("occupied", g.wheel.occupied_slots as u64),
                    ("inbox", g.wheel.inbox as u64),
                    ("overflow", g.wheel.overflow as u64),
                    ("current", g.wheel.current_run as u64),
                ],
            );
            out.put(b"}\n");
        }
        json::into_string(out)
    }

    /// Parse a `prof/v1` document written by [`to_json`](Self::to_json).
    /// Unknown lines are skipped; returns `None` if the header is missing.
    pub fn from_json(text: &str) -> Option<ProfReport> {
        let mut report: Option<ProfReport> = None;
        for line in text.lines() {
            let Some(m) = parse_flat_json_object(line) else { continue };
            let get = |k: &str| m.get(k).and_then(|v| v.parse::<u64>().ok());
            if m.get("schema").map(String::as_str) == Some("prof/v1") {
                report = Some(ProfReport {
                    events: get("events")?,
                    sample_every: get("sample_every").unwrap_or(1),
                    timer_cost_ns: get("timer_cost_ns").unwrap_or(0),
                    setup_ns: get("setup_ns"),
                    run_ns: get("run_ns"),
                    kinds: Vec::new(),
                    agents: Vec::new(),
                    hot_nodes: Vec::new(),
                    gauges: Vec::new(),
                    peak_queue_depth: get("peak_queue_depth").unwrap_or(0) as usize,
                    overhead_ns: get("overhead_ns").unwrap_or(0),
                    fanout_cohorts: get("fanout_cohorts").unwrap_or(0),
                    fanout_deliveries: get("fanout_deliveries").unwrap_or(0),
                    fanout_max_cohort: get("fanout_max_cohort").unwrap_or(0),
                    fanout_size_pow2: Vec::new(),
                    sync_windows: get("sync_windows").unwrap_or(0),
                    sync_stall_ns: get("sync_stall_ns").unwrap_or(0),
                });
                continue;
            }
            let Some(r) = &mut report else { continue };
            if let Some(p) = get("cohort_pow2") {
                r.fanout_size_pow2.push((p as u32, get("cohorts").unwrap_or(0)));
            } else if let Some(kind) = m.get("kind") {
                r.kinds.push(KindStat {
                    kind: kind.clone(),
                    count: get("count").unwrap_or(0),
                    sampled_hits: get("sampled").unwrap_or(0),
                    sampled_ns: get("sampled_ns").unwrap_or(0),
                    est_total_ns: get("est_ns").unwrap_or(0),
                });
            } else if let Some(agent) = m.get("agent") {
                r.agents.push(KindStat {
                    kind: agent.clone(),
                    count: get("count").unwrap_or(0),
                    sampled_hits: get("sampled").unwrap_or(0),
                    sampled_ns: get("sampled_ns").unwrap_or(0),
                    est_total_ns: get("est_ns").unwrap_or(0),
                });
            } else if m.contains_key("node") {
                r.hot_nodes.push(NodeStat {
                    node: get("node")? as u32,
                    sampled_hits: get("sampled").unwrap_or(0),
                    sampled_ns: get("sampled_ns").unwrap_or(0),
                });
            } else if m.contains_key("gauge_t_us") {
                r.gauges.push(GaugeSample {
                    at: SimTime(get("gauge_t_us")?),
                    queue_depth: get("queue").unwrap_or(0) as usize,
                    wheel: WheelGauges {
                        occupied_slots: get("occupied").unwrap_or(0) as usize,
                        inbox: get("inbox").unwrap_or(0) as usize,
                        overflow: get("overflow").unwrap_or(0) as usize,
                        current_run: get("current").unwrap_or(0) as usize,
                    },
                });
            }
        }
        report
    }

    /// Render the human-readable report: top event kinds, per-agent-type
    /// attribution, hottest nodes, the queue-depth timeline, and the
    /// self-measured overhead line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(out, "== engine self-profile ==");
        let _ = writeln!(
            out,
            "events {} | timing 1/{} sampled | clock-pair cost ~{} ns",
            self.events, self.sample_every, self.timer_cost_ns
        );
        match (self.setup_ns, self.run_ns) {
            (Some(s), Some(r)) => {
                let _ = writeln!(out, "phases: setup {:.1} ms, run {:.1} ms", ms(s), ms(r));
            }
            (Some(s), None) => {
                let _ = writeln!(out, "phases: setup {:.1} ms (run not started)", ms(s));
            }
            _ => {}
        }
        let total_est: u64 = self.kinds.iter().map(|k| k.est_total_ns).sum();
        let _ = writeln!(out, "\n-- per event kind --");
        let mut kinds: Vec<&KindStat> = self.kinds.iter().filter(|k| k.count > 0).collect();
        kinds.sort_by_key(|k| std::cmp::Reverse(k.est_total_ns));
        for k in kinds {
            let share = if total_est > 0 {
                100.0 * k.est_total_ns as f64 / total_est as f64
            } else {
                0.0
            };
            let per = k.sampled_ns.checked_div(k.sampled_hits).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<12} {:>12} ev  est {:>9.1} ms ({:>5.1}%)  ~{} ns/ev",
                k.kind, k.count, ms(k.est_total_ns), share, per
            );
        }
        if !self.agents.is_empty() {
            let _ = writeln!(out, "\n-- per agent type --");
            let mut agents: Vec<&KindStat> = self.agents.iter().collect();
            agents.sort_by_key(|a| std::cmp::Reverse(a.est_total_ns));
            for a in agents {
                let per = a.sampled_ns.checked_div(a.sampled_hits).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{:<16} {:>12} ev  est {:>9.1} ms  ~{} ns/ev",
                    a.kind, a.count, ms(a.est_total_ns), per
                );
            }
        }
        if !self.hot_nodes.is_empty() {
            let _ = writeln!(out, "\n-- hottest nodes (sampled) --");
            for n in self.hot_nodes.iter().take(10) {
                let _ = writeln!(
                    out,
                    "node {:<8} {:>8} samples  {:>9.2} ms",
                    n.node, n.sampled_hits, ms(n.sampled_ns)
                );
            }
        }
        if self.fanout_cohorts > 0 {
            let _ = writeln!(out, "\n-- fan-out cohort sizes (deliveries per deferred pop) --");
            let avg = self.fanout_deliveries as f64 / self.fanout_cohorts as f64;
            let _ = writeln!(
                out,
                "{} cohorts, {} deliveries (avg {:.1}/cohort, max {})",
                self.fanout_cohorts, self.fanout_deliveries, avg, self.fanout_max_cohort
            );
            let max_b = self.fanout_size_pow2.iter().map(|&(_, n)| n).max().unwrap_or(1).max(1);
            for &(p, n) in &self.fanout_size_pow2 {
                let bar = "#".repeat(((n as usize) * 30).div_ceil(max_b as usize).min(30));
                let _ = writeln!(out, "2^{p:<2} ..  {n:>10} cohorts |{bar}");
            }
        }
        if self.sync_windows > 0 {
            let avg_us = self.sync_stall_ns as f64 / self.sync_windows as f64 / 1e3;
            let _ = writeln!(
                out,
                "\n-- conservative sync --\n{} windows, {:.2} ms total barrier stall (~{:.1} \u{b5}s/window)",
                self.sync_windows,
                ms(self.sync_stall_ns),
                avg_us
            );
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n-- queue depth / wheel occupancy timeline --");
            let _ = writeln!(out, "peak queue depth {}", self.peak_queue_depth);
            let max_q = self.gauges.iter().map(|g| g.queue_depth).max().unwrap_or(1).max(1);
            // Up to 20 evenly spaced samples as a coarse bar chart.
            let n = self.gauges.len();
            let step = n.div_ceil(20).max(1);
            for g in self.gauges.iter().step_by(step) {
                let bar = "#".repeat((g.queue_depth * 40).div_ceil(max_q).min(40));
                let _ = writeln!(
                    out,
                    "t={:>12} q={:<9} slots={:<6} inbox={:<4} ovf={:<7} |{}",
                    g.at.micros(),
                    g.queue_depth,
                    g.wheel.occupied_slots,
                    g.wheel.inbox,
                    g.wheel.overflow,
                    bar
                );
            }
        }
        let run = self.run_ns.unwrap_or(0);
        let share = if run > 0 {
            100.0 * self.overhead_ns as f64 / run as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "\nself-measured overhead: ~{:.2} ms of clock reads ({:.2}% of run wall)",
            ms(self.overhead_ns),
            share
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_and_timing_is_sampled() {
        let mut p = Profiler::new(ProfConfig::default().sample_every(4), 8);
        p.mark_run_start();
        for i in 0..100u64 {
            let t0 = p.event_begin();
            // 1/4 sampling: exactly every 4th begin returns a start stamp.
            assert_eq!(t0.is_some(), (i + 1) % 4 == 0);
            p.event_end(EventClass::Arrival, Some(NodeId(i as u32 % 8)), Some("echo"), t0);
        }
        let t0 = p.event_begin();
        p.event_end(EventClass::Timer, Some(NodeId(0)), Some("echo"), t0);
        let r = p.report();
        assert_eq!(r.events, 101);
        let arrivals = r.kinds.iter().find(|k| k.kind == "arrival").unwrap();
        assert_eq!(arrivals.count, 100);
        assert_eq!(arrivals.sampled_hits, 25);
        let timers = r.kinds.iter().find(|k| k.kind == "timer").unwrap();
        assert_eq!(timers.count, 1);
        let echo = r.agents.iter().find(|a| a.kind == "echo").unwrap();
        assert_eq!(echo.count, 101);
        assert!(r.setup_ns.is_some() && r.run_ns.is_some());
    }

    mod nested {
        pub struct IPHost;
        pub struct Wrapper<A>(pub A);
    }

    #[test]
    fn an_agent_kind_renders_as_its_types_last_segment_in_snake_case() {
        use std::any::type_name;
        assert_eq!(kind_label(type_name::<nested::IPHost>()), "ip_host");
        assert_eq!(kind_label(type_name::<nested::Wrapper<nested::IPHost>>()), "wrapper");
        assert_eq!(kind_label("express::router::EcmpRouter"), "ecmp_router");
        assert_eq!(kind_label("relay::SessionRelayHost"), "session_relay_host");
        assert_eq!(kind_label("baselines::igmp::IGMPQuerier"), "igmp_querier");
        assert_eq!(kind_label("accounting_sink"), "accounting_sink");
        // Two types that render alike report as one row.
        let mut p = Profiler::new(ProfConfig::default(), 1);
        for name in ["a::EcmpRouter", "b::EcmpRouter", "a::EcmpRouter"] {
            let t0 = p.event_begin();
            p.event_end(EventClass::Timer, None, Some(name), t0);
        }
        let labels: Vec<_> = p.report().agents.iter().map(|a| (a.kind.clone(), a.count)).collect();
        assert_eq!(labels, [("ecmp_router".to_string(), 3)]);
    }

    #[test]
    fn gauge_timeline_is_bounded() {
        let mut p = Profiler::new(ProfConfig::default(), 1);
        let initial_every = p.gauge_every;
        for i in 0..(GAUGE_CAP as u64 * 3) {
            p.record_gauges(SimTime(i), i as usize, WheelGauges::default());
        }
        assert!(p.gauges.len() < GAUGE_CAP);
        assert!(p.gauge_every > initial_every);
        assert_eq!(p.report().peak_queue_depth, GAUGE_CAP * 3 - 1);
    }

    #[test]
    fn report_json_round_trips() {
        let mut p = Profiler::new(ProfConfig::default().sample_every(1), 4);
        p.mark_run_start();
        for i in 0..16u64 {
            let t0 = p.event_begin();
            p.event_end(EventClass::Arrival, Some(NodeId(0)), Some("blaster"), t0);
            p.record_gauges(SimTime(i), 5, WheelGauges { occupied_slots: 2, inbox: 1, overflow: 3, current_run: 4 });
        }
        let r = p.report();
        let parsed = ProfReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
        // And the render never panics and mentions the headline sections.
        let text = r.render();
        assert!(text.contains("per event kind"));
        assert!(text.contains("self-measured overhead"));
    }

    #[test]
    fn cohort_distribution_buckets_and_round_trips() {
        let mut p = Profiler::new(ProfConfig::default(), 2);
        p.mark_run_start();
        for d in [0u64, 1, 1, 3, 1_048_576] {
            p.record_cohort(d);
        }
        let r = p.report();
        assert_eq!(r.fanout_cohorts, 5);
        assert_eq!(r.fanout_deliveries, 1_048_581);
        assert_eq!(r.fanout_max_cohort, 1_048_576);
        // d=0,1,1 land in bucket 0; d=3 in bucket 1; 2^20 in bucket 20.
        assert_eq!(r.fanout_size_pow2, vec![(0, 3), (1, 1), (20, 1)]);
        let parsed = ProfReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
        let text = r.render();
        assert!(text.contains("fan-out cohort sizes"));
        assert!(text.contains("max 1048576"));
    }

    #[test]
    fn absorb_sums_counts_and_drains_source() {
        let mut a = Profiler::new(ProfConfig::default().sample_every(1), 4);
        let mut b = Profiler::new(ProfConfig::default().sample_every(1), 4);
        a.mark_run_start();
        for _ in 0..3 {
            let t0 = a.event_begin();
            a.event_end(EventClass::Arrival, Some(NodeId(1)), Some("echo"), t0);
        }
        for _ in 0..5 {
            let t0 = b.event_begin();
            b.event_end(EventClass::Timer, Some(NodeId(2)), Some("echo"), t0);
        }
        a.record_gauges(SimTime(10), 4, WheelGauges::default());
        b.record_gauges(SimTime(5), 9, WheelGauges::default());
        b.record_sync_window(1_000);
        b.record_sync_window(2_000);
        a.absorb(&mut b);
        let r = a.report();
        assert_eq!(r.events, 8);
        assert_eq!(r.kinds.iter().find(|k| k.kind == "arrival").unwrap().count, 3);
        assert_eq!(r.kinds.iter().find(|k| k.kind == "timer").unwrap().count, 5);
        assert_eq!(r.agents.iter().find(|k| k.kind == "echo").unwrap().count, 8);
        // Gauges interleave by simulated time; peak takes the max.
        assert_eq!(r.gauges.iter().map(|g| g.at.0).collect::<Vec<_>>(), vec![5, 10]);
        assert_eq!(r.peak_queue_depth, 9);
        assert_eq!((r.sync_windows, r.sync_stall_ns), (2, 3_000));
        // The source is drained but still usable.
        assert_eq!(b.report().events, 0);
        let parsed = ProfReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
        assert!(r.render().contains("conservative sync"));
    }

    #[test]
    fn from_json_skips_garbage_and_requires_header() {
        assert!(ProfReport::from_json("").is_none());
        assert!(ProfReport::from_json("{\"kind\":\"arrival\",\"count\":3}").is_none());
        let text = "{\"schema\":\"prof/v1\",\"events\":7}\nnot json\n{\"kind\":\"arrival\",\"count\":3,\"sampled\":1,\"sampled_ns\":9,\"est_ns\":27}\n";
        let r = ProfReport::from_json(text).unwrap();
        assert_eq!(r.events, 7);
        assert_eq!(r.kinds.len(), 1);
        assert_eq!(r.kinds[0].est_total_ns, 27);
    }
}
