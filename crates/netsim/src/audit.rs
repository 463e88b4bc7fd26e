//! Online protocol auditor: streaming invariant checks over the live trace.
//!
//! The trace layer already carries everything needed to *prove* the paper's
//! correctness story per run — data stays on the single-source tree (§2),
//! counts converge to subscriber truth within `e_max` (§3.2/§5), recovery
//! completes within the `docs/FAILURE_MODEL.md` bounds. [`Auditor`] is a
//! [`TraceSink`] that checks those invariants while the run executes:
//! attach it beside the capture sink with
//! [`Sim::add_trace_sink`](crate::engine::Sim::add_trace_sink) (which tees
//! the stream), and it costs *nothing* when not attached — the engine's
//! trace path is untouched.
//!
//! Checks, each with a stable id cross-referenced from
//! `docs/FAILURE_MODEL.md`:
//!
//! | id | invariant |
//! |----|-----------|
//! | **A1** | on-tree: every data transmission uses only links on the channel's current source tree (evaluated against engine snapshots at checkpoints) |
//! | **A2** | no-dup / no-loop: at most one delivery per (causal root, receiver); no repeated transmission of one causal chain over the same (node, link) |
//! | **A3** | count convergence: per-router advertised counts match validated downstream sums, and the root's advertised count matches subscriber truth, within a configured slack (evaluated at quiescent checkpoints) |
//! | **A4** | recovery bounds: post-fault reconvergence times and delivery gaps stay within [`RecoveryBounds`] (evaluated once, at [`finish`](TraceSink::finish)) |
//!
//! A violation is a structured [`AuditViolation`]: the check id, the causal
//! root, the offending event, and a bounded window of preceding events on
//! that chain (breach localization). [`Auditor::report`] renders the
//! verdict plus a per-run health summary as text or `audit/v1` JSON lines
//! (schema in `docs/OBSERVABILITY.md`).
//!
//! The auditor needs the **unsampled** stream: causal sampling
//! ([`TraceConfig::sample_one_in`]) would hide entire chains from the
//! checks, so [`TraceSink::on_attach`] panics if sampling is configured.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

use crate::id::{IfaceId, LinkId, NodeId};
use crate::json::{self, Out};
use crate::metrics::{Histogram, Metrics, MetricsConfig, DEFAULT_LATENCY_BOUNDS_US};
use crate::stats::TrafficClass;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{write_jsonl_line, PacketId, ProtoEvent, TraceConfig, TraceEvent, TraceKind, TraceSink, Tee};

/// `audit/v1` — the report schema version.
pub const AUDIT_SCHEMA: &str = "audit/v1";

// ---- snapshot types (filled in by the engine) ----------------------------

/// One multicast route as an agent reports it for auditing: the forwarding
/// state the node *intends*, independent of the FIB actually driving its
/// data path — which is exactly what lets the auditor catch a corrupted
/// FIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRoute {
    /// Channel / group label (the [`Display`](std::fmt::Display) form used
    /// in trace events, e.g. `(10.0.0.5, 232.0.0.1)`).
    pub channel: String,
    /// Interfaces data is forwarded out of, as a bitmask (bit `i` =
    /// interface `i`).
    pub oif_mask: u64,
    /// The interface toward the source, if the protocol tracks one.
    pub upstream_iface: Option<IfaceId>,
    /// The subscriber count this node advertises upstream (EXPRESS ECMP
    /// counting; `None` for protocols without counts).
    pub advertised: Option<u64>,
    /// The sum of validated downstream counts (what `advertised` should
    /// equal after quiescence; `None` for protocols without counts).
    pub downstream_sum: Option<u64>,
}

/// A channel / group label for [`AuditRoute::channel`] and the
/// [`AuditNodeState`] lists: `channel`'s `Display` form, written into a
/// string sized for it up front. A snapshot renders one per route and
/// subscription of every node; grown from empty each costs three
/// allocations, not one.
pub fn label(channel: impl std::fmt::Display) -> String {
    let mut label = String::with_capacity(32);
    let _ = write!(label, "{channel}");
    label
}

/// What one node reports for auditing: its routes plus its host-side
/// subscribe/source state. Returned by
/// [`Agent::audit_state`](crate::engine::Agent::audit_state); nodes that
/// return `None` are exempt from per-node checks (the auditor cannot know
/// their tree).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditNodeState {
    /// Router-side per-channel forwarding intent.
    pub routes: Vec<AuditRoute>,
    /// Host-side: channels this node is a confirmed subscriber of
    /// (label format must match [`AuditRoute::channel`]).
    pub subscribed: Vec<String>,
    /// Host-side: channels this node sources data on, with the source's
    /// own subscriber estimate when the protocol maintains one.
    pub sourcing: Vec<(String, Option<u64>)>,
}

/// Per-channel ground truth assembled from an engine sweep of
/// [`AuditNodeState`]s, resolved against the topology.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelTruth {
    /// Every router's `(node, advertised, downstream_sum)` for this
    /// channel, when both counts are reported.
    pub routers: Vec<(NodeId, u64, u64)>,
    /// The root router's advertised count — the router whose upstream
    /// interface faces a host sourcing this channel.
    pub root_advertised: Option<(NodeId, u64)>,
    /// How many audited hosts are subscribed to this channel right now.
    pub subscribers: u64,
    /// The source host's own subscriber estimate, when it has one.
    pub source_estimate: Option<(NodeId, u64)>,
}

/// A point-in-time view of protocol truth, captured by
/// [`Sim::audit_snapshot`](crate::engine::Sim::audit_snapshot) and fed to
/// [`Auditor::apply_snapshot`]. Drives A1 (allowed transmission set) and
/// A3 (count truth).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Nodes that reported audit state — transmissions by any other node
    /// are exempt from A1 (the auditor cannot know their tree).
    pub audited: BTreeSet<NodeId>,
    /// `(node, link)` pairs on some channel's current source tree: the
    /// only places an audited node may put *data* traffic on the wire.
    pub allowed: BTreeSet<(NodeId, LinkId)>,
    /// Per-channel count truth, keyed by channel label.
    pub channels: BTreeMap<String, ChannelTruth>,
}

// ---- violations ----------------------------------------------------------

/// Which invariant family a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuditCheck {
    /// A1 — data stays on the source tree.
    OnTree,
    /// A2 — no duplicate delivery, no forwarding loop.
    NoDupNoLoop,
    /// A3 — advertised counts converge to subscriber truth.
    CountConvergence,
    /// A4 — post-fault recovery within the failure-model bounds.
    RecoveryBounds,
}

impl AuditCheck {
    /// The stable id used in reports and `docs/FAILURE_MODEL.md` ("A1" …
    /// "A4").
    pub fn id(self) -> &'static str {
        match self {
            AuditCheck::OnTree => "A1",
            AuditCheck::NoDupNoLoop => "A2",
            AuditCheck::CountConvergence => "A3",
            AuditCheck::RecoveryBounds => "A4",
        }
    }
}

impl std::fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One invariant breach, localized: which check, when, on which causal
/// chain, the offending event, and a bounded window of the chain's
/// preceding events.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// The check that fired.
    pub check: AuditCheck,
    /// Simulated time of the breach (for checkpoint checks: the snapshot
    /// time).
    pub at: SimTime,
    /// The causal root of the offending chain, when the breach is tied to
    /// one.
    pub root: Option<PacketId>,
    /// One-line human-readable description.
    pub summary: String,
    /// The event that tripped the check, when the breach is event-shaped.
    pub offending: Option<TraceEvent>,
    /// Up to [`AuditConfig::window_len`] preceding events on the same
    /// causal chain, oldest first.
    pub window: Vec<TraceEvent>,
}

// ---- configuration -------------------------------------------------------

/// Per-protocol recovery bounds for the A4 check, mirroring the bounds
/// table in `docs/FAILURE_MODEL.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryBounds {
    /// Maximum allowed reconvergence time after any fault mark (first
    /// delivery after the fault). A fault with *no* subsequent delivery
    /// violates too, unless it lands within `max_reconvergence` of
    /// `stream_end`.
    pub max_reconvergence: SimDuration,
    /// Maximum allowed delivery gap inside the steady-state stream window.
    pub max_gap: SimDuration,
    /// Start of the window in which deliveries are expected.
    pub stream_start: SimTime,
    /// End of the window in which deliveries are expected.
    pub stream_end: SimTime,
}

/// Configuration for [`Auditor`].
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Events of breach-localization context kept per causal chain.
    pub window_len: usize,
    /// Causal chains tracked concurrently (oldest evicted first).
    pub max_roots: usize,
    /// Allowed absolute difference in the A3 count comparisons — the
    /// quiescent `e_max` tolerance (0 = exact).
    pub count_slack: u64,
    /// When set, A4 is evaluated at [`finish`](TraceSink::finish).
    pub recovery: Option<RecoveryBounds>,
    /// Check families switched off for this run. Empty by default; used
    /// for protocols whose correct behavior legally breaks an invariant
    /// (e.g. PIM-SM's register tunnel duplicates data during the
    /// register→native transition, so its runs waive A2).
    pub disabled: Vec<AuditCheck>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            window_len: 8,
            max_roots: 4096,
            count_slack: 0,
            recovery: None,
            disabled: Vec::new(),
        }
    }
}

impl AuditConfig {
    /// Set the per-chain breach-localization window length.
    pub fn window_len(mut self, n: usize) -> Self {
        self.window_len = n;
        self
    }

    /// Set how many causal chains are tracked concurrently.
    pub fn max_roots(mut self, n: usize) -> Self {
        self.max_roots = n.max(1);
        self
    }

    /// Set the A3 count tolerance.
    pub fn count_slack(mut self, slack: u64) -> Self {
        self.count_slack = slack;
        self
    }

    /// Enable the A4 check with the given bounds.
    pub fn recovery_bounds(mut self, bounds: RecoveryBounds) -> Self {
        self.recovery = Some(bounds);
        self
    }

    /// Switch a check family off for this run.
    pub fn disable(mut self, check: AuditCheck) -> Self {
        if !self.disabled.contains(&check) {
            self.disabled.push(check);
        }
        self
    }

    /// Is `check` active under this configuration?
    pub fn enabled(&self, check: AuditCheck) -> bool {
        !self.disabled.contains(&check)
    }
}

// ---- the auditor ---------------------------------------------------------

/// A set of small integers, 64 to a word, as `(word number, bits)` pairs
/// sorted by word number. Memory follows the words touched rather than the
/// largest member — ids the engine numbers densely pack 64 to a pair, and an
/// id a garbled capture invents costs one pair — and ids arrive in runs, so
/// the word last asked about, or the one after it, usually answers without
/// a search.
#[derive(Debug, Default)]
struct SparseBits {
    words: Vec<(u32, u64)>,
    near: usize,
}

impl SparseBits {
    /// Where word `w` is (`Ok`), or where it would go (`Err`).
    fn find(&mut self, w: u32) -> Result<usize, usize> {
        let near = [self.near, self.near + 1].into_iter().find(|&at| self.words.get(at).is_some_and(|e| e.0 == w));
        let found = near.map_or_else(|| self.words.binary_search_by_key(&w, |e| e.0), Ok);
        let (Ok(at) | Err(at)) = found;
        self.near = at;
        found
    }

    /// Add `i`; `true` if it was not a member.
    fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = ((i / 64) as u32, 1u64 << (i % 64));
        let at = self.find(w).unwrap_or_else(|at| {
            self.words.insert(at, (w, 0));
            at
        });
        let bits = &mut self.words[at].1;
        let new = *bits & bit == 0;
        *bits |= bit;
        new
    }

    fn remove(&mut self, i: usize) {
        if let Ok(at) = self.find((i / 64) as u32) {
            self.words[at].1 &= !(1 << (i % 64));
        }
    }

    fn contains(&mut self, i: usize) -> bool {
        self.find((i / 64) as u32).is_ok_and(|at| self.words[at].1 & (1 << (i % 64)) != 0)
    }

    fn clear(&mut self) {
        self.words.clear();
    }
}

/// Per-causal-chain streaming state: two bit sets and a ring, a few hundred
/// bytes for a chain that crosses a few thousand links.
#[derive(Debug, Default)]
struct Chain {
    root: u64,
    /// Receivers that already got a delivery from this chain (A2 dup), by
    /// node id.
    delivered: SparseBits,
    /// `(node, link)` transmissions already seen on this chain (A2 loop),
    /// by pair index (see [`Auditor::pair_index`]) …
    tx: SparseBits,
    /// … and the pairs that have none.
    tx_unindexed: BTreeSet<(NodeId, LinkId)>,
    /// The chain's last [`AuditConfig::window_len`] events, a ring written
    /// at `pushed % window_len`.
    window: Vec<TraceEvent>,
    pushed: usize,
}

impl Chain {
    /// The window, oldest event first.
    fn window(&self) -> Vec<TraceEvent> {
        let oldest = self.pushed % self.window.len().max(1);
        self.window[oldest..].iter().chain(&self.window[..oldest]).cloned().collect()
    }
}

/// Per-run event counts for the health summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditHealth {
    /// `pkt_tx` records seen.
    pub pkt_tx: u64,
    /// `pkt_rx` records seen.
    pub pkt_rx: u64,
    /// `drop` records seen.
    pub drops: u64,
    /// `timer` records seen.
    pub timers: u64,
    /// `topo` records seen.
    pub topo: u64,
    /// `proto` records seen.
    pub proto: u64,
    /// Distinct data-plane causal roots (original sends).
    pub data_roots: u64,
    /// Watched-counter deliveries observed.
    pub deliveries: u64,
}

impl AuditHealth {
    /// Total records seen.
    pub fn events(&self) -> u64 {
        self.pkt_tx + self.pkt_rx + self.drops + self.timers + self.topo + self.proto
    }
}

/// One entry of a node's report, its channel label interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fact {
    /// An [`AuditRoute`]'s counts, and the link its upstream interface is on.
    Route { chan: u32, advertised: Option<u64>, downstream_sum: Option<u64>, upstream: Option<LinkId> },
    Subscribed(u32),
    Sourcing(u32, Option<u64>),
}

/// The protocol truth the auditor judges by: what the reports it has read
/// say now, and what the refresh being applied took out of it.
#[derive(Debug, Default)]
struct Truth {
    /// Nodes that reported a state.
    audited: BTreeSet<NodeId>,
    /// `(node, link)` pairs on some channel's source tree.
    allowed: BTreeSet<(NodeId, LinkId)>,
    /// Each audited node's routes, subscriptions and sources, `(node, i)`
    /// its `i`-th in report order — the order a sweep visits them in.
    facts: BTreeMap<(NodeId, u32), Fact>,
    /// Channel labels, each interned once, in label order.
    labels: BTreeMap<String, u32>,
    /// Nodes and pairs the refresh being applied removed: A1 judges an
    /// interval by truth ∪ left, which is the union of the two refreshes
    /// that bracket it.
    left_audited: BTreeSet<NodeId>,
    left_allowed: BTreeSet<(NodeId, LinkId)>,
    /// A node's new links, its old ones and its new facts, kept between
    /// updates so that reading a report allocates nothing here.
    scratch: (Vec<LinkId>, Vec<LinkId>, Vec<Fact>),
}

impl Truth {
    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.labels.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.insert(label.to_string(), id);
        id
    }

    /// Per-channel count truth as a sweep resolves it: a route's upstream
    /// faces the channel's source when the source's links — every one of
    /// them is allowed, as a source's are — include the upstream link.
    fn channels(&self) -> BTreeMap<String, ChannelTruth> {
        let n = self.labels.len();
        let (mut truth, mut source) = (vec![None::<ChannelTruth>; n], vec![None; n]);
        let mut upstreams = Vec::new();
        for (&(node, _), &fact) in &self.facts {
            match fact {
                Fact::Route { chan, advertised, downstream_sum, upstream } => {
                    let t = truth[chan as usize].get_or_insert_default();
                    if let (Some(adv), Some(sum)) = (advertised, downstream_sum) {
                        t.routers.push((node, adv, sum));
                    }
                    if let (Some(link), Some(adv)) = (upstream, advertised) {
                        upstreams.push((chan as usize, node, link, adv));
                    }
                }
                Fact::Subscribed(chan) => truth[chan as usize].get_or_insert_default().subscribers += 1,
                Fact::Sourcing(chan, estimate) => source[chan as usize] = Some((node, estimate)),
            }
        }
        for (chan, node, link, adv) in upstreams {
            if source[chan].is_some_and(|(src, _)| self.allowed.contains(&(src, link))) {
                truth[chan].get_or_insert_default().root_advertised = Some((node, adv));
            }
        }
        for (chan, src) in source.into_iter().enumerate() {
            if let Some((src, Some(estimate))) = src {
                truth[chan].get_or_insert_default().source_estimate = Some((src, estimate));
            }
        }
        self.labels.iter().filter_map(|(label, &id)| Some((label.clone(), truth[id as usize].take()?))).collect()
    }
}

/// Tables indexed directly by a node or link id take ids below this; the
/// engine's address plan ends there (a packet id carries its sender in 24
/// bits). An id at or past it — a garbled capture's — is tracked exactly,
/// in ordered maps, so what a table can grow to is bounded by this and not
/// by what a record claims.
const DENSE_IDS: u32 = 1 << 24;

const NO_NODE: u32 = u32::MAX;

/// `table[i]`, the table grown with `empty` entries to hold it.
fn entry<T: Clone>(table: &mut Vec<T>, i: usize, empty: T) -> &mut T {
    if table.len() <= i {
        table.resize(i + 1, empty);
    }
    &mut table[i]
}

/// The streaming invariant checker. Implements [`TraceSink`]; attach it
/// with [`Sim::add_trace_sink`](crate::engine::Sim::add_trace_sink) (live)
/// or feed it parsed events via [`TraceSink::record`] (offline replay —
/// `trace_inspect --audit`).
pub struct Auditor {
    cfg: AuditConfig,
    violations: Vec<AuditViolation>,
    health: AuditHealth,
    latency: Histogram,
    /// Per [`CounterId`](crate::stats::CounterId) seen on a mirrored bump,
    /// whether its name is one of [`Metrics::DELIVERY_COUNTERS`] — compared
    /// once.
    watch_ids: Vec<Option<bool>>,
    /// Per link, the first two nodes seen putting data on it: a
    /// `(node, link)` pair's index in the bit sets is `2·link + slot`.
    senders: Vec<[u32; 2]>,
    /// The allowed pairs of `truth`, by pair index: a transmission on one
    /// of them cannot breach A1 and is not kept.
    allowed_prev: SparseBits,
    /// Data transmissions since the last snapshot on any other pair:
    /// `(node, link)` → first event that used the pair (A1 input).
    used: BTreeMap<(NodeId, LinkId), TraceEvent>,
    /// The truth as of the last snapshot, kept and diffed: A1 judges an
    /// interval against the union of its two bracketing snapshots, so a
    /// mid-interval tree change (or a crash that destroys an agent before
    /// the closing snapshot) cannot false-positive.
    truth: Truth,
    snapshots: u64,
    /// Per-chain A2 state: a ring of `cfg.max_roots` slots reused oldest
    /// first (`opened` counts the chains ever given one), found through
    /// `slot_of` — or without it while records keep naming the chain in
    /// slot `cur`.
    chains: Vec<Chain>,
    slot_of: HashMap<u64, u32>,
    cur: usize,
    opened: usize,
    /// Last data arrival `(at, root)` per node, consumed by the matching
    /// watched proto event at the same timestamp to form a delivery (root,
    /// receiver); nodes past [`DENSE_IDS`] in the map.
    recent_rx: Vec<Option<(SimTime, u64)>>,
    recent_rx_far: BTreeMap<u32, Option<(SimTime, u64)>>,
    /// Embedded metrics: fault marks + watched delivery instants drive the
    /// A4 evaluation via
    /// [`reconvergence_after`](Metrics::reconvergence_after) /
    /// [`delivery_gaps`](Metrics::delivery_gaps).
    metrics: Metrics,
    last_at: SimTime,
    finished: bool,
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor::new(AuditConfig::default())
    }
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("violations", &self.violations.len())
            .field("events", &self.health.events())
            .field("snapshots", &self.snapshots)
            .finish()
    }
}

impl Auditor {
    /// An auditor with the given configuration, checking from the first
    /// event it sees.
    pub fn new(cfg: AuditConfig) -> Self {
        Auditor {
            cfg,
            violations: Vec::new(),
            health: AuditHealth::default(),
            latency: Histogram::new(DEFAULT_LATENCY_BOUNDS_US),
            watch_ids: Vec::new(),
            senders: Vec::new(),
            allowed_prev: SparseBits::default(),
            used: BTreeMap::new(),
            truth: Truth::default(),
            snapshots: 0,
            chains: Vec::new(),
            slot_of: HashMap::new(),
            cur: 0,
            opened: 0,
            recent_rx: Vec::new(),
            recent_rx_far: BTreeMap::new(),
            metrics: Metrics::new(MetricsConfig::default()),
            last_at: SimTime(0),
            finished: false,
        }
    }

    /// `true` while no check has fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations recorded so far, in detection order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// The per-run health counters.
    pub fn health(&self) -> &AuditHealth {
        &self.health
    }

    /// How many engine snapshots have been applied.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Check the interval since the previous snapshot against protocol
    /// truth. `check_counts` additionally runs A3 — pass `true` only at
    /// quiescent checkpoints (count propagation is not instantaneous), as
    /// [`Sim::audit_checkpoint`](crate::engine::Sim::audit_checkpoint)
    /// does; the engine's automatic post-fault refreshes pass `false`.
    ///
    /// The snapshot replaces the truth the auditor holds, as a diff: the
    /// same update, and the same A1 and A3 code, as the engine's refreshes,
    /// which hand over only the nodes whose reports may have moved.
    pub fn apply_snapshot(&mut self, snap: &AuditSnapshot, check_counts: bool) {
        let t = &mut self.truth;
        let gone: Vec<NodeId> = t.audited.difference(&snap.audited).copied().collect();
        for node in gone {
            t.audited.remove(&node);
            t.left_audited.insert(node);
        }
        t.audited.extend(&snap.audited);
        let gone: Vec<(NodeId, LinkId)> = t.allowed.difference(&snap.allowed).copied().collect();
        let came: Vec<(NodeId, LinkId)> = snap.allowed.difference(&t.allowed).copied().collect();
        gone.into_iter().for_each(|pair| self.allow(pair, false));
        came.into_iter().for_each(|pair| self.allow(pair, true));
        self.close(snap.at, check_counts.then_some(&snap.channels));
    }

    /// Diff `node`'s report — `None`: it reports nothing, or is down — into
    /// the truth, resolving its interfaces against `topo` as
    /// [`Sim::audit_snapshot`](crate::engine::Sim::audit_snapshot) does.
    pub(crate) fn update_node(&mut self, topo: &Topology, node: NodeId, state: Option<AuditNodeState>) {
        let t = &mut self.truth;
        let (mut links, mut had, mut facts) = std::mem::take(&mut t.scratch);
        if state.is_some() {
            t.audited.insert(node);
        } else if t.audited.remove(&node) {
            t.left_audited.insert(node);
        }
        for route in state.iter().flat_map(|s| &s.routes) {
            let mut mask = route.oif_mask;
            while mask != 0 {
                links.extend(topo.link_of(node, IfaceId(mask.trailing_zeros() as u8)).ok());
                mask &= mask - 1;
            }
            let upstream = route.upstream_iface.and_then(|i| topo.link_of(node, i).ok());
            let chan = t.intern(&route.channel);
            facts.push(Fact::Route { chan, advertised: route.advertised, downstream_sum: route.downstream_sum, upstream });
        }
        for chan in state.iter().flat_map(|s| &s.subscribed) {
            facts.push(Fact::Subscribed(t.intern(chan)));
        }
        for (chan, estimate) in state.iter().flat_map(|s| &s.sourcing) {
            // A source may put data on any of its links.
            links.extend((0..topo.iface_count(node)).filter_map(|i| topo.link_of(node, IfaceId(i as u8)).ok()));
            facts.push(Fact::Sourcing(t.intern(chan), *estimate));
        }
        let node_facts = (node, 0)..=(node, u32::MAX);
        if !t.facts.range(node_facts.clone()).map(|(_, f)| f).eq(&facts) {
            while let Some((&key, _)) = t.facts.range(node_facts.clone()).next() {
                t.facts.remove(&key);
            }
            t.facts.extend(facts.drain(..).enumerate().map(|(i, f)| ((node, i as u32), f)));
        }
        links.sort_unstable();
        links.dedup();
        had.extend(t.allowed.range((node, LinkId(0))..=(node, LinkId(u32::MAX))).map(|&(_, l)| l));
        for &link in had.iter().filter(|l| links.binary_search(l).is_err()) {
            self.allow((node, link), false);
        }
        for &link in links.iter().filter(|l| had.binary_search(l).is_err()) {
            self.allow((node, link), true);
        }
        links.clear();
        had.clear();
        facts.clear();
        self.truth.scratch = (links, had, facts);
    }

    /// Close the interval since the previous snapshot against the truth the
    /// [`update_node`](Self::update_node)s since then left.
    pub(crate) fn refresh(&mut self, at: SimTime, check_counts: bool) {
        let channels = check_counts.then(|| self.truth.channels());
        self.close(at, channels.as_ref());
    }

    /// The truth held, as the snapshot a full sweep at `at` would take.
    #[cfg(debug_assertions)]
    pub(crate) fn truth(&self, at: SimTime) -> AuditSnapshot {
        let t = &self.truth;
        AuditSnapshot { at, audited: t.audited.clone(), allowed: t.allowed.clone(), channels: t.channels() }
    }

    /// Add `pair` to the allowed set, or take it out (into the pairs that
    /// left at this refresh).
    fn allow(&mut self, pair: (NodeId, LinkId), on: bool) {
        if on {
            if self.truth.allowed.insert(pair) {
                if let Some(p) = self.pair_index(pair.0, pair.1) {
                    self.allowed_prev.insert(p);
                }
            }
        } else if self.truth.allowed.remove(&pair) {
            self.truth.left_allowed.insert(pair);
            if let Some(p) = self.pair_index(pair.0, pair.1) {
                self.allowed_prev.remove(p);
            }
        }
    }

    /// The one A1 and A3 pass of a snapshot: every data transmission since
    /// the previous snapshot must sit in the union of the bracketing
    /// snapshots' allowed sets, nodes audited at neither end exempt (a pair
    /// the previous snapshot allowed never entered `used`); then, given
    /// `channels`, count convergence.
    fn close(&mut self, at: SimTime, channels: Option<&BTreeMap<String, ChannelTruth>>) {
        let used = std::mem::take(&mut self.used);
        for ((node, link), ev) in used {
            if !self.cfg.enabled(AuditCheck::OnTree) {
                break;
            }
            let t = &self.truth;
            let audited = t.audited.contains(&node) || t.left_audited.contains(&node);
            let allowed = t.allowed.contains(&(node, link)) || t.left_allowed.contains(&(node, link));
            if audited && !allowed {
                let summary = format!("off-tree data transmission: node n{} put data on link l{} which is on no audited source tree", node.0, link.0);
                self.breach(AuditCheck::OnTree, at, ev.kind.root_id(), Some(&ev), summary);
            }
        }
        if let Some(channels) = channels.filter(|_| self.cfg.enabled(AuditCheck::CountConvergence)) {
            self.check_counts(at, channels);
        }
        self.truth.left_audited.clear();
        self.truth.left_allowed.clear();
        self.snapshots += 1;
    }

    /// Record a violation of `check`: on chain `root`, whose window goes
    /// with it, or on no chain.
    fn breach(&mut self, check: AuditCheck, at: SimTime, root: Option<PacketId>, offending: Option<&TraceEvent>, summary: String) {
        let window = root.map(|r| self.window_of(r.0)).unwrap_or_default();
        self.violations.push(AuditViolation { check, at, root, summary, offending: offending.cloned(), window });
    }

    /// A3 — count convergence at a quiescent checkpoint.
    fn check_counts(&mut self, at: SimTime, channels: &BTreeMap<String, ChannelTruth>) {
        let slack = self.cfg.count_slack;
        for (chan, truth) in channels {
            let members = truth.subscribers;
            let a3 = AuditCheck::CountConvergence;
            for &(node, advertised, downstream_sum) in &truth.routers {
                if advertised.abs_diff(downstream_sum) > slack {
                    let summary = format!(
                        "router n{} on {chan}: advertised {advertised} ≠ validated downstream sum {downstream_sum} (slack {slack})",
                        node.0
                    );
                    self.breach(a3, at, None, None, summary);
                }
            }
            if let Some((node, advertised)) = truth.root_advertised.filter(|r| r.1.abs_diff(members) > slack) {
                let summary =
                    format!("root router n{} on {chan}: advertised {advertised} ≠ subscriber truth {members} (slack {slack})", node.0);
                self.breach(a3, at, None, None, summary);
            }
            if let Some((node, estimate)) = truth.source_estimate.filter(|s| s.1.abs_diff(members) > slack) {
                let summary = format!("source n{} on {chan}: estimate {estimate} ≠ subscriber truth {members} (slack {slack})", node.0);
                self.breach(a3, at, None, None, summary);
            }
        }
    }

    /// The bit-set index of the pair `(node, link)`: `2·link` plus which of
    /// the link's first two data senders `node` is. A point-to-point link
    /// has no third; a LAN's later senders, and links past [`DENSE_IDS`],
    /// have no index and are tracked in ordered sets.
    fn pair_index(&mut self, node: NodeId, link: LinkId) -> Option<usize> {
        if link.0 >= DENSE_IDS {
            return None;
        }
        for (slot, sender) in entry(&mut self.senders, link.index(), [NO_NODE; 2]).iter_mut().enumerate() {
            if *sender == NO_NODE {
                *sender = node.0;
            }
            if *sender == node.0 {
                return Some(2 * link.index() + slot);
            }
        }
        None
    }

    /// `node`'s last data arrival, if it has not been consumed.
    fn recent_rx(&mut self, node: NodeId) -> &mut Option<(SimTime, u64)> {
        if node.0 >= DENSE_IDS {
            return self.recent_rx_far.entry(node.0).or_default();
        }
        entry(&mut self.recent_rx, node.index(), None)
    }

    /// The state of chain `root`, opened — evicting the oldest tracked
    /// chain when `cfg.max_roots` are open — if it is not tracked.
    fn chain(&mut self, root: u64) -> &mut Chain {
        if self.chains.get(self.cur).is_none_or(|c| c.root != root) {
            self.cur = match self.slot_of.get(&root) {
                Some(&slot) => slot as usize,
                None => {
                    // Slots fill in order, then turn over in the same order.
                    let slot = self.opened % self.cfg.max_roots;
                    self.opened += 1;
                    if slot == self.chains.len() {
                        self.chains.push(Chain::default());
                    } else {
                        let old = &mut self.chains[slot];
                        self.slot_of.remove(&old.root);
                        old.delivered.clear();
                        old.tx.clear();
                        old.tx_unindexed.clear();
                        old.window.clear();
                        old.pushed = 0;
                    }
                    self.chains[slot].root = root;
                    self.slot_of.insert(root, slot as u32);
                    slot
                }
            };
        }
        &mut self.chains[self.cur]
    }

    fn push_window(&mut self, root: u64, ev: &TraceEvent) {
        let cap = self.cfg.window_len;
        let c = self.chain(root);
        if c.window.len() < cap {
            c.window.push(ev.clone());
        } else if cap > 0 {
            c.window[c.pushed % cap].clone_from(ev);
        }
        c.pushed += 1;
    }

    fn window_of(&self, root: u64) -> Vec<TraceEvent> {
        self.slot_of.get(&root).map(|&slot| self.chains[slot as usize].window()).unwrap_or_default()
    }

    /// Is `proto` a bump of (or an event named as) a watched delivery
    /// counter?
    fn watched(&mut self, proto: &ProtoEvent) -> bool {
        let by_name = || Metrics::DELIVERY_COUNTERS.contains(&proto.name.as_str());
        let Some(id) = proto.counter else { return by_name() };
        let known = *entry(&mut self.watch_ids, id.index(), None).get_or_insert_with(by_name);
        debug_assert_eq!(known, by_name(), "a counter handle names one counter for the life of the stream");
        known
    }

    /// A4 — evaluated once, when the capture is finalized.
    fn check_recovery(&mut self) {
        if !self.cfg.enabled(AuditCheck::RecoveryBounds) {
            return;
        }
        let Some(b) = self.cfg.recovery else { return };
        let a4 = AuditCheck::RecoveryBounds;
        if self.metrics.deliveries().is_empty() {
            let summary = format!(
                "no deliveries observed in the stream window [{} µs, {} µs]",
                b.stream_start.micros(),
                b.stream_end.micros()
            );
            return self.breach(a4, self.last_at, None, None, summary);
        }
        let bound = b.max_reconvergence.micros();
        for (mark, change, rec) in self.metrics.reconvergence_report() {
            match rec {
                Some(d) if d > b.max_reconvergence => {
                    let summary = format!("reconvergence after {change:?} took {} µs > bound {bound} µs", d.micros());
                    self.breach(a4, mark, None, None, summary);
                }
                None if mark + b.max_reconvergence <= b.stream_end => {
                    self.breach(a4, mark, None, None, format!("no delivery after {change:?} within bound {bound} µs"));
                }
                _ => {}
            }
        }
        for (gap_start, gap_end) in self.metrics.delivery_gaps(b.stream_start, b.stream_end, b.max_gap) {
            let summary = format!(
                "delivery gap [{} µs, {} µs] = {} µs > bound {} µs",
                gap_start.micros(),
                gap_end.micros(),
                (gap_end - gap_start).micros(),
                b.max_gap.micros()
            );
            self.breach(a4, gap_start, None, None, summary);
        }
    }

    /// Render the verdict + health summary.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            clean: self.is_clean(),
            snapshots: self.snapshots,
            health: self.health,
            latency: self.latency.clone(),
            violations: self.violations.clone(),
        }
    }
}

impl TraceSink for Auditor {
    fn on_attach(&mut self, cfg: &TraceConfig) {
        assert!(
            cfg.sample.is_none(),
            "Auditor requires the unsampled event stream: sample_one_in() hides \
             entire causal chains, so every invariant check would miss real \
             violations. Attach the auditor to a tracer without sampling (tee a \
             sampled capture sink beside it if a sparse capture is wanted)."
        );
    }

    fn record(&mut self, event: TraceEvent) {
        self.record_ref(&event, 0, 0);
    }

    fn record_ref(&mut self, event: &TraceEvent, _key: u128, _sub: u64) {
        self.last_at = event.at;
        match &event.kind {
            TraceKind::PacketTx {
                node, link, cause, root, class, ..
            } => {
                self.health.pkt_tx += 1;
                if *class != TrafficClass::Data {
                    return;
                }
                if cause.is_none() {
                    self.health.data_roots += 1;
                }
                let pair = self.pair_index(*node, *link);
                if !pair.is_some_and(|p| self.allowed_prev.contains(p)) {
                    self.used.entry((*node, *link)).or_insert_with(|| event.clone());
                }
                // A2 loop: one causal chain may cross each (node, link)
                // once — a second pass means the chain revisited the node.
                let chain = self.chain(root.0);
                let dup = !match pair {
                    Some(p) => chain.tx.insert(p),
                    None => chain.tx_unindexed.insert((*node, *link)),
                };
                if dup && self.cfg.enabled(AuditCheck::NoDupNoLoop) {
                    let summary = format!("forwarding loop: chain {root} crossed node n{} → link l{} more than once", node.0, link.0);
                    self.breach(AuditCheck::NoDupNoLoop, event.at, Some(*root), Some(event), summary);
                }
                self.push_window(root.0, event);
            }
            TraceKind::PacketRx { node, root, age, class, .. } => {
                self.health.pkt_rx += 1;
                if *class != TrafficClass::Data {
                    return;
                }
                self.latency.observe(age.micros());
                *self.recent_rx(*node) = Some((event.at, root.0));
                self.push_window(root.0, event);
            }
            TraceKind::PacketDrop { root, class, .. } => {
                self.health.drops += 1;
                if *class == TrafficClass::Data {
                    self.push_window(root.0, event);
                }
            }
            TraceKind::TimerFire { .. } => self.health.timers += 1,
            TraceKind::Topology(change) => {
                self.health.topo += 1;
                self.metrics.mark_fault(event.at, *change);
            }
            TraceKind::Proto { node, event: proto } => {
                self.health.proto += 1;
                if !self.watched(proto) {
                    return;
                }
                // One watched counter bump = one delivery (the value field
                // carries latency / delta, not a count of deliveries).
                self.health.deliveries += 1;
                self.metrics.on_delivery(event.at, 1);
                // A2 dup: pair this delivery with the data arrival being
                // dispatched (same node, same timestamp) and its chain.
                let Some((_, root)) = self.recent_rx(*node).take_if(|rx| rx.0 == event.at) else {
                    return;
                };
                let dup = !self.chain(root).delivered.insert(node.index());
                if dup && self.cfg.enabled(AuditCheck::NoDupNoLoop) {
                    let summary = format!("duplicate delivery: receiver n{} got chain p{root} more than once", node.0);
                    self.breach(AuditCheck::NoDupNoLoop, event.at, Some(PacketId(root)), Some(event), summary);
                }
            }
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        if !self.finished {
            self.finished = true;
            self.check_recovery();
        }
        Ok(())
    }
}

/// Recover an [`Auditor`] from a finished sink chain — the sink itself, or
/// a child of a [`Tee`] (what
/// [`Sim::finish_trace`](crate::engine::Sim::finish_trace) hands back when
/// an auditor ran beside a capture sink).
pub fn extract_auditor(sink: Box<dyn TraceSink>) -> Option<Auditor> {
    match sink.into_any().downcast::<Auditor>() {
        Ok(a) => Some(*a),
        Err(any) => match any.downcast::<Tee>() {
            Ok(tee) => tee.into_sinks().into_iter().find_map(extract_auditor),
            Err(_) => None,
        },
    }
}

// ---- report rendering ----------------------------------------------------

/// The rendered audit outcome: verdict, health summary, violations.
/// Produced by [`Auditor::report`]; serialized with
/// [`to_text`](Self::to_text) / [`to_json`](Self::to_json) (`audit/v1`).
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// `true` if no check fired.
    pub clean: bool,
    /// Engine snapshots applied during the run.
    pub snapshots: u64,
    /// Per-run event counts.
    pub health: AuditHealth,
    /// Data-delivery latency distribution (µs).
    pub latency: Histogram,
    /// Every violation, in detection order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let verdict = if self.clean { "CLEAN" } else { "VIOLATIONS" };
        let _ = writeln!(
            out,
            "audit/v1: {verdict} — {} violation(s), checks A1–A4, {} snapshot(s), {} event(s)",
            self.violations.len(),
            self.snapshots,
            self.health.events()
        );
        let h = &self.health;
        let _ = writeln!(
            out,
            "  events: tx {} rx {} drop {} timer {} topo {} proto {}",
            h.pkt_tx, h.pkt_rx, h.drops, h.timers, h.topo, h.proto
        );
        let _ = write!(out, "  data roots {} deliveries {}", h.data_roots, h.deliveries);
        if let (Some(p50), Some(p99), Some(max)) =
            (self.latency.quantile(0.5), self.latency.quantile(0.99), self.latency.max())
        {
            let _ = write!(out, "  latency p50/p99/max {p50}/{p99}/{max} µs");
        }
        out.push('\n');
        let jsonl = |ev: &TraceEvent| {
            let mut line = Vec::new();
            write_jsonl_line(&mut line, ev);
            json::into_string(line)
        };
        for v in &self.violations {
            let _ = write!(out, "  [{}] t={}µs", v.check, v.at.micros());
            if let Some(r) = v.root {
                let _ = write!(out, " root={r}");
            }
            let _ = writeln!(out, " {}", v.summary);
            if let Some(ev) = &v.offending {
                let _ = writeln!(out, "        offending: {}", jsonl(ev));
            }
            for w in &v.window {
                let _ = writeln!(out, "        | {}", jsonl(w));
            }
        }
        out
    }

    /// `audit/v1` JSON lines: a header object, one `health` line, then one
    /// line per violation (offending/window events in the trace JSONL v2
    /// record shape).
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        out.put(b"{\"schema\":");
        json::string(&mut out, AUDIT_SCHEMA);
        out.put(if self.clean { b",\"clean\":true" } else { b",\"clean\":false" });
        json::field_u64(&mut out, "violations", self.violations.len() as u64);
        json::field_u64(&mut out, "snapshots", self.snapshots);
        out.put(b"}\n{\"kind\":\"health\"");
        let h = &self.health;
        for (key, v) in [
            ("events", h.events()),
            ("pkt_tx", h.pkt_tx),
            ("pkt_rx", h.pkt_rx),
            ("drops", h.drops),
            ("timers", h.timers),
            ("topo", h.topo),
            ("proto", h.proto),
            ("data_roots", h.data_roots),
            ("deliveries", h.deliveries),
        ] {
            json::field_u64(&mut out, key, v);
        }
        if let (Some(p50), Some(p99), Some(max)) =
            (self.latency.quantile(0.5), self.latency.quantile(0.99), self.latency.max())
        {
            json::field_u64(&mut out, "latency_p50_us", p50);
            json::field_u64(&mut out, "latency_p99_us", p99);
            json::field_u64(&mut out, "latency_max_us", max);
        }
        out.put(b"}\n");
        for v in &self.violations {
            out.put(b"{\"kind\":\"violation\"");
            json::field_str(&mut out, "check", v.check.id());
            json::field_u64(&mut out, "at_us", v.at.micros());
            if let Some(r) = v.root {
                json::field_u64(&mut out, "root", r.0);
            }
            json::field_str(&mut out, "summary", &v.summary);
            if let Some(ev) = &v.offending {
                json::key(&mut out, "offending");
                write_jsonl_line(&mut out, ev);
            }
            if !v.window.is_empty() {
                json::key(&mut out, "window");
                for (i, w) in v.window.iter().enumerate() {
                    out.put(if i == 0 { b"[" } else { b"," });
                    write_jsonl_line(&mut out, w);
                }
                out.put(b"]");
            }
            out.put(b"}\n");
        }
        json::into_string(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TopologyChange;
    use crate::stats::TrafficClass;

    fn ms(x: u64) -> SimTime {
        SimTime(x * 1_000)
    }

    fn data_tx(at: u64, id: u64, root: u64, cause: Option<u64>, node: u32, link: u32) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            kind: TraceKind::PacketTx {
                node: NodeId(node),
                iface: IfaceId(0),
                link: LinkId(link),
                id: PacketId(id),
                cause: cause.map(PacketId),
                root: PacketId(root),
                bytes: 100,
                class: TrafficClass::Data,
            },
        }
    }

    fn data_rx(at: u64, id: u64, root: u64, node: u32) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            kind: TraceKind::PacketRx {
                node: NodeId(node),
                iface: IfaceId(0),
                id: PacketId(id),
                root: PacketId(root),
                age: SimDuration(at),
                class: TrafficClass::Data,
            },
        }
    }

    fn delivery(at: u64, node: u32) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            kind: TraceKind::Proto {
                node: NodeId(node),
                event: ProtoEvent { name: "host.data_rx".into(), value: Some(at), ..ProtoEvent::default() },
            },
        }
    }

    #[test]
    #[should_panic(expected = "unsampled")]
    fn auditor_refuses_sampled_stream() {
        let mut a = Auditor::default();
        a.on_attach(&TraceConfig::default().sample_one_in(1024));
    }

    #[test]
    fn a1_fires_on_off_tree_tx_and_respects_union_and_exemption() {
        let mut a = Auditor::default();
        let mut snap = AuditSnapshot { at: SimTime(100), ..Default::default() };
        snap.audited.insert(NodeId(1));
        snap.allowed.insert((NodeId(1), LinkId(0)));
        // On-tree tx, off-tree tx, and a tx by an unaudited node.
        a.record(data_tx(10, 1, 1, None, 1, 0));
        a.record(data_tx(11, 2, 2, None, 1, 5)); // off-tree
        a.record(data_tx(12, 3, 3, None, 9, 7)); // node 9 not audited
        a.apply_snapshot(&snap, false);
        assert_eq!(a.violations().len(), 1);
        let v = &a.violations()[0];
        assert_eq!(v.check, AuditCheck::OnTree);
        assert_eq!(v.root, Some(PacketId(2)));
        // The next interval is judged against the union of snapshots: a tx
        // on the link that was allowed *before* the tree changed passes.
        let mut snap2 = AuditSnapshot { at: SimTime(200), ..Default::default() };
        snap2.audited.insert(NodeId(1));
        snap2.allowed.insert((NodeId(1), LinkId(2)));
        a.record(data_tx(150, 4, 4, None, 1, 0)); // old tree, still fine
        a.record(data_tx(160, 5, 5, None, 1, 2)); // new tree
        a.apply_snapshot(&snap2, false);
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.snapshots(), 2);
    }

    #[test]
    fn a2_fires_on_duplicate_delivery_with_window() {
        let mut a = Auditor::new(AuditConfig::default().window_len(4));
        a.record(data_tx(0, 1, 1, None, 0, 0));
        a.record(data_rx(5, 1, 1, 2));
        a.record(delivery(5, 2));
        assert!(a.is_clean());
        assert_eq!(a.health().deliveries, 1);
        // A second copy of the same chain reaches the same receiver.
        a.record(data_tx(6, 7, 1, Some(1), 3, 1));
        a.record(data_rx(9, 7, 1, 2));
        a.record(delivery(9, 2));
        assert_eq!(a.violations().len(), 1);
        let v = &a.violations()[0];
        assert_eq!(v.check, AuditCheck::NoDupNoLoop);
        assert_eq!(v.root, Some(PacketId(1)));
        assert!(!v.window.is_empty(), "breach window localizes the chain");
    }

    #[test]
    fn a2_fires_on_forwarding_loop() {
        let mut a = Auditor::default();
        a.record(data_tx(0, 1, 1, None, 0, 0));
        a.record(data_tx(1, 2, 1, Some(1), 1, 1));
        a.record(data_tx(2, 3, 1, Some(2), 1, 1)); // same (node, link), same chain
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].check, AuditCheck::NoDupNoLoop);
        // Another chain crossing the same (node, link) is fine.
        a.record(data_tx(3, 4, 4, None, 1, 1));
        assert_eq!(a.violations().len(), 1);
    }

    #[test]
    fn a2_ignores_control_traffic_and_unwatched_counters() {
        let mut a = Auditor::default();
        let mut ev = data_tx(0, 1, 1, None, 0, 0);
        if let TraceKind::PacketTx { class, .. } = &mut ev.kind {
            *class = TrafficClass::Control;
        }
        a.record(ev.clone());
        a.record(ev); // control retransmission: exempt
        let unwatched = TraceEvent {
            at: SimTime(1),
            kind: TraceKind::Proto {
                node: NodeId(0),
                event: ProtoEvent { name: "ecmp.count_tx".into(), value: Some(1), ..ProtoEvent::default() },
            },
        };
        a.record(unwatched);
        assert!(a.is_clean());
        assert_eq!(a.health().deliveries, 0);
    }

    #[test]
    fn a3_fires_on_count_skew_within_slack() {
        let mut a = Auditor::new(AuditConfig::default().count_slack(1));
        let mut snap = AuditSnapshot { at: SimTime(0), ..Default::default() };
        let truth = ChannelTruth {
            routers: vec![(NodeId(1), 5, 5), (NodeId(2), 7, 5)], // skew 2 > slack 1
            root_advertised: Some((NodeId(1), 5)),
            subscribers: 5,
            source_estimate: Some((NodeId(0), 6)), // skew 1 ≤ slack
        };
        snap.channels.insert("(10.0.0.1, 232.0.0.1)".to_string(), truth);
        a.apply_snapshot(&snap, true);
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].check, AuditCheck::CountConvergence);
        // The same snapshot without count checking stays clean.
        let mut b = Auditor::new(AuditConfig::default().count_slack(1));
        b.apply_snapshot(&snap, false);
        assert!(b.is_clean());
    }

    #[test]
    fn a4_fires_on_gaps_missing_recovery_and_silence() {
        let bounds = RecoveryBounds {
            max_reconvergence: SimDuration::from_millis(10),
            max_gap: SimDuration::from_millis(50),
            stream_start: SimTime(0),
            stream_end: ms(200),
        };
        // Silence: bounds configured, no deliveries at all.
        let mut silent = Auditor::new(AuditConfig::default().recovery_bounds(bounds));
        silent.finish().unwrap();
        assert_eq!(silent.violations().len(), 1);
        assert_eq!(silent.violations()[0].check, AuditCheck::RecoveryBounds);

        // A fault at 100 ms with no delivery until 150 ms: reconvergence
        // (50 ms > 10 ms) and the gap (50 ms ≥ 50 ms bound is fine, so
        // use a 60 ms gap) both fire.
        let mut a = Auditor::new(AuditConfig::default().recovery_bounds(bounds));
        for m in [10u64, 20, 30, 40, 50, 60, 70, 80, 90] {
            a.record(data_rx(ms(m).0, m, m, 2));
            a.record(delivery(ms(m).0, 2));
        }
        a.record(TraceEvent {
            at: ms(100),
            kind: TraceKind::Topology(TopologyChange::LinkDown(LinkId(3))),
        });
        a.record(data_rx(ms(160).0, 99, 99, 2));
        a.record(delivery(ms(160).0, 2));
        a.finish().unwrap();
        let kinds: Vec<&str> = a.violations().iter().map(|v| v.check.id()).collect();
        assert_eq!(kinds, vec!["A4", "A4"], "reconvergence overrun + gap: {kinds:?}");
        // finish() is idempotent: A4 does not double-report.
        a.finish().unwrap();
        assert_eq!(a.violations().len(), 2);
    }

    #[test]
    fn a4_tolerates_fault_at_stream_end() {
        let bounds = RecoveryBounds {
            max_reconvergence: SimDuration::from_millis(10),
            max_gap: SimDuration::from_millis(500),
            stream_start: SimTime(0),
            stream_end: ms(100),
        };
        let mut a = Auditor::new(AuditConfig::default().recovery_bounds(bounds));
        a.record(data_rx(ms(95).0, 1, 1, 2));
        a.record(delivery(ms(95).0, 2));
        // Fault right at the end of the stream: no delivery can follow, and
        // none is required.
        a.record(TraceEvent {
            at: ms(99),
            kind: TraceKind::Topology(TopologyChange::NodeDown(NodeId(5))),
        });
        a.finish().unwrap();
        assert!(a.is_clean(), "{:?}", a.violations());
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut a = Auditor::default();
        a.record(data_tx(0, 1, 1, None, 0, 0));
        a.record(data_rx(5, 1, 1, 2));
        a.record(delivery(5, 2));
        a.record(data_tx(6, 7, 1, Some(1), 3, 1));
        a.record(data_rx(9, 7, 1, 2));
        a.record(delivery(9, 2));
        let report = a.report();
        assert!(!report.clean);
        let text = report.to_text();
        assert!(text.contains("VIOLATIONS"), "{text}");
        assert!(text.contains("[A2]"), "{text}");
        let json = report.to_json();
        let header = json.lines().next().unwrap();
        assert!(header.contains("\"schema\":\"audit/v1\""), "{header}");
        assert!(header.contains("\"clean\":false"), "{header}");
        assert!(json.lines().any(|l| l.contains("\"kind\":\"health\"")), "{json}");
        assert!(
            json.lines().any(|l| l.contains("\"check\":\"A2\"") && l.contains("\"offending\":{")),
            "{json}"
        );
        // A clean report says so.
        let clean = Auditor::default().report();
        assert!(clean.to_text().contains("CLEAN"));
        assert!(clean.to_json().starts_with("{\"schema\":\"audit/v1\",\"clean\":true"));
    }

    #[test]
    fn extract_auditor_reaches_through_tee() {
        let mut a = Auditor::default();
        a.record(data_tx(0, 1, 1, None, 0, 0));
        let tee = Tee::from_sinks(vec![
            Box::new(crate::trace::TraceBuffer::new(TraceConfig::default())),
            Box::new(a),
        ]);
        let got = extract_auditor(Box::new(tee)).expect("auditor found in tee");
        assert_eq!(got.health().pkt_tx, 1);
        // A chain without one yields None.
        let bare = crate::trace::TraceBuffer::new(TraceConfig::default());
        assert!(extract_auditor(Box::new(bare)).is_none());
    }

    #[test]
    fn root_eviction_bounds_memory() {
        let mut a = Auditor::new(AuditConfig::default().max_roots(4));
        for r in 0..64u64 {
            a.record(data_tx(r, r, r, None, 0, 0));
        }
        assert_eq!((a.chains.len(), a.slot_of.len()), (4, 4));
        assert!(a.is_clean());
        // Oldest first: the four chains opened last are the ones tracked.
        let mut tracked: Vec<u64> = a.chains.iter().map(|c| c.root).collect();
        tracked.sort_unstable();
        assert_eq!(tracked, vec![60, 61, 62, 63]);
        assert!(tracked.iter().all(|r| a.slot_of[r] as usize == a.chains.iter().position(|c| c.root == *r).unwrap()));
    }
}
