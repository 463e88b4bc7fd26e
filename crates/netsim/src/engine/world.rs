//! The engine's state: the event vocabulary of the queues (`EventKind`,
//! `FanoutSend`), the half a dispatch only reads (`Shared`), and the
//! mutable half (`World`) — the wheel, per-node slabs, counters and the
//! fan-out coalescing that feeds the wheel.

use super::{Payload, TimerToken};
use crate::id::{IfaceId, LinkId, NodeId};
use crate::metrics::Metrics;
use crate::prof::{EventClass, Profiler};
use crate::routing::Routing;
use crate::stats::{CounterId, Name, Stats, TrafficClass};
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{ChanLabel, DropReason, PacketId, ProtoEvent, TraceKind, Tracer};
use crate::wheel::{TimerWheel, WheelConfig};
use express_wire::addr::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

#[derive(Debug)]
pub(super) enum EventKind {
    Arrival {
        node: NodeId,
        iface: IfaceId,
        bytes: Payload,
        class: TrafficClass,
        cause: ArrivalCause,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
        /// Node restart epoch at scheduling time; a timer set by a crashed
        /// agent must not fire into its replacement.
        epoch: u64,
    },
    LinkChange {
        link: LinkId,
        up: bool,
    },
    /// Router crash (`up: false`) / restart (`up: true`); see
    /// [`Sim::schedule_crash`].
    NodeChange {
        node: NodeId,
        up: bool,
    },
    /// Set (`Some`) or clear (`None`) a temporary loss-probability override
    /// on a link — the building block of time-windowed loss bursts.
    LossChange {
        link: LinkId,
        loss: Option<f64>,
    },
    /// A deferred fan-out: one send whose per-receiver arrivals are
    /// expanded inline when the event pops instead of being scheduled
    /// individually (the batched data path; see `docs/INTERNALS.md` §5).
    Fanout(FanoutSend),
    /// Consecutive same-timestamp fan-outs coalesced into one queue entry
    /// by `World::push_fanout`; members are kept in ascending key order and
    /// expanded against the pause rule (see `Exec::expand_cohort`).
    FanoutCohort(Cohort),
}

/// One deferred link transmission: everything needed to expand the
/// per-receiver arrivals of a [`Ctx::send_shared`] at drain time. Only
/// loss-free sends defer (a lossy datagram send must draw its per-receiver
/// RNG at send time to keep the random stream identical to the eager
/// path), so expansion needs no RNG.
///
/// 48 bytes: the frame handle, the causal chain, and the send itself. The
/// sender is not stored — the frame's id was minted by it and carries its
/// rank — and neither is the rank half of the canonical key, which is the
/// same number.
#[derive(Debug)]
pub(super) struct FanoutSend {
    pub(super) bytes: Payload,
    pub(super) root: PacketId,
    pub(super) root_at: SimTime,
    pub(super) member: Member,
}

/// A fan-out as a cohort stores it, 16 bytes: the frame's id and one word
/// for the rest. The frame handle and the causal chain are its run's (see
/// [`Cohort`]); a tree level keeps a million of these alive, and one run.
#[derive(Debug, Clone, Copy)]
pub(super) struct Member {
    /// The frame's id (one per `Ctx::send`).
    pub(super) id: PacketId,
    /// `seq << 16 | iface << 8 | class`: the sender's interface (the link
    /// is re-resolved at expansion), the traffic class, and the sequence
    /// half of the canonical key in 48 bits — one node would have to
    /// schedule 2⁴⁸ events to outgrow them.
    tag: u64,
}

/// Fan-outs coalesced into one queue entry, in ascending key order: a
/// member per fan-out, and a run per maximal stretch of consecutive members
/// that transmit the same frame handle in the same causal chain — every
/// router of a tree level forwarding one derived frame is one run. Joining
/// a run touches no refcount, and neither does a paused cohort's re-queued
/// tail, which takes the runs it still needs along.
#[derive(Debug, Default)]
pub(super) struct Cohort {
    pub(super) members: Vec<Member>,
    pub(super) runs: Vec<Run>,
}

/// What a stretch of cohort members shares.
#[derive(Debug)]
pub(super) struct Run {
    pub(super) bytes: Payload,
    pub(super) root: PacketId,
    pub(super) root_at: SimTime,
    /// One past the run's last member.
    pub(super) end: usize,
}

impl Cohort {
    /// Append `m`, extending the last run if it shares `frame` and the
    /// chain; `frame` is made owned only for a new run.
    fn push(&mut self, m: Member, root: PacketId, root_at: SimTime, frame: Cow<'_, Payload>) {
        self.members.push(m);
        let end = self.members.len();
        match self.runs.last_mut() {
            Some(r) if Arc::ptr_eq(&r.bytes, &frame) && (r.root, r.root_at) == (root, root_at) => r.end = end,
            _ => self.runs.push(Run { bytes: frame.into_owned(), root, root_at, end }),
        }
    }

    /// Empty, keeping capacity (the frames' handles drop here).
    pub(super) fn clear(&mut self) {
        self.members.clear();
        self.runs.clear();
    }
}

/// Packet ids are `rank << 40 | per-sender counter`, rank = node id + 1 —
/// the rank canonical keys carry in their upper half.
const PACKET_RANK_SHIFT: u32 = 40;

// The last node's rank, `MAX_NODES`, fits above the counter: a sender
// never shifts its rank out of the id (and so never reads as rank 0, the
// harness's).
const _: () = assert!((Topology::MAX_NODES as u64) < 1 << (u64::BITS - PACKET_RANK_SHIFT));

/// The next packet id of `node`, whose counter stands at `seq`.
pub(super) fn packet_id(node: NodeId, seq: u64) -> PacketId {
    PacketId((node.0 as u64 + 1) << PACKET_RANK_SHIFT | seq)
}

impl Member {
    /// The send of frame `id`, which the node that minted `id` makes out
    /// `iface` under canonical key `key`.
    pub(super) fn new(iface: IfaceId, class: TrafficClass, id: PacketId, key: u128) -> Member {
        let seq = key as u64;
        debug_assert!(seq >> 48 == 0, "a node scheduled 2^48 events");
        let m = Member { id, tag: seq << 16 | u64::from(iface.0) << 8 | class as u64 };
        debug_assert!(m.key() == key, "a fan-out is sent by the node that minted its frame's id");
        m
    }

    fn rank(&self) -> u64 {
        self.id.0 >> PACKET_RANK_SHIFT
    }

    /// The sending node (skipped during the endpoint walk).
    pub(super) fn node(&self) -> NodeId {
        NodeId(self.rank() as u32 - 1)
    }

    pub(super) fn iface(&self) -> IfaceId {
        IfaceId((self.tag >> 8) as u8)
    }

    pub(super) fn class(&self) -> TrafficClass {
        if self.tag & 0xFF == TrafficClass::Data as u64 {
            TrafficClass::Data
        } else {
            TrafficClass::Control
        }
    }

    /// The canonical event key this fan-out executes under.
    pub(super) fn key(&self) -> u128 {
        u128::from(self.rank()) << 64 | u128::from(self.tag >> 16)
    }
}

/// The profiler's attribution class for an event (the public face of the
/// private [`EventKind`]).
pub(super) fn event_class(kind: &EventKind) -> EventClass {
    match kind {
        EventKind::Arrival { .. } => EventClass::Arrival,
        EventKind::Timer { .. } => EventClass::Timer,
        EventKind::LinkChange { .. } => EventClass::LinkChange,
        EventKind::NodeChange { .. } => EventClass::NodeChange,
        EventKind::LossChange { .. } => EventClass::LossChange,
        EventKind::Fanout(..) | EventKind::FanoutCohort(..) => EventClass::Fanout,
    }
}

/// The node an event dispatches into, when it has one. (Fan-outs dispatch
/// into many nodes; the batched path attributes per delivery instead.)
pub(super) fn event_node(kind: &EventKind) -> Option<NodeId> {
    match kind {
        EventKind::Arrival { node, .. } | EventKind::Timer { node, .. } => Some(*node),
        _ => None,
    }
}

/// Engine state a dispatch only reads, mutated between dispatches by the
/// run loop's global transitions: the topology and the fault state.
pub(super) struct Shared {
    pub(super) topo: Topology,
    /// The run seed; per-node RNG streams derive from it (see `node_seed`).
    pub(super) seed: u64,
    /// Per-node "process is down" flag (router crash); arrivals and timers
    /// for a down node are discarded.
    pub(super) node_down: Vec<bool>,
    /// Per-node process epoch, bumped whenever a started simulation replaces
    /// the node's agent (crash, restart, mid-run `Sim::set_agent`); guards
    /// stale timers. Empty ≡ every node at epoch 0: allocated by the first
    /// replacement (see [`epoch`](Self::epoch)).
    node_epoch: Vec<u64>,
    /// Temporary per-link loss-probability overrides (loss bursts).
    pub(super) loss_override: HashMap<LinkId, f64>,
    /// Deferred fan-out batching (on by default; `Sim::set_fanout_batching`
    /// turns it off for the eager reference semantics).
    pub(super) batch_fanout: bool,
}

impl Shared {
    pub(super) fn new(topo: Topology, seed: u64) -> Shared {
        Shared {
            node_down: vec![false; topo.node_count()],
            node_epoch: Vec::new(),
            loss_override: HashMap::new(),
            batch_fanout: true,
            topo,
            seed,
        }
    }

    /// `node`'s process epoch: how many times its agent has been replaced
    /// since the simulation started.
    pub(super) fn epoch(&self, node: NodeId) -> u64 {
        self.node_epoch.get(node.index()).copied().unwrap_or(0)
    }

    /// `node`'s agent was replaced: timers bound to the old epoch are dead.
    pub(super) fn bump_epoch(&mut self, node: NodeId) {
        if self.node_epoch.is_empty() {
            self.node_epoch = vec![0; self.node_down.len()];
        }
        self.node_epoch[node.index()] += 1;
    }
}

/// Derive node `node`'s RNG seed from the run seed — a SplitMix64-style
/// mix, so per-node streams are decorrelated and independent of when any
/// other node draws.
pub(super) fn node_seed(seed: u64, node: u32) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A frame's causal identity, carried by its arrival events and, while one
/// is being dispatched, standing as the dispatch's cause: its id, the root
/// of its causal chain, and when that root entered the wire. Frames sent
/// during the dispatch inherit the root — this is how one data packet is
/// followed source → receivers across forwarding hops without inspecting
/// payloads.
#[derive(Debug, Clone, Copy)]
pub(super) struct ArrivalCause {
    /// The frame's id (one per `Ctx::send`; LAN copies share it).
    pub(super) id: PacketId,
    /// Root of the causal chain this frame belongs to (see
    /// `trace::TraceKind::PacketTx`).
    pub(super) root: PacketId,
    /// When the root frame entered the wire — the chain's birth time,
    /// carried so delivery latency needs no lookup table.
    pub(super) root_at: SimTime,
}

/// One remembered [`Ctx::derive_frame`] result. Holding `src` keeps the
/// source buffer alive, so no other frame can be allocated at its address
/// while the entry stands: pointer identity cannot alias (no ABA).
pub(super) struct DerivedFrame {
    pub(super) src: Payload,
    pub(super) tag: u32,
    pub(super) out: Payload,
}

/// The mutable half of the engine: the event wheel, per-node RNG/sequence
/// slabs, and the observability state (stats / metrics / trace /
/// profiler).
pub(super) struct World {
    /// Unicast routing cache (a pure function of the topology; repaired or
    /// invalidated by the run loop on every topology change).
    pub(super) routing: Routing,
    pub(super) stats: Stats,
    /// Per-node deterministic RNG streams, indexed by node id. Empty until
    /// a node first draws (see [`rng`](Self::rng)).
    rngs: Vec<StdRng>,
    /// Per-node canonical-key counters (`source rank << 64 | seq`).
    pub(super) src_seq: Vec<u64>,
    /// Per-node packet-id counters (`(node + 1) << 40 | seq`).
    pub(super) pkt_seq: Vec<u64>,
    /// The nodes a topology transition is delivered to, by node id
    /// ([`Ctx::watch_topology`] adds, `Sim::install_agent` drops). A
    /// `BTreeSet`: registrations arrive in any node order, a sweep walks in
    /// ascending id, and an empty set — every FIB-seeded tree — costs
    /// nothing to hold or walk.
    pub(super) listeners: BTreeSet<u32>,
    pub(super) now: SimTime,
    /// The pending-event set: a calendar-queue timer wheel popping in the
    /// deterministic `(timestamp, key)` total order (see [`crate::wheel`]).
    pub(super) queue: TimerWheel<EventKind>,
    pub(super) events_processed: u64,
    /// High-water mark of the node event queue (capacity planning for
    /// large-scale runs; reported by the scale benchmarks).
    pub(super) peak_queue_depth: usize,
    /// Structured event capture (`None` = tracing disabled, the default).
    pub(super) trace: Option<Tracer>,
    /// Time-series metrics (`None` = disabled, the default).
    pub(super) metrics: Option<Metrics>,
    /// Engine self-profiler (`None` = disabled, the default).
    pub(super) prof: Option<Profiler>,
    /// Causal context of the arrival currently being dispatched, if any.
    pub(super) cause: Option<ArrivalCause>,
    /// The last frame derivation performed (see
    /// [`Ctx::derive_frame`]).
    pub(super) derived: Option<DerivedFrame>,
    /// Derivations actually run: [`Ctx::derive_frame`] misses.
    pub(super) frames_derived: u64,
    /// Recycled cohort buffers from drained `FanoutCohort` events.
    pub(super) fanout_spares: Vec<Cohort>,
    /// Scratch for the eager (lossy/unicast) send path's bulk schedule.
    pub(super) bulk_scratch: Vec<(u128, EventKind)>,
    /// The nodes whose [`Agent::audit_state`](super::Agent::audit_state)
    /// may have moved since the auditor last read them ([`Ctx::audit_changed`]
    /// and the engine's own marks). `None` — no auditor in the sink chain —
    /// makes a mark one branch.
    pub(super) audit_marks: Option<AuditMarks>,
}

/// A set of nodes: a bit each, and the members in the order they were
/// marked, so taking them costs the members and not the node count.
pub(super) struct AuditMarks {
    bits: Vec<u64>,
    marked: Vec<NodeId>,
}

impl AuditMarks {
    /// Every one of `n` nodes marked: what an auditor that has read nothing
    /// yet needs.
    pub(super) fn all(n: usize) -> AuditMarks {
        let mut marks = AuditMarks { bits: vec![0; n.div_ceil(64)], marked: Vec::new() };
        (0..n as u32).for_each(|i| marks.mark(NodeId(i)));
        marks
    }

    pub(super) fn mark(&mut self, node: NodeId) {
        let i = node.index();
        let (word, bit) = (&mut self.bits[i / 64], 1u64 << (i % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.marked.push(node);
        }
    }

    /// The marked nodes, unmarked as they are taken.
    pub(super) fn take(&mut self) -> impl Iterator<Item = NodeId> + '_ {
        let AuditMarks { bits, marked } = self;
        marked.drain(..).inspect(move |n| {
            let i = n.index();
            bits[i / 64] &= !(1u64 << (i % 64));
        })
    }
}

impl World {
    /// Cap on retained cohort buffers recycled between fan-out pops. The
    /// cap bounds the *count*, not the bytes: a workload's cohort width
    /// sets each buffer's capacity. It must cover the transient demand of
    /// a dispatch wave — interleaved senders (e.g. the random-topology
    /// protocol bench) keep a few hundred small cohorts in flight at
    /// once, and a pool miss is one heap allocation per new cohort on
    /// the hot path.
    pub(super) const FANOUT_SPARES_MAX: usize = 256;

    pub(super) fn new(topo: &Topology, wheel: WheelConfig) -> World {
        let n = topo.node_count();
        World {
            routing: Routing::new(),
            stats: Stats::new(topo.link_count()),
            rngs: Vec::new(),
            src_seq: vec![0; n],
            pkt_seq: vec![0; n],
            listeners: BTreeSet::new(),
            now: SimTime::ZERO,
            queue: TimerWheel::new(wheel),
            events_processed: 0,
            peak_queue_depth: 0,
            trace: None,
            metrics: None,
            prof: None,
            cause: None,
            derived: None,
            frames_derived: 0,
            fanout_spares: Vec::new(),
            bulk_scratch: Vec::new(),
            audit_marks: None,
        }
    }

    /// `node`'s audit state may have moved (a no-op without an auditor).
    pub(super) fn mark_audit(&mut self, node: NodeId) {
        if let Some(marks) = &mut self.audit_marks {
            marks.mark(node);
        }
    }

    /// Node `node`'s RNG stream under run seed `seed`. A stream is a pure
    /// function of `(seed, node)`, so when its table comes to exist is not
    /// observable: the first draw seeds the streams of all nodes, and a run
    /// that never draws — no lossy link, no randomized agent — holds none.
    pub(super) fn rng(&mut self, seed: u64, node: NodeId) -> &mut StdRng {
        if self.rngs.is_empty() {
            let n = self.src_seq.len() as u32;
            self.rngs = (0..n).map(|i| StdRng::seed_from_u64(node_seed(seed, i))).collect();
        }
        &mut self.rngs[node.index()]
    }

    #[cfg(test)]
    pub(super) fn rngs_seeded(&self) -> bool {
        !self.rngs.is_empty()
    }

    /// Allocate the next canonical event key for events scheduled by
    /// `node`: `rank << 64 | seq`, rank = id + 1.
    #[inline]
    pub(super) fn next_key(&mut self, node: NodeId) -> u128 {
        let i = node.index();
        let s = self.src_seq[i];
        self.src_seq[i] += 1;
        ((node.0 as u128 + 1) << 64) | s as u128
    }

    pub(super) fn push(&mut self, at: SimTime, key: u128, kind: EventKind) {
        self.queue.push_keyed(at, key, kind);
        if self.queue.len() > self.peak_queue_depth {
            self.peak_queue_depth = self.queue.len();
        }
    }

    /// Queue a deferred fan-out `m` of `frame` (in the causal chain `root`,
    /// born `root_at`) at `(at, m.key())`, coalescing with the queue's most
    /// recent same-timestamp entry when that entry is itself a fan-out
    /// *and* every member of it keys below the newcomer — a forwarding hop
    /// emitting k same-latency sends back to back occupies one queue entry
    /// instead of k. The ascending-key condition keeps pop order canonical:
    /// a cohort pops at its first member's key, and expansion pauses at any
    /// member a smaller-keyed interloper undercuts (see
    /// `Exec::expand_cohort`).
    ///
    /// `frame` is made owned only where it starts a run (see [`Cohort`]),
    /// so a borrowed frame fanned out behind its own earlier send costs no
    /// refcount operation at all.
    pub(super) fn push_fanout(&mut self, at: SimTime, m: Member, root: PacketId, root_at: SimTime, frame: Cow<'_, Payload>) {
        if let Some(last) = self.queue.tail_mut_at(at) {
            match last {
                EventKind::FanoutCohort(c) if c.members.last().is_some_and(|t| t.key() < m.key()) => {
                    c.push(m, root, root_at, frame);
                    return;
                }
                EventKind::Fanout(prev) if prev.member.key() < m.key() => {
                    // Upgrade the tail entry in place to a two-member cohort.
                    let cohort = EventKind::FanoutCohort(self.fanout_spares.pop().unwrap_or_default());
                    let EventKind::Fanout(prev) = std::mem::replace(last, cohort) else { unreachable!() };
                    let EventKind::FanoutCohort(c) = last else { unreachable!() };
                    c.push(prev.member, prev.root, prev.root_at, Cow::Owned(prev.bytes));
                    c.push(m, root, root_at, frame);
                    return;
                }
                _ => {}
            }
        }
        let fs = FanoutSend { bytes: frame.into_owned(), root, root_at, member: m };
        self.push(at, m.key(), EventKind::Fanout(fs));
    }

    /// Record a trace event if tracing is enabled (causal sampling applied
    /// inside; packet events carry their own root).
    pub(super) fn trace_push(&mut self, kind: TraceKind) {
        if let Some(t) = &mut self.trace {
            t.push(self.now, kind);
        }
    }

    /// Record that `frame` was dropped on `link` instead of delivered.
    pub(super) fn trace_drop(&mut self, link: LinkId, frame: ArrivalCause, reason: DropReason, class: TrafficClass) {
        let (id, root) = (frame.id, frame.root);
        self.trace_push(TraceKind::PacketDrop { link, id, root, reason, class });
    }

    /// Like [`trace_push`](Self::trace_push) for rootless records (protocol
    /// events): sampled by the causal root of the arrival being dispatched,
    /// if any, so a kept chain keeps the counter bumps it caused.
    pub(super) fn trace_push_ambient(&mut self, kind: TraceKind) {
        if let Some(t) = &mut self.trace {
            t.push_caused(self.now, kind, self.cause.map(|c| c.root));
        }
    }

    /// The observed half of a counter bump: feed counter `id`'s metrics
    /// series and mirror the bump into the trace as a protocol event, so
    /// existing instrumentation appears in timelines without per-call-site
    /// changes. The event is built from what is already interned — the
    /// counter's name and handle, or for a labeled counter (`labeled`) its
    /// base as the name and the label beside it — and allocates nothing.
    fn mirror(&mut self, node: NodeId, id: CounterId, labeled: Option<(&'static str, ChanLabel)>, delta: u64) {
        if let Some(m) = &mut self.metrics {
            m.on_count(self.now, id, &self.stats, delta);
        }
        if self.trace.is_some() {
            let (name, channel, counter) = match labeled {
                Some((base, label)) => (Name::Static(base), Some(label), None),
                None => (self.stats.name_of(id).clone(), None, Some(id)),
            };
            let event = ProtoEvent { name, channel, value: Some(delta), detail: None, counter };
            self.trace_push_ambient(TraceKind::Proto { node, event });
        }
    }

    /// Bump named counter `key` by `delta` on behalf of `node`:
    /// [`count_id`](Self::count_id) behind an intern probe.
    pub(super) fn count(&mut self, node: NodeId, key: &'static str, delta: u64) {
        let id = self.stats.counter(key);
        self.count_id(node, id, delta);
    }

    /// Bump a pre-registered counter by handle — the per-packet fast path:
    /// one array index when neither metrics nor tracing is on.
    pub(super) fn count_id(&mut self, node: NodeId, id: CounterId, delta: u64) {
        self.stats.count_id(id, delta);
        if self.metrics.is_some() || self.trace.is_some() {
            self.mirror(node, id, None, delta);
        }
    }

    /// Bump the per-channel labeled counter `base{chan=channel}` through
    /// the interned `(base, channel)` handle: no formatting on the hot
    /// path. Mirrors keep the pre-interning shapes — the metrics series is
    /// the full composed name's, the trace event carries `base` as the name
    /// and the channel separately.
    pub(super) fn count_channel(&mut self, node: NodeId, base: &'static str, channel: Channel, delta: u64) {
        let id = self.stats.channel_counter(base, channel);
        self.stats.count_id(id, delta);
        if self.metrics.is_some() || self.trace.is_some() {
            self.mirror(node, id, Some((base, ChanLabel::Channel(channel))), delta);
        }
    }
}
