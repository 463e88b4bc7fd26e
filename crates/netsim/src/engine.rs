//! The discrete-event engine: event queue, agent dispatch, packet delivery,
//! timers, link failure injection — and the sharded parallel runtime.
//!
//! Protocol logic lives in [`Agent`] implementations attached one-per-node.
//! Agents interact with the world exclusively through [`Ctx`]: sending
//! frames, setting timers, querying unicast routing (including the RPF
//! lookup ECMP is built on), and bumping counters.
//!
//! ## Delivery model
//!
//! * A frame sent on an interface propagates to every other endpoint of the
//!   attached link ([`Tx::AllOnLink`]) or to one designated endpoint
//!   ([`Tx::To`]); arrival is delayed by link latency plus serialization
//!   (`8·len / bandwidth`).
//! * [`Reliability::Datagram`] frames are dropped independently with the
//!   link's loss probability. [`Reliability::Reliable`] frames are never
//!   dropped and same-link frames arrive in send order — this models ECMP's
//!   TCP neighbor mode (§3.2) with retransmission abstracted away; the
//!   visible TCP property that *matters* to the protocol (failure
//!   notification) is delivered via [`Agent::on_link_change`].
//! * Frames are raw octets; agents parse them with `express-wire`. The
//!   engine never interprets packet contents.
//!
//! ## Event ordering
//!
//! Every event carries a **canonical key**: `source rank << 64 | per-source
//! counter`, where rank 0 is the external harness (fault schedules,
//! [`Sim::schedule_timer_at`]) and node *i* has rank *i + 1*. Events
//! execute in `(timestamp, key)` order — ties at the same microsecond
//! resolve by key, which within one source means scheduling order. The key
//! is a pure function of *who* scheduled the event and *how many* events
//! that source had scheduled before — never of which shard ran the source —
//! which is what makes the parallel engine's replay byte-identical at any
//! shard count (see `docs/INTERNALS.md` §6). The wheel's geometry
//! ([`WheelConfig`]) affects only the *cost* of scheduling, never the
//! order. Determinism is pinned three ways: the `queue_`-prefixed property
//! tests (wheel vs. reference heap), the golden fault-storm replay (swept
//! over shard counts), and a golden replay at a non-default granularity.
//!
//! ## Batched fan-out
//!
//! Loss-free [`Tx::AllOnLink`] sends do not schedule one arrival per
//! receiver: they enqueue a single deferred fan-out event that expands
//! into its deliveries when it pops, and consecutive same-timestamp
//! fan-outs coalesce into one queue entry (order-safely: a fan-out only
//! joins a cohort whose members all key below it, and expansion pauses —
//! re-queueing the rest — whenever a smaller-keyed event lands between two
//! members). Event *order*, traces, stats, and RNG consumption are
//! identical to the eager per-receiver schedule (pinned by the
//! cohort-equivalence property tests); peak queue depth is bounded by
//! queue *entries* instead of receivers. See `docs/INTERNALS.md` §5 and
//! [`Sim::set_fanout_batching`].
//!
//! ## Sharded parallel drain
//!
//! [`Sim::set_shards`] partitions the topology into contiguous node-range
//! shards ([`crate::shard`]); each shard owns a [`TimerWheel`], per-node
//! RNG/sequence slabs, and its agents, and drains on its own thread.
//! Cross-shard packets ride a lookahead-bounded conservative window
//! protocol (barrier-per-window): the minimum cut-link latency `L`
//! guarantees any event executed at `t ≥ min_next` produces cross-shard
//! work no earlier than `min_next + L`, so each window safely drains
//! `[min_next, min_next + L)` in parallel and exchanges boundary events at
//! the barrier. Faults and other global transitions are coordinator
//! events: the window loop drains strictly up to the global's `(time,
//! key)` bound, dispatches it stop-the-world, and resumes. The merged
//! run — stats, metrics, profile, trace — is byte-identical to the
//! single-shard run; `docs/INTERNALS.md` §6 derives the safe-window math
//! and the boundary merge order.

use crate::audit::{AuditNodeState, AuditSnapshot, Auditor, ChannelTruth};
use crate::id::{IfaceId, LinkId, NodeId};
use crate::metrics::{Metrics, MetricsConfig};
use crate::prof::{EventClass, ProfConfig, Profiler, WheelGauges};
use crate::routing::{NextHop, Routing};
use crate::shard::{self, ShardPlan};
use crate::stats::{CounterId, Stats, TrafficClass};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeKind, Topology};
use crate::trace::{
    DropReason, PacketId, ProtoEvent, Tee, TraceBuffer, TraceConfig, TraceEvent, TraceKind,
    TraceLevel, TraceSink, Tracer,
};
use crate::wheel::{TimerWheel, WheelConfig};
use express_wire::addr::{Channel, Ipv4Addr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::any::Any;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// An opaque timer cookie chosen by the agent; returned verbatim in
/// [`Agent::on_timer`]. Agents encode what the timer means in the value.
pub type TimerToken = u64;

/// A frame's octets, reference-counted so one buffer is shared by every
/// receiver on a link — and, via [`Ctx::send_shared`], by every outgoing
/// interface of a forwarding hop. `&Payload` deref-coerces to `&[u8]`, so
/// parsing code is unaffected; forwarding code clones the handle (a
/// refcount bump) instead of the bytes.
pub type Payload = Arc<[u8]>;

/// Delivery reliability class for a transmitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Subject to the link loss probability (UDP mode, data traffic).
    Datagram,
    /// Never lost, in-order per link (TCP neighbor mode with retransmission
    /// abstracted; see module docs).
    Reliable,
}

/// A structured description of one topology transition, delivered to every
/// live agent via [`Agent::on_topology_change`]. This is the protocol-facing
/// half of the failure model documented in `docs/FAILURE_MODEL.md`: agents
/// that need to distinguish *what* changed (rather than just "routing is
/// different now", which [`Agent::on_route_change`] conveys) match on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChange {
    /// A link went down (scheduled fault or router crash).
    LinkDown(LinkId),
    /// A link came back up.
    LinkUp(LinkId),
    /// A router crashed: its agent — and all its soft state — is gone, and
    /// every link that was up at the instant of the crash is now down.
    NodeDown(NodeId),
    /// A crashed router restarted with a fresh agent (empty soft state);
    /// the links downed by its crash are back up.
    NodeUp(NodeId),
}

/// Who on the link receives a transmitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tx {
    /// Every endpoint of the link except the sender (LAN multicast, or the
    /// single peer of a point-to-point link).
    AllOnLink,
    /// Only the named node (link-layer unicast on a LAN).
    To(NodeId),
}

/// Protocol logic attached to one node.
///
/// All methods have defaults so simple agents implement only what they need.
/// `as_any_mut` enables harness code to downcast and inspect protocol state
/// after (or during) a run.
///
/// `Send` is a supertrait: under the sharded engine each shard's agents are
/// dispatched from that shard's worker thread, so agent state must be
/// thread-transferable (plain owned data — which every agent here already
/// was; the bound rules out `Rc`/`RefCell` captures).
pub trait Agent: Send {
    /// Called once when the simulation starts, in node-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A frame arrived on `iface`. The shared buffer handle is passed so
    /// pure forwarding can re-transmit via [`Ctx::send_shared`] without
    /// copying; `&Payload` coerces to `&[u8]` wherever octets are parsed.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {}

    /// A timer set by this agent fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}

    /// A link attached to `iface` changed state. For a reliable-mode
    /// neighbor this is the TCP connection-failure notification of §3.2.
    fn on_link_change(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _up: bool) {}

    /// Unicast routing was recomputed (any topology change). Routers use
    /// this to re-evaluate per-channel RPF interfaces (§3.2 re-homing).
    fn on_route_change(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A topology transition happened somewhere in the network. Delivered
    /// to *every* live agent (not just link endpoints) after the affected
    /// links flipped and routing was invalidated, and immediately before
    /// the [`on_route_change`](Self::on_route_change) sweep. Protocols that
    /// care what changed — not merely that routes moved — implement this;
    /// e.g. a PIM RP could watch for [`TopologyChange::NodeDown`] of a peer.
    fn on_topology_change(&mut self, _ctx: &mut Ctx<'_>, _change: TopologyChange) {}

    /// A short stable label for this agent's *type* (`ecmp_router`,
    /// `express_host`, …), used by the engine self-profiler to attribute
    /// dispatch time per agent kind. The default is fine for agents that
    /// never show up hot in a profile.
    fn kind_name(&self) -> &'static str {
        "agent"
    }

    /// Report this agent's protocol truth for the online auditor (see
    /// [`crate::audit`]): routes with forwarding intent and counts,
    /// host-side subscribe/source state. Takes `&self` on purpose — the
    /// snapshot must be a *pure read* (no RNG draws, no sends, no state
    /// mutation), so taking one can never perturb a deterministic run.
    /// The default `None` exempts the node from per-node audit checks.
    fn audit_state(&self, _topo: &Topology, _node: NodeId) -> Option<AuditNodeState> {
        None
    }

    /// Data-path devirtualization hook: return
    /// `Some(hot_packet_stub::<Self>())` to let the engine dispatch this
    /// agent's data-class arrivals through a cached function pointer — one
    /// concrete downcast plus a statically dispatched `on_packet` the
    /// compiler can inline — instead of the per-event virtual call. The
    /// engine refreshes its per-node cache whenever an agent is installed,
    /// crashed, or restarted; control traffic keeps the dyn path. `None`
    /// (the default) keeps every dispatch dynamic.
    fn hot_packet_fn(&self) -> Option<HotPacketFn> {
        None
    }

    /// Downcasting hook for inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The devirtualized fast-path packet dispatch: a plain function pointer
/// cached per node by the engine (see [`Agent::hot_packet_fn`]). Built
/// with [`hot_packet_stub`].
pub type HotPacketFn = fn(&mut dyn Agent, &mut Ctx<'_>, IfaceId, &Payload, TrafficClass);

/// Build the [`HotPacketFn`] stub for concrete agent type `A` — the one
/// expression an agent's [`Agent::hot_packet_fn`] needs:
/// `Some(hot_packet_stub::<Self>())`. The stub downcasts the `dyn Agent`
/// to `A` and calls `on_packet` statically, so the concrete body inlines
/// into the stub.
pub fn hot_packet_stub<A: Agent + 'static>() -> HotPacketFn {
    |agent, ctx, iface, bytes, class| {
        agent
            .as_any_mut()
            .downcast_mut::<A>()
            .expect("hot-path stub cached for a different agent type")
            .on_packet(ctx, iface, bytes, class)
    }
}

/// A do-nothing agent for nodes without protocol logic.
pub struct NullAgent;

impl Agent for NullAgent {
    fn kind_name(&self) -> &'static str {
        "null"
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[derive(Debug)]
enum EventKind {
    Arrival {
        node: NodeId,
        iface: IfaceId,
        bytes: Payload,
        class: TrafficClass,
        /// The frame's id (one per `Ctx::send`; LAN copies share it).
        id: PacketId,
        /// Root of the causal chain this frame belongs to (see
        /// `trace::TraceKind::PacketTx`).
        root: PacketId,
        /// When the root frame entered the wire — the chain's birth time,
        /// carried so delivery latency needs no lookup table.
        root_at: SimTime,
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
    /// On a cut link the same event (same key) is mirrored into every
    /// shard the link touches; each expands only its own endpoints.
    Fanout(FanoutSend),
    /// Consecutive same-timestamp fan-outs coalesced into one queue entry
    /// by `World::push_fanout`; members are kept in ascending key order and
    /// expanded against the pause rule (see `ShardExec::expand_cohort`).
    /// The last member always owns its frame (see [`FanoutSend::bytes`]).
    FanoutCohort(Vec<FanoutSend>),
}

/// One deferred link transmission: everything needed to expand the
/// per-receiver arrivals of a [`Ctx::send_shared`] at drain time. Only
/// loss-free sends defer (a lossy datagram send must draw its per-receiver
/// RNG at send time to keep the random stream identical to the eager
/// path), so expansion needs no RNG.
#[derive(Debug)]
struct FanoutSend {
    /// The sending node (skipped during the endpoint walk).
    node: NodeId,
    /// The sender's interface; the link is re-resolved at expansion.
    iface: IfaceId,
    /// The frame, by reference within a cohort: a run of consecutive
    /// members transmitting the same handle (every router of a tree level
    /// forwarding one derived frame) keeps a single owner, its **last**
    /// member, and the members before it hold `None`. Joining a run moves
    /// the handle from the old tail to the newcomer, and a paused cohort's
    /// re-queued tail still ends in its owners, so neither touches a
    /// refcount. A fan-out outside a cohort always owns its frame.
    bytes: Option<Payload>,
    class: TrafficClass,
    id: PacketId,
    root: PacketId,
    root_at: SimTime,
    /// The canonical event key this fan-out executes under — also the key
    /// its trace records carry in every shard that expands a mirror of it.
    key: u128,
}

/// The profiler's attribution class for an event (the public face of the
/// private [`EventKind`]).
fn event_class(kind: &EventKind) -> EventClass {
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
fn event_node(kind: &EventKind) -> Option<NodeId> {
    match kind {
        EventKind::Arrival { node, .. } | EventKind::Timer { node, .. } => Some(*node),
        _ => None,
    }
}

/// Rank-0 (external/harness) sequence numbers start here so the start-up
/// sweep's trace tags — keyed `(rank 0, node id)` — sort before every
/// pre-scheduled external event.
const EXT_SEQ_BASE: u64 = 1 << 32;

/// Engine state read by every shard and mutated only by the coordinator
/// between parallel windows: the topology, fault state, and the partition
/// plan. Workers hold `&Shared`; no part of it is cloned per shard.
struct Shared {
    topo: Topology,
    /// The run seed; per-node RNG streams derive from it (see `node_seed`).
    seed: u64,
    /// Per-node "process is down" flag (router crash); arrivals and timers
    /// for a down node are discarded.
    node_down: Vec<bool>,
    /// Per-node restart epoch, bumped at each crash; guards stale timers.
    node_epoch: Vec<u64>,
    /// Temporary per-link loss-probability overrides (loss bursts).
    loss_override: HashMap<LinkId, f64>,
    /// Deferred fan-out batching (on by default; `Sim::set_fanout_batching`
    /// turns it off for the eager reference semantics).
    batch_fanout: bool,
    /// The shard partition ([`ShardPlan::single`] for the classic engine).
    plan: ShardPlan,
}

/// Derive node `node`'s RNG seed from the run seed — a SplitMix64-style
/// mix, so per-node streams are decorrelated and, crucially, independent
/// of the shard layout.
fn node_seed(seed: u64, node: u32) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The arrival being dispatched right now: its id, the root of its causal
/// chain, and when that root entered the wire. Frames sent during the
/// dispatch inherit the root — this is how one data packet is followed
/// source → receivers across forwarding hops without inspecting payloads.
#[derive(Debug, Clone, Copy)]
struct ArrivalCause {
    id: PacketId,
    root: PacketId,
    root_at: SimTime,
}

/// One remembered [`Ctx::derive_frame`] result. Holding `src` keeps the
/// source buffer alive, so no other frame can be allocated at its address
/// while the entry stands: pointer identity cannot alias (no ABA).
struct DerivedFrame {
    src: Payload,
    tag: u32,
    out: Payload,
}

/// One shard's mutable half of the engine: the node range `[base, limit)`,
/// its event wheel, per-node RNG/sequence slabs, and its own observability
/// state (stats / metrics / trace / profiler), merged into shard 0 at the
/// end of a sharded run. The classic engine is exactly one `World`
/// covering every node.
struct World {
    /// This world's index in the plan.
    shard: usize,
    /// First node id owned by this shard.
    base: u32,
    /// One past the last node id owned by this shard.
    limit: u32,
    /// Per-shard unicast routing cache (a pure function of the topology;
    /// invalidated by the coordinator on every topology change).
    routing: Routing,
    stats: Stats,
    /// Per-owned-node deterministic RNG streams, indexed `node - base`.
    rngs: Vec<StdRng>,
    /// Per-owned-node canonical-key counters (`source rank << 64 | seq`).
    src_seq: Vec<u64>,
    /// Per-owned-node packet-id counters (`(node + 1) << 40 | seq`).
    pkt_seq: Vec<u64>,
    now: SimTime,
    /// The pending-event set: a calendar-queue timer wheel popping in the
    /// deterministic `(timestamp, key)` total order (see [`crate::wheel`]).
    queue: TimerWheel<EventKind>,
    events_processed: u64,
    /// High-water mark of this shard's event queue (capacity planning for
    /// large-scale runs; reported by the scale benchmarks).
    peak_queue_depth: usize,
    /// Structured event capture (`None` = tracing disabled, the default).
    trace: Option<Tracer>,
    /// Time-series metrics (`None` = disabled, the default).
    metrics: Option<Metrics>,
    /// Engine self-profiler (`None` = disabled, the default).
    prof: Option<Profiler>,
    /// Causal context of the arrival currently being dispatched, if any.
    cause: Option<ArrivalCause>,
    /// Canonical key of the event being dispatched — the trace tag every
    /// record emitted during the dispatch carries.
    cur_key: u128,
    /// Running sub-tag within the current event (fan-out deliveries use
    /// `endpoint slab index << 32 | counter` so mirrored expansions merge
    /// in endpoint order).
    cur_sub: u64,
    /// The last frame derivation performed in this shard (see
    /// [`Ctx::derive_frame`]).
    derived: Option<DerivedFrame>,
    /// Derivations actually run: [`Ctx::derive_frame`] misses.
    frames_derived: u64,
    /// Recycled cohort buffers from drained `FanoutCohort` events.
    fanout_spares: Vec<Vec<FanoutSend>>,
    /// Scratch for the eager (lossy/unicast) send path's bulk schedule.
    bulk_scratch: Vec<(u128, EventKind)>,
    /// Cross-shard events produced this window: `(dest shard, at, key,
    /// event)`, flushed into the dest's mailbox at the window barrier.
    outbox: Vec<(usize, SimTime, u128, EventKind)>,
    /// Conservative-sync windows this shard executed (sharded runs only).
    sync_windows: u64,
    /// Wall time this shard's worker spent blocked at window barriers, ns.
    sync_stall_ns: u64,
}

impl World {
    /// Cap on retained cohort buffers recycled between fan-out pops. The
    /// cap bounds the *count*, not the bytes: a workload's cohort width
    /// sets each buffer's capacity. It must cover the transient demand of
    /// a dispatch wave — interleaved senders (e.g. the random-topology
    /// protocol bench) keep a few hundred small cohorts in flight at
    /// once, and a pool miss is one heap allocation per new cohort on
    /// the hot path.
    const FANOUT_SPARES_MAX: usize = 256;

    fn new(topo: &Topology, seed: u64, wheel: WheelConfig, shard: usize, base: u32, limit: u32) -> World {
        let span = (limit - base) as usize;
        World {
            shard,
            base,
            limit,
            routing: Routing::new(),
            stats: Stats::new(topo.link_count()),
            rngs: (base..limit).map(|i| StdRng::seed_from_u64(node_seed(seed, i))).collect(),
            src_seq: vec![0; span],
            pkt_seq: vec![0; span],
            now: SimTime::ZERO,
            queue: TimerWheel::new(wheel),
            events_processed: 0,
            peak_queue_depth: 0,
            trace: None,
            metrics: None,
            prof: None,
            cause: None,
            cur_key: 0,
            cur_sub: 0,
            derived: None,
            frames_derived: 0,
            fanout_spares: Vec::new(),
            bulk_scratch: Vec::new(),
            outbox: Vec::new(),
            sync_windows: 0,
            sync_stall_ns: 0,
        }
    }

    /// Shard-relative slab index of an owned node.
    #[inline]
    fn local(&self, node: NodeId) -> usize {
        (node.0 - self.base) as usize
    }

    /// Allocate the next canonical event key for events scheduled by
    /// `node` (an owned node): `rank << 64 | seq`, rank = id + 1.
    #[inline]
    fn next_key(&mut self, node: NodeId) -> u128 {
        let i = (node.0 - self.base) as usize;
        let s = self.src_seq[i];
        self.src_seq[i] += 1;
        ((node.0 as u128 + 1) << 64) | s as u128
    }

    fn push(&mut self, at: SimTime, key: u128, kind: EventKind) {
        self.queue.push_keyed(at, key, kind);
        if self.queue.len() > self.peak_queue_depth {
            self.peak_queue_depth = self.queue.len();
        }
    }

    /// Queue a deferred fan-out of `frame` at `(at, fs.key)`, coalescing
    /// with the queue's most recent same-timestamp entry when that entry is
    /// itself a fan-out *and* every member of it keys below the newcomer — a
    /// forwarding hop emitting k same-latency sends back to back occupies
    /// one queue entry instead of k. The ascending-key condition keeps pop
    /// order canonical: a cohort pops at its first member's key, and
    /// expansion pauses at any member a smaller-keyed interloper undercuts
    /// (see `ShardExec::expand_cohort`).
    ///
    /// `fs` arrives without its frame. Joining a cohort whose tail
    /// transmits the same handle takes that handle over from the tail (see
    /// [`FanoutSend::bytes`]); only otherwise is `frame` made owned, so a
    /// borrowed frame fanned out behind its own earlier send costs no
    /// refcount operation at all.
    fn push_fanout(&mut self, at: SimTime, mut fs: FanoutSend, frame: Cow<'_, Payload>) {
        debug_assert!(fs.bytes.is_none());
        if let Some(last) = self.queue.tail_mut_at(at) {
            let tail = match last {
                EventKind::FanoutCohort(v) => v.last_mut(),
                EventKind::Fanout(prev) => Some(prev),
                _ => None,
            };
            if let Some(tail) = tail.filter(|t| t.key < fs.key) {
                fs.bytes = match &tail.bytes {
                    Some(b) if Arc::ptr_eq(b, &frame) => tail.bytes.take(),
                    _ => Some(frame.into_owned()),
                };
                if let EventKind::FanoutCohort(v) = last {
                    v.push(fs);
                } else {
                    // Upgrade the tail entry in place to a two-member cohort.
                    let cohort = EventKind::FanoutCohort(self.fanout_spares.pop().unwrap_or_default());
                    let EventKind::Fanout(prev) = std::mem::replace(last, cohort) else { unreachable!() };
                    let EventKind::FanoutCohort(v) = last else { unreachable!() };
                    v.push(prev);
                    v.push(fs);
                }
                return;
            }
        }
        fs.bytes = Some(frame.into_owned());
        self.push(at, fs.key, EventKind::Fanout(fs));
    }

    /// Record a trace event if tracing is enabled (filters and causal
    /// sampling applied inside; packet events carry their own root). The
    /// record is tagged with the dispatching event's canonical key and the
    /// running sub-counter — the shard-invariant merge order.
    fn trace_push(&mut self, kind: TraceKind) {
        if let Some(t) = &mut self.trace {
            let sub = self.cur_sub;
            self.cur_sub += 1;
            t.push(self.now, kind, self.cur_key, sub);
        }
    }

    /// Like [`trace_push`](Self::trace_push) for rootless records (protocol
    /// events): sampled by the causal root of the arrival being dispatched,
    /// if any, so a kept chain keeps the counter bumps it caused.
    fn trace_push_ambient(&mut self, kind: TraceKind) {
        if let Some(t) = &mut self.trace {
            let sub = self.cur_sub;
            self.cur_sub += 1;
            t.push_caused(self.now, kind, self.cause.map(|c| c.root), self.cur_key, sub);
        }
    }

    /// Bump named counter `key` by `delta` on behalf of `node`: updates
    /// [`Stats`], feeds the metrics time series, and mirrors the bump as a
    /// protocol trace event so existing instrumentation appears in
    /// timelines without per-call-site changes.
    fn count(&mut self, node: NodeId, key: &'static str, delta: u64) {
        self.stats.count(key, delta);
        if let Some(m) = &mut self.metrics {
            m.on_count(self.now, key, delta);
        }
        if self.trace.is_some() {
            self.trace_push_ambient(TraceKind::Proto {
                node,
                event: ProtoEvent {
                    name: Cow::Borrowed(key),
                    channel: None,
                    value: Some(delta),
                    detail: None,
                },
            });
        }
    }

    /// Bump a pre-registered counter by handle — the per-packet fast path:
    /// one array index when neither metrics nor tracing is on. The mirrors
    /// resolve the interned name only when they are enabled.
    fn count_id(&mut self, node: NodeId, id: CounterId, delta: u64) {
        self.stats.count_id(id, delta);
        if self.metrics.is_some() || self.trace.is_some() {
            let name = self.stats.name_of(id).clone();
            if let Some(m) = &mut self.metrics {
                m.on_count(self.now, name.as_ref(), delta);
            }
            if self.trace.is_some() {
                self.trace_push_ambient(TraceKind::Proto {
                    node,
                    event: ProtoEvent {
                        name,
                        channel: None,
                        value: Some(delta),
                        detail: None,
                    },
                });
            }
        }
    }

    /// Bump the per-channel labeled counter `base{chan=channel}` through
    /// the interned `(base, channel)` handle: no formatting on the hot
    /// path. Mirrors keep the pre-interning shapes — the metrics series is
    /// keyed by the full composed name, the trace event carries `base` as
    /// the name and the channel separately (so channel filters apply).
    fn count_channel(&mut self, node: NodeId, base: &'static str, channel: Channel, delta: u64) {
        let id = self.stats.channel_counter(base, channel);
        self.stats.count_id(id, delta);
        if self.metrics.is_some() || self.trace.is_some() {
            if let Some(m) = &mut self.metrics {
                let full = self.stats.name_of(id).clone();
                m.on_count(self.now, full.as_ref(), delta);
            }
            if self.trace.is_some() {
                self.trace_push_ambient(TraceKind::Proto {
                    node,
                    event: ProtoEvent {
                        name: Cow::Borrowed(base),
                        channel: Some(channel.to_string()),
                        value: Some(delta),
                        detail: None,
                    },
                });
            }
        }
    }

    /// Like [`count`](Self::count) but for a per-channel labeled counter
    /// `base{chan=label}`. The label formats into [`Stats`]' interned key;
    /// the trace event keeps `base` as the name and the label as the
    /// channel (so channel filters apply).
    fn count_labeled(&mut self, node: NodeId, base: &'static str, label: &dyn std::fmt::Display, delta: u64) {
        self.stats.count_labeled(base, label, delta);
        if self.metrics.is_some() || self.trace.is_some() {
            let chan = label.to_string();
            if let Some(m) = &mut self.metrics {
                m.on_count(self.now, &format!("{base}{{chan={chan}}}"), delta);
            }
            if self.trace.is_some() {
                self.trace_push_ambient(TraceKind::Proto {
                    node,
                    event: ProtoEvent {
                        name: Cow::Borrowed(base),
                        channel: Some(chan),
                        value: Some(delta),
                        detail: None,
                    },
                });
            }
        }
    }
}

/// The agent's window into the simulation during a dispatch: queries
/// (time, topology, routing), actions (send, timers), and observability
/// (counters, traces, metrics). Borrows the engine's shared read-mostly
/// state plus the dispatching shard's mutable world for the duration of
/// one callback.
pub struct Ctx<'a> {
    shared: &'a Shared,
    world: &'a mut World,
    node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The node this agent is attached to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// This node's unicast address.
    pub fn my_ip(&self) -> Ipv4Addr {
        self.shared.topo.ip(self.node)
    }

    /// This node's kind.
    pub fn kind(&self) -> NodeKind {
        self.shared.topo.kind(self.node)
    }

    /// Number of interfaces on this node.
    pub fn iface_count(&self) -> usize {
        self.shared.topo.iface_count(self.node)
    }

    /// Read-only access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// This node's deterministic RNG stream. Streams are seeded per node
    /// from the run seed, so one node's draws are independent of every
    /// other node's — and of the shard layout.
    pub fn rng(&mut self) -> &mut StdRng {
        let i = self.world.local(self.node);
        &mut self.world.rngs[i]
    }

    /// Bump a named global counter (`<proto>.<event>` convention; see
    /// `docs/OBSERVABILITY.md`). When tracing / metrics are enabled the
    /// bump is also mirrored into the event stream and the time series.
    pub fn count(&mut self, key: &'static str, delta: u64) {
        let node = self.node;
        self.world.count(node, key, delta);
    }

    /// Bump the per-channel labeled counter `base{chan=label}` — e.g.
    /// `ctx.count_labeled("ecmp.count_msgs", &chan, 1)` yields
    /// `ecmp.count_msgs{chan=(10.0.0.5, 232.0.0.1)}`. Interned: one
    /// allocation per distinct key for the lifetime of the run.
    pub fn count_labeled(&mut self, base: &'static str, label: &dyn std::fmt::Display, delta: u64) {
        let node = self.node;
        self.world.count_labeled(node, base, label, delta);
    }

    /// Intern `key` and return its [`CounterId`] handle for use with
    /// [`count_id`](Self::count_id). Register hot counters once (typically
    /// in [`Agent::on_start`]); registration alone does not surface the key
    /// in [`Stats::named_counters`].
    pub fn counter(&mut self, key: &'static str) -> CounterId {
        self.world.stats.counter(key)
    }

    /// Bump a pre-registered counter — the per-packet fast path: an array
    /// index instead of a map probe, with the same mirroring to metrics and
    /// trace as [`count`](Self::count) when those are enabled.
    #[inline]
    pub fn count_id(&mut self, id: CounterId, delta: u64) {
        let node = self.node;
        self.world.count_id(node, id, delta);
    }

    /// Bump the per-channel labeled counter `base{chan=channel}` — the fast
    /// path behind [`count_labeled`](Self::count_labeled) for the common
    /// case where the label *is* a [`Channel`]: the composed key is
    /// formatted once per distinct `(base, channel)` pair for the run, and
    /// every later bump is a hash probe on the pair (no `Display` work).
    pub fn count_channel(&mut self, base: &'static str, channel: Channel, delta: u64) {
        let node = self.node;
        self.world.count_channel(node, base, channel, delta);
    }

    /// Pre-register the per-channel counter `base{chan=channel}` and return
    /// its [`CounterId`] for later [`count_id`](Self::count_id) bumps. This
    /// skips even the hash probe that [`count_channel`](Self::count_channel)
    /// pays per call — agents handling one channel on a hot path should
    /// resolve the id once and bump by id. Note that id-based bumps trace
    /// with the composed key as the event name and no separate `channel`
    /// field; use `count_channel` where the structured trace shape matters.
    pub fn channel_counter(&mut self, base: &'static str, channel: Channel) -> CounterId {
        self.world.stats.channel_counter(base, channel)
    }

    /// Emit a structured protocol trace event. Zero-cost when tracing is
    /// disabled: `build` runs only if the trace is on and capturing
    /// protocol events. Typical use:
    /// `ctx.trace("ecmp.rehome", |e| e.chan(chan).detail("via if2"))`.
    pub fn trace(&mut self, name: &'static str, build: impl FnOnce(ProtoEvent) -> ProtoEvent) {
        let node = self.node;
        let w = &mut *self.world;
        if let Some(t) = &mut w.trace {
            if t.level_on(TraceLevel::PROTOCOL) {
                let event = build(ProtoEvent {
                    name: Cow::Borrowed(name),
                    ..ProtoEvent::default()
                });
                let ambient = w.cause.map(|c| c.root);
                let sub = w.cur_sub;
                w.cur_sub += 1;
                t.push_caused(w.now, TraceKind::Proto { node, event }, ambient, w.cur_key, sub);
            }
        }
    }

    /// Record `value` into metrics histogram `name` (no-op when metrics
    /// are disabled). Latencies are in microseconds by convention.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(m) = &mut self.world.metrics {
            m.observe(name, value);
        }
    }

    /// Record a point-in-time gauge sample (no-op when metrics are
    /// disabled) — e.g. a router's current subscriber count for a channel.
    pub fn gauge(&mut self, name: &str, value: u64) {
        let now = self.world.now;
        if let Some(m) = &mut self.world.metrics {
            m.gauge(now, name, value);
        }
    }

    /// Inside an [`Agent::on_packet`] dispatch: the age of the causal
    /// packet chain the arriving frame belongs to — now minus the time the
    /// *original* frame (not the last hop's copy) entered the wire. This is
    /// the end-to-end delivery latency when called at the delivering host.
    /// `None` outside packet dispatch.
    pub fn packet_age(&self) -> Option<SimDuration> {
        self.world.cause.map(|c| self.world.now - c.root_at)
    }

    /// Neighbors reachable on `iface` right now (empty if the link is down).
    pub fn neighbors_on(&self, iface: IfaceId) -> Vec<(NodeId, IfaceId)> {
        self.shared.topo.neighbors_on(self.node, iface)
    }

    /// All (iface, neighbor) pairs of this node.
    pub fn neighbors(&self) -> Vec<(IfaceId, NodeId)> {
        self.shared.topo.neighbors(self.node)
    }

    /// Unicast next hop toward `ip` (the routing substrate of §3).
    pub fn next_hop_ip(&mut self, ip: Ipv4Addr) -> Option<NextHop> {
        let node = self.node;
        self.world.routing.next_hop_ip(&self.shared.topo, node, ip)
    }

    /// The RPF lookup: interface and upstream neighbor toward `source`
    /// (paper §3.2, Figure 3).
    pub fn rpf(&mut self, source: Ipv4Addr) -> Option<NextHop> {
        self.next_hop_ip(source)
    }

    /// Resolve a unicast address to its node.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.shared.topo.node_by_ip(ip)
    }

    /// The unicast address of `node`.
    pub fn ip_of(&self, node: NodeId) -> Ipv4Addr {
        self.shared.topo.ip(node)
    }

    /// The frame derived from the arriving frame `src` under `tag` — a
    /// forwarding hop's TTL-patched copy, with `tag` the new TTL. `derive`
    /// builds it from `src`'s octets, and its result must be a function of
    /// those octets and `tag` **only**: on that contract the engine
    /// remembers the last derivation, and a caller presenting the same
    /// `src` handle and `tag` again — every other router of the tree level
    /// that was handed this frame — gets the remembered handle back
    /// without running `derive`. Frames are immutable once shared, so one
    /// handle serving a whole level is indistinguishable from per-router
    /// copies; receivers still verify the checksum when they parse it.
    ///
    /// Identity, not content, is what is compared (equal octets under
    /// another handle derive afresh), and the memo holds a clone of `src`,
    /// so the address it compares against cannot be reused by a different
    /// frame while the entry stands. Debug builds re-run `derive` on every
    /// hit and assert the octets agree.
    pub fn derive_frame(&mut self, src: &Payload, tag: u32, derive: impl FnOnce(&[u8]) -> Payload) -> Payload {
        let w = &mut *self.world;
        if let Some(m) = &w.derived {
            if m.tag == tag && Arc::ptr_eq(&m.src, src) {
                debug_assert!(*derive(src) == *m.out, "derive_frame: derivation is not a function of (octets, tag)");
                return m.out.clone();
            }
        }
        let out = derive(src);
        w.frames_derived += 1;
        w.derived = Some(DerivedFrame {
            src: src.clone(),
            tag,
            out: out.clone(),
        });
        out
    }

    /// Transmit `bytes` out `iface`. Returns `true` if the link was up and
    /// the frame entered the wire (it may still be lost per-receiver when
    /// `Datagram`). Copies `bytes` into one shared buffer; when the frame
    /// is already in a shared buffer (a forwarded arrival), use
    /// [`send_shared`](Self::send_shared) to skip the copy.
    pub fn send(&mut self, iface: IfaceId, bytes: &[u8], class: TrafficClass, rel: Reliability, tx: Tx) -> bool {
        self.send_shared(iface, Arc::from(bytes), class, rel, tx)
    }

    /// [`send`](Self::send) without the copy: transmit an already-shared
    /// buffer out `iface`. Every receiver's arrival event — across all
    /// interfaces the same handle is sent on — references the one buffer,
    /// so a forwarding hop costs at most one allocation (its own header
    /// patch) regardless of fan-out.
    pub fn send_shared(&mut self, iface: IfaceId, payload: Payload, class: TrafficClass, rel: Reliability, tx: Tx) -> bool {
        self.transmit(iface, Cow::Owned(payload), class, rel, tx)
    }

    /// The one transmit path behind [`send_shared`](Self::send_shared)
    /// (owned handle) and [`send_fanout`](Self::send_fanout) (borrowed
    /// handle): the frame is cloned only where an event must own it.
    fn transmit(&mut self, iface: IfaceId, payload: Cow<'_, Payload>, class: TrafficClass, rel: Reliability, tx: Tx) -> bool {
        let node = self.node;
        let Ok(link) = self.shared.topo.link_of(node, iface) else {
            return false;
        };
        if !self.shared.topo.link_up(link) {
            return false;
        }
        let spec = self.shared.topo.link_spec(link);
        let ser = if spec.bandwidth_bps == u64::MAX {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((payload.len() as u64 * 8).saturating_mul(1_000_000) / spec.bandwidth_bps)
        };
        let arrive = self.world.now + spec.latency + ser;
        self.world.stats.record_tx(link, payload.len(), class);
        if let Some(m) = &mut self.world.metrics {
            // Aggregate per-class transmission series, so experiments get
            // data/control timelines without sampling Stats in a loop.
            let key = match class {
                TrafficClass::Data => "link.data_pkts",
                TrafficClass::Control => "link.control_pkts",
            };
            m.on_count(self.world.now, key, 1);
        }
        // Causal identity: a fresh id per send; a send performed while an
        // arrival is being dispatched inherits that chain's root (it is a
        // forwarded copy), otherwise it starts a new chain. Ids are drawn
        // from the sender's own counter so they are shard-invariant.
        let li = self.world.local(node);
        let id = PacketId(((node.0 as u64 + 1) << 40) | self.world.pkt_seq[li]);
        self.world.pkt_seq[li] += 1;
        let (cause, root, root_at) = match self.world.cause {
            Some(c) => (Some(c.id), c.root, c.root_at),
            None => (None, id, self.world.now),
        };
        self.world.trace_push(TraceKind::PacketTx {
            node,
            iface,
            link,
            id,
            cause,
            root,
            bytes: payload.len() as u32,
            class,
        });
        let loss = self.shared.loss_override.get(&link).copied().unwrap_or(spec.loss);
        // Deferred fan-out (the batched data path): a loss-free all-on-link
        // send becomes ONE queue entry expanded at drain time, instead of
        // one arrival per receiver. Only loss-free sends may defer — a
        // lossy datagram send draws per-receiver RNG, and deferring those
        // draws would shift the random stream relative to the eager path.
        // (Loss-free sends draw nothing, so deferral cannot shift it.)
        if self.shared.batch_fanout
            && matches!(tx, Tx::AllOnLink)
            && (rel == Reliability::Reliable || loss <= 0.0)
        {
            let key = self.world.next_key(node);
            // A fan-out on a cut link is mirrored — same key — into every
            // other shard the link touches; each shard expands only its own
            // endpoint range, so the union of expansions is exactly the
            // single-shard expansion in the same merge order.
            let mask = self.shared.plan.link_mask(link);
            if mask.count_ones() > 1 {
                let mut m = mask & !(1u64 << self.world.shard);
                while m != 0 {
                    let d = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.world.outbox.push((
                        d,
                        arrive,
                        key,
                        EventKind::Fanout(FanoutSend {
                            node,
                            iface,
                            bytes: Some(Payload::clone(&payload)),
                            class,
                            id,
                            root,
                            root_at,
                            key,
                        }),
                    ));
                }
            }
            self.world.push_fanout(
                arrive,
                FanoutSend {
                    node,
                    iface,
                    bytes: None,
                    class,
                    id,
                    root,
                    root_at,
                    key,
                },
                payload,
            );
            return true;
        }
        // Eager path (lossy or unicast sends, or batching off): indexed
        // endpoint walk — each `link_endpoint` call re-borrows the topology
        // for one copy, so no endpoint list is materialized per send (the
        // filter order matches the endpoint slice order). In-shard
        // survivors are collected and bulk-scheduled: one bucket resolution
        // per send, consecutive per-sender keys in walk order — the
        // identical pop order per-survivor pushes would produce.
        // Out-of-shard survivors go to the outbox under the same keys.
        let mut cohort = std::mem::take(&mut self.world.bulk_scratch);
        debug_assert!(cohort.is_empty());
        let n_endpoints = self.shared.topo.link_endpoint_count(link);
        let single = self.shared.plan.shard_count() == 1;
        for e in 0..n_endpoints {
            let (n, i) = self.shared.topo.link_endpoint(link, e);
            if n == node {
                continue;
            }
            if let Tx::To(t) = tx {
                if n != t {
                    continue;
                }
            }
            let lost = rel == Reliability::Datagram
                && loss > 0.0
                && self.world.rngs[li].random::<f64>() < loss;
            if lost {
                self.world.stats.record_drop(link);
                if let Some(m) = &mut self.world.metrics {
                    m.on_count(self.world.now, "link.drops", 1);
                }
                self.world.trace_push(TraceKind::PacketDrop {
                    link,
                    id,
                    root,
                    reason: DropReason::Loss,
                    class,
                });
                continue;
            }
            let key = self.world.next_key(node);
            let ev = EventKind::Arrival {
                node: n,
                iface: i,
                bytes: Payload::clone(&payload),
                class,
                id,
                root,
                root_at,
            };
            if single || n.0 >= self.world.base && n.0 < self.world.limit {
                cohort.push((key, ev));
            } else {
                self.world.outbox.push((self.shared.plan.shard_of(n), arrive, key, ev));
            }
        }
        if !cohort.is_empty() {
            self.world.queue.schedule_bulk_keyed(arrive, cohort.drain(..));
            if self.world.queue.len() > self.world.peak_queue_depth {
                self.world.peak_queue_depth = self.world.queue.len();
            }
        }
        self.world.bulk_scratch = cohort;
        true
    }

    /// Transmit an already-shared buffer out every interface whose bit is
    /// set in `mask` (bit *i* = `IfaceId(i)`, ascending) — the router
    /// fan-out walk as one call. Equivalent to one
    /// [`send_shared`](Self::send_shared) with [`Tx::AllOnLink`] per set
    /// bit; under batching each becomes a deferred fan-out and consecutive
    /// same-latency sends coalesce into a single queue entry, sharing the
    /// handle by reference rather than cloning it per interface. Returns
    /// the number of interfaces whose link was up (frames that entered the
    /// wire).
    pub fn send_fanout(&mut self, mut mask: u32, payload: &Payload, class: TrafficClass, rel: Reliability) -> u32 {
        let mut sent = 0;
        while mask != 0 {
            let i = mask.trailing_zeros();
            mask &= mask - 1;
            if self.transmit(IfaceId(i as u8), Cow::Borrowed(payload), class, rel, Tx::AllOnLink) {
                sent += 1;
            }
        }
        sent
    }

    /// Arrange for [`Agent::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let node = self.node;
        let at = self.world.now + delay;
        let epoch = self.shared.node_epoch[node.index()];
        let key = self.world.next_key(node);
        self.world.push(at, key, EventKind::Timer { node, token, epoch });
    }

    /// Whether `node`'s process is currently up (routers crashed by a
    /// scheduled fault are down until their restart).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.shared.node_down[node.index()]
    }
}

/// A factory producing a fresh agent for a restarted router.
pub type AgentFactory = Box<dyn Fn() -> Box<dyn Agent>>;

/// One shard's executor: the shared engine state, the shard's world, the
/// slice of agents it owns (indexed `node - base`), and the full hot-fn
/// cache (indexed globally, read-only on the drain path). Both the classic
/// single-shard `step()` and the parallel workers drain events through
/// this — there is exactly one dispatch implementation.
struct ShardExec<'a> {
    shared: &'a Shared,
    world: &'a mut World,
    agents: &'a mut [Option<Box<dyn Agent>>],
    hot_fns: &'a [Option<HotPacketFn>],
}

/// What the coordinator tells the workers at a window barrier.
#[derive(Clone, Copy)]
enum SegCmd {
    /// Drain events strictly below this `(time, key)` limit, then flush
    /// exports and meet at the closing barrier.
    Drain(SimTime, u128),
    /// The segment is finished (every shard's next event is at or past the
    /// segment bound): exit the worker loop.
    Stop,
}

impl<'a> ShardExec<'a> {
    /// Run `f` with the agent at `node` (owned by this shard) and a fresh
    /// dispatch context. Split borrow, as in `Sim::coord_agent`: the agent
    /// slot, the world and the shared state are disjoint.
    fn with_agent<F: FnOnce(&mut dyn Agent, &mut Ctx<'_>)>(&mut self, node: NodeId, f: F) {
        let li = (node.0 - self.world.base) as usize;
        let agent = self.agents[li].as_deref_mut().expect("no agent at node");
        let mut ctx = Ctx {
            shared: self.shared,
            world: self.world,
            node,
        };
        f(agent, &mut ctx);
    }

    /// Execute one popped event: advance this shard's clock, tag the
    /// dispatch with the event's canonical key, and run it (with profiler
    /// attribution when enabled).
    fn run_one(&mut self, at: SimTime, key: u128, kind: EventKind) {
        debug_assert!(at >= self.world.now);
        self.world.now = at;
        self.world.cur_key = key;
        self.world.cur_sub = 0;
        match kind {
            EventKind::Fanout(fs) => {
                let before = self.world.events_processed;
                let frame = fs.bytes.as_ref().expect("a fan-out outside a cohort owns its frame");
                self.expand_fanout(&fs, frame);
                self.finish_fanout_pop(before);
            }
            EventKind::FanoutCohort(sends) => {
                let before = self.world.events_processed;
                self.expand_cohort(at, sends);
                self.finish_fanout_pop(before);
            }
            kind => {
                self.world.events_processed += 1;
                if self.world.prof.is_none() {
                    self.dispatch_event(kind);
                } else {
                    let class = event_class(&kind);
                    let node = event_node(&kind);
                    let t0 = self.world.prof.as_mut().and_then(|p| p.event_begin());
                    self.dispatch_event(kind);
                    let agent = node.and_then(|n| {
                        self.agents[(n.0 - self.world.base) as usize]
                            .as_ref()
                            .map(|a| a.kind_name())
                    });
                    if let Some(p) = &mut self.world.prof {
                        p.event_end(class, node, agent, t0);
                    }
                    self.prof_gauges_if_due();
                }
            }
        }
    }

    fn prof_gauges_if_due(&mut self) {
        let World {
            prof,
            queue,
            metrics,
            now,
            ..
        } = &mut *self.world;
        if let Some(p) = prof {
            if p.gauge_due() {
                let g = WheelGauges {
                    occupied_slots: queue.occupied_slots(),
                    inbox: queue.inbox_len(),
                    overflow: queue.overflow_len(),
                    current_run: queue.current_len(),
                };
                p.record_gauges(*now, queue.len(), g);
                if let Some(m) = metrics {
                    m.gauge(*now, "prof.queue_depth", queue.len() as u64);
                    m.gauge(*now, "prof.wheel_occupied_slots", g.occupied_slots as u64);
                    m.gauge(*now, "prof.wheel_inbox", g.inbox as u64);
                    m.gauge(*now, "prof.wheel_overflow", g.overflow as u64);
                }
            }
        }
    }

    /// Profiler bookkeeping after a deferred fan-out pop: record the
    /// cohort size (deliveries this pop expanded into) and any due gauges.
    fn finish_fanout_pop(&mut self, events_before: u64) {
        if self.world.prof.is_some() {
            let delivered = self.world.events_processed - events_before;
            if let Some(p) = &mut self.world.prof {
                p.record_cohort(delivered);
            }
            self.prof_gauges_if_due();
        }
    }

    /// Expand a coalesced fan-out cohort member by member, pausing if a
    /// smaller-keyed event lands in the queue between two members: the
    /// remaining members are re-queued under the next member's key and the
    /// interloper runs first — exactly the order the uncoalesced schedule
    /// would have produced. (A *single* deferred fan-out expands
    /// atomically, matching the eager path where its arrivals carry
    /// consecutive keys nothing can fall between.)
    fn expand_cohort(&mut self, at: SimTime, mut sends: Vec<FanoutSend>) {
        let mut idx = 0;
        // The member holding `sends[idx]`'s frame: the first at or after
        // `idx` with a handle (a run's owner is its last member, and so is
        // the cohort's, which a re-queued tail keeps).
        let mut owner = 0;
        while idx < sends.len() {
            if idx > 0 {
                let mk = sends[idx].key;
                // Non-rotating probe: a same-timestamp straggler can only
                // be in the current run or the inbox (same-bucket by
                // construction); a rotating peek would drain the next
                // bucket mid-expansion and break tail coalescing there.
                if let Some(nk) = self.world.queue.peek_key_at(at) {
                    if nk < mk {
                        let k = mk;
                        let kind = if sends.len() - idx == 1 {
                            EventKind::Fanout(sends.pop().expect("idx < len"))
                        } else {
                            // Re-queue the tail in a recycled buffer —
                            // splits are common under interleaved senders
                            // and must not allocate per pause.
                            let mut rest =
                                self.world.fanout_spares.pop().unwrap_or_default();
                            rest.extend(sends.drain(idx..));
                            EventKind::FanoutCohort(rest)
                        };
                        self.world.push(at, k, kind);
                        break;
                    }
                }
            }
            owner = owner.max(idx);
            while sends[owner].bytes.is_none() {
                owner += 1;
            }
            let frame = sends[owner].bytes.as_ref().expect("just found");
            self.expand_fanout(&sends[idx], frame);
            idx += 1;
        }
        sends.clear();
        if self.world.fanout_spares.len() < World::FANOUT_SPARES_MAX {
            self.world.fanout_spares.push(sends);
        }
    }

    /// Expand one deferred fan-out into its per-receiver deliveries — the
    /// drain-time half of the batched data path. Per-receiver work is
    /// identical to an eager `Arrival` dispatch (node-down check, link-down
    /// check, rx trace, causal context, agent dispatch) in the identical
    /// order. Link state cannot change mid-expansion — agents have no
    /// synchronous topology mutation API; link/node flips are themselves
    /// queued events — so the link-up check is hoisted out of the loop, as
    /// are the trace/prof enablement checks (the no-observer loop body is
    /// branch-free on them). Only endpoints in this shard's node range are
    /// expanded: a cut-link fan-out is mirrored into each shard the link
    /// touches under the same key, and the per-shard expansions partition
    /// the eager delivery set. Trace records carry
    /// `endpoint index << 32 | counter` sub-tags so the merged stream
    /// reconstructs the single-shard endpoint order.
    fn expand_fanout(&mut self, fs: &FanoutSend, bytes: &Payload) {
        let sender = fs.node;
        let iface = fs.iface;
        let (class, id, root, root_at) = (fs.class, fs.id, fs.root, fs.root_at);
        let Ok(link) = self.shared.topo.link_of(sender, iface) else {
            return;
        };
        let link_ok = self.shared.topo.link_up(link);
        let n_endpoints = self.shared.topo.link_endpoint_count(link);
        let (base, limit) = (self.world.base, self.world.limit);
        self.world.cur_key = fs.key;
        if self.world.trace.is_none() && self.world.prof.is_none() {
            // Hot loop: no tracing, no profiling — one enablement branch
            // per *send* instead of several per delivery.
            if n_endpoints == 2 {
                // Point-to-point: the receiver is whichever endpoint is
                // not the sender — no loop, no skip branch per endpoint.
                let (a, ai) = self.shared.topo.link_endpoint(link, 0);
                let (rx, ri) = if a == sender {
                    self.shared.topo.link_endpoint(link, 1)
                } else {
                    (a, ai)
                };
                if rx.0 < base || rx.0 >= limit {
                    return;
                }
                self.world.events_processed += 1;
                if !self.shared.node_down[rx.index()] && link_ok {
                    self.deliver(rx, ri, bytes, class, id, root, root_at);
                }
                return;
            }
            for e in 0..n_endpoints {
                let (rx, ri) = self.shared.topo.link_endpoint(link, e);
                if rx == sender || rx.0 < base || rx.0 >= limit {
                    continue;
                }
                self.world.events_processed += 1;
                if self.shared.node_down[rx.index()] || !link_ok {
                    continue;
                }
                self.deliver(rx, ri, bytes, class, id, root, root_at);
            }
            return;
        }
        let age = self.world.now - root_at;
        for e in 0..n_endpoints {
            let (rx, ri) = self.shared.topo.link_endpoint(link, e);
            if rx == sender || rx.0 < base || rx.0 >= limit {
                continue;
            }
            self.world.events_processed += 1;
            self.world.cur_sub = (e as u64) << 32;
            let t0 = self.world.prof.as_mut().and_then(|p| p.event_begin());
            if self.shared.node_down[rx.index()] {
                self.world.trace_push(TraceKind::PacketDrop {
                    link,
                    id,
                    root,
                    reason: DropReason::NodeDown,
                    class,
                });
            } else if !link_ok {
                self.world.trace_push(TraceKind::PacketDrop {
                    link,
                    id,
                    root,
                    reason: DropReason::LinkDown,
                    class,
                });
            } else {
                self.world.trace_push(TraceKind::PacketRx {
                    node: rx,
                    iface: ri,
                    id,
                    root,
                    age,
                    class,
                });
                self.deliver(rx, ri, bytes, class, id, root, root_at);
            }
            if self.world.prof.is_some() {
                let agent = self.agents[(rx.0 - base) as usize].as_ref().map(|a| a.kind_name());
                if let Some(p) = &mut self.world.prof {
                    p.event_end(EventClass::Fanout, Some(rx), agent, t0);
                }
            }
        }
    }

    /// One batched delivery: set the causal context and dispatch through
    /// the cached hot fn for data traffic, the dyn path otherwise.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        node: NodeId,
        iface: IfaceId,
        bytes: &Payload,
        class: TrafficClass,
        id: PacketId,
        root: PacketId,
        root_at: SimTime,
    ) {
        self.world.cause = Some(ArrivalCause { id, root, root_at });
        let hot = if class == TrafficClass::Data {
            self.hot_fns[node.index()]
        } else {
            None
        };
        match hot {
            Some(f) => self.with_agent(node, |agent, ctx| f(agent, ctx, iface, bytes, class)),
            None => self.with_agent(node, |agent, ctx| agent.on_packet(ctx, iface, bytes, class)),
        }
        self.world.cause = None;
    }

    /// The shard-local event dispatch body. Global transitions (link /
    /// node / loss changes) never reach a shard queue — they dispatch
    /// through the coordinator between parallel segments.
    fn dispatch_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival {
                node,
                iface,
                bytes,
                class,
                id,
                root,
                root_at,
            } => {
                // Frames in flight when a link died are dropped on arrival,
                // as are frames addressed to a crashed node.
                let link = self.shared.topo.link_of(node, iface).ok();
                if self.shared.node_down[node.index()] {
                    if let Some(l) = link {
                        self.world.trace_push(TraceKind::PacketDrop {
                            link: l,
                            id,
                            root,
                            reason: DropReason::NodeDown,
                            class,
                        });
                    }
                    return;
                }
                if let Some(l) = link {
                    if !self.shared.topo.link_up(l) {
                        self.world.trace_push(TraceKind::PacketDrop {
                            link: l,
                            id,
                            root,
                            reason: DropReason::LinkDown,
                            class,
                        });
                        return;
                    }
                }
                let age = self.world.now - root_at;
                self.world.trace_push(TraceKind::PacketRx {
                    node,
                    iface,
                    id,
                    root,
                    age,
                    class,
                });
                self.deliver(node, iface, &bytes, class, id, root, root_at);
            }
            EventKind::Timer { node, token, epoch } => {
                // Timers from before a crash die with the agent that set
                // them; a down node runs nothing.
                if self.shared.node_down[node.index()] || self.shared.node_epoch[node.index()] != epoch {
                    return;
                }
                self.world.trace_push(TraceKind::TimerFire { node, token });
                self.with_agent(node, |agent, ctx| agent.on_timer(ctx, token));
            }
            EventKind::LinkChange { .. } | EventKind::NodeChange { .. } | EventKind::LossChange { .. } => {
                unreachable!("global transitions dispatch through the coordinator, not a shard queue")
            }
            EventKind::Fanout(..) | EventKind::FanoutCohort(..) => {
                unreachable!("fan-outs dispatch through expand_fanout, not dispatch_event")
            }
        }
    }
}

/// A timed, canonically-keyed event crossing a shard boundary.
type MailItem = (SimTime, u128, EventKind);
/// One destination shard's inbound mailboxes, indexed by source shard.
type ShardInbox = Vec<Mutex<Vec<MailItem>>>;

/// One shard's drain loop for a parallel segment: ingest cross-shard
/// mail, publish the earliest pending event, meet the coordinator at the
/// window barriers, drain the granted window, flush exports. Window math
/// and safety argument: module docs and `docs/INTERNALS.md` §6.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut exec: ShardExec<'_>,
    s: usize,
    bound: (SimTime, u128),
    mailboxes: &[ShardInbox],
    nexts: &[Mutex<(u64, u128)>],
    cmd: &Mutex<SegCmd>,
    barrier_a: &Barrier,
    barrier_b: &Barrier,
    barrier_c: &Barrier,
) {
    loop {
        // 1. Ingest cross-shard events flushed before the closing barrier
        //    of the previous window (nothing on the first iteration). This
        //    happens before publication, so a shard whose only pending
        //    work is inbound mail still reports it — termination cannot
        //    race ahead of in-flight exports.
        for slot in &mailboxes[s] {
            let mut inbox = slot.lock().unwrap();
            for (at, key, kind) in inbox.drain(..) {
                match kind {
                    // Mirrored fan-outs coalesce on ingest exactly like
                    // local ones: each source shard exports in ascending
                    // key order, so a wide cut (e.g. a tree level split
                    // across the boundary) collapses into a few cohort
                    // entries instead of one entry per cut link.
                    EventKind::Fanout(mut fs) => {
                        let frame = fs.bytes.take().expect("a fan-out outside a cohort owns its frame");
                        exec.world.push_fanout(at, fs, Cow::Owned(frame));
                    }
                    kind => exec.world.push(at, key, kind),
                }
            }
        }
        // 2. Publish this shard's earliest pending (time, key) so the
        //    coordinator can size the next safe window. The bounded peek
        //    never drains a bucket at or past the segment bound, so mail
        //    ingested after a global transition still slot-coalesces.
        let next = match exec.world.queue.next_at_key_below(bound) {
            Some((at, k)) => (at.0, k),
            None => (u64::MAX, u128::MAX),
        };
        *nexts[s].lock().unwrap() = next;
        let t0 = Instant::now();
        barrier_a.wait();
        barrier_b.wait();
        let mut stall = t0.elapsed().as_nanos() as u64;
        let lim = match *cmd.lock().unwrap() {
            SegCmd::Stop => break,
            SegCmd::Drain(t, k) => (t, k),
        };
        // 3. Drain strictly below the window limit. Lookahead guarantees
        //    no cross-shard event for this window can land inside it. The
        //    bounded peek leaves next-window buckets undrained, keeping
        //    them open for mail coalescing at the next ingest (see
        //    `TimerWheel::next_at_key_below`).
        while exec.world.queue.next_at_key_below(lim).is_some() {
            let (at, k, kind) = exec.world.queue.pop_keyed().expect("peeked event vanished");
            exec.run_one(at, k, kind);
        }
        // 4. Flush cross-shard events into destination mailboxes; they are
        //    ingested at the next window's top, after the closing barrier.
        let mut outbox = std::mem::take(&mut exec.world.outbox);
        for (dst, at, key, kind) in outbox.drain(..) {
            debug_assert_ne!(dst, s, "local events never route through the outbox");
            mailboxes[dst][s].lock().unwrap().push((at, key, kind));
        }
        exec.world.outbox = outbox;
        let t1 = Instant::now();
        barrier_c.wait();
        stall += t1.elapsed().as_nanos() as u64;
        exec.world.sync_windows += 1;
        exec.world.sync_stall_ns += stall;
        if let Some(p) = &mut exec.world.prof {
            p.record_sync_window(stall);
        }
    }
}

/// The simulation: topology + agents + event queue(s).
///
/// With the default single shard this is the classic sequential engine.
/// [`set_shards`](Self::set_shards) partitions the node space into
/// contiguous shards that drain in parallel under conservative lookahead
/// synchronization — with byte-identical results at any shard count (see
/// module docs and `docs/INTERNALS.md` §6).
pub struct Sim {
    shared: Shared,
    /// One world per shard (`worlds.len() == shared.plan.shard_count()`).
    /// After a sharded run, shard 0 holds the merged stats/metrics/prof.
    worlds: Vec<World>,
    agents: Vec<Option<Box<dyn Agent>>>,
    /// Per-node devirtualized data-path dispatch (see
    /// [`Agent::hot_packet_fn`]); refreshed whenever an agent is installed,
    /// crashed, or restarted. `None` = dyn dispatch.
    hot_fns: Vec<Option<HotPacketFn>>,
    /// Global transitions (link / node / loss changes): coordinator-owned,
    /// dispatched stop-the-world between parallel segments so every shard
    /// observes a topology change at the same instant.
    global_queue: TimerWheel<EventKind>,
    global_peak: usize,
    /// Rank-0 sequence counter for externally scheduled events (faults,
    /// harness timers); starts at [`EXT_SEQ_BASE`].
    ext_seq: u64,
    /// The wheel geometry, kept so [`set_shards`](Self::set_shards) can
    /// rebuild per-shard wheels.
    wheel_cfg: WheelConfig,
    /// The trace configuration, kept so a sharded run can rebuild the
    /// merged [`TraceBuffer`] in [`take_trace`](Self::take_trace).
    trace_cfg: Option<TraceConfig>,
    started: bool,
    /// An [`Auditor`] sits in the sink chain: topology transitions trigger
    /// an automatic snapshot refresh (A1 tree updates). One bool — audit
    /// truly costs nothing when no auditor was attached.
    audit_attached: bool,
    /// Links downed by a node's crash, restored at its restart.
    crash_downed_links: HashMap<NodeId, Vec<LinkId>>,
    /// Per-node factories used by [`schedule_restart`](Self::schedule_restart)
    /// to build the post-restart agent (empty soft state).
    restart_factories: HashMap<NodeId, AgentFactory>,
}

impl Sim {
    /// Build a simulation over `topo` with the given RNG seed. Every node
    /// starts with a [`NullAgent`]; attach real protocol agents with
    /// [`set_agent`](Self::set_agent) before calling [`run`](Self::run).
    pub fn new(topo: Topology, seed: u64) -> Self {
        Self::new_with_wheel(topo, seed, WheelConfig::default())
    }

    /// [`new`](Self::new) with an explicit event-wheel geometry. Wheel
    /// geometry affects only scheduling cost, never event order — the popped
    /// stream is identical for every configuration (pinned by the
    /// `queue_order_is_granularity_independent` property test and a golden
    /// replay run at a non-default granularity).
    pub fn new_with_wheel(topo: Topology, seed: u64, wheel: WheelConfig) -> Self {
        let n = topo.node_count();
        let plan = ShardPlan::single(&topo);
        let shared = Shared {
            topo,
            seed,
            node_down: vec![false; n],
            node_epoch: vec![0; n],
            loss_override: HashMap::new(),
            batch_fanout: true,
            plan,
        };
        let worlds = vec![World::new(&shared.topo, seed, wheel, 0, 0, n as u32)];
        Sim {
            shared,
            worlds,
            agents: (0..n).map(|_| Some(Box::new(NullAgent) as Box<dyn Agent>)).collect(),
            hot_fns: vec![None; n],
            global_queue: TimerWheel::new(wheel),
            global_peak: 0,
            ext_seq: EXT_SEQ_BASE,
            wheel_cfg: wheel,
            trace_cfg: None,
            started: false,
            audit_attached: false,
            crash_downed_links: HashMap::new(),
            restart_factories: HashMap::new(),
        }
    }

    /// Partition the simulation into up to `shards` parallel shards
    /// (contiguous node ranges; see [`crate::shard::partition`] for how
    /// boundaries are chosen). The effective count may be lower — it is
    /// capped at [`shard::MAX_SHARDS`], at the node count, and reduced
    /// when no zero-latency-cut partition of the requested width exists.
    /// Determinism contract: a run's observable results (event order,
    /// traces, stats, RNG draws) are byte-identical at *any* shard count.
    ///
    /// Must be called on a pristine simulation — before agents schedule
    /// anything, before any `schedule_*` call, and before
    /// trace/metrics/prof are enabled (panics otherwise).
    pub fn set_shards(&mut self, shards: usize) {
        let plan = shard::partition(&self.shared.topo, shards);
        self.apply_plan(plan);
    }

    /// Partition with explicit shard boundaries (`bounds` are the
    /// fenceposts, `[0, …, node_count]`, strictly increasing). Panics on
    /// invalid bounds or a zero-latency cut link — this is the
    /// deterministic-partition hook the randomized-partition property
    /// tests drive. Same pristine-state requirements as
    /// [`set_shards`](Self::set_shards).
    pub fn set_shard_bounds(&mut self, bounds: &[u32]) {
        let plan = shard::plan_from_bounds(&self.shared.topo, bounds);
        self.apply_plan(plan);
    }

    /// Number of shards the simulation is partitioned into (1 = classic
    /// sequential engine).
    pub fn shard_count(&self) -> usize {
        self.shared.plan.shard_count()
    }

    /// The active shard partition.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.shared.plan
    }

    /// Conservative-sync totals over all shards so far:
    /// `(windows, barrier stall ns)` — `(0, 0)` for single-shard runs.
    pub fn sync_stats(&self) -> (u64, u64) {
        self.worlds.iter().fold((0, 0), |(w, s), world| {
            (w + world.sync_windows, s + world.sync_stall_ns)
        })
    }

    fn apply_plan(&mut self, plan: ShardPlan) {
        assert!(
            !self.started,
            "set_shards/set_shard_bounds must be called before the simulation starts"
        );
        assert!(
            self.global_queue.is_empty() && self.worlds.iter().all(|w| w.queue.is_empty()),
            "set_shards/set_shard_bounds must be called before any events are scheduled"
        );
        assert!(
            self.worlds[0].trace.is_none()
                && self.worlds[0].metrics.is_none()
                && self.worlds[0].prof.is_none(),
            "set_shards/set_shard_bounds must be called before enabling trace/metrics/prof"
        );
        self.worlds = (0..plan.shard_count())
            .map(|s| {
                let (base, limit) = plan.range(s);
                World::new(&self.shared.topo, self.shared.seed, self.wheel_cfg, s, base, limit)
            })
            .collect();
        self.shared.plan = plan;
    }

    /// Attach `agent` to `node`, replacing whatever was there. If the
    /// simulation has already started, the new agent's `on_start` runs
    /// immediately — replacing an agent mid-run models a process restart.
    pub fn set_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) {
        self.hot_fns[node.index()] = agent.hot_packet_fn();
        self.agents[node.index()] = Some(agent);
        if self.started {
            let key = self.ext_key();
            let mut sub = 0;
            self.coord_agent(node, key, &mut sub, |agent, ctx| agent.on_start(ctx));
            self.drain_outboxes();
        }
    }

    /// Toggle deferred fan-out batching (on by default). With batching off
    /// every receiver is scheduled eagerly as its own arrival event — the
    /// reference semantics the cohort-equivalence property tests compare
    /// against. Event order, traces, stats, and RNG consumption are
    /// identical either way; only queue-depth accounting differs (one
    /// deferred entry vs one entry per receiver), so
    /// [`peak_queue_depth`](Self::peak_queue_depth) is the one figure the
    /// toggle legitimately changes.
    pub fn set_fanout_batching(&mut self, on: bool) {
        self.shared.batch_fanout = on;
    }

    /// Borrow the agent on `node` for inspection (panics while that same
    /// agent is being dispatched).
    pub fn agent_mut(&mut self, node: NodeId) -> &mut dyn Agent {
        self.agents[node.index()].as_deref_mut().expect("agent in dispatch")
    }

    /// Downcast the agent on `node` to a concrete type.
    pub fn agent_as<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.agent_mut(node).as_any_mut().downcast_mut::<T>()
    }

    /// Current simulated time (shards agree whenever the coordinator has
    /// control; mid-window shard clocks advance independently within the
    /// lookahead bound).
    pub fn now(&self) -> SimTime {
        self.worlds[0].now
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// Measurement state. After a sharded run this is the merged view;
    /// mid-run it covers shard 0 only.
    pub fn stats(&self) -> &Stats {
        &self.worlds[0].stats
    }

    /// Mutable measurement state (for harness-level counters).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.worlds[0].stats
    }

    /// Turn on structured event tracing into the default in-memory ring
    /// with the given capture configuration (replaces any previous trace).
    /// Tracing is off by default and, when off, adds no counter or per-link
    /// overhead. Under sharding each shard captures into its own ring and
    /// [`take_trace`](Self::take_trace) merges them in canonical order;
    /// the byte-identical guarantee requires the ring capacity to cover
    /// the captured events (per-shard overflow trims streams
    /// independently).
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        for w in &mut self.worlds {
            w.trace = Some(Tracer::ring(cfg.clone()));
        }
        self.trace_cfg = Some(cfg);
    }

    /// Turn on structured event tracing into an explicit [`TraceSink`] —
    /// e.g. a [`JsonlSink`](crate::trace::JsonlSink) streaming a full-scale
    /// run to disk in bounded memory. Filters and causal sampling from
    /// `cfg` apply before events reach the sink. Recover the sink with
    /// [`finish_trace`](Self::finish_trace). Single-shard only (a
    /// streaming sink cannot be re-ordered post hoc): panics if the
    /// simulation has been partitioned with [`set_shards`](Self::set_shards).
    pub fn enable_trace_sink(&mut self, cfg: TraceConfig, sink: Box<dyn TraceSink>) {
        assert_eq!(
            self.shard_count(),
            1,
            "enable_trace_sink requires shards=1: a streaming sink cannot be merged \
             across shards — use enable_trace + take_trace, or keep the default shard count"
        );
        self.trace_cfg = Some(cfg.clone());
        self.worlds[0].trace = Some(Tracer::new(cfg, sink));
    }

    /// The captured in-memory trace, if tracing is enabled *and* backed by
    /// the default ring (`None` under a custom sink — use
    /// [`tracer`](Self::tracer) for sink-agnostic access). Single-shard
    /// view: under sharding the per-shard rings are only meaningful after
    /// the [`take_trace`](Self::take_trace) merge, so this returns `None`.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        if self.shard_count() > 1 {
            return None;
        }
        self.worlds[0].trace.as_ref().and_then(|t| t.buffer())
    }

    /// The active tracer (filters + sink) of shard 0, if tracing is
    /// enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.worlds[0].trace.as_ref()
    }

    /// The active tracer of shard 0, mutably (e.g. to flush its sink
    /// mid-run).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.worlds[0].trace.as_mut()
    }

    /// Detach the captured ring trace (tracing stops), e.g. to export it
    /// after a run. `None` when tracing is off or backed by a custom sink
    /// (then use [`finish_trace`](Self::finish_trace)). Under sharding the
    /// per-shard rings are merged into one buffer in canonical
    /// `(time, key, sub)` order — byte-identical to the single-shard
    /// capture.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.worlds[0].trace.as_ref()?;
        if self.shard_count() == 1 {
            let tracer = self.worlds[0].trace.take()?;
            return sink_into_buffer(tracer.finish());
        }
        let cfg = self.trace_cfg.clone()?;
        let mut streams = Vec::with_capacity(self.worlds.len());
        let mut overwritten = 0u64;
        for w in &mut self.worlds {
            let tracer = w.trace.take()?;
            let buffer = tracer.finish().into_any().downcast::<TraceBuffer>().ok()?;
            let (events, over) = buffer.into_tagged();
            overwritten += over;
            streams.push(events);
        }
        Some(TraceBuffer::from_tagged(cfg, merge_tagged(streams), overwritten))
    }

    /// Finalize the capture (footer + flush via [`TraceSink::finish`]) and
    /// detach the sink, whatever its concrete type. Tracing stops. Under
    /// sharding this returns the merged ring buffer (custom sinks are
    /// single-shard only; see [`enable_trace_sink`](Self::enable_trace_sink)).
    pub fn finish_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        if self.shard_count() == 1 {
            return self.worlds[0].trace.take().map(Tracer::finish);
        }
        self.take_trace().map(|b| Box::new(b) as Box<dyn TraceSink>)
    }

    /// Attach an *additional* [`TraceSink`] beside whatever capture is
    /// active: the current sink chain is teed (see [`Tracer::add_sink`])
    /// so every admitted event reaches both. If tracing was not enabled
    /// yet, it starts now with [`TraceConfig::default`] into this sink.
    /// This is how the online [`Auditor`] runs
    /// beside a [`JsonlSink`](crate::trace::JsonlSink) or the default
    /// ring. Single-shard only, like
    /// [`enable_trace_sink`](Self::enable_trace_sink).
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        assert_eq!(
            self.shard_count(),
            1,
            "add_trace_sink requires shards=1: a streaming sink cannot be merged \
             across shards — use enable_trace + take_trace, or keep the default shard count"
        );
        if sink.as_any().is::<Auditor>() {
            self.audit_attached = true;
        }
        match &mut self.worlds[0].trace {
            Some(tracer) => tracer.add_sink(sink),
            None => {
                let cfg = TraceConfig::default();
                self.trace_cfg = Some(cfg.clone());
                self.worlds[0].trace = Some(Tracer::new(cfg, sink));
            }
        }
    }

    /// Capture a point-in-time [`AuditSnapshot`] of protocol truth: sweep
    /// every live agent's [`Agent::audit_state`] and resolve the reported
    /// interface masks against the topology into `(node, link)` tree
    /// membership plus per-channel count truth. A pure read — taking a
    /// snapshot never perturbs the run.
    pub fn audit_snapshot(&self) -> AuditSnapshot {
        let topo = &self.shared.topo;
        let mut snap = AuditSnapshot {
            at: self.worlds[0].now,
            ..Default::default()
        };
        // Router routes whose upstream link might face the channel source
        // (resolved to the root router once all sources are known), and
        // each channel's source host.
        let mut upstreams: Vec<(String, NodeId, LinkId, u64)> = Vec::new();
        let mut sources: HashMap<String, (NodeId, Option<u64>)> = HashMap::new();
        for (idx, agent) in self.agents.iter().enumerate() {
            if self.shared.node_down[idx] {
                continue;
            }
            let node = NodeId(idx as u32);
            let Some(state) = agent.as_deref().and_then(|a| a.audit_state(topo, node)) else {
                continue;
            };
            snap.audited.insert(node);
            for route in &state.routes {
                let mut mask = route.oif_mask;
                while mask != 0 {
                    let iface = IfaceId(mask.trailing_zeros() as u8);
                    mask &= mask - 1;
                    if let Ok(link) = topo.link_of(node, iface) {
                        snap.allowed.insert((node, link));
                    }
                }
                let truth = snap.channels.entry(route.channel.clone()).or_default();
                if let (Some(adv), Some(sum)) = (route.advertised, route.downstream_sum) {
                    truth.routers.push((node, adv, sum));
                }
                if let (Some(up), Some(adv)) = (route.upstream_iface, route.advertised) {
                    if let Ok(link) = topo.link_of(node, up) {
                        upstreams.push((route.channel.clone(), node, link, adv));
                    }
                }
            }
            for chan in &state.subscribed {
                snap.channels.entry(chan.clone()).or_default().subscribers += 1;
            }
            for (chan, estimate) in &state.sourcing {
                // A source may put data on any of its links: the tree
                // starts at its access link(s).
                for link in topo.links_of(node) {
                    snap.allowed.insert((node, link));
                }
                sources.insert(chan.clone(), (node, *estimate));
            }
        }
        for (chan, node, link, adv) in upstreams {
            let Some(&(src, _)) = sources.get(&chan) else {
                continue;
            };
            if topo.link_endpoints(link).iter().any(|&(n, _)| n == src) {
                let truth: &mut ChannelTruth = snap.channels.entry(chan).or_default();
                truth.root_advertised = Some((node, adv));
            }
        }
        for (chan, (src, estimate)) in sources {
            if let Some(est) = estimate {
                snap.channels.entry(chan).or_default().source_estimate = Some((src, est));
            }
        }
        snap
    }

    /// Feed the attached [`Auditor`] a quiescent
    /// checkpoint: the A1 interval check closes against a fresh
    /// [`audit_snapshot`](Self::audit_snapshot) *and* A3 count convergence
    /// is verified against it. Call at protocol-quiescent instants — after
    /// joins settle, at the end of a run. No-op when no auditor is
    /// attached.
    pub fn audit_checkpoint(&mut self) {
        self.audit_refresh(true);
    }

    /// Refresh the auditor's snapshot (A1 only unless `check_counts`).
    /// Runs automatically after every topology transition so the allowed
    /// tree tracks faults; gated on one bool when audit is off.
    fn audit_refresh(&mut self, check_counts: bool) {
        if !self.audit_attached {
            return;
        }
        let snap = self.audit_snapshot();
        if let Some(tracer) = self.worlds[0].trace.as_mut() {
            if let Some(auditor) = find_auditor_mut(tracer.sink_mut()) {
                auditor.apply_snapshot(&snap, check_counts);
            }
        }
    }

    /// Turn on time-series metrics with the given configuration (replaces
    /// any previous metrics). Off by default. Under sharding each shard
    /// collects its own series; they are merged into one view when a
    /// sharded run completes.
    pub fn enable_metrics(&mut self, cfg: MetricsConfig) {
        for w in &mut self.worlds {
            w.metrics = Some(Metrics::new(cfg.clone()));
        }
    }

    /// The collected metrics, if enabled (the merged view after a sharded
    /// run).
    pub fn metrics(&self) -> Option<&Metrics> {
        self.worlds[0].metrics.as_ref()
    }

    /// Mutable metrics (for harness-level gauges and histograms).
    pub fn metrics_mut(&mut self) -> Option<&mut Metrics> {
        self.worlds[0].metrics.as_mut()
    }

    /// Turn on the engine self-profiler (replaces any previous profiler;
    /// off by default — when off, one branch per event). Event counts per
    /// [`EventClass`] are exact; wall-time attribution is *sampled* (one
    /// event in [`ProfConfig::sample_every`]) to bound overhead. Wheel and
    /// queue gauges are snapshotted every [`ProfConfig::gauge_every`]
    /// events and, when metrics are also enabled, mirrored into `prof.*`
    /// gauge series. Under sharding each shard profiles its own drain
    /// (sampling its own event stream) and the per-shard profiles are
    /// merged when the run completes; conservative-sync stalls surface as
    /// `sync_windows` / `sync_stall_ns` in the report.
    pub fn enable_prof(&mut self, cfg: ProfConfig) {
        let nodes = self.shared.topo.node_count();
        for w in &mut self.worlds {
            w.prof = Some(Profiler::new(cfg, nodes));
        }
    }

    /// The engine self-profiler, if enabled (the merged view after a
    /// sharded run).
    pub fn prof(&self) -> Option<&Profiler> {
        self.worlds[0].prof.as_ref()
    }

    /// Detach the profiler (profiling stops), e.g. to render its report.
    /// Under sharding the per-shard profiles are merged first.
    pub fn take_prof(&mut self) -> Option<Profiler> {
        let (w0, rest) = self.worlds.split_first_mut().expect("at least one shard");
        if let Some(p0) = w0.prof.as_mut() {
            for w in rest.iter_mut() {
                if let Some(p) = w.prof.as_mut() {
                    p0.absorb(p);
                }
            }
        }
        for w in rest {
            w.prof = None;
        }
        w0.prof.take()
    }

    /// Unicast routing (for harness-level queries like path lengths).
    pub fn routing_mut(&mut self) -> (&Topology, &mut Routing) {
        (&self.shared.topo, &mut self.worlds[0].routing)
    }

    /// Unicast routing state of shard 0, read-only (cache statistics).
    pub fn routing(&self) -> &Routing {
        &self.worlds[0].routing
    }

    /// Total events dispatched so far, over all shards.
    pub fn events_processed(&self) -> u64 {
        self.worlds.iter().map(|w| w.events_processed).sum()
    }

    /// Frame derivations actually run so far — [`Ctx::derive_frame`] calls
    /// the memo did not answer — over all shards. Host work, not a
    /// simulated statistic: each shard remembers its own last derivation,
    /// so the figure grows with the shard count.
    pub fn frames_derived(&self) -> u64 {
        self.worlds.iter().map(|w| w.frames_derived).sum()
    }

    /// High-water mark of the pending-event set over the whole run — the
    /// memory-pressure figure the scale benchmarks report. Under sharding
    /// this is the sum of per-shard (plus coordinator) high-water marks:
    /// an upper bound on, not an exact reading of, the instantaneous
    /// total, and — unlike every protocol-visible result — legitimately
    /// dependent on the shard count.
    pub fn peak_queue_depth(&self) -> usize {
        self.worlds.iter().map(|w| w.peak_queue_depth).sum::<usize>() + self.global_peak
    }

    /// Allocate the next rank-0 (external/harness) canonical event key.
    fn ext_key(&mut self) -> u128 {
        let k = self.ext_seq as u128;
        self.ext_seq += 1;
        k
    }

    fn global_push(&mut self, at: SimTime, kind: EventKind) {
        let key = self.ext_key();
        self.global_queue.push_keyed(at, key, kind);
        if self.global_queue.len() > self.global_peak {
            self.global_peak = self.global_queue.len();
        }
    }

    /// Schedule a link up/down transition at absolute time `at`.
    pub fn schedule_link_change(&mut self, at: SimTime, link: LinkId, up: bool) {
        self.global_push(at, EventKind::LinkChange { link, up });
    }

    /// Schedule a router crash at absolute time `at`: the node's agent —
    /// and with it all channel/count soft state — is discarded (replaced
    /// by a [`NullAgent`]), every link that was up at that instant goes
    /// down (neighbors see [`Agent::on_link_change`], the §3.2 TCP-mode
    /// connection-failure notification), timers the dead agent had pending
    /// are invalidated, and unicast routing re-converges around the node.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.global_push(at, EventKind::NodeChange { node, up: false });
    }

    /// Schedule a restart of a crashed router at absolute time `at`: the
    /// links its crash downed come back, a fresh agent is built by the
    /// factory registered via [`set_restart_factory`](Self::set_restart_factory)
    /// (or a [`NullAgent`] when none is registered) and started with empty
    /// soft state, and routing re-converges. A restart for a node that is
    /// not down is ignored.
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId) {
        self.global_push(at, EventKind::NodeChange { node, up: true });
    }

    /// Register the factory that builds `node`'s post-restart agent.
    pub fn set_restart_factory(&mut self, node: NodeId, factory: AgentFactory) {
        self.restart_factories.insert(node, factory);
    }

    /// Schedule a loss-probability override on `link` at `at`: `Some(p)`
    /// makes datagrams on the link drop with probability `p` regardless of
    /// the link spec; `None` restores the spec's loss. Two of these back to
    /// back form a time-windowed loss burst (see `faults::FaultPlan`).
    pub fn schedule_loss_override(&mut self, at: SimTime, link: LinkId, loss: Option<f64>) {
        self.global_push(at, EventKind::LossChange { link, loss });
    }

    /// Whether `node`'s process is up (false between a crash and restart).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.shared.node_down[node.index()]
    }

    /// Schedule a timer for `node` at absolute time `at` — the hook
    /// workload generators use to drive join/leave churn. The event is
    /// rank-0 keyed (harness scheduling order) and queued on the owning
    /// shard.
    pub fn schedule_timer_at(&mut self, node: NodeId, at: SimTime, token: TimerToken) {
        let key = self.ext_key();
        let epoch = self.shared.node_epoch[node.index()];
        let s = self.shared.plan.shard_of(node);
        self.worlds[s].push(at, key, EventKind::Timer { node, token, epoch });
    }

    /// Dispatch `on_start` to every agent (idempotent; also called by the
    /// first `run_*`). The sweep runs in node-id order with per-node
    /// rank-0 keys `(0, node)`, so start-up trace records sort before
    /// every externally scheduled event at t=0 — at any shard count.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            let mut sub = 0;
            self.coord_agent(NodeId(i as u32), i as u128, &mut sub, |agent, ctx| agent.on_start(ctx));
        }
        self.drain_outboxes();
        // Setup (construction + on_start sweep) ends here; what follows is
        // the run phase.
        for w in &mut self.worlds {
            if let Some(p) = &mut w.prof {
                p.mark_run_start();
            }
        }
    }

    /// Run `f` with the agent at `node` from coordinator context (start-up
    /// sweep, global-transition sweeps): builds a dispatch context against
    /// the owning shard's world, tagging emitted trace records with `key`
    /// and the running `sub` counter so one coordinator sweep keeps a
    /// single canonical order across shards.
    fn coord_agent<F: FnOnce(&mut dyn Agent, &mut Ctx<'_>)>(&mut self, node: NodeId, key: u128, sub: &mut u64, f: F) {
        let s = self.shared.plan.shard_of(node);
        let w = &mut self.worlds[s];
        w.cur_key = key;
        w.cur_sub = *sub;
        // Split borrow: the agent slot, the world, and the shared state are
        // disjoint — an agent cannot reach back into the agent table.
        let agent = self.agents[node.index()].as_deref_mut().expect("no agent at node");
        let mut ctx = Ctx {
            shared: &self.shared,
            world: w,
            node,
        };
        f(agent, &mut ctx);
        *sub = self.worlds[s].cur_sub;
    }

    /// Move coordinator-context cross-shard sends (outbox entries produced
    /// by start-up or global-transition sweeps) into their destination
    /// shards' queues. No-op at one shard: the eager path never routes
    /// through the outbox then.
    fn drain_outboxes(&mut self) {
        for s in 0..self.worlds.len() {
            if self.worlds[s].outbox.is_empty() {
                continue;
            }
            let outbox = std::mem::take(&mut self.worlds[s].outbox);
            for (dst, at, key, kind) in outbox {
                self.worlds[dst].push(at, key, kind);
            }
        }
    }

    /// Process one event; returns `false` when the queues are empty.
    /// Single-shard only (stepping one event at a time is meaningless
    /// under a parallel drain; panics if sharded — use
    /// [`run`](Self::run) / [`run_until`](Self::run_until) there).
    ///
    /// A deferred fan-out pop expands *all* its deliveries inline and
    /// counts each delivery (not the pop) in
    /// [`events_processed`](Self::events_processed), so event totals match
    /// the eager path exactly.
    pub fn step(&mut self) -> bool {
        assert_eq!(
            self.shard_count(),
            1,
            "step() is single-shard; use run()/run_until() on a sharded simulation"
        );
        self.start();
        let next_shard = self.worlds[0].queue.next_at_key();
        let next_global = if self.global_queue.is_empty() {
            None
        } else {
            self.global_queue.next_at_key()
        };
        let take_global = match (next_shard, next_global) {
            (None, None) => return false,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            // No key ties are possible: global keys come from the single
            // rank-0 sequence, shard keys from node ranks.
            (Some(s), Some(g)) => g < s,
        };
        if take_global {
            let (at, key, kind) = self.global_queue.pop_keyed().expect("peeked global vanished");
            debug_assert!(at >= self.worlds[0].now, "time must be monotone");
            self.worlds[0].now = at;
            self.worlds[0].events_processed += 1;
            self.dispatch_global(at, key, kind);
            self.drain_outboxes();
        } else {
            let (at, key, kind) = self.worlds[0].queue.pop_keyed().expect("peeked event vanished");
            let mut exec = ShardExec {
                shared: &self.shared,
                world: &mut self.worlds[0],
                agents: &mut self.agents,
                hot_fns: &self.hot_fns,
            };
            exec.run_one(at, key, kind);
        }
        true
    }

    /// Dispatch one global transition (link / node / loss change) from
    /// coordinator context: every shard's clock already stands at the
    /// event time, no worker is running, and agent sweeps thread one
    /// `(key, sub)` tag sequence across shards so trace merge order is
    /// canonical.
    fn dispatch_global(&mut self, _at: SimTime, key: u128, kind: EventKind) {
        let t0 = self.worlds[0].prof.as_mut().and_then(|p| p.event_begin());
        let class = event_class(&kind);
        let topo_transition = matches!(
            kind,
            EventKind::LinkChange { .. } | EventKind::NodeChange { .. }
        );
        if topo_transition {
            // Snapshot the *outgoing* tree before the transition mutates
            // it. Without this, a tree that converged mid-interval (e.g. a
            // re-home after LinkUp) and is reverted by this very fault
            // would appear in neither bracketing snapshot, and its
            // perfectly legal transmissions would trip A1.
            self.audit_refresh(false);
        }
        let mut sub = 0u64;
        match kind {
            EventKind::LinkChange { link, up } => {
                if self.shared.topo.link_up(link) != up {
                    self.shared.topo.set_link_up(link, up);
                    if up {
                        // A new link can shorten any path: full flush.
                        for w in &mut self.worlds {
                            w.routing.invalidate();
                        }
                    } else {
                        // A removed link only perturbs the shortest-path
                        // trees that actually crossed it.
                        for w in &mut self.worlds {
                            w.routing.invalidate_link(&self.shared.topo, link);
                        }
                    }
                    let endpoints: Vec<(NodeId, IfaceId)> =
                        self.shared.topo.link_endpoints(link).to_vec();
                    for (n, i) in endpoints {
                        if !self.shared.node_down[n.index()] {
                            self.coord_agent(n, key, &mut sub, |agent, ctx| {
                                agent.on_link_change(ctx, i, up)
                            });
                        }
                    }
                    let change = if up {
                        TopologyChange::LinkUp(link)
                    } else {
                        TopologyChange::LinkDown(link)
                    };
                    self.notify_topology_change(change, key, &mut sub);
                }
            }
            EventKind::NodeChange { node, up } => {
                if up {
                    self.process_restart(node, key, &mut sub);
                } else {
                    self.process_crash(node, key, &mut sub);
                }
            }
            EventKind::LossChange { link, loss } => match loss {
                Some(p) => {
                    self.shared.loss_override.insert(link, p);
                }
                None => {
                    self.shared.loss_override.remove(&link);
                }
            },
            EventKind::Arrival { .. } | EventKind::Timer { .. } => {
                unreachable!("node events are shard-queued, never global")
            }
            EventKind::Fanout(..) | EventKind::FanoutCohort(..) => {
                unreachable!("fan-outs are shard-queued, never global")
            }
        }
        if topo_transition {
            // Keep the auditor's allowed-tree view current across faults:
            // close the A1 interval that ended with this transition
            // (re-homing has already run). Counts are *not* checked here —
            // the network is mid-recovery, not quiescent.
            self.audit_refresh(false);
        }
        if let Some(p) = &mut self.worlds[0].prof {
            p.event_end(class, None, None, t0);
        }
    }

    /// Deliver `change` to every live agent, then run the
    /// [`Agent::on_route_change`] sweep (routing was already invalidated).
    fn notify_topology_change(&mut self, change: TopologyChange, key: u128, sub: &mut u64) {
        {
            let w = &mut self.worlds[0];
            w.cur_key = key;
            w.cur_sub = *sub;
            w.trace_push(TraceKind::Topology(change));
            let now = w.now;
            if let Some(m) = &mut w.metrics {
                m.mark_fault(now, change);
            }
            *sub = w.cur_sub;
        }
        for idx in 0..self.agents.len() {
            if !self.shared.node_down[idx] {
                self.coord_agent(NodeId(idx as u32), key, sub, |agent, ctx| {
                    agent.on_topology_change(ctx, change)
                });
            }
        }
        for idx in 0..self.agents.len() {
            if !self.shared.node_down[idx] {
                self.coord_agent(NodeId(idx as u32), key, sub, |agent, ctx| agent.on_route_change(ctx));
            }
        }
    }

    fn process_crash(&mut self, node: NodeId, key: u128, sub: &mut u64) {
        if self.shared.node_down[node.index()] {
            return;
        }
        self.shared.node_down[node.index()] = true;
        self.shared.node_epoch[node.index()] += 1;
        // Soft state dies with the process (§3.2: everything a router knows
        // about channels and counts is soft state rebuilt by the protocol).
        self.agents[node.index()] = Some(Box::new(NullAgent));
        self.hot_fns[node.index()] = None;
        // Every up link attached to the node drops; remember which, so the
        // restart restores exactly those.
        let links: Vec<LinkId> = self
            .shared
            .topo
            .links_of(node)
            .into_iter()
            .filter(|&l| self.shared.topo.link_up(l))
            .collect();
        for &l in &links {
            self.shared.topo.set_link_up(l, false);
        }
        self.crash_downed_links.insert(node, links.clone());
        for w in &mut self.worlds {
            w.routing.invalidate();
        }
        for &l in &links {
            let endpoints: Vec<(NodeId, IfaceId)> = self.shared.topo.link_endpoints(l).to_vec();
            for (n, i) in endpoints {
                if n != node && !self.shared.node_down[n.index()] {
                    self.coord_agent(n, key, sub, |agent, ctx| agent.on_link_change(ctx, i, false));
                }
            }
        }
        self.notify_topology_change(TopologyChange::NodeDown(node), key, sub);
    }

    fn process_restart(&mut self, node: NodeId, key: u128, sub: &mut u64) {
        if !self.shared.node_down[node.index()] {
            return;
        }
        self.shared.node_down[node.index()] = false;
        let links = self.crash_downed_links.remove(&node).unwrap_or_default();
        for &l in &links {
            self.shared.topo.set_link_up(l, true);
        }
        for w in &mut self.worlds {
            w.routing.invalidate();
        }
        // Fresh process: factory-built agent with empty soft state.
        let agent = match self.restart_factories.get(&node) {
            Some(f) => f(),
            None => Box::new(NullAgent),
        };
        self.hot_fns[node.index()] = agent.hot_packet_fn();
        self.agents[node.index()] = Some(agent);
        if self.started {
            self.coord_agent(node, key, sub, |agent, ctx| agent.on_start(ctx));
        }
        for &l in &links {
            let endpoints: Vec<(NodeId, IfaceId)> = self.shared.topo.link_endpoints(l).to_vec();
            for (n, i) in endpoints {
                if !self.shared.node_down[n.index()] {
                    self.coord_agent(n, key, sub, |agent, ctx| agent.on_link_change(ctx, i, true));
                }
            }
        }
        self.notify_topology_change(TopologyChange::NodeUp(node), key, sub);
    }

    /// Run until the queues drain.
    pub fn run(&mut self) {
        if self.shard_count() > 1 {
            self.run_sharded(None);
        } else {
            while self.step() {}
        }
    }

    /// Run until simulated time exceeds `until` (events at exactly `until`
    /// are processed) or the queues drain.
    pub fn run_until(&mut self, until: SimTime) {
        if self.shard_count() > 1 {
            self.run_sharded(Some(until));
            return;
        }
        self.start();
        loop {
            let next = match (
                self.worlds[0].queue.next_at(),
                if self.global_queue.is_empty() { None } else { self.global_queue.next_at() },
            ) {
                (None, None) => break,
                (Some(a), None) | (None, Some(a)) => a,
                (Some(a), Some(b)) => a.min(b),
            };
            if next > until {
                break;
            }
            self.step();
        }
        if self.worlds[0].now < until {
            self.worlds[0].now = until;
        }
    }

    /// The sharded run loop: alternate lookahead-windowed parallel
    /// segments with stop-the-world global dispatches. Each segment drains
    /// every shard strictly below the next global transition's `(time,
    /// key)` (or the `until` horizon); the global then executes with all
    /// shard clocks aligned.
    fn run_sharded(&mut self, until: Option<SimTime>) {
        self.start();
        loop {
            let next_global = if self.global_queue.is_empty() {
                None
            } else {
                self.global_queue.next_at_key()
            };
            let next_global = match (next_global, until) {
                (Some((at, _)), Some(u)) if at > u => None,
                (g, _) => g,
            };
            let bound = match (next_global, until) {
                (Some((gt, gk)), _) => (gt, gk),
                // Horizon bound: everything at or before `until` passes
                // (node keys at `until` all sort below `(until+1, 0)`).
                (None, Some(u)) => (SimTime(u.0.saturating_add(1)), 0u128),
                (None, None) => (SimTime(u64::MAX), u128::MAX),
            };
            self.parallel_segment(bound);
            match next_global {
                Some((gt, gk)) => {
                    let (at, key, kind) = self.global_queue.pop_keyed().expect("pending global");
                    debug_assert_eq!((at, key), (gt, gk));
                    for w in &mut self.worlds {
                        debug_assert!(w.now <= at);
                        w.now = at;
                    }
                    self.worlds[0].events_processed += 1;
                    self.dispatch_global(at, key, kind);
                    self.drain_outboxes();
                }
                None => break,
            }
        }
        let mut end = self.worlds.iter().map(|w| w.now).max().unwrap_or(SimTime::ZERO);
        if let Some(u) = until {
            if end < u {
                end = u;
            }
        }
        for w in &mut self.worlds {
            w.now = end;
        }
        self.merge_worlds();
    }

    /// Drain every shard in parallel up to (strictly below) `bound`, in
    /// conservative lookahead windows. Threads are scoped per segment: the
    /// coordinator needs the worlds back between segments for global
    /// dispatch, and segment boundaries are rare (one per fault).
    fn parallel_segment(&mut self, bound: (SimTime, u128)) {
        let s_count = self.worlds.len();
        let lookahead = self.shared.plan.lookahead();
        // mailboxes[dst][src]: single-writer (src's worker), single-reader
        // (dst's worker), with the window barrier between write and read.
        let mailboxes: Vec<ShardInbox> = (0..s_count)
            .map(|_| (0..s_count).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let nexts: Vec<Mutex<(u64, u128)>> =
            (0..s_count).map(|_| Mutex::new((u64::MAX, u128::MAX))).collect();
        let cmd = Mutex::new(SegCmd::Stop);
        let barrier_a = Barrier::new(s_count + 1);
        let barrier_b = Barrier::new(s_count + 1);
        let barrier_c = Barrier::new(s_count + 1);
        let shared = &self.shared;
        let hot_fns: &[Option<HotPacketFn>] = &self.hot_fns;
        std::thread::scope(|scope| {
            let mut agents_rest: &mut [Option<Box<dyn Agent>>] = &mut self.agents;
            for (s, world) in self.worlds.iter_mut().enumerate() {
                let span = (world.limit - world.base) as usize;
                let (agents, rest) = agents_rest.split_at_mut(span);
                agents_rest = rest;
                let (mailboxes, nexts, cmd) = (&mailboxes, &nexts, &cmd);
                let (ba, bb, bc) = (&barrier_a, &barrier_b, &barrier_c);
                scope.spawn(move || {
                    worker_loop(
                        ShardExec { shared, world, agents, hot_fns },
                        s,
                        bound,
                        mailboxes,
                        nexts,
                        cmd,
                        ba,
                        bb,
                        bc,
                    );
                });
            }
            // Coordinator: size each window from the published minima.
            loop {
                barrier_a.wait();
                let mut min_next = (u64::MAX, u128::MAX);
                for n in &nexts {
                    let v = *n.lock().unwrap();
                    if v < min_next {
                        min_next = v;
                    }
                }
                if min_next.0 == u64::MAX {
                    // Every shard is at or past the bound — and exports
                    // are ingested before publication, so nothing is in
                    // flight. The segment is complete.
                    *cmd.lock().unwrap() = SegCmd::Stop;
                    barrier_b.wait();
                    break;
                }
                // Safe window: any event executed at t >= min_next lands
                // cross-shard no earlier than min_next + L.
                let w_top = SimTime(min_next.0.saturating_add(lookahead.0));
                let lim = if (w_top, 0u128) < bound { (w_top, 0u128) } else { bound };
                *cmd.lock().unwrap() = SegCmd::Drain(lim.0, lim.1);
                barrier_b.wait();
                barrier_c.wait();
            }
        });
    }

    /// Fold per-shard observability state into shard 0 after a sharded
    /// run: stats, metrics, and profiles merge associatively (sources are
    /// drained but keep their intern tables, so repeated `run_until`
    /// segments keep accumulating); per-shard load-balance gauges are
    /// recorded first when metrics are on.
    fn merge_worlds(&mut self) {
        if self.worlds.len() == 1 {
            return;
        }
        if self.worlds[0].metrics.is_some() {
            let now = self.worlds[0].now;
            let rows: Vec<(u64, u64, u64)> = self
                .worlds
                .iter()
                .map(|w| (w.events_processed, w.sync_windows, w.sync_stall_ns))
                .collect();
            let total_windows: u64 = rows.iter().map(|r| r.1).sum();
            let m = self.worlds[0].metrics.as_mut().expect("checked above");
            for (k, (ev, _, stall)) in rows.iter().enumerate() {
                m.gauge(now, &format!("prof.shard.{k}.events"), *ev);
                m.gauge(now, &format!("prof.shard.{k}.stall_ns"), *stall);
            }
            m.gauge(now, "prof.sync.windows", total_windows);
        }
        let (w0, rest) = self.worlds.split_first_mut().expect("at least one shard");
        for w in rest {
            w0.stats.absorb(&mut w.stats);
            if let (Some(a), Some(b)) = (w0.metrics.as_mut(), w.metrics.as_mut()) {
                a.absorb(b);
            }
            if let (Some(a), Some(b)) = (w0.prof.as_mut(), w.prof.as_mut()) {
                a.absorb(b);
            }
        }
    }
}

/// Consume a finished sink chain into its [`TraceBuffer`], looking through
/// a [`Tee`] for the first ring child (the shape
/// [`Sim::add_trace_sink`] builds when an auditor runs beside the ring).
fn sink_into_buffer(sink: Box<dyn TraceSink>) -> Option<TraceBuffer> {
    match sink.into_any().downcast::<TraceBuffer>() {
        Ok(buffer) => Some(*buffer),
        Err(any) => match any.downcast::<Tee>() {
            Ok(tee) => tee.into_sinks().into_iter().find_map(sink_into_buffer),
            Err(_) => None,
        },
    }
}

/// Find the live [`Auditor`] in a sink chain — the sink itself or a child
/// of a [`Tee`].
fn find_auditor_mut(sink: &mut dyn TraceSink) -> Option<&mut Auditor> {
    if sink.as_any().is::<Auditor>() {
        return sink.as_any_mut().downcast_mut::<Auditor>();
    }
    sink.as_any_mut()
        .downcast_mut::<Tee>()?
        .sinks_mut()
        .iter_mut()
        .find_map(|s| s.as_any_mut().downcast_mut::<Auditor>())
}

/// Stable k-way merge of per-shard tagged trace streams by head
/// `(time, key, sub)` tag. This is a *merge by head*, not a sort: one
/// shard's stream can be locally non-monotone in key (a zero-latency
/// causal chain records its consequence events under later keys at the
/// same instant), and merging by smallest head reproduces exactly the
/// order the single-shard scheduler would have emitted — it simulates the
/// classic pop loop, whose per-pop record batches these streams partition.
fn merge_tagged(streams: Vec<Vec<(TraceEvent, u128, u64)>>) -> Vec<(TraceEvent, u128, u64)> {
    let total = streams.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = streams.into_iter().map(|s| s.into_iter().peekable()).collect();
    let mut out: Vec<(TraceEvent, u128, u64)> = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, (SimTime, u128, u64))> = None;
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some((ev, k, sub)) = it.peek() {
                let tag = (ev.at, *k, *sub);
                if best.is_none_or(|(_, t)| tag < t) {
                    best = Some((i, tag));
                }
            }
        }
        match best {
            Some((i, _)) => out.push(iters[i].next().expect("peeked element vanished")),
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    /// Echoes every datagram back out the interface it arrived on and
    /// counts arrivals.
    struct Echo {
        seen: Vec<(SimTime, Vec<u8>)>,
        reply: bool,
    }

    impl Agent for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
            self.seen.push((ctx.now(), bytes.to_vec()));
            if self.reply {
                ctx.send(iface, bytes, class, Reliability::Reliable, Tx::AllOnLink);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one frame at start.
    struct Pinger {
        payload: Vec<u8>,
        replies: u32,
    }

    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let p = self.payload.clone();
            ctx.send(IfaceId(0), &p, TrafficClass::Data, Reliability::Reliable, Tx::AllOnLink);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {
            self.replies += 1;
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_nodes(latency_ms: u64) -> (Sim, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        t.connect(
            a,
            b,
            LinkSpec {
                latency: SimDuration::from_millis(latency_ms),
                bandwidth_bps: u64::MAX,
                ..Default::default()
            },
        )
        .unwrap();
        (Sim::new(t, 7), a, b)
    }

    #[test]
    fn ping_pong_with_latency() {
        let (mut sim, a, b) = two_nodes(5);
        sim.set_agent(
            a,
            Box::new(Pinger {
                payload: b"ping".to_vec(),
                replies: 0,
            }),
        );
        sim.set_agent(
            b,
            Box::new(Echo {
                seen: vec![],
                reply: true,
            }),
        );
        sim.run();
        let echo = sim.agent_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen.len(), 1);
        assert_eq!(echo.seen[0].0, SimTime(5_000));
        assert_eq!(echo.seen[0].1, b"ping");
        let pinger = sim.agent_as::<Pinger>(a).unwrap();
        assert_eq!(pinger.replies, 1);
        assert_eq!(sim.now(), SimTime(10_000));
    }

    #[test]
    fn serialization_delay_from_bandwidth() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        t.connect(
            a,
            b,
            LinkSpec {
                latency: SimDuration::ZERO,
                bandwidth_bps: 8_000, // 1 byte per ms
                ..Default::default()
            },
        )
        .unwrap();
        let mut sim = Sim::new(t, 0);
        sim.set_agent(
            a,
            Box::new(Pinger {
                payload: vec![0u8; 10],
                replies: 0,
            }),
        );
        sim.set_agent(b, Box::new(Echo { seen: vec![], reply: false }));
        sim.run();
        let echo = sim.agent_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen[0].0, SimTime(10_000)); // 10 bytes @ 1ms/byte
    }

    #[test]
    fn lossy_link_drops_datagrams_not_reliable() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let l = t
            .connect(
                a,
                b,
                LinkSpec {
                    loss: 1.0,
                    ..Default::default()
                },
            )
            .unwrap();
        struct Blaster;
        impl Agent for Blaster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..10 {
                    ctx.send(IfaceId(0), b"d", TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
                }
                ctx.send(IfaceId(0), b"r", TrafficClass::Data, Reliability::Reliable, Tx::AllOnLink);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(t, 1);
        sim.set_agent(a, Box::new(Blaster));
        sim.set_agent(b, Box::new(Echo { seen: vec![], reply: false }));
        sim.run();
        assert_eq!(sim.stats().link(l).drops, 10);
        let echo = sim.agent_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen.len(), 1);
        assert_eq!(echo.seen[0].1, b"r");
    }

    #[test]
    fn lan_multicast_and_unicast_delivery() {
        let mut t = Topology::new();
        let r = t.add_router();
        let h1 = t.add_host();
        let h2 = t.add_host();
        t.add_lan(&[r, h1, h2], LinkSpec::lan()).unwrap();
        struct LanSender {
            target: NodeId,
        }
        impl Agent for LanSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(IfaceId(0), b"all", TrafficClass::Control, Reliability::Reliable, Tx::AllOnLink);
                ctx.send(
                    IfaceId(0),
                    b"one",
                    TrafficClass::Control,
                    Reliability::Reliable,
                    Tx::To(self.target),
                );
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(t, 2);
        sim.set_agent(r, Box::new(LanSender { target: h1 }));
        sim.set_agent(h1, Box::new(Echo { seen: vec![], reply: false }));
        sim.set_agent(h2, Box::new(Echo { seen: vec![], reply: false }));
        sim.run();
        let e1 = sim.agent_as::<Echo>(h1).unwrap();
        assert_eq!(
            e1.seen.iter().map(|(_, b)| b.as_slice()).collect::<Vec<_>>(),
            vec![b"all".as_slice(), b"one".as_slice()]
        );
        let e2 = sim.agent_as::<Echo>(h2).unwrap();
        assert_eq!(e2.seen.len(), 1);
        assert_eq!(e2.seen[0].1, b"all");
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerAgent {
            fired: Vec<(SimTime, TimerToken)>,
        }
        impl Agent for TimerAgent {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 2);
                ctx.set_timer(SimDuration::from_millis(5), 1);
                ctx.set_timer(SimDuration::from_millis(10), 3); // same time as 2
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
                self.fired.push((ctx.now(), token));
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut t = Topology::new();
        let a = t.add_host();
        let mut sim = Sim::new(t, 0);
        sim.set_agent(a, Box::new(TimerAgent { fired: vec![] }));
        sim.run();
        let ta = sim.agent_as::<TimerAgent>(a).unwrap();
        assert_eq!(
            ta.fired,
            vec![
                (SimTime(5_000), 1),
                (SimTime(10_000), 2),
                (SimTime(10_000), 3) // insertion order breaks the tie
            ]
        );
    }

    #[test]
    fn link_change_notifies_endpoints_and_drops_in_flight() {
        let (mut sim, a, b) = two_nodes(10);
        struct Watcher {
            changes: Vec<(SimTime, bool)>,
            got: u32,
        }
        impl Agent for Watcher {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _b: &Payload, _c: TrafficClass) {
                self.got += 1;
            }
            fn on_link_change(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, up: bool) {
                self.changes.push((ctx.now(), up));
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_agent(
            a,
            Box::new(Pinger {
                payload: b"x".to_vec(),
                replies: 0,
            }),
        );
        sim.set_agent(b, Box::new(Watcher { changes: vec![], got: 0 }));
        let link = LinkId(0);
        // Frame sent at t=0 arrives at t=10ms, but the link dies at 5ms.
        sim.schedule_link_change(SimTime(5_000), link, false);
        sim.run();
        let w = sim.agent_as::<Watcher>(b).unwrap();
        assert_eq!(w.got, 0);
        assert_eq!(w.changes, vec![(SimTime(5_000), false)]);
    }

    #[test]
    fn run_until_stops_at_time() {
        let (mut sim, a, _) = two_nodes(10);
        struct Repeater;
        impl Agent for Repeater {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_agent(a, Box::new(Repeater));
        sim.run_until(SimTime(5_500));
        assert_eq!(sim.now(), SimTime(5_500));
        // 5 timer firings at 1..=5 ms.
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn batched_fanout_counts_expanded_deliveries_and_bounds_depth() {
        // A 1-router + N-host LAN burst: batching on must deliver the same
        // events_processed / delivered totals as batching off, with a far
        // smaller peak queue depth (1 deferred entry vs N arrivals).
        fn run(batch: bool) -> (u64, usize, u64) {
            let mut t = Topology::new();
            let r = t.add_router();
            let hosts: Vec<NodeId> = (0..64).map(|_| t.add_host()).collect();
            let mut members = vec![r];
            members.extend(&hosts);
            t.add_lan(&members, LinkSpec::lan()).unwrap();
            struct Burst;
            impl Agent for Burst {
                fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                    ctx.send(IfaceId(0), b"data", TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
                }
                fn as_any_mut(&mut self) -> &mut dyn Any {
                    self
                }
            }
            struct Sink {
                got: u64,
            }
            impl Agent for Sink {
                fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _b: &Payload, _c: TrafficClass) {
                    self.got += 1;
                }
                fn hot_packet_fn(&self) -> Option<HotPacketFn> {
                    Some(hot_packet_stub::<Self>())
                }
                fn as_any_mut(&mut self) -> &mut dyn Any {
                    self
                }
            }
            let mut sim = Sim::new(t, 3);
            sim.set_fanout_batching(batch);
            sim.set_agent(r, Box::new(Burst));
            for &h in &hosts {
                sim.set_agent(h, Box::new(Sink { got: 0 }));
            }
            for i in 1..=4u64 {
                sim.schedule_timer_at(r, SimTime(i * 1_000), 0);
            }
            sim.run();
            let delivered: u64 = hosts.iter().map(|&h| sim.agent_as::<Sink>(h).unwrap().got).sum();
            (sim.events_processed(), sim.peak_queue_depth(), delivered)
        }
        let (ev_b, peak_b, got_b) = run(true);
        let (ev_e, peak_e, got_e) = run(false);
        assert_eq!(got_b, 4 * 64);
        assert_eq!(got_b, got_e);
        assert_eq!(ev_b, ev_e, "batched totals must match the eager path");
        assert!(peak_b < peak_e, "batching must shrink peak depth ({peak_b} vs {peak_e})");
        assert!(peak_b <= 8, "one burst = one deferred entry (+ timers), got {peak_b}");
    }

    #[test]
    fn hot_packet_stub_dispatches_to_concrete_agent() {
        let (mut sim, a, b) = two_nodes(1);
        struct Hot {
            got: Vec<Vec<u8>>,
        }
        impl Agent for Hot {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, bytes: &Payload, _c: TrafficClass) {
                self.got.push(bytes.to_vec());
            }
            fn hot_packet_fn(&self) -> Option<HotPacketFn> {
                Some(hot_packet_stub::<Self>())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_agent(
            a,
            Box::new(Pinger {
                payload: b"via-hot-fn".to_vec(),
                replies: 0,
            }),
        );
        sim.set_agent(b, Box::new(Hot { got: vec![] }));
        sim.run();
        assert_eq!(sim.agent_as::<Hot>(b).unwrap().got, vec![b"via-hot-fn".to_vec()]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> (u64, u64) {
            let mut t = Topology::new();
            let a = t.add_host();
            let b = t.add_host();
            let l = t
                .connect(
                    a,
                    b,
                    LinkSpec {
                        loss: 0.5,
                        ..Default::default()
                    },
                )
                .unwrap();
            struct Blast;
            impl Agent for Blast {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    for _ in 0..100 {
                        ctx.send(IfaceId(0), b"d", TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
                    }
                }
                fn as_any_mut(&mut self) -> &mut dyn Any {
                    self
                }
            }
            let mut sim = Sim::new(t, seed);
            sim.set_agent(a, Box::new(Blast));
            sim.run();
            (sim.stats().link(l).drops, sim.events_processed())
        }
        assert_eq!(run_once(42), run_once(42));
        // Different seeds give a different loss pattern (overwhelmingly).
        assert_ne!(run_once(1).0, run_once(2).0);
    }

    #[test]
    fn send_on_down_link_fails() {
        let (mut sim, a, b) = two_nodes(1);
        sim.schedule_link_change(SimTime::ZERO, LinkId(0), false);
        sim.run();
        let _ = b;
        struct TrySend;
        impl Agent for TrySend {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                assert!(!ctx.send(IfaceId(0), b"x", TrafficClass::Data, Reliability::Reliable, Tx::AllOnLink));
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_agent(a, Box::new(TrySend));
        sim.start();
    }

    /// A relay line: node i forwards every arrival out its other
    /// interface, so one ping at node 0 walks the whole line — crossing
    /// every shard boundary of any contiguous partition.
    struct Forward;
    impl Agent for Forward {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
            ctx.count("fwd.seen", 1);
            let out = IfaceId(1 - iface.0);
            if (out.0 as usize) < ctx.iface_count() {
                ctx.send_shared(out, bytes.clone(), class, Reliability::Reliable, Tx::AllOnLink);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn line_run(shards: usize, batching: bool) -> (u64, String, String) {
        let t = crate::topogen::line(16, LinkSpec::default()).topo;
        let mut sim = Sim::new(t, 11);
        sim.set_shards(shards);
        sim.enable_trace(TraceConfig::default());
        for i in 0..16 {
            sim.set_agent(NodeId(i), Box::new(Forward));
        }
        sim.set_fanout_batching(batching);
        // Kick the line from node 0 at t=1ms via a harness timer: Forward
        // has no on_timer, so prime with a Pinger at node 0 instead.
        sim.set_agent(
            NodeId(0),
            Box::new(Pinger {
                payload: b"walk".to_vec(),
                replies: 0,
            }),
        );
        sim.run();
        let stats = format!("{:?}", sim.stats().named_counters().collect::<Vec<_>>());
        let trace = sim.take_trace().expect("ring trace");
        (sim.events_processed(), stats, trace.to_jsonl())
    }

    #[test]
    fn sharded_line_matches_classic_at_every_shard_count() {
        let (ev1, st1, tr1) = line_run(1, true);
        assert!(ev1 > 0);
        for shards in [2, 3, 4] {
            for batching in [true, false] {
                let (ev, st, tr) = line_run(shards, batching);
                assert_eq!(ev, ev1, "events diverge at {shards} shards (batching={batching})");
                assert_eq!(st, st1, "stats diverge at {shards} shards (batching={batching})");
                assert_eq!(tr, tr1, "trace diverges at {shards} shards (batching={batching})");
            }
        }
    }

    #[test]
    fn sharded_run_with_faults_and_timers_matches_classic() {
        let run = |shards: usize| -> (u64, String) {
            let t = crate::topogen::line(12, LinkSpec::default()).topo;
            let mut sim = Sim::new(t, 5);
            sim.set_shards(shards);
            for i in 0..12 {
                sim.set_agent(NodeId(i), Box::new(Forward));
            }
            sim.set_agent(
                NodeId(0),
                Box::new(Pinger {
                    payload: b"x".to_vec(),
                    replies: 0,
                }),
            );
            // A fault mid-flight plus harness timers on both sides of it.
            sim.schedule_timer_at(NodeId(3), SimTime(2_000), 7);
            sim.schedule_link_change(SimTime(4_000), LinkId(6), false);
            sim.schedule_link_change(SimTime(9_000), LinkId(6), true);
            sim.schedule_timer_at(NodeId(9), SimTime(30_000), 8);
            sim.run_until(SimTime(40_000));
            assert_eq!(sim.now(), SimTime(40_000));
            (sim.events_processed(), format!("{:?}", sim.stats().named_counters().map(|(k, v)| (k.to_string(), v)).collect::<Vec<_>>()))
        };
        let base = run(1);
        for shards in [2, 4] {
            assert_eq!(run(shards), base, "diverged at {shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "before any events are scheduled")]
    fn set_shards_panics_once_events_are_scheduled() {
        let t = crate::topogen::line(8, LinkSpec::default()).topo;
        let mut sim = Sim::new(t, 1);
        sim.schedule_timer_at(NodeId(2), SimTime(1_000), 0);
        sim.set_shards(2);
    }

    #[test]
    #[should_panic(expected = "enable_trace_sink requires shards=1")]
    fn trace_sink_rejects_sharded_sim() {
        let t = crate::topogen::line(8, LinkSpec::default()).topo;
        let mut sim = Sim::new(t, 1);
        sim.set_shards(2);
        sim.enable_trace_sink(
            TraceConfig::default(),
            Box::new(crate::trace::JsonlSink::new(Vec::new())),
        );
    }

    /// Run `f` inside a dispatch (node `a`'s start-up callback); returns
    /// the derivations the run performed.
    fn in_dispatch(f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) -> u64 {
        struct Once<F>(Option<F>);
        impl<F: FnOnce(&mut Ctx<'_>) + Send + 'static> Agent for Once<F> {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                (self.0.take().expect("started once"))(ctx)
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (mut sim, a, _) = two_nodes(1);
        sim.set_agent(a, Box::new(Once(Some(f))));
        sim.start();
        sim.frames_derived()
    }

    /// A derivation that is a function of `(octets, tag)`: the octets with
    /// the first one replaced by the tag.
    fn stamp(tag: u32) -> impl Fn(&[u8]) -> Payload {
        move |octets| {
            let mut out = octets.to_vec();
            out[0] = tag as u8;
            out.into()
        }
    }

    #[test]
    fn derive_frame_answers_only_for_the_same_handle_and_tag() {
        let derived = in_dispatch(|ctx| {
            let a = Payload::from(&b"frame"[..]);
            let twin = Payload::from(&b"frame"[..]);
            let first = ctx.derive_frame(&a, 7, stamp(7));
            assert_eq!(&*first, b"\x07rame");
            assert!(Arc::ptr_eq(&first, &ctx.derive_frame(&a, 7, stamp(7))), "same handle, same tag: remembered");
            // Equal octets under another handle are another frame.
            let other = ctx.derive_frame(&twin, 7, stamp(7));
            assert!(!Arc::ptr_eq(&first, &other));
            assert_eq!(first, other);
            // Same handle, another tag.
            let retagged = ctx.derive_frame(&twin, 6, stamp(6));
            assert_eq!(&*retagged, b"\x06rame");
            assert!(Arc::ptr_eq(&retagged, &ctx.derive_frame(&twin, 6, stamp(6))));
            // One entry: `a` was displaced, and derives afresh.
            assert!(!Arc::ptr_eq(&first, &ctx.derive_frame(&a, 7, stamp(7))));
        });
        assert_eq!(derived, 4);
    }

    #[test]
    fn derive_frame_cannot_hit_on_a_recycled_address() {
        // The caller lets go of every source right after deriving from it.
        // Were the memo to remember the bare address, the allocator would
        // hand it to the next same-length frame and the stale entry would
        // answer for it; the memo's own clone keeps the address taken.
        let derived = in_dispatch(|ctx| {
            let mut remembered = std::ptr::null();
            for i in 0..1000u32 {
                let mut octets = [0u8; 64];
                octets[60..].copy_from_slice(&i.to_be_bytes());
                let src = Payload::from(&octets[..]);
                assert_ne!(src.as_ptr(), remembered, "round {i}");
                let out = ctx.derive_frame(&src, 1, stamp(1));
                assert_eq!(out[60..], i.to_be_bytes(), "round {i} was answered from another frame");
                remembered = src.as_ptr();
            }
        });
        assert_eq!(derived, 1000);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a function of (octets, tag)")]
    fn derive_frame_hit_checks_the_purity_contract_in_debug_builds() {
        in_dispatch(|ctx| {
            let a = Payload::from(&b"frame"[..]);
            ctx.derive_frame(&a, 7, stamp(7));
            ctx.derive_frame(&a, 7, stamp(8));
        });
    }
}
