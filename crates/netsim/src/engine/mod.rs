//! The discrete-event engine: event queue, agent dispatch, packet delivery,
//! timers, link failure injection — one run loop over one event queue.
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
//! that source had scheduled before — never of how the queue stores it
//! (see `docs/INTERNALS.md` §6). The wheel's geometry
//! ([`WheelConfig`](crate::wheel::WheelConfig)) affects only the *cost* of
//! scheduling, never the order. Determinism is pinned three ways: the
//! `queue_`-prefixed property tests (wheel vs. reference heap), the golden
//! fault-storm replay, and a golden replay at a non-default granularity.
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
//! ## One run loop
//!
//! [`Sim::run`] and [`Sim::run_until`] are the same loop, and it works in
//! **segments**. A segment is the stretch of node events (arrivals,
//! timers, fan-outs) between two **global transitions** — link flips,
//! crashes and restarts, loss overrides — or up to the `run_until`
//! horizon: the loop takes the next global's `(time, key)` (or the
//! horizon) as the bound, drains the node queue strictly below it,
//! dispatches the global, and repeats. A global mutates what every
//! dispatch reads — the topology, the down/epoch tables, the routing cache
//! — and sweeps the agents that listen ([`Ctx::watch_topology`]), so it
//! runs with the node queue standing at its instant: every listener
//! observes the change at the same point of the canonical order. A
//! transition costs two calls per listener, not per node.
//!
//! "Drain below a limit" is one method, `Exec::drain_below`, with one
//! dispatch path (`Exec::run_one`) under it. It peeks with the wheel's
//! *rotating* peek and compares with the limit afterwards: at each segment
//! edge that sorts the next bucket into the current run early, which costs
//! nothing in event order, traces or stats but is visible in
//! [`Sim::peak_queue_depth`] (604 on the benchmark's `tree_1k_observed` at
//! `--check` size, where the bounded peek
//! [`TimerWheel::next_at_key_below`](crate::wheel::TimerWheel::next_at_key_below)
//! would read 358) — and that figure is part of the benchmark's pinned
//! digests. See `docs/INTERNALS.md` §6, "The rotating peek".
//!
//! ## Module map
//!
//! | file | holds |
//! |---|---|
//! | `mod.rs` | the public vocabulary: [`Agent`], [`IntoAgent`], [`Tx`], [`Reliability`], [`TopologyChange`], [`Payload`], [`NullAgent`] |
//! | `world.rs` | `EventKind` / `FanoutSend` / `Cohort`, `Shared` (what a dispatch only reads) and `World` (the mutable half: wheel, slabs, topology listeners, audit marks, counters, fan-out coalescing) |
//! | `store.rs` | `AgentStore`: the agents, a pool per concrete type and a 4-byte slot per node; the sealed half of [`IntoAgent`] |
//! | `ctx.rs` | [`Ctx`], the agent's window into a dispatch: queries, `send*` / the one `transmit` path, timers, `watch_topology`, counters |
//! | `exec.rs` | `Exec`: the one agent-`Ctx` constructor (`with_agent`), `run_one`, `drain_below`, cohort / fan-out expansion, `deliver` |
//! | `sim.rs` | [`Sim`]: construction, scheduling, the start-up sweep, the segment loop, global-transition dispatch |
//! | `observe.rs` | `Sim`'s trace / metrics / profiler / audit surface |
//! | `tests.rs` | unit tests |

mod ctx;
mod exec;
mod observe;
mod sim;
mod store;
#[cfg(test)]
mod tests;
mod world;

pub use ctx::Ctx;
pub use sim::Sim;
#[doc(hidden)]
pub use crate::compat::HotPacketFn;

use crate::audit::AuditNodeState;
use crate::downcast::AsAny;
use crate::id::{IfaceId, LinkId, NodeId};
use crate::stats::TrafficClass;
use crate::topology::Topology;
use std::any::Any;
use std::sync::Arc;

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
/// live listening agent via [`Agent::on_topology_change`]. This is the protocol-facing
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
/// Every method has a default, so an agent implements only what it needs.
/// The type itself supplies the rest: [`as_any_mut`](Self::as_any_mut) (how
/// [`Sim::agent_as`] downcasts to inspect protocol state) and
/// [`kind_name`](Self::kind_name) (the profiler's label). Override those
/// two only in a wrapper, to forward to the agent it wraps.
///
/// An agent is `'static`: it owns its state.
pub trait Agent: AsAny {
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
    /// Delivered to every live agent that called [`Ctx::watch_topology`],
    /// in ascending node id, after every listener has had the transition's
    /// [`on_topology_change`](Self::on_topology_change); an agent that
    /// never asked is not called.
    fn on_route_change(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A topology transition happened somewhere in the network. Delivered
    /// to every live agent that called [`Ctx::watch_topology`] (not just
    /// link endpoints — those get [`on_link_change`](Self::on_link_change)
    /// whether they listen or not), in ascending node id, after the
    /// affected links flipped and routing was invalidated, and immediately
    /// before the [`on_route_change`](Self::on_route_change) sweep.
    /// Protocols that care what changed — not merely that routes moved —
    /// implement this; e.g. a PIM RP could watch for
    /// [`TopologyChange::NodeDown`] of a peer. The engine drops the
    /// registration when it replaces the agent (crash, restart, mid-run
    /// [`Sim::set_agent`]): a replacement listens only if it asks.
    fn on_topology_change(&mut self, _ctx: &mut Ctx<'_>, _change: TopologyChange) {}

    /// This agent's *type*, by which the engine self-profiler attributes
    /// dispatch time: [`type_name`](std::any::type_name), which a report
    /// renders as a short label (`express::router::EcmpRouter` →
    /// `ecmp_router`; see [`crate::prof`]).
    fn kind_name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }

    /// Report this agent's protocol truth for the online auditor (see
    /// [`crate::audit`]): routes with forwarding intent and counts,
    /// host-side subscribe/source state. Takes `&self` on purpose — the
    /// snapshot must be a *pure read* (no RNG draws, no sends, no state
    /// mutation), so taking one can never perturb a deterministic run.
    /// The default `None` exempts the node from per-node audit checks.
    ///
    /// The report must be a function of the agent's state, its node's own
    /// links' up/down state and the static topology; and a dispatch that
    /// changes it calls [`Ctx::audit_changed`]. The auditor reads only
    /// marked nodes, so an unmarked change goes unseen until the node is
    /// next marked (the engine's own marks are listed there).
    fn audit_state(&self, _topo: &Topology, _node: NodeId) -> Option<AuditNodeState> {
        None
    }

    /// Ignored by the engine, which dispatches every agent's packets
    /// through the pool of its concrete type (see [`Sim::set_agent`]); kept
    /// only because `benchmark/src/agents.rs` and `benchmark/src/spans.rs`
    /// override it. Its return type lives in `compat.rs`.
    fn hot_packet_fn(&self) -> Option<HotPacketFn> {
        None
    }

    /// This agent as `Any`, for [`Sim::agent_as`] to downcast.
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.any_mut()
    }
}

/// What [`Sim::set_agent`] accepts: a `Box<A>` of a concrete agent type —
/// the agent moves out of its box into the pool of type `A` — or a
/// `Box<dyn Agent>`, which stays boxed in the one pool of boxed agents
/// (restart factories, code that picks among agent types at run time).
/// Sealed: these are the only implementations.
pub trait IntoAgent: store::Place {}

impl<A: Agent + 'static> IntoAgent for Box<A> {}

impl IntoAgent for Box<dyn Agent> {}

/// A do-nothing agent for nodes without protocol logic.
pub struct NullAgent;

impl Agent for NullAgent {}

/// A factory producing a fresh agent for a restarted router.
pub type AgentFactory = Box<dyn Fn() -> Box<dyn Agent>>;
