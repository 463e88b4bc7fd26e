//! # netsim
//!
//! A deterministic discrete-event network simulator: the substrate on which
//! the EXPRESS reproduction runs. The paper's protocols were designed for
//! real IPv4 routers; here routers, hosts, interfaces, links and LANs are
//! simulated, but the *protocol code* (in the `express`, `mcast-baselines`
//! and `session-relay` crates) exchanges genuine wire-format datagrams built
//! by `express-wire`.
//!
//! Design points, following the event-driven style of embedded TCP/IP stacks:
//!
//! * **Determinism.** A single seeded RNG, a total order on events
//!   (time, then insertion sequence), and no wall-clock access anywhere.
//!   The same seed always reproduces the same run.
//! * **The unicast substrate is first-class.** ECMP's routing component
//!   "relies on, and scales with, existing unicast topology information"
//!   (paper §3); [`routing::Routing`] computes shortest-path next hops and
//!   the reverse-path-forwarding (RPF) interface every protocol here uses.
//! * **Two neighbor transports.** Lossy datagram delivery, and a reliable
//!   single-hop stream ([`transport`]) modelling ECMP's TCP mode: in-order,
//!   loss-free, with connection-failure notification when the link dies.
//! * **Scripted fault injection.** [`faults::FaultPlan`] schedules link
//!   down/up, router crash/restart (all agent soft state lost; rebuilt via
//!   a restart factory) and time-windowed loss bursts through the same
//!   event queue, so failure runs replay deterministically. Agents observe
//!   faults through `on_link_change`/`on_topology_change`/`on_route_change`
//!   — the §3.2 recovery hooks. The contract every protocol implements
//!   against this machinery is documented in `docs/FAILURE_MODEL.md`.
//!
//! The simulation loop dispatches to user protocol logic through the
//! [`engine::Agent`] trait; see the `express` crate for the canonical agents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod compat;
pub mod engine;
pub mod faults;
pub mod id;
mod json;
pub mod metrics;
pub mod prof;
pub mod routing;
pub mod stats;
pub mod time;
pub mod topogen;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod wheel;

/// Sealed: no other crate can name [`AsAny`](downcast::AsAny), so its methods
/// never shadow theirs, and outside this crate the provided downcasts of
/// `Agent` and `TraceSink` are the only way to reach it.
mod downcast {
    use std::any::Any;

    /// Downcast helpers every `'static` type has, so a trait with this as a
    /// supertrait provides its downcasts instead of asking each impl to
    /// write `self`.
    pub trait AsAny: Any {
        fn any_ref(&self) -> &dyn Any;
        fn any_mut(&mut self) -> &mut dyn Any;
        fn into_any_box(self: Box<Self>) -> Box<dyn Any>;
    }

    impl<T: Any> AsAny for T {
        fn any_ref(&self) -> &dyn Any {
            self
        }
        fn any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn into_any_box(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }
}

pub use audit::{
    extract_auditor, AuditCheck, AuditConfig, AuditNodeState, AuditReport, AuditRoute,
    AuditSnapshot, AuditViolation, Auditor, ChannelTruth, RecoveryBounds,
};
#[doc(hidden)]
pub use compat::{hot_packet_stub, HotPacketFn};
pub use engine::{Agent, Ctx, Payload, Sim, TimerToken, TopologyChange};
pub use wheel::{TimerWheel, WheelConfig};
pub use stats::{CounterId, Name};
pub use faults::{FaultEvent, FaultPlan};
pub use id::{IfaceId, LinkId, NodeId};
pub use metrics::{Histogram, Metrics, MetricsConfig};
pub use time::{SimDuration, SimTime};
pub use topology::{LinkSpec, NodeKind, Topology};
pub use prof::{EventClass, ProfConfig, ProfReport, Profiler, WheelGauges};
pub use trace::{
    parse_flat_json_object, ChanLabel, JsonlSink, PacketId, PacketPath, ProtoEvent, SampleSpec, Tee,
    TraceBuffer, TraceConfig, TraceEvent, TraceKind, TraceMeta, TraceSink, Tracer,
};
