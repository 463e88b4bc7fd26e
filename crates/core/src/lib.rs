//! # express
//!
//! EXPlicitly REquested Single-Source (EXPRESS) multicast channels and the
//! EXPRESS Count Management Protocol (ECMP), reproducing Holbrook &
//! Cheriton, *"IP Multicast Channels: EXPRESS Support for Large-scale
//! Single-source Applications"*, SIGCOMM 1999.
//!
//! A multicast **channel** is a datagram delivery service identified by
//! `(S, E)`: exactly one designated source host `S` and a destination
//! address `E` in the single-source range `232/8`. Only `S` may send;
//! subscribers explicitly request `(S, E)`. One protocol — ECMP — both
//! maintains the distribution tree and supports source-directed counting
//! and voting: distribution-tree construction "is a restricted case of
//! counting the subscribers in each subtree" (§3).
//!
//! ## Crate layout
//!
//! | module | paper § | contents |
//! |---|---|---|
//! | [`channel`] | 2.2.1 | per-host local channel allocation (no global coordination) |
//! | [`fib`] | 3.4, 5.1 | the exact-match (S,E) forwarding table over packed 12-byte entries |
//! | [`table`] | — | the unseeded keyed containers under the FIB and the control plane's state |
//! | [`counting`] | 3.1 | per-query aggregation records, per-hop timeout decrement, partial replies |
//! | [`proactive`] | 6 | the error-tolerance curve and proactive count maintenance |
//! | [`packets`] | — | building/classifying the IPv4 datagrams ECMP and channel data ride in |
//! | [`router`] | 3 | the ECMP router agent: subscription, counting, auth, TCP/UDP modes, re-homing |
//! | [`host`] | 2.1 | the host service interface: `new_subscription`, `count_query`, `channel_key`, subcast |
//!
//! The `session-relay` crate builds the §4 middleware on top of this crate;
//! `mcast-baselines` implements the protocols the paper compares against;
//! `express-cost` implements the §5 cost models.
//!
//! Failure handling (§3.2) — TCP-mode connection-failure count
//! subtraction, link-up re-advertisement, re-homing with hysteresis,
//! rejoin backoff under partition, UDP-mode refresh/expiry and the
//! startup general query — lives in [`router`] and is specified, with the
//! timers and recovery bounds each path meets, in `docs/FAILURE_MODEL.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod counting;
pub mod fib;
pub mod host;
pub mod packets;
pub mod proactive;
pub mod router;
pub mod table;

pub use channel::ChannelAllocator;
pub use fib::Fib;
pub use host::{ExpressHost, HostAction, HostEvent};
pub use proactive::ErrorToleranceCurve;
pub use router::{EcmpRouter, RouterConfig};

/// Re-export of the wire-format crate for convenience.
pub use express_wire as wire;
