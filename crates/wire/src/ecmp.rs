//! The EXPRESS Count Management Protocol (ECMP) message formats.
//!
//! ECMP is the single management protocol of the paper's §3: it maintains
//! the channel distribution tree *and* supports source-directed counting and
//! voting. The protocol consists of exactly three messages:
//!
//! ```text
//! CountQuery(channel, countId, timeout)
//! Count(channel, countId, count, [K(S,E)])
//! CountResponse(channel, countId, status)
//! ```
//!
//! Subscription is the degenerate counting case: a `Count` for the reserved
//! `subscriberId` with value 1 subscribes, value 0 unsubscribes (§3.2).
//!
//! ECMP runs over UDP (edge, many hosts) or TCP (core, many channels); in
//! TCP mode many messages are batched per segment — see [`emit_batch`] /
//! [`parse_batch`]. The paper's §5.3 packing arithmetic ("approximately 92
//! 16-byte Count messages fit in a 1480-byte segment") is reproduced by the
//! compact unauthenticated `Count` encoding ([`Count::WIRE_LEN_BASE`]).

use crate::addr::Channel;
use crate::{field, Result, WireError};

/// The ECMP protocol version emitted by this implementation.
pub const VERSION: u8 = 1;

/// A 64-bit channel authenticator `K(S,E)` (§2.1 / §3.5).
///
/// Key *distribution* is explicitly out of scope for ECMP ("hosts must learn
/// K(S,E) with an out-of-band mechanism", §3.2); this is only the on-wire
/// credential.
pub type ChannelKey = u64;

/// Identifies the attribute being counted.
///
/// The 32-bit CountId space is partitioned per §3 of the paper:
///
/// * a handful of reserved protocol values ([`CountId::SUBSCRIBERS`],
///   [`CountId::NEIGHBORS`], [`CountId::ALL_CHANNELS`]),
/// * a **network-layer resource** range that is answered by routers and *not*
///   propagated to leaf hosts (§3.1 footnote 3), e.g. [`CountId::LINKS`],
/// * a **locally-defined** range for use within one administrative domain,
/// * an **application-defined** range delivered to subscriber applications
///   (votes, ACK/NAK collection, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountId(pub u32);

impl CountId {
    /// The reserved `subscriberId`: number of subscribers in a subtree.
    /// Unsolicited Counts with this id maintain the distribution tree.
    pub const SUBSCRIBERS: CountId = CountId(1);
    /// Reserved id used by periodic neighbor discovery queries (§3.3).
    pub const NEIGHBORS: CountId = CountId(2);
    /// Reserved id soliciting Count retransmissions for **all** channels,
    /// analogous to an IGMP general query (§3.3).
    pub const ALL_CHANNELS: CountId = CountId(3);
    /// First id of the network-layer resource range.
    pub const NETWORK_LAYER_BASE: u32 = 0x0100_0000;
    /// Number of links used by the channel inside a domain (§3.1's
    /// inter-domain settlement example).
    pub const LINKS: CountId = CountId(Self::NETWORK_LAYER_BASE);
    /// A weighted tree-size measure (§2.1 mentions it as a possible count).
    pub const WEIGHTED_TREE_SIZE: CountId = CountId(Self::NETWORK_LAYER_BASE + 1);
    /// First id of the locally-defined range (§3.1: "a sub-range of CountIds
    /// is designated for locally-defined use").
    pub const LOCAL_BASE: u32 = 0x4000_0000;
    /// First id of the application-defined range (§2.2.1: application
    /// semantics, e.g. votes or reception reports).
    pub const APPLICATION_BASE: u32 = 0x8000_0000;

    /// Does this id denote a network-layer resource count, answered by
    /// routers rather than forwarded to leaf hosts?
    pub const fn is_network_layer(self) -> bool {
        self.0 >= Self::NETWORK_LAYER_BASE && self.0 < Self::LOCAL_BASE
    }

    /// Does this id fall in the locally-defined range?
    pub const fn is_locally_defined(self) -> bool {
        self.0 >= Self::LOCAL_BASE && self.0 < Self::APPLICATION_BASE
    }

    /// Does this id fall in the application-defined range (delivered to
    /// subscribing applications)?
    pub const fn is_application_defined(self) -> bool {
        self.0 >= Self::APPLICATION_BASE
    }
}

/// Status codes carried by [`CountResponse`] (§3.1: "A router can either
/// acknowledge or reject a Count message").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseStatus {
    /// The Count was accepted (subscription validated, count recorded).
    Ok,
    /// The router does not support the requested countId.
    UnsupportedCount,
    /// The authenticator was missing or wrong for an authenticated channel.
    InvalidAuthenticator,
    /// The channel is unknown upstream (e.g. source unreachable).
    NoSuchChannel,
    /// Administratively refused.
    AdminProhibited,
}

impl ResponseStatus {
    fn to_u8(self) -> u8 {
        match self {
            ResponseStatus::Ok => 0,
            ResponseStatus::UnsupportedCount => 1,
            ResponseStatus::InvalidAuthenticator => 2,
            ResponseStatus::NoSuchChannel => 3,
            ResponseStatus::AdminProhibited => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => ResponseStatus::Ok,
            1 => ResponseStatus::UnsupportedCount,
            2 => ResponseStatus::InvalidAuthenticator,
            3 => ResponseStatus::NoSuchChannel,
            4 => ResponseStatus::AdminProhibited,
            t => return Err(WireError::UnknownType(t)),
        })
    }
}

const TYPE_COUNT_QUERY: u8 = 1;
const TYPE_COUNT: u8 = 2;
const TYPE_COUNT_RESPONSE: u8 = 3;

const FLAG_HAS_KEY: u8 = 0x01;
const FLAG_PROACTIVE: u8 = 0x02;

/// Common fixed prefix: version|type (1), flags (1), channel (8), countId (4).
const PREFIX_LEN: usize = 14;

/// Parameters for proactive counting (§6): the error-tolerance curve
/// `e_max(dt) = ln(tau/dt) / alpha`.
///
/// Carried in a [`CountQuery`] with the proactive flag set, propagating the
/// source's request "that proactive counting be used for any countId ... to
/// all routers in the multicast tree".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProactiveParams {
    /// The decay-rate parameter α, in thousandths (α = 4.0 → 4000).
    pub alpha_milli: u32,
    /// The x-intercept τ in milliseconds: the maximum delay until *any*
    /// change is transmitted upstream.
    pub tau_ms: u32,
}

impl ProactiveParams {
    /// α as a float.
    pub fn alpha(&self) -> f64 {
        f64::from(self.alpha_milli) / 1000.0
    }

    /// τ in seconds as a float.
    pub fn tau_secs(&self) -> f64 {
        f64::from(self.tau_ms) / 1000.0
    }
}

/// `CountQuery(channel, countId, timeout)` — §3.1.
///
/// The receiving router creates a per-downstream-neighbor record, decrements
/// the timeout by a small multiple of the measured upstream RTT, and forwards
/// downstream, so that a child times out (and sends a partial reply) before
/// its parent does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountQuery {
    /// The channel being queried.
    pub channel: Channel,
    /// The attribute to count.
    pub count_id: CountId,
    /// Remaining time budget for the answer, in milliseconds.
    pub timeout_ms: u32,
    /// If set, enables proactive counting for `count_id` on this channel.
    pub proactive: Option<ProactiveParams>,
}

impl CountQuery {
    /// Encoded size of this query.
    pub const fn buffer_len(&self) -> usize {
        PREFIX_LEN + 4 + if self.proactive.is_some() { 8 } else { 0 }
    }

    fn emit_body(&self, buf: &mut [u8]) -> Result<usize> {
        let mut flags = 0u8;
        if self.proactive.is_some() {
            flags |= FLAG_PROACTIVE;
        }
        emit_prefix(buf, TYPE_COUNT_QUERY, flags, self.channel, self.count_id)?;
        field::put_u32(buf, PREFIX_LEN, self.timeout_ms)?;
        let mut at = PREFIX_LEN + 4;
        if let Some(p) = self.proactive {
            field::put_u32(buf, at, p.alpha_milli)?;
            field::put_u32(buf, at + 4, p.tau_ms)?;
            at += 8;
        }
        Ok(at)
    }

    fn parse_body(buf: &[u8], flags: u8, channel: Channel, count_id: CountId) -> Result<(Self, usize)> {
        let timeout_ms = field::get_u32(buf, PREFIX_LEN)?;
        let mut at = PREFIX_LEN + 4;
        let proactive = if flags & FLAG_PROACTIVE != 0 {
            let alpha_milli = field::get_u32(buf, at)?;
            let tau_ms = field::get_u32(buf, at + 4)?;
            at += 8;
            Some(ProactiveParams { alpha_milli, tau_ms })
        } else {
            None
        };
        Ok((
            CountQuery {
                channel,
                count_id,
                timeout_ms,
                proactive,
            },
            at,
        ))
    }
}

/// `Count(channel, countId, count, [K(S,E)])` — §3.1/§3.2.
///
/// Sent solicited (answering a query) or unsolicited (subscribing,
/// unsubscribing, refreshing under UDP mode, or proactively updating a
/// maintained count). `K(S,E)` is only supplied for authenticated channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Count {
    /// The channel the count pertains to.
    pub channel: Channel,
    /// The attribute counted.
    pub count_id: CountId,
    /// The count value. For `subscriberId`, the number of subscribers in the
    /// sender's subtree; zero unsubscribes.
    pub count: u64,
    /// The channel authenticator, present only on authenticated channels.
    pub key: Option<ChannelKey>,
}

impl Count {
    /// Size of an unauthenticated Count: the compact encoding whose batching
    /// arithmetic §5.3 analyzes.
    pub const WIRE_LEN_BASE: usize = PREFIX_LEN + 8;

    /// Encoded size of this message.
    pub const fn buffer_len(&self) -> usize {
        Self::WIRE_LEN_BASE + if self.key.is_some() { 8 } else { 0 }
    }

    fn emit_body(&self, buf: &mut [u8]) -> Result<usize> {
        let mut flags = 0u8;
        if self.key.is_some() {
            flags |= FLAG_HAS_KEY;
        }
        emit_prefix(buf, TYPE_COUNT, flags, self.channel, self.count_id)?;
        field::put_u64(buf, PREFIX_LEN, self.count)?;
        let mut at = PREFIX_LEN + 8;
        if let Some(k) = self.key {
            field::put_u64(buf, at, k)?;
            at += 8;
        }
        Ok(at)
    }

    fn parse_body(buf: &[u8], flags: u8, channel: Channel, count_id: CountId) -> Result<(Self, usize)> {
        let count = field::get_u64(buf, PREFIX_LEN)?;
        let mut at = PREFIX_LEN + 8;
        let key = if flags & FLAG_HAS_KEY != 0 {
            let k = field::get_u64(buf, at)?;
            at += 8;
            Some(k)
        } else {
            None
        };
        Ok((
            Count {
                channel,
                count_id,
                count,
                key,
            },
            at,
        ))
    }
}

/// `CountResponse(channel, countId, status)` — §3.1.
///
/// Acknowledges or rejects a `Count`; in particular it carries the
/// validation / denial of an authenticated subscription back downstream.
/// When a response validates or denies a specific authenticator, `key`
/// echoes that authenticator so routers with several validations in flight
/// can correlate the verdict (an implementation field; the paper's §5.2
/// explicitly budgets space for such fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountResponse {
    /// The channel the response pertains to.
    pub channel: Channel,
    /// The countId of the Count being acknowledged or rejected.
    pub count_id: CountId,
    /// The outcome.
    pub status: ResponseStatus,
    /// The authenticator this verdict applies to, echoed from the Count.
    pub key: Option<ChannelKey>,
}

impl CountResponse {
    /// Encoded size of this message.
    pub const fn buffer_len(&self) -> usize {
        PREFIX_LEN + 1 + if self.key.is_some() { 8 } else { 0 }
    }

    fn emit_body(&self, buf: &mut [u8]) -> Result<usize> {
        let flags = if self.key.is_some() { FLAG_HAS_KEY } else { 0 };
        emit_prefix(buf, TYPE_COUNT_RESPONSE, flags, self.channel, self.count_id)?;
        field::put_u8(buf, PREFIX_LEN, self.status.to_u8())?;
        let mut at = PREFIX_LEN + 1;
        if let Some(k) = self.key {
            field::put_u64(buf, at, k)?;
            at += 8;
        }
        Ok(at)
    }

    fn parse_body(buf: &[u8], flags: u8, channel: Channel, count_id: CountId) -> Result<(Self, usize)> {
        let status = ResponseStatus::from_u8(field::get_u8(buf, PREFIX_LEN)?)?;
        let mut at = PREFIX_LEN + 1;
        let key = if flags & FLAG_HAS_KEY != 0 {
            let k = field::get_u64(buf, at)?;
            at += 8;
            Some(k)
        } else {
            None
        };
        Ok((
            CountResponse {
                channel,
                count_id,
                status,
                key,
            },
            at,
        ))
    }
}

/// Any ECMP message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcmpMessage {
    /// A count query.
    CountQuery(CountQuery),
    /// A count (solicited or unsolicited).
    Count(Count),
    /// An acknowledgement / rejection of a count.
    CountResponse(CountResponse),
}

impl EcmpMessage {
    /// The channel every ECMP message carries.
    pub fn channel(&self) -> Channel {
        match self {
            EcmpMessage::CountQuery(m) => m.channel,
            EcmpMessage::Count(m) => m.channel,
            EcmpMessage::CountResponse(m) => m.channel,
        }
    }

    /// The countId every ECMP message carries.
    pub fn count_id(&self) -> CountId {
        match self {
            EcmpMessage::CountQuery(m) => m.count_id,
            EcmpMessage::Count(m) => m.count_id,
            EcmpMessage::CountResponse(m) => m.count_id,
        }
    }

    /// Encoded size of this message.
    pub fn buffer_len(&self) -> usize {
        match self {
            EcmpMessage::CountQuery(m) => m.buffer_len(),
            EcmpMessage::Count(m) => m.buffer_len(),
            EcmpMessage::CountResponse(m) => m.buffer_len(),
        }
    }

    /// Emit into the front of `buf`; returns the number of octets written.
    pub fn emit(&self, buf: &mut [u8]) -> Result<usize> {
        match self {
            EcmpMessage::CountQuery(m) => m.emit_body(buf),
            EcmpMessage::Count(m) => m.emit_body(buf),
            EcmpMessage::CountResponse(m) => m.emit_body(buf),
        }
    }

    /// Emit into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.buffer_len()];
        let n = self.emit(&mut v).expect("buffer sized by buffer_len");
        debug_assert_eq!(n, v.len());
        v
    }

    /// Parse one message from the front of `buf`; returns the message and
    /// the number of octets it consumed.
    pub fn parse(buf: &[u8]) -> Result<(EcmpMessage, usize)> {
        let vt = field::get_u8(buf, 0)?;
        if vt >> 4 != VERSION {
            return Err(WireError::BadVersion);
        }
        let flags = field::get_u8(buf, 1)?;
        let channel = Channel::parse(buf, 2)?;
        let count_id = CountId(field::get_u32(buf, 10)?);
        match vt & 0x0F {
            TYPE_COUNT_QUERY => {
                let (m, n) = CountQuery::parse_body(buf, flags, channel, count_id)?;
                Ok((EcmpMessage::CountQuery(m), n))
            }
            TYPE_COUNT => {
                let (m, n) = Count::parse_body(buf, flags, channel, count_id)?;
                Ok((EcmpMessage::Count(m), n))
            }
            TYPE_COUNT_RESPONSE => {
                let (m, n) = CountResponse::parse_body(buf, flags, channel, count_id)?;
                Ok((EcmpMessage::CountResponse(m), n))
            }
            t => Err(WireError::UnknownType(t)),
        }
    }
}

impl From<CountQuery> for EcmpMessage {
    fn from(m: CountQuery) -> Self {
        EcmpMessage::CountQuery(m)
    }
}
impl From<Count> for EcmpMessage {
    fn from(m: Count) -> Self {
        EcmpMessage::Count(m)
    }
}
impl From<CountResponse> for EcmpMessage {
    fn from(m: CountResponse) -> Self {
        EcmpMessage::CountResponse(m)
    }
}

fn emit_prefix(buf: &mut [u8], ty: u8, flags: u8, channel: Channel, count_id: CountId) -> Result<()> {
    field::put_u8(buf, 0, (VERSION << 4) | ty)?;
    field::put_u8(buf, 1, flags)?;
    channel.emit(buf, 2)?;
    field::put_u32(buf, 10, count_id.0)
}

/// Concatenate as many messages as fit within `mtu` octets into one buffer
/// (TCP-mode batching, §5.3); returns the encoded batch and how many
/// messages were consumed.
pub fn emit_batch(msgs: &[EcmpMessage], mtu: usize) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let mut taken = 0;
    for m in msgs {
        let len = m.buffer_len();
        if out.len() + len > mtu {
            break;
        }
        let start = out.len();
        out.resize(start + len, 0);
        m.emit(&mut out[start..]).expect("sized by buffer_len");
        taken += 1;
    }
    (out, taken)
}

/// A concatenated batch of messages, checked once and then iterated in
/// place: [`Batch::parse`] rejects the buffer as a whole if any message in
/// it is malformed, so a receiver never acts on the front of a batch whose
/// tail is garbage, and the iterator it returns cannot fail. Nothing is
/// allocated; the first message — the whole batch, for the one-message
/// datagrams that make up most control traffic — is parsed exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch<'a> {
    first: Option<EcmpMessage>,
    /// The octets after the first message: whole, well-formed messages.
    rest: &'a [u8],
}

impl<'a> Batch<'a> {
    /// Check that `buf` is a concatenation of well-formed messages.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        if buf.is_empty() {
            return Ok(Batch { first: None, rest: buf });
        }
        let (first, n) = EcmpMessage::parse(buf)?;
        let rest = &buf[n..];
        let mut tail = rest;
        while !tail.is_empty() {
            let (_, n) = EcmpMessage::parse(tail)?;
            tail = &tail[n..];
        }
        Ok(Batch { first: Some(first), rest })
    }
}

impl Iterator for Batch<'_> {
    type Item = EcmpMessage;

    fn next(&mut self) -> Option<EcmpMessage> {
        if let Some(first) = self.first.take() {
            return Some(first);
        }
        if self.rest.is_empty() {
            return None;
        }
        let (m, n) = EcmpMessage::parse(self.rest).expect("checked by Batch::parse");
        self.rest = &self.rest[n..];
        Some(m)
    }
}

/// Parse a concatenated batch of messages until the buffer is exhausted.
pub fn parse_batch(buf: &[u8]) -> Result<Vec<EcmpMessage>> {
    Ok(Batch::parse(buf)?.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    fn chan() -> Channel {
        Channel::new(Ipv4Addr::new(10, 0, 0, 1), 42).unwrap()
    }

    #[test]
    fn count_id_ranges() {
        assert!(!CountId::SUBSCRIBERS.is_network_layer());
        assert!(CountId::LINKS.is_network_layer());
        assert!(CountId(CountId::LOCAL_BASE).is_locally_defined());
        assert!(CountId(CountId::APPLICATION_BASE).is_application_defined());
        assert!(CountId(CountId::APPLICATION_BASE + 99).is_application_defined());
        assert!(!CountId(CountId::APPLICATION_BASE - 1).is_application_defined());
    }

    #[test]
    fn query_roundtrip_plain() {
        let q = CountQuery {
            channel: chan(),
            count_id: CountId::SUBSCRIBERS,
            timeout_ms: 30_000,
            proactive: None,
        };
        let m = EcmpMessage::from(q);
        let bytes = m.to_vec();
        let (parsed, n) = EcmpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(n, bytes.len());
    }

    #[test]
    fn query_roundtrip_proactive() {
        let q = CountQuery {
            channel: chan(),
            count_id: CountId::SUBSCRIBERS,
            timeout_ms: 0,
            proactive: Some(ProactiveParams {
                alpha_milli: 2500,
                tau_ms: 120_000,
            }),
        };
        let m = EcmpMessage::from(q);
        let (parsed, _) = EcmpMessage::parse(&m.to_vec()).unwrap();
        assert_eq!(parsed, m);
        if let EcmpMessage::CountQuery(p) = parsed {
            let pp = p.proactive.unwrap();
            assert!((pp.alpha() - 2.5).abs() < 1e-9);
            assert!((pp.tau_secs() - 120.0).abs() < 1e-9);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn count_roundtrip_with_key() {
        let c = Count {
            channel: chan(),
            count_id: CountId::SUBSCRIBERS,
            count: 1,
            key: Some(0xDEAD_BEEF_F00D_CAFE),
        };
        let m = EcmpMessage::from(c);
        let (parsed, _) = EcmpMessage::parse(&m.to_vec()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn response_roundtrip_all_statuses() {
        for status in [
            ResponseStatus::Ok,
            ResponseStatus::UnsupportedCount,
            ResponseStatus::InvalidAuthenticator,
            ResponseStatus::NoSuchChannel,
            ResponseStatus::AdminProhibited,
        ] {
            let r = CountResponse {
                channel: chan(),
                count_id: CountId(7),
                status,
                key: if status == ResponseStatus::InvalidAuthenticator { Some(9) } else { None },
            };
            let m = EcmpMessage::from(r);
            let (parsed, _) = EcmpMessage::parse(&m.to_vec()).unwrap();
            assert_eq!(parsed, m);
        }
    }

    #[test]
    fn parse_rejects_bad_version() {
        let m = EcmpMessage::from(CountResponse {
            channel: chan(),
            count_id: CountId(1),
            status: ResponseStatus::Ok,
            key: None,
        });
        let mut bytes = m.to_vec();
        bytes[0] = 0x21; // version 2
        assert_eq!(EcmpMessage::parse(&bytes), Err(WireError::BadVersion));
    }

    #[test]
    fn parse_rejects_unknown_type() {
        let m = EcmpMessage::from(CountResponse {
            channel: chan(),
            count_id: CountId(1),
            status: ResponseStatus::Ok,
            key: None,
        });
        let mut bytes = m.to_vec();
        bytes[0] = (VERSION << 4) | 0x0F;
        assert_eq!(EcmpMessage::parse(&bytes), Err(WireError::UnknownType(15)));
    }

    #[test]
    fn parse_rejects_truncation_at_every_length() {
        let m = EcmpMessage::from(Count {
            channel: chan(),
            count_id: CountId::SUBSCRIBERS,
            count: 5,
            key: Some(9),
        });
        let bytes = m.to_vec();
        for cut in 0..bytes.len() {
            assert!(EcmpMessage::parse(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn batching_packs_many_counts_per_segment() {
        // §5.3: "approximately 92 16-byte Count messages fit in a 1480-byte
        // maximum-sized TCP segment". Our compact Count is 22 bytes, so the
        // analogous figure is 1480/22 = 67; the *mechanism* is identical.
        let msgs: Vec<EcmpMessage> = (0..200)
            .map(|i| {
                EcmpMessage::from(Count {
                    channel: Channel::new(Ipv4Addr::new(10, 0, 0, 1), i).unwrap(),
                    count_id: CountId::SUBSCRIBERS,
                    count: 1,
                    key: None,
                })
            })
            .collect();
        let (bytes, taken) = emit_batch(&msgs, 1480);
        assert_eq!(taken, 1480 / Count::WIRE_LEN_BASE);
        let parsed = parse_batch(&bytes).unwrap();
        assert_eq!(parsed.len(), taken);
        assert_eq!(&parsed[..], &msgs[..taken]);
    }

    #[test]
    fn batch_respects_mtu_exactly() {
        let one = EcmpMessage::from(Count {
            channel: chan(),
            count_id: CountId::SUBSCRIBERS,
            count: 1,
            key: None,
        });
        let (bytes, taken) = emit_batch(&[one, one, one], 2 * Count::WIRE_LEN_BASE);
        assert_eq!(taken, 2);
        assert_eq!(bytes.len(), 2 * Count::WIRE_LEN_BASE);
    }

    #[test]
    fn batch_iterates_what_parse_batch_collects_and_rejects_a_bad_tail_whole() {
        let msgs: Vec<EcmpMessage> = (0..5u64)
            .map(|i| {
                EcmpMessage::from(Count {
                    channel: chan(),
                    count_id: CountId::SUBSCRIBERS,
                    count: i,
                    key: (i % 2 == 0).then_some(i),
                })
            })
            .collect();
        for n in 0..=msgs.len() {
            let (bytes, taken) = emit_batch(&msgs[..n], 1480);
            assert_eq!(taken, n);
            assert_eq!(Batch::parse(&bytes).unwrap().collect::<Vec<_>>(), &msgs[..n]);
            assert_eq!(parse_batch(&bytes).unwrap(), &msgs[..n]);
            // A garbage tail fails the batch before any message is handed out.
            let mut bad = bytes;
            bad.push(0xFF);
            assert!(Batch::parse(&bad).is_err(), "{n} good messages then garbage");
        }
    }

    #[test]
    fn parse_batch_propagates_error() {
        let one = EcmpMessage::from(Count {
            channel: chan(),
            count_id: CountId::SUBSCRIBERS,
            count: 1,
            key: None,
        });
        let mut bytes = one.to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFF]); // garbage tail
        assert!(parse_batch(&bytes).is_err());
    }
}
