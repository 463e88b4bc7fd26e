//! The session-relay (SR) host agent: the single EXPRESS source for an
//! almost-single-source session (§4.1).
//!
//! The SR sources the channel `(SR, E)`; every participant subscribes to
//! it. Speakers unicast [`crate::proto::RelayMsg::Speech`] to the SR
//! (application-layer relaying) or tunnel complete datagrams to it
//! (IP-in-IP, the "operating-system extension" mode of §4.3); the SR
//! enforces floor control and access control, stamps sequence numbers, and
//! re-sources the data onto the channel. It also emits periodic heartbeats
//! so participants can drive the §4.2 hot/cold standby failover, and
//! summarizes RTCP-like reception reports (§4.5).

use crate::floor::{FloorControl, FloorDecision};
use crate::proto::{RelayMsg, RelayedHeader};
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ipv4::{self, Ipv4Repr, Protocol};
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::IfaceId;
use netsim::stats::TrafficClass;
use netsim::time::SimDuration;
use std::collections::HashMap;

/// IPv4 protocol number used for the relay application protocol.
pub const RELAY_PROTO: Protocol = Protocol::Other(99);

/// Build a channel data datagram carrying an explicit payload.
pub fn channel_data_with_payload(channel: Channel, payload: &[u8], ttl: u8) -> Vec<u8> {
    let repr = Ipv4Repr {
        src: channel.source,
        dst: channel.group(),
        protocol: Protocol::Udp,
        ttl,
        payload_len: payload.len(),
    };
    let mut buf = vec![0u8; repr.buffer_len()];
    repr.emit(&mut buf).expect("sized");
    buf[ipv4::HEADER_LEN..].copy_from_slice(payload);
    buf
}

/// Summary of collected reception reports (the SR's RTCP summarization
/// role, §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceptionSummary {
    /// Participants reporting.
    pub reporters: usize,
    /// Total packets reported lost.
    pub total_lost: u64,
    /// Worst single-participant loss.
    pub max_lost: u32,
    /// Highest sequence number acknowledged by every reporter (0 if none).
    pub min_highest_seq: u32,
}

/// The SR agent.
pub struct SessionRelayHost {
    channel: Channel,
    floor: FloorControl,
    heartbeat: SimDuration,
    seq: u32,
    /// Speech packets relayed, per original speaker.
    pub relayed: HashMap<Ipv4Addr, u64>,
    /// Speech rejected by floor/access control.
    pub rejected: u64,
    reports: HashMap<Ipv4Addr, (u32, u32)>,
    /// Harness-scheduled direct-channel announcements (§4.1), by token.
    announcements: HashMap<u64, (Ipv4Addr, u32)>,
    next_announce: u64,
}

impl SessionRelayHost {
    /// An SR sourcing `channel` with the given floor policy, heartbeating
    /// every `heartbeat`.
    pub fn new(channel: Channel, floor: FloorControl, heartbeat: SimDuration) -> Self {
        SessionRelayHost {
            channel,
            floor,
            heartbeat,
            seq: 0,
            relayed: HashMap::new(),
            rejected: 0,
            reports: HashMap::new(),
            announcements: HashMap::new(),
            next_announce: 1,
        }
    }

    /// Schedule a §4.1 direct-channel announcement at absolute time `at`:
    /// the SR asks all participants, in-band, to subscribe to the channel
    /// `(source, chan)` a long-speaking secondary source has created —
    /// "primarily applicable when the new source is going to transmit for
    /// an extended period of time and when there is considerable delay
    /// benefit to using the direct channel over relaying."
    pub fn schedule_announce(
        sim: &mut netsim::Sim,
        node: netsim::NodeId,
        at: netsim::SimTime,
        source: Ipv4Addr,
        chan: u32,
    ) {
        let sr = sim.agent_as::<SessionRelayHost>(node).expect("not a SessionRelayHost");
        let token = sr.next_announce;
        sr.next_announce += 1;
        sr.announcements.insert(token, (source, chan));
        sim.schedule_timer_at(node, at, token);
    }

    /// The channel this SR sources.
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// Current sequence number (packets placed on the channel).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Summarize the reception reports received so far (§4.5: "the SR can
    /// perform application-specific summarization of reports").
    pub fn summarize(&self) -> ReceptionSummary {
        let mut s = ReceptionSummary {
            reporters: self.reports.len(),
            ..Default::default()
        };
        s.min_highest_seq = u32::MAX;
        for (hi, lost) in self.reports.values() {
            s.total_lost += u64::from(*lost);
            s.max_lost = s.max_lost.max(*lost);
            s.min_highest_seq = s.min_highest_seq.min(*hi);
        }
        if s.reporters == 0 {
            s.min_highest_seq = 0;
        }
        s
    }

    fn put_on_channel(&mut self, ctx: &mut Ctx<'_>, orig_src: Ipv4Addr, len: usize) {
        self.seq += 1;
        let hdr = RelayedHeader {
            seq: self.seq,
            orig_src,
        };
        let mut payload = hdr.to_vec();
        payload.resize(RelayedHeader::WIRE_LEN + len, 0);
        let pkt = channel_data_with_payload(self.channel, &payload, 64);
        ctx.send(IfaceId(0), &pkt, TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
        ctx.count("relay.channel_tx", 1);
    }

    fn send_relay_msg(&mut self, ctx: &mut Ctx<'_>, to: Ipv4Addr, msg: RelayMsg) {
        let payload = msg.to_vec();
        let repr = Ipv4Repr {
            src: ctx.my_ip(),
            dst: to,
            protocol: RELAY_PROTO,
            ttl: 64,
            payload_len: payload.len(),
        };
        let mut pkt = vec![0u8; repr.buffer_len()];
        repr.emit(&mut pkt).expect("sized");
        pkt[ipv4::HEADER_LEN..].copy_from_slice(&payload);
        if let Some(hop) = ctx.next_hop_ip(to) {
            let nxt = hop.next;
            ctx.send(hop.iface, &pkt, TrafficClass::Control, Reliability::Datagram, Tx::To(nxt));
        }
    }

    /// Handle one relay-protocol message from `from` (application-layer or
    /// decapsulated speech).
    fn handle_relay(&mut self, ctx: &mut Ctx<'_>, from: Ipv4Addr, msg: RelayMsg) {
        match msg {
            RelayMsg::FloorRequest => match self.floor.request(from) {
                FloorDecision::Granted => self.send_relay_msg(ctx, from, RelayMsg::FloorGrant),
                FloorDecision::Denied => self.send_relay_msg(ctx, from, RelayMsg::FloorDeny),
                FloorDecision::Queued => {}
            },
            RelayMsg::FloorRelease => {
                if let Some(next) = self.floor.release(from) {
                    self.send_relay_msg(ctx, next, RelayMsg::FloorGrant);
                }
            }
            RelayMsg::Speech { len } => {
                if self.floor.may_speak(from) {
                    *self.relayed.entry(from).or_insert(0) += 1;
                    self.put_on_channel(ctx, from, usize::from(len));
                } else {
                    self.rejected += 1;
                    ctx.count("relay.speech_rejected", 1);
                }
            }
            RelayMsg::ReceptionReport { highest_seq, lost } => {
                self.reports.insert(from, (highest_seq, lost));
            }
            RelayMsg::FloorGrant | RelayMsg::FloorDeny | RelayMsg::AnnounceDirectChannel { .. } => {}
        }
    }
}

impl Agent for SessionRelayHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.heartbeat, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((source, chan)) = self.announcements.remove(&token) {
            // Put the announcement on the channel after the relayed header.
            self.seq += 1;
            let hdr = RelayedHeader {
                seq: self.seq,
                orig_src: ctx.my_ip(),
            };
            let mut payload = hdr.to_vec();
            payload.extend_from_slice(&RelayMsg::AnnounceDirectChannel { source, channel: chan }.to_vec());
            let pkt = channel_data_with_payload(self.channel, &payload, 64);
            ctx.send(IfaceId(0), &pkt, TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
            ctx.count("relay.announce_tx", 1);
            return;
        }
        // Heartbeat: a minimal relayed packet from the SR itself.
        let me = ctx.my_ip();
        self.put_on_channel(ctx, me, 0);
        ctx.count("relay.heartbeat_tx", 1);
        ctx.set_timer(self.heartbeat, 0);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
        let me = ctx.my_ip();
        let Ok(header) = Ipv4Repr::parse(bytes) else { return };
        if header.dst != me {
            return;
        }
        let payload = &bytes[ipv4::HEADER_LEN..ipv4::HEADER_LEN + header.payload_len];
        match header.protocol {
            p if p == RELAY_PROTO => {
                if let Ok(msg) = RelayMsg::parse(payload) {
                    self.handle_relay(ctx, header.src, msg);
                }
            }
            Protocol::IpIp => {
                // §4.3 OS-level relaying: the encapsulated inner datagram's
                // payload is the speech; the inner source is the speaker.
                if let Ok((_outer, inner)) = express_wire::encap::decapsulate(bytes) {
                    if let Ok(ih) = Ipv4Repr::parse(inner) {
                        let speaker = ih.src;
                        let len = ih.payload_len;
                        self.handle_relay(ctx, speaker, RelayMsg::Speech { len: len as u16 });
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_aggregation() {
        let chan = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        let mut sr = SessionRelayHost::new(chan, FloorControl::open(), SimDuration::from_secs(1));
        sr.reports.insert(Ipv4Addr::new(10, 0, 0, 2), (100, 3));
        sr.reports.insert(Ipv4Addr::new(10, 0, 0, 3), (98, 5));
        let s = sr.summarize();
        assert_eq!(s.reporters, 2);
        assert_eq!(s.total_lost, 8);
        assert_eq!(s.max_lost, 5);
        assert_eq!(s.min_highest_seq, 98);
        let _ = netsim::time::SimTime::ZERO;
    }

    #[test]
    fn empty_summary() {
        let chan = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        let sr = SessionRelayHost::new(chan, FloorControl::open(), SimDuration::from_secs(1));
        assert_eq!(sr.summarize(), ReceptionSummary::default());
    }

    #[test]
    fn payload_builder_roundtrip() {
        let chan = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 5).unwrap();
        let pkt = channel_data_with_payload(chan, b"hello", 32);
        let h = Ipv4Repr::parse(&pkt).unwrap();
        assert_eq!(h.payload_len, 5);
        assert_eq!(&pkt[ipv4::HEADER_LEN..], b"hello");
    }
}
