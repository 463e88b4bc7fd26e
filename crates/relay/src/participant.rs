//! A session participant: EXPRESS subscriber + relay-protocol speaker with
//! application-controlled standby failover (§4.2).
//!
//! "An application can select to use additional backup SRs for
//! fault-tolerance, controlling their number, placement, and switch-over
//! policy. It can also choose between pre-subscribing participants to the
//! backup multicast channel for faster fail-over \['hot' standby\], or only
//! setting up the backup channel when the primary one fails \['cold'
//! standby\], saving on expected channel charging."

use crate::proto::{RelayMsg, RelayedHeader};
use crate::relay_host::RELAY_PROTO;
use express::host::send_subscription;
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ipv4::{self, Ipv4Repr};
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::stats::TrafficClass;
use netsim::time::{SimDuration, SimTime};
use netsim::Sim;
use std::collections::HashMap;

/// Standby policy for the backup SR channel (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandbyMode {
    /// Pre-subscribe to the backup channel: fast failover, ~2× channel
    /// state while both trees stand.
    Hot,
    /// Subscribe to the backup only after the primary fails: slower
    /// failover, no standing backup state.
    Cold,
}

/// Harness-scheduled participant actions.
#[derive(Debug, Clone)]
pub enum ParticipantAction {
    /// Subscribe to the session (primary channel; backup too when hot).
    JoinSession,
    /// Ask the SR for the floor.
    RequestFloor,
    /// Send speech (relayed by the SR if we hold the floor).
    Speak {
        /// Speech payload size.
        len: u16,
    },
    /// Yield the floor.
    ReleaseFloor,
    /// Send an RTCP-like reception report to the SR.
    SendReport,
}

/// Observable participant events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticipantEvent {
    /// A relayed packet arrived.
    Data {
        /// When.
        at: SimTime,
        /// On the primary (false ⇒ backup) channel.
        primary: bool,
        /// Relay sequence number.
        seq: u32,
        /// The original speaker.
        orig_src: Ipv4Addr,
    },
    /// The SR granted us the floor.
    FloorGranted {
        /// When.
        at: SimTime,
    },
    /// The SR denied our floor request.
    FloorDenied {
        /// When.
        at: SimTime,
    },
    /// We declared the primary dead and switched to the backup.
    FailedOver {
        /// When the switch was initiated.
        at: SimTime,
    },
    /// The SR announced a secondary source's direct channel (§4.1) and we
    /// subscribed to it.
    JoinedDirectChannel {
        /// When.
        at: SimTime,
        /// The direct channel.
        channel: Channel,
    },
}

/// The participant agent.
pub struct Participant {
    primary: Channel,
    backup: Option<Channel>,
    standby: StandbyMode,
    /// Declare the SR dead after this long without channel traffic.
    liveness_timeout: SimDuration,
    actions: HashMap<u64, ParticipantAction>,
    next_action: u64,
    active_primary: bool,
    joined: bool,
    has_floor: bool,
    last_heard: SimTime,
    highest_seq: u32,
    packets_seen: u32,
    /// Observable event log.
    pub events: Vec<ParticipantEvent>,
}

const ACTION_BASE: u64 = 1 << 32;
const TIMER_LIVENESS: u64 = 1;

impl Participant {
    /// A participant of the session on `primary`, with an optional backup
    /// channel under the given standby mode.
    pub fn new(primary: Channel, backup: Option<Channel>, standby: StandbyMode, liveness_timeout: SimDuration) -> Self {
        Participant {
            primary,
            backup,
            standby,
            liveness_timeout,
            actions: HashMap::new(),
            next_action: ACTION_BASE,
            active_primary: true,
            joined: false,
            has_floor: false,
            last_heard: SimTime::ZERO,
            highest_seq: 0,
            packets_seen: 0,
            events: Vec::new(),
        }
    }

    /// Schedule an action at absolute time `at`.
    pub fn schedule(sim: &mut Sim, node: NodeId, at: SimTime, action: ParticipantAction) {
        let p = sim.agent_as::<Participant>(node).expect("not a Participant");
        let token = p.next_action;
        p.next_action += 1;
        p.actions.insert(token, action);
        sim.schedule_timer_at(node, at, token);
    }

    /// Count of data packets received.
    pub fn data_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ParticipantEvent::Data { .. }))
            .count()
    }

    /// Time of the failover event, if one occurred.
    pub fn failover_at(&self) -> Option<SimTime> {
        self.events.iter().find_map(|e| match e {
            ParticipantEvent::FailedOver { at } => Some(*at),
            _ => None,
        })
    }

    /// First data receipt on the backup channel (failover completion).
    pub fn first_backup_data_at(&self) -> Option<SimTime> {
        self.events.iter().find_map(|e| match e {
            ParticipantEvent::Data { at, primary: false, .. } => Some(*at),
            _ => None,
        })
    }

    fn active_channel(&self) -> Channel {
        if self.active_primary {
            self.primary
        } else {
            self.backup.unwrap_or(self.primary)
        }
    }

    fn send_to_sr(&mut self, ctx: &mut Ctx<'_>, msg: RelayMsg) {
        let sr = self.active_channel().source;
        let payload = msg.to_vec();
        let repr = Ipv4Repr {
            src: ctx.my_ip(),
            dst: sr,
            protocol: RELAY_PROTO,
            ttl: 64,
            payload_len: payload.len(),
        };
        let mut pkt = vec![0u8; repr.buffer_len()];
        repr.emit(&mut pkt).expect("sized");
        pkt[ipv4::HEADER_LEN..].copy_from_slice(&payload);
        if let Some(hop) = ctx.next_hop_ip(sr) {
            let nxt = hop.next;
            ctx.send(hop.iface, &pkt, TrafficClass::Control, Reliability::Datagram, Tx::To(nxt));
        }
    }

    fn do_action(&mut self, ctx: &mut Ctx<'_>, action: ParticipantAction) {
        match action {
            ParticipantAction::JoinSession => {
                self.joined = true;
                self.last_heard = ctx.now();
                send_subscription(ctx, self.primary, None, true);
                if self.standby == StandbyMode::Hot {
                    if let Some(b) = self.backup {
                        send_subscription(ctx, b, None, true);
                    }
                }
                let delay = self.liveness_timeout;
                ctx.set_timer(delay, TIMER_LIVENESS);
            }
            ParticipantAction::RequestFloor => self.send_to_sr(ctx, RelayMsg::FloorRequest),
            ParticipantAction::Speak { len } => self.send_to_sr(ctx, RelayMsg::Speech { len }),
            ParticipantAction::ReleaseFloor => {
                self.has_floor = false;
                self.send_to_sr(ctx, RelayMsg::FloorRelease);
            }
            ParticipantAction::SendReport => {
                let lost = self.highest_seq.saturating_sub(self.packets_seen);
                let report = RelayMsg::ReceptionReport {
                    highest_seq: self.highest_seq,
                    lost,
                };
                self.send_to_sr(ctx, report);
            }
        }
    }

    fn check_liveness(&mut self, ctx: &mut Ctx<'_>) {
        if !self.joined {
            return;
        }
        let now = ctx.now();
        if self.active_primary && now.since(self.last_heard) > self.liveness_timeout && self.backup.is_some() {
            // §4.2 failover: switch to the backup SR/channel.
            self.active_primary = false;
            self.events.push(ParticipantEvent::FailedOver { at: now });
            ctx.count("relay.failover", 1);
            ctx.trace("relay.failover", |e| match self.backup {
                Some(b) => e.chan(b).detail(format!("{:?} standby", self.standby)),
                None => e,
            });
            if self.standby == StandbyMode::Cold {
                // Cold standby: the backup tree is built only now.
                if let Some(b) = self.backup {
                    send_subscription(ctx, b, None, true);
                }
            }
            send_subscription(ctx, self.primary, None, false);
        }
        let delay = self.liveness_timeout;
        ctx.set_timer(delay, TIMER_LIVENESS);
    }
}

impl Agent for Participant {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
        let Ok(header) = Ipv4Repr::parse(bytes) else { return };
        let payload = &bytes[ipv4::HEADER_LEN..ipv4::HEADER_LEN + header.payload_len];
        // Relayed channel data?
        if header.dst.is_single_source_multicast() {
            let Ok(chan) = Channel::from_source_group(header.src, header.dst) else {
                return;
            };
            let primary = chan == self.primary;
            let backup = Some(chan) == self.backup;
            if !primary && !backup {
                return;
            }
            if primary {
                self.last_heard = ctx.now();
            }
            if let Ok(h) = RelayedHeader::parse(payload) {
                self.highest_seq = self.highest_seq.max(h.seq);
                self.packets_seen += 1;
                let at = ctx.now();
                self.events.push(ParticipantEvent::Data {
                    at,
                    primary,
                    seq: h.seq,
                    orig_src: h.orig_src,
                });
                // In-band control after the header: a §4.1 direct-channel
                // announcement makes every participant subscribe to the
                // secondary source's own channel.
                if let Ok(RelayMsg::AnnounceDirectChannel { source, channel }) =
                    RelayMsg::parse(&payload[RelayedHeader::WIRE_LEN..])
                {
                    if source != ctx.my_ip() {
                        if let Ok(direct) = Channel::new(source, channel) {
                            send_subscription(ctx, direct, None, true);
                            self.events.push(ParticipantEvent::JoinedDirectChannel { at, channel: direct });
                        }
                    }
                }
            }
            return;
        }
        // Floor verdicts.
        if header.dst == ctx.my_ip() && header.protocol == RELAY_PROTO {
            let at = ctx.now();
            match RelayMsg::parse(payload) {
                Ok(RelayMsg::FloorGrant) => {
                    self.has_floor = true;
                    self.events.push(ParticipantEvent::FloorGranted { at });
                }
                Ok(RelayMsg::FloorDeny) => {
                    self.events.push(ParticipantEvent::FloorDenied { at });
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(a) = self.actions.remove(&token) {
            self.do_action(ctx, a);
        } else if token == TIMER_LIVENESS {
            self.check_liveness(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let chan = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        let mut p = Participant::new(chan, None, StandbyMode::Hot, SimDuration::from_secs(1));
        p.events.push(ParticipantEvent::Data {
            at: SimTime(5),
            primary: true,
            seq: 1,
            orig_src: Ipv4Addr::new(10, 0, 0, 1),
        });
        p.events.push(ParticipantEvent::FailedOver { at: SimTime(9) });
        p.events.push(ParticipantEvent::Data {
            at: SimTime(12),
            primary: false,
            seq: 2,
            orig_src: Ipv4Addr::new(10, 0, 0, 2),
        });
        assert_eq!(p.data_count(), 2);
        assert_eq!(p.failover_at(), Some(SimTime(9)));
        assert_eq!(p.first_backup_data_at(), Some(SimTime(12)));
    }

    #[test]
    fn active_channel_switches() {
        let prim = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        let back = Channel::new(Ipv4Addr::new(10, 0, 0, 2), 1).unwrap();
        let mut p = Participant::new(prim, Some(back), StandbyMode::Cold, SimDuration::from_secs(1));
        assert_eq!(p.active_channel(), prim);
        p.active_primary = false;
        assert_eq!(p.active_channel(), back);
    }
}
