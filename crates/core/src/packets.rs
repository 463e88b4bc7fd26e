//! Building and classifying the IPv4 datagrams EXPRESS traffic rides in.
//!
//! Four kinds of datagram cross an EXPRESS network:
//!
//! 1. **Channel data** — `src = S`, `dst = E` (the 232/8 group address).
//! 2. **Unicast ECMP** — a batch of ECMP messages to a specific neighbor;
//!    carried over TCP (reliable core mode) or UDP (edge mode), which the
//!    IPv4 protocol field distinguishes (§3.2).
//! 3. **Multicast ECMP** — periodic queries/reports on a LAN, "sent to a
//!    well-known ECMP address" (§3.2).
//! 4. **IP-in-IP encapsulation** — subcast (§2.1), or relaying (§4.1).
//!
//! A simplification relative to a production stack: the UDP/TCP *headers*
//! are elided — the ECMP batch directly follows the IPv4 header, and the
//! protocol number alone conveys which neighbor mode the batch used. Ports
//! would add 8 bytes and no behaviour.

use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{Batch, EcmpMessage};
use express_wire::ipv4::{self, Ipv4Repr, Protocol};
use express_wire::{Result, WireError};
use netsim::engine::Payload;

/// Default TTL for generated datagrams.
pub const DEFAULT_TTL: u8 = 64;

/// The Ethernet-era payload budget the paper's §5.3 batching arithmetic
/// assumes (1480 bytes of TCP payload in a 1500-byte MTU).
pub const ECMP_BATCH_BUDGET: usize = 1480;

/// Which neighbor transport an ECMP batch used (§3.2: "A router can select
/// either TCP or UDP mode for ECMP on each interface").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcmpMode {
    /// Reliable, connection-oriented: core routers with few neighbors and
    /// many channels.
    Tcp,
    /// Datagram with periodic refresh: edge routers with many neighboring
    /// end hosts but fewer channels.
    Udp,
}

/// A classified incoming datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classified<'a> {
    /// Channel data for `(S, E)`; `payload_len` octets of application data.
    ChannelData {
        /// The channel, reconstructed from the IP source and group.
        channel: Channel,
        /// The parsed outer header (TTL etc.).
        header: Ipv4Repr,
    },
    /// A batch of ECMP messages from `from`.
    Ecmp {
        /// The neighbor that sent the batch.
        from: Ipv4Addr,
        /// Unicast destination or the well-known LAN multicast.
        multicast: bool,
        /// Which transport mode carried it.
        mode: EcmpMode,
        /// The messages, checked as a whole and parsed as they are read.
        messages: Batch<'a>,
    },
    /// An IP-in-IP encapsulated datagram addressed to this node (subcast or
    /// relay input); `inner` is the complete inner datagram.
    Encapsulated {
        /// The outer header.
        outer: Ipv4Repr,
        /// The inner datagram bytes.
        inner: Vec<u8>,
    },
    /// Unicast IPv4 addressed to someone else or an unhandled protocol —
    /// the caller routes or ignores it.
    Other {
        /// The parsed header.
        header: Ipv4Repr,
    },
}

/// Build a channel data datagram: `payload_len` octets of zeroed payload
/// (contents are irrelevant to the delivery experiments; size matters).
pub fn channel_data(channel: Channel, payload_len: usize, ttl: u8) -> Vec<u8> {
    let repr = Ipv4Repr {
        src: channel.source,
        dst: channel.group(),
        protocol: Protocol::Udp,
        ttl,
        payload_len,
    };
    let mut buf = vec![0u8; repr.buffer_len()];
    repr.emit(&mut buf).expect("sized by buffer_len");
    buf
}

/// One ECMP datagram, written once into the buffer that is sent: the IPv4
/// header, then each of `messages` (`payload_len` octets of them).
fn ecmp_frame(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: Protocol,
    ttl: u8,
    payload_len: usize,
    messages: impl Iterator<Item = EcmpMessage>,
) -> Payload {
    let repr = Ipv4Repr {
        src,
        dst,
        protocol,
        ttl,
        payload_len,
    };
    let mut frame: Payload = std::iter::repeat_n(0, repr.buffer_len()).collect();
    let buf = Payload::get_mut(&mut frame).expect("not yet shared");
    repr.emit(buf).expect("sized by buffer_len");
    let mut at = ipv4::HEADER_LEN;
    for m in messages {
        at += m.emit(&mut buf[at..]).expect("sized by buffer_len");
    }
    debug_assert_eq!(at, buf.len());
    frame
}

fn protocol_of(mode: EcmpMode) -> Protocol {
    match mode {
        EcmpMode::Tcp => Protocol::Tcp,
        EcmpMode::Udp => Protocol::Udp,
    }
}

/// Encoded size of `messages`. Panics past [`ECMP_BATCH_BUDGET`].
fn one_segment_len(messages: &[EcmpMessage]) -> usize {
    let len = messages.iter().map(EcmpMessage::buffer_len).sum();
    assert!(len <= ECMP_BATCH_BUDGET, "ECMP batch exceeds one segment; split first");
    len
}

/// Build a unicast ECMP datagram carrying `messages` from `src` to `dst`
/// in the given mode. Panics if the batch exceeds [`ECMP_BATCH_BUDGET`] —
/// callers with more to say send it through [`ecmp_segment`].
pub fn ecmp_unicast(src: Ipv4Addr, dst: Ipv4Addr, mode: EcmpMode, messages: &[EcmpMessage]) -> Payload {
    let len = one_segment_len(messages);
    ecmp_frame(src, dst, protocol_of(mode), DEFAULT_TTL, len, messages.iter().copied())
}

/// The next segment of a unicast ECMP stream from `src` to `dst`: as many
/// whole messages from the front of `messages` as fit
/// [`ECMP_BATCH_BUDGET`] (the §5.3 batching), in one datagram. Advances
/// `messages` past them; `None` once it is exhausted.
pub fn ecmp_segment<I>(src: Ipv4Addr, dst: Ipv4Addr, mode: EcmpMode, messages: &mut I) -> Option<Payload>
where
    I: Iterator<Item = EcmpMessage> + Clone,
{
    let (mut len, mut taken) = (0, 0);
    for m in messages.clone() {
        if len + m.buffer_len() > ECMP_BATCH_BUDGET {
            break;
        }
        len += m.buffer_len();
        taken += 1;
    }
    // No message is longer than the budget, so zero taken means none left.
    (taken > 0).then(|| ecmp_frame(src, dst, protocol_of(mode), DEFAULT_TTL, len, messages.by_ref().take(taken)))
}

/// Build a LAN-multicast ECMP datagram (periodic queries, UDP-mode reports;
/// §3.2/§3.3). Always UDP mode. Panics past [`ECMP_BATCH_BUDGET`].
pub fn ecmp_multicast(src: Ipv4Addr, messages: &[EcmpMessage]) -> Payload {
    let len = one_segment_len(messages);
    // TTL 1: link-local only.
    ecmp_frame(src, Ipv4Addr::ECMP_WELL_KNOWN, Protocol::Udp, 1, len, messages.iter().copied())
}

/// Classify a received datagram from the perspective of the node with
/// address `me`.
pub fn classify(bytes: &[u8], me: Ipv4Addr) -> Result<Classified<'_>> {
    let header = Ipv4Repr::parse(bytes)?;
    let payload = bytes
        .get(ipv4::HEADER_LEN..ipv4::HEADER_LEN + header.payload_len)
        .ok_or(WireError::Truncated)?;

    if header.dst.is_single_source_multicast() {
        let channel = Channel::from_source_group(header.src, header.dst)?;
        return Ok(Classified::ChannelData { channel, header });
    }
    if header.dst == Ipv4Addr::ECMP_WELL_KNOWN {
        let messages = Batch::parse(payload)?;
        return Ok(Classified::Ecmp {
            from: header.src,
            multicast: true,
            mode: EcmpMode::Udp,
            messages,
        });
    }
    if header.dst == me {
        match header.protocol {
            Protocol::Tcp | Protocol::Udp => {
                let messages = Batch::parse(payload)?;
                return Ok(Classified::Ecmp {
                    from: header.src,
                    multicast: false,
                    mode: if header.protocol == Protocol::Tcp {
                        EcmpMode::Tcp
                    } else {
                        EcmpMode::Udp
                    },
                    messages,
                });
            }
            Protocol::IpIp => {
                let (outer, inner) = express_wire::encap::decapsulate(bytes)?;
                return Ok(Classified::Encapsulated {
                    outer,
                    inner: inner.to_vec(),
                });
            }
            _ => {}
        }
    }
    Ok(Classified::Other { header })
}

#[cfg(test)]
mod tests {
    use super::*;
    use express_wire::ecmp::{Count, CountId};

    fn me() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 9)
    }

    fn chan() -> Channel {
        Channel::new(Ipv4Addr::new(10, 0, 0, 1), 5).unwrap()
    }

    fn count_msg() -> EcmpMessage {
        EcmpMessage::from(Count {
            channel: chan(),
            count_id: CountId::SUBSCRIBERS,
            count: 1,
            key: None,
        })
    }

    #[test]
    fn classify_channel_data() {
        let pkt = channel_data(chan(), 100, 64);
        match classify(&pkt, me()).unwrap() {
            Classified::ChannelData { channel, header } => {
                assert_eq!(channel, chan());
                assert_eq!(header.payload_len, 100);
                assert_eq!(header.ttl, 64);
            }
            other => panic!("misclassified: {other:?}"),
        }
    }

    #[test]
    fn classify_unicast_ecmp_modes() {
        for (mode, _proto) in [(EcmpMode::Tcp, Protocol::Tcp), (EcmpMode::Udp, Protocol::Udp)] {
            let pkt = ecmp_unicast(Ipv4Addr::new(10, 0, 0, 2), me(), mode, &[count_msg()]);
            match classify(&pkt, me()).unwrap() {
                Classified::Ecmp {
                    from,
                    multicast,
                    mode: m,
                    messages,
                } => {
                    assert_eq!(from, Ipv4Addr::new(10, 0, 0, 2));
                    assert!(!multicast);
                    assert_eq!(m, mode);
                    assert_eq!(messages.count(), 1);
                }
                other => panic!("misclassified: {other:?}"),
            }
        }
    }

    #[test]
    fn classify_lan_multicast_ecmp() {
        let pkt = ecmp_multicast(Ipv4Addr::new(10, 0, 0, 3), &[count_msg(), count_msg()]);
        match classify(&pkt, me()).unwrap() {
            Classified::Ecmp {
                multicast, messages, ..
            } => {
                assert!(multicast);
                assert_eq!(messages.count(), 2);
            }
            other => panic!("misclassified: {other:?}"),
        }
    }

    #[test]
    fn segments_split_a_stream_at_the_batch_budget() {
        let per_segment = ECMP_BATCH_BUDGET / Count::WIRE_LEN_BASE;
        let stream = vec![count_msg(); per_segment + 33];
        let mut rest = stream.iter().copied();
        let mut sizes = Vec::new();
        while let Some(pkt) = ecmp_segment(Ipv4Addr::new(10, 0, 0, 2), me(), EcmpMode::Tcp, &mut rest) {
            match classify(&pkt, me()).unwrap() {
                Classified::Ecmp { messages, mode, .. } => {
                    assert_eq!(mode, EcmpMode::Tcp);
                    sizes.push(messages.inspect(|m| assert_eq!(*m, count_msg())).count());
                }
                other => panic!("misclassified: {other:?}"),
            }
            assert!(pkt.len() <= ipv4::HEADER_LEN + ECMP_BATCH_BUDGET);
        }
        assert_eq!(sizes, [per_segment, 33]);
        // One message is the same datagram either way.
        let one = ecmp_segment(me(), me(), EcmpMode::Udp, &mut [count_msg()].into_iter());
        assert_eq!(one, Some(ecmp_unicast(me(), me(), EcmpMode::Udp, &[count_msg()])));
    }

    #[test]
    fn classify_encapsulated_subcast() {
        let inner = channel_data(chan(), 10, 32);
        let wrapped = express_wire::encap::encapsulate(chan().source, me(), 64, &inner).unwrap();
        match classify(&wrapped, me()).unwrap() {
            Classified::Encapsulated { outer, inner: got } => {
                assert_eq!(outer.src, chan().source);
                assert_eq!(got, inner);
            }
            other => panic!("misclassified: {other:?}"),
        }
    }

    #[test]
    fn unicast_to_other_node_is_other() {
        let pkt = ecmp_unicast(me(), Ipv4Addr::new(10, 0, 0, 200), EcmpMode::Tcp, &[count_msg()]);
        match classify(&pkt, me()).unwrap() {
            Classified::Other { header } => assert_eq!(header.dst, Ipv4Addr::new(10, 0, 0, 200)),
            other => panic!("misclassified: {other:?}"),
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(classify(&[0u8; 6], me()).is_err());
        let mut pkt = channel_data(chan(), 10, 64);
        pkt[10] ^= 0xFF; // break checksum
        assert!(classify(&pkt, me()).is_err());
    }
}
