//! The application-layer relay protocol: what participants unicast to the
//! SR and what the SR stamps onto relayed channel packets.
//!
//! Carried as the payload of plain unicast UDP datagrams to the SR host
//! ("an application-layer relay protocol", §4.1). Relayed packets on the
//! channel carry a [`RelayedHeader`] with the original speaker and a
//! sequence number — "the SR can add sequence numbers to relayed packets,
//! as required in reliable multicast protocols" (§4.2).

use express_wire::addr::Ipv4Addr;
use express_wire::{field, Result, WireError};

const TYPE_FLOOR_REQUEST: u8 = 1;
const TYPE_FLOOR_RELEASE: u8 = 2;
const TYPE_FLOOR_GRANT: u8 = 3;
const TYPE_FLOOR_DENY: u8 = 4;
const TYPE_SPEECH: u8 = 5;
const TYPE_RECEPTION_REPORT: u8 = 6;
const TYPE_ANNOUNCE_DIRECT: u8 = 7;

/// A relay-protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayMsg {
    /// A participant asks for the floor.
    FloorRequest,
    /// The current speaker yields.
    FloorRelease,
    /// SR → participant: you have the floor.
    FloorGrant,
    /// SR → participant: request refused (quota exhausted / not authorized).
    FloorDeny,
    /// Speech data to relay onto the channel (`len` octets; contents are
    /// not modelled).
    Speech {
        /// Payload size the speaker wants relayed.
        len: u16,
    },
    /// An RTCP-like reception report the SR summarizes (§4.5): packets
    /// received and lost as seen by this participant.
    ReceptionReport {
        /// Highest sequence number seen.
        highest_seq: u32,
        /// Packets missing below that.
        lost: u32,
    },
    /// §4.1's alternative to pure relaying: "a secondary sender \[creates\]
    /// a new channel for which it is the source and use\[s\] the SR to ask
    /// all other session participants to subscribe to the new channel."
    /// Sent by the SR *on the session channel* (after the relayed header).
    AnnounceDirectChannel {
        /// The secondary source.
        source: Ipv4Addr,
        /// The 24-bit channel number under that source.
        channel: u32,
    },
}

impl RelayMsg {
    /// Encoded size.
    pub fn buffer_len(&self) -> usize {
        match self {
            RelayMsg::Speech { .. } => 3,
            RelayMsg::ReceptionReport { .. } => 9,
            RelayMsg::AnnounceDirectChannel { .. } => 9,
            _ => 1,
        }
    }

    /// Emit into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.buffer_len()];
        match *self {
            RelayMsg::FloorRequest => v[0] = TYPE_FLOOR_REQUEST,
            RelayMsg::FloorRelease => v[0] = TYPE_FLOOR_RELEASE,
            RelayMsg::FloorGrant => v[0] = TYPE_FLOOR_GRANT,
            RelayMsg::FloorDeny => v[0] = TYPE_FLOOR_DENY,
            RelayMsg::Speech { len } => {
                v[0] = TYPE_SPEECH;
                v[1..3].copy_from_slice(&len.to_be_bytes());
            }
            RelayMsg::ReceptionReport { highest_seq, lost } => {
                v[0] = TYPE_RECEPTION_REPORT;
                v[1..5].copy_from_slice(&highest_seq.to_be_bytes());
                v[5..9].copy_from_slice(&lost.to_be_bytes());
            }
            RelayMsg::AnnounceDirectChannel { source, channel } => {
                v[0] = TYPE_ANNOUNCE_DIRECT;
                v[1..5].copy_from_slice(&source.to_u32().to_be_bytes());
                v[5..9].copy_from_slice(&channel.to_be_bytes());
            }
        }
        v
    }

    /// Parse from `buf`.
    pub fn parse(buf: &[u8]) -> Result<RelayMsg> {
        match field::get_u8(buf, 0)? {
            TYPE_FLOOR_REQUEST => Ok(RelayMsg::FloorRequest),
            TYPE_FLOOR_RELEASE => Ok(RelayMsg::FloorRelease),
            TYPE_FLOOR_GRANT => Ok(RelayMsg::FloorGrant),
            TYPE_FLOOR_DENY => Ok(RelayMsg::FloorDeny),
            TYPE_SPEECH => Ok(RelayMsg::Speech {
                len: field::get_u16(buf, 1)?,
            }),
            TYPE_RECEPTION_REPORT => Ok(RelayMsg::ReceptionReport {
                highest_seq: field::get_u32(buf, 1)?,
                lost: field::get_u32(buf, 5)?,
            }),
            TYPE_ANNOUNCE_DIRECT => Ok(RelayMsg::AnnounceDirectChannel {
                source: Ipv4Addr::from_u32(field::get_u32(buf, 1)?),
                channel: field::get_u32(buf, 5)?,
            }),
            t => Err(WireError::UnknownType(t)),
        }
    }
}

/// The header the SR prepends to every relayed packet on the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayedHeader {
    /// Monotone per-channel sequence number (reliable-multicast support).
    pub seq: u32,
    /// The original speaker (the SR itself for primary-source packets).
    pub orig_src: Ipv4Addr,
}

impl RelayedHeader {
    /// Encoded size.
    pub const WIRE_LEN: usize = 8;

    /// Emit into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = vec![0u8; Self::WIRE_LEN];
        v[0..4].copy_from_slice(&self.seq.to_be_bytes());
        v[4..8].copy_from_slice(&self.orig_src.to_u32().to_be_bytes());
        v
    }

    /// Parse from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<RelayedHeader> {
        Ok(RelayedHeader {
            seq: field::get_u32(buf, 0)?,
            orig_src: Ipv4Addr::from_u32(field::get_u32(buf, 4)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_msgs_roundtrip() {
        for m in [
            RelayMsg::FloorRequest,
            RelayMsg::FloorRelease,
            RelayMsg::FloorGrant,
            RelayMsg::FloorDeny,
            RelayMsg::Speech { len: 512 },
            RelayMsg::ReceptionReport {
                highest_seq: 9000,
                lost: 17,
            },
            RelayMsg::AnnounceDirectChannel {
                source: Ipv4Addr::new(10, 0, 0, 7),
                channel: 0x00AB_CDEF,
            },
        ] {
            assert_eq!(RelayMsg::parse(&m.to_vec()).unwrap(), m);
        }
    }

    #[test]
    fn rejects_unknown_and_truncated() {
        assert_eq!(RelayMsg::parse(&[99]), Err(WireError::UnknownType(99)));
        assert!(RelayMsg::parse(&[TYPE_SPEECH, 0]).is_err());
        assert!(RelayMsg::parse(&[]).is_err());
    }

    /// A parse that re-emits what it accepts and checks the re-emitted
    /// bytes parse back equal: `true` if it accepted.
    type Parser = fn(&[u8]) -> bool;

    /// Every message kind `to_vec` writes, with the parser that reads it.
    fn hostile_cases() -> Vec<(Vec<u8>, Parser)> {
        fn msg(b: &[u8]) -> bool {
            let Ok(m) = RelayMsg::parse(b) else { return false };
            assert_eq!(RelayMsg::parse(&m.to_vec()), Ok(m));
            true
        }
        fn header(b: &[u8]) -> bool {
            let Ok(h) = RelayedHeader::parse(b) else { return false };
            assert_eq!(RelayedHeader::parse(&h.to_vec()), Ok(h));
            true
        }
        let msgs = [
            RelayMsg::FloorRequest,
            RelayMsg::FloorRelease,
            RelayMsg::FloorGrant,
            RelayMsg::FloorDeny,
            RelayMsg::Speech { len: 512 },
            RelayMsg::ReceptionReport { highest_seq: 9000, lost: 17 },
            RelayMsg::AnnounceDirectChannel { source: Ipv4Addr::new(10, 0, 0, 7), channel: 0x00AB_CDEF },
        ];
        let mut cases: Vec<(Vec<u8>, Parser)> = msgs.iter().map(|m| (m.to_vec(), msg as Parser)).collect();
        cases.push((RelayedHeader { seq: 42, orig_src: Ipv4Addr::new(10, 1, 2, 3) }.to_vec(), header));
        cases
    }

    #[test]
    fn every_message_kind_is_rejected_at_every_truncation() {
        for (bytes, parse) in hostile_cases() {
            assert!(parse(&bytes), "{bytes:?}: its own encoding is rejected");
            for cut in 0..bytes.len() {
                assert!(!parse(&bytes[..cut]), "{bytes:?}: accepted its first {cut} octets");
            }
        }
    }

    #[test]
    fn flipped_bytes_never_panic_and_what_parses_re_emits() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for (bytes, parse) in hostile_cases() {
            for _ in 0..2_000 {
                let mut b = bytes.clone();
                for _ in 0..1 + next() % 3 {
                    let at = (next() % b.len() as u64) as usize;
                    b[at] ^= 1 + (next() % 255) as u8;
                }
                parse(&b);
            }
        }
    }

    #[test]
    fn relayed_header_roundtrip() {
        let h = RelayedHeader {
            seq: 42,
            orig_src: Ipv4Addr::new(10, 1, 2, 3),
        };
        assert_eq!(RelayedHeader::parse(&h.to_vec()).unwrap(), h);
    }
}
