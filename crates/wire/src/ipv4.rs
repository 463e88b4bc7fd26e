//! A minimal IPv4 header: enough for the simulator's routers to route,
//! TTL-check, classify, checksum, and encapsulate datagrams.
//!
//! Options are not supported (they are "silently ignored" in deployed
//! fast paths and irrelevant to the protocols built here); a header with
//! IHL > 5 is rejected as [`WireError::Malformed`].

use crate::addr::Ipv4Addr;
use crate::{checksum, field, Result, WireError};

/// The fixed IPv4 header length this crate emits (no options).
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers used in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// IGMP (protocol 2) — baseline host membership protocol.
    Igmp,
    /// IP-in-IP encapsulation (protocol 4) — subcast, PIM register, relays.
    IpIp,
    /// TCP (protocol 6) — ECMP core-router neighbor mode.
    Tcp,
    /// UDP (protocol 17) — ECMP edge mode and application data.
    Udp,
    /// PIM (protocol 103) — baseline routing protocol.
    Pim,
    /// Any other protocol number, preserved verbatim.
    Other(u8),
}

impl Protocol {
    /// The protocol number.
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Igmp => 2,
            Protocol::IpIp => 4,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Pim => 103,
            Protocol::Other(n) => n,
        }
    }

    /// Classify a protocol number.
    pub const fn from_number(n: u8) -> Self {
        match n {
            2 => Protocol::Igmp,
            4 => Protocol::IpIp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            103 => Protocol::Pim,
            n => Protocol::Other(n),
        }
    }
}

/// A parsed IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address (may be unicast or class-D).
    pub dst: Ipv4Addr,
    /// Embedded protocol.
    pub protocol: Protocol,
    /// Time to live / hop limit.
    pub ttl: u8,
    /// Length of the payload that follows the header, in octets.
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Total length of header + payload when emitted.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Parse and validate an IPv4 header from the front of `buf`.
    ///
    /// Verifies version, IHL, total length and header checksum.
    pub fn parse(buf: &[u8]) -> Result<Ipv4Repr> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let ver_ihl = field::get_u8(buf, 0)?;
        if ver_ihl >> 4 != 4 {
            return Err(WireError::BadVersion);
        }
        if ver_ihl & 0x0F != 5 {
            // Options unsupported.
            return Err(WireError::Malformed);
        }
        let total_len = field::get_u16(buf, 2)? as usize;
        if total_len < HEADER_LEN || total_len > buf.len() {
            return Err(WireError::BadLength);
        }
        if !checksum::verify(&buf[..HEADER_LEN]) {
            return Err(WireError::BadChecksum);
        }
        Ok(Ipv4Repr {
            src: Ipv4Addr::from_u32(field::get_u32(buf, 12)?),
            dst: Ipv4Addr::from_u32(field::get_u32(buf, 16)?),
            protocol: Protocol::from_number(field::get_u8(buf, 9)?),
            ttl: field::get_u8(buf, 8)?,
            payload_len: total_len - HEADER_LEN,
        })
    }

    /// Emit the header into the first [`HEADER_LEN`] octets of `buf`,
    /// computing the checksum. The payload is the caller's responsibility.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::BufferTooSmall);
        }
        let total = HEADER_LEN + self.payload_len;
        if total > u16::MAX as usize {
            return Err(WireError::BadLength);
        }
        field::put_u8(buf, 0, 0x45)?;
        field::put_u8(buf, 1, 0)?; // DSCP/ECN
        field::put_u16(buf, 2, total as u16)?;
        field::put_u16(buf, 4, 0)?; // identification
        field::put_u16(buf, 6, 0)?; // flags/fragment
        field::put_u8(buf, 8, self.ttl)?;
        field::put_u8(buf, 9, self.protocol.number())?;
        field::put_u16(buf, 10, 0)?; // checksum placeholder
        field::put_u32(buf, 12, self.src.to_u32())?;
        field::put_u32(buf, 16, self.dst.to_u32())?;
        let ck = checksum::checksum(&buf[..HEADER_LEN]);
        field::put_u16(buf, 10, ck)
    }
}

/// Rewrite the TTL of the datagram in `buf` and recompute its header
/// checksum in place: what a forwarding hop does to every frame it sends
/// on. A buffer shorter than a header is left as it is.
pub fn set_ttl(buf: &mut [u8], ttl: u8) {
    if buf.len() >= HEADER_LEN {
        buf[8] = ttl;
        buf[10] = 0;
        buf[11] = 0;
        let ck = checksum::checksum(&buf[..HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 1, 2, 3),
            dst: Ipv4Addr::new(232, 0, 0, 1),
            protocol: Protocol::Udp,
            ttl: 64,
            payload_len: 8,
        }
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let mut buf = vec![0u8; r.buffer_len()];
        r.emit(&mut buf).unwrap();
        assert_eq!(Ipv4Repr::parse(&buf).unwrap(), r);
    }

    #[test]
    fn rejects_bad_version() {
        let r = sample();
        let mut buf = vec![0u8; r.buffer_len()];
        r.emit(&mut buf).unwrap();
        buf[0] = 0x65;
        assert_eq!(Ipv4Repr::parse(&buf), Err(WireError::BadVersion));
    }

    #[test]
    fn rejects_options() {
        let r = sample();
        let mut buf = vec![0u8; r.buffer_len() + 4];
        r.emit(&mut buf).unwrap();
        buf[0] = 0x46;
        assert_eq!(Ipv4Repr::parse(&buf), Err(WireError::Malformed));
    }

    #[test]
    fn rejects_corrupt_checksum() {
        let r = sample();
        let mut buf = vec![0u8; r.buffer_len()];
        r.emit(&mut buf).unwrap();
        buf[12] ^= 0xFF;
        assert_eq!(Ipv4Repr::parse(&buf), Err(WireError::BadChecksum));
    }

    #[test]
    fn rejects_short_total_length() {
        let r = sample();
        let mut buf = vec![0u8; r.buffer_len()];
        r.emit(&mut buf).unwrap();
        // total_len claims more than the buffer holds
        buf[2] = 0xFF;
        buf[3] = 0xFF;
        assert_eq!(Ipv4Repr::parse(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn truncated_header() {
        assert_eq!(Ipv4Repr::parse(&[0x45; 10]), Err(WireError::Truncated));
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for p in [
            Protocol::Igmp,
            Protocol::IpIp,
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Pim,
            Protocol::Other(200),
        ] {
            assert_eq!(Protocol::from_number(p.number()), p);
        }
    }
}
