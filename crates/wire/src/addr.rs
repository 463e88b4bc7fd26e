//! Addressing for EXPRESS multicast channels.
//!
//! A multicast *channel* is identified by the tuple `(S, E)` where `S` is the
//! unicast source address and `E` is a class-D destination drawn from the
//! single-source range `232.0.0.0/8` (Figure 2 of the paper). The low 24 bits
//! of `E` — [`ChannelDest`] — are allocated *locally by the source host*, so
//! every host interface can source up to 2^24 channels with no global
//! coordination (§2.2.1).

use crate::{Result, WireError};
use core::fmt;

/// An IPv4 address.
///
/// A thin wrapper over four octets rather than `std::net::Ipv4Addr` so the
/// wire crate controls byte order, parsing, and classification, and so it can
/// grow simulation-friendly constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0, 0, 0, 0]);

    /// The all-systems link-local multicast group `224.0.0.1`.
    pub const ALL_SYSTEMS: Ipv4Addr = Ipv4Addr([224, 0, 0, 1]);

    /// The all-routers link-local multicast group `224.0.0.2`.
    pub const ALL_ROUTERS: Ipv4Addr = Ipv4Addr([224, 0, 0, 2]);

    /// The well-known link-local address to which all multicast ECMP
    /// datagrams are sent (§3.2: "All multicast ECMP datagrams are sent to a
    /// well-known ECMP address"). We use `224.0.0.106` (an address in the
    /// link-local block left unassigned in 1999).
    pub const ECMP_WELL_KNOWN: Ipv4Addr = Ipv4Addr([224, 0, 0, 106]);

    /// The "well-known localhost value" used as the *source* of local-use
    /// ECMP multicasts (§3.2 footnote 5).
    pub const ECMP_LOCALHOST_SOURCE: Ipv4Addr = Ipv4Addr([127, 0, 0, 1]);

    /// Construct from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// Construct from a big-endian `u32`.
    pub const fn from_u32(v: u32) -> Self {
        Ipv4Addr(v.to_be_bytes())
    }

    /// The address as a big-endian `u32`.
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Is this a class-D (multicast) address, `224.0.0.0/4`?
    pub const fn is_multicast(self) -> bool {
        self.0[0] >= 224 && self.0[0] <= 239
    }

    /// Is this in the IANA single-source multicast range `232.0.0.0/8`
    /// (Figure 2)?
    pub const fn is_single_source_multicast(self) -> bool {
        self.0[0] == 232
    }

    /// Is this a plausible unicast address (not multicast, not unspecified,
    /// not the broadcast address)?
    pub fn is_unicast(self) -> bool {
        !self.is_multicast() && self != Self::UNSPECIFIED && self.0 != [255, 255, 255, 255]
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(o: [u8; 4]) -> Self {
        Ipv4Addr(o)
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr::from_u32(v)
    }
}

/// The 24-bit channel destination identifier: the low three octets of a
/// `232.x.y.z` single-source multicast address.
///
/// The paper's Figure 5 stores exactly these 24 bits in the FIB entry, since
/// the leading `232` octet is implied for every EXPRESS channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelDest(u32);

impl ChannelDest {
    /// The maximum channel destination value (2^24 - 1). Each host can
    /// source this many + 1 distinct channels (§2.2.1: "16 million").
    pub const MAX: u32 = 0x00FF_FFFF;

    /// Construct from a raw 24-bit value.
    ///
    /// Returns [`WireError::Malformed`] if the value does not fit in 24 bits.
    pub fn new(v: u32) -> Result<Self> {
        if v <= Self::MAX {
            Ok(ChannelDest(v))
        } else {
            Err(WireError::Malformed)
        }
    }

    /// Construct from a full class-D address, which must lie in `232/8`.
    pub fn from_group(g: Ipv4Addr) -> Result<Self> {
        if g.is_single_source_multicast() {
            Ok(ChannelDest(g.to_u32() & Self::MAX))
        } else {
            Err(WireError::Malformed)
        }
    }

    /// The raw 24-bit value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The full `232.x.y.z` group address this destination denotes.
    pub const fn to_group(self) -> Ipv4Addr {
        Ipv4Addr::from_u32(0xE800_0000 | self.0)
    }
}

impl fmt::Display for ChannelDest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_group())
    }
}

/// An EXPRESS multicast channel: the `(S, E)` tuple of §2.
///
/// Two channels `(S, E)` and `(S', E)` are **unrelated** despite the common
/// destination address (Figure 1) — this type's `Eq`/`Hash` over both fields
/// is exactly that semantics, and the FIB in `express::fib` keys on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel {
    /// The single designated source host `S`. Only this host may send.
    pub source: Ipv4Addr,
    /// The channel destination `E` within the single-source range.
    pub dest: ChannelDest,
}

impl Channel {
    /// Construct a channel from a source and a 24-bit channel number.
    pub fn new(source: Ipv4Addr, chan: u32) -> Result<Self> {
        if !source.is_unicast() && source != Ipv4Addr::ECMP_LOCALHOST_SOURCE {
            return Err(WireError::Malformed);
        }
        Ok(Channel {
            source,
            dest: ChannelDest::new(chan)?,
        })
    }

    /// Construct a channel from a source and a full group address in `232/8`.
    pub fn from_source_group(source: Ipv4Addr, group: Ipv4Addr) -> Result<Self> {
        Ok(Channel {
            source,
            dest: ChannelDest::from_group(group)?,
        })
    }

    /// The full class-D destination address of this channel.
    pub fn group(self) -> Ipv4Addr {
        self.dest.to_group()
    }

    /// Serialized size of a channel on the wire: 4-byte source + 4-byte
    /// group address.
    pub const WIRE_LEN: usize = 8;

    /// Read a channel from `buf` at `offset`.
    pub fn parse(buf: &[u8], offset: usize) -> Result<Self> {
        let s = crate::field::get_u32(buf, offset)?;
        let g = crate::field::get_u32(buf, offset + 4)?;
        Channel::from_source_group(Ipv4Addr::from_u32(s), Ipv4Addr::from_u32(g))
    }

    /// Write this channel into `buf` at `offset`.
    pub fn emit(self, buf: &mut [u8], offset: usize) -> Result<()> {
        crate::field::put_u32(buf, offset, self.source.to_u32())?;
        crate::field::put_u32(buf, offset + 4, self.group().to_u32())
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.source, self.dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_classification() {
        assert!(Ipv4Addr::new(224, 0, 0, 1).is_multicast());
        assert!(Ipv4Addr::new(239, 255, 255, 255).is_multicast());
        assert!(!Ipv4Addr::new(223, 255, 255, 255).is_multicast());
        assert!(!Ipv4Addr::new(240, 0, 0, 0).is_multicast());
        assert!(Ipv4Addr::new(232, 1, 2, 3).is_single_source_multicast());
        assert!(!Ipv4Addr::new(233, 1, 2, 3).is_single_source_multicast());
        assert!(Ipv4Addr::new(10, 0, 0, 1).is_unicast());
        assert!(!Ipv4Addr::UNSPECIFIED.is_unicast());
    }

    #[test]
    fn channel_dest_range() {
        assert!(ChannelDest::new(0).is_ok());
        assert!(ChannelDest::new(ChannelDest::MAX).is_ok());
        assert_eq!(ChannelDest::new(ChannelDest::MAX + 1), Err(WireError::Malformed));
        let d = ChannelDest::new(0x0001_0203).unwrap();
        assert_eq!(d.to_group(), Ipv4Addr::new(232, 1, 2, 3));
        assert_eq!(ChannelDest::from_group(Ipv4Addr::new(232, 1, 2, 3)).unwrap(), d);
        assert_eq!(
            ChannelDest::from_group(Ipv4Addr::new(224, 1, 2, 3)),
            Err(WireError::Malformed)
        );
    }

    #[test]
    fn channels_with_same_dest_differ_by_source() {
        let a = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 7).unwrap();
        let b = Channel::new(Ipv4Addr::new(10, 0, 0, 2), 7).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.group(), b.group());
    }

    #[test]
    fn channel_source_must_be_unicast() {
        assert!(Channel::new(Ipv4Addr::new(232, 0, 0, 1), 1).is_err());
        assert!(Channel::new(Ipv4Addr::UNSPECIFIED, 1).is_err());
        // The well-known localhost source for local-use ECMP is allowed.
        assert!(Channel::new(Ipv4Addr::ECMP_LOCALHOST_SOURCE, 1).is_ok());
    }

    #[test]
    fn channel_wire_roundtrip() {
        let c = Channel::new(Ipv4Addr::new(171, 64, 7, 9), 0xABCDEF).unwrap();
        let mut buf = [0u8; Channel::WIRE_LEN];
        c.emit(&mut buf, 0).unwrap();
        assert_eq!(Channel::parse(&buf, 0).unwrap(), c);
        // Group address on the wire carries the 232 prefix.
        assert_eq!(buf[4], 232);
    }

    #[test]
    fn channel_parse_rejects_non_ssm_group() {
        let mut buf = [0u8; 8];
        buf[0..4].copy_from_slice(&[10, 0, 0, 1]);
        buf[4..8].copy_from_slice(&[224, 1, 2, 3]);
        assert_eq!(Channel::parse(&buf, 0), Err(WireError::Malformed));
    }

    #[test]
    fn display_formats() {
        let c = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 258).unwrap();
        assert_eq!(format!("{c}"), "(10.0.0.1, 232.0.1.2)");
    }
}
