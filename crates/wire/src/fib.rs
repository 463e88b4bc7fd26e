//! The packed 12-byte EXPRESS FIB entry of Figure 5.
//!
//! ```text
//! | source  | dest    | incoming iface | outgoing interfaces |
//! | 32 bits | 24 bits | 5 bits         | 32 bits             |  = 12 bytes
//! ```
//!
//! FIB memory is "generally the most expensive memory in a high-performance
//! router" (§5.1); this packed layout is the unit the paper's cost model
//! prices at 0.066 ¢/entry. The `express` crate uses this exact
//! representation for its fast-path table so the memory accounting of
//! experiment E1 measures the real structure.

use crate::addr::{Channel, ChannelDest, Ipv4Addr};
use crate::{Result, WireError};

/// The number of interfaces a router can have, bounded by the 5-bit incoming
/// interface field and the 32-bit outgoing mask of Figure 5.
pub const MAX_INTERFACES: u8 = 32;

/// The size of a packed FIB entry in octets.
pub const FIB_ENTRY_LEN: usize = 12;

/// A packed EXPRESS forwarding entry.
///
/// `Eq`/`Hash` are over the raw 12 bytes, so a `FibEntry` can double as its
/// own key in dense tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FibEntry {
    raw: [u8; FIB_ENTRY_LEN],
}

impl FibEntry {
    /// Build an entry for `channel` whose RPF (incoming) interface is
    /// `in_iface` and whose outgoing interfaces are given by `oif_mask`
    /// (bit *i* set = forward out interface *i*).
    ///
    /// Fails with [`WireError::Malformed`] if `in_iface >= 32`.
    pub fn new(channel: Channel, in_iface: u8, oif_mask: u32) -> Result<Self> {
        if in_iface >= MAX_INTERFACES {
            return Err(WireError::Malformed);
        }
        let mut raw = [0u8; FIB_ENTRY_LEN];
        raw[0..4].copy_from_slice(&channel.source.to_u32().to_be_bytes());
        let d = channel.dest.value();
        raw[4] = (d >> 16) as u8;
        raw[5] = (d >> 8) as u8;
        raw[6] = d as u8;
        raw[7] = in_iface & 0x1F;
        raw[8..12].copy_from_slice(&oif_mask.to_be_bytes());
        Ok(FibEntry { raw })
    }

    /// Reconstruct from 12 raw octets.
    pub fn from_raw(raw: [u8; FIB_ENTRY_LEN]) -> Result<Self> {
        if raw[7] & !0x1F != 0 {
            return Err(WireError::Malformed);
        }
        Ok(FibEntry { raw })
    }

    /// The raw 12-octet representation.
    pub const fn raw(&self) -> [u8; FIB_ENTRY_LEN] {
        self.raw
    }

    /// The channel this entry forwards.
    pub fn channel(&self) -> Channel {
        let s = u32::from_be_bytes([self.raw[0], self.raw[1], self.raw[2], self.raw[3]]);
        let d = (u32::from(self.raw[4]) << 16) | (u32::from(self.raw[5]) << 8) | u32::from(self.raw[6]);
        Channel {
            source: Ipv4Addr::from_u32(s),
            dest: ChannelDest::new(d).expect("24-bit by construction"),
        }
    }

    /// The RPF incoming interface index (0..32).
    pub const fn in_iface(&self) -> u8 {
        self.raw[7] & 0x1F
    }

    /// The outgoing interface bitmask.
    pub const fn oif_mask(&self) -> u32 {
        u32::from_be_bytes([self.raw[8], self.raw[9], self.raw[10], self.raw[11]])
    }

    /// Replace the outgoing interface mask.
    pub fn set_oif_mask(&mut self, mask: u32) {
        self.raw[8..12].copy_from_slice(&mask.to_be_bytes());
    }

    /// Add interface `iface` to the outgoing set.
    pub fn add_oif(&mut self, iface: u8) -> Result<()> {
        if iface >= MAX_INTERFACES {
            return Err(WireError::Malformed);
        }
        self.set_oif_mask(self.oif_mask() | (1 << iface));
        Ok(())
    }

    /// Iterate the outgoing interface indices.
    pub fn oifs(&self) -> impl Iterator<Item = u8> {
        let mask = self.oif_mask();
        (0..MAX_INTERFACES).filter(move |i| mask & (1 << i) != 0)
    }

    /// Number of outgoing interfaces (the entry's fanout).
    pub const fn fanout(&self) -> u32 {
        self.oif_mask().count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> Channel {
        Channel::new(Ipv4Addr::new(171, 64, 7, 9), 0x00AB_CDEF).unwrap()
    }

    #[test]
    fn entry_is_twelve_bytes() {
        // Figure 5: an EXPRESS FIB entry is representable in 12 bytes.
        assert_eq!(core::mem::size_of::<FibEntry>(), 12);
        assert_eq!(FIB_ENTRY_LEN, 12);
    }

    #[test]
    fn roundtrip_fields() {
        let e = FibEntry::new(chan(), 17, 0x8000_0401).unwrap();
        assert_eq!(e.channel(), chan());
        assert_eq!(e.in_iface(), 17);
        assert_eq!(e.oif_mask(), 0x8000_0401);
        assert_eq!(e.fanout(), 3);
        assert_eq!(e.oifs().collect::<Vec<_>>(), vec![0, 10, 31]);
        let e2 = FibEntry::from_raw(e.raw()).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn rejects_interface_out_of_range() {
        assert_eq!(FibEntry::new(chan(), 32, 0), Err(WireError::Malformed));
        let mut e = FibEntry::new(chan(), 0, 0).unwrap();
        assert_eq!(e.add_oif(32), Err(WireError::Malformed));
    }

    #[test]
    fn oif_add_remove() {
        let mut e = FibEntry::new(chan(), 3, 0).unwrap();
        assert_eq!(e.fanout(), 0);
        e.add_oif(5).unwrap();
        e.add_oif(5).unwrap(); // idempotent
        e.add_oif(0).unwrap();
        assert_eq!(e.oif_mask(), 1 << 5 | 1);
        assert_eq!(e.fanout(), 2);
    }

    #[test]
    fn from_raw_rejects_garbage_in_spare_bits() {
        let e = FibEntry::new(chan(), 1, 7).unwrap();
        let mut raw = e.raw();
        raw[7] |= 0xE0; // set the three spare bits
        assert_eq!(FibEntry::from_raw(raw), Err(WireError::Malformed));
    }
}
