//! Shared helpers for the baseline protocol agents.

use express_wire::addr::Ipv4Addr;
use express_wire::ipv4::{self, Ipv4Repr, Protocol};
use netsim::engine::{Ctx, Payload, Reliability, Tx};
use netsim::stats::{CounterId, TrafficClass};
use netsim::NodeKind;

/// Default TTL for generated datagrams.
pub const DEFAULT_TTL: u8 = 64;

/// Bit for interface `i` in a `u32` port mask. Nodes cap at 32 interfaces
/// (`netsim::Topology` enforces it), so one word covers every port.
#[inline]
pub fn iface_bit(i: netsim::IfaceId) -> u32 {
    1u32 << i.0
}

/// Iterate the set bits of a port mask in ascending interface order —
/// the same order the old sorted `Vec<IfaceId>` oif lists produced, which
/// keeps packet emission order (and thus goldens) byte-identical.
#[inline]
pub fn iter_mask(mask: u32) -> IfaceMaskIter {
    IfaceMaskIter(mask)
}

/// Iterator over a `u32` port mask, lowest interface first.
#[derive(Debug, Clone, Copy)]
pub struct IfaceMaskIter(u32);

impl Iterator for IfaceMaskIter {
    type Item = netsim::IfaceId;

    #[inline]
    fn next(&mut self) -> Option<netsim::IfaceId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(netsim::IfaceId(i))
    }
}

/// Build a multicast data datagram from `src` to group `dst` with a zeroed
/// payload of `payload_len` octets.
pub fn group_data(src: Ipv4Addr, dst: Ipv4Addr, payload_len: usize, ttl: u8) -> Vec<u8> {
    let repr = Ipv4Repr {
        src,
        dst,
        protocol: Protocol::Udp,
        ttl,
        payload_len,
    };
    let mut buf = vec![0u8; repr.buffer_len()];
    repr.emit(&mut buf).expect("sized");
    buf
}

/// Build a unicast datagram carrying `payload` with the given protocol.
pub fn unicast_datagram(src: Ipv4Addr, dst: Ipv4Addr, protocol: Protocol, payload: &[u8], ttl: u8) -> Vec<u8> {
    let repr = Ipv4Repr {
        src,
        dst,
        protocol,
        ttl,
        payload_len: payload.len(),
    };
    let mut buf = vec![0u8; repr.buffer_len()];
    repr.emit(&mut buf).expect("sized");
    buf[ipv4::HEADER_LEN..].copy_from_slice(payload);
    buf
}

/// The frame a hop forwards for the arriving `src`: `src` with the TTL
/// rewritten to `new_ttl`, through the engine's derivation memo — the same
/// call the EXPRESS router makes, so every router handed one frame shares
/// one patched buffer and the protocols forward on equal terms.
pub fn derive_ttl(ctx: &mut Ctx<'_>, src: &Payload, new_ttl: u8) -> Payload {
    ctx.derive_frame(src, u32::from(new_ttl), |octets| patch_ttl(octets, new_ttl))
}

/// Rewrite the TTL (and checksum) of a datagram into a fresh shared buffer
/// — a function of `bytes` and `new_ttl` alone, as [`derive_ttl`] requires.
pub fn patch_ttl(bytes: &[u8], new_ttl: u8) -> Payload {
    let mut arc: Payload = Payload::from(bytes);
    ipv4::set_ttl(Payload::get_mut(&mut arc).expect("freshly built, uniquely owned"), new_ttl);
    arc
}

/// The tail of every baseline's multicast data path: send the frame, its
/// TTL decremented, out each interface in `oifs`, and bump `fwd` once. A
/// frame whose TTL runs out here, or that has nowhere to go, goes nowhere.
pub fn forward_data(ctx: &mut Ctx<'_>, bytes: &Payload, header: Ipv4Repr, oifs: u32, fwd: CounterId) {
    if header.ttl <= 1 || oifs == 0 {
        return;
    }
    let out = derive_ttl(ctx, bytes, header.ttl - 1);
    ctx.send_fanout(oifs, &out, TrafficClass::Data, Reliability::Datagram);
    ctx.count_id(fwd, 1);
}

/// Was the frame that arrived on `iface` sent by `src` itself, a host on
/// that link? A first-hop router treats such data as its local sender's.
pub fn src_is_local(ctx: &Ctx<'_>, iface: netsim::IfaceId, src: Ipv4Addr) -> bool {
    ctx.neighbors_on(iface)
        .iter()
        .any(|&(n, _)| ctx.topology().ip(n) == src && ctx.topology().kind(n) == NodeKind::Host)
}

/// Forward a unicast datagram one hop along the shortest path; returns true
/// if a route existed.
pub fn forward_unicast(ctx: &mut Ctx<'_>, bytes: &Payload, header: Ipv4Repr, class: TrafficClass) -> bool {
    if header.ttl <= 1 {
        return false;
    }
    let Some(hop) = ctx.next_hop_ip(header.dst) else {
        return false;
    };
    let out = derive_ttl(ctx, bytes, header.ttl - 1);
    ctx.send_shared(hop.iface, out, class, Reliability::Datagram, Tx::To(hop.next))
}

/// Send a control payload out `iface` addressed to `to`, which may be a
/// direct neighbor or several hops away — the frame is always handed to the
/// next hop on `iface`, and transit routers unicast-forward it onward.
pub fn send_control_to(ctx: &mut Ctx<'_>, iface: netsim::IfaceId, to: Ipv4Addr, protocol: Protocol, payload: &[u8]) {
    let pkt = unicast_datagram(ctx.my_ip(), to, protocol, payload, DEFAULT_TTL);
    // Prefer the destination if it is directly on this link (the common
    // hop-by-hop case); otherwise hand the frame to the unicast next hop.
    let direct = ctx
        .neighbors_on(iface)
        .iter()
        .find(|&&(n, _)| ctx.topology().ip(n) == to)
        .map(|&(n, _)| Tx::To(n));
    let tx = direct
        .or_else(|| ctx.next_hop_ip(to).map(|h| Tx::To(h.next)))
        .unwrap_or(Tx::AllOnLink);
    ctx.send(iface, &pkt, TrafficClass::Control, Reliability::Datagram, tx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_data_valid() {
        let pkt = group_data(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(224, 1, 1, 1), 32, 64);
        let h = Ipv4Repr::parse(&pkt).unwrap();
        assert_eq!(h.payload_len, 32);
        assert!(h.dst.is_multicast());
    }

    #[test]
    fn patch_ttl_revalidates() {
        let pkt = group_data(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(224, 1, 1, 1), 8, 9);
        let out = patch_ttl(&pkt, 8);
        assert_eq!(Ipv4Repr::parse(&out).unwrap().ttl, 8);
    }

    #[test]
    fn unicast_datagram_roundtrip() {
        let pkt = unicast_datagram(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Protocol::Pim,
            b"abc",
            64,
        );
        let h = Ipv4Repr::parse(&pkt).unwrap();
        assert_eq!(h.protocol, Protocol::Pim);
        assert_eq!(&pkt[ipv4::HEADER_LEN..], b"abc");
    }
}
