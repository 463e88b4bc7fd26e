//! Core Based Trees (RFC 2201, the paper's reference \[2\]) as a `netsim`
//! agent.
//!
//! CBT builds a single **bidirectional** shared tree per group around a
//! configured core router. Data from any member flows *up and down* the
//! tree: a router forwards a packet received from one tree neighbor to all
//! its other tree neighbors and member interfaces. The paper's §4.4
//! observes that "transmission through the core is similar in behavior and
//! cost to relaying via the SR but without the application-level control" —
//! and that CBT offers no source-specific escape hatch "short of setting up
//! a new group". A non-member sender tunnels to the core (IP-in-IP).

use crate::igmp::MembershipDb;
use crate::util;
use express_wire::addr::Ipv4Addr;
use express_wire::cbt::CbtMessage;
use express_wire::ipv4::{self, Ipv4Repr, Protocol};
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::IfaceId;
use netsim::stats::TrafficClass;
use std::collections::{HashMap, HashSet};

/// Per-group bidirectional tree state.
#[derive(Debug, Clone, Default)]
struct CbtState {
    /// Parent toward the core (None at the core itself).
    parent: Option<(IfaceId, Ipv4Addr)>,
    /// Children: tree neighbors that joined through us.
    children: HashSet<(IfaceId, Ipv4Addr)>,
    /// Joins we forwarded and are waiting to ack, by originator.
    pending: HashMap<Ipv4Addr, (IfaceId, Ipv4Addr)>,
    /// Are we on the tree (join acked or we are the core)?
    on_tree: bool,
}

/// The CBT router agent. All groups share one configured core.
pub struct CbtRouter {
    core: Ipv4Addr,
    members: MembershipDb,
    trees: HashMap<Ipv4Addr, CbtState>,
    /// Interned handle for the per-packet forward counter (registered in
    /// `on_start`; `forward_on_tree` bumps it by index).
    hot_data_fwd: Option<netsim::CounterId>,
}

impl CbtRouter {
    /// A CBT router using `core` as the core for every group.
    pub fn new(core: Ipv4Addr) -> Self {
        CbtRouter {
            core,
            members: MembershipDb::new(),
            trees: HashMap::new(),
            hot_data_fwd: None,
        }
    }

    /// Group state entries at this router.
    pub fn state_entries(&self) -> usize {
        self.trees.len()
    }

    /// Is this router on the tree for `group`?
    pub fn on_tree(&self, group: Ipv4Addr) -> bool {
        self.trees.get(&group).map(|t| t.on_tree).unwrap_or(false)
    }

    fn am_core(&self, ctx: &Ctx<'_>) -> bool {
        ctx.my_ip() == self.core
    }

    fn send_cbt(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, to: Ipv4Addr, msg: CbtMessage) {
        util::send_control_to(ctx, iface, to, Protocol::Other(7) /* CBT */, &msg.to_vec());
        ctx.count("cbt.control_tx", 1);
    }

    /// Originate or forward a join toward the core.
    fn join_toward_core(&mut self, ctx: &mut Ctx<'_>, group: Ipv4Addr, originator: Ipv4Addr) {
        if self.am_core(ctx) {
            return;
        }
        let st = self.trees.entry(group).or_default();
        if st.on_tree {
            return;
        }
        let Some(hop) = ctx.next_hop_ip(self.core) else { return };
        let up = ctx.ip_of(hop.next);
        let core = self.core;
        let msg = CbtMessage::JoinRequest {
            group,
            core,
            originator,
        };
        self.send_cbt(ctx, hop.iface, up, msg);
        ctx.trace("cbt.join_tx", |e| e.chan(group).detail(format!("core {core}")));
    }

    fn handle_cbt(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, msg: CbtMessage) {
        match msg {
            CbtMessage::JoinRequest { group, originator, .. } => {
                let on_tree = self.trees.get(&group).map(|t| t.on_tree).unwrap_or(false);
                if self.am_core(ctx) || on_tree {
                    // Terminate the join: ack back, adopt the child.
                    let st = self.trees.entry(group).or_default();
                    st.on_tree = true;
                    st.children.insert((iface, from));
                    let core = self.core;
                    let msg = CbtMessage::JoinAck {
                        group,
                        core,
                        originator,
                    };
                    self.send_cbt(ctx, iface, from, msg);
                } else {
                    // Forward toward the core; remember where to ack back.
                    {
                        let st = self.trees.entry(group).or_default();
                        st.pending.insert(originator, (iface, from));
                    }
                    if let Some(hop) = ctx.next_hop_ip(self.core) {
                        let up = ctx.ip_of(hop.next);
                        let core = self.core;
                        let msg = CbtMessage::JoinRequest {
                            group,
                            core,
                            originator,
                        };
                        self.send_cbt(ctx, hop.iface, up, msg);
                    }
                }
            }
            CbtMessage::JoinAck { group, originator, .. } => {
                let mut ack_down: Option<(IfaceId, Ipv4Addr)> = None;
                {
                    let st = self.trees.entry(group).or_default();
                    st.on_tree = true;
                    st.parent = Some((iface, from));
                    if let Some(child) = st.pending.remove(&originator) {
                        st.children.insert(child);
                        ack_down = Some(child);
                    }
                }
                if let Some((ci, ca)) = ack_down {
                    let core = self.core;
                    let msg = CbtMessage::JoinAck {
                        group,
                        core,
                        originator,
                    };
                    self.send_cbt(ctx, ci, ca, msg);
                }
            }
            CbtMessage::QuitNotification { group, .. } => {
                if let Some(st) = self.trees.get_mut(&group) {
                    st.children.retain(|&(i, a)| !(i == iface && a == from));
                }
                self.maybe_quit(ctx, group);
            }
            CbtMessage::EchoRequest { group, core } => {
                let msg = CbtMessage::EchoReply { group, core };
                self.send_cbt(ctx, iface, from, msg);
            }
            CbtMessage::EchoReply { .. } => {}
        }
    }

    /// Leave the tree when no members and no children remain.
    fn maybe_quit(&mut self, ctx: &mut Ctx<'_>, group: Ipv4Addr) {
        let quit = {
            let Some(st) = self.trees.get(&group) else { return };
            st.on_tree
                && st.children.is_empty()
                && self.members.member_mask(group) == 0
                && !self.am_core(ctx)
        };
        if quit {
            let parent = self.trees.get(&group).and_then(|s| s.parent);
            if let Some((pi, pa)) = parent {
                let core = self.core;
                let msg = CbtMessage::QuitNotification { group, core };
                self.send_cbt(ctx, pi, pa, msg);
            }
            self.trees.remove(&group);
        }
    }

    /// Bidirectional tree forwarding: to every tree neighbor and member
    /// interface except where the packet came from.
    fn forward_on_tree(&mut self, ctx: &mut Ctx<'_>, bytes: &Payload, header: Ipv4Repr, in_iface: Option<IfaceId>) {
        let group = header.dst;
        let Some(st) = self.trees.get(&group) else { return };
        if !st.on_tree {
            return;
        }
        let mut out_mask = 0u32;
        if let Some((pi, _)) = st.parent {
            out_mask |= util::iface_bit(pi);
        }
        for &(ci, _) in &st.children {
            out_mask |= util::iface_bit(ci);
        }
        out_mask |= self.members.member_mask(group);
        if let Some(i) = in_iface {
            out_mask &= !util::iface_bit(i);
        }
        let fwd = self.hot_data_fwd.expect("counters are interned in on_start");
        util::forward_data(ctx, bytes, header, out_mask, fwd);
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, header: Ipv4Repr) {
        let group = header.dst;
        let on_tree = self.trees.get(&group).map(|t| t.on_tree).unwrap_or(false);
        // Data from a directly attached host.
        if util::src_is_local(ctx, iface, header.src) && !on_tree {
            // Non-member sender: tunnel to the core (the packet goes up as
            // unicast and is multicast out from there — §7.1's description
            // of Simple/CBT-style root distribution).
            if let Ok(tunnel) = express_wire::encap::encapsulate(ctx.my_ip(), self.core, util::DEFAULT_TTL, bytes) {
                if let Some(hop) = ctx.next_hop_ip(self.core) {
                    let nxt = hop.next;
                    ctx.send(hop.iface, &tunnel, TrafficClass::Data, Reliability::Datagram, Tx::To(nxt));
                    ctx.count("cbt.tunnel_tx", 1);
                }
            }
            return;
        }
        // On-tree data: accept only from tree neighbors or local hosts.
        self.forward_on_tree(ctx, bytes, header, Some(iface));
    }
}

impl Agent for CbtRouter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.hot_data_fwd = Some(ctx.counter("cbt.data_fwd"));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        let me = ctx.my_ip();
        let Ok(header) = Ipv4Repr::parse(bytes) else { return };
        let payload = &bytes[ipv4::HEADER_LEN..ipv4::HEADER_LEN + header.payload_len];
        match header.protocol {
            Protocol::Igmp => {
                let changed = self.members.update(iface, payload, ctx.now());
                for g in changed {
                    if self.members.any_members(g) {
                        let me_ip = ctx.my_ip();
                        self.join_toward_core(ctx, g, me_ip);
                    } else {
                        self.maybe_quit(ctx, g);
                    }
                }
            }
            Protocol::Other(7) if header.dst == me => {
                if let Ok(msg) = CbtMessage::parse(payload) {
                    self.handle_cbt(ctx, iface, header.src, msg);
                }
            }
            Protocol::IpIp if header.dst == me => {
                // Core receives a tunnelled packet: distribute on the tree.
                if let Ok((_outer, inner)) = express_wire::encap::decapsulate(bytes) {
                    if let Ok(inner_hdr) = Ipv4Repr::parse(inner) {
                        if inner_hdr.dst.is_multicast() {
                            self.forward_on_tree(ctx, &Payload::from(inner), inner_hdr, None);
                        }
                    }
                }
            }
            _ if header.dst.is_multicast() => self.handle_data(ctx, iface, bytes, header),
            _ if header.dst != me => {
                let _ = util::forward_unicast(ctx, bytes, header, class);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_starts_empty() {
        let r = CbtRouter::new(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(r.state_entries(), 0);
        assert!(!r.on_tree(Ipv4Addr::new(224, 1, 1, 1)));
    }

    #[test]
    fn cbt_state_default() {
        let st = CbtState::default();
        assert!(st.parent.is_none());
        assert!(st.children.is_empty());
        assert!(!st.on_tree);

    }
}
