//! PIM-SM (RFC 2117, the paper's reference \[9\]) as a `netsim` agent.
//!
//! The behaviours the paper's comparisons rest on are implemented
//! faithfully:
//!
//! * **Rendezvous points**: a (*,G) shared tree rooted at a
//!   network-configured RP; joins travel hop-by-hop toward the RP.
//! * **Register encapsulation**: the source's DR tunnels data to the RP,
//!   which forwards it down the shared tree — the "detour via the
//!   rendezvous point" of §3.6 that EXPRESS never takes.
//! * **RP (S,G) join + RegisterStop**: the RP joins the source tree and
//!   stops the tunnel once native data arrives.
//! * **SPT switchover**: a last-hop router seeing shared-tree data may join
//!   (S,G) toward the source and prune (S,G,rpt) off the shared tree —
//!   "the higher delay of a shared multicast tree ... \[vs\] the extra state
//!   cost of source-specific trees" (§4.4), with the policy owned by the
//!   *network*, not the application.
//! * **Soft state**: join state expires unless periodically refreshed —
//!   contrast ECMP's TCP mode where "a periodic refresh of each long-lived
//!   channel is unnecessary" (§3.2).
//!
//! Simplification: one RP serves all groups (the RP-set hash of the RFC is
//! group-management machinery orthogonal to the measured behaviours).

use crate::igmp::MembershipDb;
use crate::util;
use express_wire::addr::Ipv4Addr;
use express_wire::ipv4::{self, Ipv4Repr, Protocol};
use express_wire::pim::{GroupBlock, PimMessage, SourceEntry};
use netsim::engine::{Agent, Ctx, Payload, Reliability, TopologyChange, Tx};
use netsim::id::IfaceId;
use netsim::stats::TrafficClass;
use netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// PIM-SM configuration.
#[derive(Debug, Clone, Copy)]
pub struct PimConfig {
    /// The rendezvous point for every group.
    pub rp: Ipv4Addr,
    /// Data packets a last-hop router accepts on the shared tree before
    /// switching to the source tree; `None` never switches (pure shared
    /// tree, CBT-like delay), `Some(0)` switches on the first packet.
    pub spt_threshold: Option<u64>,
    /// Period of the soft-state join refresh.
    pub join_refresh: SimDuration,
    /// Join state lifetime without refresh.
    pub holdtime: SimDuration,
}

impl PimConfig {
    /// Defaults with the given RP: switch to SPT on first packet (the
    /// common deployment), 60 s refresh, 210 s holdtime.
    pub fn new(rp: Ipv4Addr) -> Self {
        PimConfig {
            rp,
            spt_threshold: Some(0),
            join_refresh: SimDuration::from_secs(60),
            holdtime: SimDuration::from_secs(210),
        }
    }
}

/// Forwarding/state entry for (*,G) or (S,G).
#[derive(Debug, Clone, Default)]
struct TreeEntry {
    /// Interfaces joined by downstream PIM neighbors, with expiry.
    joined_ifaces: HashMap<IfaceId, SimTime>,
    /// Did we send a join upstream?
    joined_upstream: bool,
    /// Where that join went — (iface, RPF neighbor). When unicast routing
    /// re-converges onto a different neighbor, the re-join prunes the old
    /// one (RFC 7761 §4.5.7) so the stale branch stops carrying duplicates
    /// for the rest of its holdtime.
    upstream_nbr: Option<(IfaceId, Ipv4Addr)>,
}

impl TreeEntry {
    /// Unexpired downstream-joined interfaces as a `u32` port mask.
    fn live_mask(&self, now: SimTime) -> u32 {
        let mut m = 0u32;
        for (i, exp) in &self.joined_ifaces {
            if *exp > now {
                m |= util::iface_bit(*i);
            }
        }
        m
    }
}

/// Per-(S,G) auxiliary state.
#[derive(Debug, Clone, Default)]
struct SgMeta {
    /// Shared-tree packets seen (SPT-switch trigger at last hops).
    shared_packets: u64,
    /// We switched this source to its own tree.
    on_spt: bool,
    /// RP only: native (S,G) data has arrived (send RegisterStop).
    native_seen: bool,
    /// DR only: RP told us to stop registering.
    register_stopped: bool,
}

const TIMER_REFRESH: u64 = 1;

/// The PIM-SM router agent.
pub struct PimRouter {
    cfg: PimConfig,
    members: MembershipDb,
    star_g: HashMap<Ipv4Addr, TreeEntry>,
    sg: HashMap<(Ipv4Addr, Ipv4Addr), TreeEntry>,
    sg_meta: HashMap<(Ipv4Addr, Ipv4Addr), SgMeta>,
    /// Interfaces pruned off the shared tree per (S,G) — the (S,G,rpt)
    /// records, held as one port mask per source/group pair.
    rpt_pruned: HashMap<(Ipv4Addr, Ipv4Addr), u32>,
    /// Interned handle for the per-packet forward counter (registered in
    /// `on_start`; `emit_data` bumps it by index).
    hot_data_fwd: Option<netsim::CounterId>,
}

impl PimRouter {
    /// A PIM-SM router.
    pub fn new(cfg: PimConfig) -> Self {
        PimRouter {
            cfg,
            members: MembershipDb::new(),
            star_g: HashMap::new(),
            sg: HashMap::new(),
            sg_meta: HashMap::new(),
            rpt_pruned: HashMap::new(),
            hot_data_fwd: None,
        }
    }

    /// Multicast routing state entries ((*,G) + (S,G)) — the state-cost
    /// comparison metric of §4.4/§5.
    pub fn state_entries(&self) -> usize {
        self.star_g.len() + self.sg.len()
    }

    fn am_rp(&self, ctx: &Ctx<'_>) -> bool {
        ctx.my_ip() == self.cfg.rp
    }

    fn send_join_prune(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        upstream: Ipv4Addr,
        group: Ipv4Addr,
        joins: Vec<SourceEntry>,
        prunes: Vec<SourceEntry>,
    ) {
        let msg = PimMessage::JoinPrune {
            upstream,
            holdtime_secs: self.cfg.holdtime.millis().div_ceil(1000) as u16,
            groups: vec![GroupBlock { group, joins, prunes }],
        };
        util::send_control_to(ctx, iface, upstream, Protocol::Pim, &msg.to_vec());
        ctx.count("pim.join_prune_tx", 1);
        ctx.trace("pim.join_prune_tx", |e| e.chan(group).detail(format!("to {upstream}")));
    }

    /// (Re-)send the (*,G) join toward the RP if we need the shared tree.
    fn join_shared_tree(&mut self, ctx: &mut Ctx<'_>, group: Ipv4Addr) {
        if self.am_rp(ctx) {
            return;
        }
        let Some(hop) = ctx.next_hop_ip(self.cfg.rp) else { return };
        let up = ctx.ip_of(hop.next);
        let rp = self.cfg.rp;
        let prev = {
            let e = self.star_g.entry(group).or_default();
            e.joined_upstream = true;
            e.upstream_nbr.replace((hop.iface, up))
        };
        if let Some((old_if, old_up)) = prev {
            if (old_if, old_up) != (hop.iface, up) {
                self.send_join_prune(ctx, old_if, old_up, group, vec![], vec![SourceEntry::wildcard_rpt(rp)]);
            }
        }
        self.send_join_prune(ctx, hop.iface, up, group, vec![SourceEntry::wildcard_rpt(rp)], vec![]);
    }

    /// (Re-)send the (S,G) join toward the source.
    fn join_source_tree(&mut self, ctx: &mut Ctx<'_>, source: Ipv4Addr, group: Ipv4Addr) {
        let Some(hop) = ctx.rpf(source) else { return };
        let up = ctx.ip_of(hop.next);
        let prev = {
            let e = self.sg.entry((source, group)).or_default();
            e.joined_upstream = true;
            e.upstream_nbr.replace((hop.iface, up))
        };
        if let Some((old_if, old_up)) = prev {
            if (old_if, old_up) != (hop.iface, up) {
                self.send_join_prune(ctx, old_if, old_up, group, vec![], vec![SourceEntry::source(source)]);
            }
        }
        self.send_join_prune(ctx, hop.iface, up, group, vec![SourceEntry::source(source)], vec![]);
    }

    /// Prune ourselves off the shared tree when neither local members nor
    /// downstream joins remain.
    fn prune_shared_tree_if_idle(&mut self, ctx: &mut Ctx<'_>, group: Ipv4Addr) {
        let now = ctx.now();
        let idle = self
            .star_g
            .get(&group)
            .map(|e| e.live_mask(now) == 0)
            .unwrap_or(true)
            && self.members.member_mask(group) == 0;
        let joined = self.star_g.get(&group).map(|e| e.joined_upstream).unwrap_or(false);
        if idle && joined {
            if let Some(hop) = ctx.next_hop_ip(self.cfg.rp) {
                let up = ctx.ip_of(hop.next);
                let rp = self.cfg.rp;
                self.send_join_prune(ctx, hop.iface, up, group, vec![], vec![SourceEntry::wildcard_rpt(rp)]);
            }
            self.star_g.remove(&group);
            // The group is gone; its (S,G,rpt) prune records are moot.
            self.rpt_pruned.retain(|(_, g), _| *g != group);
        }
    }

    /// Soft-state hygiene: drop joined-interface records past their
    /// holdtime, and entries with neither live interfaces nor an upstream
    /// join — otherwise expired state inflates [`state_entries`].
    fn purge_expired(&mut self, now: SimTime) {
        for e in self.star_g.values_mut().chain(self.sg.values_mut()) {
            e.joined_ifaces.retain(|_, exp| *exp > now);
        }
        self.star_g
            .retain(|_, e| e.joined_upstream || !e.joined_ifaces.is_empty());
        self.sg
            .retain(|_, e| e.joined_upstream || !e.joined_ifaces.is_empty());
    }

    /// Outgoing port mask for a (*,G) shared-tree packet from source `s`.
    fn shared_oifs(&self, ctx: &mut Ctx<'_>, group: Ipv4Addr, s: Ipv4Addr, in_iface: IfaceId) -> u32 {
        let now = ctx.now();
        let mut m = self.star_g.get(&group).map(|e| e.live_mask(now)).unwrap_or(0);
        m |= self.members.member_mask(group);
        m &= !util::iface_bit(in_iface);
        // (S,G,rpt) prunes exclude interfaces that switched to the SPT.
        m & !self.rpt_pruned.get(&(s, group)).copied().unwrap_or(0)
    }

    /// Outgoing port mask for native (S,G) source-tree data.
    fn sg_oifs(&self, ctx: &mut Ctx<'_>, source: Ipv4Addr, group: Ipv4Addr, in_iface: IfaceId) -> u32 {
        let now = ctx.now();
        let mut m = self.sg.get(&(source, group)).map(|e| e.live_mask(now)).unwrap_or(0);
        m |= self.members.member_mask(group);
        m & !util::iface_bit(in_iface)
    }

    fn emit_data(&mut self, ctx: &mut Ctx<'_>, bytes: &Payload, header: Ipv4Repr, oifs: u32) {
        let fwd = self.hot_data_fwd.expect("counters are interned in on_start");
        util::forward_data(ctx, bytes, header, oifs, fwd);
    }

    /// Handle a native multicast data packet.
    fn handle_data(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, header: Ipv4Repr) {
        let s = header.src;
        let g = header.dst;

        // DR duty: source directly attached on this interface ⇒ register.
        let src_is_local = util::src_is_local(ctx, iface, s);
        if src_is_local && !self.am_rp(ctx) {
            let meta = self.sg_meta.entry((s, g)).or_default();
            if !meta.register_stopped {
                if let Ok(tunnel) = express_wire::encap::encapsulate(ctx.my_ip(), self.cfg.rp, util::DEFAULT_TTL, bytes) {
                    if let Some(hop) = ctx.next_hop_ip(self.cfg.rp) {
                        let nxt = hop.next;
                        ctx.send(hop.iface, &tunnel, TrafficClass::Data, Reliability::Datagram, Tx::To(nxt));
                        ctx.count("pim.register_tx", 1);
                    }
                }
            }
        }

        // Native (S,G) on its RPF interface?
        let sg_iif = ctx.rpf(s).map(|h| h.iface);
        let has_sg = self.sg.contains_key(&(s, g));
        if has_sg && sg_iif == Some(iface) {
            if self.am_rp(ctx) {
                self.sg_meta.entry((s, g)).or_default().native_seen = true;
            }
            // RFC 2117 inherited outgoing list: (S,G) joins plus (*,G)
            // joins minus (S,G,rpt) prunes — at the RP this is what carries
            // native source-tree data onward down the shared tree.
            let oifs = self.sg_oifs(ctx, s, g, iface) | self.shared_oifs(ctx, g, s, iface);
            self.emit_data(ctx, bytes, header, oifs);
            return;
        }

        if src_is_local {
            // First-hop: deliver to local members only; remote receivers are
            // served by the register tunnel until (S,G) joins arrive.
            let oifs = self.members.member_mask(g) & !util::iface_bit(iface);
            self.emit_data(ctx, bytes, header, oifs);
            return;
        }

        // Shared tree: packet must arrive on the RPF interface toward the RP
        // (at the RP itself, decapsulated registers enter via handle_encap).
        let rpt_iif = ctx.rpf(self.cfg.rp).map(|h| h.iface);
        if rpt_iif == Some(iface) || self.am_rp(ctx) {
            let oifs = self.shared_oifs(ctx, g, s, iface);
            self.emit_data(ctx, bytes, header, oifs);
            self.maybe_switch_to_spt(ctx, s, g, iface);
        }
    }

    /// Last-hop SPT switchover (§4.4): count shared-tree packets for (S,G);
    /// past the threshold, join the source tree and prune the source off
    /// the shared tree.
    fn maybe_switch_to_spt(&mut self, ctx: &mut Ctx<'_>, s: Ipv4Addr, g: Ipv4Addr, _iface: IfaceId) {
        let Some(threshold) = self.cfg.spt_threshold else { return };
        // Only last-hop routers (with local members) initiate the switch.
        if self.members.member_mask(g) == 0 {
            return;
        }
        let meta = self.sg_meta.entry((s, g)).or_default();
        if meta.on_spt {
            return;
        }
        meta.shared_packets += 1;
        if meta.shared_packets > threshold {
            meta.on_spt = true;
            ctx.count("pim.spt_switch", 1);
            ctx.trace("pim.spt_switch", |e| e.chan(g).detail(format!("source {s}")));
            self.join_source_tree(ctx, s, g);
            // Prune (S,G,rpt) toward the RP.
            if let Some(hop) = ctx.next_hop_ip(self.cfg.rp) {
                let up = ctx.ip_of(hop.next);
                self.send_join_prune(ctx, hop.iface, up, g, vec![], vec![SourceEntry::source_rpt(s)]);
            }
        }
    }

    /// RP register handling: decapsulate, distribute down the shared tree,
    /// join the source tree, stop the tunnel once native data flows.
    fn handle_encap(&mut self, ctx: &mut Ctx<'_>, outer: Ipv4Repr, inner: Vec<u8>) {
        if !self.am_rp(ctx) {
            return;
        }
        let Ok(inner_hdr) = Ipv4Repr::parse(&inner) else { return };
        if !inner_hdr.dst.is_multicast() {
            return;
        }
        let (s, g) = (inner_hdr.src, inner_hdr.dst);
        // Forward down the shared tree (no incoming interface to exclude —
        // the packet arrived by tunnel).
        let oifs = self.shared_oifs(ctx, g, s, IfaceId(31));
        self.emit_data(ctx, &Payload::from(inner), inner_hdr, oifs);

        let meta = self.sg_meta.entry((s, g)).or_default();
        let native = meta.native_seen;
        if !self.sg.contains_key(&(s, g)) {
            self.join_source_tree(ctx, s, g);
        }
        if native {
            let stop = PimMessage::RegisterStop { source: s, group: g };
            // The register came from the DR (outer source).
            if let Some(hop) = ctx.next_hop_ip(outer.src) {
                util::send_control_to(ctx, hop.iface, outer.src, Protocol::Pim, &stop.to_vec());
                ctx.count("pim.register_stop_tx", 1);
            }
        }
    }

    /// Re-send joins for all live state along the *current* unicast routes.
    /// Shared by the periodic soft-state refresh and by recovery after a
    /// topology change, where it re-forms the tree along the new paths
    /// without waiting for the next refresh; old-path state ages out at
    /// holdtime.
    fn refresh_joins(&mut self, ctx: &mut Ctx<'_>) {
        let shared: Vec<Ipv4Addr> = self
            .star_g
            .iter()
            .filter(|(_, e)| e.joined_upstream)
            .map(|(g, _)| *g)
            .collect();
        for g in shared {
            self.join_shared_tree(ctx, g);
        }
        let sources: Vec<(Ipv4Addr, Ipv4Addr)> = self
            .sg
            .iter()
            .filter(|(_, e)| e.joined_upstream)
            .map(|(k, _)| *k)
            .collect();
        for (s, g) in sources {
            self.join_source_tree(ctx, s, g);
        }
    }

    fn handle_pim(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, _header: Ipv4Repr, msg: PimMessage) {
        let now = ctx.now();
        match msg {
            PimMessage::JoinPrune { upstream, groups, holdtime_secs } => {
                if upstream != ctx.my_ip() {
                    return;
                }
                let expiry = now + SimDuration::from_secs(u64::from(holdtime_secs));
                for gb in groups {
                    for j in &gb.joins {
                        if j.wildcard {
                            let e = self.star_g.entry(gb.group).or_default();
                            let newly = e.joined_ifaces.insert(iface, expiry).is_none();
                            let need_join = newly && !e.joined_upstream;
                            if need_join {
                                self.join_shared_tree(ctx, gb.group);
                            }
                        } else {
                            let e = self.sg.entry((j.addr, gb.group)).or_default();
                            let newly = e.joined_ifaces.insert(iface, expiry).is_none();
                            let need_join = newly && !e.joined_upstream;
                            if need_join {
                                self.join_source_tree(ctx, j.addr, gb.group);
                            }
                        }
                    }
                    for p in &gb.prunes {
                        if p.wildcard {
                            if let Some(e) = self.star_g.get_mut(&gb.group) {
                                e.joined_ifaces.remove(&iface);
                            }
                        } else if p.rpt {
                            *self.rpt_pruned.entry((p.addr, gb.group)).or_insert(0) |= util::iface_bit(iface);
                        } else if let Some(e) = self.sg.get_mut(&(p.addr, gb.group)) {
                            e.joined_ifaces.remove(&iface);
                        }
                    }
                    // A wildcard prune may have emptied our downstream set;
                    // unwind our own upstream join so the stale branch
                    // collapses instead of dangling for the holdtime.
                    if gb.prunes.iter().any(|p| p.wildcard) {
                        self.prune_shared_tree_if_idle(ctx, gb.group);
                    }
                }
            }
            PimMessage::RegisterStop { source, group } => {
                self.sg_meta.entry((source, group)).or_default().register_stopped = true;
            }
            PimMessage::Hello { .. } | PimMessage::Register { .. } => {}
        }
    }
}

impl Agent for PimRouter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.hot_data_fwd = Some(ctx.counter("pim.data_fwd"));
        ctx.set_timer(self.cfg.join_refresh, TIMER_REFRESH);
        // Re-join on the topology hook, not a refresh period later.
        ctx.watch_topology();
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
                        self.join_shared_tree(ctx, g);
                    } else {
                        self.prune_shared_tree_if_idle(ctx, g);
                    }
                }
            }
            Protocol::Pim if header.dst == me => {
                if let Ok(msg) = PimMessage::parse(payload) {
                    self.handle_pim(ctx, iface, header, msg);
                }
            }
            Protocol::IpIp if header.dst == me => {
                if let Ok((outer, inner)) = express_wire::encap::decapsulate(bytes) {
                    self.handle_encap(ctx, outer, inner.to_vec());
                }
            }
            _ if header.dst.is_multicast() => self.handle_data(ctx, iface, bytes, header),
            _ if header.dst != me => {
                let _ = util::forward_unicast(ctx, bytes, header, class);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TIMER_REFRESH {
            return;
        }
        self.purge_expired(ctx.now());
        // Soft-state refresh: re-send joins for all live state (the
        // per-group periodic cost ECMP's TCP mode avoids).
        self.refresh_joins(ctx);
        ctx.set_timer(self.cfg.join_refresh, TIMER_REFRESH);
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        if up {
            return;
        }
        // Downstream joins and (S,G,rpt) prunes on a dead interface belong
        // to neighbors we can no longer hear; drop them now instead of
        // letting them forward into a black hole until the holdtime.
        for e in self.star_g.values_mut().chain(self.sg.values_mut()) {
            e.joined_ifaces.remove(&iface);
        }
        for m in self.rpt_pruned.values_mut() {
            *m &= !util::iface_bit(iface);
        }
        self.rpt_pruned.retain(|_, m| *m != 0);
        let groups: Vec<Ipv4Addr> = self.star_g.keys().copied().collect();
        for g in groups {
            self.prune_shared_tree_if_idle(ctx, g);
        }
        ctx.count("pim.iface_state_drop", 1);
    }

    fn on_topology_change(&mut self, ctx: &mut Ctx<'_>, _change: TopologyChange) {
        // Unicast routing has re-converged underneath us; re-send joins
        // immediately so the distribution tree re-forms along the new
        // paths rather than waiting up to a full join_refresh period.
        self.purge_expired(ctx.now());
        self.refresh_joins(ctx);
        ctx.count("pim.recovery_rejoin", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_entry_expiry() {
        let mut e = TreeEntry::default();
        e.joined_ifaces.insert(IfaceId(1), SimTime(100));
        e.joined_ifaces.insert(IfaceId(2), SimTime(300));
        assert_eq!(e.live_mask(SimTime(200)), util::iface_bit(IfaceId(2)));
        assert_eq!(e.live_mask(SimTime(400)), 0);
    }

    #[test]
    fn config_defaults() {
        let c = PimConfig::new(Ipv4Addr::new(10, 0, 0, 9));
        assert_eq!(c.spt_threshold, Some(0));
        assert!(c.holdtime > c.join_refresh);
    }
}
