//! IGMP hosts (v2 and v3) and the router-side membership database.
//!
//! The paper's §2.2.2 and §7.1 contrast EXPRESS's explicit `(S,E)`
//! subscription with the group model's host protocol: IGMPv2 reports name a
//! group only — any sender reaches the member — and rely on *report
//! suppression* (one member's report silences the rest); IGMPv3 adds
//! INCLUDE/EXCLUDE source lists and removes suppression. Both are
//! implemented here so experiments can measure report traffic and the
//! unwanted-traffic exposure EXPRESS eliminates.

use crate::util;
use express_wire::addr::Ipv4Addr;
use express_wire::igmp::{GroupRecord, IgmpV2, IgmpV3, RecordType};
use express_wire::ipv4::{self, Ipv4Repr, Protocol};
use netsim::audit::AuditNodeState;
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::topology::Topology;
use netsim::stats::TrafficClass;
use netsim::time::{SimDuration, SimTime};
use netsim::Sim;
use rand::RngExt;
use std::collections::{HashMap, HashSet};

/// Which IGMP version a host speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IgmpVersion {
    /// Group-only joins, report suppression.
    V2,
    /// Source filters, no suppression.
    V3,
}

/// Harness-scheduled actions for a [`GroupHost`].
#[derive(Debug, Clone)]
pub enum GroupHostAction {
    /// Join a group; with `sources` non-empty (v3) the join is
    /// INCLUDE(sources) — the SSM-style join.
    Join {
        /// The class-D group.
        group: Ipv4Addr,
        /// INCLUDE sources (empty ⇒ any-source / EXCLUDE{}).
        sources: Vec<Ipv4Addr>,
    },
    /// Leave a group.
    Leave {
        /// The group.
        group: Ipv4Addr,
    },
    /// Send multicast data to a group (any host may do this — the group
    /// model's problem 3).
    SendData {
        /// The group.
        group: Ipv4Addr,
        /// Payload size in octets.
        payload_len: usize,
    },
}

#[derive(Debug, Clone)]
struct Membership {
    sources: Vec<Ipv4Addr>, // empty = any source
}

/// A host on the group model: joins via IGMP, receives group traffic.
pub struct GroupHost {
    version: IgmpVersion,
    actions: HashMap<u64, GroupHostAction>,
    next_action: u64,
    memberships: HashMap<Ipv4Addr, Membership>,
    /// Pending response to a general query: group -> deadline token gen.
    pending_reports: HashMap<Ipv4Addr, u64>,
    report_gen: u64,
    /// (time, group, source, payload_len) for every delivered packet.
    pub received: Vec<(SimTime, Ipv4Addr, Ipv4Addr, usize)>,
    /// IGMP reports transmitted (the suppression experiment's metric).
    pub reports_sent: u64,
    /// Data packets that arrived for a joined group but were excluded by
    /// the v3 source filter (the "unwanted traffic on the last hop" §2.2.2
    /// metric: v2 hosts count them as received, v3 hosts filter locally —
    /// either way the traffic crossed the link).
    pub filtered_out: u64,
    /// Interned delivery counter (registered in `on_start`).
    hot_data_rx: Option<netsim::CounterId>,
    /// Groups this host has ever transmitted data to — the sender-side
    /// truth the audit snapshot reports (the group model has no
    /// single-source rule, so any member may appear here).
    sent_groups: std::collections::BTreeSet<Ipv4Addr>,
}

const ACTION_BASE: u64 = 1 << 32;
const REPORT_TIMER_BASE: u64 = 1 << 16;

impl GroupHost {
    /// A host speaking the given IGMP version.
    pub fn new(version: IgmpVersion) -> Self {
        GroupHost {
            version,
            actions: HashMap::new(),
            next_action: ACTION_BASE,
            memberships: HashMap::new(),
            pending_reports: HashMap::new(),
            report_gen: 0,
            received: Vec::new(),
            reports_sent: 0,
            filtered_out: 0,
            hot_data_rx: None,
            sent_groups: std::collections::BTreeSet::new(),
        }
    }

    /// Schedule an action at absolute time `at` (panics if `node` is not a
    /// `GroupHost`).
    pub fn schedule(sim: &mut Sim, node: NodeId, at: SimTime, action: GroupHostAction) {
        let h = sim.agent_as::<GroupHost>(node).expect("not a GroupHost");
        let token = h.next_action;
        h.next_action += 1;
        h.actions.insert(token, action);
        sim.schedule_timer_at(node, at, token);
    }

    /// Packets delivered for `group` (post source-filtering).
    pub fn data_received(&self, group: Ipv4Addr) -> usize {
        self.received.iter().filter(|(_, g, _, _)| *g == group).count()
    }

    fn send_report(&mut self, ctx: &mut Ctx<'_>, group: Ipv4Addr) {
        let Some(m) = self.memberships.get(&group) else { return };
        let payload = match self.version {
            IgmpVersion::V2 => {
                let mut buf = [0u8; IgmpV2::WIRE_LEN];
                IgmpV2::Report { group }.emit(&mut buf).expect("sized");
                buf.to_vec()
            }
            IgmpVersion::V3 => {
                let record = if m.sources.is_empty() {
                    GroupRecord {
                        record_type: RecordType::ModeIsExclude,
                        group,
                        sources: vec![],
                    }
                } else {
                    GroupRecord {
                        record_type: RecordType::ModeIsInclude,
                        group,
                        sources: m.sources.clone(),
                    }
                };
                IgmpV3::Report { records: vec![record] }.to_vec()
            }
        };
        // v2 reports go *to the group* so other members can suppress; v3
        // reports go to the routers' address (no suppression).
        let dst = match self.version {
            IgmpVersion::V2 => group,
            IgmpVersion::V3 => Ipv4Addr::ALL_ROUTERS,
        };
        let pkt = util::unicast_datagram(ctx.my_ip(), dst, Protocol::Igmp, &payload, 1);
        ctx.send(IfaceId(0), &pkt, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
        self.reports_sent += 1;
        ctx.count("igmp.report_tx", 1);
        ctx.trace("igmp.report_tx", |e| e.chan(group));
    }

    fn do_action(&mut self, ctx: &mut Ctx<'_>, action: GroupHostAction) {
        match action {
            GroupHostAction::Join { group, sources } => {
                ctx.audit_changed();
                self.memberships.insert(group, Membership { sources });
                self.send_report(ctx, group);
            }
            GroupHostAction::Leave { group } => {
                if self.memberships.remove(&group).is_some() {
                    ctx.audit_changed();
                    match self.version {
                        IgmpVersion::V2 => {
                            let mut buf = [0u8; IgmpV2::WIRE_LEN];
                            IgmpV2::Leave { group }.emit(&mut buf).expect("sized");
                            let pkt = util::unicast_datagram(
                                ctx.my_ip(),
                                Ipv4Addr::ALL_ROUTERS,
                                Protocol::Igmp,
                                &buf,
                                1,
                            );
                            ctx.send(IfaceId(0), &pkt, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
                            self.reports_sent += 1;
                        }
                        IgmpVersion::V3 => {
                            let msg = IgmpV3::Report {
                                records: vec![GroupRecord {
                                    record_type: RecordType::ChangeToInclude,
                                    group,
                                    sources: vec![], // INCLUDE{} = leave
                                }],
                            };
                            let pkt = util::unicast_datagram(
                                ctx.my_ip(),
                                Ipv4Addr::ALL_ROUTERS,
                                Protocol::Igmp,
                                &msg.to_vec(),
                                1,
                            );
                            ctx.send(IfaceId(0), &pkt, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
                            self.reports_sent += 1;
                        }
                    }
                }
            }
            GroupHostAction::SendData { group, payload_len } => {
                if self.sent_groups.insert(group) {
                    ctx.audit_changed();
                }
                let pkt = util::group_data(ctx.my_ip(), group, payload_len, util::DEFAULT_TTL);
                ctx.send(IfaceId(0), &pkt, TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
                ctx.count("group.data_tx", 1);
            }
        }
    }

    fn on_query(&mut self, ctx: &mut Ctx<'_>, group: Ipv4Addr, max_resp_decisecs: u8) {
        // Schedule a randomized report for each matching membership.
        let groups: Vec<Ipv4Addr> = self
            .memberships
            .keys()
            .copied()
            .filter(|g| group == Ipv4Addr::UNSPECIFIED || *g == group)
            .collect();
        for g in groups {
            self.report_gen += 1;
            let generation = self.report_gen;
            self.pending_reports.insert(g, generation);
            let max_us = u64::from(max_resp_decisecs).max(1) * 100_000;
            let delay = SimDuration::from_micros(ctx.rng().random_range(0..max_us));
            ctx.set_timer(delay, REPORT_TIMER_BASE + generation);
        }
    }
}

impl Agent for GroupHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.hot_data_rx = Some(ctx.counter("group.data_rx"));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
        let Ok(header) = Ipv4Repr::parse(bytes) else { return };
        let payload = &bytes[ipv4::HEADER_LEN..ipv4::HEADER_LEN + header.payload_len];
        match header.protocol {
            Protocol::Igmp => {
                // Try v2 (8 bytes) then v3.
                if let Ok(IgmpV2::Query {
                    group,
                    max_resp_decisecs,
                }) = IgmpV2::parse(payload)
                {
                    self.on_query(ctx, group, max_resp_decisecs);
                } else if let Ok(IgmpV3::Query {
                    group,
                    max_resp_decisecs,
                    ..
                }) = IgmpV3::parse(payload)
                {
                    self.on_query(ctx, group, max_resp_decisecs);
                } else if self.version == IgmpVersion::V2 {
                    // v2 report suppression: a report for a group we were
                    // about to report cancels our pending report.
                    if let Ok(IgmpV2::Report { group }) = IgmpV2::parse(payload) {
                        if header.src != ctx.my_ip() && self.pending_reports.remove(&group).is_some() {
                            ctx.count("igmp.report_suppressed", 1);
                        }
                    }
                }
            }
            Protocol::Udp if header.dst.is_multicast() => {
                if let Some(m) = self.memberships.get(&header.dst) {
                    let included = m.sources.is_empty() || m.sources.contains(&header.src);
                    if included {
                        self.received
                            .push((ctx.now(), header.dst, header.src, header.payload_len));
                        ctx.count_id(self.hot_data_rx.expect("counters are interned in on_start"), 1);
                    } else {
                        // The packet still crossed the last-hop link; the v3
                        // filter only saves the application, not the link —
                        // §2.2.2's point about ISDN last hops.
                        self.filtered_out += 1;
                        ctx.count("group.data_filtered", 1);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(a) = self.actions.remove(&token) {
            self.do_action(ctx, a);
            return;
        }
        if (REPORT_TIMER_BASE..ACTION_BASE).contains(&token) {
            let generation = token - REPORT_TIMER_BASE;
            let group = self
                .pending_reports
                .iter()
                .find(|(_, g)| **g == generation)
                .map(|(k, _)| *k);
            if let Some(g) = group {
                self.pending_reports.remove(&g);
                self.send_report(ctx, g);
            }
        }
    }

    fn audit_state(&self, _topo: &Topology, _node: NodeId) -> Option<AuditNodeState> {
        let mut subscribed: Vec<String> = self.memberships.keys().map(|g| g.to_string()).collect();
        subscribed.sort();
        let sourcing = self.sent_groups.iter().map(|g| (g.to_string(), None)).collect();
        Some(AuditNodeState { subscribed, sourcing, ..Default::default() })
    }
}

/// A standalone IGMP querier: multicasts a general query on interface 0
/// every `interval` (the querier-election winner of a real LAN). Used by
/// the report-suppression experiment.
pub struct IgmpQuerier {
    interval: SimDuration,
    max_resp_decisecs: u8,
    /// Queries sent.
    pub queries_sent: u64,
}

impl IgmpQuerier {
    /// A querier with the given period and max-response time.
    pub fn new(interval: SimDuration, max_resp_decisecs: u8) -> Self {
        IgmpQuerier {
            interval,
            max_resp_decisecs,
            queries_sent: 0,
        }
    }
}

impl Agent for IgmpQuerier {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let mut buf = [0u8; IgmpV2::WIRE_LEN];
        IgmpV2::Query {
            group: Ipv4Addr::UNSPECIFIED,
            max_resp_decisecs: self.max_resp_decisecs,
        }
        .emit(&mut buf)
        .expect("sized");
        let pkt = util::unicast_datagram(ctx.my_ip(), Ipv4Addr::ALL_SYSTEMS, Protocol::Igmp, &buf, 1);
        ctx.send(IfaceId(0), &pkt, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
        self.queries_sent += 1;
        ctx.count("igmp.query_tx", 1);
        ctx.set_timer(self.interval, 0);
    }
}

/// Router-side membership database: which (interface, group) pairs have
/// live local members, with v3 source filters. Shared by every baseline
/// router.
#[derive(Debug, Default)]
pub struct MembershipDb {
    /// (iface, group) → (last refresh, INCLUDE sources; empty = any).
    entries: HashMap<(IfaceId, Ipv4Addr), (SimTime, HashSet<Ipv4Addr>)>,
}

impl MembershipDb {
    /// Fresh, empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Digest an IGMP payload heard on `iface`; returns the groups whose
    /// membership state may have changed.
    pub fn update(&mut self, iface: IfaceId, payload: &[u8], now: SimTime) -> Vec<Ipv4Addr> {
        let mut changed = Vec::new();
        if let Ok(m) = IgmpV2::parse(payload) {
            match m {
                IgmpV2::Report { group } => {
                    self.entries.insert((iface, group), (now, HashSet::new()));
                    changed.push(group);
                }
                IgmpV2::Leave { group } => {
                    if self.entries.remove(&(iface, group)).is_some() {
                        changed.push(group);
                    }
                }
                IgmpV2::Query { .. } => {}
            }
            return changed;
        }
        if let Ok(IgmpV3::Report { records }) = IgmpV3::parse(payload) {
            for r in records {
                match r.record_type {
                    RecordType::ModeIsInclude | RecordType::ChangeToInclude => {
                        if r.sources.is_empty() {
                            // INCLUDE{} = leave.
                            if self.entries.remove(&(iface, r.group)).is_some() {
                                changed.push(r.group);
                            }
                        } else {
                            self.entries
                                .insert((iface, r.group), (now, r.sources.iter().copied().collect()));
                            changed.push(r.group);
                        }
                    }
                    RecordType::ModeIsExclude | RecordType::ChangeToExclude => {
                        self.entries.insert((iface, r.group), (now, HashSet::new()));
                        changed.push(r.group);
                    }
                    RecordType::AllowNewSources | RecordType::BlockOldSources => {
                        if let Some((t, set)) = self.entries.get_mut(&(iface, r.group)) {
                            *t = now;
                            for s in &r.sources {
                                if r.record_type == RecordType::AllowNewSources {
                                    set.insert(*s);
                                } else {
                                    set.remove(s);
                                }
                            }
                            changed.push(r.group);
                        }
                    }
                }
            }
        }
        changed
    }

    /// Any member for `group` on any interface?
    pub fn any_members(&self, group: Ipv4Addr) -> bool {
        self.entries.keys().any(|(_, g)| *g == group)
    }

    /// Interfaces with members for `group`, as a `u32` port mask
    /// (bit *i* set ⇔ `IfaceId(i)` has members). The bitmap form the
    /// forwarding paths walk with `trailing_zeros` — no allocation, and
    /// ascending-bit iteration matches the old sorted-`Vec` order exactly.
    pub fn member_mask(&self, group: Ipv4Addr) -> u32 {
        let mut m = 0u32;
        for (i, g) in self.entries.keys() {
            if *g == group {
                m |= 1u32 << i.0;
            }
        }
        m
    }

    /// All groups with any membership.
    pub fn groups(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self.entries.keys().map(|(_, g)| *g).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Drop entries not refreshed within `horizon`; returns affected groups.
    pub fn expire(&mut self, now: SimTime, horizon: SimDuration) -> Vec<Ipv4Addr> {
        let mut changed = Vec::new();
        self.entries.retain(|(_, g), (t, _)| {
            let keep = now.since(*t) <= horizon;
            if !keep {
                changed.push(*g);
            }
            keep
        });
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(224, 1, 1, n)
    }

    #[test]
    fn membership_db_v2_join_leave() {
        let mut db = MembershipDb::new();
        let mut buf = [0u8; IgmpV2::WIRE_LEN];
        IgmpV2::Report { group: g(1) }.emit(&mut buf).unwrap();
        let changed = db.update(IfaceId(0), &buf, SimTime(0));
        assert_eq!(changed, vec![g(1)]);
        assert_eq!(db.member_mask(g(1)), 1 << 0, "a member on interface 0 only");
        IgmpV2::Leave { group: g(1) }.emit(&mut buf).unwrap();
        db.update(IfaceId(0), &buf, SimTime(1));
        assert!(!db.any_members(g(1)));
    }

    #[test]
    fn membership_db_v3_include_exclude() {
        let mut db = MembershipDb::new();
        let s = Ipv4Addr::new(10, 0, 0, 1);
        let rep = IgmpV3::Report {
            records: vec![GroupRecord {
                record_type: RecordType::ChangeToInclude,
                group: g(2),
                sources: vec![s],
            }],
        };
        db.update(IfaceId(3), &rep.to_vec(), SimTime(0));
        assert_eq!(db.member_mask(g(2)), 1 << 3);
        // INCLUDE{} leaves.
        let leave = IgmpV3::Report {
            records: vec![GroupRecord {
                record_type: RecordType::ChangeToInclude,
                group: g(2),
                sources: vec![],
            }],
        };
        db.update(IfaceId(3), &leave.to_vec(), SimTime(1));
        assert!(!db.any_members(g(2)));
    }

    #[test]
    fn membership_expiry() {
        let mut db = MembershipDb::new();
        let mut buf = [0u8; IgmpV2::WIRE_LEN];
        IgmpV2::Report { group: g(1) }.emit(&mut buf).unwrap();
        db.update(IfaceId(0), &buf, SimTime(0));
        let changed = db.expire(SimTime(10_000_000), SimDuration::from_secs(5));
        assert_eq!(changed, vec![g(1)]);
        assert!(!db.any_members(g(1)));
    }

    #[test]
    fn member_ifaces_dedup() {
        let mut db = MembershipDb::new();
        let mut buf = [0u8; IgmpV2::WIRE_LEN];
        IgmpV2::Report { group: g(1) }.emit(&mut buf).unwrap();
        db.update(IfaceId(0), &buf, SimTime(0));
        db.update(IfaceId(2), &buf, SimTime(0));
        assert_eq!(db.member_mask(g(1)), 0b101);
        assert_eq!(db.member_mask(g(2)), 0);
        assert_eq!(db.groups(), vec![g(1)]);
    }
}
