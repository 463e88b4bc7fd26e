//! End-to-end tests for the baseline protocols: PIM-SM, CBT, DVMRP, IGMP
//! suppression, and the unicast fan-out comparison.

use express_wire::addr::Ipv4Addr;
use mcast_baselines::igmp::{GroupHost, GroupHostAction, IgmpQuerier, IgmpVersion};
use mcast_baselines::{CbtRouter, DvmrpRouter, PimConfig, PimRouter};
use netsim::id::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::LinkSpec;
use netsim::{Sim, Topology};

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

fn g1() -> Ipv4Addr {
    Ipv4Addr::new(224, 5, 5, 5)
}

/// A triangle r0–r1–r2 with the RP at r2, the source host on r0 and the
/// receiver host on r1. The shared-tree path detours src→r0→r2(RP)→r1→rcv
/// (4 links); the source tree runs src→r0→r1→rcv (3 links).
struct PimTopo {
    sim: Sim,
    src: NodeId,
    rcv: NodeId,
}

fn pim_topo(spt_threshold: Option<u64>) -> PimTopo {
    let mut t = Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router(); // RP
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(r0, r2, LinkSpec::default()).unwrap();
    t.connect(r1, r2, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let rcv = t.add_host();
    t.connect(rcv, r1, LinkSpec::default()).unwrap();
    let rp_ip = t.ip(r2);
    let mut sim = Sim::new(t, 7);
    for r in [r0, r1, r2] {
        let cfg = PimConfig {
            spt_threshold,
            ..PimConfig::new(rp_ip)
        };
        sim.set_agent(r, Box::new(PimRouter::new(cfg)));
    }
    sim.set_agent(src, Box::new(GroupHost::new(IgmpVersion::V2)));
    sim.set_agent(rcv, Box::new(GroupHost::new(IgmpVersion::V2)));
    PimTopo {
        sim,
        src,
        rcv,
    }
}

#[test]
fn pim_sm_delivers_via_rp_then_spt() {
    let mut pt = pim_topo(Some(0));
    GroupHost::schedule(&mut pt.sim, pt.rcv, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    // A stream of packets: the first arrives via register/RP; later ones
    // natively once the SPT is up.
    for i in 0..20 {
        GroupHost::schedule(
            &mut pt.sim,
            pt.src,
            at_ms(500 + i * 100),
            GroupHostAction::SendData { group: g1(), payload_len: 100 },
        );
    }
    pt.sim.run_until(at_ms(10_000));
    let rcv = pt.sim.agent_as::<GroupHost>(pt.rcv).unwrap();
    assert!(rcv.data_received(g1()) >= 18, "stream delivered: {}", rcv.data_received(g1()));
    // Registers flowed, then stopped; an SPT switch happened somewhere.
    let stats = pt.sim.stats();
    let registers = stats.named("pim.register_tx");
    let switches = stats.named("pim.spt_switch");
    let stops = stats.named("pim.register_stop_tx");
    assert!(registers >= 1, "DR registered to the RP");
    assert!(switches >= 1, "last-hop switched to the SPT");
    assert!(stops >= 1, "RP sent RegisterStop");
    assert!(
        registers < 20,
        "registers stopped after the SPT was established (saw {registers})"
    );
}

#[test]
fn pim_shared_tree_has_delay_stretch_vs_spt() {
    // With switchover disabled, every packet detours via the RP; with
    // first-packet switchover, steady-state packets take the direct path.
    // Compare last-packet delivery latency.
    fn last_latency(spt: Option<u64>) -> u64 {
        let mut pt = pim_topo(spt);
        GroupHost::schedule(&mut pt.sim, pt.rcv, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
        let send_at = at_ms(5_000);
        // Warm the tree with earlier packets.
        for i in 0..10 {
            GroupHost::schedule(
                &mut pt.sim,
                pt.src,
                at_ms(500 + i * 100),
                GroupHostAction::SendData { group: g1(), payload_len: 100 },
            );
        }
        GroupHost::schedule(&mut pt.sim, pt.src, send_at, GroupHostAction::SendData { group: g1(), payload_len: 100 });
        pt.sim.run_until(at_ms(20_000));
        let rcv = pt.sim.agent_as::<GroupHost>(pt.rcv).unwrap();
        let (t, _, _, _) = *rcv.received.last().expect("delivered");
        t.micros() - send_at.micros()
    }
    let shared = last_latency(None);
    let spt = last_latency(Some(0));
    assert!(
        shared > spt,
        "shared tree detour ({shared}µs) must exceed source tree ({spt}µs)"
    );
}

#[test]
fn cbt_bidirectional_delivery_between_members() {
    // line: h0 - r0 - r1 - r2 - h1, core at r1. Both hosts join; h0 sends;
    // h1 receives via the bidirectional tree.
    let mut t = Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router();
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(r1, r2, LinkSpec::default()).unwrap();
    let h0 = t.add_host();
    t.connect(h0, r0, LinkSpec::default()).unwrap();
    let h1 = t.add_host();
    t.connect(h1, r2, LinkSpec::default()).unwrap();
    let core = t.ip(r1);
    let mut sim = Sim::new(t, 8);
    for r in [r0, r1, r2] {
        sim.set_agent(r, Box::new(CbtRouter::new(core)));
    }
    sim.set_agent(h0, Box::new(GroupHost::new(IgmpVersion::V2)));
    sim.set_agent(h1, Box::new(GroupHost::new(IgmpVersion::V2)));

    GroupHost::schedule(&mut sim, h0, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    GroupHost::schedule(&mut sim, h1, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    GroupHost::schedule(&mut sim, h0, at_ms(500), GroupHostAction::SendData { group: g1(), payload_len: 10 });
    sim.run_until(at_ms(2000));

    let rcv = sim.agent_as::<GroupHost>(h1).unwrap();
    assert_eq!(rcv.data_received(g1()), 1, "bidirectional delivery works");
    // All three routers are on the tree.
    for r in [r0, r1, r2] {
        assert!(sim.agent_as::<CbtRouter>(r).unwrap().on_tree(g1()), "router on tree");
    }
}

#[test]
fn cbt_nonmember_sender_tunnels_to_core() {
    // h_s attached to r_s is NOT a member; its traffic must tunnel to the
    // core and distribute from there.
    let mut t = Topology::new();
    let rs = t.add_router();
    let rc = t.add_router(); // core
    let rm = t.add_router();
    t.connect(rs, rc, LinkSpec::default()).unwrap();
    t.connect(rc, rm, LinkSpec::default()).unwrap();
    let hs = t.add_host();
    t.connect(hs, rs, LinkSpec::default()).unwrap();
    let hm = t.add_host();
    t.connect(hm, rm, LinkSpec::default()).unwrap();
    let core = t.ip(rc);
    let mut sim = Sim::new(t, 9);
    for r in [rs, rc, rm] {
        sim.set_agent(r, Box::new(CbtRouter::new(core)));
    }
    sim.set_agent(hs, Box::new(GroupHost::new(IgmpVersion::V2)));
    sim.set_agent(hm, Box::new(GroupHost::new(IgmpVersion::V2)));
    GroupHost::schedule(&mut sim, hm, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    GroupHost::schedule(&mut sim, hs, at_ms(500), GroupHostAction::SendData { group: g1(), payload_len: 10 });
    sim.run_until(at_ms(2000));
    let rcv = sim.agent_as::<GroupHost>(hm).unwrap();
    assert_eq!(rcv.data_received(g1()), 1);
    assert_eq!(sim.stats().named("cbt.tunnel_tx"), 1, "non-member data tunnelled");
}

#[test]
fn dvmrp_floods_then_prunes() {
    // Star of 4 branches; only one has a member. The first packet floods
    // all branches; prunes come back; the second packet uses only the
    // member branch. Non-member routers hold prune state.
    let g = netsim::topogen::star(4, 2, LinkSpec::default());
    let mut sim = Sim::new(g.topo.clone(), 10);
    for &r in &g.routers {
        sim.set_agent(r, Box::new(DvmrpRouter::new()));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(GroupHost::new(IgmpVersion::V2)));
    }
    let src = g.hosts[0];
    let member = g.hosts[1];
    GroupHost::schedule(&mut sim, member, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    GroupHost::schedule(&mut sim, src, at_ms(500), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    sim.run_until(at_ms(5_000));
    let flood_bytes = sim.stats().total().data_bytes;

    let member_rx = sim.agent_as::<GroupHost>(member).unwrap().data_received(g1());
    assert_eq!(member_rx, 1, "member got the flooded packet");

    // Prune state sits in routers serving no members — the cost §8 calls
    // non-scalable.
    let prune_entries: usize = g
        .routers
        .iter()
        .map(|&r| sim.agent_as::<DvmrpRouter>(r).unwrap().prune_state_entries())
        .sum();
    assert!(prune_entries > 0, "prune state exists: {prune_entries}");

    // Second packet: only the member path carries data.
    GroupHost::schedule(&mut sim, src, at_ms(6_000), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    sim.run_until(at_ms(12_000));
    let second_bytes = sim.stats().total().data_bytes - flood_bytes;
    assert!(
        second_bytes < flood_bytes / 2,
        "post-prune traffic ({second_bytes}B) far below flood ({flood_bytes}B)"
    );
    assert_eq!(sim.agent_as::<GroupHost>(member).unwrap().data_received(g1()), 2);
}

#[test]
fn igmpv2_suppression_vs_igmpv3_no_suppression() {
    fn run(version: IgmpVersion) -> u64 {
        let mut t = Topology::new();
        let q = t.add_router();
        let hosts: Vec<NodeId> = (0..10).map(|_| t.add_host()).collect();
        let mut members = vec![q];
        members.extend(&hosts);
        t.add_lan(&members, LinkSpec::lan()).unwrap();
        let mut sim = Sim::new(t, 11);
        sim.set_agent(q, Box::new(IgmpQuerier::new(SimDuration::from_secs(10), 50)));
        for &h in &hosts {
            sim.set_agent(h, Box::new(GroupHost::new(version)));
            GroupHost::schedule(&mut sim, h, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
        }
        // Run through exactly one query round: the query fires at t=10s and
        // every response lands within its 5s max-resp window, well before
        // the second query at t=20s — so the cutoff can neither truncate
        // round one nor pick up early round-two responses regardless of the
        // per-host response-delay draws.
        sim.run_until(SimTime(18_000_000));
        // Subtract the 10 unsolicited join reports; what remains is the
        // query-round response traffic.
        let total: u64 = hosts
            .iter()
            .map(|&h| sim.agent_as::<GroupHost>(h).unwrap().reports_sent)
            .sum();
        total - 10
    }
    let v2 = run(IgmpVersion::V2);
    let v3 = run(IgmpVersion::V3);
    assert_eq!(v3, 10, "v3: every member answers (no suppression)");
    assert!(v2 < v3, "v2 suppression reduced reports: v2={v2} v3={v3}");
    assert!(v2 >= 1, "at least one v2 report per round");
}

#[test]
fn igmpv3_source_filter_blocks_unwanted_sender_at_host_not_link() {
    // Two senders to the same group; a v3 INCLUDE(S1) member only delivers
    // S1's data, but S2's packets still crossed its access link — EXPRESS
    // would have dropped them in the network.
    let mut t = Topology::new();
    let r = t.add_router();
    let s1 = t.add_host();
    let s2 = t.add_host();
    let m = t.add_host();
    t.connect(s1, r, LinkSpec::default()).unwrap();
    t.connect(s2, r, LinkSpec::default()).unwrap();
    let access = t.connect(m, r, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 12);
    sim.set_agent(r, Box::new(DvmrpRouter::new())); // any flooding router
    for h in [s1, s2, m] {
        sim.set_agent(h, Box::new(GroupHost::new(IgmpVersion::V3)));
    }
    let s1_ip = sim.topology().ip(s1);
    GroupHost::schedule(&mut sim, m, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![s1_ip] });
    GroupHost::schedule(&mut sim, s1, at_ms(500), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    GroupHost::schedule(&mut sim, s2, at_ms(600), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    sim.run_until(at_ms(3_000));
    let member = sim.agent_as::<GroupHost>(m).unwrap();
    assert_eq!(member.data_received(g1()), 1, "only S1 delivered");
    assert_eq!(member.filtered_out, 1, "S2 filtered at the host");
    // But both packets crossed the member's access link.
    assert_eq!(sim.stats().link(access).data_packets, 2);
}

#[test]
fn dvmrp_prune_expiry_refloods() {
    // Prune state has a lifetime; after expiry, flooding resumes (the
    // periodic-broadcast cost §8 calls non-scalable).
    let g = netsim::topogen::star(2, 1, LinkSpec::default());
    let mut sim = Sim::new(g.topo.clone(), 40);
    for &r in &g.routers {
        sim.set_agent(
            r,
            Box::new(DvmrpRouter::with_prune_lifetime(SimDuration::from_secs(3))),
        );
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(GroupHost::new(IgmpVersion::V2)));
    }
    let src = g.hosts[0];
    // NO members anywhere: every packet floods, gets pruned, and floods
    // again after the prune expires.
    GroupHost::schedule(&mut sim, src, at_ms(500), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    sim.run_until(at_ms(2_000));
    let bytes_first_flood = sim.stats().total().data_bytes;
    // Within the prune lifetime: packet travels only to the first-hop
    // (pruned beyond).
    GroupHost::schedule(&mut sim, src, at_ms(2_000), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    sim.run_until(at_ms(3_400));
    let bytes_suppressed = sim.stats().total().data_bytes - bytes_first_flood;
    // After expiry (t > 3.5s from the prune): flooding resumes.
    GroupHost::schedule(&mut sim, src, at_ms(6_000), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    sim.run_until(at_ms(8_000));
    let bytes_reflood = sim.stats().total().data_bytes - bytes_first_flood - bytes_suppressed;
    assert!(
        bytes_suppressed < bytes_first_flood,
        "prunes suppressed flooding: {bytes_suppressed} < {bytes_first_flood}"
    );
    assert!(
        bytes_reflood > bytes_suppressed,
        "expired prunes re-flood: {bytes_reflood} > {bytes_suppressed}"
    );
}

#[test]
fn pim_join_state_expires_without_refresh() {
    // PIM soft state: downstream joins expire at holdtime when the
    // refreshing router vanishes.
    let mut t = Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let rcv = t.add_host();
    t.connect(rcv, r1, LinkSpec::default()).unwrap();
    let rp = t.ip(r0);
    let mut sim = Sim::new(t, 41);
    let mk = |refresh: u64, hold: u64| {
        let mut c = PimConfig::new(rp);
        c.join_refresh = SimDuration::from_secs(refresh);
        c.holdtime = SimDuration::from_secs(hold);
        c
    };
    sim.set_agent(r0, Box::new(PimRouter::new(mk(60, 10))));
    sim.set_agent(r1, Box::new(PimRouter::new(mk(60, 10))));
    sim.set_agent(src, Box::new(GroupHost::new(IgmpVersion::V2)));
    sim.set_agent(rcv, Box::new(GroupHost::new(IgmpVersion::V2)));
    GroupHost::schedule(&mut sim, rcv, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    sim.run_until(at_ms(1_000));
    // r0 holds a live (*,G) join from r1.
    {
        let r = sim.agent_as::<PimRouter>(r0).unwrap();
        assert_eq!(r.state_entries(), 1);
    }
    // Silence r1 (no refresh): after the 10 s holdtime + margin, data sent
    // down the shared tree reaches nobody because the join expired.
    sim.set_agent(r1, Box::new(netsim::engine::NullAgent));
    sim.set_agent(rcv, Box::new(netsim::engine::NullAgent));
    sim.run_until(at_ms(15_000));
    GroupHost::schedule(&mut sim, src, at_ms(15_000), GroupHostAction::SendData { group: g1(), payload_len: 50 });
    sim.run_until(at_ms(16_000));
    // The r0→r1 link carried no data after expiry (join no longer live).
    let l01 = netsim::LinkId(0);
    assert_eq!(
        sim.stats().link(l01).data_packets,
        0,
        "expired join stops shared-tree forwarding"
    );
}

#[test]
fn pim_rejoins_over_alternate_path_after_link_failure() {
    // Triangle r0-r1-r2 with the RP at r2, source on r0, receiver on r1.
    // The receiver's (*,G) join runs over the direct r1-r2 link; when that
    // link dies, the topology-change hook must re-send the join toward the
    // RP via r0 immediately — well before the 60 s soft-state refresh.
    let mut t = Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router(); // RP
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(r0, r2, LinkSpec::default()).unwrap();
    let l12 = t.connect(r1, r2, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let rcv = t.add_host();
    t.connect(rcv, r1, LinkSpec::default()).unwrap();
    let rp_ip = t.ip(r2);
    let mut sim = Sim::new(t, 61);
    for r in [r0, r1, r2] {
        // Pure shared tree: no SPT switchover muddying the path analysis.
        let cfg = PimConfig { spt_threshold: None, ..PimConfig::new(rp_ip) };
        sim.set_agent(r, Box::new(PimRouter::new(cfg)));
    }
    sim.set_agent(src, Box::new(GroupHost::new(IgmpVersion::V2)));
    sim.set_agent(rcv, Box::new(GroupHost::new(IgmpVersion::V2)));

    GroupHost::schedule(&mut sim, rcv, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    for i in 0..5 {
        GroupHost::schedule(&mut sim, src, at_ms(500 + i * 100), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    }
    sim.run_until(at_ms(2_000));
    let before = sim.agent_as::<GroupHost>(rcv).unwrap().data_received(g1());
    assert!(before >= 4, "shared-tree delivery up before the fault: {before}");

    sim.schedule_link_change(at_ms(2_500), l12, false);
    for i in 0..5 {
        GroupHost::schedule(&mut sim, src, at_ms(4_000 + i * 100), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    }
    sim.run_until(at_ms(6_000)); // far below join_refresh = 60 s
    assert!(sim.stats().named("pim.recovery_rejoin") >= 1, "topology-change hook fired");
    let after = sim.agent_as::<GroupHost>(rcv).unwrap().data_received(g1());
    assert!(
        after >= before + 4,
        "delivery resumed via r0 after the re-join: {before} -> {after}"
    );
}

#[test]
fn dvmrp_refloods_via_alternate_path_after_link_failure() {
    // Triangle r0-r1-r2; source on r0, member on r1, r2 memberless. After
    // the first flood r2 prunes itself off. When the r0-r1 link dies, the
    // flushed prune state lets traffic re-flood through r2 to the member —
    // the broadcast-and-prune re-convergence the paper's conclusion calls
    // non-scalable, but recovery nonetheless.
    let mut t = Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router();
    let l01 = t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(r0, r2, LinkSpec::default()).unwrap();
    t.connect(r1, r2, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let rcv = t.add_host();
    t.connect(rcv, r1, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 62);
    for r in [r0, r1, r2] {
        sim.set_agent(r, Box::new(DvmrpRouter::new()));
    }
    sim.set_agent(src, Box::new(GroupHost::new(IgmpVersion::V2)));
    sim.set_agent(rcv, Box::new(GroupHost::new(IgmpVersion::V2)));

    GroupHost::schedule(&mut sim, rcv, at_ms(1), GroupHostAction::Join { group: g1(), sources: vec![] });
    for i in 0..3 {
        GroupHost::schedule(&mut sim, src, at_ms(500 + i * 100), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    }
    sim.run_until(at_ms(2_000));
    let before = sim.agent_as::<GroupHost>(rcv).unwrap().data_received(g1());
    assert_eq!(before, 3, "direct-path delivery before the fault");
    let pruned: usize = [r0, r1, r2]
        .iter()
        .map(|&r| sim.agent_as::<DvmrpRouter>(r).unwrap().prune_state_entries())
        .sum();
    assert!(pruned > 0, "r2 pruned itself off before the fault");

    sim.schedule_link_change(at_ms(2_500), l01, false);
    for i in 0..3 {
        GroupHost::schedule(&mut sim, src, at_ms(4_000 + i * 100), GroupHostAction::SendData { group: g1(), payload_len: 100 });
    }
    sim.run_until(at_ms(6_000)); // far below the 2 h prune lifetime
    assert!(sim.stats().named("dvmrp.recovery_flush") >= 1, "prune state flushed on topology change");
    let after = sim.agent_as::<GroupHost>(rcv).unwrap().data_received(g1());
    assert_eq!(after, 6, "re-flood through r2 reached the member: {before} -> {after}");
}
