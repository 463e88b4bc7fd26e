//! Fault-injection recovery tests: every fault type in
//! `docs/FAILURE_MODEL.md` driven against live ECMP protocol state.
//!
//! The engine-level semantics of each fault (state discard, timer epochs,
//! link restoration) are tested in `netsim::faults`; these tests assert the
//! *protocol* contract on top — §3.2's split between TCP-mode
//! connection-failure detection and UDP-mode refresh expiry, re-homing
//! around dead links, exponential-backoff re-join of orphaned subtrees,
//! and count re-aggregation after an aggregator restart.

use express::host::{ExpressHost, HostAction};
use express::packets::EcmpMode;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::LinkSpec;
use netsim::trace::{TraceConfig, TraceKind};
use netsim::{topogen, FaultPlan, LinkId, NodeKind, Sim};

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// The (unique) router-to-router link in a `topogen::line` topology's
/// first router's link set.
fn router_link(g: &topogen::GenTopo) -> LinkId {
    g.topo
        .links_of(g.routers[0])
        .into_iter()
        .find(|&l| {
            g.topo.endpoints(l).all(|(n, _)| g.topo.kind(n) == NodeKind::Router)
        })
        .expect("line topology has a router-router link")
}

/// LinkDown + LinkUp: a flap on the primary path of a diamond. Because
/// routing re-converges event-driven and the §3.2 re-home (current Count
/// to the new upstream, zero Count to the old) follows immediately, the
/// delivery gap is only the convergence window: a tight stream bracketing
/// the fault loses the frames in flight on the dead link plus those
/// arriving before the new upstream's Count lands, and nothing else —
/// including across the link's later restoration.
#[test]
fn link_flap_mid_multicast_reconverges_and_delivery_resumes() {
    // Diamond: src - r0 - {r1, r2} - r3 - sub; initial tree through r1.
    let mut t = netsim::Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router();
    let r3 = t.add_router();
    let l01 = t.connect(r0, r1, LinkSpec::default()).unwrap();
    let l02 = t.connect(r0, r2, LinkSpec::default()).unwrap();
    t.connect(r1, r3, LinkSpec::default()).unwrap();
    t.connect(r2, r3, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let sub = t.add_host();
    t.connect(sub, r3, LinkSpec::default()).unwrap();

    let mut sim = Sim::new(t, 41);
    for r in [r0, r1, r2, r3] {
        sim.set_agent(
            r,
            Box::new(EcmpRouter::new(RouterConfig {
                hysteresis: SimDuration::from_millis(100),
                ..Default::default()
            })),
        );
    }
    sim.set_agent(src, Box::new(ExpressHost::new()));
    sim.set_agent(sub, Box::new(ExpressHost::new()));
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();

    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    ExpressHost::schedule(&mut sim, src, at_ms(200), HostAction::SendData { channel: chan, payload_len: 10 });
    sim.run_until(at_ms(250));
    // The two r0→r3 paths are equal cost; flap whichever middle link the
    // tie-break actually put on the tree.
    let primary = if sim.agent_as::<EcmpRouter>(r1).unwrap().on_tree(chan) { l01 } else { l02 };
    FaultPlan::new()
        .link_flap(primary, at_ms(300), at_ms(5_000))
        .apply(&mut sim);
    // A 2 ms-cadence stream bracketing the fault: 31 packets from 280 ms
    // to 340 ms. The ones in flight on l_primary at 300 ms and the ones
    // reaching the pruned upstream before the re-home Count lands are the
    // entire delivery gap.
    let burst = 31u64;
    for i in 0..burst {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(280 + i * 2),
            HostAction::SendData { channel: chan, payload_len: 10 },
        );
    }
    sim.run_until(at_ms(1_000));
    let after_burst = sim.agent_as::<ExpressHost>(sub).unwrap().data_received(chan) as u64;
    assert!(after_burst < 1 + burst, "the fault cost at least one in-flight packet");
    assert!(
        after_burst >= 1 + burst - 6,
        "gap bounded by the convergence window, not a timeout: {after_burst}/{}",
        1 + burst
    );
    assert!(sim.stats().named("ecmp.rehome") >= 2, "channel re-homed around the dead link");
    assert!(sim.stats().named("ecmp.conn_fail_prune") >= 1, "upstream subtracted the dead subtree");

    // Five packets on the recovered tree, then five more after the link
    // returns at 5 s (routing flips back; the re-home must follow).
    for i in 0..5 {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(1_500 + i * 100),
            HostAction::SendData { channel: chan, payload_len: 10 },
        );
    }
    for i in 0..5 {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(6_000 + i * 100),
            HostAction::SendData { channel: chan, payload_len: 10 },
        );
    }
    sim.run_until(at_ms(8_000));
    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(
        h.data_received(chan) as u64,
        after_burst + 10,
        "no further loss after re-convergence, including across the restore"
    );
}

/// RouterCrash + RouterRestart: the crash discards all channel/count soft
/// state; the restarted router's startup general query (the IGMP
/// startup-query analogue) re-aggregates edge subscriptions well within
/// one UDP refresh interval, and the rebuilt Count re-joins upstream.
#[test]
fn router_crash_drops_state_and_udp_refresh_rebuilds() {
    let g = topogen::line(2, LinkSpec::default());
    let cfg = RouterConfig {
        udp_refresh: SimDuration::from_secs(2),
        mode_override: Some(EcmpMode::Udp),
        neighbor_probe: None,
        hysteresis: SimDuration::from_millis(100),
        ..Default::default()
    };
    let mut sim = Sim::new(g.topo.clone(), 42);
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(cfg)));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    let root = g.routers[0]; // src side
    let edge = g.routers[1]; // sub side — the crash victim

    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    ExpressHost::schedule(&mut sim, src, at_ms(1_000), HostAction::SendData { channel: chan, payload_len: 10 });
    let restart_cfg = RouterConfig { boot_query: true, ..cfg };
    sim.set_restart_factory(edge, Box::new(move || Box::new(EcmpRouter::new(restart_cfg))));
    FaultPlan::new().crash_restart(edge, at_ms(2_000), at_ms(3_000)).apply(&mut sim);

    sim.run_until(at_ms(2_500));
    // Mid-outage: the victim's agent (and with it all channel state) is
    // gone, and the upstream subtracted the dead subtree's count.
    assert!(sim.agent_as::<EcmpRouter>(edge).is_none(), "crash discarded the router agent");
    assert!(
        !sim.agent_as::<EcmpRouter>(root).unwrap().on_tree(chan),
        "upstream pruned the crashed subtree"
    );

    ExpressHost::schedule(&mut sim, src, at_ms(4_000), HostAction::SendData { channel: chan, payload_len: 10 });
    sim.run_until(at_ms(5_000)); // restart + 2 s = one refresh interval
    assert!(sim.stats().named("ecmp.boot_query") >= 1, "restarted router sent the startup query");
    assert!(
        sim.agent_as::<EcmpRouter>(edge).unwrap().on_tree(chan),
        "edge subscription re-aggregated from host refresh answers"
    );
    assert!(
        sim.agent_as::<EcmpRouter>(root).unwrap().on_tree(chan),
        "rebuilt count re-joined upstream"
    );
    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(h.data_received(chan), 2, "delivery resumed after the rebuild");
}

/// §3.2's central contrast, asserted with the Stats control-traffic
/// ledger: an established TCP-mode tree generates *zero* control packets
/// at steady state ("a periodic refresh of each long-lived channel is
/// unnecessary"), and teardown rides the connection-failure notification —
/// while the identical UDP-mode tree pays a query/refresh every interval.
#[test]
fn tcp_mode_steady_state_is_silent_and_teardown_uses_conn_failure() {
    let g = topogen::line(2, LinkSpec::default());
    let mk = |mode: EcmpMode| RouterConfig {
        udp_refresh: SimDuration::from_secs(2),
        mode_override: Some(mode),
        neighbor_probe: None,
        ..Default::default()
    };
    let run = |mode: EcmpMode| {
        let mut sim = Sim::new(g.topo.clone(), 43);
        for &r in &g.routers {
            sim.set_agent(r, Box::new(EcmpRouter::new(mk(mode))));
        }
        for &h in &g.hosts {
            sim.set_agent(h, Box::new(ExpressHost::new()));
        }
        let chan = Channel::new(sim.topology().ip(g.hosts[0]), 1).unwrap();
        ExpressHost::schedule(&mut sim, g.hosts[1], at_ms(1), HostAction::Subscribe { channel: chan, key: None });
        sim.run_until(at_ms(1_000));
        let settled = sim.stats().total().control_packets;
        sim.run_until(at_ms(61_000)); // 30 refresh intervals later
        let steady = sim.stats().total().control_packets - settled;
        (sim, chan, steady)
    };

    let (mut sim, chan, tcp_steady) = run(EcmpMode::Tcp);
    assert_eq!(tcp_steady, 0, "TCP mode: no periodic refresh traffic at steady state");
    let (_, _, udp_steady) = run(EcmpMode::Udp);
    assert!(udp_steady > 0, "UDP mode pays the periodic query/refresh: {udp_steady}");

    // Teardown: kill the subscriber's access link. The edge router prunes
    // via §3.2 connection-failure detection — not a refresh timeout.
    let l = g.topo.link_of(g.hosts[1], netsim::IfaceId(0)).unwrap();
    sim.schedule_link_change(at_ms(62_000), l, false);
    sim.run_until(at_ms(70_000));
    assert!(sim.stats().named("ecmp.conn_fail_prune") >= 1, "counts subtracted on connection failure");
    assert_eq!(sim.stats().named("ecmp.expire"), 0, "no refresh-expiry involved in TCP mode");
    assert!(
        !sim.agent_as::<EcmpRouter>(g.routers[0]).unwrap().on_tree(chan),
        "tree torn down all the way upstream"
    );
}

/// An orphaned subtree — subscribers present but no RPF route to the
/// source — retries its upstream join with exponential backoff until
/// unicast routing re-converges, then re-joins and delivery resumes.
#[test]
fn orphaned_subtree_rejoins_with_backoff_after_partition_heals() {
    // Same diamond as the flap test, but BOTH middle links die: r3 still
    // holds the subscriber's count yet has no route to src.
    let mut t = netsim::Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router();
    let r3 = t.add_router();
    let l13 = t.connect(r1, r3, LinkSpec::default()).unwrap();
    let l23 = t.connect(r2, r3, LinkSpec::default()).unwrap();
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(r0, r2, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let sub = t.add_host();
    t.connect(sub, r3, LinkSpec::default()).unwrap();

    let mut sim = Sim::new(t, 44);
    for r in [r0, r1, r2, r3] {
        sim.set_agent(
            r,
            Box::new(EcmpRouter::new(RouterConfig {
                hysteresis: SimDuration::from_millis(100),
                ..Default::default()
            })),
        );
    }
    sim.set_agent(src, Box::new(ExpressHost::new()));
    sim.set_agent(sub, Box::new(ExpressHost::new()));
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();

    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    ExpressHost::schedule(&mut sim, src, at_ms(1_500), HostAction::SendData { channel: chan, payload_len: 10 });
    FaultPlan::new()
        .link_down(l13, at_ms(2_000))
        .link_down(l23, at_ms(2_000))
        .link_up(l23, at_ms(70_000))
        .apply(&mut sim);
    ExpressHost::schedule(&mut sim, src, at_ms(5_000), HostAction::SendData { channel: chan, payload_len: 10 });
    for i in 0..3 {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(71_000 + i * 500),
            HostAction::SendData { channel: chan, payload_len: 10 },
        );
    }
    sim.enable_trace(TraceConfig::default());
    sim.run_until(at_ms(73_000));

    // Backoff retries fired while partitioned without finding a route:
    // attempt k 0.5 s · 2ᵏ after the one before it, the delay capped at
    // 30 s, counted from the orphaning at 2.1 s (the cut plus the 100 ms
    // hysteresis)...
    let trace = sim.take_trace().unwrap();
    assert_eq!(trace.overwritten(), 0, "the ring holds the whole run");
    let retries: Vec<(u64, u64)> = trace
        .events()
        .filter_map(|e| match &e.kind {
            TraceKind::Proto { event, .. } if &*event.name == "ecmp.rejoin_retry" && event.counter.is_none() => {
                Some((e.at.0 / 1000, event.value.unwrap()))
            }
            _ => None,
        })
        .collect();
    let (mut at, mut delay) = (2_100, 500);
    let expected: Vec<(u64, u64)> = (0..7)
        .map(|attempt| {
            at += delay.min(30_000);
            delay *= 2;
            (at, attempt)
        })
        .collect();
    assert_eq!(retries, expected, "exponential-backoff retries while orphaned");
    // ...and once l23 returned, the subtree re-joined and data flowed.
    assert!(sim.agent_as::<EcmpRouter>(r3).unwrap().on_tree(chan));
    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(
        h.data_received(chan),
        4,
        "pre-fault packet + 3 post-heal packets; the mid-partition packet lost"
    );
}

/// LossBurst: a 100 % loss window on the backbone link drops datagrams —
/// data packets — but does not perturb the Reliable (TCP-mode) control
/// plane, so the tree survives untouched and delivery resumes the moment
/// the window closes. No re-home, no expiry, no teardown.
#[test]
fn loss_burst_drops_data_but_tcp_tree_survives() {
    let g = topogen::line(2, LinkSpec::default());
    let mut sim = Sim::new(g.topo.clone(), 45);
    for &r in &g.routers {
        sim.set_agent(
            r,
            Box::new(EcmpRouter::new(RouterConfig {
                mode_override: Some(EcmpMode::Tcp),
                neighbor_probe: None,
                ..Default::default()
            })),
        );
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    let backbone = router_link(&g);

    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    FaultPlan::new()
        .loss_burst(backbone, at_ms(2_000), 1.0, SimDuration::from_secs(2))
        .apply(&mut sim);
    for (i, t) in [1_000u64, 2_500, 3_000, 5_000, 5_500].iter().enumerate() {
        let _ = i;
        ExpressHost::schedule(&mut sim, src, at_ms(*t), HostAction::SendData { channel: chan, payload_len: 10 });
    }
    sim.run_until(at_ms(7_000));

    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(h.data_received(chan), 3, "the two in-burst packets dropped, the rest delivered");
    assert_eq!(sim.stats().named("ecmp.rehome"), 0, "no spurious re-home");
    assert_eq!(sim.stats().named("ecmp.expire"), 0, "no refresh expiry");
    assert_eq!(sim.stats().named("ecmp.conn_fail_prune"), 0, "control plane unaffected by the burst");
    assert!(sim.agent_as::<EcmpRouter>(g.routers[0]).unwrap().on_tree(chan), "tree intact");
}
