//! End-to-end protocol tests: EXPRESS hosts and ECMP routers on simulated
//! topologies, exercising subscription, forwarding, access control,
//! counting, subcast, proactive counting, and failure recovery.

use express::host::{ExpressHost, HostAction, HostEvent};
use express::proactive::ErrorToleranceCurve;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use netsim::id::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{NodeKind, Sim};

/// Attach ECMP routers to all routers and EXPRESS hosts to all hosts.
fn express_sim(g: &topogen::GenTopo, seed: u64) -> Sim {
    let mut sim = Sim::new(g.topo.clone(), seed);
    for node in g.topo.node_ids() {
        match g.topo.kind(node) {
            NodeKind::Router => sim.set_agent(node, Box::new(EcmpRouter::new(RouterConfig::default()))),
            NodeKind::Host => sim.set_agent(node, Box::new(ExpressHost::new())),
        }
    }
    sim
}

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

fn channel_of(sim: &Sim, source: NodeId, chan: u32) -> Channel {
    Channel::new(sim.topology().ip(source), chan).unwrap()
}

#[test]
fn subscribe_then_receive_data_line() {
    let g = topogen::line(4, LinkSpec::default());
    let mut sim = express_sim(&g, 1);
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = channel_of(&sim, src, 7);

    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    for i in 0..5 {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(500 + i * 10),
            HostAction::SendData { channel: chan, payload_len: 100 },
        );
    }
    sim.run_until(at_ms(1000));

    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(h.data_received(chan), 5, "all five data packets delivered");
    // Every router on the path has exactly one FIB entry of 12 bytes.
    for &r in &g.routers {
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        assert_eq!(router.fib().len(), 1, "router {r} FIB");
        assert_eq!(router.fib().memory_bytes(), 12);
    }
}

#[test]
fn tree_fanout_no_duplicates() {
    let g = topogen::kary_tree(2, 3, LinkSpec::default());
    let mut sim = express_sim(&g, 2);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 1);
    for &h in &g.hosts[1..] {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    ExpressHost::schedule(&mut sim, src, at_ms(500), HostAction::SendData { channel: chan, payload_len: 64 });
    sim.run_until(at_ms(1000));

    for &h in &g.hosts[1..] {
        let host = sim.agent_as::<ExpressHost>(h).unwrap();
        assert_eq!(host.data_received(chan), 1, "exactly one copy at each leaf");
    }
    // Multicast efficiency: the data crossed each tree link once. The tree
    // has 1 (src) + 2 + 4 + 8 router links + 8 host links = 23 data
    // transmissions for 8 receivers, versus 8 * 5 hops = 40 for unicast.
    assert_eq!(sim.stats().total().data_packets, 23);
}

#[test]
fn unsubscribe_prunes_tree_and_stops_delivery() {
    let g = topogen::line(3, LinkSpec::default());
    let mut sim = express_sim(&g, 3);
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = channel_of(&sim, src, 9);

    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    ExpressHost::schedule(&mut sim, src, at_ms(100), HostAction::SendData { channel: chan, payload_len: 10 });
    ExpressHost::schedule(&mut sim, sub, at_ms(200), HostAction::Unsubscribe { channel: chan });
    ExpressHost::schedule(&mut sim, src, at_ms(400), HostAction::SendData { channel: chan, payload_len: 10 });
    sim.run_until(at_ms(800));

    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(h.data_received(chan), 1, "only the pre-unsubscribe packet");
    for &r in &g.routers {
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        assert_eq!(router.fib().len(), 0, "FIB pruned everywhere");
        assert_eq!(router.channel_count(), 0, "management state freed");
    }
}

#[test]
fn unauthorized_sender_counted_and_dropped() {
    // §1 problem 3 / §3.4: a third party sending to the same E is harmless —
    // (S',E) matches no FIB entry and is counted and dropped at the first
    // router.
    let g = topogen::line(3, LinkSpec::default());
    let mut sim = express_sim(&g, 4);
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let legit = channel_of(&sim, src, 5);
    // The subscriber host itself turns rogue sender on (sub, same E).
    let rogue = channel_of(&sim, sub, 5);

    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: legit, key: None });
    ExpressHost::schedule(&mut sim, sub, at_ms(100), HostAction::SendData { channel: rogue, payload_len: 999 });
    ExpressHost::schedule(&mut sim, src, at_ms(200), HostAction::SendData { channel: legit, payload_len: 10 });
    sim.run_until(at_ms(600));

    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(h.data_received(legit), 1);
    assert_eq!(h.data_received(rogue), 0);
    // The rogue packet died at the subscriber's first-hop router.
    let total_no_entry: u64 = g
        .routers
        .iter()
        .map(|&r| sim.agent_as::<EcmpRouter>(r).unwrap().counters().data_no_entry)
        .sum();
    assert_eq!(total_no_entry, 1);
    assert_eq!(sim.stats().named("express.no_entry_drop"), 1);
}

#[test]
fn authenticated_subscription_good_and_bad_key() {
    let g = topogen::kary_tree(2, 2, LinkSpec::default());
    let mut sim = express_sim(&g, 5);
    let src = g.hosts[0];
    let good = g.hosts[1];
    let bad = g.hosts[2];
    let chan = channel_of(&sim, src, 3);
    const KEY: u64 = 0xFEED_FACE_CAFE_BEEF;

    ExpressHost::schedule(&mut sim, src, at_ms(1), HostAction::InstallKey { channel: chan, key: KEY });
    ExpressHost::schedule(&mut sim, good, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(KEY) });
    ExpressHost::schedule(&mut sim, bad, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(123) });
    ExpressHost::schedule(&mut sim, src, at_ms(500), HostAction::SendData { channel: chan, payload_len: 10 });
    sim.run_until(at_ms(1000));

    let hg = sim.agent_as::<ExpressHost>(good).unwrap();
    assert!(hg
        .events
        .iter()
        .any(|e| matches!(e, HostEvent::SubscriptionResult { ok: true, .. })));
    assert_eq!(hg.data_received(chan), 1);

    let hb = sim.agent_as::<ExpressHost>(bad).unwrap();
    assert!(hb
        .events
        .iter()
        .any(|e| matches!(e, HostEvent::SubscriptionResult { ok: false, .. })));
    assert_eq!(hb.data_received(chan), 0);
    assert!(!hb.is_subscribed(chan));
}

#[test]
fn keyless_join_to_authenticated_channel_rejected_at_source() {
    let g = topogen::line(2, LinkSpec::default());
    let mut sim = express_sim(&g, 6);
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = channel_of(&sim, src, 4);
    ExpressHost::schedule(&mut sim, src, at_ms(1), HostAction::InstallKey { channel: chan, key: 42 });
    // Keyless join: propagates to the source, which does not confirm; the
    // subscriber is locally optimistic but gets no data only if routers
    // know the key. Without a cached key routers admit it tentatively, so
    // the source's InvalidAuthenticator must tear it down.
    ExpressHost::schedule(&mut sim, sub, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(41) });
    ExpressHost::schedule(&mut sim, src, at_ms(500), HostAction::SendData { channel: chan, payload_len: 10 });
    sim.run_until(at_ms(1000));
    let hb = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(hb.data_received(chan), 0);
}

#[test]
fn cached_key_rejects_locally_second_bad_join() {
    // After one good authenticated join, routers cache K and reject a bad
    // key locally (§3.2) — the denial comes back fast and auth_rejects
    // increments at the edge router, not the source.
    let g = topogen::kary_tree(2, 1, LinkSpec::default());
    let mut sim = express_sim(&g, 7);
    let src = g.hosts[0];
    let good = g.hosts[1];
    let bad = g.hosts[2];
    let chan = channel_of(&sim, src, 8);
    const KEY: u64 = 777;
    ExpressHost::schedule(&mut sim, src, at_ms(1), HostAction::InstallKey { channel: chan, key: KEY });
    ExpressHost::schedule(&mut sim, good, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(KEY) });
    // Much later, a bad join arrives at the shared root router.
    ExpressHost::schedule(&mut sim, bad, at_ms(500), HostAction::Subscribe { channel: chan, key: Some(1) });
    sim.run_until(at_ms(1500));
    let rejects: u64 = g
        .routers
        .iter()
        .map(|&r| sim.agent_as::<EcmpRouter>(r).unwrap().counters().auth_rejects)
        .sum();
    assert!(rejects >= 1, "a router rejected locally from cache");
    let hb = sim.agent_as::<ExpressHost>(bad).unwrap();
    assert!(hb
        .events
        .iter()
        .any(|e| matches!(e, HostEvent::SubscriptionResult { ok: false, .. })));
}

#[test]
fn count_query_returns_subscriber_count() {
    let g = topogen::kary_tree(2, 3, LinkSpec::default());
    let mut sim = express_sim(&g, 8);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 2);
    let n = g.hosts.len() - 1; // 8 leaves
    for &h in &g.hosts[1..] {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    ExpressHost::schedule(
        &mut sim,
        src,
        at_ms(1000),
        HostAction::CountQuery {
            channel: chan,
            count_id: CountId::SUBSCRIBERS,
            timeout: SimDuration::from_secs(10),
        },
    );
    sim.run_until(at_ms(20_000));
    let host = sim.agent_as::<ExpressHost>(src).unwrap();
    let results = host.count_results();
    assert_eq!(results.len(), 1, "one CountResult: {results:?}");
    assert_eq!(results[0].3, n as u64, "counted all subscribers");
}

#[test]
fn application_vote_query() {
    // §2.2.1: an Internet TV station polls its subscribers; hosts answer an
    // application-defined countId with values they set (votes).
    let g = topogen::kary_tree(2, 2, LinkSpec::default());
    let mut sim = express_sim(&g, 9);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 2);
    let vote_id = CountId(CountId::APPLICATION_BASE + 5);
    for (i, &h) in g.hosts[1..].iter().enumerate() {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
        // Hosts 0,1 vote 1; the rest vote 0.
        ExpressHost::schedule(
            &mut sim,
            h,
            at_ms(5),
            HostAction::SetAppValue { count_id: vote_id, value: u64::from(i < 2) },
        );
    }
    ExpressHost::schedule(
        &mut sim,
        src,
        at_ms(1000),
        HostAction::CountQuery { channel: chan, count_id: vote_id, timeout: SimDuration::from_secs(10) },
    );
    sim.run_until(at_ms(20_000));
    let host = sim.agent_as::<ExpressHost>(src).unwrap();
    let results = host.count_results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].2, vote_id);
    assert_eq!(results[0].3, 2, "two yes votes");
    // The query reached subscriber applications.
    let delivered: usize = g.hosts[1..]
        .iter()
        .map(|&h| {
            sim.agent_as::<ExpressHost>(h)
                .unwrap()
                .events
                .iter()
                .filter(|e| matches!(e, HostEvent::AppQueryDelivered { .. }))
                .count()
        })
        .sum();
    assert_eq!(delivered, 4);
}

#[test]
fn links_count_is_network_layer_and_skips_hosts() {
    let g = topogen::kary_tree(2, 2, LinkSpec::default());
    let mut sim = express_sim(&g, 10);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 2);
    for &h in &g.hosts[1..] {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    sim.run_until(at_ms(900));
    // Router-initiated count (§3.1): the root router counts tree links in
    // its domain.
    let root = g.routers[0];
    {
        let topo = sim.topology().clone();
        let _ = topo;
    }
    // Drive the initiation through a timer-free direct call: we need a Ctx,
    // so instead use the source host path with the LINKS countId.
    ExpressHost::schedule(
        &mut sim,
        src,
        at_ms(1000),
        HostAction::CountQuery { channel: chan, count_id: CountId::LINKS, timeout: SimDuration::from_secs(10) },
    );
    sim.run_until(at_ms(20_000));
    let host = sim.agent_as::<ExpressHost>(src).unwrap();
    let results = host.count_results();
    assert_eq!(results.len(), 1);
    // Tree: root router has 2 downstream ifaces, each mid router has 2,
    // each leaf router has 1 (to its host) = 2 + 2*2 + 4*1 = 10 links.
    assert_eq!(results[0].3, 10, "links used by the channel");
    let _ = root;
}

#[test]
fn subcast_reaches_only_downstream_subtree() {
    // §2.1: relaying a packet through an internal tree node delivers to the
    // subtree below that node only.
    let g = topogen::kary_tree(2, 2, LinkSpec::default());
    let mut sim = express_sim(&g, 11);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 6);
    for &h in &g.hosts[1..] {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    // The left mid-level router (routers[1]) covers exactly 2 leaves.
    let mid = g.routers[1];
    let mid_ip = sim.topology().ip(mid);
    ExpressHost::schedule(
        &mut sim,
        src,
        at_ms(500),
        HostAction::Subcast { channel: chan, via: mid_ip, payload_len: 50 },
    );
    sim.run_until(at_ms(1500));
    let received: Vec<usize> = g.hosts[1..]
        .iter()
        .map(|&h| sim.agent_as::<ExpressHost>(h).unwrap().data_received(chan))
        .collect();
    let total: usize = received.iter().sum();
    assert_eq!(total, 2, "only the 2-leaf subtree under the mid router: {received:?}");
}

#[test]
fn link_failure_rehomes_and_data_flows_again() {
    // Diamond: src -- r0 -- {r1, r2} -- r3 -- sub, with the primary path
    // through r1. Killing r0-r1 must re-home the channel through r2.
    let mut t = netsim::Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router();
    let r3 = t.add_router();
    let l01 = t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(r0, r2, LinkSpec::default()).unwrap();
    t.connect(r1, r3, LinkSpec::default()).unwrap();
    t.connect(r2, r3, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let sub = t.add_host();
    t.connect(sub, r3, LinkSpec::default()).unwrap();

    let mut sim = Sim::new(t, 12);
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
    sim.schedule_link_change(at_ms(300), l01, false);
    // After failure + hysteresis, data must flow via r2.
    for i in 0..5 {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(1000 + i * 50),
            HostAction::SendData { channel: chan, payload_len: 10 },
        );
    }
    sim.run_until(at_ms(3000));
    let h = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert_eq!(h.data_received(chan), 6, "pre-failure packet + 5 post-rehome packets");
    let rehomes: u64 = [r0, r1, r2, r3]
        .iter()
        .map(|&r| sim.agent_as::<EcmpRouter>(r).unwrap().counters().rehomes)
        .sum();
    assert!(rehomes >= 1, "at least one channel re-home occurred");
}

#[test]
fn proactive_counting_estimates_track_actual() {
    let g = topogen::kary_tree(2, 3, LinkSpec::default());
    let mut sim = express_sim(&g, 13);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 2);
    // Enable proactive counting before anyone joins.
    ExpressHost::schedule(
        &mut sim,
        src,
        at_ms(1),
        HostAction::EnableProactive {
            channel: chan,
            count_id: CountId::SUBSCRIBERS,
            curve: ErrorToleranceCurve::new(4.0, 10.0), // fast τ for the test
        },
    );
    for (i, &h) in g.hosts[1..].iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            h,
            SimTime((100 + i as u64 * 500) * 1000),
            HostAction::Subscribe { channel: chan, key: None },
        );
    }
    sim.run_until(SimTime(60_000_000)); // 60 s ≫ τ
    let host = sim.agent_as::<ExpressHost>(src).unwrap();
    let series = host.estimate_series(chan);
    assert!(!series.is_empty(), "proactive updates reached the source");
    let last = series.last().unwrap().1;
    assert_eq!(last, 8, "estimate converged to the actual 8 subscribers");
}

#[test]
fn determinism_full_protocol_run() {
    fn run(seed: u64) -> (u64, u64, usize) {
        let g = topogen::random_connected(20, 8, 10, LinkSpec::default(), 55);
        let mut sim = express_sim(&g, seed);
        let src = g.hosts[0];
        let chan = channel_of(&sim, src, 1);
        for &h in &g.hosts[1..] {
            ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
        }
        ExpressHost::schedule(&mut sim, src, at_ms(500), HostAction::SendData { channel: chan, payload_len: 100 });
        sim.run_until(at_ms(2000));
        let delivered: usize = g.hosts[1..]
            .iter()
            .map(|&h| sim.agent_as::<ExpressHost>(h).unwrap().data_received(chan))
            .sum();
        (
            sim.stats().total().bytes(),
            sim.events_processed(),
            delivered,
        )
    }
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "identical seed ⇒ identical run");
    assert_eq!(a.2, 9, "all subscribers got the packet");
}

#[test]
fn channels_with_same_e_are_independent() {
    // Figure 1: (S,E) and (S',E) are unrelated. Two sources use the same E;
    // each subscriber hears only its designated source.
    let g = topogen::kary_tree(2, 2, LinkSpec::default());
    let mut sim = express_sim(&g, 14);
    let src_a = g.hosts[1];
    let src_b = g.hosts[2];
    let sub_a = g.hosts[3];
    let sub_b = g.hosts[4];
    let chan_a = channel_of(&sim, src_a, 42);
    let chan_b = channel_of(&sim, src_b, 42); // same E, different S
    ExpressHost::schedule(&mut sim, sub_a, at_ms(1), HostAction::Subscribe { channel: chan_a, key: None });
    ExpressHost::schedule(&mut sim, sub_b, at_ms(1), HostAction::Subscribe { channel: chan_b, key: None });
    ExpressHost::schedule(&mut sim, src_a, at_ms(500), HostAction::SendData { channel: chan_a, payload_len: 11 });
    ExpressHost::schedule(&mut sim, src_b, at_ms(500), HostAction::SendData { channel: chan_b, payload_len: 22 });
    sim.run_until(at_ms(1500));
    let ha = sim.agent_as::<ExpressHost>(sub_a).unwrap();
    assert_eq!(ha.data_received(chan_a), 1);
    assert_eq!(ha.data_received(chan_b), 0);
    let hb = sim.agent_as::<ExpressHost>(sub_b).unwrap();
    assert_eq!(hb.data_received(chan_b), 1);
    assert_eq!(hb.data_received(chan_a), 0);
}

#[test]
fn mixed_keys_behind_one_neighbor_denial_is_key_scoped() {
    // Regression: a LAN with both valid and invalid subscribers behind the
    // same edge router. The InvalidAuthenticator verdict for the bad key
    // must not destroy the transit routers' state for the validated
    // subscribers on the same branch.
    let mut t = netsim::Topology::new();
    let r_src = t.add_router();
    let r_mid = t.add_router();
    let r_edge = t.add_router();
    t.connect(r_src, r_mid, LinkSpec::default()).unwrap();
    t.connect(r_mid, r_edge, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, r_src, LinkSpec::default()).unwrap();
    let good1 = t.add_host();
    let good2 = t.add_host();
    let bad = t.add_host();
    t.add_lan(&[r_edge, good1, good2, bad], LinkSpec::lan()).unwrap();

    let mut sim = Sim::new(t, 77);
    for r in [r_src, r_mid, r_edge] {
        sim.set_agent(r, Box::new(EcmpRouter::new(RouterConfig::default())));
    }
    for h in [src, good1, good2, bad] {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(sim.topology().ip(src), 3).unwrap();
    const KEY: u64 = 0xABCD;
    ExpressHost::schedule(&mut sim, src, at_ms(1), HostAction::InstallKey { channel: chan, key: KEY });
    // All three join simultaneously; the denial races the validations.
    ExpressHost::schedule(&mut sim, good1, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(KEY) });
    ExpressHost::schedule(&mut sim, bad, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(1) });
    ExpressHost::schedule(&mut sim, good2, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(KEY) });
    for i in 0..3 {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(1_000 + i * 100),
            HostAction::SendData { channel: chan, payload_len: 50 },
        );
    }
    ExpressHost::schedule(
        &mut sim,
        src,
        at_ms(2_000),
        HostAction::CountQuery {
            channel: chan,
            count_id: CountId::SUBSCRIBERS,
            timeout: SimDuration::from_secs(10),
        },
    );
    sim.run_until(at_ms(20_000));

    for h in [good1, good2] {
        let host = sim.agent_as::<ExpressHost>(h).unwrap();
        assert_eq!(host.data_received(chan), 3, "validated subscriber kept receiving");
    }
    let hb = sim.agent_as::<ExpressHost>(bad).unwrap();
    assert_eq!(hb.data_received(chan), 0);
    assert!(!hb.is_subscribed(chan));
    let src_host = sim.agent_as::<ExpressHost>(src).unwrap();
    let results = src_host.count_results();
    assert_eq!(results[0].3, 2, "exactly the two valid subscribers counted");
}

#[test]
fn neighbor_discovery_finds_neighbors_and_samples_rtt() {
    // §3.3: periodic NEIGHBORS probes discover adjacent ECMP speakers and
    // (here) feed the RTT estimator used by the per-hop timeout decrement.
    let g = topogen::line(3, LinkSpec::default());
    let mut sim = express_sim(&g, 31);
    sim.run_until(at_ms(40_000)); // past the first probe round
    let mid = g.routers[1];
    let router = sim.agent_as::<EcmpRouter>(mid).unwrap();
    let nbrs = router.discovered_neighbors();
    assert_eq!(nbrs.len(), 2, "both adjacent routers discovered: {nbrs:?}");
    for (addr, _) in &nbrs {
        let rtt = router.rtt_to(*addr).expect("RTT sampled");
        // 1 ms links ⇒ ~2 ms RTT (+ serialization).
        let ms = rtt.millis();
        assert!((1..=5).contains(&ms), "plausible RTT, got {rtt}");
    }
}

#[test]
fn router_initiated_link_count_without_source_cooperation() {
    // §3.1: "the ingress router for transit domain D might initiate a query
    // to count the number of links used within D" — no source involvement.
    let g = topogen::kary_tree(2, 2, LinkSpec::default());
    let mut sim = express_sim(&g, 32);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 2);
    for &h in &g.hosts[1..] {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    sim.run_until(at_ms(500));
    // The root router (the "domain ingress") counts tree links below it.
    let root = g.routers[0];
    EcmpRouter::schedule_local_count(
        &mut sim,
        root,
        at_ms(1_000),
        chan,
        CountId::LINKS,
        SimDuration::from_secs(10),
    );
    sim.run_until(at_ms(20_000));
    let router = sim.agent_as::<EcmpRouter>(root).unwrap();
    assert_eq!(router.local_results().len(), 1, "one local result");
    let (_, c, id, links) = router.local_results()[0];
    assert_eq!(c, chan);
    assert_eq!(id, CountId::LINKS);
    // Below the root: 2 mid ifaces + 2*2 leaf-router ifaces + root's own 2
    // downstream ifaces = 2 + 4 + ... root contributes 2, mids 2 each,
    // leaves 1 each: 2 + 2*2 + 4*1 = 10.
    assert_eq!(links, 10, "links used by the channel under the ingress");
}

#[test]
fn udp_mode_silent_host_expires_and_prunes() {
    // §3.2 UDP mode: entries not refreshed within refresh × robustness
    // expire. A host that vanishes silently (its link dies without the
    // router noticing at the ECMP layer... here the host agent is simply
    // replaced) stops answering general queries; the router prunes.
    let g = topogen::line(2, LinkSpec::default());
    let mut sim = Sim::new(g.topo.clone(), 33);
    for &r in &g.routers {
        sim.set_agent(
            r,
            Box::new(EcmpRouter::new(RouterConfig {
                udp_refresh: SimDuration::from_secs(2),
                mode_override: Some(express::packets::EcmpMode::Udp),
                ..Default::default()
            })),
        );
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = channel_of(&sim, src, 1);
    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    sim.run_until(at_ms(1_000));
    let edge = g.routers[1];
    assert!(sim.agent_as::<EcmpRouter>(edge).unwrap().on_tree(chan));
    // The subscriber silently dies (agent replaced with a fresh host that
    // knows nothing of the subscription and so will not answer refreshes).
    sim.set_agent(sub, Box::new(ExpressHost::new()));
    // The entry's last refresh was the join, just after t = 0. It outlives
    // two refresh periods and is gone by the sweep that ends the third.
    sim.run_until(at_ms(5_000));
    assert!(sim.agent_as::<EcmpRouter>(edge).unwrap().on_tree(chan), "kept for 2 refresh periods");
    sim.run_until(at_ms(6_010));
    assert!(!sim.agent_as::<EcmpRouter>(edge).unwrap().on_tree(chan), "expired within 3 refresh periods");
    sim.run_until(at_ms(30_000));
    let router = sim.agent_as::<EcmpRouter>(edge).unwrap();
    assert!(!router.on_tree(chan), "stale subscription expired and pruned");
    assert_eq!(router.fib().len(), 0);
}

#[test]
fn tcp_mode_link_failure_subtracts_counts() {
    // §3.2 TCP mode: "The associated count is subtracted from the sum
    // provided upstream if the connection fails."
    let g = topogen::kary_tree(2, 1, LinkSpec::default());
    let mut sim = express_sim(&g, 34);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 1);
    for &h in &g.hosts[1..] {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    sim.run_until(at_ms(1_000));
    let root = g.routers[0];
    assert_eq!(sim.agent_as::<EcmpRouter>(root).unwrap().downstream_of(chan).len(), 2);
    // Kill the link from the root to the first leaf router. That subtree's
    // count must vanish at the root (no alternate path exists in a tree).
    let leaf_r = g.routers[1];
    let l = g.topo.link_of(leaf_r, netsim::IfaceId(0)).unwrap();
    sim.schedule_link_change(at_ms(2_000), l, false);
    sim.run_until(at_ms(10_000));
    let router = sim.agent_as::<EcmpRouter>(root).unwrap();
    let remaining = router.downstream_of(chan);
    assert_eq!(remaining.len(), 1, "dead subtree subtracted: {remaining:?}");
}

#[test]
fn ttl_expiry_drops_data() {
    // A long path with a small TTL: the packet dies mid-path and the drop
    // is counted.
    let g = topogen::line(70, LinkSpec::default());
    let mut sim = express_sim(&g, 35);
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = channel_of(&sim, src, 1);
    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    // Default TTL is 64 but the path is 70 routers long.
    ExpressHost::schedule(&mut sim, src, at_ms(1_000), HostAction::SendData { channel: chan, payload_len: 10 });
    sim.run_until(at_ms(5_000));
    assert_eq!(sim.agent_as::<ExpressHost>(sub).unwrap().data_received(chan), 0);
    assert_eq!(sim.stats().named("express.ttl_drop"), 1);
}

#[test]
fn subscription_to_unreachable_source_rejected() {
    // The source is partitioned away before the join: the first router
    // cannot resolve an RPF hop and answers NoSuchChannel.
    let mut t = netsim::Topology::new();
    let r = t.add_router();
    let island_r = t.add_router(); // never connected to r
    let src = t.add_host();
    t.connect(src, island_r, LinkSpec::default()).unwrap();
    let sub = t.add_host();
    t.connect(sub, r, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 36);
    sim.set_agent(r, Box::new(EcmpRouter::new(RouterConfig::default())));
    sim.set_agent(island_r, Box::new(EcmpRouter::new(RouterConfig::default())));
    sim.set_agent(src, Box::new(ExpressHost::new()));
    sim.set_agent(sub, Box::new(ExpressHost::new()));
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    // A keyed subscription (so a verdict is expected back).
    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: Some(7) });
    sim.run_until(at_ms(5_000));
    let host = sim.agent_as::<ExpressHost>(sub).unwrap();
    assert!(
        host.events
            .iter()
            .any(|e| matches!(e, HostEvent::SubscriptionResult { ok: false, .. })),
        "join to an unreachable source is refused: {:?}",
        host.events
    );
    let router = sim.agent_as::<EcmpRouter>(netsim::NodeId(0)).unwrap();
    assert!(!router.on_tree(chan));
}

#[test]
fn keepalive_detects_silent_tcp_neighbor_death() {
    // §3.2: TCP mode has no per-channel refresh, so a *silently* dead
    // downstream router (process crash, not a link event) is detected by
    // the per-neighbor keepalive and its counts subtracted upstream.
    let g = topogen::line(3, LinkSpec::default());
    let cfg = RouterConfig {
        mode_override: Some(express::packets::EcmpMode::Tcp),
        udp_refresh: SimDuration::from_secs(3600), // no UDP refresh rescue
        neighbor_probe: Some(SimDuration::from_secs(2)),
        ..Default::default()
    };
    let mut sim = Sim::new(g.topo.clone(), 91);
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(cfg)));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let src = g.hosts[0];
    let sub = g.hosts[1];
    let chan = channel_of(&sim, src, 1);
    ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    sim.run_until(at_ms(10_000)); // tree up; probes have discovered neighbors
    let root = g.routers[0];
    assert!(sim.agent_as::<EcmpRouter>(root).unwrap().on_tree(chan));
    // The downstream router silently dies: replace BOTH it and the
    // subscriber host with amnesiac agents that answer nothing.
    sim.set_agent(g.routers[1], Box::new(netsim::engine::NullAgent));
    sim.set_agent(g.routers[2], Box::new(netsim::engine::NullAgent));
    sim.set_agent(sub, Box::new(netsim::engine::NullAgent));
    sim.run_until(at_ms(40_000)); // > 3 probe intervals
    let router = sim.agent_as::<EcmpRouter>(root).unwrap();
    assert!(
        !router.on_tree(chan),
        "silent neighbor expired via keepalive; counts subtracted"
    );
    assert!(sim.stats().named("ecmp.keepalive_prune") >= 1);
}

#[test]
fn weighted_tree_size_counts_link_metrics() {
    // §2.1's "weighted tree size measure": downstream links contribute
    // their routing metric, so an expensive WAN link counts more than a
    // cheap LAN hop.
    let mut t = netsim::Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let r2 = t.add_router();
    // r0-r1 cheap (metric 1); r0-r2 expensive (metric 10).
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(
        r0,
        r2,
        LinkSpec {
            metric: 10,
            ..LinkSpec::default()
        },
    )
    .unwrap();
    let src = t.add_host();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    let h1 = t.add_host();
    t.connect(h1, r1, LinkSpec::default()).unwrap();
    let h2 = t.add_host();
    t.connect(h2, r2, LinkSpec::default()).unwrap();
    let mut sim = Sim::new(t, 71);
    for r in [r0, r1, r2] {
        sim.set_agent(r, Box::new(EcmpRouter::new(RouterConfig::default())));
    }
    for h in [src, h1, h2] {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    ExpressHost::schedule(&mut sim, h1, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    ExpressHost::schedule(&mut sim, h2, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    sim.run_until(at_ms(500));
    EcmpRouter::schedule_local_count(
        &mut sim,
        r0,
        at_ms(1_000),
        chan,
        CountId::WEIGHTED_TREE_SIZE,
        SimDuration::from_secs(10),
    );
    sim.run_until(at_ms(20_000));
    let router = sim.agent_as::<EcmpRouter>(r0).unwrap();
    let (_, _, _, weight) = router.local_results()[0];
    // r0 contributes 1 (to r1) + 10 (to r2); r1 and r2 contribute their
    // host links (metric 1 each) = 13 total.
    assert_eq!(weight, 13, "metric-weighted tree size");
}

#[test]
fn tcp_batching_coalesces_multi_channel_teardown() {
    // A link failure tears down many channels at once; the zero-Counts to
    // the upstream neighbor must share segments (§5.3 batching), not go
    // one datagram per channel.
    let g = topogen::line(3, LinkSpec::default());
    let mut sim = express_sim(&g, 72);
    let src = g.hosts[0];
    let sub = g.hosts[1];
    const N: u32 = 100;
    for c in 0..N {
        let chan = channel_of(&sim, src, c);
        ExpressHost::schedule(&mut sim, sub, at_ms(1 + u64::from(c)), HostAction::Subscribe { channel: chan, key: None });
    }
    sim.run_until(at_ms(1_000));
    let ctrl_before = sim.stats().total().control_packets;
    // Kill the sub-side link: the edge router prunes 100 channels upstream
    // in ONE event; all 100 zero-Counts coalesce into segments.
    let edge = g.routers[2];
    let l = g.topo.link_of(g.hosts[1], netsim::IfaceId(0)).unwrap();
    let _ = edge;
    sim.schedule_link_change(at_ms(2_000), l, false);
    sim.run_until(at_ms(10_000));
    let batched = sim.stats().named("ecmp.batched_msgs");
    assert!(batched >= u64::from(N), "teardown messages batched: {batched}");
    let ctrl_packets = sim.stats().total().control_packets - ctrl_before;
    // 100 channels × 2 hops of prunes would be ~200 unbatched datagrams;
    // batching packs 67 per segment → a handful.
    assert!(
        ctrl_packets <= 20,
        "batched teardown used few packets: {ctrl_packets}"
    );
}

#[test]
fn generic_proactive_counting_maintains_live_vote_tally() {
    // §6: "A source can request that proactive counting be used for ANY
    // countId" — here an application-defined vote. As subscribers change
    // their votes, the tally at the source updates through the routers'
    // error-tolerance curves without any polling.
    let g = topogen::kary_tree(2, 2, LinkSpec::default());
    let mut sim = express_sim(&g, 88);
    let src = g.hosts[0];
    let chan = channel_of(&sim, src, 1);
    let vote_id = CountId(CountId::APPLICATION_BASE + 9);
    for &h in &g.hosts[1..] {
        ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    sim.run_until(at_ms(500));
    ExpressHost::schedule(
        &mut sim,
        src,
        at_ms(500),
        HostAction::EnableProactive {
            channel: chan,
            count_id: vote_id,
            curve: ErrorToleranceCurve::new(4.0, 5.0),
        },
    );
    // Votes trickle in: all four subscribers vote 1, then one retracts.
    for (i, &h) in g.hosts[1..].iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            h,
            at_ms(2_000 + i as u64 * 1_000),
            HostAction::SetAppValue { count_id: vote_id, value: 1 },
        );
    }
    ExpressHost::schedule(
        &mut sim,
        g.hosts[1],
        at_ms(20_000),
        HostAction::SetAppValue { count_id: vote_id, value: 0 },
    );
    sim.run_until(at_ms(60_000));
    let host = sim.agent_as::<ExpressHost>(src).unwrap();
    let series = host.maintained_series(chan, vote_id);
    assert!(!series.is_empty(), "tally updates reached the source");
    // It rose to 4, then settled at 3 after the retraction.
    let peak = series.iter().map(|(_, v)| *v).max().unwrap();
    let last = series.last().unwrap().1;
    assert_eq!(peak, 4, "full tally observed: {series:?}");
    assert_eq!(last, 3, "retraction propagated: {series:?}");
}
