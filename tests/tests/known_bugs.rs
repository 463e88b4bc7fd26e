//! The two protocol bugs ROADMAP item 1 names, each as the smallest
//! reproduction built from the workspace crates alone. Both tests are
//! ignored until the fix lands; `cargo test --test known_bugs -- --ignored`
//! shows them failing.
//!
//! The oracle is the forwarding state itself: from the source's router,
//! follow each FIB's outgoing interfaces into neighbours whose own entry
//! accepts on that interface, and collect the hosts reached. At quiescence
//! that set must be exactly the members.

use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::LinkSpec;
use netsim::{IfaceId, LinkId, NodeId, NodeKind, Sim, Topology};
use std::collections::BTreeSet;

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// The hosts `chan`'s FIBs deliver to, walking down from `root`.
fn fib_reach(sim: &mut Sim, root: NodeId, chan: Channel) -> BTreeSet<NodeId> {
    let topo = sim.topology().clone();
    let mut entry = |r: NodeId| sim.agent_as::<EcmpRouter>(r).and_then(|r| r.fib().get(chan).copied());
    let (mut reached, mut stack) = (BTreeSet::new(), vec![root]);
    while let Some(r) = stack.pop() {
        let Some(e) = entry(r) else { continue };
        for oif in e.oifs() {
            for (n, at) in topo.neighbors_on(r, IfaceId(oif)) {
                match topo.kind(n) {
                    NodeKind::Host => {
                        reached.insert(n);
                    }
                    NodeKind::Router if entry(n).is_some_and(|e| e.in_iface() == at.0) => stack.push(n),
                    NodeKind::Router => {}
                }
            }
        }
    }
    reached
}

/// `routers` with one host each, every router running `cfg`; the first
/// host sources the channel and the hosts at `members` subscribe.
fn express_net(mut t: Topology, routers: &[NodeId], cfg: RouterConfig, members: &[usize]) -> (Sim, Vec<NodeId>, Channel) {
    let hosts: Vec<_> = routers
        .iter()
        .map(|&r| {
            let h = t.add_host();
            t.connect(h, r, LinkSpec::default()).unwrap();
            h
        })
        .collect();
    let mut sim = Sim::new(t, 1);
    for &r in routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(cfg)));
    }
    for &h in &hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(sim.topology().ip(hosts[0]), 1).unwrap();
    for (i, &m) in members.iter().enumerate() {
        ExpressHost::schedule(&mut sim, hosts[m], at_ms(1 + i as u64), HostAction::Subscribe { channel: chan, key: None });
    }
    (sim, hosts, chan)
}

fn flap(sim: &mut Sim, link: LinkId, down_ms: u64, up_ms: u64) {
    sim.schedule_link_change(at_ms(down_ms), link, false);
    sim.schedule_link_change(at_ms(up_ms), link, true);
}

/// Bug (i). The 4-cycle r0–r1–r2–r3–r0, the source behind r0, a member
/// behind each other router; r2 joins through r1. Flapping r1–r2 moves r2
/// to r3, held down until 6 s. Cutting r0–r1 at 5.5 s re-homes r1
/// sideways onto r2, held down until 7.5 s. When r0–r1 returns at 7.1 s,
/// r2 (free again) re-homes back to r1, but r1 still lists r2 as its
/// upstream and drops the join as "a Count from my upstream"; at 7.5 s r1
/// moves on to r0 without it, and r2's member is cut off for good.
///
/// One flap alone does not do it on a 4-cycle: the routers it re-homes are
/// held down until the same instant, and the re-homes they then make all
/// go out before any of their joins arrive.
#[test]
#[ignore = "bug (i): an on-cycle flap re-homes a subtree onto a router that still lists it as upstream and drops its join"]
fn an_on_cycle_flap_leaves_every_member_on_the_tree() {
    let mut t = Topology::new();
    let r: Vec<_> = (0..4).map(|_| t.add_router()).collect();
    let cycle: Vec<_> = (0..4).map(|i| t.connect(r[i], r[(i + 1) % 4], LinkSpec::default()).unwrap()).collect();
    let (mut sim, hosts, chan) = express_net(t, &r, RouterConfig::default(), &[1, 2, 3]);
    flap(&mut sim, cycle[1], 4_000, 4_100);
    flap(&mut sim, cycle[0], 5_500, 7_100);
    sim.run_until(at_ms(60_000));
    assert_eq!(fib_reach(&mut sim, r[0], chan), hosts[1..].iter().copied().collect());
}

/// Bug (ii). A chain of eight routers with the only member at its far end
/// and neighbour probes off, so every hop takes the default 200 ms off a
/// query's budget: a 500 ms subscriberId `CountQuery` reaches the third
/// hop with the 10 ms floor, and from there each parent times out before
/// its child can answer. The starved routers reply `Count(0)`, which their
/// parents take as an unsubscription, and the member is pruned.
#[test]
#[ignore = "bug (ii): a partial CountQuery reply of 0 is taken as an unsubscription and prunes a live member"]
fn a_starved_count_query_prunes_no_member() {
    let mut t = Topology::new();
    let r: Vec<_> = (0..8).map(|_| t.add_router()).collect();
    for w in r.windows(2) {
        t.connect(w[0], w[1], LinkSpec::default()).unwrap();
    }
    let cfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };
    let (mut sim, hosts, chan) = express_net(t, &r, cfg, &[7]);
    let query = HostAction::CountQuery {
        channel: chan,
        count_id: CountId::SUBSCRIBERS,
        timeout: SimDuration::from_millis(500),
    };
    ExpressHost::schedule(&mut sim, hosts[0], at_ms(2_000), query);
    sim.run_until(at_ms(60_000));
    assert_eq!(fib_reach(&mut sim, r[0], chan), BTreeSet::from([hosts[7]]));
}
