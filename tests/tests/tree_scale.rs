//! §5.3's distribution tree with the protocol on, at depth 12: every host
//! of a `kary_tree(2, 12)` joins by the real ECMP exchange, then the source
//! asks one subscriber count. Pinned without the host clock: the control
//! packets each tree link carries, the exact answer, and what the count
//! leaves live on the heap — nothing (docs/INTERNALS.md §10). The
//! benchmark's `tree_1k_observed` runs the same protocol at depth 10, and
//! `tab_tree_scale` this run at depths 14–18.
//!
//! A binary of its own, with one test: the counting allocator
//! (`counting_alloc`) is process-wide, and live bytes are only the tree's
//! while nothing else runs.

use express::host::{ExpressHost, HostAction, HostEvent};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use netsim::time::{SimDuration, SimTime};
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{NodeId, Sim};
use std::sync::atomic::Ordering;

mod counting_alloc;
use counting_alloc::LIVE_BYTES;

const DEPTH: usize = 12;

fn live() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn ctl_packets(sim: &Sim) -> u64 {
    sim.stats().total().control_packets
}

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1_000)
}

/// `src` asks its channel's subscriber count at `t_ms` with a 10 s budget;
/// the run goes on until every deadline the count armed has fired. Returns
/// the answer.
fn count(sim: &mut Sim, src: NodeId, chan: Channel, t_ms: u64) -> u64 {
    let query = HostAction::CountQuery { channel: chan, count_id: CountId::SUBSCRIBERS, timeout: SimDuration::from_secs(10) };
    ExpressHost::schedule(sim, src, at_ms(t_ms), query);
    sim.run_until(at_ms(t_ms + 11_000));
    let host = sim.agent_as::<ExpressHost>(src).unwrap();
    let answers: Vec<u64> = host
        .events
        .drain(..)
        .filter_map(|e| match e {
            HostEvent::CountResult { count, .. } => Some(count),
            _ => None,
        })
        .collect();
    assert_eq!(answers.len(), 1, "{answers:?}");
    answers[0]
}

/// One join wave costs one control packet per tree link, a count two, and
/// the answer is exact. A count leaves the heap as the join left it: the
/// aggregation record, its deadline, the upstream's RTT and the messages
/// it queued are gone once it is answered. Before, each router kept ≈ 1 KB
/// (a map node of pending counts, a timer-table node, an RTT record and
/// the send queue's capacity): 20.6 MB live after the count against 13.8
/// joined, where now 12.0 and 12.0.
#[test]
fn a_finished_count_leaves_nothing_in_the_tree() {
    let g = topogen::kary_tree(2, DEPTH, LinkSpec::default());
    let (src, members) = (g.hosts[0], &g.hosts[1..]);
    let links = g.topo.link_count() as u64;
    let chan = Channel::new(g.topo.ip(src), 1).unwrap();
    let mut sim = Sim::new(g.topo, 1);
    let cfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(cfg)));
    }
    for &h in &g.hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let n = members.len() as u64;
    for (i, &h) in members.iter().enumerate() {
        let at = SimTime(1_000 + i as u64 * 100_000 / n);
        ExpressHost::schedule(&mut sim, h, at, HostAction::Subscribe { channel: chan, key: None });
    }
    sim.run_until(at_ms(2_000));
    assert_eq!(ctl_packets(&sim), links, "one Count up each tree link");

    // The engine keeps its queue's capacity (a warm drain allocates
    // nothing: `data_plane_allocs`), and the count's deadlines, one per
    // router and all pending at once, grow it. So the queue first carries
    // that load — one far timer per router, a token no router armed — and
    // what the count leaves beyond it is the routers' and hosts'.
    for &r in &g.routers {
        sim.schedule_timer_at(r, at_ms(12_000), 1 << 40);
    }
    sim.run_until(at_ms(13_000));
    let joined = live();

    let answer = count(&mut sim, src, chan, 13_000);
    assert_eq!(answer, n);
    assert_eq!(ctl_packets(&sim) - links, 2 * links, "one query down and one Count up each tree link");
    let after = live();
    let per_router = (after - joined) as f64 / g.routers.len() as f64;
    assert!((after - joined).abs() * 100 <= joined, "joined {joined} B, after the count {after} B ({per_router:+.1} B a router)");

    // A second count allocates nothing that outlives it.
    assert_eq!(count(&mut sim, src, chan, 25_000), n);
    assert_eq!(live(), after);
}
