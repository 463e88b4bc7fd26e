//! What a membership change allocates, pinned without the host clock: once
//! a join/leave cycle has warmed the hosts, routers, counters and event
//! queue, a cycle through `ExpressHost`s and an `EcmpRouter` allocates one
//! heap block per frame sent (the frame itself) and nothing else; and the
//! event wheel's peek → rewind → drain cycle allocates nothing.
//!
//! A binary of its own: the counting allocator (`counting_alloc`) is
//! process-wide, and the tests below take turns on it.

use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::LinkSpec;
use netsim::{NodeId, Sim, TimerWheel, Topology, WheelConfig};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

mod counting_alloc;
use counting_alloc::ALLOCS;

/// Held by each test while it counts, so that no other test's allocations
/// land in its count.
static COUNTING: Mutex<()> = Mutex::new(());

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// A source host behind two routers in a row, `members` member hosts on
/// the second. Returns the simulation, the hosts (source first) and the
/// source's channel.
fn chain(members: usize) -> (Sim, Vec<NodeId>, Channel) {
    let mut topo = Topology::new();
    let src = topo.add_host();
    let (r1, r2) = (topo.add_router(), topo.add_router());
    topo.connect(src, r1, LinkSpec::default()).unwrap();
    topo.connect(r1, r2, LinkSpec::default()).unwrap();
    let mut hosts = vec![src];
    for _ in 0..members {
        let h = topo.add_host();
        topo.connect(h, r2, LinkSpec::default()).unwrap();
        hosts.push(h);
    }
    let channel = Channel::new(topo.ip(src), 1).unwrap();
    let mut sim = Sim::new(topo, 1);
    let rcfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };
    for r in [r1, r2] {
        sim.set_agent(r, Box::new(EcmpRouter::new(rcfg)));
    }
    for &h in &hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    (sim, hosts, channel)
}

/// Every one of `members` joins, one a millisecond from `ms`, then every
/// one leaves. Returns the allocations made and the frames sent meanwhile.
fn cycle(sim: &mut Sim, hosts: &[NodeId], members: &[NodeId], channel: Channel, ms: u64) -> (u64, u64) {
    let frames = |sim: &Sim| sim.stats().total().control_packets;
    let (allocs0, frames0) = (ALLOCS.load(Ordering::Relaxed), frames(sim));
    for (i, &h) in members.iter().enumerate() {
        ExpressHost::schedule(sim, h, at_ms(ms + i as u64), HostAction::Subscribe { channel, key: None });
    }
    sim.run_until(at_ms(ms + 100));
    for (i, &h) in members.iter().enumerate() {
        ExpressHost::schedule(sim, h, at_ms(ms + 100 + i as u64), HostAction::Unsubscribe { channel });
    }
    sim.run_until(at_ms(ms + 200));
    let spent = (ALLOCS.load(Ordering::Relaxed) - allocs0, frames(sim) - frames0);
    // The event logs are the hosts' API and grow with every join; read
    // and cleared, as a harness does, they keep their capacity.
    for &h in hosts {
        sim.agent_as::<ExpressHost>(h).unwrap().events.clear();
    }
    spent
}

/// A chain of `members` member hosts, the first `resident` of them joined
/// for good: warm it with one cycle of the others, then run three more and
/// require each to allocate exactly one block per frame it sends.
fn assert_warm_cycles_allocate_one_block_per_frame(members: usize, resident: usize) {
    let _turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut sim, hosts, channel) = chain(members);
    let (stay, churn) = hosts[1..].split_at(resident);
    for &h in stay {
        ExpressHost::schedule(&mut sim, h, at_ms(500), HostAction::Subscribe { channel, key: None });
    }
    sim.run_until(at_ms(1_000));
    cycle(&mut sim, &hosts, churn, channel, 1_000);
    for ms in [2_000, 3_000, 4_000] {
        let (allocs, frames) = cycle(&mut sim, &hosts, churn, channel, ms);
        assert!(frames >= 6, "every join and leave sends: {frames} frames");
        assert_eq!(allocs, frames, "{members} members, cycle at {ms} ms: one block per frame and nothing else");
        for &h in &hosts[1..] {
            let joined = sim.agent_as::<ExpressHost>(h).unwrap().is_subscribed(channel);
            assert_eq!(joined, stay.contains(&h));
        }
    }
}

#[test]
fn a_warm_join_leave_cycle_allocates_one_block_per_frame_sent() {
    assert_warm_cycles_allocate_one_block_per_frame(3, 0);
}

/// One member stays joined while five join and leave: the router's
/// downstream set for the channel goes 1 → 6 → 1 each cycle, across the
/// fifth record that moves it out of its in-place slots. The heap ring it
/// moved into stays with the set, so only the first cycle allocates it.
/// (A channel whose last member leaves is dropped with its set, ring and
/// all.)
#[test]
fn a_six_member_cycle_allocates_one_block_per_frame_sent() {
    assert_warm_cycles_allocate_one_block_per_frame(6, 1);
}

#[test]
fn a_warm_peek_rewind_drain_cycle_allocates_nothing() {
    let _turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = WheelConfig { granularity_us: 128, slots: 64 };
    let mut wheel = TimerWheel::new(cfg);
    let horizon = SimDuration(wheel.horizon_us());
    let mut now = SimTime::ZERO;
    let mut allocs = Vec::new();
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        // A deadline several horizons out, and a few entries within one
        // horizon of it, racked when a peek re-seats the cursor onto it.
        let far = now + SimDuration(3 * horizon.0);
        for k in 0..8u64 {
            wheel.push(far + SimDuration(k * horizon.0 / 8), k);
        }
        assert_eq!(wheel.next_at(), Some(far));
        // Earlier pushes: the first rewinds, and none waits in the inbox.
        for k in 0..32u64 {
            wheel.push(now + SimDuration(k * 100), 100 + k);
            assert_eq!(wheel.inbox_len(), 0);
        }
        assert_eq!(wheel.len(), 40);
        while let Some((at, _)) = wheel.pop() {
            now = at;
        }
        allocs.push(ALLOCS.load(Ordering::Relaxed) - before);
    }
    assert_eq!(allocs[1..], [0, 0], "after the first cycle: {allocs:?}");
}
