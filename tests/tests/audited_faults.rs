//! A seeded sweep of audited fault schedules — the seed of the systematic
//! fault search: ten `random_connected` graphs, each run under EXPRESS in
//! TCP mode, EXPRESS in UDP mode and DVMRP with IGMP hosts, through link
//! flaps, a router crash and restart and a loss burst, with the auditor
//! attached and an `audit_checkpoint` at the end.
//!
//! What it asserts is the auditor's bookkeeping, not the protocols'
//! cleanliness (a known re-homing bug is still live — `known_bugs.rs`):
//! every topology transition gets its two refreshes, and — in debug
//! builds, where every refresh compares the truth the auditor keeps from
//! the marked nodes with a full sweep — no agent changed its report without
//! marking itself.

use express::host::{ExpressHost, HostAction};
use express::packets::EcmpMode;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{ChannelKey, CountId};
use mcast_baselines::dvmrp::DvmrpRouter;
use mcast_baselines::igmp::{GroupHost, GroupHostAction, IgmpVersion};
use netsim::faults::{FaultEvent, FaultPlan};
use netsim::time::{SimDuration, SimTime};
use netsim::topogen::{self, GenTopo};
use netsim::topology::LinkSpec;
use netsim::{extract_auditor, Auditor, LinkId, NodeKind, Sim};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

#[derive(Clone, Copy, Debug)]
enum Protocol {
    ExpressTcp,
    ExpressUdp,
    DvmrpIgmp,
}

/// A fault schedule over `g`'s router–router links and routers: two flaps
/// (the second may land inside the first), a crash and restart, and a loss
/// burst, all inside the stream window.
fn fault_plan(g: &GenTopo, rng: &mut StdRng) -> FaultPlan {
    let core: Vec<LinkId> = (0..g.topo.link_count() as u32)
        .map(LinkId)
        .filter(|&l| g.topo.endpoints(l).all(|(n, _)| g.topo.kind(n) == NodeKind::Router))
        .collect();
    let mut link = || core[rng.random_range(0..core.len())];
    let (a, b, c) = (link(), link(), link());
    let down = rng.random_range(300..800);
    let again = rng.random_range(down..down + 600);
    let crash = rng.random_range(600..1_400);
    let router = g.routers[rng.random_range(0..g.routers.len())];
    FaultPlan::new()
        .link_flap(a, at_ms(down), at_ms(down + rng.random_range(50..900)))
        .link_flap(b, at_ms(again), at_ms(again + rng.random_range(50..900)))
        .crash_restart(router, at_ms(crash), at_ms(crash + rng.random_range(100..800)))
        .loss_burst(c, at_ms(rng.random_range(200..1_800)), 0.4, SimDuration::from_millis(300))
}

/// Members join, some leave, the source streams; EXPRESS runs also carry a
/// keyed channel with members holding a wrong key, two channels nobody
/// joins (one of them a member's own), and a closing count.
fn workload(sim: &mut Sim, p: Protocol, src: netsim::NodeId, members: &[netsim::NodeId]) {
    match p {
        Protocol::ExpressTcp | Protocol::ExpressUdp => {
            let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
            let keyed = Channel::new(sim.topology().ip(src), 2).unwrap();
            let key: ChannelKey = 0x5eed;
            ExpressHost::schedule(sim, src, at_ms(1), HostAction::InstallKey { channel: keyed, key });
            for (i, &h) in members.iter().enumerate() {
                let join = at_ms(5 + 20 * i as u64);
                ExpressHost::schedule(sim, h, join, HostAction::Subscribe { channel: chan, key: None });
                if i % 3 == 0 {
                    let key = Some(if i % 2 == 0 { key } else { 0xbad });
                    ExpressHost::schedule(sim, h, join, HostAction::Subscribe { channel: keyed, key });
                }
                if i % 4 == 1 {
                    ExpressHost::schedule(sim, h, at_ms(1_500 + 10 * i as u64), HostAction::Unsubscribe { channel: chan });
                }
            }
            for t in (100..2_400).step_by(20) {
                let data = |channel| HostAction::SendData { channel, payload_len: 64 };
                ExpressHost::schedule(sim, src, at_ms(t), data(chan));
                ExpressHost::schedule(sim, src, at_ms(t + 5), data(keyed));
            }
            // Just before each later checkpoint, when nothing else moves
            // them: the source installs a key for a channel nobody joins,
            // then a member sends the first packet on a channel of its own.
            let quiet = Channel::new(sim.topology().ip(src), 3).unwrap();
            ExpressHost::schedule(sim, src, at_ms(2_990), HostAction::InstallKey { channel: quiet, key });
            let lone = Channel::new(sim.topology().ip(members[0]), 1).unwrap();
            ExpressHost::schedule(sim, members[0], at_ms(5_990), HostAction::SendData { channel: lone, payload_len: 64 });
            let query = HostAction::CountQuery { channel: chan, count_id: CountId::SUBSCRIBERS, timeout: SimDuration::from_millis(1_500) };
            ExpressHost::schedule(sim, src, at_ms(4_000), query);
        }
        Protocol::DvmrpIgmp => {
            let group = Ipv4Addr::new(224, 9, 9, 9);
            for (i, &h) in members.iter().enumerate() {
                GroupHost::schedule(sim, h, at_ms(5 + 20 * i as u64), GroupHostAction::Join { group, sources: vec![] });
                if i % 4 == 1 {
                    GroupHost::schedule(sim, h, at_ms(1_500 + 10 * i as u64), GroupHostAction::Leave { group });
                }
            }
            for t in (100..2_400).step_by(20) {
                GroupHost::schedule(sim, src, at_ms(t), GroupHostAction::SendData { group, payload_len: 64 });
            }
        }
    }
}

/// One audited run: returns the snapshots the auditor took and the ones
/// the schedule calls for.
fn audited_run(seed: u64, p: Protocol) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let routers = rng.random_range(8..41);
    let g = topogen::random_connected(routers, routers / 3, 12, LinkSpec::default(), seed);
    let mut sim = Sim::new(g.topo.clone(), seed);
    let rcfg = RouterConfig {
        mode_override: Some(if matches!(p, Protocol::ExpressUdp) { EcmpMode::Udp } else { EcmpMode::Tcp }),
        udp_refresh: SimDuration::from_millis(800),
        ..RouterConfig::default()
    };
    for &r in &g.routers {
        match p {
            Protocol::DvmrpIgmp => {
                sim.set_agent(r, Box::new(DvmrpRouter::new()));
                sim.set_restart_factory(r, Box::new(|| Box::new(DvmrpRouter::new())));
            }
            _ => {
                sim.set_agent(r, Box::new(EcmpRouter::new(rcfg)));
                sim.set_restart_factory(r, Box::new(move || Box::new(EcmpRouter::new(rcfg))));
            }
        }
    }
    for &h in &g.hosts {
        match p {
            Protocol::DvmrpIgmp => sim.set_agent(h, Box::new(GroupHost::new(IgmpVersion::V3))),
            _ => sim.set_agent(h, Box::new(ExpressHost::new())),
        }
    }
    sim.add_trace_sink(Box::new(Auditor::default()));
    workload(&mut sim, p, g.hosts[0], &g.hosts[1..]);
    let plan = fault_plan(&g, &mut rng);
    plan.apply(&mut sim);
    // A first checkpoint before anything happens: scheduling an action
    // marks its host, and the marks must be spent before the actions run,
    // or a join or a first send that forgot to mark would pass unseen.
    sim.run_until(SimTime::ZERO);
    sim.audit_checkpoint();
    sim.run_until(at_ms(3_000));
    sim.audit_checkpoint();
    sim.run_until(at_ms(6_000));
    sim.audit_checkpoint();

    let transitions = plan.events().iter().filter(|e| !matches!(e, FaultEvent::LossBurst { .. })).count() as u64;
    let auditor = extract_auditor(sim.finish_trace().expect("trace enabled")).expect("auditor attached");
    (auditor.snapshots(), 2 * transitions + 3)
}

#[test]
fn a_seeded_sweep_of_audited_fault_schedules_keeps_the_audit_truth() {
    for seed in 1..=10 {
        for p in [Protocol::ExpressTcp, Protocol::ExpressUdp, Protocol::DvmrpIgmp] {
            let (took, expected) = audited_run(seed, p);
            assert_eq!(took, expected, "seed {seed}, {p:?}: two refreshes per transition plus the checkpoints");
        }
    }
}
