//! E6 — the §3.6/§4.4 protocol comparison, made quantitative: EXPRESS vs
//! PIM-SM (shared tree and with SPT switchover) vs CBT vs DVMRP on the
//! same transit-stub topology with the same membership.
//!
//! Scenario: the source streams continuously; members join mid-stream.
//!
//! Columns:
//! * **state** — multicast routing entries summed over all routers
//!   (FIB entries / (*,G)+(S,G) / tree entries / prune records)
//! * **join ms** — a member's join → its first delivered packet
//! * **delay µs** — steady-state source→receiver delivery latency at a
//!   member whose direct path does not pass the RP/core
//! * **ctrl msgs** — control packets network-wide over the 60 s run
//!   (PIM's soft-state refresh vs ECMP's one-shot TCP-mode joins)
//! * **off-tree B** — data bytes entering stub clusters with no member
//!   (DVMRP's flooding; ≈0 for explicit-join protocols)
//!
//! `--flap` adds the §3.2 hysteresis ablation.

use express::host::{ExpressHost, HostAction, HostEvent};
use express::router::{EcmpRouter, RouterConfig};
use express_bench::harness::{self, at_ms};
use express_wire::addr::{Channel, Ipv4Addr};
use mcast_baselines::igmp::{GroupHost, GroupHostAction, IgmpVersion};
use mcast_baselines::{CbtRouter, DvmrpRouter, PimConfig, PimRouter};
use netsim::id::{IfaceId, LinkId, NodeId};
use netsim::time::{SimDuration, SimTime};
use netsim::topogen::{self, GenTopo};
use netsim::topology::LinkSpec;
use netsim::{NodeKind, Sim};

fn g1() -> Ipv4Addr {
    Ipv4Addr::new(224, 5, 5, 5)
}

const JOIN_AT_MS: u64 = 3_000;
const STREAM_START_MS: u64 = 500;
const STREAM_STEP_MS: u64 = 20;
const STREAM_COUNT: u64 = 20_000;
const RUN_MS: u64 = 300_000;

struct Scenario {
    g: GenTopo,
    src: NodeId,
    /// Members: one host in the stub clusters of transit 0 and transit 2.
    members: Vec<NodeId>,
    /// The member used for join-latency and delay measurements (on a
    /// transit-0 stub; its shortest path from the source never passes the
    /// RP/core at transit 2).
    probe: NodeId,
    /// Stub uplinks + LANs of member-less stub clusters (off-tree set).
    off_tree_links: Vec<LinkId>,
}

fn scenario() -> Scenario {
    // 4 transit routers in a ring+chord, 2 stubs each, 2 hosts per stub.
    let g = topogen::transit_stub(4, 2, 2, LinkSpec::wan(2), LinkSpec::default());
    let src = g.hosts[0]; // stub 0 (transit 0)
    // Members: hosts[2] (stub 1, transit 0), hosts[8] (stub 4, transit 2),
    // hosts[10] (stub 5, transit 2).
    let members = vec![g.hosts[2], g.hosts[8], g.hosts[10]];
    let probe = g.hosts[2];
    // Member stubs: 0 (source), 1, 4, 5. Memberless: 2, 3, 6, 7.
    let mut off_tree_links = Vec::new();
    for stub_idx in [2usize, 3, 6, 7] {
        let stub = g.routers[4 + stub_idx];
        // Uplink is the stub router's iface 0; LAN its iface 1.
        for i in 0..g.topo.iface_count(stub) {
            if let Ok(l) = g.topo.link_of(stub, IfaceId(i as u8)) {
                off_tree_links.push(l);
            }
        }
    }
    Scenario {
        g,
        src,
        members,
        probe,
        off_tree_links,
    }
}

struct Outcome {
    state: usize,
    join_ms: f64,
    delay_us: u64,
    ctrl_msgs: u64,
    off_tree_bytes: u64,
}

/// Generic runner: `attach` installs router agents; `state` reads back the
/// per-router entry count.
fn run<SFn>(seed: u64, express: bool, attach: impl Fn(&mut Sim, NodeId), state: SFn) -> Outcome
where
    SFn: Fn(&mut Sim, NodeId) -> usize,
{
    let sc = scenario();
    let mut sim = Sim::new(sc.g.topo.clone(), seed);
    for &r in &sc.g.routers {
        attach(&mut sim, r);
    }
    for node in sc.g.topo.node_ids() {
        if sc.g.topo.kind(node) == NodeKind::Host {
            if express {
                sim.set_agent(node, Box::new(ExpressHost::new()));
            } else {
                sim.set_agent(node, Box::new(GroupHost::new(IgmpVersion::V2)));
            }
        }
    }
    let chan = Channel::new(sc.g.topo.ip(sc.src), 1).unwrap();

    // Continuous stream from before the joins to the end of the run.
    let mut send_times = Vec::new();
    for i in 0..STREAM_COUNT {
        let t = at_ms(STREAM_START_MS + i * STREAM_STEP_MS);
        if t > at_ms(RUN_MS) {
            break;
        }
        send_times.push(t);
        if express {
            ExpressHost::schedule(&mut sim, sc.src, t, HostAction::SendData { channel: chan, payload_len: 500 });
        } else {
            GroupHost::schedule(&mut sim, sc.src, t, GroupHostAction::SendData { group: g1(), payload_len: 500 });
        }
    }
    // Joins arrive mid-stream.
    for &m in &sc.members {
        if express {
            ExpressHost::schedule(&mut sim, m, at_ms(JOIN_AT_MS), HostAction::Subscribe { channel: chan, key: None });
        } else {
            GroupHost::schedule(&mut sim, m, at_ms(JOIN_AT_MS), GroupHostAction::Join { group: g1(), sources: vec![] });
        }
    }
    sim.run_until(at_ms(RUN_MS));

    let deliveries: Vec<SimTime> = if express {
        sim.agent_as::<ExpressHost>(sc.probe)
            .unwrap()
            .events
            .iter()
            .filter_map(|e| match e {
                HostEvent::DataReceived { at, .. } => Some(*at),
                _ => None,
            })
            .collect()
    } else {
        sim.agent_as::<GroupHost>(sc.probe)
            .unwrap()
            .received
            .iter()
            .map(|(t, _, _, _)| *t)
            .collect()
    };
    let join_ms = deliveries
        .iter()
        .find(|t| **t >= at_ms(JOIN_AT_MS))
        .map(|t| (t.micros() - at_ms(JOIN_AT_MS).micros()) as f64 / 1000.0)
        .unwrap_or(f64::NAN);
    // Steady-state delay: last delivered packet vs its send time.
    let delay_us = deliveries
        .last()
        .map(|t| {
            let sent = send_times.iter().rev().find(|s| **s <= *t).unwrap();
            t.micros() - sent.micros()
        })
        .unwrap_or(0);
    let total_state: usize = sc.g.routers.iter().map(|&r| state(&mut sim, r)).sum();
    let off_tree_bytes: u64 = sc
        .off_tree_links
        .iter()
        .map(|&l| sim.stats().link(l).data_bytes)
        .sum();
    Outcome {
        state: total_state,
        join_ms,
        delay_us,
        ctrl_msgs: sim.stats().total().control_packets,
        off_tree_bytes,
    }
}

fn main() {
    let flap = std::env::args().any(|a| a == "--flap");
    println!("=== E6: protocol comparison — EXPRESS vs PIM-SM vs CBT vs DVMRP ===");
    println!("    (transit-stub topology; source streams 500-byte packets every");
    println!("     {STREAM_STEP_MS} ms; 3 members join at t={JOIN_AT_MS} ms; run {} s)\n", RUN_MS / 1000);

    let sc = scenario();
    let rp_ip = sc.g.topo.ip(sc.g.routers[2]); // transit 2: off the probe's path

    let rows: Vec<(&str, Outcome)> = vec![
        (
            "EXPRESS",
            run(
                60,
                true,
                |sim, r| {
                    sim.set_agent(
                        r,
                        Box::new(EcmpRouter::new(RouterConfig {
                            neighbor_probe: None, // liveness probes uncharged on both sides
                            ..Default::default()
                        })),
                    )
                },
                |sim, r| sim.agent_as::<EcmpRouter>(r).unwrap().fib().len(),
            ),
        ),
        (
            "PIM-SM (SPT)",
            run(
                61,
                false,
                |sim, r| {
                    sim.set_agent(
                        r,
                        Box::new(PimRouter::new(PimConfig {
                            spt_threshold: Some(0),
                            ..PimConfig::new(rp_ip)
                        })),
                    )
                },
                |sim, r| sim.agent_as::<PimRouter>(r).unwrap().state_entries(),
            ),
        ),
        (
            "PIM-SM (shared)",
            run(
                62,
                false,
                |sim, r| {
                    sim.set_agent(
                        r,
                        Box::new(PimRouter::new(PimConfig {
                            spt_threshold: None,
                            ..PimConfig::new(rp_ip)
                        })),
                    )
                },
                |sim, r| sim.agent_as::<PimRouter>(r).unwrap().state_entries(),
            ),
        ),
        (
            "CBT",
            run(
                63,
                false,
                |sim, r| sim.set_agent(r, Box::new(CbtRouter::new(rp_ip))),
                |sim, r| sim.agent_as::<CbtRouter>(r).unwrap().state_entries(),
            ),
        ),
        (
            "DVMRP",
            run(
                64,
                false,
                |sim, r| sim.set_agent(r, Box::new(DvmrpRouter::new())),
                |sim, r| sim.agent_as::<DvmrpRouter>(r).unwrap().prune_state_entries(),
            ),
        ),
    ];

    harness::header(
        &["protocol", "state", "join ms", "delay us", "ctrl msgs", "off-tree B"],
        &[16, 6, 8, 9, 10, 11],
    );
    for (name, o) in &rows {
        println!(
            "{}",
            harness::row(
                &[
                    name.to_string(),
                    o.state.to_string(),
                    format!("{:.1}", o.join_ms),
                    o.delay_us.to_string(),
                    o.ctrl_msgs.to_string(),
                    o.off_tree_bytes.to_string(),
                ],
                &[16, 6, 8, 9, 10, 11],
            )
        );
    }

    println!("\nExpected shape (paper §3.4/§3.6/§4.4):");
    println!("  * EXPRESS: direct source paths (lowest steady delay), modest state,");
    println!("    one-shot joins (lowest control load), zero off-tree data.");
    println!("  * PIM-SM SPT: matches EXPRESS' delay but pays (*,G)+(S,G) state and");
    println!("    soft-state refresh; shared mode keeps the RP detour (delay stretch).");
    println!("  * CBT: single bidirectional tree (least state) but core-detour delay.");
    println!("  * DVMRP: flooding puts data on member-less links and parks prune");
    println!("    state in disinterested routers.");
    println!();
    println!("Notes: join latency is quantized by the {STREAM_STEP_MS} ms packet interval.");
    println!("  PIM/DVMRP appear to join within one packet because their data path");
    println!("  was pre-established (PIM registers / DVMRP flood-graft); EXPRESS");
    println!("  counted-and-dropped at the first hop until the subscription reached");
    println!("  the source — the access-control behaviour of §3.4. EXPRESS control");
    println!("  includes the periodic edge (UDP-mode) general query, the analogue of");
    println!("  the IGMP queries not charged to the baselines here.");

    if flap {
        hysteresis_ablation();
    } else {
        println!("\n(pass --flap for the hysteresis ablation)");
    }
}

fn hysteresis_ablation() {
    println!("\n--- Ablation: re-homing hysteresis under a flapping link (§3.2) ---");
    harness::header(&["hysteresis", "re-homes"], &[12, 9]);
    for (name, hyst) in [("none", SimDuration::ZERO), ("2s", SimDuration::from_secs(2))] {
        let mut t = netsim::Topology::new();
        let r0 = t.add_router();
        let r1 = t.add_router();
        let r2 = t.add_router();
        let r3 = t.add_router();
        let flappy = t.connect(r0, r1, LinkSpec::default()).unwrap();
        t.connect(r0, r2, LinkSpec::default()).unwrap();
        t.connect(r1, r3, LinkSpec::default()).unwrap();
        t.connect(r2, r3, LinkSpec::default()).unwrap();
        let src = t.add_host();
        t.connect(src, r0, LinkSpec::default()).unwrap();
        let sub = t.add_host();
        t.connect(sub, r3, LinkSpec::default()).unwrap();
        let mut sim = Sim::new(t, 54);
        for r in [r0, r1, r2, r3] {
            sim.set_agent(
                r,
                Box::new(EcmpRouter::new(RouterConfig {
                    hysteresis: hyst,
                    ..Default::default()
                })),
            );
        }
        sim.set_agent(src, Box::new(ExpressHost::new()));
        sim.set_agent(sub, Box::new(ExpressHost::new()));
        let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
        ExpressHost::schedule(&mut sim, sub, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
        let mut up = false;
        for i in 1..=20 {
            sim.schedule_link_change(at_ms(500 + i * 300), flappy, up);
            up = !up;
        }
        sim.run_until(at_ms(10_000));
        let rehomes: u64 = [r0, r1, r2, r3]
            .iter()
            .map(|&r| sim.agent_as::<EcmpRouter>(r).unwrap().counters().rehomes)
            .sum();
        println!("{}", harness::row(&[name.to_string(), rehomes.to_string()], &[12, 9]));
    }
    println!("  Hysteresis damps route oscillation: fewer re-homes, less");
    println!("  upstream churn, at the cost of slower convergence to the new path.");
}
