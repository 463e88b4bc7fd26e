//! E3 — §5.3: the cost of state maintenance.
//!
//! Analytic: the million-channel scenario's message rates, TCP batching,
//! control bandwidth, and CPU arithmetic. Measured: this implementation's
//! ECMP core router driven by continuous subscribe/unsubscribe churn from
//! eight neighbors (the paper's measured configuration), reporting
//! events/second of wall-clock throughput; plus the TCP-vs-UDP neighbor
//! mode refresh-cost ablation ("with TCP operation, a periodic refresh of
//! each long-lived channel is unnecessary").

use express::packets::EcmpMode;
use express::router::{EcmpRouter, RouterConfig};
use express_bench::harness::{self, at_ms};
use express_cost::MaintenanceModel;
use netsim::time::SimDuration;
use std::time::Instant;

fn main() {
    println!("=== E3: §5.3 — the cost of state maintenance ===\n");

    println!("--- Analytic: the million-channel core router ---");
    let rates = MaintenanceModel::default().rates();
    println!("  Count msgs received/s  = {:.0}   (paper: 3,333)", rates.rx_per_sec);
    println!("  Count msgs sent/s      = {:.0}   (paper: ~1,667)", rates.tx_per_sec);
    println!("  Count events/s         = {:.0}   (paper: ~5,000)", rates.events_per_sec);
    println!("  Counts per TCP segment = {}     (paper: 92)", rates.counts_per_segment);
    println!("  control segments rx/s  = {:.0}     (paper: 36)", rates.rx_segments_per_sec);
    println!("  control bandwidth rx   = {:.0} kb/s (paper: 424)", rates.rx_kbps);
    println!(
        "  CPU util at 5000 cyc/ev = {:.1}%   (paper: ~6% with FIB penalty)\n",
        rates.cpu_utilization * 100.0
    );

    println!("--- Measured: 8-neighbor core router under churn ---");
    println!("    (this implementation, wall-clock, simulated protocol events)");
    harness::header(
        &["channels", "ecmp events", "wall ms", "events/s", "ns/event"],
        &[9, 12, 9, 12, 9],
    );
    for n_channels in [1_000usize, 5_000, 20_000] {
        let mut c = harness::churn_setup(8, n_channels, 11);
        let end = c.end;
        let t0 = Instant::now();
        c.sim.run_until(end);
        let wall = t0.elapsed();
        let core = c.sim.agent_as::<EcmpRouter>(c.core).unwrap();
        let events = core.counters().subscribes + core.counters().unsubscribes;
        // Wall-clock throughput of the whole simulation (all routers, all
        // packet hops) — a conservative lower bound on single-router event
        // throughput.
        let total_sim_events = c.sim.events_processed();
        let evps = total_sim_events as f64 / wall.as_secs_f64();
        println!(
            "{}",
            harness::row(
                &[
                    n_channels.to_string(),
                    events.to_string(),
                    format!("{:.0}", wall.as_secs_f64() * 1000.0),
                    format!("{evps:.0}"),
                    format!("{:.0}", 1e9 / evps),
                ],
                &[9, 12, 9, 12, 9],
            )
        );
        assert_eq!(events as usize, 2 * n_channels, "all churn events processed");
    }
    println!("\n  The paper measured ~4,500 events/s at 4% of a 400 MHz CPU");
    println!("  (~3,500 cycles/event) and 33,000 events/s at 43%. The rate above");
    println!("  is for the full simulation (N routers + packet delivery), and");
    println!("  ns/event is what one simulated event of it costs. The router");
    println!("  alone — `EcmpRouter::on_packet` per ECMP packet under join/leave");
    println!("  churn — is timed by the benchmark of record's `router.on_packet_ns`");
    println!("  row (`isp_churn_faults --trace 1`, benchmark/README.md): under a");
    println!("  microsecond, an order below the paper's ~9 us (EXPERIMENTS.md E3).\n");

    println!("--- Ablation: TCP vs UDP neighbor mode, long-lived channels ---");
    println!("    (100 channels held for 10 minutes; control messages sent)");
    harness::header(&["mode", "ctrl msgs", "per chan/min"], &[6, 10, 13]);
    for (name, mode) in [("TCP", EcmpMode::Tcp), ("UDP", EcmpMode::Udp)] {
        let g = netsim::topogen::kary_tree(2, 2, netsim::topology::LinkSpec::default());
        let cfg = RouterConfig {
            mode_override: Some(mode),
            udp_refresh: SimDuration::from_secs(60),
            neighbor_probe: None, // isolate the refresh cost under test
            ..Default::default()
        };
        let mut sim = harness::express_sim_cfg(&g, 13, cfg);
        let src = g.hosts[0];
        let src_ip = sim.topology().ip(src);
        for i in 0..100u32 {
            let chan = express_wire::addr::Channel::new(src_ip, i).unwrap();
            for &h in &g.hosts[1..] {
                express::host::ExpressHost::schedule(
                    &mut sim,
                    h,
                    at_ms(1),
                    express::host::HostAction::Subscribe { channel: chan, key: None },
                );
            }
        }
        sim.run_until(at_ms(600_000)); // 10 minutes
        let ctrl = sim.stats().total().control_packets;
        println!(
            "{}",
            harness::row(
                &[
                    name.to_string(),
                    ctrl.to_string(),
                    format!("{:.1}", ctrl as f64 / 100.0 / 10.0),
                ],
                &[6, 10, 13],
            )
        );
    }
    println!("\n  TCP mode sends the subscription once and stays silent —");
    println!("  \"only one message is required to initiate subscription and");
    println!("  one to end it, and per-channel timers are eliminated.\"");
    println!("  UDP mode pays periodic query/refresh per interface per minute.");
}
