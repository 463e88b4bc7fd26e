//! E2 — §5.2: the cost of management-level router state, analytic
//! (the paper's 200-bytes-per-channel budget) and measured from the ECMP
//! router's live channel records.

use express::host::{ExpressHost, HostAction};
use express::router::EcmpRouter;
use express_bench::harness::{self, at_ms};
use express_cost::MgmtStateModel;
use express_wire::addr::Channel;

fn main() {
    println!("=== E2: §5.2 — management-level state cost ===\n");

    let model = MgmtStateModel::default();
    println!("Analytic model (paper constants):");
    println!("  record bytes (padded)     = {}", model.record_bytes);
    println!("  records/channel (fanout 2)= {}", model.records_per_channel);
    println!("  outstanding counts        = {}", model.outstanding_counts);
    println!("  key bytes                 = {}", model.key_bytes);
    println!("  bytes/channel             = {} (paper: 200)", model.bytes_per_channel());
    println!(
        "  $/channel-year at $1/MB   = ${:.6} (paper: \"less than 1/50-th of a cent\")",
        model.dollars_per_channel()
    );
    println!();

    println!("Scaling (the §5 claim: memory \"scales linearly with the number of channels\"):");
    harness::header(&["channels", "DRAM bytes", "dollars"], &[10, 14, 12]);
    for ch in [1u64, 100, 10_000, 1_000_000] {
        println!(
            "{}",
            harness::row(
                &[
                    ch.to_string(),
                    model.total_bytes(ch).to_string(),
                    format!("${:.4}", model.total_dollars(ch)),
                ],
                &[10, 14, 12],
            )
        );
    }

    println!("\nMeasured per-channel state in this implementation's router:");
    harness::header(&["channels", "mgmt bytes", "bytes/chan"], &[10, 12, 12]);
    for n_channels in [10usize, 100, 500] {
        let g = netsim::topogen::kary_tree(2, 2, netsim::topology::LinkSpec::default());
        let mut sim = harness::express_sim(&g, 9);
        let src = g.hosts[0];
        let src_ip = sim.topology().ip(src);
        for i in 0..n_channels {
            let chan = Channel::new(src_ip, i as u32).unwrap();
            for &h in &g.hosts[1..] {
                ExpressHost::schedule(&mut sim, h, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
            }
        }
        sim.run_until(at_ms(2_000));
        let root = g.routers[0];
        let router = sim.agent_as::<EcmpRouter>(root).unwrap();
        let bytes = router.mgmt_state_bytes();
        let chans = router.channel_count();
        println!(
            "{}",
            harness::row(
                &[
                    chans.to_string(),
                    bytes.to_string(),
                    format!("{:.0}", bytes as f64 / chans.max(1) as f64),
                ],
                &[10, 12, 12],
            )
        );
    }
    println!("\n(Measured bytes/channel sits below the paper's padded 200-byte");
    println!(" budget; both are negligible against router fixed costs.)");
}
