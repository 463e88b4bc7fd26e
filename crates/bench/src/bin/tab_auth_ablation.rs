//! Ablation (DESIGN.md §5): key caching vs always-validate-at-source.
//!
//! §3.2: "a valid key is cached so that further authenticated requests can
//! be denied or accepted locally." With the cache disabled, every
//! authenticated join travels the full path to the source for its verdict;
//! with it enabled, the second and later joins (and bad-key rejections)
//! resolve at the first router that has seen a validation.

use express::host::{ExpressHost, HostAction, HostEvent};
use express::router::{EcmpRouter, RouterConfig};
use express_bench::harness::{self, at_ms};
use express_wire::addr::Channel;
use netsim::topogen;
use netsim::topology::LinkSpec;

const KEY: u64 = 0x0A11_CE55;

fn run(cache: bool) -> (u64, f64, u64) {
    // A deep line so validation distance is visible: 8 routers between the
    // subscribers' edge and the source.
    let g = topogen::line(8, LinkSpec::default());
    let cfg = RouterConfig {
        cache_keys: cache,
        neighbor_probe: None, // isolate the validation traffic under test
        ..Default::default()
    };
    let mut sim = harness::express_sim_cfg(&g, 41, cfg);
    let src = g.hosts[0];
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    ExpressHost::schedule(&mut sim, src, at_ms(1), HostAction::InstallKey { channel: chan, key: KEY });

    // Subscriber A joins first (always validated at the source).
    let a = g.hosts[1];
    ExpressHost::schedule(&mut sim, a, at_ms(10), HostAction::Subscribe { channel: chan, key: Some(KEY) });
    sim.run_until(at_ms(1_000));
    let ctrl_before = sim.stats().total().control_packets;

    // Subscriber A leaves and rejoins 5 times (same edge, same key) — the
    // joins the cache should localize. A bad key probes rejection locality.
    for i in 0..5u64 {
        ExpressHost::schedule(&mut sim, a, at_ms(2_000 + i * 500), HostAction::Unsubscribe { channel: chan });
        ExpressHost::schedule(
            &mut sim,
            a,
            at_ms(2_250 + i * 500),
            HostAction::Subscribe { channel: chan, key: Some(KEY) },
        );
    }
    sim.run_until(at_ms(10_000));
    let rejoin_ctrl = sim.stats().total().control_packets - ctrl_before;

    // Bad-key join: measure the verdict latency.
    let bad_join_at = at_ms(11_000);
    ExpressHost::schedule(&mut sim, a, bad_join_at, HostAction::Subscribe { channel: chan, key: Some(0xBAD) });
    sim.run_until(at_ms(20_000));
    let host = sim.agent_as::<ExpressHost>(a).unwrap();
    let verdict_at = host
        .events
        .iter()
        .rev()
        .find_map(|e| match e {
            HostEvent::SubscriptionResult { at, ok: false, .. } if *at > bad_join_at => Some(*at),
            _ => None,
        })
        .expect("bad join denied");
    let verdict_ms = (verdict_at.micros() - bad_join_at.micros()) as f64 / 1000.0;

    let rejects: u64 = g
        .routers
        .iter()
        .map(|&r| sim.agent_as::<EcmpRouter>(r).unwrap().counters().auth_rejects)
        .sum();
    (rejoin_ctrl, verdict_ms, rejects)
}

fn main() {
    println!("=== Ablation: §3.2 key caching vs always-validate-at-source ===");
    println!("    (8-router line; 5 authenticated re-joins + 1 bad-key join)\n");
    harness::header(
        &["key cache", "rejoin ctrl msgs", "bad-key verdict ms", "router rejects"],
        &[9, 17, 19, 15],
    );
    for cache in [true, false] {
        let (ctrl, verdict_ms, rejects) = run(cache);
        println!(
            "{}",
            harness::row(
                &[
                    if cache { "on" } else { "off" }.to_string(),
                    ctrl.to_string(),
                    format!("{verdict_ms:.2}"),
                    rejects.to_string(),
                ],
                &[9, 17, 19, 15],
            )
        );
    }
    println!("\n  With the cache, a bad key is denied by the first on-tree router");
    println!("  (fast verdict, a local reject); without it, every validation and");
    println!("  denial round-trips to the source.");
}
