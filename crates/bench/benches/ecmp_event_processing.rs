//! E3 measured: ECMP subscribe/unsubscribe event-processing throughput at
//! a core router with eight neighbors — this implementation's analogue of
//! the paper's §5.3 measurement ("4,500 incoming events per second ... four
//! percent of the CPU on a 400 megahertz Pentium-II ... approximately 5,000
//! cycles per event").
//!
//! Two units. `churn_8_neighbors` benches a complete simulation run (churn
//! workload through the core router, including packet parse/emit on every
//! hop), reported as throughput in ECMP events; divide wall time by events
//! for the per-event cost. `per_message` clocks `EcmpRouter::on_packet`
//! alone at a transit router for one subscriberId Count — the paper's
//! "cycles per event" with the simulator taken out: a join (record filed,
//! RPF, Count sent on, FIB entry installed) and a leave (entry removed,
//! prune sent on, record and FIB entry dropped), in ns/message.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_bench::harness::churn_setup;
use express_wire::addr::Channel;
use netsim::engine::Payload;
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::topology::{LinkSpec, Topology};
use netsim::{Agent, Ctx, IfaceId, Sim};
use std::time::Instant;

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecmp/event_processing");
    g.sample_size(10);
    for n_channels in [500usize, 2_000] {
        g.throughput(Throughput::Elements(2 * n_channels as u64));
        g.bench_with_input(
            BenchmarkId::new("churn_8_neighbors", n_channels),
            &n_channels,
            |b, &n| {
                b.iter_batched(
                    || churn_setup(8, n, 5),
                    |mut setup| {
                        let end = setup.end;
                        setup.sim.run_until(end);
                        setup.sim.events_processed()
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

/// An `EcmpRouter` that clocks its own `on_packet`, joins (odd calls) and
/// leaves (even calls) apart.
struct Clocked {
    router: EcmpRouter,
    ns: [u128; 2],
    calls: u64,
}

impl Agent for Clocked {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.router.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        let t0 = Instant::now();
        self.router.on_packet(ctx, iface, bytes, class);
        self.ns[(self.calls % 2) as usize] += t0.elapsed().as_nanos();
        self.calls += 1;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.router.on_timer(ctx, token);
    }
}

/// `subscriber — transit router — source`: the subscriber joins and leaves
/// one channel `PAIRS` times, so every Count but the first finds the
/// router's tables at their working size.
fn bench_per_message(_: &mut Criterion) {
    const PAIRS: u64 = 2_000;
    const RUNS: usize = 5;
    let mut best = [f64::MAX; 2];
    for _ in 0..RUNS {
        let mut topo = Topology::new();
        let (sub, transit, src) = (topo.add_host(), topo.add_router(), topo.add_host());
        topo.connect(sub, transit, LinkSpec::default()).unwrap();
        topo.connect(transit, src, LinkSpec::default()).unwrap();
        let channel = Channel::new(topo.ip(src), 1).unwrap();
        let mut sim = Sim::new(topo, 5);
        let cfg = RouterConfig {
            neighbor_probe: None,
            ..RouterConfig::default()
        };
        let clocked = Clocked {
            router: EcmpRouter::new(cfg),
            ns: [0; 2],
            calls: 0,
        };
        sim.set_agent(transit, Box::new(clocked));
        sim.set_agent(sub, Box::new(ExpressHost::new()));
        sim.set_agent(src, Box::new(ExpressHost::new()));
        for i in 0..PAIRS {
            let at = SimTime(1_000 * (1 + 2 * i));
            ExpressHost::schedule(&mut sim, sub, at, HostAction::Subscribe { channel, key: None });
            ExpressHost::schedule(&mut sim, sub, SimTime(at.0 + 1_000), HostAction::Unsubscribe { channel });
        }
        sim.run();
        let clocked = sim.agent_as::<Clocked>(transit).unwrap();
        assert_eq!(clocked.calls, 2 * PAIRS, "every Count reached the router");
        assert_eq!(clocked.router.counters().subscribes, PAIRS);
        assert_eq!(clocked.router.counters().unsubscribes, PAIRS);
        for (best, ns) in best.iter_mut().zip(clocked.ns) {
            *best = best.min(ns as f64 / PAIRS as f64);
        }
    }
    for (what, ns) in ["join", "leave"].into_iter().zip(best) {
        let name = format!("ecmp/per_message/{what}_at_transit_router");
        println!("bench {name:<48} {ns:>12.0} ns/message (x{PAIRS}, best of {RUNS} runs, includes the ~40 ns clock)");
    }
}

criterion_group!(benches, bench_churn, bench_per_message);
criterion_main!(benches);
