//! Zero-copy data fan-out: one EXPRESS router delivering a single channel
//! packet to every receiver on a multi-access segment — the §5.1 "no fanout
//! except at the root" worst case, and the path `Ctx::send_shared` was
//! built for (the TTL is patched once into one shared buffer; each of the
//! `n` deliveries clones an `Arc`, not the payload).
//!
//! The benched unit is one complete packet delivery cycle through a warm
//! simulator — source timer, router FIB forward, `n` sink arrivals with
//! interned per-delivery accounting — reported as throughput in deliveries.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use express::packets;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::engine::{Reliability, Tx};
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::topology::{LinkSpec, Topology};
use netsim::{Agent, Ctx, IfaceId, Sim};

struct Blaster {
    pkt: Vec<u8>,
}

impl Agent for Blaster {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send(IfaceId(0), &self.pkt, TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
    }
}

struct Sink {
    rx: Option<netsim::CounterId>,
}

impl Agent for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rx = Some(ctx.counter("sink.data_rx"));
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &netsim::Payload, _class: TrafficClass) {
        if let Some(id) = self.rx {
            ctx.count_id(id, 1);
        }
    }
}

/// Attach the source, run one packet through so agents and routing are
/// warm, and leave a second one scheduled for the measured run.
fn primed(mut sim: Sim, src: netsim::NodeId, chan: Channel) -> Sim {
    sim.set_agent(src, Box::new(Blaster { pkt: packets::channel_data(chan, 100, 64) }));
    sim.schedule_timer_at(src, SimTime(1_000), 0);
    sim.schedule_timer_at(src, SimTime(10_000), 0);
    sim.run_until(SimTime(9_000));
    sim
}

/// Source —p2p— hub router —LAN— `n` sinks, FIB pre-seeded, one packet
/// already run through so agents and routing are warm.
fn star_sim(n: usize) -> Sim {
    let mut t = Topology::new();
    let hub = t.add_router();
    let src = t.add_host();
    t.connect(src, hub, LinkSpec::default()).unwrap();
    let mut members = vec![hub];
    for _ in 0..n {
        members.push(t.add_host());
    }
    t.add_lan(&members, LinkSpec::lan()).unwrap();
    let chan = Channel::new(t.ip(src), 1).unwrap();
    let mut sim = Sim::new(t, 7);
    let cfg = RouterConfig { neighbor_probe: None, boot_query: false, ..RouterConfig::default() };
    sim.set_agent(hub, Box::new(EcmpRouter::new(cfg)));
    sim.agent_as::<EcmpRouter>(hub)
        .unwrap()
        .install_static_route(FibEntry::new(chan, 0, 1 << 1).unwrap());
    for &s in &members[1..] {
        sim.set_agent(s, Box::new(Sink { rx: None }));
    }
    primed(sim, src, chan)
}

/// Source and `n` routers on one LAN, one sink behind each router, FIBs
/// pre-seeded and one packet already run through: every router is handed
/// the same arriving frame, as the routers of one tree level are, so one
/// of them patches the TTL and `n - 1` take `Ctx::derive_frame`'s
/// remembered answer.
fn level_sim(n: usize) -> Sim {
    let mut t = Topology::new();
    let src = t.add_host();
    let routers: Vec<_> = (0..n).map(|_| t.add_router()).collect();
    let mut members = vec![src];
    members.extend(&routers);
    t.add_lan(&members, LinkSpec::lan()).unwrap();
    let sinks: Vec<_> = routers
        .iter()
        .map(|&r| {
            let s = t.add_host();
            t.connect(r, s, LinkSpec::default()).unwrap();
            s
        })
        .collect();
    let chan = Channel::new(t.ip(src), 1).unwrap();
    let mut sim = Sim::new(t, 7);
    let cfg = RouterConfig { neighbor_probe: None, boot_query: false, ..RouterConfig::default() };
    for &r in &routers {
        let mut router = EcmpRouter::new(cfg);
        router.install_static_route(FibEntry::new(chan, 0, 1 << 1).unwrap());
        sim.set_agent(r, Box::new(router));
    }
    for &s in &sinks {
        sim.set_agent(s, Box::new(Sink { rx: None }));
    }
    primed(sim, src, chan)
}

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("send/fanout");
    g.sample_size(10);
    g.throughput(Throughput::Elements(64));
    g.bench_function(BenchmarkId::new("tree_level", 64), |b| {
        b.iter_batched(
            || level_sim(64),
            |mut sim| {
                sim.run_until(SimTime(20_000));
                assert_eq!(sim.frames_derived(), 2, "one patch per packet, not one per router");
                sim.events_processed()
            },
            BatchSize::LargeInput,
        )
    });
    for n in [1_000usize, 10_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("star_lan", n), &n, |b, &n| {
            b.iter_batched(
                || star_sim(n),
                |mut sim| {
                    sim.run_until(SimTime(20_000));
                    sim.events_processed()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
