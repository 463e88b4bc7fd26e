//! The forwarding data plane allocates nothing, pinned without the host
//! clock: once a FIB-seeded tree has carried a warm-up burst, a measured
//! burst of shared-payload packets — source send, every router's FIB
//! lookup and fan-out, every wheel bucket, every delivery and its
//! per-channel accounting — makes zero heap allocations. A frame copied per
//! send, a buffer per bucket or a counter key built per delivery shows here
//! as ≥ 1 allocation per packet.
//!
//! A binary of its own: the counting allocator (`counting_alloc`) is
//! process-wide, and the tests below take turns on it.

use express::packets;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::engine::{Reliability, Tx};
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::{LinkSpec, Topology};
use netsim::{Agent, CounterId, Ctx, IfaceId, NodeId, Payload, Sim};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

mod counting_alloc;
use counting_alloc::ALLOCS;

/// Held by each test while it counts, so that no other test's allocations
/// land in its count.
static COUNTING: Mutex<()> = Mutex::new(());

/// Packets per burst. Twenty warm-up packets grow every queue and table the
/// measured burst touches to its steady size; two leave a few growths over.
const PACKETS: u64 = 20;

/// Sends one channel-data packet, built once, out interface 0 per timer:
/// each send is a refcount bump of the shared handle.
struct Source {
    pkt: Payload,
}

impl Agent for Source {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_shared(IfaceId(0), self.pkt.clone(), TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
    }
}

/// Per-channel delivery accounting at the edge (§5.3's charging story):
/// the total, plus a packet and a byte counter for the channel, all bumped
/// by interned id once the channel has been seen.
#[derive(Default)]
struct AccountingSink {
    ids: Option<(Channel, CounterId, CounterId, CounterId)>,
}

impl Agent for AccountingSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
        let Ok(packets::Classified::ChannelData { channel, header }) = packets::classify(bytes, ctx.my_ip()) else {
            return;
        };
        let (total, pkts, octets) = match self.ids {
            Some((c, t, p, o)) if c == channel => (t, p, o),
            _ => {
                let ids = (
                    ctx.counter("sink.data_rx"),
                    ctx.channel_counter("sink.rx_pkts", channel),
                    ctx.channel_counter("sink.rx_bytes", channel),
                );
                self.ids = Some((channel, ids.0, ids.1, ids.2));
                ids
            }
        };
        ctx.count_id(total, 1);
        ctx.count_id(pkts, 1);
        ctx.count_id(octets, header.payload_len as u64);
    }
}

/// A router that only forwards: no probes, no boot query, one static route.
fn static_router(chan: Channel, oifs: u32) -> EcmpRouter {
    let cfg = RouterConfig { neighbor_probe: None, boot_query: false, ..RouterConfig::default() };
    let mut router = EcmpRouter::new(cfg);
    router.install_static_route(FibEntry::new(chan, 0, oifs).unwrap());
    router
}

/// Give `src` its source and every sink an accounting agent.
fn attach_edges(sim: &mut Sim, src: NodeId, sinks: &[NodeId], chan: Channel) {
    sim.set_agent(src, Box::new(Source { pkt: packets::channel_data(chan, 100, 64).into() }));
    for &s in sinks {
        sim.set_agent(s, Box::new(AccountingSink::default()));
    }
}

/// A FIB-seeded network ready to run: its source, and how many sinks and
/// routers a packet reaches.
struct Net {
    sim: Sim,
    src: NodeId,
    sinks: u64,
    routers: u64,
}

/// One hub router; the source is point-to-point behind it and `n` sinks
/// share one multi-access segment, so one forward fans out to all of them.
fn star(n: usize) -> Net {
    let mut t = Topology::new();
    let hub = t.add_router();
    let src = t.add_host();
    t.connect(src, hub, LinkSpec::default()).unwrap();
    let sinks: Vec<_> = (0..n).map(|_| t.add_host()).collect();
    t.add_lan(&[&[hub][..], &sinks].concat(), LinkSpec::lan()).unwrap();
    let chan = Channel::new(t.ip(src), 1).unwrap();
    let mut sim = Sim::new(t, 7);
    sim.set_agent(hub, Box::new(static_router(chan, 1 << 1)));
    attach_edges(&mut sim, src, &sinks, chan);
    Net { sim, src, sinks: n as u64, routers: 1 }
}

/// §5.3's binary distribution tree of `depth`, every router's FIB seeded
/// with all interfaces but its upstream one, a sink on each host but the
/// source.
fn kary(depth: usize) -> Net {
    let g = topogen::kary_tree(2, depth, LinkSpec::default());
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    let mut sim = Sim::new(g.topo, 7);
    for &r in &g.routers {
        let ifaces = sim.topology().iface_count(r) as u32;
        sim.set_agent(r, Box::new(static_router(chan, ((1u32 << ifaces) - 1) & !1)));
    }
    attach_edges(&mut sim, g.hosts[0], &g.hosts[1..], chan);
    let (sinks, routers) = (g.hosts.len() as u64 - 1, g.routers.len() as u64);
    Net { sim, src: g.hosts[0], sinks, routers }
}

/// What one measured burst cost.
#[derive(Debug, PartialEq)]
struct Burst {
    allocs: u64,
    delivered: u64,
    forwarded: u64,
    peak_queue_depth: usize,
}

/// A warm-up burst, then a measured one: `PACKETS` sends 1 ms apart each,
/// drained for `drain_ms` before the next. Counts over the measured burst;
/// the queue's peak is over both.
fn bursts(net: Net, drain_ms: u64) -> Burst {
    let Net { mut sim, src, .. } = net;
    let ms = |m: u64| SimTime(m * 1000);
    let burst = |sim: &mut Sim, from: u64| {
        for i in 0..PACKETS {
            sim.schedule_timer_at(src, ms(from + i), 0);
        }
        ms(from + PACKETS + drain_ms)
    };
    let warm_end = burst(&mut sim, 1);
    sim.run_until(warm_end);
    let end = burst(&mut sim, PACKETS + drain_ms + 1);
    let read = |sim: &Sim| (sim.stats().named("sink.data_rx"), sim.stats().named("express.data_fwd"));
    let (rx0, fwd0) = read(&sim);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(end);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let (rx, fwd) = read(&sim);
    Burst { allocs, delivered: rx - rx0, forwarded: fwd - fwd0, peak_queue_depth: sim.peak_queue_depth() }
}

/// Zero allocations, every sink reached once per packet, every router
/// forwarding once per packet. The queue's peak is the burst's `PACKETS`
/// pending timers plus what is in flight: one cohort per LAN send, not an
/// event per receiver.
fn assert_free(net: Net, drain_ms: u64, peak_queue_depth: usize) {
    let (sinks, routers) = (net.sinks, net.routers);
    let want = Burst { allocs: 0, delivered: PACKETS * sinks, forwarded: PACKETS * routers, peak_queue_depth };
    assert_eq!(bursts(net, drain_ms), want);
}

#[test]
fn a_warm_star_fanout_allocates_nothing() {
    let _turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    assert_free(star(10_000), 5, 21);
}

#[test]
fn a_warm_static_tree_allocates_nothing() {
    let _turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let depth = 10;
    assert_free(kary(depth), depth as u64 + 5, 20);
}
