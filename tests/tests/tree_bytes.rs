//! What the §5.3 distribution tree holds, in heap bytes and without the
//! host clock: the generated topology, a FIB-seeded binary tree's routers
//! once installed, and the extra bytes its first packet's wave keeps live
//! at once. The benchmark's `tree_1m_data` `peak_rss_mb` is the same three
//! costs at 2²⁰ sinks, plus the engine's per-node tables; these numbers
//! move with it, and any host regenerates them.
//!
//! A binary of its own, with one test: the counting allocator
//! (`counting_alloc`) is process-wide, and a peak is only the tree's while
//! nothing else runs.

use express::packets;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::engine::{Reliability, Tx};
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{Agent, Ctx, IfaceId, Payload, Sim};
use std::sync::atomic::Ordering;

mod counting_alloc;
use counting_alloc::{reset_peak, LIVE_BYTES, PEAK_BYTES};

/// Sends its one channel-data packet out interface 0 on a timer.
struct Source {
    pkt: Payload,
}

impl Agent for Source {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_shared(IfaceId(0), self.pkt.clone(), TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
    }
}

/// Counts what it receives, in its row.
#[derive(Default)]
struct Sink {
    got: u64,
}

impl Agent for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {
        self.got += 1;
    }
}

/// Per node of the topology: its arenas (an 8 B record of kind and
/// interface range, the 4 B interface slots the node fills, and per link a
/// 4 B spec-and-state word, a 4 B endpoint offset and two 4 B endpoints)
/// and the generator's two role lists.
/// Per router: the pool row and nothing else (a one-route FIB is inline,
/// every other part of the router is allocated by the first event that
/// needs it). Per sink, at the wave's peak: the cohort members of the last
/// two tree levels (one for each link into a sink, one for each link into
/// the level above, both live while the last level expands) and, in a
/// debug build, the cold half of every router's forwarding plane (debug
/// builds re-derive on every memo hit, so every router patches a frame).
#[test]
fn a_static_tree_holds_a_row_per_router_and_a_wave_two_members_per_sink() {
    const DEPTH: usize = 12;
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let g = topogen::kary_tree(2, DEPTH, LinkSpec::default());
    let per_node = (LIVE_BYTES.load(Ordering::Relaxed) - before) as f64 / g.topo.node_count() as f64;
    let (src, sinks) = (g.hosts[0], &g.hosts[1..]);
    let chan = Channel::new(g.topo.ip(src), 1).unwrap();
    let mut sim = Sim::new(g.topo, 7);
    let cfg = RouterConfig { neighbor_probe: None, boot_query: false, ..RouterConfig::default() };

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for &r in &g.routers {
        let mut router = EcmpRouter::new(cfg);
        let ifaces = sim.topology().iface_count(r) as u32;
        router.install_static_route(FibEntry::new(chan, 0, ((1u32 << ifaces) - 1) & !1).unwrap());
        sim.set_agent(r, Box::new(router));
    }
    let per_router = (LIVE_BYTES.load(Ordering::Relaxed) - before) as f64 / g.routers.len() as f64;

    sim.set_agent(src, Box::new(Source { pkt: packets::channel_data(chan, 100, 64).into() }));
    for &s in sinks {
        sim.set_agent(s, Box::<Sink>::default());
    }
    sim.schedule_timer_at(src, SimTime(1_000), 0);
    sim.run_until(SimTime(999));
    let base = reset_peak();
    sim.run();
    let per_sink = (PEAK_BYTES.load(Ordering::Relaxed) - base) as f64 / sinks.len() as f64;

    assert!(sinks.iter().all(|&s| sim.agent_as::<Sink>(s).unwrap().got == 1));
    let got = [per_node, per_router, per_sink].map(|b| format!("{b:.1}"));
    let want = if cfg!(debug_assertions) { ["36.0", "72.1", "496.1"] } else { ["36.0", "72.1", "32.9"] };
    assert_eq!(got, want, "heap bytes per topology node, per router, and the wave's peak per sink");
}
