//! Host-independent memory evidence for the engine's agent store: installing
//! thousands of agents leaves a handful of heap blocks — the pools' chunks
//! of 256 rows and their tables — not one block per agent.
//!
//! A binary of its own: the counting allocator (`counting_alloc`) is
//! process-wide.

use express::router::{EcmpRouter, RouterConfig};
use netsim::engine::{Agent, Ctx};
use netsim::stats::TrafficClass;
use netsim::topology::Topology;
use netsim::{IfaceId, Payload, Sim};
use std::sync::atomic::Ordering;

mod counting_alloc;
use counting_alloc::LIVE;

/// A receiver as small as a benchmark's accounting sink.
#[derive(Default)]
struct Sink {
    got: u64,
}

impl Agent for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {
        self.got += 1;
    }
}

#[test]
fn installing_thousands_of_agents_leaves_a_block_per_chunk_not_per_agent() {
    const N: usize = 4_096;
    let mut t = Topology::new();
    let routers: Vec<_> = (0..N).map(|_| t.add_router()).collect();
    let sinks: Vec<_> = (0..N).map(|_| t.add_host()).collect();
    let mut sim = Sim::new(t, 1);
    let rcfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };

    let live0 = LIVE.load(Ordering::Relaxed);
    for &r in &routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(rcfg)));
    }
    for &s in &sinks {
        sim.set_agent(s, Box::<Sink>::default());
    }
    let blocks = LIVE.load(Ordering::Relaxed) - live0;

    // Two pools of N / 256 chunks, each pool's chunk table, the pools
    // themselves and the store's two small tables.
    let chunks = 2 * (N / 256) as i64;
    assert!(blocks >= chunks, "{blocks} live blocks: the agents are stored somewhere");
    assert!(blocks <= chunks + 8, "{blocks} live blocks for {} agents", 2 * N);
    assert!(sim.agent_as::<EcmpRouter>(routers[N - 1]).is_some());
    assert_eq!(sim.agent_as::<Sink>(sinks[N - 1]).map(|s| s.got), Some(0));
}
