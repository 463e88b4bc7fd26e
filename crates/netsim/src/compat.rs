//! Names the `benchmark` package still calls and nothing else does: inert
//! ones the engine reads none of, and shims over their replacements. Each
//! goes when its caller under `benchmark/src` stops naming it (the
//! `compat_items_are_named_by_the_benchmark` test keeps that true).

use crate::engine::{Agent, Ctx, Payload, Sim};
use crate::id::{IfaceId, LinkId, NodeId};
use crate::stats::TrafficClass;
use crate::topology::Topology;

impl Sim {
    /// Does nothing, whatever `n` is: the engine has one event loop.
    /// Called by `benchmark/src/workloads/observed.rs`.
    #[doc(hidden)]
    pub fn set_shards(&mut self, n: usize) {
        let _ = n;
    }

    /// Always 1. Called by `benchmark/src/workloads/observed.rs`.
    #[doc(hidden)]
    pub fn shard_count(&self) -> usize {
        1
    }

    /// Always `(0, 0)`: no sync windows, no barrier stall.
    /// Called by `benchmark/src/workloads/observed.rs`.
    #[doc(hidden)]
    pub fn sync_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// What `Agent::hot_packet_fn` returns; the engine never calls it. Named by
/// `benchmark/src/agents.rs` and `benchmark/src/spans.rs`.
#[doc(hidden)]
pub type HotPacketFn = fn(&mut dyn Agent, &mut Ctx<'_>, IfaceId, &Payload, TrafficClass);

/// A `HotPacketFn` that calls `A::on_packet` on a `dyn Agent` holding an
/// `A`; the engine never calls it. Called by `benchmark/src/agents.rs`.
#[doc(hidden)]
pub fn hot_packet_stub<A: Agent + 'static>() -> HotPacketFn {
    |agent, ctx, iface, bytes, class| {
        agent
            .as_any_mut()
            .downcast_mut::<A>()
            .expect("hot-path stub cached for a different agent type")
            .on_packet(ctx, iface, bytes, class)
    }
}

impl Topology {
    /// Every endpoint of `link`, collected: what [`Topology::endpoints`]
    /// yields. Called by `benchmark/src/workloads/isp.rs`.
    #[doc(hidden)]
    pub fn link_endpoints(&self, link: LinkId) -> Vec<(NodeId, IfaceId)> {
        self.endpoints(link).collect()
    }
}
