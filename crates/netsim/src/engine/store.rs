//! The agent store: one per shard, beside its `World`. Every agent of one
//! concrete type lives in one pool of `Option<A>` rows — `Box<dyn Agent>`
//! being one more such type — and each owned node maps to a 4-byte [`Slot`]
//! naming its pool and row. Dispatch goes through the pool's
//! monomorphised methods: one virtual call on the pool, then `A`'s own,
//! statically. A replaced agent's row is tombstoned (`None`: the agent is
//! dropped in place) and its index goes on the pool's free list for the
//! next agent of the type; no live agent ever moves. `docs/INTERNALS.md` §6,
//! "The agent store".

use super::{Agent, Ctx, NullAgent, Payload, Sim};
use crate::downcast::AsAny;
use crate::id::{IfaceId, NodeId};
use crate::shard::ShardPlan;
use crate::stats::TrafficClass;
use crate::topology::Topology;
use std::any::TypeId;

/// Bits of a [`Slot`] that index a row.
const ROW_BITS: u32 = 24;

// A pool holds at most one row per node, so every row index is below
// `MAX_NODES` and the all-ones index is never a row: `Slot::NULL`'s.
const _: () = assert!(Topology::MAX_NODES < 1 << ROW_BITS);

/// Where a node's agent lives: `pool << 24 | row`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) struct Slot(u32);

impl Slot {
    /// The node runs a [`NullAgent`], which occupies no row.
    const NULL: Slot = Slot(u32::MAX);

    fn new(pool: usize, row: usize) -> Slot {
        Slot((pool as u32) << ROW_BITS | row as u32)
    }

    fn get(self) -> Option<(usize, usize)> {
        (self != Slot::NULL).then_some(((self.0 >> ROW_BITS) as usize, (self.0 & ((1 << ROW_BITS) - 1)) as usize))
    }
}

/// What a pool holds: an agent by value, or a `Box<dyn Agent>` in the one
/// pool of boxed agents.
pub(super) trait Row: Send + 'static {
    fn agent(&mut self) -> &mut dyn Agent;
    fn agent_ref(&self) -> &dyn Agent;
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        self.agent().on_packet(ctx, iface, bytes, class)
    }
}

impl<A: Agent + 'static> Row for A {
    fn agent(&mut self) -> &mut dyn Agent {
        self
    }
    fn agent_ref(&self) -> &dyn Agent {
        self
    }
    #[inline]
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        A::on_packet(self, ctx, iface, bytes, class)
    }
}

impl Row for Box<dyn Agent> {
    fn agent(&mut self) -> &mut dyn Agent {
        &mut **self
    }
    fn agent_ref(&self) -> &dyn Agent {
        &**self
    }
}

/// The sealed half of [`IntoAgent`](super::IntoAgent): how each accepted
/// shape reaches the store.
pub trait Place {
    /// Install `self` at `node` of `sim`.
    fn place(self, sim: &mut Sim, node: NodeId);
}

impl<A: Agent + 'static> Place for Box<A> {
    fn place(self, sim: &mut Sim, node: NodeId) {
        sim.install_agent(node, *self)
    }
}

impl Place for Box<dyn Agent> {
    fn place(self, sim: &mut Sim, node: NodeId) {
        sim.install_agent(node, self)
    }
}

/// A pool of one row type, seen by the store.
trait Pool: Send + AsAny {
    fn agent(&mut self, row: usize) -> &mut dyn Agent;
    fn agent_ref(&self, row: usize) -> &dyn Agent;
    fn on_packet(&mut self, row: usize, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass);
    /// Tombstone `row`: drop its agent in place and free the index.
    fn remove(&mut self, row: usize);
    /// Move the agent at `row` to `node` in `dst`.
    fn move_to(&mut self, row: usize, dst: &mut AgentStore, node: NodeId);
    #[cfg(test)]
    fn len(&self) -> usize;
}

/// Rows per chunk of a pool.
const CHUNK: usize = 256;

/// The pool of every agent of one row type. Rows come in chunks of
/// [`CHUNK`], each its own heap block: the pool grows without moving a row,
/// and its memory is the allocator's ordinary small-block heap, which the
/// next simulation built in the process reuses — where one contiguous
/// `Vec` of rows would be a fresh mapping, faulted in page by page, every
/// time.
struct PoolOf<R> {
    chunks: Vec<Box<[Option<R>; CHUNK]>>,
    /// Rows handed out so far, tombstones included.
    len: usize,
    /// Tombstoned rows, reused before the pool grows.
    free: Vec<u32>,
}

impl<R: Row> PoolOf<R> {
    fn insert(&mut self, agent: R) -> usize {
        let row = match self.free.pop() {
            Some(row) => row as usize,
            None => {
                if self.len.is_multiple_of(CHUNK) {
                    let mut chunk = Vec::with_capacity(CHUNK);
                    chunk.resize_with(CHUNK, || None);
                    let chunk: Box<[Option<R>]> = chunk.into_boxed_slice();
                    self.chunks.push(chunk.try_into().ok().expect("CHUNK rows"));
                }
                self.len += 1;
                self.len - 1
            }
        };
        *self.cell(row) = Some(agent);
        row
    }

    #[inline]
    fn cell(&mut self, row: usize) -> &mut Option<R> {
        &mut self.chunks[row / CHUNK][row % CHUNK]
    }

    #[inline]
    fn row(&mut self, row: usize) -> &mut R {
        self.cell(row).as_mut().expect("a slot names a live row")
    }
}

impl<R: Row> Pool for PoolOf<R> {
    fn agent(&mut self, row: usize) -> &mut dyn Agent {
        self.row(row).agent()
    }
    fn agent_ref(&self, row: usize) -> &dyn Agent {
        self.chunks[row / CHUNK][row % CHUNK].as_ref().expect("a slot names a live row").agent_ref()
    }
    fn on_packet(&mut self, row: usize, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        self.row(row).on_packet(ctx, iface, bytes, class)
    }
    fn remove(&mut self, row: usize) {
        *self.cell(row) = None;
        self.free.push(row as u32);
    }
    fn move_to(&mut self, row: usize, dst: &mut AgentStore, node: NodeId) {
        let agent = self.cell(row).take().expect("a slot names a live row");
        dst.put(node, agent);
    }
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }
}

/// One shard's agents: a slot per owned node (indexed `node - base`) and a
/// pool per agent type that has been installed in the shard.
pub(super) struct AgentStore {
    base: u32,
    slots: Vec<Slot>,
    /// Each pool with its row type.
    pools: Vec<(TypeId, Box<dyn Pool>)>,
    /// What a [`Slot::NULL`] node dispatches into.
    null: NullAgent,
}

impl AgentStore {
    /// A store for the nodes `[base, limit)`, each running a [`NullAgent`].
    pub(super) fn new(base: u32, limit: u32) -> AgentStore {
        AgentStore {
            base,
            slots: vec![Slot::NULL; (limit - base) as usize],
            pools: Vec::new(),
            null: NullAgent,
        }
    }

    #[inline]
    fn slot(&self, node: NodeId) -> Slot {
        self.slots[(node.0 - self.base) as usize]
    }

    /// Put `agent` at `node`, dropping the agent it replaces. A
    /// [`NullAgent`] takes no row.
    pub(super) fn put<R: Row>(&mut self, node: NodeId, agent: R) {
        let li = (node.0 - self.base) as usize;
        if let Some((p, row)) = self.slots[li].get() {
            self.pools[p].1.remove(row);
            self.slots[li] = Slot::NULL;
        }
        let ty = TypeId::of::<R>();
        if ty == TypeId::of::<NullAgent>() {
            return;
        }
        let p = self.pools.iter().position(|&(t, _)| t == ty).unwrap_or_else(|| {
            assert!(self.pools.len() < 1 << (32 - ROW_BITS), "more agent types in one shard than a slot can name");
            self.pools.push((ty, Box::new(PoolOf::<R> { chunks: Vec::new(), len: 0, free: Vec::new() })));
            self.pools.len() - 1
        });
        // The pool, not its `Box`, which is `Any` too.
        let pool = AsAny::any_mut(&mut *self.pools[p].1).downcast_mut::<PoolOf<R>>().expect("a pool holds the type it was made for");
        self.slots[li] = Slot::new(p, pool.insert(agent));
    }

    /// The agent at `node`.
    pub(super) fn agent(&mut self, node: NodeId) -> &mut dyn Agent {
        match self.slot(node).get() {
            Some((p, row)) => self.pools[p].1.agent(row),
            None => &mut self.null,
        }
    }

    /// The agent at `node`, read-only.
    pub(super) fn agent_ref(&self, node: NodeId) -> &dyn Agent {
        match self.slot(node).get() {
            Some((p, row)) => self.pools[p].1.agent_ref(row),
            None => &self.null,
        }
    }

    /// Deliver a frame to the agent at `node`: `A::on_packet` behind one
    /// virtual call on its pool (a [`NullAgent`] ignores it).
    #[inline]
    pub(super) fn on_packet(&mut self, node: NodeId, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        if let Some((p, row)) = self.slot(node).get() {
            self.pools[p].1.on_packet(row, ctx, iface, bytes, class)
        }
    }

    /// Hand every agent of this store to the store that owns its node
    /// under `plan`, in ascending node order.
    pub(super) fn rehome(mut self, stores: &mut [AgentStore], plan: &ShardPlan) {
        for li in 0..self.slots.len() {
            if let Some((p, row)) = self.slots[li].get() {
                let node = NodeId(self.base + li as u32);
                self.pools[p].1.move_to(row, &mut stores[plan.shard_of(node)], node);
            }
        }
    }

    /// Rows per pool, tombstones included.
    #[cfg(test)]
    pub(super) fn pool_lens(&self) -> Vec<usize> {
        self.pools.iter().map(|(_, p)| p.len()).collect()
    }
}
