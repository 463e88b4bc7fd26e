//! Topology partitioning for the sharded parallel engine.
//!
//! A **shard is an arena slice**: a contiguous `NodeId` range
//! `[bounds[s], bounds[s+1])`. Contiguity is not a simplification — it is
//! the point. The arena topology (`docs/INTERNALS.md` §2) already lays
//! nodes out so that neighbors sit close in id space (`topogen` numbers
//! kary trees level-order/BFS and random graphs in construction order), so
//! a contiguous cut is simultaneously a subtree/locality cut *and* keeps
//! every per-node slab (`agents`, `rngs`, stats scratch) splittable with
//! `split_at_mut` — no indirection table on the hot path.
//!
//! [`partition`] balances shards by node *weight* (1 + interface count, a
//! proxy for dispatch cost) with a greedy sweep, then nudges each boundary
//! locally to minimize the number of cut links. Two hard constraints:
//!
//! * **No zero-latency link may be cut.** The conservative lookahead
//!   window is `L = min latency over cut links`; a zero-latency cut would
//!   collapse the safe window to nothing. If a boundary cannot be shifted
//!   off every zero-latency link, we retry with fewer shards — a correct
//!   plan with less parallelism beats an incorrect one.
//! * **At most 64 shards**, so per-link shard membership fits a `u64`
//!   bitmask ([`ShardPlan::link_mask`]).
//!
//! The plan is a pure function of the topology — it never looks at seeds,
//! agents, or traffic — so the same topology always partitions the same
//! way, which the determinism contract (INTERNALS §6) relies on.

use crate::id::{LinkId, NodeId};
use crate::time::SimDuration;
use crate::topology::Topology;

/// Maximum shard count (per-link shard membership is a `u64` bitmask).
pub const MAX_SHARDS: usize = 64;

/// How far (in node ids) a boundary may be nudged off its balance point
/// while minimizing cut links.
const ADJUST_WINDOW: u32 = 8;

/// A partition of the topology into contiguous `NodeId` ranges, plus the
/// cross-shard link analysis the conservative runtime needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shard_count() + 1` monotonically increasing fenceposts;
    /// `bounds[0] == 0`, `bounds[last] == node_count`. Shard `s` owns
    /// nodes `[bounds[s], bounds[s+1])`.
    bounds: Vec<u32>,
    /// Per link: bitmask of shards owning at least one endpoint. Empty for
    /// the single-shard plan, where every link's mask is shard 0's bit.
    link_masks: Vec<u64>,
    /// Minimum one-way latency over cut links — the conservative safe
    /// window. `SimDuration(u64::MAX)` when no link is cut.
    lookahead: SimDuration,
}

impl ShardPlan {
    /// The trivial single-shard plan: every node in shard 0, nothing cut —
    /// what a `Sim` runs under until `set_shards` (drained inline, no threads).
    pub fn single(topo: &Topology) -> ShardPlan {
        ShardPlan {
            bounds: vec![0, topo.node_count() as u32],
            link_masks: Vec::new(),
            lookahead: SimDuration(u64::MAX),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The node-id range `[base, limit)` owned by shard `s`.
    pub fn range(&self, s: usize) -> (u32, u32) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// The fencepost array (`shard_count() + 1` entries).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// Which shard owns `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        // partition_point: first fencepost strictly above the id; the
        // shard index is one less.
        self.bounds.partition_point(|&b| b <= node.0) - 1
    }

    /// Bitmask of shards owning at least one endpoint of `link`.
    pub fn link_mask(&self, link: LinkId) -> u64 {
        if self.link_masks.is_empty() {
            return 1;
        }
        self.link_masks[link.0 as usize]
    }

    /// Does `link` span more than one shard?
    pub fn is_cut(&self, link: LinkId) -> bool {
        self.link_mask(link).count_ones() > 1
    }

    /// Number of cut links.
    pub fn cut_links(&self) -> usize {
        self.link_masks.iter().filter(|m| m.count_ones() > 1).count()
    }

    /// The conservative lookahead: minimum one-way latency over cut links
    /// (`SimDuration(u64::MAX)` if nothing is cut). Strictly positive by
    /// construction — the safe-window guarantee of INTERNALS §6.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }
}

/// Scan every link, filling the per-link shard masks and the minimum
/// cut latency. Returns `None` if a zero-latency link is cut (the plan
/// would have no safe window).
fn analyze(topo: &Topology, bounds: &[u32]) -> Option<(Vec<u64>, SimDuration)> {
    let plan_of = |node: NodeId| bounds.partition_point(|&b| b <= node.0) - 1;
    let mut masks = vec![0u64; topo.link_count()];
    let mut lookahead = SimDuration(u64::MAX);
    for (li, mask) in masks.iter_mut().enumerate() {
        let link = LinkId(li as u32);
        for e in 0..topo.link_endpoint_count(link) {
            let (node, _) = topo.link_endpoint(link, e);
            *mask |= 1u64 << plan_of(node);
        }
        if mask.count_ones() > 1 {
            let lat = topo.link_spec(link).latency;
            if lat.0 == 0 {
                return None;
            }
            lookahead = lookahead.min(lat);
        }
    }
    Some((masks, lookahead))
}

/// Partition `topo` into at most `shards` contiguous slices (see the
/// module docs for the algorithm). The returned plan may have fewer
/// shards than requested: the count is clamped to `min(shards, 64,
/// node_count)` and reduced further if that is the only way to avoid
/// cutting a zero-latency link. Requesting 0 or 1 shards (or partitioning
/// an empty topology) yields the trivial [`ShardPlan::single`].
pub fn partition(topo: &Topology, shards: usize) -> ShardPlan {
    let n = topo.node_count();
    let mut want = shards.min(MAX_SHARDS).min(n.max(1));
    while want > 1 {
        let bounds = balanced_bounds(topo, want);
        let bounds = adjust_boundaries(topo, bounds);
        if let Some((link_masks, lookahead)) = analyze(topo, &bounds) {
            return ShardPlan { bounds, link_masks, lookahead };
        }
        // A zero-latency link could not be un-cut at this shard count;
        // coarsen and try again.
        want -= 1;
    }
    ShardPlan::single(topo)
}

/// Build a plan from explicit fenceposts (`bounds[0] == 0`,
/// `bounds[last] == node_count`, strictly increasing). Exposed for the
/// randomized-partition property tests; panics if the bounds are invalid
/// or would cut a zero-latency link.
pub fn plan_from_bounds(topo: &Topology, bounds: &[u32]) -> ShardPlan {
    assert!(bounds.len() >= 2, "bounds need at least two fenceposts");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().unwrap(),
        topo.node_count() as u32,
        "bounds must end at node_count"
    );
    assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
    assert!(bounds.len() - 1 <= MAX_SHARDS, "at most {MAX_SHARDS} shards");
    let (link_masks, lookahead) =
        analyze(topo, bounds).expect("explicit shard bounds cut a zero-latency link");
    ShardPlan { bounds: bounds.to_vec(), link_masks, lookahead }
}

/// Greedy weight-balanced sweep: node weight is `1 + iface_count` (a
/// dispatch-cost proxy), and fencepost `s` lands where the running weight
/// first reaches `s/want` of the total.
fn balanced_bounds(topo: &Topology, want: usize) -> Vec<u32> {
    let n = topo.node_count();
    let total: u64 = (0..n).map(|i| 1 + topo.iface_count(NodeId(i as u32)) as u64).sum();
    let mut bounds = Vec::with_capacity(want + 1);
    bounds.push(0u32);
    let mut acc = 0u64;
    let mut next_target = total / want as u64;
    let mut cut = 1usize;
    for i in 0..n {
        acc += 1 + topo.iface_count(NodeId(i as u32)) as u64;
        // Leave enough nodes for the remaining shards to be non-empty.
        let max_here = n - (want - cut);
        while cut < want && (acc >= next_target || i + 1 >= max_here) {
            bounds.push((i + 1) as u32);
            cut += 1;
            next_target = total * cut as u64 / want as u64;
        }
    }
    bounds.push(n as u32);
    bounds
}

/// Nudge each interior fencepost within [`ADJUST_WINDOW`] of its balance
/// point to minimize the number of links crossing it, refusing positions
/// that would cut a zero-latency link if any candidate avoids one. Only
/// links incident to window nodes are scored — links spanning the whole
/// window cross at every candidate and cancel out.
fn adjust_boundaries(topo: &Topology, mut bounds: Vec<u32>) -> Vec<u32> {
    for bi in 1..bounds.len() - 1 {
        let b0 = bounds[bi];
        let lo = (bounds[bi - 1] + 1).max(b0.saturating_sub(ADJUST_WINDOW));
        let hi = (bounds[bi + 1] - 1).min(b0 + ADJUST_WINDOW).max(lo);
        if lo == hi {
            continue;
        }
        // Links with at least one endpoint inside the candidate window,
        // deduplicated via sort; (min_ep, max_ep, zero_latency).
        let mut spans: Vec<(u32, u32, bool)> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        for node in lo.saturating_sub(1)..hi {
            for link in topo.links_of(NodeId(node)) {
                if seen.contains(&link.0) {
                    continue;
                }
                seen.push(link.0);
                let mut min_ep = u32::MAX;
                let mut max_ep = 0u32;
                for e in 0..topo.link_endpoint_count(link) {
                    let (ep, _) = topo.link_endpoint(link, e);
                    min_ep = min_ep.min(ep.0);
                    max_ep = max_ep.max(ep.0);
                }
                spans.push((min_ep, max_ep, topo.link_spec(link).latency.0 == 0));
            }
        }
        let score = |b: u32| -> (u32, u32, u32) {
            let mut cuts = 0u32;
            let mut zero_cuts = 0u32;
            for &(min_ep, max_ep, zero) in &spans {
                if min_ep < b && b <= max_ep {
                    cuts += 1;
                    if zero {
                        zero_cuts += 1;
                    }
                }
            }
            (zero_cuts, cuts, b.abs_diff(b0))
        };
        bounds[bi] = (lo..=hi).min_by_key(|&b| score(b)).unwrap_or(b0);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topogen;
    use crate::topology::LinkSpec;

    #[test]
    fn single_plan_covers_everything() {
        let topo = topogen::kary_tree(2, 3, LinkSpec::default()).topo;
        let plan = ShardPlan::single(&topo);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.cut_links(), 0);
        assert_eq!(plan.shard_of(NodeId(0)), 0);
        assert_eq!(plan.shard_of(NodeId(topo.node_count() as u32 - 1)), 0);
        assert_eq!(plan.lookahead(), SimDuration(u64::MAX));
    }

    #[test]
    fn partition_is_contiguous_balanced_and_covers() {
        let topo = topogen::kary_tree(4, 6, LinkSpec::default()).topo;
        let n = topo.node_count() as u32;
        for shards in [2usize, 3, 4, 8] {
            let plan = partition(&topo, shards);
            assert_eq!(plan.shard_count(), shards, "got full shard count");
            assert_eq!(plan.bounds()[0], 0);
            assert_eq!(*plan.bounds().last().unwrap(), n);
            assert!(plan.bounds().windows(2).all(|w| w[0] < w[1]));
            // Every node maps into the shard whose range contains it.
            for i in 0..n {
                let s = plan.shard_of(NodeId(i));
                let (base, limit) = plan.range(s);
                assert!(base <= i && i < limit);
            }
            // Weight balance within 2x of even.
            let weight = |s: usize| -> u64 {
                let (base, limit) = plan.range(s);
                (base..limit).map(|i| 1 + topo.iface_count(NodeId(i)) as u64).sum()
            };
            let total: u64 = (0..shards).map(weight).sum();
            for s in 0..shards {
                assert!(weight(s) <= 2 * total / shards as u64, "shard {s} overweight");
            }
            // Lookahead is the (uniform) link latency here.
            assert!(plan.cut_links() > 0);
            assert_eq!(plan.lookahead(), LinkSpec::default().latency);
        }
    }

    #[test]
    fn boundary_adjustment_avoids_heavy_cuts_on_a_lan() {
        // 40 plain nodes, then a 6-member LAN, then 40 more. An unadjusted
        // midpoint cut (at 43) would slice the LAN; the adjuster should
        // move the fencepost off it.
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..86).map(|_| topo.add_router()).collect();
        for w in nodes.windows(2) {
            topo.connect(w[0], w[1], LinkSpec::default()).unwrap();
        }
        topo.add_lan(&nodes[40..46], LinkSpec::lan()).unwrap();
        let plan = partition(&topo, 2);
        let b = plan.bounds()[1];
        assert!(!(41..=45).contains(&b), "boundary {b} slices the LAN");
        assert_eq!(plan.cut_links(), 1);
    }

    #[test]
    fn zero_latency_cut_forces_fewer_shards() {
        // A 4-node line whose middle link has zero latency: a 2-shard cut
        // anywhere would either cut it or leave an empty side after the
        // adjuster runs out of room... construct so every boundary cuts a
        // zero-latency link: all links zero-latency.
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..4).map(|_| topo.add_router()).collect();
        for w in nodes.windows(2) {
            topo.connect(w[0], w[1], LinkSpec { latency: SimDuration(0), ..Default::default() })
                .unwrap();
        }
        let plan = partition(&topo, 2);
        assert_eq!(plan.shard_count(), 1, "fell back to a single shard");
    }

    #[test]
    fn plan_from_bounds_validates() {
        let topo = topogen::kary_tree(2, 4, LinkSpec::default()).topo;
        let n = topo.node_count() as u32;
        let plan = plan_from_bounds(&topo, &[0, 7, n]);
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.shard_of(NodeId(6)), 0);
        assert_eq!(plan.shard_of(NodeId(7)), 1);
        let equivalent = partition(&topo, 1);
        assert_eq!(equivalent, ShardPlan::single(&topo));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn plan_from_bounds_rejects_unsorted() {
        let topo = topogen::kary_tree(2, 3, LinkSpec::default()).topo;
        let n = topo.node_count() as u32;
        let _ = plan_from_bounds(&topo, &[0, 5, 5, n]);
    }
}
