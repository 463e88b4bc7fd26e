//! Unicast routing: destination-rooted shortest-path trees and the
//! reverse-path-forwarding (RPF) lookup.
//!
//! The paper's §3 leans on exactly this substrate: "explicit source
//! specification allows reverse-path forwarding (RPF) to be used to route
//! subscriptions and unsubscriptions toward the source ... The RPF routing
//! component of ECMP relies on, and scales with, existing unicast topology
//! information." [`Routing::rpf`] answers *which interface (and which
//! upstream neighbor) leads toward a given source* — the only question
//! ECMP, PIM's source joins and CBT's core joins ever ask.
//!
//! EXPRESS is single-source, so a run asks that question from thousands of
//! *origins* about a few dozen *destinations*. The cache is therefore keyed
//! by destination: the first query toward `t` builds one tree holding every
//! node's next hop toward `t`, and every later query toward `t`, from any
//! origin, is an array read.
//!
//! ## What is modelled, and why the transposed cache gives the same answers
//!
//! The modelled network runs link-state SPF at every node: origin `o` runs
//! Dijkstra from itself over the up links, popping nodes in `(distance, node
//! id)` order and relaxing on strict improvement only (interfaces in index
//! order). Node `v`'s predecessor in `o`'s tree is then the *first-popped
//! tight predecessor*: among the neighbors `u` with `dist_o(u) + metric =
//! dist_o(v)`, the one with the least `(dist_o(u), id)` — equivalently the
//! largest link metric, then the lowest id — over `u`'s lowest such
//! interface. Read from `t` back to `o`, `o`'s path to `t` is the
//! **lexicographically least** shortest path under the per-step key *(larger
//! metric, lower node id, lower interface of the far node)*: every candidate
//! at every step lies on some shortest path and so can be completed, so the
//! greedy choice and the lexicographic minimum coincide.
//!
//! A tree toward `t` is built from the other end and produces that same path
//! for every origin at once: one distance-only Dijkstra from `t` (distances
//! are symmetric — links are undirected and carry one metric), then one
//! depth-first search from `t` over the *tight-edge DAG* (`u` is a child of
//! `v` iff `dist_t(u) = dist_t(v) + metric` over an up link) visiting
//! children in that key order. A lexicographic DFS discovers every node along
//! its lexicographically least root path (white-path theorem; a prefix of a
//! least path is a least path), and the root paths of the DAG are exactly the
//! shortest paths. So `o`'s DFS parent is its next hop toward `t`, the
//! interface it was discovered over is its outgoing interface, and
//! `dist_t(o)` is the path metric. The tight edges form a DAG only when every
//! metric is at least 1, which [`Topology`] enforces when links are created.
//! *Sub-path consistency* — the tail of a least path is the least path of its
//! first node — is what makes hop-by-hop forwarding follow the origin's own
//! tree, and is why [`Routing::path`] can walk one destination tree.
//!
//! The origin-rooted Dijkstra survives as the test oracle at the bottom of
//! this file; the equivalence is checked there on over a million (origin,
//! destination) pairs.
//!
//! ## Invalidation
//!
//! Invalidation is **incremental** where that is provably safe: a link going
//! *down* drops only the trees in which that link is some node's chosen
//! parent link ([`Routing::invalidate_link`]) — removing an edge the DFS
//! never took changes no distance, and the edge led to an already-visited
//! node when it was scanned, so no discovery changes either. A link coming
//! up, a crash, or a restart falls back to the full flush
//! ([`Routing::invalidate`]).
//!
//! ## Counters: simulated work and host work
//!
//! [`Routing::compute_count`] is a **simulated** statistic: the SPF runs the
//! modelled routers perform, one per origin per invalidation that touched
//! that origin's own shortest-path tree. It is kept with one bit per origin
//! ("has resolved a route since its last flush"); a link-down clears exactly
//! the origins whose own tree crossed the link, read off the trees rooted at
//! the link's endpoints. [`Routing::tree_build_count`] is the **host** work
//! actually done: destination trees built.

use crate::id::{IfaceId, LinkId, NodeId};
use crate::topology::Topology;
use core::cmp::Reverse;
use express_wire::addr::Ipv4Addr;
use std::collections::BinaryHeap;

/// A next-hop decision: leave through `iface` toward neighbor `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHop {
    /// The local outgoing interface.
    pub iface: IfaceId,
    /// The neighbor on that interface that is the next hop.
    pub next: NodeId,
    /// Total path metric to the destination.
    pub metric: u32,
}

/// One destination's cached shortest-path tree.
#[derive(Debug)]
struct Tree {
    /// `hops[o]` = `o`'s next hop toward the destination (None if
    /// unreachable or `o` is the destination).
    hops: Vec<Option<NextHop>>,
    /// Every node with a hop, parents before children (DFS preorder).
    order: Vec<NodeId>,
    /// Bitset over link ids: the links that are some node's chosen parent
    /// link — the tree's edges.
    used_links: Vec<u64>,
}

fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1u64 << (i % 64))
}

/// Cached shortest-path routing state. Holds nothing per node until the
/// first query.
#[derive(Debug, Default)]
pub struct Routing {
    /// `toward[t]` = the tree rooted at destination `t` (`None` = not
    /// cached). Sized to the topology on the first query.
    toward: Vec<Option<Box<Tree>>>,
    /// Bitset over origins: has resolved a route since its last flush.
    resolved: Vec<u64>,
    generation: u64,
    computes: u64,
    queries: u64,
    tree_builds: u64,
}

impl Routing {
    /// Fresh, empty routing state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all cached trees (topology changed in a way that can create
    /// new shortest paths). Bumps the generation counter that protocols can
    /// watch to detect recomputation.
    pub fn invalidate(&mut self) {
        self.toward.clear();
        self.resolved.clear();
        self.generation += 1;
    }

    /// Incremental invalidation for a link that went **down**: drop only
    /// the trees in which `link` is some node's parent link (see the module
    /// docs for why the others are byte-for-byte what a rebuild would
    /// produce), and mark for a fresh simulated SPF run exactly the resolved
    /// origins whose own shortest-path tree crossed `link`. Origin `o`'s tree
    /// crossed it iff, toward some endpoint `b` of the link, `o` is or hangs
    /// under a child of `b` attached over `link`. Still bumps the generation
    /// (the topology did change).
    ///
    /// `topo` may already have `link` marked down: the endpoint trees are
    /// needed as they stood before the change, so a missing one is built
    /// with `link` counted as up.
    pub fn invalidate_link(&mut self, topo: &Topology, link: LinkId) {
        self.generation += 1;
        if self.resolved.iter().any(|&w| w != 0) {
            let mut over_link = vec![false; topo.node_count()];
            for &(b, _) in topo.link_endpoints(link) {
                let tree = tree_toward(&mut self.toward, &mut self.tree_builds, topo, b, Some(link));
                for &o in &tree.order {
                    let hop = tree.hops[o.index()].expect("ordered nodes have a hop");
                    over_link[o.index()] = if hop.next == b {
                        topo.link_of(o, hop.iface) == Ok(link)
                    } else {
                        over_link[hop.next.index()]
                    };
                    if over_link[o.index()] {
                        // (A node added since the last query has no word yet.)
                        let (w, m) = bit(o.index());
                        if let Some(word) = self.resolved.get_mut(w) {
                            *word &= !m;
                        }
                    }
                }
            }
        }
        // An endpoint tree built just now that does not use `link` is also
        // the tree of the topology without it, so it may stay.
        let (w, m) = bit(link.index());
        for t in &mut self.toward {
            if t.as_ref().is_some_and(|t| t.used_links.get(w).is_some_and(|x| x & m != 0)) {
                *t = None;
            }
        }
    }

    /// Monotone counter incremented by every [`invalidate`](Self::invalidate)
    /// and [`invalidate_link`](Self::invalidate_link).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Simulated SPF runs so far: one per origin per invalidation that
    /// touched that origin's own shortest-path tree — what the modelled
    /// routers would compute, not what this process did (that is
    /// [`tree_build_count`](Self::tree_build_count)). Together with
    /// [`query_count`](Self::query_count) this yields the route-cache reuse
    /// rate the scale benchmarks report.
    pub fn compute_count(&self) -> u64 {
        self.computes
    }

    /// Total next-hop lookups served.
    pub fn query_count(&self) -> u64 {
        self.queries
    }

    /// Destination trees actually built (one Dijkstra plus one DFS each):
    /// the host work behind the answers.
    pub fn tree_build_count(&self) -> u64 {
        self.tree_builds
    }

    /// The next hop from `from` toward node `to`, or `None` if unreachable
    /// or `from == to`.
    pub fn next_hop(&mut self, topo: &Topology, from: NodeId, to: NodeId) -> Option<NextHop> {
        self.queries += 1;
        let words = topo.node_count().div_ceil(64);
        if self.resolved.len() < words {
            self.resolved.resize(words, 0);
        }
        let (w, m) = bit(from.index());
        if self.resolved[w] & m == 0 {
            self.resolved[w] |= m;
            self.computes += 1;
        }
        if from == to || to.index() >= topo.node_count() {
            return None;
        }
        let tree = tree_toward(&mut self.toward, &mut self.tree_builds, topo, to, None);
        tree.hops.get(from.index()).copied().flatten()
    }

    /// The next hop from `from` toward the node owning unicast address
    /// `to_ip`.
    pub fn next_hop_ip(&mut self, topo: &Topology, from: NodeId, to_ip: Ipv4Addr) -> Option<NextHop> {
        let to = topo.node_by_ip(to_ip)?;
        self.next_hop(topo, from, to)
    }

    /// The RPF lookup: which local interface and upstream neighbor lead
    /// toward `source`? This is how ECMP routes subscriptions toward the
    /// channel source, hop by hop (paper §3.2, Figure 3).
    ///
    /// Returns `None` at the source's own node or when the source is
    /// unreachable.
    pub fn rpf(&mut self, topo: &Topology, at: NodeId, source: Ipv4Addr) -> Option<NextHop> {
        self.next_hop_ip(topo, at, source)
    }

    /// Path metric from `from` to `to` (None if unreachable; 0 if equal).
    pub fn distance(&mut self, topo: &Topology, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        self.next_hop(topo, from, to).map(|h| h.metric)
    }

    /// The full node path `from → … → to` (inclusive), following cached
    /// next hops. None if unreachable.
    pub fn path(&mut self, topo: &Topology, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let hop = self.next_hop(topo, cur, to)?;
            cur = hop.next;
            path.push(cur);
            if path.len() > topo.node_count() {
                // Defensive: inconsistent tables would loop forever.
                return None;
            }
        }
        Some(path)
    }

    /// Hop count (number of links) from `from` to `to`.
    pub fn hops(&mut self, topo: &Topology, from: NodeId, to: NodeId) -> Option<usize> {
        self.path(topo, from, to).map(|p| p.len() - 1)
    }
}

/// The cached tree toward `dest`, built on a miss over the up links plus
/// `assume_up`. Takes the two fields it touches so callers can keep using
/// the rest of the [`Routing`] while they hold the tree.
fn tree_toward<'a>(
    toward: &'a mut Vec<Option<Box<Tree>>>,
    builds: &mut u64,
    topo: &Topology,
    dest: NodeId,
    assume_up: Option<LinkId>,
) -> &'a Tree {
    if toward.len() < topo.node_count() {
        toward.resize_with(topo.node_count(), || None);
    }
    toward[dest.index()].get_or_insert_with(|| {
        *builds += 1;
        Box::new(build_tree(topo, dest, assume_up))
    })
}

/// Call `f(metric, neighbor, neighbor's iface)` for every neighbor of `v`
/// over every link that is up or is `assume_up`, in `v`'s interface order.
fn for_each_neighbor(
    topo: &Topology,
    v: NodeId,
    assume_up: Option<LinkId>,
    mut f: impl FnMut(u32, NodeId, IfaceId),
) {
    for i in 0..topo.iface_count(v) {
        let Ok(link) = topo.link_of(v, IfaceId(i as u8)) else { continue };
        if !topo.link_up(link) && Some(link) != assume_up {
            continue;
        }
        let metric = topo.link_spec(link).metric;
        for &(u, iu) in topo.link_endpoints(link) {
            if u != v {
                f(metric, u, iu);
            }
        }
    }
}

/// The shortest-path tree toward `dest`: a distance-only Dijkstra from
/// `dest`, then a lexicographic DFS over the tight edges (module docs).
fn build_tree(topo: &Topology, dest: NodeId, assume_up: Option<LinkId>) -> Tree {
    let n = topo.node_count();
    let mut dist: Vec<u32> = vec![u32::MAX; n];
    dist[dest.index()] = 0;
    let mut heap = BinaryHeap::from([Reverse((0u32, dest))]);
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        for_each_neighbor(topo, v, assume_up, |metric, u, _| {
            let nd = d.saturating_add(metric);
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(Reverse((nd, u)));
            }
        });
    }

    let mut hops: Vec<Option<NextHop>> = vec![None; n];
    let mut order = Vec::new();
    let mut used_links = vec![0u64; topo.link_count().div_ceil(64)];
    // Pending tree edges `(key…, parent)`, each node's batch sorted so the
    // least key pops first; a node is discovered when first *popped*, which
    // is the recursive DFS's order. The root entry's key is never compared.
    let mut stack = vec![(Reverse(0u32), dest, IfaceId(0), dest)];
    while let Some((_, u, iface, parent)) = stack.pop() {
        if u != dest {
            if hops[u.index()].is_some() {
                continue;
            }
            hops[u.index()] = Some(NextHop { iface, next: parent, metric: dist[u.index()] });
            order.push(u);
            let (w, m) = bit(topo.link_of(u, iface).expect("endpoint iface exists").index());
            used_links[w] |= m;
        }
        let batch = stack.len();
        for_each_neighbor(topo, u, assume_up, |metric, c, ic| {
            let dc = dist[c.index()];
            if dc != u32::MAX && dc == dist[u.index()].saturating_add(metric) && hops[c.index()].is_none() {
                stack.push((Reverse(metric), c, ic, u));
            }
        });
        stack[batch..].sort_unstable_by(|a, b| b.cmp(a));
    }
    Tree { hops, order, used_links }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The reference the destination trees must reproduce: one origin's
    /// link-state SPF exactly as the modelled routers run it.
    struct Oracle {
        /// `hops[dest]` = the origin's next hop toward `dest`.
        hops: Vec<Option<NextHop>>,
        /// The links of the origin's shortest-path tree.
        used_links: Vec<LinkId>,
    }

    /// Single-origin Dijkstra over up links with `(dist, id)` pop order and
    /// strict-improvement relaxation.
    fn oracle(topo: &Topology, origin: NodeId) -> Oracle {
        let n = topo.node_count();
        let mut dist: Vec<u32> = vec![u32::MAX; n];
        let mut first_hop: Vec<Option<NextHop>> = vec![None; n];
        // Link of the last (winning) relaxation per destination — the tree
        // edge leading into it.
        let mut pred_link: Vec<Option<LinkId>> = vec![None; n];
        dist[origin.index()] = 0;

        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        heap.push(Reverse((0, origin.0)));

        while let Some(Reverse((d, u))) = heap.pop() {
            let u_id = NodeId(u);
            if d > dist[u_id.index()] {
                continue;
            }
            for i in 0..topo.iface_count(u_id) {
                let iface = IfaceId(i as u8);
                let Ok(link) = topo.link_of(u_id, iface) else { continue };
                if !topo.link_up(link) {
                    continue;
                }
                let metric = topo.link_spec(link).metric;
                for &(v, _) in topo.link_endpoints(link) {
                    if v == u_id {
                        continue;
                    }
                    let nd = d.saturating_add(metric);
                    // Strict improvement only. Ties are resolved by the
                    // deterministic heap pop order (distance, then node
                    // id), so among equal-cost paths the one through the
                    // lowest-id already-settled node wins.
                    if nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        pred_link[v.index()] = Some(link);
                        first_hop[v.index()] = if u_id == origin {
                            Some(NextHop { iface, next: v, metric: nd })
                        } else {
                            first_hop[u_id.index()].map(|h| NextHop { metric: nd, ..h })
                        };
                        heap.push(Reverse((nd, v.0)));
                    }
                }
            }
        }
        let mut used_links: Vec<LinkId> = pred_link.into_iter().flatten().collect();
        used_links.sort_unstable();
        used_links.dedup();
        Oracle { hops: first_hop, used_links }
    }

    /// A seeded graph of 24–47 routers and hosts with point-to-point links
    /// (parallel ones included), a few multi-member LANs, metrics 1..=7 and
    /// about one link in six down. Not necessarily connected.
    fn random_topo(rng: &mut StdRng) -> Topology {
        let mut t = Topology::new();
        let n = rng.random_range(24usize..48);
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| if rng.random_range(0u32..4) == 0 { t.add_host() } else { t.add_router() })
            .collect();
        let spec = |rng: &mut StdRng| LinkSpec { metric: rng.random_range(1u32..8), ..Default::default() };
        for _ in 0..rng.random_range(n..2 * n) {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            if a != b {
                let s = spec(rng);
                // A node out of interfaces leaves a dead link id: fine.
                let first = t.connect(nodes[a], nodes[b], s).is_ok();
                if first && rng.random_range(0u32..5) == 0 {
                    let s = if rng.random() { s } else { spec(rng) };
                    let _ = t.connect(nodes[a], nodes[b], s);
                }
            }
        }
        for _ in 0..n / 8 {
            let mut members: Vec<NodeId> =
                (0..rng.random_range(3usize..7)).map(|_| nodes[rng.random_range(0..n)]).collect();
            members.sort_unstable();
            members.dedup();
            let s = spec(rng);
            let _ = t.add_lan(&members, s);
        }
        for l in 0..t.link_count() {
            if rng.random_range(0u32..6) == 0 {
                t.set_link_up(LinkId(l as u32), false);
            }
        }
        t
    }

    /// Every `(origin, dest)` answer must equal a fresh oracle's.
    fn assert_matches_oracle(r: &mut Routing, t: &Topology, what: &str) -> usize {
        for o in t.node_ids() {
            let want = oracle(t, o);
            for d in t.node_ids() {
                assert_eq!(r.next_hop(t, o, d), want.hops[d.index()], "{what}: {o} toward {d}");
            }
        }
        t.node_count() * t.node_count()
    }

    #[test]
    fn destination_trees_match_origin_spf_on_all_pairs() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0012);
        let mut pairs = 0;
        for case in 0..1000 {
            let t = random_topo(&mut rng);
            pairs += assert_matches_oracle(&mut Routing::new(), &t, &format!("case {case}"));
        }
        assert!(pairs >= 1_000_000, "only {pairs} pairs checked");
    }

    #[test]
    fn link_down_flushes_exactly_the_origins_whose_spf_tree_used_it() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0013);
        for case in 0..300 {
            let mut t = random_topo(&mut rng);
            let n = t.node_count();
            let mut r = Routing::new();
            // Resolve a random subset of origins toward a few destinations.
            let resolved: Vec<NodeId> = t.node_ids().filter(|_| rng.random_range(0u32..3) != 0).collect();
            for &o in &resolved {
                r.next_hop(&t, o, NodeId(rng.random_range(0..n) as u32));
            }
            let up: Vec<LinkId> =
                (0..t.link_count() as u32).map(LinkId).filter(|&l| t.link_up(l)).collect();
            let dead = up[rng.random_range(0..up.len())];
            let expect: Vec<NodeId> = resolved
                .iter()
                .copied()
                .filter(|&o| oracle(&t, o).used_links.contains(&dead))
                .collect();
            // The engine marks the link down first; both orders must work.
            if case % 2 == 0 {
                t.set_link_up(dead, false);
            }
            r.invalidate_link(&t, dead);
            t.set_link_up(dead, false);

            let flushed: Vec<NodeId> = t
                .node_ids()
                .filter(|&o| {
                    let before = r.compute_count();
                    r.next_hop(&t, o, o);
                    resolved.contains(&o) && r.compute_count() > before
                })
                .collect();
            assert_eq!(flushed, expect, "case {case}: {dead} down");
            assert_matches_oracle(&mut r, &t, &format!("case {case} after {dead} down"));
        }
    }

    #[test]
    fn unqueried_routing_holds_no_per_node_state() {
        let mut t = crate::topogen::line(100_000, LinkSpec::default()).topo;
        let (hub, link) = (NodeId(0), LinkId(50_000));
        let mut r = Routing::new();
        t.set_link_up(link, false);
        r.invalidate_link(&t, link);
        t.set_link_up(link, true);
        r.invalidate();
        assert_eq!(r.generation(), 2);
        assert_eq!((r.toward.capacity(), r.resolved.capacity()), (0, 0));
        assert_eq!(r.tree_build_count(), 0);
        // And once queried, the destination slots cost one pointer a node.
        r.next_hop(&t, hub, NodeId(1));
        assert_eq!(r.tree_build_count(), 1);
        assert!(core::mem::size_of::<Option<Box<Tree>>>() <= 8);
    }

    /// a - b - c with a spur d off b.
    fn line_topo() -> (Topology, [NodeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let c = t.add_router();
        let d = t.add_router();
        t.connect(a, b, LinkSpec::default()).unwrap();
        t.connect(b, c, LinkSpec::default()).unwrap();
        t.connect(b, d, LinkSpec::default()).unwrap();
        (t, [a, b, c, d])
    }

    #[test]
    fn shortest_paths_on_line() {
        let (t, [a, b, c, d]) = line_topo();
        let mut r = Routing::new();
        let hop = r.next_hop(&t, a, c).unwrap();
        assert_eq!(hop.next, b);
        assert_eq!(hop.metric, 2);
        assert_eq!(r.path(&t, a, c).unwrap(), vec![a, b, c]);
        assert_eq!(r.hops(&t, a, d), Some(2));
        assert_eq!(r.distance(&t, a, a), Some(0));
        assert_eq!(r.next_hop(&t, a, a), None);
    }

    #[test]
    fn rpf_points_toward_source() {
        let (t, [a, b, c, _]) = line_topo();
        let mut r = Routing::new();
        // From c, the RPF interface for a's address leads to b.
        let rpf = r.rpf(&t, c, t.ip(a)).unwrap();
        assert_eq!(rpf.next, b);
        // At the source itself there is no RPF hop.
        assert!(r.rpf(&t, a, t.ip(a)).is_none());
    }

    #[test]
    fn metric_preferred_over_hop_count() {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let c = t.add_router();
        // Direct a-c link with metric 10; a-b-c costs 2.
        t.connect(
            a,
            c,
            LinkSpec {
                metric: 10,
                ..Default::default()
            },
        )
        .unwrap();
        t.connect(a, b, LinkSpec::default()).unwrap();
        t.connect(b, c, LinkSpec::default()).unwrap();
        let mut r = Routing::new();
        assert_eq!(r.next_hop(&t, a, c).unwrap().next, b);
        assert_eq!(r.distance(&t, a, c), Some(2));
    }

    #[test]
    fn link_failure_reroutes_after_invalidate() {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let c = t.add_router();
        let l_ab = t.connect(a, b, LinkSpec::default()).unwrap();
        t.connect(b, c, LinkSpec::default()).unwrap();
        t.connect(a, c, LinkSpec { metric: 5, ..Default::default() }).unwrap();
        let mut r = Routing::new();
        assert_eq!(r.next_hop(&t, a, b).unwrap().next, b);
        t.set_link_up(l_ab, false);
        r.invalidate();
        // Now a reaches b via c.
        assert_eq!(r.next_hop(&t, a, b).unwrap().next, c);
        assert_eq!(r.generation(), 1);
    }

    #[test]
    fn selective_invalidation_flushes_only_affected_origins() {
        // a - b - c in a line plus a spur d off b, and an expensive a-c
        // backup link nothing uses while the line is up.
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let c = t.add_router();
        let d = t.add_router();
        t.connect(a, b, LinkSpec::default()).unwrap();
        t.connect(b, c, LinkSpec::default()).unwrap();
        let l_bd = t.connect(b, d, LinkSpec::default()).unwrap();
        let l_ac = t.connect(a, c, LinkSpec { metric: 10, ..Default::default() }).unwrap();
        let mut r = Routing::new();
        // Warm every origin's table.
        for &o in &[a, b, c, d] {
            r.next_hop(&t, o, c);
        }
        assert_eq!(r.compute_count(), 4);

        // The unused backup link going down flushes nothing: all four trees
        // run over the line, none over a-c.
        t.set_link_up(l_ac, false);
        r.invalidate_link(&t, l_ac);
        for &o in &[a, b, c, d] {
            r.next_hop(&t, o, c);
        }
        assert_eq!(r.compute_count(), 4, "no tree used the backup link");
        assert_eq!(r.generation(), 1);

        // The b-d spur is on every origin's tree (it is the only way to
        // reach d), so its failure flushes all four tables.
        t.set_link_up(l_ac, true);
        r.invalidate(); // restore clean slate after link-up
        for &o in &[a, b, c, d] {
            r.next_hop(&t, o, c);
        }
        let before = r.compute_count();
        t.set_link_up(l_bd, false);
        r.invalidate_link(&t, l_bd);
        // Only origins whose tree used b-d recompute. All four reach d via
        // b-d, so all four recompute.
        for &o in &[a, b, c, d] {
            r.next_hop(&t, o, c);
        }
        assert_eq!(r.compute_count(), before + 4);
        // And the rerouted world is correct: d now unreachable.
        assert!(r.next_hop(&t, a, d).is_none());
    }

    #[test]
    fn selective_invalidation_matches_full_recompute() {
        // Random-ish mesh: verify that after a link-down handled by
        // invalidate_link, every cached or recomputed answer equals a
        // from-scratch Routing over the same degraded topology.
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..8).map(|_| t.add_router()).collect();
        let mut links = Vec::new();
        for i in 1..8usize {
            links.push(t.connect(nodes[i - 1], nodes[i], LinkSpec::default()).unwrap());
        }
        links.push(t.connect(nodes[0], nodes[4], LinkSpec::default()).unwrap());
        links.push(t.connect(nodes[2], nodes[6], LinkSpec { metric: 2, ..Default::default() }).unwrap());
        links.push(t.connect(nodes[1], nodes[7], LinkSpec { metric: 3, ..Default::default() }).unwrap());

        for &dead in &links {
            let mut r = Routing::new();
            // Warm all tables on the full topology.
            for &o in &nodes {
                for &to in &nodes {
                    r.next_hop(&t, o, to);
                }
            }
            t.set_link_up(dead, false);
            r.invalidate_link(&t, dead);
            let mut fresh = Routing::new();
            for &o in &nodes {
                for &to in &nodes {
                    assert_eq!(
                        r.next_hop(&t, o, to),
                        fresh.next_hop(&t, o, to),
                        "mismatch from {o:?} to {to:?} after {dead:?} down"
                    );
                }
            }
            t.set_link_up(dead, true);
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let mut r = Routing::new();
        assert!(r.next_hop(&t, a, b).is_none());
        assert!(r.path(&t, a, b).is_none());
        assert!(r.distance(&t, a, b).is_none());
    }

    #[test]
    fn deterministic_tie_break() {
        // Diamond: a-b-d and a-c-d, equal metrics. Next hop must always be b
        // (lower id).
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let c = t.add_router();
        let d = t.add_router();
        t.connect(a, c, LinkSpec::default()).unwrap(); // note: c connected first
        t.connect(a, b, LinkSpec::default()).unwrap();
        t.connect(b, d, LinkSpec::default()).unwrap();
        t.connect(c, d, LinkSpec::default()).unwrap();
        for _ in 0..3 {
            let mut r = Routing::new();
            assert_eq!(r.next_hop(&t, a, d).unwrap().next, b);
        }
    }

    #[test]
    fn routes_through_lan() {
        let mut t = Topology::new();
        let r1 = t.add_router();
        let r2 = t.add_router();
        let h = t.add_host();
        t.add_lan(&[r1, r2, h], LinkSpec::lan()).unwrap();
        let mut r = Routing::new();
        assert_eq!(r.next_hop(&t, h, r1).unwrap().next, r1);
        assert_eq!(r.hops(&t, r1, r2), Some(1));
    }
}
