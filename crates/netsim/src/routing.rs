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
//! destination) pairs. The oracle, being the model, pops in `(distance, node
//! id)` order; the build does not need to, since its Dijkstra yields
//! distances only and the DFS makes every choice.
//!
//! ## The queue
//!
//! Both Dijkstras — a build's and a repair's — run on a monotone radix
//! queue: every push is at least the last pop, since metrics are ≥ 1, so the
//! queue needs no heap order, and entries at one distance pop in no
//! particular order — immaterial to a build (distances only) and to a repair
//! (a parent is strictly nearer than its child). Its buckets are one box,
//! allocated by the first push, so a `Routing` that is never queried holds
//! none and is no bigger inline. A walk reads each node's interfaces from
//! the [`Topology`] itself.
//!
//! ## Repair
//!
//! A single-link transition **repairs every cached tree in place**
//! ([`Routing::link_down`], [`Routing::link_up`]) to exactly what the build
//! above would make of the new topology, in work proportional to the nodes
//! that re-home. Only an *affected set* is recomputed:
//!
//! * **Down:** the endpoints whose parent interface is on the link, and
//!   everything under them. Any other node's least path avoided the link and
//!   survives at its length, and every shortest path of the cut graph was a
//!   shortest path before — the least of a subset that keeps the old least —
//!   so the node keeps its hop.
//! * **Up:** with `near` the least endpoint distance, the endpoints `b` with
//!   `near + metric ≤ dist(b)`, closed under relaxations that are strictly
//!   shorter *or newly tight*: the nodes with a path over the link no longer
//!   than their distance. Any other node keeps its set of shortest paths.
//!
//! One Dijkstra over the set, seeded from its unaffected boundary, then gives
//! each node its parent as it is popped. Its tight predecessors are strictly
//! nearer (metrics ≥ 1), so unaffected or already popped: their root paths
//! are final and least. The parent is the one whose root path plus the step
//! into the node is lexicographically least, found by walking two candidates'
//! parent pointers to their lowest common ancestor (step whichever stands
//! farther) and comparing the two steps just below it by the build's key —
//! two paths to one node differ where they first part. That is the node the
//! DFS would have discovered it from, LANs and parallel links included.
//!
//! A crash or restart is its node's links flipped one at a time;
//! [`Routing::invalidate`] remains for a topology edited by hand.
//!
//! ## Counters: simulated work and host work
//!
//! [`Routing::compute_count`] is a **simulated** statistic: the SPF runs the
//! modelled routers perform, one per origin per transition that touched that
//! origin's own shortest-path tree. It is kept with one bit per origin ("has
//! resolved a route since its last flush"): a link-up clears every origin, a
//! link-down exactly those whose own tree crossed the link — the affected
//! sets of the trees toward the link's endpoints. The **host** work is
//! [`Routing::tree_build_count`], [`Routing::tree_repair_count`] and
//! [`Routing::nodes_rehomed`].

use crate::id::{IfaceId, LinkId, NodeId};
use crate::topology::Topology;
use core::cmp::Reverse;
use express_wire::addr::Ipv4Addr;

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

type Hops = Vec<Option<NextHop>>;

/// One destination's cached shortest-path tree.
#[derive(Debug)]
struct Tree {
    /// `hops[o]` = `o`'s next hop toward the destination (None if
    /// unreachable or `o` is the destination).
    hops: Hops,
}

/// A link whose state is taken as given instead of read from the topology:
/// the transition being applied, whichever side of it the topology is on.
type Flip = Option<(LinkId, bool)>;

fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1u64 << (i % 64))
}

/// `v`'s distance to `dest` in the tree `hops` (`u32::MAX` if unreachable).
fn dist_in(hops: &Hops, dest: NodeId, v: NodeId) -> u32 {
    if v == dest {
        0
    } else {
        hops[v.index()].map_or(u32::MAX, |h| h.metric)
    }
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
    /// Working memory of builds and repairs, sized by the first build.
    scratch: Scratch,
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

    /// Drop all cached trees and mark every origin for a fresh simulated
    /// SPF run: for a topology edited by hand. Bumps the generation.
    pub fn invalidate(&mut self) {
        self.toward.clear();
        self.resolved.clear();
        self.generation += 1;
    }

    /// Mark every origin for a fresh simulated SPF run (a crash or restart
    /// is about to flip several links).
    pub(crate) fn forget_origins(&mut self) {
        self.resolved.clear();
    }

    /// `link` went **down**: repair every cached tree (module docs) and mark
    /// for a fresh simulated SPF run exactly the resolved origins whose own
    /// shortest-path tree crossed `link`: those that, toward some endpoint
    /// `b` of the link, are or hang under a child of `b` attached over it —
    /// the affected set of the tree toward `b`. An endpoint tree that is not
    /// cached is built for that reading, as it stood before, and not kept.
    ///
    /// `topo` may or may not have `link` marked down yet; but for `link` it
    /// must be the topology the cached trees stand on.
    pub fn link_down(&mut self, topo: &Topology, link: LinkId) {
        self.generation += 1;
        let account = self.resolved.iter().any(|&w| w != 0);
        let (resolved, s) = (&mut self.resolved, &mut self.scratch);
        let mut flush = |affected: &[NodeId]| {
            for o in affected {
                // (A node added since the last query has no word yet.)
                let (w, m) = bit(o.index());
                if let Some(word) = resolved.get_mut(w) {
                    *word &= !m;
                }
            }
        };
        let endpoints = topo.endpoints(link);
        for (dest, tree) in self.toward.iter_mut().enumerate() {
            let Some(tree) = tree else { continue };
            let dest = NodeId(dest as u32);
            s.repair(topo, link, false, dest, &mut tree.hops);
            if account && endpoints.clone().any(|(b, _)| b == dest) {
                flush(&s.affected);
            }
        }
        for (b, _) in endpoints {
            if account && self.toward.get(b.index()).is_none_or(|t| t.is_none()) {
                let mut hops = core::mem::take(&mut s.transient);
                build_tree(topo, b, Some((link, true)), &mut hops, s);
                self.tree_builds += 1;
                s.begin(topo, &mut hops);
                s.mark_under(topo, link, &hops);
                flush(&s.affected);
                s.transient = hops;
            }
        }
    }

    /// `link` came **up**: repair every cached tree (module docs) and mark
    /// every origin for a fresh simulated SPF run — a new link can shorten
    /// any path. `topo` may or may not have `link` marked up yet.
    pub fn link_up(&mut self, topo: &Topology, link: LinkId) {
        self.generation += 1;
        self.resolved.clear();
        for (dest, tree) in self.toward.iter_mut().enumerate() {
            let Some(tree) = tree else { continue };
            self.scratch.repair(topo, link, true, NodeId(dest as u32), &mut tree.hops);
        }
    }

    /// Monotone counter incremented by every [`invalidate`](Self::invalidate),
    /// [`link_down`](Self::link_down) and [`link_up`](Self::link_up).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Simulated SPF runs so far: one per origin per transition that
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

    /// Destination trees built from nothing (one Dijkstra plus one DFS
    /// each), the uncached endpoint trees of a link-down included: host
    /// work, in no digest.
    pub fn tree_build_count(&self) -> u64 {
        self.tree_builds
    }

    /// Cached trees repaired in place: one per cached tree per transition.
    pub fn tree_repair_count(&self) -> u64 {
        self.scratch.repairs
    }

    /// Nodes whose hop those repairs recomputed — the affected sets, summed.
    pub fn nodes_rehomed(&self) -> u64 {
        self.scratch.rehomed
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
        let tree = tree_toward(&mut self.toward, &mut self.tree_builds, &mut self.scratch, topo, to);
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

/// The cached tree toward `dest`, built on a miss. Takes the fields it
/// touches so callers can keep using the rest of the [`Routing`] while they
/// hold the tree.
fn tree_toward<'a>(
    toward: &'a mut Vec<Option<Box<Tree>>>,
    builds: &mut u64,
    scratch: &mut Scratch,
    topo: &Topology,
    dest: NodeId,
) -> &'a Tree {
    if toward.len() < topo.node_count() {
        toward.resize_with(topo.node_count(), || None);
    }
    toward[dest.index()].get_or_insert_with(|| {
        *builds += 1;
        let mut hops = Vec::new();
        build_tree(topo, dest, None, &mut hops, scratch);
        Box::new(Tree { hops })
    })
}

/// Call `f(metric, v's iface, neighbor, neighbor's iface)` for every
/// neighbor of `v` over every up link (`flip` overriding one link's state),
/// in `v`'s interface order.
fn for_each_neighbor(topo: &Topology, v: NodeId, flip: Flip, mut f: impl FnMut(u32, IfaceId, NodeId, IfaceId)) {
    for i in 0..topo.iface_count(v) {
        let iv = IfaceId(i as u8);
        let Ok(link) = topo.link_of(v, iv) else { continue };
        let up = match flip {
            Some((l, up)) if l == link => up,
            _ => topo.link_up(link),
        };
        if !up {
            continue;
        }
        let metric = topo.link_spec(link).metric;
        for (u, iu) in topo.endpoints(link) {
            if u != v {
                f(metric, iv, u, iu);
            }
        }
    }
}

/// A monotone priority queue of `(distance, node)` — a radix heap. Every
/// push is at least the last pop, which holds because metrics are ≥ 1.
/// Bucket 0 holds the entries at the last popped distance; bucket `b > 0`
/// those whose distance first differs from it in bit `b - 1`. A pop takes
/// from bucket 0, refilling it first from the lowest non-empty bucket: its
/// least distance becomes the last pop and its entries move to lower
/// buckets, so an entry moves at most 32 times. Entries at one distance pop
/// in no particular order: a build uses distances only, and a repair's
/// parents are strictly nearer than the node they are chosen for. The
/// queue is one box, allocated by the first push: a [`Routing`] that is
/// never queried holds none, and its inline size does not carry the 33
/// buckets (INTERNALS §6).
#[derive(Debug, Default)]
struct RadixQueue(Option<Box<Buckets>>);

#[derive(Debug)]
struct Buckets {
    last: u32,
    b: [Vec<(u32, NodeId)>; 33],
}

impl Buckets {
    fn push(&mut self, d: u32, v: NodeId) {
        debug_assert!(d >= self.last, "{v} pushed at {d}, below the last pop {}", self.last);
        self.b[32 - (d ^ self.last).leading_zeros() as usize].push((d, v));
    }
}

impl RadixQueue {
    fn clear(&mut self) {
        if let Some(q) = &mut self.0 {
            q.last = 0;
            q.b.iter_mut().for_each(Vec::clear);
        }
    }

    fn push(&mut self, d: u32, v: NodeId) {
        let q = self.0.get_or_insert_with(|| Box::new(Buckets { last: 0, b: std::array::from_fn(|_| Vec::new()) }));
        q.push(d, v);
    }

    fn pop(&mut self) -> Option<(u32, NodeId)> {
        let q = self.0.as_deref_mut()?;
        if q.b[0].is_empty() {
            let b = q.b.iter().position(|b| !b.is_empty())?;
            let mut moved = core::mem::take(&mut q.b[b]);
            q.last = moved.iter().map(|&(d, _)| d).min().expect("a non-empty bucket");
            moved.drain(..).for_each(|(d, v)| q.push(d, v));
            q.b[b] = moved;
        }
        q.b[0].pop()
    }
}

/// The shortest-path tree toward `dest`, into `hops`: a distance-only
/// Dijkstra from `dest`, then a lexicographic DFS over the tight edges
/// (module docs). The cold path, and the oracle the repairs are tested
/// against.
fn build_tree(topo: &Topology, dest: NodeId, flip: Flip, hops: &mut Hops, s: &mut Scratch) {
    let n = topo.node_count();
    s.dist.clear();
    s.dist.resize(n, u32::MAX);
    s.queue.clear();
    s.offer(dest, 0);
    while let Some((d, v)) = s.queue.pop() {
        if d <= s.dist[v.index()] {
            for_each_neighbor(topo, v, flip, |metric, _, u, _| s.offer(u, d.saturating_add(metric)));
        }
    }
    let (dist, stack) = (&s.dist, &mut s.stack);

    hops.clear();
    hops.resize(n, None);
    // Pending tree edges `(key…, parent)`, each node's batch sorted so the
    // least key pops first; a node is discovered when first *popped*, which
    // is the recursive DFS's order. The root entry's key is never compared.
    stack.clear();
    stack.push((Reverse(0u32), dest, IfaceId(0), dest));
    while let Some((_, u, iface, parent)) = stack.pop() {
        if u != dest {
            if hops[u.index()].is_some() {
                continue;
            }
            hops[u.index()] = Some(NextHop { iface, next: parent, metric: dist[u.index()] });
        }
        let batch = stack.len();
        for_each_neighbor(topo, u, flip, |metric, _, c, ic| {
            let dc = dist[c.index()];
            if dc != u32::MAX && dc == dist[u.index()].saturating_add(metric) && hops[c.index()].is_none() {
                stack.push((Reverse(metric), c, ic, u));
            }
        });
        stack[batch..].sort_unstable_by(|a, b| b.cmp(a));
    }
}

/// Per-node working memory, reused from call to call: a warm transition
/// allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// `stamp[v] == epoch`: `v` is affected by the repair under way and not
    /// settled; `epoch + 1`: affected and settled. Anything less: untouched.
    stamp: Vec<u32>,
    epoch: u32,
    /// New distances of the affected nodes (a build's distances, in a build).
    dist: Vec<u32>,
    queue: RadixQueue,
    /// The affected set, in discovery order.
    affected: Vec<NodeId>,
    /// `build_tree`'s DFS stack.
    stack: Vec<(Reverse<u32>, NodeId, IfaceId, NodeId)>,
    /// The hops of an endpoint tree built for the accounting alone.
    transient: Hops,
    /// Host-work counters: repairs run, affected nodes over all of them,
    /// candidate parents compared by walking to their common ancestor.
    repairs: u64,
    rehomed: u64,
    path_compares: u64,
}

impl Scratch {
    /// Bring the tree `hops` toward `dest` to the topology with `link` up or
    /// down, from the one with `link` the other way (module docs).
    fn repair(&mut self, topo: &Topology, link: LinkId, up: bool, dest: NodeId, hops: &mut Hops) {
        self.begin(topo, hops);
        if up {
            // Seeds: the endpoints `link` brings no farther than they were.
            let endpoints = topo.endpoints(link);
            let near = endpoints.clone().map(|(b, _)| dist_in(hops, dest, b)).min().unwrap_or(u32::MAX);
            let over = near.saturating_add(topo.link_spec(link).metric);
            for (b, _) in endpoints {
                if over != u32::MAX && over <= dist_in(hops, dest, b) {
                    self.affect(b);
                    self.offer(b, over);
                }
            }
        } else {
            // Seeds: what the unaffected neighbors offer the affected set.
            self.mark_under(topo, link, hops);
            for i in 0..self.affected.len() {
                let v = self.affected[i];
                for_each_neighbor(topo, v, Some((link, false)), |metric, _, u, _| {
                    if !self.is_affected(u) {
                        self.offer(v, dist_in(hops, dest, u).saturating_add(metric));
                    }
                });
            }
        }
        self.settle(topo, Some((link, up)), dest, hops, up);
        self.repairs += 1;
        self.rehomed += self.affected.len() as u64;
    }

    /// Start on `hops` with an empty affected set.
    fn begin(&mut self, topo: &Topology, hops: &mut Hops) {
        let n = topo.node_count();
        // (Nodes added since the tree was built are unreachable in it.)
        hops.resize(n, None);
        self.stamp.resize(n.max(self.stamp.len()), 0);
        self.dist.resize(n.max(self.dist.len()), u32::MAX);
        if self.epoch >= u32::MAX - 3 {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        self.affected.clear();
        self.queue.clear();
    }

    fn is_affected(&self, v: NodeId) -> bool {
        self.stamp[v.index()] >= self.epoch
    }

    /// Put `v` in the affected set (once), infinitely far until offered less.
    fn affect(&mut self, v: NodeId) {
        if !self.is_affected(v) {
            self.stamp[v.index()] = self.epoch;
            self.dist[v.index()] = u32::MAX;
            self.affected.push(v);
        }
    }

    /// Offer `v` (affected and unsettled, in a repair) a path of length `d`.
    fn offer(&mut self, v: NodeId, d: u32) {
        if d < self.dist[v.index()] {
            self.dist[v.index()] = d;
            self.queue.push(d, v);
        }
    }

    /// Link-down: affect the endpoints whose parent interface is on `link`
    /// and everything under them.
    fn mark_under(&mut self, topo: &Topology, link: LinkId, hops: &Hops) {
        for (b, ib) in topo.endpoints(link) {
            if hops[b.index()].is_some_and(|h| h.iface == ib) {
                self.affect(b);
            }
        }
        let mut i = 0;
        while let Some(&a) = self.affected.get(i) {
            // (Children over `link` itself are the endpoints above.)
            for_each_neighbor(topo, a, Some((link, false)), |_, _, u, _| {
                if hops[u.index()].is_some_and(|h| h.next == a) {
                    self.affect(u);
                }
            });
            i += 1;
        }
    }

    /// Dijkstra over the affected set from the seeded queue. A node popped
    /// takes, among its tight predecessors — all settled — the one with the
    /// least root path. With `grow` (link-up) a relaxation that ties or
    /// beats an untouched node's distance affects it; without (link-down)
    /// the set is closed. Affected nodes never reached lose their hop.
    fn settle(&mut self, topo: &Topology, flip: Flip, dest: NodeId, hops: &mut Hops, grow: bool) {
        while let Some((d, v)) = self.queue.pop() {
            if self.stamp[v.index()] != self.epoch || d > self.dist[v.index()] {
                continue;
            }
            self.stamp[v.index()] = self.epoch + 1;
            let mut parent: Option<NextHop> = None;
            for_each_neighbor(topo, v, flip, |metric, iv, u, _| {
                let (nd, du) = (d.saturating_add(metric), dist_in(hops, dest, u));
                if self.stamp[u.index()] == self.epoch {
                    self.offer(u, nd);
                } else if du.saturating_add(metric) == d {
                    // Settled or untouched, so final: a tight predecessor.
                    let via = NextHop { iface: iv, next: u, metric: d };
                    if parent.is_none_or(|p| self.path_less(hops, dest, v, via, p)) {
                        parent = Some(via);
                    }
                } else if grow && nd <= du {
                    // Untouched (a settled node is nearer than `v`).
                    self.affect(u);
                    self.offer(u, nd);
                }
            });
            debug_assert!(parent.is_some(), "{v} was offered {d} by a settled neighbor");
            hops[v.index()] = parent;
        }
        for &v in &self.affected {
            if self.stamp[v.index()] == self.epoch {
                hops[v.index()] = None;
            }
        }
    }

    /// Is the root path ending in the step `a` into `v` lexicographically
    /// below the one ending in `b`? Walks both up to their lowest common
    /// ancestor and compares the steps just below it by `build_tree`'s key.
    fn path_less(&mut self, hops: &Hops, dest: NodeId, v: NodeId, a: NextHop, b: NextHop) -> bool {
        self.path_compares += 1;
        let (mut x, mut y) = ((v, a), (v, b));
        while x.1.next != y.1.next {
            // The farther parent is not the common ancestor: step over it.
            let c = if dist_in(hops, dest, x.1.next) >= dist_in(hops, dest, y.1.next) { &mut x } else { &mut y };
            let p = c.1.next;
            *c = (p, hops[p.index()].expect("a node farther than another is not the root"));
        }
        // One parent, so the larger link metric is the larger distance.
        let key = |(c, hop): (NodeId, NextHop)| (Reverse(hop.metric), c, hop.iface);
        key(x) < key(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BinaryHeap;

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
                for (v, _) in topo.endpoints(link) {
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

    /// What a seeded graph looks like beyond its size: the largest metric,
    /// and whether LANs are many (one per two nodes, 1–11 members, so some
    /// have one or two) or few (one per eight nodes, 3–6 members).
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        max_metric: u32,
        many_lans: bool,
    }

    const SMALL: Shape = Shape { max_metric: 7, many_lans: false };

    /// The shapes beyond [`SMALL`]: metrics up to 2²⁰, so the radix queue's
    /// buckets split on high bits; LAN-heavy; both.
    const WIDE: [Shape; 3] = [
        Shape { max_metric: 1 << 20, many_lans: false },
        Shape { max_metric: 7, many_lans: true },
        Shape { max_metric: 1 << 20, many_lans: true },
    ];

    /// A seeded graph of 24–47 routers and hosts with point-to-point links
    /// (parallel ones included), a few multi-member LANs, metrics 1..=7 and
    /// about one link in six down. Not necessarily connected.
    fn random_topo(rng: &mut StdRng) -> Topology {
        random_shaped(rng, SMALL)
    }

    /// [`random_topo`] in another [`Shape`].
    fn random_shaped(rng: &mut StdRng, shape: Shape) -> Topology {
        let mut t = Topology::new();
        let n = rng.random_range(24usize..48);
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| if rng.random_range(0u32..4) == 0 { t.add_host() } else { t.add_router() })
            .collect();
        let max = shape.max_metric;
        let spec = |rng: &mut StdRng| LinkSpec { metric: rng.random_range(1u32..max + 1), ..Default::default() };
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
        let (lans, sizes) = if shape.many_lans { (n / 2, 1usize..12) } else { (n / 8, 3usize..7) };
        for _ in 0..lans {
            let mut members: Vec<NodeId> =
                (0..rng.random_range(sizes.clone())).map(|_| nodes[rng.random_range(0..n)]).collect();
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
    fn destination_trees_match_origin_spf_with_wide_metrics_and_many_lans() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0014);
        for shape in WIDE {
            for case in 0..100 {
                let t = random_shaped(&mut rng, shape);
                assert_matches_oracle(&mut Routing::new(), &t, &format!("{shape:?} case {case}"));
            }
        }
    }

    /// A topology grown under cached trees (a host, a link, a LAN) routes
    /// toward the destinations cached since exactly as a fresh `Routing`
    /// does — the per-node scratch grows with it — and after
    /// [`Routing::invalidate`] toward every destination; so does one handed
    /// a different topology of the same counts after `invalidate`.
    #[test]
    fn a_grown_or_replaced_topology_routes_like_a_fresh_routing() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0015);
        for case in 0..60 {
            let shape = if case % 2 == 0 { SMALL } else { WIDE[2] };
            let mut t = random_shaped(&mut rng, shape);
            let n = t.node_count() as u32;
            let mut r = Routing::new();
            let cached: Vec<NodeId> = (0..4).map(|_| NodeId(rng.random_range(0..n))).collect();
            for (&d, o) in cached.iter().zip(t.node_ids()) {
                r.next_hop(&t, o, d);
            }
            let pick = |rng: &mut StdRng, t: &Topology| NodeId(rng.random_range(0..t.node_count() as u32));
            let host = t.add_host();
            let _ = t.connect(host, pick(&mut rng, &t), LinkSpec::default());
            let (a, b) = (pick(&mut rng, &t), pick(&mut rng, &t));
            let _ = t.connect(a, b, LinkSpec { metric: 2, ..Default::default() });
            let members = [pick(&mut rng, &t), pick(&mut rng, &t), host];
            let _ = t.add_lan(&members, LinkSpec::lan());
            for o in t.node_ids() {
                let want = oracle(&t, o);
                for d in t.node_ids().filter(|d| !cached.contains(d)) {
                    assert_eq!(r.next_hop(&t, o, d), want.hops[d.index()], "case {case}: grown, {o} toward {d}");
                }
            }
            r.invalidate();
            assert_matches_oracle(&mut r, &t, &format!("case {case}: grown, invalidated"));
        }
        // A ring and the same nodes rewired at random: the same counts.
        let ring = |order: &[usize]| {
            let mut t = Topology::new();
            let nodes: Vec<NodeId> = (0..order.len()).map(|_| t.add_router()).collect();
            for (i, &a) in order.iter().enumerate() {
                let b = order[(i + 1) % order.len()];
                t.connect(nodes[a], nodes[b], LinkSpec::default()).unwrap();
            }
            t
        };
        let mut order: Vec<usize> = (0..30).collect();
        let (t, mut r) = (ring(&order), Routing::new());
        assert_matches_oracle(&mut r, &t, "ring");
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let shuffled = ring(&order);
        assert_eq!((shuffled.node_count(), shuffled.link_count()), (t.node_count(), t.link_count()));
        r.invalidate();
        assert_matches_oracle(&mut r, &shuffled, "shuffled ring after invalidate");
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
            r.link_down(&t, dead);
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

    /// Flip random links under warm trees; after every flip each cached
    /// tree must equal a cold build on the topology as it now stands.
    /// Returns how many of the compared trees the flip had changed.
    fn flap_differential(cases: usize, seed: u64, shape: Shape) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut changed, mut scratch, mut want) = (0, Scratch::default(), Vec::new());
        for case in 0..cases {
            let mut t = random_shaped(&mut rng, shape);
            let n = t.node_count() as u32;
            let mut r = Routing::new();
            for _ in 0..rng.random_range(1u32..8) {
                r.next_hop(&t, NodeId(rng.random_range(0..n)), NodeId(rng.random_range(0..n)));
            }
            for flip in 0..40 {
                let link = LinkId(rng.random_range(0..t.link_count() as u32));
                let up = !t.link_up(link);
                let before: Vec<Option<Hops>> = r.toward.iter().map(|t| t.as_ref().map(|t| t.hops.clone())).collect();
                // The engine flips the topology first; both orders must work.
                if rng.random() {
                    t.set_link_up(link, up);
                }
                if up {
                    r.link_up(&t, link);
                } else {
                    r.link_down(&t, link);
                }
                t.set_link_up(link, up);
                for (dest, tree) in r.toward.iter().enumerate() {
                    let Some(tree) = tree else { continue };
                    build_tree(&t, NodeId(dest as u32), None, &mut want, &mut scratch);
                    let differs = tree.hops.iter().zip(&want).position(|(got, want)| got != want);
                    assert_eq!(differs, None, "case {case} flip {flip}: {link} up={up}, toward n{dest}: first such origin");
                    assert_eq!(tree.hops.len(), want.len());
                    changed += usize::from(before[dest].as_ref() != Some(&want));
                }
                // More destinations join mid-sequence, on whatever stands.
                if flip % 8 == 7 {
                    r.next_hop(&t, NodeId(rng.random_range(0..n)), NodeId(rng.random_range(0..n)));
                }
            }
        }
        changed
    }

    #[test]
    fn repaired_trees_equal_rebuilt_trees_under_random_flaps() {
        let changed = flap_differential(400, 0x5EED_0022, SMALL);
        assert!(changed >= 30_000, "only {changed} compared trees had changed");
    }

    #[test]
    fn repaired_trees_equal_rebuilt_trees_with_wide_metrics_and_many_lans() {
        for (i, shape) in WIDE.into_iter().enumerate() {
            let changed = flap_differential(60, 0x5EED_0024 + i as u64, shape);
            assert!(changed >= 3_000, "{shape:?}: only {changed} compared trees had changed");
        }
    }

    /// The same, ten times as long: for changes to this file.
    #[test]
    #[ignore = "deep run: cargo test --release -p netsim routing -- --include-ignored"]
    fn repaired_trees_equal_rebuilt_trees_deep() {
        let changed = flap_differential(4_000, 0x5EED_0023, SMALL);
        assert!(changed >= 300_000, "only {changed} compared trees had changed");
    }

    #[test]
    fn a_flap_in_the_middle_of_a_line_rehomes_the_far_half_and_compares_nothing() {
        let g = crate::topogen::line(100_000, LinkSpec::default());
        let (mut t, link) = (g.topo, LinkId(50_000));
        let mut r = Routing::new();
        // Far host toward router 0: one cached tree, one resolved origin.
        assert_eq!(r.next_hop(&t, g.hosts[1], g.routers[0]).unwrap().metric, 100_000);
        // Behind the link: routers 50 001 … 99 999 and the far host.
        let far = 50_000;
        t.set_link_up(link, false);
        r.link_down(&t, link);
        assert_eq!(r.nodes_rehomed(), far);
        assert_eq!(r.next_hop(&t, g.hosts[1], g.routers[0]), None);
        assert_eq!(r.next_hop(&t, g.routers[50_000], g.routers[0]).unwrap().metric, 50_000);
        t.set_link_up(link, true);
        r.link_up(&t, link);
        assert_eq!(r.nodes_rehomed(), 2 * far);
        assert_eq!(r.next_hop(&t, g.hosts[1], g.routers[0]).unwrap().metric, 100_000);
        // The one cached tree was never rebuilt: the other two builds are
        // the link's endpoint trees, read for the simulated count and dropped.
        assert_eq!((r.tree_build_count(), r.tree_repair_count(), r.scratch.path_compares), (3, 2, 0));
        assert_eq!(r.toward.iter().flatten().count(), 1);
    }

    #[test]
    fn a_bridge_flap_under_sixteen_trees_builds_two_and_repairs_thirty_two() {
        let g = crate::topogen::random_connected(1000, 400, 4000, LinkSpec::default(), 1);
        let mut t = g.topo;
        let mut r = Routing::new();
        for &d in &g.hosts[..16] {
            for &o in g.routers.iter().step_by(7) {
                r.next_hop(&t, o, d);
            }
        }
        assert_eq!(r.tree_build_count(), 16);
        // A router–router bridge: cut, its ends cannot reach each other.
        let bridge = (0..t.link_count() as u32)
            .map(LinkId)
            .find(|&l| {
                let [(a, _), (b, _)] = t.endpoints(l).collect::<Vec<_>>()[..] else { return false };
                let mut cut = t.clone();
                cut.set_link_up(l, false);
                Routing::new().distance(&cut, a, b).is_none()
            })
            .expect("a random recursive tree with 400 chords has bridges");
        let computes = r.compute_count();
        t.set_link_up(bridge, false);
        r.link_down(&t, bridge);
        t.set_link_up(bridge, true);
        r.link_up(&t, bridge);
        // Every origin re-resolves (the link-up cleared them all), against
        // trees that are what a cold build makes of the restored topology.
        let (mut scratch, mut want) = (Scratch::default(), Vec::new());
        for &d in &g.hosts[..16] {
            for &o in g.routers.iter().step_by(7) {
                r.next_hop(&t, o, d);
            }
            build_tree(&t, d, None, &mut want, &mut scratch);
            assert_eq!(r.toward[d.index()].as_ref().unwrap().hops, want);
        }
        // (The parent commit: 2 + 16 + 16 builds.)
        assert_eq!((r.tree_build_count(), r.tree_repair_count()), (18, 32));
        assert!(r.nodes_rehomed() > 0 && r.nodes_rehomed() < 2 * 16 * 5_000 / 4, "{}", r.nodes_rehomed());
        assert_eq!(r.compute_count(), computes + g.routers.iter().step_by(7).count() as u64);
    }

    #[test]
    fn unqueried_routing_holds_no_per_node_state() {
        let mut t = crate::topogen::line(100_000, LinkSpec::default()).topo;
        let (hub, link) = (NodeId(0), LinkId(50_000));
        let mut r = Routing::new();
        t.set_link_up(link, false);
        r.link_down(&t, link);
        t.set_link_up(link, true);
        r.link_up(&t, link);
        assert_eq!(r.generation(), 2);
        assert_eq!((r.toward.capacity(), r.resolved.capacity()), (0, 0));
        let s = &r.scratch;
        assert_eq!((s.stamp.capacity(), s.dist.capacity(), s.affected.capacity(), s.transient.capacity()), (0, 0, 0, 0));
        assert_eq!((r.tree_build_count(), r.tree_repair_count()), (0, 0));
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
        r.link_down(&t, l_ac);
        for &o in &[a, b, c, d] {
            r.next_hop(&t, o, c);
        }
        assert_eq!(r.compute_count(), 4, "no tree used the backup link");
        assert_eq!(r.generation(), 1);

        // The b-d spur is on every origin's tree (it is the only way to
        // reach d), so its failure flushes all four tables.
        t.set_link_up(l_ac, true);
        r.link_up(&t, l_ac);
        for &o in &[a, b, c, d] {
            r.next_hop(&t, o, c);
        }
        let before = r.compute_count();
        t.set_link_up(l_bd, false);
        r.link_down(&t, l_bd);
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
        // link_down, every cached or repaired answer equals a
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
            r.link_down(&t, dead);
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
