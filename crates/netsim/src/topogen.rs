//! Topology generators for experiments.
//!
//! The paper's analyses assume particular tree shapes — the §5.1 worst-case
//! "star topology with no fanout in the network except at the root", the
//! §5.3 "multicast tree 20 hops deep with a fanout of two", 25-hop
//! source-to-subscriber paths — plus realistic ISP-like graphs for the
//! protocol-comparison experiments. Each generator returns the topology and
//! the node roles so harnesses can pick sources and subscribers.

use crate::id::NodeId;
use crate::topology::{LinkSpec, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A generated topology plus node roles.
#[derive(Debug, Clone)]
pub struct GenTopo {
    /// The network graph.
    pub topo: Topology,
    /// All router nodes.
    pub routers: Vec<NodeId>,
    /// All host nodes (subscriber/source candidates), each attached to an
    /// edge router.
    pub hosts: Vec<NodeId>,
}

/// An empty topology sized for a tree of `nodes` nodes — one link fewer
/// than nodes. Its generator adds each router with exactly the interfaces
/// it will fill (a router of a `fanout`-ary tree has `fanout` + 1, a chain
/// router 2) and single-homed hosts, so no interface slot stays empty.
fn tree_with_capacity(nodes: usize) -> Topology {
    Topology::with_capacity(nodes, nodes - 1)
}

/// A star: one hub router; each of `n_hosts` hosts hangs off its own chain
/// of `path_len` routers from the hub (the §5.1 worst case: every receiver
/// `h` hops from the source with no sharing except at the root).
///
/// The source host attaches directly to the hub and is `hosts[0]`.
pub fn star(n_hosts: usize, path_len: usize, spec: LinkSpec) -> GenTopo {
    let (n_routers, n_hosts_all) = (1 + n_hosts * path_len, n_hosts + 1);
    let mut t = tree_with_capacity(n_routers + n_hosts_all);
    let hub = t.add_router_with_ifaces(n_hosts_all);
    let mut routers = Vec::with_capacity(n_routers);
    routers.push(hub);
    let mut hosts = Vec::with_capacity(n_hosts_all);
    let src = t.add_host();
    t.connect(src, hub, spec).unwrap();
    hosts.push(src);
    for _ in 0..n_hosts {
        let mut prev = hub;
        for _ in 0..path_len {
            let r = t.add_router_with_ifaces(2);
            t.connect(prev, r, spec).unwrap();
            routers.push(r);
            prev = r;
        }
        let h = t.add_host();
        t.connect(prev, h, spec).unwrap();
        hosts.push(h);
    }
    GenTopo {
        topo: t,
        routers,
        hosts,
    }
}

/// A complete `fanout`-ary router tree of the given `depth`, one host per
/// leaf router, plus a source host at the root. The §5.3 scenario ("a
/// multicast tree 20 hops deep with a fanout of two has 2^20 or one million
/// members") is `kary_tree(2, 20, …)` — scaled down in tests.
///
/// `hosts[0]` is the source at the root.
pub fn kary_tree(fanout: usize, depth: usize, spec: LinkSpec) -> GenTopo {
    assert!(fanout >= 1 && depth >= 1);
    let leaves = fanout.pow(depth as u32);
    let n_routers: usize = (0..=depth as u32).map(|d| fanout.pow(d)).sum();
    let mut t = tree_with_capacity(n_routers + 1 + leaves);
    let root = t.add_router_with_ifaces(1 + fanout);
    let mut routers = Vec::with_capacity(n_routers);
    routers.push(root);
    let src = t.add_host();
    t.connect(src, root, spec).unwrap();
    let mut hosts = Vec::with_capacity(1 + leaves);
    hosts.push(src);
    let mut level = vec![root];
    for d in 1..=depth {
        let mut next = Vec::with_capacity(level.len() * fanout);
        for &parent in &level {
            for _ in 0..fanout {
                let r = t.add_router_with_ifaces(if d == depth { 2 } else { 1 + fanout });
                t.connect(parent, r, spec).unwrap();
                routers.push(r);
                if d == depth {
                    let h = t.add_host();
                    t.connect(r, h, spec).unwrap();
                    hosts.push(h);
                }
                next.push(r);
            }
        }
        level = next;
    }
    GenTopo {
        topo: t,
        routers,
        hosts,
    }
}

/// A line of `n` routers with one host at each end; `hosts[0]` at router 0.
pub fn line(n: usize, spec: LinkSpec) -> GenTopo {
    assert!(n >= 1);
    let mut t = tree_with_capacity(n + 2);
    let mut routers = Vec::with_capacity(n);
    for i in 0..n {
        let r = t.add_router_with_ifaces(2);
        if i > 0 {
            t.connect(routers[i - 1], r, spec).unwrap();
        }
        routers.push(r);
    }
    let a = t.add_host();
    t.connect(a, routers[0], spec).unwrap();
    let b = t.add_host();
    t.connect(b, routers[n - 1], spec).unwrap();
    GenTopo {
        topo: t,
        routers,
        hosts: vec![a, b],
    }
}

/// A random connected router graph: a random spanning tree (guaranteeing
/// connectivity) plus `extra_edges` additional random links, then
/// `n_hosts` hosts each attached to a uniformly random router.
///
/// Interface limits are respected by resampling attachment points.
pub fn random_connected(n_routers: usize, extra_edges: usize, n_hosts: usize, spec: LinkSpec, seed: u64) -> GenTopo {
    assert!(n_routers >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let routers: Vec<NodeId> = (0..n_routers).map(|_| t.add_router()).collect();
    // Random spanning tree: attach each new router to a uniformly random
    // earlier one (a "random recursive tree" — realistic small diameters).
    for i in 1..n_routers {
        loop {
            let j = rng.random_range(0..i);
            if t.connect(routers[j], routers[i], spec).is_ok() {
                break;
            }
        }
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_edges && attempts < extra_edges * 20 {
        attempts += 1;
        let a = rng.random_range(0..n_routers);
        let b = rng.random_range(0..n_routers);
        if a == b {
            continue;
        }
        if t.connect(routers[a], routers[b], spec).is_ok() {
            added += 1;
        }
    }
    let mut hosts = Vec::with_capacity(n_hosts);
    let mut i = 0;
    while hosts.len() < n_hosts {
        let r = routers[rng.random_range(0..n_routers)];
        let h = t.add_host();
        if t.connect(r, h, spec).is_ok() {
            hosts.push(h);
        }
        i += 1;
        assert!(i < n_hosts * 100, "could not place hosts (interface limits)");
    }
    GenTopo {
        topo: t,
        routers,
        hosts,
    }
}

/// A two-level transit-stub ISP topology: a ring+chords transit core of
/// `n_transit` routers; each transit router serves `stubs_per` stub routers;
/// each stub router serves a LAN with `hosts_per_stub` hosts. This is the
/// "routers near the backbone / many fewer clients per edge router" shape
/// §5.3's footnote describes.
pub fn transit_stub(
    n_transit: usize,
    stubs_per: usize,
    hosts_per_stub: usize,
    core_spec: LinkSpec,
    edge_spec: LinkSpec,
) -> GenTopo {
    assert!(n_transit >= 1);
    let mut t = Topology::new();
    let transit: Vec<NodeId> = (0..n_transit).map(|_| t.add_router()).collect();
    // Ring.
    for i in 0..n_transit {
        if n_transit > 1 && !(n_transit == 2 && i == 1) {
            t.connect(transit[i], transit[(i + 1) % n_transit], core_spec).unwrap();
        }
    }
    // Chords for path diversity.
    if n_transit >= 6 {
        for i in (0..n_transit).step_by(3) {
            let j = (i + n_transit / 2) % n_transit;
            if i != j {
                let _ = t.connect(transit[i], transit[j], core_spec);
            }
        }
    }
    let mut routers = transit.clone();
    let mut hosts = Vec::new();
    for &tr in &transit {
        for _ in 0..stubs_per {
            let stub = t.add_router();
            t.connect(tr, stub, edge_spec).unwrap();
            routers.push(stub);
            if hosts_per_stub > 0 {
                let mut lan_members = vec![stub];
                for _ in 0..hosts_per_stub {
                    let h = t.add_host();
                    lan_members.push(h);
                    hosts.push(h);
                }
                t.add_lan(&lan_members, LinkSpec::lan()).unwrap();
            }
        }
    }
    GenTopo {
        topo: t,
        routers,
        hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Routing;

    #[test]
    fn star_shape() {
        let g = star(4, 3, LinkSpec::default());
        // 1 hub + 4 chains of 3 routers.
        assert_eq!(g.routers.len(), 1 + 4 * 3);
        assert_eq!(g.hosts.len(), 5);
        let mut r = Routing::new();
        let mut topo = g.topo.clone();
        let _ = &mut topo;
        // Source to each receiver: 1 (to hub) + 3 (chain) + 1 (to host) hops.
        for &h in &g.hosts[1..] {
            assert_eq!(r.hops(&g.topo, g.hosts[0], h), Some(5));
        }
    }

    #[test]
    fn kary_tree_shape() {
        let g = kary_tree(2, 3, LinkSpec::default());
        assert_eq!(g.routers.len(), 1 + 2 + 4 + 8);
        assert_eq!(g.hosts.len(), 1 + 8); // source + one per leaf
        let mut r = Routing::new();
        for &h in &g.hosts[1..] {
            // source-host + depth + leaf-host hops
            assert_eq!(r.hops(&g.topo, g.hosts[0], h), Some(1 + 3 + 1));
        }
    }

    #[test]
    fn line_shape() {
        let g = line(5, LinkSpec::default());
        let mut r = Routing::new();
        assert_eq!(r.hops(&g.topo, g.hosts[0], g.hosts[1]), Some(6));
    }

    #[test]
    fn closed_form_generators_allocate_exactly_what_they_fill() {
        let spec = LinkSpec::default();
        let gens = [
            kary_tree(2, 5, spec),
            kary_tree(3, 3, spec),
            kary_tree(4, 2, spec),
            kary_tree(1, 3, spec),
            star(3, 3, spec),
            star(5, 0, spec),
            line(5, spec),
            line(1, spec),
        ];
        for g in gens {
            // No arena slack and no interface slot without a link.
            assert_eq!(g.topo.arena_slack(), 0);
            assert_eq!((g.routers.capacity(), g.hosts.capacity()), (g.routers.len(), g.hosts.len()));
        }
        // A router with more than four interfaces outgrows its first slots;
        // the topology is the same one, with the slab regrown and the slots
        // it moved out of left empty.
        let mut t = Topology::new();
        let r = t.add_router();
        for _ in 0..5 {
            let h = t.add_host();
            t.connect(r, h, spec).unwrap();
        }
        assert!(t.arena_slack() > 0);
        assert_eq!(t.iface_count(r), 5);
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        let g1 = random_connected(30, 15, 10, LinkSpec::default(), 99);
        let g2 = random_connected(30, 15, 10, LinkSpec::default(), 99);
        assert_eq!(g1.topo.link_count(), g2.topo.link_count());
        let mut r = Routing::new();
        for &h in &g1.hosts {
            assert!(r.hops(&g1.topo, g1.hosts[0], h).is_some(), "host unreachable");
        }
    }

    #[test]
    fn transit_stub_reaches_all_hosts() {
        let g = transit_stub(4, 2, 3, LinkSpec::wan(5), LinkSpec::default());
        assert_eq!(g.hosts.len(), 4 * 2 * 3);
        assert_eq!(g.routers.len(), 4 + 8);
        let mut r = Routing::new();
        for &h in &g.hosts[1..] {
            assert!(r.hops(&g.topo, g.hosts[0], h).is_some());
        }
    }

    #[test]
    fn single_transit_node_ok() {
        let g = transit_stub(1, 1, 2, LinkSpec::default(), LinkSpec::default());
        assert_eq!(g.hosts.len(), 2);
        let mut r = Routing::new();
        assert!(r.hops(&g.topo, g.hosts[0], g.hosts[1]).is_some());
    }
}
