//! Shortest-path maintenance cost under topology churn: building one
//! destination-rooted tree (a Dijkstra plus a DFS, answering every origin)
//! versus a cached query, and what a link flap costs when the cached trees
//! are repaired in place against dropping and rebuilding them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::routing::Routing;
use netsim::topogen::{self, GenTopo};
use netsim::topology::{LinkSpec, Topology};
use netsim::LinkId;
use std::hint::black_box;

fn topo(n_routers: usize) -> GenTopo {
    topogen::random_connected(n_routers, n_routers / 2, 2 * n_routers, LinkSpec::default(), 42)
}

fn bench_recompute(c: &mut Criterion) {
    let mut g = c.benchmark_group("dijkstra/recompute");
    for n in [50usize, 200] {
        let gt = topo(n);
        let origin = gt.routers[0];
        let dest = *gt.hosts.last().unwrap();

        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("cold_tree_build", n), &n, |b, _| {
            let mut r = Routing::new();
            b.iter(|| {
                r.invalidate();
                r.next_hop(black_box(&gt.topo), black_box(origin), black_box(dest))
            })
        });

        g.bench_with_input(BenchmarkId::new("cached_query", n), &n, |b, _| {
            let mut r = Routing::new();
            r.next_hop(&gt.topo, origin, dest);
            b.iter(|| r.next_hop(black_box(&gt.topo), black_box(origin), black_box(dest)))
        });
    }
    g.finish();
}

/// One link flap under sixteen warm destination trees on the benchmark of
/// record's graph (`isp_churn_faults`: 1 000 routers, 400 chords, 4 000
/// hosts), every router re-answering toward every destination after each
/// transition. `repair` is what the engine does (`link_down` / `link_up`:
/// two endpoint-tree builds for the simulated SPF count, thirty-two repairs);
/// `rebuild` is the drop-and-rebuild it replaced, spelled with `invalidate`
/// (the same two endpoint builds, then sixteen cold builds after each
/// transition). A bridge is in every tree; an on-cycle chord in a few.
fn bench_link_flap(c: &mut Criterion) {
    let mut g = c.benchmark_group("dijkstra/link_flap");
    g.sample_size(20);
    let gt = topogen::random_connected(1000, 400, 4000, LinkSpec::default(), 1);
    let dests = &gt.hosts[..16];
    let answer_all = |r: &mut Routing, topo: &Topology| {
        for &d in dests {
            for &o in &gt.routers {
                r.next_hop(topo, o, d);
            }
        }
    };
    let ends = |l: LinkId| match *gt.topo.link_endpoints(l) {
        [(a, _), (b, _)] => Some((a, b)),
        _ => None, // an id a failed `connect` consumed
    };
    let cut_off = |l: LinkId| {
        ends(l).is_some_and(|(a, b)| {
            let mut cut = gt.topo.clone();
            cut.set_link_up(l, false);
            Routing::new().distance(&cut, a, b).is_none()
        })
    };
    // Links are created spanning-tree first, then the chords, then the host
    // attachments.
    let bridge = (0..999).map(LinkId).find(|&l| cut_off(l)).expect("a tree link no chord bypasses");
    let chord = (999..1399).map(LinkId).find(|&l| ends(l).is_some()).expect("a chord");
    assert!(!cut_off(chord));
    g.throughput(Throughput::Elements(2 * (dests.len() * gt.routers.len()) as u64));
    for (shape, link) in [("bridge", bridge), ("on_cycle", chord)] {
        let (a, b) = ends(link).expect("chosen with two ends");
        for repair in [true, false] {
            let mut topo = gt.topo.clone();
            let mut r = Routing::new();
            answer_all(&mut r, &topo);
            let label = if repair { "repair" } else { "rebuild" };
            g.bench_function(BenchmarkId::new(label, shape), |bench| {
                bench.iter(|| {
                    for up in [false, true] {
                        if !repair && !up {
                            r.next_hop(&topo, a, b);
                            r.next_hop(&topo, b, a);
                        }
                        topo.set_link_up(black_box(link), up);
                        match (repair, up) {
                            (true, false) => r.link_down(&topo, link),
                            (true, true) => r.link_up(&topo, link),
                            (false, _) => r.invalidate(),
                        }
                        answer_all(&mut r, &topo);
                    }
                    r.tree_build_count()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_recompute, bench_link_flap);
criterion_main!(benches);
