//! Shortest-path maintenance cost under topology churn: building one
//! destination-rooted tree (a Dijkstra plus a DFS, answering every origin)
//! versus a cached query, and the payoff of selective link-down
//! invalidation (only the trees that used the failed link are rebuilt; the
//! rest keep answering from cache).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use netsim::routing::Routing;
use netsim::topogen::{self, GenTopo};
use netsim::topology::LinkSpec;
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

/// Warm the trees toward sixteen destinations, kill one link, then re-answer
/// every router origin toward each of them: `invalidate_link` rebuilds only
/// the trees that used the link (plus the link's two endpoint trees, for the
/// simulated SPF count), `invalidate` rebuilds all sixteen.
fn bench_invalidation(c: &mut Criterion) {
    let mut g = c.benchmark_group("dijkstra/link_down");
    g.sample_size(20);
    let n = 200usize;
    let gt = topo(n);
    let dests = &gt.hosts[..16];
    let answer_all = |r: &mut Routing| {
        for &d in dests {
            for &o in &gt.routers {
                r.next_hop(&gt.topo, o, d);
            }
        }
    };
    let warm = || {
        let mut r = Routing::new();
        answer_all(&mut r);
        r
    };
    // Links are created spanning-tree first, then the redundant "extra"
    // shortcut edges, then host attachments; kill an extra edge — the case
    // where only the trees that adopted the shortcut must be rebuilt.
    let link = LinkId(n as u32);
    g.throughput(Throughput::Elements((dests.len() * gt.routers.len()) as u64));
    for (label, selective) in [("selective", true), ("full_flush", false)] {
        g.bench_function(BenchmarkId::new(label, n), |b| {
            b.iter_batched(
                warm,
                |mut r| {
                    if selective {
                        r.invalidate_link(&gt.topo, black_box(link));
                    } else {
                        r.invalidate();
                    }
                    answer_all(&mut r);
                    r.tree_build_count()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_recompute, bench_invalidation);
criterion_main!(benches);
