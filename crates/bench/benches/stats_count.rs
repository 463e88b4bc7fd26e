//! Per-packet accounting cost: the counter paths an agent can take on the
//! data fast path, from the string API down to the interned [`CounterId`]
//! bump that the zero-copy fan-out work pairs with.
//!
//! The ladder, slowest to fastest:
//!
//! * `count` — hash probe on a static key;
//! * `channel_counter` + `count_id` — hash probe on the `(base, Channel)`
//!   pair, no formatting;
//! * `count_id` — a pre-registered handle: one indexed add.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use express_wire::addr::{Channel, Ipv4Addr};
use netsim::stats::Stats;
use std::hint::black_box;

fn bench_counters(c: &mut Criterion) {
    let chan = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 7).unwrap();
    let mut g = c.benchmark_group("stats/count");
    g.throughput(Throughput::Elements(1));

    let mut s = Stats::new(0);
    g.bench_function("count_static_str", |b| {
        b.iter(|| s.count(black_box("sink.data_rx"), 1))
    });

    let mut s = Stats::new(0);
    g.bench_function("channel_counter_probe", |b| {
        b.iter(|| {
            let id = s.channel_counter(black_box("sink.rx_pkts"), black_box(chan));
            s.count_id(id, 1)
        })
    });

    let mut s = Stats::new(0);
    let id = s.counter("sink.data_rx");
    g.bench_function("count_id_interned", |b| b.iter(|| s.count_id(black_box(id), 1)));

    g.finish();
}

criterion_group!(benches, bench_counters);
criterion_main!(benches);
