//! E10 / §3.4–§5.1: the EXPRESS forwarding fast path — exact-match (S,E)
//! FIB lookups at growing table sizes, including the count-and-drop miss
//! path (unauthorized senders) and the RPF-check drop.
//!
//! The paper argues a router can "support millions of multicast channels
//! without extraordinary investment"; this bench shows lookup cost is flat
//! in table size (open-addressed table keyed by the entries' own (S,E)),
//! measures the 12-byte-entry memory footprint as the table grows, and
//! prints what building the largest table cost per install — the figure a
//! quadratic insert or a clustering hash would blow up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use express::fib::Fib;
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::fib::FibEntry;
use std::hint::black_box;
use std::time::Instant;

fn build_fib(n: u32) -> Fib {
    let mut fib = Fib::new();
    for i in 0..n {
        let chan = Channel::new(Ipv4Addr::from_u32(0x0A00_0000 | (i >> 8)), i & 0xFF).unwrap();
        fib.install(FibEntry::new(chan, (i % 31) as u8, 0xF0F0_F0F0).unwrap());
    }
    fib
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("fib/lookup");
    for n in [1_000u32, 100_000, 1_000_000] {
        let t0 = Instant::now();
        let mut fib = build_fib(n);
        let build = t0.elapsed();
        let hit = Channel::new(Ipv4Addr::from_u32(0x0A00_0000 | ((n / 2) >> 8)), (n / 2) & 0xFF).unwrap();
        let hit_iface = ((n / 2) % 31) as u8;
        let miss = Channel::new(Ipv4Addr::new(99, 99, 99, 99), 1).unwrap();
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("hit", n), &n, |b, _| {
            b.iter(|| fib.lookup(black_box(hit), black_box(hit_iface)))
        });
        g.bench_with_input(BenchmarkId::new("miss_count_and_drop", n), &n, |b, _| {
            b.iter(|| fib.lookup(black_box(miss), 0))
        });
        g.bench_with_input(BenchmarkId::new("rpf_drop", n), &n, |b, _| {
            b.iter(|| fib.lookup(black_box(hit), black_box(hit_iface ^ 1)))
        });
        // Report the Figure-5 memory footprint once per size.
        if n == 1_000_000 {
            eprintln!(
                "fib: built {n} entries in {:.1} ms ({:.0} ns/install)",
                build.as_secs_f64() * 1e3,
                build.as_secs_f64() * 1e9 / f64::from(n)
            );
            eprintln!(
                "fib: {n} channels -> {} bytes of fast-path memory ({} MB; paper prices this at ${:.0})",
                fib.memory_bytes(),
                fib.memory_bytes() / 1_000_000,
                fib.memory_bytes() as f64 * 55e-6
            );
        }
    }
    g.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("fib/update");
    let mut fib = build_fib(100_000);
    let chan = Channel::new(Ipv4Addr::new(10, 200, 0, 1), 7).unwrap();
    g.bench_function("install_remove", |b| {
        b.iter(|| {
            fib.install(FibEntry::new(black_box(chan), 1, 0b10).unwrap());
            fib.remove(black_box(chan)).unwrap();
        })
    });
    g.bench_function("oif_mutation", |b| {
        fib.install(FibEntry::new(chan, 1, 0b10).unwrap());
        b.iter(|| {
            let e = fib.get_mut(black_box(chan)).unwrap();
            e.add_oif(5).unwrap();
            e.remove_oif(5).unwrap();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_lookup, bench_update);
criterion_main!(benches);
