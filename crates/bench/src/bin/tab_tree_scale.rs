//! tab_tree_scale — §5.3's distribution tree with the protocol on: every
//! host of `kary_tree(2, d)` joins its source's channel by the real ECMP
//! exchange (over 100 ms, neighbor probes off), then the source asks one
//! subscriber count with a 10 s budget. One row per depth, each measured
//! in a process of its own.
//!
//! ```text
//! tab_tree_scale              depths 14–18 (results/tab_tree_scale.txt)
//! tab_tree_scale --with-20    and depth 20 (≈ 2.5 GB resident)
//! tab_tree_scale --depth d    the row of depth d, in this process
//! ```
//!
//! Columns: resident MiB once set up, once joined, and the high-water mark
//! by the end of the count (`/proc/self/status`); control packets per tree
//! link for the join wave and the count; the answer and how long after the
//! query it came; the process's live heap bytes over the router count,
//! joined and once every deadline the count armed has fired. The test
//! `tree_scale` pins the same run at depth 12.

use express::host::{ExpressHost, HostAction, HostEvent};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::{addr::Channel, ecmp::CountId};
use netsim::time::{SimDuration, SimTime};
use netsim::{topogen, topology::LinkSpec, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// Bytes requested by the heap blocks live now.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the only added state is a relaxed counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `key`'s figure in `/proc/self/status`, MiB.
fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux only)");
    let line = status.lines().find(|l| l.starts_with(key)).expect("a status line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()).expect("a figure in kB") / 1024.0
}

/// The row of depth `depth`.
fn row(depth: usize) -> String {
    let g = topogen::kary_tree(2, depth, LinkSpec::default());
    let (src, members) = (g.hosts[0], &g.hosts[1..]);
    let (links, routers) = (g.topo.link_count() as f64, g.routers.len() as f64);
    let chan = Channel::new(g.topo.ip(src), 1).expect("valid channel");
    let mut sim = Sim::new(g.topo, 1);
    let cfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };
    g.routers.iter().for_each(|&r| sim.set_agent(r, Box::new(EcmpRouter::new(cfg))));
    g.hosts.iter().for_each(|&h| sim.set_agent(h, Box::new(ExpressHost::new())));
    let n = members.len() as u64;
    for (i, &h) in members.iter().enumerate() {
        ExpressHost::schedule(&mut sim, h, SimTime(1_000 + i as u64 * 100_000 / n), HostAction::Subscribe { channel: chan, key: None });
    }
    let set_up = status_mib("VmRSS:");
    let ctl = |sim: &Sim| sim.stats().total().control_packets as f64;
    sim.run_until(SimTime(2_000_000));
    let (joined, joined_live, join_pkts) = (status_mib("VmRSS:"), LIVE_BYTES.load(Relaxed), ctl(&sim));
    let query = HostAction::CountQuery { channel: chan, count_id: CountId::SUBSCRIBERS, timeout: SimDuration::from_secs(10) };
    ExpressHost::schedule(&mut sim, src, SimTime(3_000_000), query);
    sim.run_until(SimTime(15_000_000));
    let (hwm, after_live, count_pkts) = (status_mib("VmHWM:"), LIVE_BYTES.load(Relaxed), ctl(&sim) - join_pkts);
    let events = &sim.agent_as::<ExpressHost>(src).expect("the source host").events;
    let answer = events.iter().find_map(|e| match e {
        HostEvent::CountResult { count, at, .. } => Some((*count, at.since(SimTime(3_000_000)).millis())),
        _ => None,
    });
    let (answer, ms) = answer.expect("an answer");
    let answer = if answer == n { "exact".to_string() } else { answer.to_string() };
    format!(
        "| {depth} | {n} | {set_up:.0} | {joined:.0} | {hwm:.0} | {:.2} / {:.2} | {answer}, +{ms} ms | {:.0} / {:.0} |",
        join_pkts / links,
        count_pkts / links,
        joined_live as f64 / routers,
        after_live as f64 / routers,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, d] = args.as_slice() {
        assert_eq!(flag, "--depth", "usage: tab_tree_scale [--with-20 | --depth d]");
        return println!("{}", row(d.parse().expect("a depth")));
    }
    let last = if args.iter().any(|a| a == "--with-20") { 20 } else { 18 };
    println!("§5.3's tree with the protocol on: kary_tree(2, d), every host joined, one 10 s subscriber count\n");
    println!("| depth | members | MiB set up | MiB joined | MiB after count (HWM) | ctl pkts per link: join / count | answer | live B per router: joined / after count |");
    println!("|---|---|---|---|---|---|---|---|");
    for depth in (14..=last).step_by(2) {
        let exe = std::env::current_exe().expect("this binary");
        let out = std::process::Command::new(exe).args(["--depth", &depth.to_string()]).output().expect("a run of one depth");
        assert!(out.status.success(), "depth {depth}: {}", String::from_utf8_lossy(&out.stderr));
        print!("{}", String::from_utf8_lossy(&out.stdout));
    }
}
