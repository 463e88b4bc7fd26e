//! prof_report — run a scenario under the engine self-profiler and render
//! where the time went: top event kinds, per-agent-type attribution,
//! hottest nodes and channels, the queue-depth/wheel-occupancy timeline,
//! and the profiler's self-measured overhead.
//!
//! ```text
//! prof_report --demo               small EXPRESS run, render live report
//! prof_report --kary <depth>       binary-tree scale run (depth 20 = the
//!                                  §5.3 million-subscriber tree) with the
//!                                  profiler plus a streaming JSONL trace
//!                                  sink at 1/1024 causal sampling; writes
//!                                  results/prof_kary<depth>.json and
//!                                  results/prof_kary<depth>.trace.jsonl
//! prof_report <prof.json>          render a saved prof/v1 report
//! ```
//!
//! The `--kary` capture is deterministic end to end: same seed, same
//! sampled trace bytes (the FNV-64 checksum printed at the end makes two
//! runs trivially comparable).

use express::packets;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::engine::{Reliability, Tx};
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::trace::{TraceKind, TraceMeta};
use netsim::{
    Agent, Ctx, IfaceId, JsonlSink, MetricsConfig, ProfConfig, ProfReport, Sim, TraceBuffer,
    TraceConfig,
};
use std::collections::BTreeMap;

const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Sends one pre-built channel-data packet out interface 0 per timer fire.
struct Blaster {
    pkt: Vec<u8>,
}

impl Agent for Blaster {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send(IfaceId(0), &self.pkt, TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
    }
}

/// A leaf receiver counting per-channel deliveries (labeled, so the trace
/// carries channel attribution for the hottest-channels section).
struct LeafSink;

impl Agent for LeafSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &netsim::Payload, _class: TrafficClass) {
        let me = ctx.my_ip();
        if let Ok(packets::Classified::ChannelData { channel, .. }) = packets::classify(bytes, me) {
            ctx.count_channel("sink.data_rx", channel, 1);
        }
    }
}

/// FNV-1a over the trace bytes: a cheap fingerprint for comparing the
/// sampled capture across same-seed runs.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Build the §5.3 binary distribution tree of `depth`, FIB-seeded, with the
/// profiler, metrics, and (optionally) a streaming sampled JSONL trace sink
/// attached; stream `packets` data packets through it.
fn run_kary(depth: usize, packets_n: usize, prof_cfg: ProfConfig, trace_path: Option<&str>) -> (Sim, usize) {
    let g = topogen::kary_tree(2, depth, LinkSpec::default());
    let chan = Channel::new(g.topo.ip(g.hosts[0]), 1).unwrap();
    let subscribers = g.hosts.len() - 1;
    let routers = g.routers;
    let hosts = g.hosts;
    let mut sim = Sim::new(g.topo, 7);
    // Observability on *before* setup so the setup-vs-run phase split and
    // the topology events land in the capture.
    sim.enable_metrics(MetricsConfig::default());
    sim.enable_prof(prof_cfg);
    if let Some(path) = trace_path {
        let sink = JsonlSink::create(path).expect("create trace file");
        sim.enable_trace_sink(TraceConfig::default().sample_one_in(1024), Box::new(sink));
    }
    let quiet = RouterConfig { neighbor_probe: None, boot_query: false, ..RouterConfig::default() };
    for &r in &routers {
        let mut router = EcmpRouter::new(quiet);
        let ifaces = sim.topology().iface_count(r) as u32;
        let mask = ((1u32 << ifaces) - 1) & !1;
        if mask != 0 {
            router.install_static_route(FibEntry::new(chan, 0, mask).unwrap());
        }
        sim.set_agent(r, Box::new(router));
    }
    for &h in &hosts[1..] {
        sim.set_agent(h, Box::new(LeafSink));
    }
    sim.set_agent(hosts[0], Box::new(Blaster { pkt: packets::channel_data(chan, 100, 64) }));
    for i in 0..packets_n {
        sim.schedule_timer_at(hosts[0], SimTime((1 + i as u64) * 1000), 0);
    }
    let end = SimTime((packets_n as u64 + depth as u64 + 10) * 1000);
    sim.run_until(end);
    (sim, subscribers)
}

/// Count channel-labeled protocol events in a parsed trace — the
/// per-channel view of where the (sampled) traffic went.
fn print_hot_channels(events: &TraceBuffer) {
    let mut per_chan: BTreeMap<String, u64> = BTreeMap::new();
    for e in events.events() {
        if let TraceKind::Proto { event, .. } = &e.kind {
            if let Some(c) = &event.channel {
                *per_chan.entry(c.to_string()).or_default() += 1;
            }
        }
    }
    if per_chan.is_empty() {
        return;
    }
    println!("\n-- hottest channels (sampled trace events) --");
    let mut rows: Vec<(String, u64)> = per_chan.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (chan, n) in rows.iter().take(10) {
        println!("chan {chan:<24} {n:>8} events");
    }
}

fn demo() {
    println!("=== prof_report --demo: profile a small distribution tree ===\n");
    // Small run: tighten the sampling/gauge intervals so the report has
    // enough timed samples and timeline points to be representative.
    let cfg = ProfConfig::default().sample_every(4).gauge_every(64);
    let (mut sim, subscribers) = run_kary(6, 10, cfg, None);
    println!("kary_tree(2, 6): {subscribers} subscribers, {} events\n", sim.events_processed());
    let prof = sim.take_prof().expect("profiler enabled above");
    let report = prof.report();
    assert!(report.events > 0, "profiler saw no events");
    assert!(!report.gauges.is_empty(), "profiler recorded no gauges");
    // Round-trip through the prof/v1 serialization so --demo exercises the
    // same path a saved report takes.
    let reparsed = ProfReport::from_json(&report.to_json()).expect("prof/v1 round-trip");
    print!("{}", reparsed.render());
}

fn kary(depth: usize) {
    let trace_path = format!("{RESULTS_DIR}/prof_kary{depth}.trace.jsonl");
    let prof_path = format!("{RESULTS_DIR}/prof_kary{depth}.json");
    // Scale packet count inversely with tree size (~2^22 deliveries total):
    // shallow trees stream thousands of causal chains — enough for 1/1024
    // sampling to keep a few complete ones — while the million-node tree
    // sends the §5.3-style handful of full-tree fan-outs.
    let packets_n = (1usize << 22u32.saturating_sub(depth as u32)).clamp(5, 4096);
    println!("=== prof_report --kary {depth}: profiled run, sampled streaming capture ===\n");
    let (mut sim, subscribers) = run_kary(depth, packets_n, ProfConfig::default(), Some(&trace_path));
    println!("kary_tree(2, {depth}): {subscribers} subscribers, {} events", sim.events_processed());
    // Flush and close the streaming capture (writes the trace_footer).
    let mut sink = sim.finish_trace().expect("trace enabled above");
    sink.finish().expect("flush trace file");
    let prof = sim.take_prof().expect("profiler enabled above");
    let report = prof.report();
    std::fs::write(&prof_path, report.to_json()).expect("write prof json");
    print!("\n{}", report.render());

    let text = std::fs::read_to_string(&trace_path).expect("re-read trace");
    if let Some(meta) = TraceMeta::parse(&text) {
        println!(
            "capture: {} events streamed, {} discarded, sampling 1/{}",
            meta.events.unwrap_or(0),
            meta.discarded.unwrap_or(0),
            meta.sample.unwrap_or(1)
        );
    }
    print_hot_channels(&TraceBuffer::from_events(TraceBuffer::parse_jsonl(&text)));
    println!("\ntrace:  {trace_path}");
    println!("        {} bytes, fnv64 {:016x} (same seed => same checksum)", text.len(), fnv64(text.as_bytes()));
    println!("report: {prof_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--demo") if args.len() == 1 => demo(),
        Some("--kary") if args.len() == 2 => match args[1].parse::<usize>() {
            Ok(depth) if (2..=22).contains(&depth) => kary(depth),
            _ => {
                eprintln!("prof_report: --kary depth must be 2..=22");
                std::process::exit(2);
            }
        },
        Some(path) if !path.starts_with("--") && args.len() == 1 => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("prof_report: cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            match ProfReport::from_json(&text) {
                Some(r) => {
                    println!("=== prof_report {path} ===\n");
                    print!("{}", r.render());
                }
                None => {
                    eprintln!("prof_report: {path} is not a prof/v1 report");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            eprintln!("usage: prof_report --demo | --kary <depth> | <prof.json>");
            std::process::exit(2);
        }
    }
}
