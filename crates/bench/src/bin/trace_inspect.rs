//! trace_inspect — render a saved structured trace (JSONL, as exported by
//! `netsim::trace::TraceBuffer::to_jsonl`) as a per-node event timeline,
//! per-channel delivery-latency histograms, and reconstructed packet paths.
//!
//! ```text
//! trace_inspect <trace.jsonl>   inspect a saved trace
//! trace_inspect --demo          generate a small EXPRESS run and inspect it
//! ```
//!
//! `--demo` builds a four-node line topology (source host — two ECMP
//! routers — two receiving hosts on a LAN), streams a few data packets on
//! one channel, exports the captured trace to JSONL, re-parses it, and
//! renders the result — exercising the full capture → export → import →
//! query pipeline in one command (this is what the smoke test runs).

use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_bench::harness::at_ms;
use express_wire::addr::Channel;
use netsim::stats::TrafficClass;
use netsim::topology::LinkSpec;
use netsim::trace::{TraceBuffer, TraceEvent, TraceKind, TraceMeta, TraceSink};
use netsim::{Auditor, Histogram, NodeId, Sim, Topology, TraceConfig};
use std::collections::BTreeMap;

/// Events shown per node before the timeline truncates.
const TIMELINE_PER_NODE: usize = 12;
/// Packet paths reconstructed and printed.
const MAX_PATHS: usize = 3;

fn demo_trace() -> TraceBuffer {
    let mut t = Topology::new();
    let r0 = t.add_router();
    let r1 = t.add_router();
    let src = t.add_host();
    let rcv1 = t.add_host();
    let rcv2 = t.add_host();
    t.connect(r0, r1, LinkSpec::default()).unwrap();
    t.connect(src, r0, LinkSpec::default()).unwrap();
    t.add_lan(&[r1, rcv1, rcv2], LinkSpec::lan()).unwrap();
    let mut sim = Sim::new(t, 7);
    sim.enable_trace(TraceConfig::default());
    for r in [r0, r1] {
        sim.set_agent(r, Box::new(EcmpRouter::new(RouterConfig::default())));
    }
    for h in [src, rcv1, rcv2] {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
    for rcv in [rcv1, rcv2] {
        ExpressHost::schedule(&mut sim, rcv, at_ms(1), HostAction::Subscribe { channel: chan, key: None });
    }
    for i in 0..10u64 {
        ExpressHost::schedule(
            &mut sim,
            src,
            at_ms(100 + i * 10),
            HostAction::SendData { channel: chan, payload_len: 100 },
        );
    }
    sim.run_until(at_ms(1_000));
    sim.take_trace().expect("trace enabled above")
}

fn describe(kind: &TraceKind) -> (Option<NodeId>, String) {
    match kind {
        TraceKind::PacketTx { node, iface, link, id, cause, root, bytes, class } => {
            let cls = if *class == TrafficClass::Data { "data" } else { "ctrl" };
            let causal = match cause {
                Some(c) => format!(" cause={c} root={root}"),
                None => String::new(),
            };
            (Some(*node), format!("tx   {id} {cls} {bytes}B out {iface} on {link}{causal}"))
        }
        TraceKind::PacketRx { node, iface, id, root, age, class } => {
            let cls = if *class == TrafficClass::Data { "data" } else { "ctrl" };
            (Some(*node), format!("rx   {id} {cls} on {iface} root={root} age={age}"))
        }
        TraceKind::PacketDrop { link, id, root, reason, class } => {
            let cls = if *class == TrafficClass::Data { "data" } else { "ctrl" };
            (None, format!("drop {id} {cls} on {link} root={root} ({reason:?})"))
        }
        TraceKind::TimerFire { node, token } => (Some(*node), format!("timer token={token}")),
        TraceKind::Topology(change) => (None, format!("topology {change:?}")),
        TraceKind::Proto { node, event } => {
            let mut s = format!("ev   {}", event.name);
            if let Some(c) = &event.channel {
                s.push_str(&format!(" chan={c}"));
            }
            if let Some(v) = event.value {
                s.push_str(&format!(" value={v}"));
            }
            if let Some(d) = &event.detail {
                s.push_str(&format!(" [{d}]"));
            }
            (Some(*node), s)
        }
    }
}

fn print_summary(events: &[TraceEvent]) {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        let k = match e.kind {
            TraceKind::PacketTx { .. } => "pkt_tx",
            TraceKind::PacketRx { .. } => "pkt_rx",
            TraceKind::PacketDrop { .. } => "drop",
            TraceKind::TimerFire { .. } => "timer",
            TraceKind::Topology(_) => "topo",
            TraceKind::Proto { .. } => "proto",
        };
        *by_kind.entry(k).or_default() += 1;
    }
    println!("{} events:", events.len());
    for (k, n) in by_kind {
        println!("  {k:<8} {n}");
    }
}

fn print_timeline(events: &[TraceEvent]) {
    println!("\n== per-node timeline ==");
    let mut by_node: BTreeMap<NodeId, Vec<(&TraceEvent, String)>> = BTreeMap::new();
    for e in events {
        let (node, text) = describe(&e.kind);
        if let Some(n) = node {
            by_node.entry(n).or_default().push((e, text));
        }
    }
    for (node, rows) in &by_node {
        println!("-- {node} ({} events) --", rows.len());
        for (e, text) in rows.iter().take(TIMELINE_PER_NODE) {
            println!("  {:>11} {}", format!("{}", e.at), text);
        }
        if rows.len() > TIMELINE_PER_NODE {
            println!("  ... {} more", rows.len() - TIMELINE_PER_NODE);
        }
    }
    let global: Vec<String> = events
        .iter()
        .filter_map(|e| {
            let (node, text) = describe(&e.kind);
            node.is_none().then(|| format!("  {:>11} {}", format!("{}", e.at), text))
        })
        .collect();
    if !global.is_empty() {
        println!("-- network (node-less events) --");
        for line in global.iter().take(2 * TIMELINE_PER_NODE) {
            println!("{line}");
        }
        if global.len() > 2 * TIMELINE_PER_NODE {
            println!("  ... {} more", global.len() - 2 * TIMELINE_PER_NODE);
        }
    }
}

/// Per-channel delivery-latency histograms, from `host.data_rx` /
/// `group.data_rx` protocol events (value = end-to-end latency in µs).
fn print_latency_histograms(events: &[TraceEvent]) {
    println!("\n== per-channel delivery latency ==");
    let mut per_chan: BTreeMap<String, Histogram> = BTreeMap::new();
    for e in events {
        if let TraceKind::Proto { event, .. } = &e.kind {
            if event.name != "host.data_rx" && event.name != "group.data_rx" {
                continue;
            }
            let (Some(chan), Some(v)) = (&event.channel, event.value) else { continue };
            per_chan
                .entry(chan.to_string())
                .or_insert_with(|| Histogram::new(netsim::metrics::DEFAULT_LATENCY_BOUNDS_US))
                .observe(v);
        }
    }
    if per_chan.is_empty() {
        println!("  (no labeled delivery events in this trace)");
        return;
    }
    for (chan, h) in &per_chan {
        println!(
            "-- chan {chan}: {} deliveries, min {} us, p50 {} us, p99 {} us, max {} us --",
            h.count(),
            h.min().unwrap_or(0),
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max().unwrap_or(0),
        );
        let peak = h.buckets().map(|(_, c)| c).max().unwrap_or(1).max(1);
        for (bound, c) in h.buckets() {
            if c == 0 {
                continue;
            }
            let label = match bound {
                Some(b) => format!("<= {b:>8} us"),
                None => "   overflow  ".to_string(),
            };
            let bar = "#".repeat((c * 40 / peak).max(1) as usize);
            println!("  {label} {c:>5} {bar}");
        }
    }
}

fn print_paths(buf: &TraceBuffer) {
    println!("\n== data packet paths ==");
    let roots = buf.data_roots();
    if roots.is_empty() {
        println!("  (no data packets in this trace)");
        return;
    }
    println!("{} data chains; showing first {}", roots.len(), MAX_PATHS.min(roots.len()));
    for root in roots.iter().take(MAX_PATHS) {
        let path = buf.packet_path(*root);
        println!("-- chain {root}: {} hops, links {:?} --", path.hops.len(), path.links());
        for hop in &path.hops {
            match (hop.to, hop.arrived_at) {
                (Some(to), Some(at)) => {
                    println!("  {} {} -[{}]-> {} (arrived {})", hop.sent_at, hop.from, hop.link, to, at)
                }
                _ => println!("  {} {} -[{}]-> (dropped)", hop.sent_at, hop.from, hop.link),
            }
        }
    }
}

/// Print the capture's header/footer metadata; shout if events were lost.
fn print_meta(meta: &TraceMeta) {
    let sample = match meta.sample {
        Some(n) if n > 1 => format!(", causal sampling 1/{n}"),
        _ => String::new(),
    };
    println!(
        "capture: schema v{} via {} sink{sample}{}",
        meta.version,
        meta.source,
        meta.events.map(|n| format!(", {n} events recorded")).unwrap_or_default()
    );
    if let Some(d) = meta.discarded.filter(|&d| d > 0) {
        eprintln!("\n!!! WARNING: {d} events were DISCARDED during capture !!!");
        eprintln!("!!! This trace is INCOMPLETE: summaries, latency histograms and");
        eprintln!("!!! packet paths below may be missing hops or whole chains.");
        eprintln!("!!! Use a streaming JSONL sink (Sim::enable_trace_sink) or causal");
        eprintln!("!!! sampling to capture long runs without ring overwrite.\n");
    }
}

/// Replay a captured event stream through the [`Auditor`] offline. The
/// stream carries no engine snapshots, so only the event-shaped checks run
/// (A2 always; A4 when it ever grows bounds here) — A1/A3 need the live
/// engine's truth snapshots and are reported as not evaluated.
fn run_offline_audit(events: &[TraceEvent]) -> bool {
    println!("\n== offline audit (checks A2; A1/A3 need live snapshots, A4 needs bounds) ==");
    let mut auditor = Auditor::default();
    for e in events {
        auditor.record(e.clone());
    }
    auditor.flush().and_then(|()| auditor.finish()).expect("in-memory auditor cannot fail io");
    let report = auditor.report();
    print!("{}", report.to_text());
    report.clean
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let audit = args.iter().any(|a| a == "--audit");
    args.retain(|a| a != "--audit");
    let events: Vec<TraceEvent> = match args.first().map(String::as_str) {
        Some("--demo") if args.len() == 1 => {
            println!("=== trace_inspect --demo: capture, export, re-import, render ===\n");
            let captured = demo_trace();
            // Round-trip through the JSONL exporter so the file format is
            // exercised even without a file on disk.
            let jsonl = captured.to_jsonl();
            if let Some(meta) = TraceMeta::parse(&jsonl) {
                print_meta(&meta);
            }
            let reparsed = TraceBuffer::parse_jsonl(&jsonl);
            assert_eq!(reparsed.len(), captured.len(), "JSONL round-trip lost events");
            reparsed
        }
        Some(path) if !path.starts_with("--") && args.len() == 1 => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("trace_inspect: cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            println!("=== trace_inspect {path} ===\n");
            match TraceMeta::parse(&text) {
                Some(meta) => print_meta(&meta),
                None => println!("capture: no trace_header line (schema v1 export?)"),
            }
            TraceBuffer::parse_jsonl(&text)
        }
        _ => {
            eprintln!("usage: trace_inspect [--audit] <trace.jsonl> | --demo");
            std::process::exit(2);
        }
    };
    let buf = TraceBuffer::from_events(events);
    let events: Vec<TraceEvent> = buf.events().cloned().collect();
    print_summary(&events);
    print_timeline(&events);
    print_latency_histograms(&events);
    print_paths(&buf);
    if audit && !run_offline_audit(&events) {
        std::process::exit(1);
    }
}
