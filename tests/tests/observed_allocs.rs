//! The allocation gates for the observers' two states, on one tree and one
//! data window.
//!
//! *Off is free:* with no observer enabled, the window allocates exactly
//! what the source's sends do and nothing per forward or delivery.
//!
//! *Audited is bounded:* the auditor keeps A2 state only for the causal
//! chains that still have an event queued, so a run checkpointed after
//! each window holds a flat live heap however many windows it runs.
//!
//! *On is next to nothing:* a fully observed window — metrics, profiler, an
//! unsampled `JsonlSink` and the `Auditor` on one tee — must allocate next
//! to nothing per event. Every record is built once on the stack and lent
//! to each sink; counter mirrors carry interned names; the auditor and the
//! metrics index dense tables. A per-record `String`, clone-with-heap or
//! map node shows here as ≥ 1 allocation per delivery (before the
//! by-reference record path: ≈ 2.5 per event).
//!
//! A binary of its own: the counting allocator (`counting_alloc`) is
//! process-wide, and the tests below take turns on it.

use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{extract_auditor, AuditCheck, AuditConfig, Auditor, JsonlSink, MetricsConfig, NodeId, ProfConfig, Sim, TraceConfig};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

mod counting_alloc;
use counting_alloc::{ALLOCS, LIVE_BYTES};

/// Held by each test while it counts, so that no other test's allocations
/// land in its count.
static COUNTING: Mutex<()> = Mutex::new(());

/// Takes the capture's bytes and drops them.
struct Discard(u64);

impl std::io::Write for Discard {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const PACKETS: u64 = 100;

/// Schedule `PACKETS` data packets 1 ms apart from `from_ms`; the window
/// they open has run to completion at the time returned.
fn schedule_window(sim: &mut Sim, src: NodeId, chan: Channel, from_ms: u64) -> SimTime {
    for i in 0..PACKETS {
        let action = HostAction::SendData { channel: chan, payload_len: 100 };
        ExpressHost::schedule(sim, src, SimTime((from_ms + i) * 1000), action);
    }
    SimTime((from_ms + PACKETS + 20) * 1000)
}

/// A depth-6 binary tree of `EcmpRouter`s whose members have all joined
/// the source's channel, fully observed or not, after a first data window
/// that warms what is made once (series, histograms, the capture buffer,
/// queues). Returns the simulation, the source, its channel and the number
/// of members.
fn joined_tree(observed: bool) -> (Sim, NodeId, Channel, u64) {
    let g = topogen::kary_tree(2, 6, LinkSpec::default());
    let (src, members) = (g.hosts[0], &g.hosts[1..]);
    let chan = Channel::new(g.topo.ip(src), 1).unwrap();
    let mut sim = Sim::new(g.topo.clone(), 1);
    if observed {
        sim.enable_metrics(MetricsConfig::default());
        sim.enable_prof(ProfConfig::default());
        sim.enable_trace_sink(TraceConfig::default(), Box::new(JsonlSink::new(Discard(0))));
        // Bare joins move 0↔nonzero upstream, not exact counts: no counting
        // round runs here, so A3 has nothing converged to check.
        sim.add_trace_sink(Box::new(Auditor::new(AuditConfig::default().disable(AuditCheck::CountConvergence))));
    }
    let rcfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };
    for &r in &g.routers {
        sim.set_agent(r, Box::new(EcmpRouter::new(rcfg)));
    }
    for &h in &g.hosts {
        // As the benchmark's hosts: deliveries are read off `host.data_rx`,
        // not kept in a per-host event log.
        let mut host = ExpressHost::new();
        host.set_data_event_logging(false);
        sim.set_agent(h, Box::new(host));
    }
    for (i, &h) in members.iter().enumerate() {
        ExpressHost::schedule(&mut sim, h, SimTime(1_000 + i as u64 * 100), HostAction::Subscribe { channel: chan, key: None });
    }
    sim.run_until(SimTime(1_000_000));
    let end = schedule_window(&mut sim, src, chan, 1_000);
    sim.run_until(end);
    (sim, src, chan, members.len() as u64)
}

fn finish_audit(sim: &mut Sim) -> Auditor {
    extract_auditor(sim.finish_trace().expect("trace enabled")).expect("auditor attached")
}

/// Host-side deliveries so far.
fn deliveries(sim: &Sim) -> u64 {
    sim.stats().named("host.data_rx")
}

#[test]
fn an_unobserved_data_window_allocates_two_blocks_per_packet_sent() {
    let _turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut sim, src, chan, members) = joined_tree(false);
    let forwards = |sim: &Sim| sim.stats().named("express.data_fwd");
    let (delivered0, forwards0) = (deliveries(&sim), forwards(&sim));
    let end = schedule_window(&mut sim, src, chan, 2_000);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(end);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;

    assert_eq!(deliveries(&sim) - delivered0, PACKETS * members, "every member got every packet");
    assert!(forwards(&sim) - forwards0 > 100 * PACKETS, "the window forwarded");
    // Both blocks are the source's: `ExpressHost`'s `SendData` builds the
    // packet in a `Vec`, and `Ctx::send` copies it into the shared
    // `Payload` every hop then clones by refcount. Routers derive their
    // patched frames into pooled buffers, sinks count by interned id.
    assert_eq!(allocs, 2 * PACKETS, "two per packet sent, none per forward or delivery");
}

#[test]
fn a_fully_observed_data_window_allocates_under_a_tenth_per_event() {
    let _turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut sim, src, chan, members) = joined_tree(true);
    // The checkpoint gives the auditor the tree.
    sim.audit_checkpoint();

    let (events0, delivered0) = (sim.events_processed(), deliveries(&sim));
    let end = schedule_window(&mut sim, src, chan, 2_000);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(end);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let events = sim.events_processed() - events0;

    assert_eq!(deliveries(&sim) - delivered0, PACKETS * members, "every member got every packet");
    let per_event = allocs as f64 / events as f64;
    assert!(per_event <= 0.1, "{allocs} allocations over {events} observed events = {per_event:.3} per event");

    // And it was observed: the capture holds the window, the audit is clean.
    sim.audit_checkpoint();
    let sink = sim.finish_trace().expect("trace enabled");
    assert_eq!(sink.discarded(), 0);
    let auditor = extract_auditor(sink).expect("auditor attached");
    let report = auditor.report();
    assert!(report.clean, "{}", report.to_text());
    assert!(report.health.deliveries >= 2 * PACKETS * members);
}

#[test]
fn an_audited_run_checkpointed_after_each_window_holds_a_flat_heap() {
    let _turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut sim, src, chan, members) = joined_tree(false);
    sim.add_trace_sink(Box::new(Auditor::new(AuditConfig::default().disable(AuditCheck::CountConvergence))));
    sim.audit_checkpoint();
    // Live bytes after each of 22 windows, each closed by a checkpoint,
    // the first two warming what is made once.
    let mut live = Vec::with_capacity(22);
    for w in 0..22 {
        let end = schedule_window(&mut sim, src, chan, 2_000 + 200 * w);
        sim.run_until(end);
        sim.audit_checkpoint();
        live.push(LIVE_BYTES.load(Ordering::Relaxed));
    }
    // Each window's 100 chains are retired at its checkpoint and the next
    // window's take their slots. Before, every chain's delivered set,
    // crossed-pair set and event window stayed until 4 096 had opened:
    // ≈ 140 KB more per window here, 3.75 MB live after the last window
    // against 0.83 after the first.
    assert!(live[2..].iter().all(|&b| b == live[1]), "{live:?}");
    assert_eq!(deliveries(&sim), 23 * PACKETS * members, "every member got every packet");
    let auditor = finish_audit(&mut sim);
    assert!(auditor.is_clean(), "{}", auditor.report().to_text());
}
