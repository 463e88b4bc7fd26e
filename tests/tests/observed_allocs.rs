//! The allocation gate for the observers' *on* state, beside `bench_scale
//! --overhead-check`'s "disabled = 0 allocations": a fully observed data
//! window — metrics, profiler, an unsampled `JsonlSink` and the `Auditor`
//! on one tee — must allocate next to nothing per event. Every record is
//! built once on the stack and lent to each sink; counter mirrors carry
//! interned names; the auditor and the metrics index dense tables. A
//! per-record `String`, clone-with-heap or map node shows here as ≥ 1
//! allocation per delivery (before the by-reference record path: ≈ 2.5 per
//! event).
//!
//! A binary of its own: the counting allocator (`counting_alloc`) is
//! process-wide.

use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{extract_auditor, AuditCheck, AuditConfig, Auditor, JsonlSink, MetricsConfig, ProfConfig, Sim, TraceConfig};
use std::sync::atomic::Ordering;

mod counting_alloc;
use counting_alloc::ALLOCS;

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
fn schedule_window(sim: &mut Sim, src: netsim::NodeId, chan: Channel, from_ms: u64) -> SimTime {
    for i in 0..PACKETS {
        let action = HostAction::SendData { channel: chan, payload_len: 100 };
        ExpressHost::schedule(sim, src, SimTime((from_ms + i) * 1000), action);
    }
    SimTime((from_ms + PACKETS + 20) * 1000)
}

#[test]
fn a_fully_observed_data_window_allocates_under_a_tenth_per_event() {
    let g = topogen::kary_tree(2, 6, LinkSpec::default());
    let (src, members) = (g.hosts[0], &g.hosts[1..]);
    let chan = Channel::new(g.topo.ip(src), 1).unwrap();
    let mut sim = Sim::new(g.topo.clone(), 1);
    sim.enable_metrics(MetricsConfig::default());
    sim.enable_prof(ProfConfig::default());
    sim.enable_trace_sink(TraceConfig::default(), Box::new(JsonlSink::new(Discard(0))));
    // Bare joins move 0↔nonzero upstream, not exact counts: no counting
    // round runs here, so A3 has nothing converged to check.
    sim.add_trace_sink(Box::new(Auditor::new(AuditConfig::default().disable(AuditCheck::CountConvergence))));
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
    // A first window warms what is made once (series, histograms, the
    // capture buffer); the checkpoint gives the auditor the tree.
    let end = schedule_window(&mut sim, src, chan, 1_000);
    sim.run_until(end);
    sim.audit_checkpoint();

    let deliveries = |sim: &Sim| sim.stats().named("host.data_rx");
    let (events0, delivered0) = (sim.events_processed(), deliveries(&sim));
    let end = schedule_window(&mut sim, src, chan, 2_000);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(end);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let events = sim.events_processed() - events0;

    assert_eq!(deliveries(&sim) - delivered0, PACKETS * members.len() as u64, "every member got every packet");
    let per_event = allocs as f64 / events as f64;
    assert!(per_event <= 0.1, "{allocs} allocations over {events} observed events = {per_event:.3} per event");

    // And it was observed: the capture holds the window, the audit is clean.
    sim.audit_checkpoint();
    let sink = sim.finish_trace().expect("trace enabled");
    assert_eq!(sink.discarded(), 0);
    let auditor = extract_auditor(sink).expect("auditor attached");
    let report = auditor.report();
    assert!(report.clean, "{}", report.to_text());
    assert!(report.health.deliveries >= 2 * PACKETS * members.len() as u64);
}
