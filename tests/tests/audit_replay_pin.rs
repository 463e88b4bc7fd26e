//! The auditor's verdicts, pinned: `tests/golden/fault_storm.trace.jsonl`
//! replayed offline through [`Auditor`] must render the `audit/v1` report
//! the map-and-set auditor rendered before its state went dense (bitsets,
//! a slot ring, per-node tables) — same health line, same violations in the
//! same order, same breach windows, same FIFO eviction.
//!
//! Four replays: the capture as it is (clean); the capture interleaved
//! with its own echo 300 records behind, under a 3-event window and 4
//! tracked chains (an echoed delivery or transmission whose chain is still
//! tracked is a duplicate or a loop, one whose chain was evicted is not);
//! the capture under recovery bounds the storm overruns (A4 at `finish`);
//! and the capture cut by two synthetic snapshots that allow only
//! even-numbered links (A1, judged against the union of the bracketing
//! snapshots, in `(node, link)` order). The firing reports are long, so their
//! bytes are pinned by length and FNV-1a hash.

use netsim::trace::{TraceBuffer, TraceEvent, TraceKind, TraceSink};
use netsim::{AuditCheck, AuditConfig, AuditSnapshot, Auditor, RecoveryBounds, SimDuration, SimTime};

const GOLDEN: &str = include_str!("../golden/fault_storm.trace.jsonl");

/// How many records behind the capture its echo runs in the second replay.
const ECHO_LAG: usize = 300;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn golden_events() -> Vec<TraceEvent> {
    let events = TraceBuffer::parse_jsonl(GOLDEN);
    assert_eq!(events.len(), 11_726, "the golden capture's header says 11726 events");
    events
}

#[test]
fn golden_replay_renders_the_pinned_clean_report() {
    let mut a = Auditor::default();
    for e in golden_events() {
        a.record(e);
    }
    a.finish().unwrap();
    assert_eq!(
        a.report().to_json(),
        "{\"schema\":\"audit/v1\",\"clean\":true,\"violations\":0,\"snapshots\":0}\n\
         {\"kind\":\"health\",\"events\":11726,\"pkt_tx\":3251,\"pkt_rx\":3250,\"drops\":1,\"timers\":151,\"topo\":6,\"proto\":5067,\"data_roots\":116,\"deliveries\":2646,\"latency_p50_us\":8000,\"latency_p99_us\":8072,\"latency_max_us\":8072}\n"
    );
}

#[test]
fn an_echoed_replay_fires_a2_in_the_pinned_order_with_the_pinned_windows() {
    let events = golden_events();
    let mut a = Auditor::new(AuditConfig::default().window_len(3).max_roots(4));
    for i in 0..events.len() + ECHO_LAG {
        if let Some(e) = events.get(i) {
            a.record(e.clone());
        }
        if let Some(e) = i.checked_sub(ECHO_LAG).map(|j| &events[j]) {
            a.record(e.clone());
        }
    }
    a.finish().unwrap();
    let report = a.report();
    let (json, text) = (report.to_json(), report.to_text());
    assert_eq!(
        (report.violations.len(), json.len(), fnv1a(json.as_bytes()), text.len(), fnv1a(text.as_bytes())),
        (2399, 1_686_931, 1330670176022006792, 1_646_097, 13124293822705040030),
    );
}

/// Bounds tight enough that the storm's outages overrun them: A4 reads the
/// delivery instants and fault marks of the replay at `finish`.
#[test]
fn tight_recovery_bounds_fire_a4_as_pinned() {
    let bounds = RecoveryBounds {
        max_reconvergence: SimDuration::from_millis(30),
        max_gap: SimDuration::from_millis(25),
        stream_start: SimTime(100_000),
        stream_end: SimTime(2_400_000),
    };
    let mut a = Auditor::new(AuditConfig::default().recovery_bounds(bounds));
    for e in golden_events() {
        a.record(e);
    }
    a.finish().unwrap();
    let report = a.report();
    assert!(report.violations.iter().all(|v| v.check == AuditCheck::RecoveryBounds));
    let json = report.to_json();
    assert_eq!((report.violations.len(), json.len(), fnv1a(json.as_bytes())), (4, 807, 17863064991176872373));
}

#[test]
fn synthetic_snapshots_fire_a1_in_the_pinned_order() {
    let events = golden_events();
    // Everyone is audited; only transmissions onto even-numbered links are
    // on the tree — in the first snapshot. The second allows none, so the
    // second interval passes only what the first one allowed.
    let mut even = AuditSnapshot::default();
    for e in &events {
        if let TraceKind::PacketTx { node, link, .. } = e.kind {
            even.audited.insert(node);
            if link.0 % 2 == 0 {
                even.allowed.insert((node, link));
            }
        }
    }
    let mut none = AuditSnapshot { audited: even.audited.clone(), ..Default::default() };
    let mut a = Auditor::new(AuditConfig::default().window_len(2));
    let half = events.len() / 2;
    for e in &events[..half] {
        a.record(e.clone());
    }
    even.at = events[half].at;
    a.apply_snapshot(&even, false);
    for e in &events[half..] {
        a.record(e.clone());
    }
    none.at = events[events.len() - 1].at;
    a.apply_snapshot(&none, false);
    a.finish().unwrap();
    let report = a.report();
    let (json, text) = (report.to_json(), report.to_text());
    assert_eq!(
        (report.violations.len(), json.len(), fnv1a(json.as_bytes()), text.len(), fnv1a(text.as_bytes())),
        (36, 21_257, 13113090852804109025, 20_234, 10430842636948060164),
    );
}
