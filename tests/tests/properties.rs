//! Randomized property tests on the workspace's core data structures and
//! invariants: wire-format roundtrips and adversarial-input safety, FIB
//! packing, the error-tolerance curve, floor control, and the cost models.
//!
//! These were originally proptest properties; they now run as
//! deterministic seeded loops over the vendored `rand` shim (the offline
//! build has no registry access for proptest). Each case count is chosen
//! to keep the whole file under a second while still sweeping the input
//! space; failures print the seed/iteration so a case can be replayed.

use express::fib::{Fib, Forward};
use express::proactive::ErrorToleranceCurve;
use express::table::{channel_key, InlineSet, Keyed, Table};
use express_cost::{FibCostModel, MgmtStateModel};
use express_wire::addr::{Channel, ChannelDest, Ipv4Addr};
use express_wire::ecmp::{self, Count, CountId, CountQuery, CountResponse, EcmpMessage, ProactiveParams, ResponseStatus};
use express_wire::fib::FibEntry;
use express_wire::igmp::{GroupRecord, IgmpV2, IgmpV3, RecordType};
use express_wire::ipv4::{Ipv4Repr, Protocol};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use session_relay::floor::{FloorControl, FloorDecision};

const CASES: usize = 256;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x00E0_F155_1999) // EXPRESS '99
}

fn arb_unicast_ip(r: &mut StdRng) -> Ipv4Addr {
    loop {
        let ip = Ipv4Addr::new(r.random_range(1u8..224), r.random(), r.random(), r.random());
        if ip.is_unicast() {
            return ip;
        }
    }
}

fn arb_channel(r: &mut StdRng) -> Channel {
    Channel::new(arb_unicast_ip(r), r.random_range(0u32..ChannelDest::MAX + 1)).unwrap()
}

fn arb_ecmp_message(r: &mut StdRng) -> EcmpMessage {
    match r.random_range(0u8..3) {
        0 => EcmpMessage::from(CountQuery {
            channel: arb_channel(r),
            count_id: CountId(r.random()),
            timeout_ms: r.random(),
            proactive: if r.random() {
                Some(ProactiveParams {
                    alpha_milli: r.random_range(1u32..100_000),
                    tau_ms: r.random_range(1u32..10_000_000),
                })
            } else {
                None
            },
        }),
        1 => EcmpMessage::from(Count {
            channel: arb_channel(r),
            count_id: CountId(r.random()),
            count: r.random(),
            key: if r.random() { Some(r.random()) } else { None },
        }),
        _ => {
            let status = match r.random_range(0u8..5) {
                0 => ResponseStatus::Ok,
                1 => ResponseStatus::UnsupportedCount,
                2 => ResponseStatus::InvalidAuthenticator,
                3 => ResponseStatus::NoSuchChannel,
                _ => ResponseStatus::AdminProhibited,
            };
            EcmpMessage::from(CountResponse {
                channel: arb_channel(r),
                count_id: CountId(r.random()),
                status,
                key: if r.random() { Some(r.random()) } else { None },
            })
        }
    }
}

#[test]
fn ecmp_message_roundtrip() {
    let mut r = rng();
    for i in 0..CASES {
        let msg = arb_ecmp_message(&mut r);
        let bytes = msg.to_vec();
        assert_eq!(bytes.len(), msg.buffer_len(), "case {i}: {msg:?}");
        let (parsed, consumed) = EcmpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed, msg, "case {i}");
        assert_eq!(consumed, bytes.len(), "case {i}");
    }
}

#[test]
fn ecmp_batch_roundtrip() {
    let mut r = rng();
    for i in 0..CASES {
        let n = r.random_range(0usize..40);
        let msgs: Vec<EcmpMessage> = (0..n).map(|_| arb_ecmp_message(&mut r)).collect();
        let (bytes, taken) = ecmp::emit_batch(&msgs, 1480);
        let parsed = ecmp::parse_batch(&bytes).unwrap();
        assert_eq!(&parsed[..], &msgs[..taken], "case {i}");
        assert!(bytes.len() <= 1480, "case {i}: batch exceeds MTU");
    }
}

#[test]
fn ecmp_parser_never_panics_on_garbage() {
    let mut r = rng();
    for _ in 0..CASES * 4 {
        let n = r.random_range(0usize..200);
        let bytes: Vec<u8> = (0..n).map(|_| r.random()).collect();
        let _ = EcmpMessage::parse(&bytes); // must not panic
        let _ = ecmp::parse_batch(&bytes);
    }
}

#[test]
fn truncation_always_detected() {
    let mut r = rng();
    for i in 0..CASES {
        let msg = arb_ecmp_message(&mut r);
        let bytes = msg.to_vec();
        let cut = r.random_range(0usize..bytes.len().max(1));
        if cut < bytes.len() {
            assert!(EcmpMessage::parse(&bytes[..cut]).is_err(), "case {i}: cut={cut}");
        }
    }
}

#[test]
fn ipv4_roundtrip() {
    let mut r = rng();
    for i in 0..CASES {
        let repr = Ipv4Repr {
            src: arb_unicast_ip(&mut r),
            dst: arb_unicast_ip(&mut r),
            protocol: Protocol::from_number(r.random()),
            ttl: r.random(),
            payload_len: r.random_range(0usize..1400),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        assert_eq!(Ipv4Repr::parse(&buf).unwrap(), repr, "case {i}");
    }
}

#[test]
fn ipv4_single_bitflip_detected_or_harmless() {
    // Any single bit flip in the header either fails the checksum or flips
    // a bit the parser validates — never yields a silently different valid
    // header with a matching checksum.
    let mut r = rng();
    for i in 0..CASES {
        let repr = Ipv4Repr {
            src: arb_unicast_ip(&mut r),
            dst: arb_unicast_ip(&mut r),
            protocol: Protocol::Udp,
            ttl: 64,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        let bit = r.random_range(0usize..160);
        buf[bit / 8] ^= 1 << (bit % 8);
        if let Ok(parsed) = Ipv4Repr::parse(&buf) {
            assert_eq!(parsed, repr, "case {i}: bit {bit} silently corrupted header");
        }
    }
}

#[test]
fn igmpv2_roundtrip() {
    let mut r = rng();
    for _ in 0..CASES {
        let g = arb_unicast_ip(&mut r);
        let mrt = r.random();
        for m in [
            IgmpV2::Query { group: Ipv4Addr::UNSPECIFIED, max_resp_decisecs: mrt },
            IgmpV2::Report { group: g },
            IgmpV2::Leave { group: g },
        ] {
            let mut buf = [0u8; IgmpV2::WIRE_LEN];
            m.emit(&mut buf).unwrap();
            assert_eq!(IgmpV2::parse(&buf).unwrap(), m);
        }
    }
}

#[test]
fn igmpv3_report_roundtrip() {
    let mut r = rng();
    for i in 0..CASES {
        let n_groups = r.random_range(0usize..6);
        let records: Vec<GroupRecord> = (0..n_groups)
            .map(|_| {
                let n_src = r.random_range(0usize..5);
                let sources: Vec<Ipv4Addr> = (0..n_src).map(|_| arb_unicast_ip(&mut r)).collect();
                GroupRecord {
                    record_type: if sources.is_empty() {
                        RecordType::ModeIsExclude
                    } else {
                        RecordType::ModeIsInclude
                    },
                    group: Ipv4Addr::new(232, 0, 0, r.random()),
                    sources,
                }
            })
            .collect();
        let m = IgmpV3::Report { records };
        assert_eq!(IgmpV3::parse(&m.to_vec()).unwrap(), m, "case {i}");
    }
}

#[test]
fn fib_entry_pack_unpack() {
    let mut r = rng();
    for i in 0..CASES {
        let chan = arb_channel(&mut r);
        let iface = r.random_range(0u8..32);
        let mask: u32 = r.random();
        let e = FibEntry::new(chan, iface, mask).unwrap();
        assert_eq!(e.channel(), chan, "case {i}");
        assert_eq!(e.in_iface(), iface, "case {i}");
        assert_eq!(e.oif_mask(), mask, "case {i}");
        let e2 = FibEntry::from_raw(e.raw()).unwrap();
        assert_eq!(e, e2, "case {i}");
        assert_eq!(e.fanout(), mask.count_ones(), "case {i}");
    }
}

#[test]
fn fib_lookup_consistent() {
    let mut r = rng();
    for i in 0..CASES / 4 {
        let n = r.random_range(1usize..50);
        let chans: Vec<(Channel, u8, u32)> = (0..n)
            .map(|_| (arb_channel(&mut r), r.random_range(0u8..32), r.random()))
            .collect();
        let mut fib = Fib::new();
        for (c, fi, m) in &chans {
            fib.install(FibEntry::new(*c, *fi, *m).unwrap());
        }
        // Looking up any installed channel on its own in_iface forwards
        // with the arrival interface excluded (consistent with a later
        // overwrite of the same channel).
        for (c, _, _) in &chans {
            let e = *fib.get(*c).expect("installed");
            match fib.lookup(*c, e.in_iface()) {
                Forward::To(mask) => {
                    assert_eq!(mask & (1 << e.in_iface()), 0, "case {i}: never reflects");
                    assert_eq!(mask, e.oif_mask() & !(1 << e.in_iface()), "case {i}");
                }
                other => panic!("case {i}: unexpected {other:?}"),
            }
        }
        assert_eq!(fib.memory_bytes(), fib.len() * 12, "case {i}");
    }
}

/// The reference the table is checked against, and the §3.4 decision
/// spelled out over it.
type FibModel = std::collections::HashMap<Channel, FibEntry>;

fn model_decision(model: &FibModel, chan: Channel, iface: u8) -> Forward {
    match model.get(&chan) {
        None => Forward::NoEntry,
        Some(e) if e.in_iface() != iface => Forward::WrongInterface,
        Some(e) => Forward::To(e.oif_mask() & !(1 << iface)),
    }
}

fn assert_same_contents(fib: &Fib, model: &FibModel, what: &str) {
    assert_eq!(fib.len(), model.len(), "{what}");
    assert_eq!(fib.is_empty(), model.is_empty(), "{what}");
    assert_eq!(fib.memory_bytes(), model.len() * 12, "{what}");
    let mut entries: Vec<[u8; 12]> = fib.iter().map(|e| e.raw()).collect();
    let mut expected: Vec<[u8; 12]> = model.values().map(|e| e.raw()).collect();
    entries.sort_unstable();
    expected.sort_unstable();
    assert_eq!(entries, expected, "{what}: iter");
    let mut chans: Vec<Channel> = fib.channels().collect();
    let mut expected: Vec<Channel> = model.keys().copied().collect();
    chans.sort_unstable();
    expected.sort_unstable();
    assert_eq!(chans, expected, "{what}: channels");
}

#[test]
fn fib_matches_a_hash_map_model() {
    let mut r = rng();
    // Pool sizes on both sides of every table size from the inline slot to
    // 4096 slots; one source's consecutive channel numbers (the common
    // shape, and the one a weak hash would turn into a single run) and
    // arbitrary channels alike.
    for (case, &pool_len) in [1usize, 2, 3, 4, 6, 7, 13, 25, 97, 400, 3000].iter().enumerate() {
        let source = arb_unicast_ip(&mut r);
        let pool: Vec<Channel> = (0..pool_len)
            .map(|i| {
                if case % 2 == 0 {
                    Channel::new(source, i as u32).unwrap()
                } else {
                    arb_channel(&mut r)
                }
            })
            .collect();
        let mut fib = Fib::new();
        let mut model = FibModel::new();
        let mut counted = [0u64; 3];
        // Fill most of the pool, drain most of that (every removal repairs
        // a run in a table left at its largest size), then churn.
        for (phase, installs_in_8) in [(0, 7), (1, 1), (2, 4)] {
            for step in 0..pool_len * 6 + 16 {
                let what = format!("pool {pool_len} phase {phase} step {step}");
                let chan = pool[r.random_range(0..pool_len)];
                let iface = r.random_range(0u8..32);
                match r.random_range(0u8..12) {
                    0..=7 if r.random_range(0u8..8) < installs_in_8 => {
                        let e = FibEntry::new(chan, iface, r.random()).unwrap();
                        fib.install(e);
                        model.insert(chan, e);
                    }
                    0..=7 => assert_eq!(fib.remove(chan), model.remove(&chan), "{what}"),
                    8 => assert_eq!(fib.get(chan), model.get(&chan), "{what}"),
                    9 => {
                        let mask: u32 = r.random();
                        let (got, want) = (fib.get_mut(chan), model.get_mut(&chan));
                        assert_eq!(got.is_some(), want.is_some(), "{what}");
                        if let (Some(got), Some(want)) = (got, want) {
                            got.set_oif_mask(mask);
                            want.set_oif_mask(mask);
                        }
                    }
                    _ => {
                        // Twice: the second answer comes from the slot the
                        // first one left as a hint — and the first one's
                        // hint is whatever the installs and removals since
                        // the last lookup made of it.
                        for _ in 0..2 {
                            let d = fib.lookup(chan, iface);
                            assert_eq!(d, model_decision(&model, chan, iface), "{what}");
                            counted[match d {
                                Forward::To(_) => 0,
                                Forward::NoEntry => 1,
                                Forward::WrongInterface => 2,
                            }] += 1;
                        }
                    }
                }
                assert_eq!(fib.len(), model.len(), "{what}");
                if step % 256 == 0 {
                    assert_same_contents(&fib, &model, &what);
                }
            }
            assert_same_contents(&fib, &model, &format!("pool {pool_len} end of phase {phase}"));
            for &c in &pool {
                assert_eq!(fib.get(c), model.get(&c), "pool {pool_len} phase {phase}");
            }
        }
        let c = fib.counters();
        assert_eq!([c.forwarded, c.no_entry_drops, c.rpf_drops], counted, "pool {pool_len}");
    }
}

/// A record as the control plane files them: it carries its key, and a
/// value the model can tell overwrites by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    key: u64,
    val: u32,
}

impl Keyed for Rec {
    type Key = u64;

    fn key(&self) -> u64 {
        self.key
    }
}

#[test]
fn channel_table_matches_a_btree_map_model() {
    let mut r = rng();
    // Key pools on both sides of every table size from the inline slot to
    // 4096 slots: one source's consecutive channels and arbitrary ones.
    for (case, &pool_len) in [1usize, 2, 3, 4, 6, 7, 13, 25, 97, 400, 3000].iter().enumerate() {
        let source = arb_unicast_ip(&mut r);
        let pool: Vec<u64> = (0..pool_len)
            .map(|i| {
                channel_key(if case % 2 == 0 {
                    Channel::new(source, i as u32).unwrap()
                } else {
                    arb_channel(&mut r)
                })
            })
            .collect();
        let mut table: Table<Rec> = Table::new();
        let mut model = std::collections::BTreeMap::new();
        // The keys in the order `Table::picked` hands out what it picks.
        let sorted_keys = |t: &Table<Rec>| t.picked(|_| Some(())).into_iter().map(|(k, ())| k).collect::<Vec<_>>();
        let mut high_water = 1;
        // The table's slot hint is carried through every insert, removal
        // and growth — stale most of the time.
        // Fill, drain (every removal repairs a run in a table left at its
        // largest size), then churn.
        for (phase, inserts_in_8) in [(0, 7), (1, 1), (2, 4)] {
            for step in 0..pool_len * 6 + 16 {
                let what = format!("pool {pool_len} phase {phase} step {step}");
                let key = pool[r.random_range(0..pool_len)];
                let val: u32 = r.random();
                match r.random_range(0u8..12) {
                    0..=5 if r.random_range(0u8..8) < inserts_in_8 => {
                        assert_eq!(table.insert(Rec { key, val }), model.insert(key, Rec { key, val }), "{what}");
                    }
                    6..=7 if r.random_range(0u8..8) < inserts_in_8 => {
                        let got = table.get_or_insert_with(key, || Rec { key, val });
                        let want = model.entry(key).or_insert(Rec { key, val });
                        assert_eq!(got, want, "{what}");
                        got.val ^= 1;
                        want.val ^= 1;
                    }
                    0..=7 => assert_eq!(table.remove(key), model.remove(&key), "{what}"),
                    8 => {
                        assert_eq!(table.get(key), model.get(&key), "{what}");
                        for _ in 0..2 {
                            assert_eq!(table.get_hinted(key), model.get(&key), "{what}");
                        }
                    }
                    _ => {
                        let (got, want) = (table.get_mut(key), model.get_mut(&key));
                        assert_eq!(got, want, "{what}");
                        if let (Some(got), Some(want)) = (got, want) {
                            got.val = val;
                            want.val = val;
                        }
                    }
                }
                assert_eq!((table.len(), table.is_empty()), (model.len(), model.is_empty()), "{what}");
                assert!(table.capacity() >= high_water, "{what}: capacity is never given back");
                high_water = table.capacity();
                if step % 256 == 0 {
                    assert_eq!(sorted_keys(&table), model.keys().copied().collect::<Vec<_>>(), "{what}");
                }
            }
            // The walk an agent makes — `picked` in ascending keys, then each
            // key looked up — finds every record it was handed and meets
            // exactly the model's records in the model's order, and the
            // unordered view holds the same records.
            let walked = table.picked(|r| Some(*r));
            for &(k, r) in &walked {
                assert_eq!(table.get(k), Some(&r), "pool {pool_len} phase {phase}: {k:#x} picked, not found");
            }
            let walked: Vec<Rec> = walked.into_iter().map(|(_, r)| r).collect();
            assert_eq!(walked, model.values().copied().collect::<Vec<_>>(), "pool {pool_len} phase {phase}");
            let mut unordered: Vec<u64> = table.iter().map(Keyed::key).collect();
            unordered.sort_unstable();
            assert_eq!(unordered, sorted_keys(&table), "pool {pool_len} phase {phase}");
        }
    }
}

#[test]
fn inline_set_matches_a_btree_map_model() {
    let mut r = rng();
    for &pool_len in &[1usize, 2, 3, 4, 5, 6, 9, 13, 40, 400, 3000] {
        let pool: Vec<u64> = (0..pool_len).map(|_| r.random()).collect();
        let mut set: InlineSet<Rec> = InlineSet::new();
        let mut model = std::collections::BTreeMap::new();
        let mut peak = 0;
        // Fill past the inline slots, drain back into them, churn around
        // the boundary.
        for (phase, inserts_in_8) in [(0, 7), (1, 1), (2, 4)] {
            for step in 0..pool_len * 6 + 16 {
                let what = format!("pool {pool_len} phase {phase} step {step}");
                let key = pool[r.random_range(0..pool_len)];
                let val: u32 = r.random();
                match r.random_range(0u8..12) {
                    0..=6 if r.random_range(0u8..8) < inserts_in_8 => {
                        assert_eq!(set.insert(Rec { key, val }), model.insert(key, Rec { key, val }), "{what}");
                    }
                    0..=6 => assert_eq!(set.remove(key), model.remove(&key), "{what}"),
                    7 => {
                        // Drop a pseudo-random third, visiting in order.
                        let mut seen = Vec::new();
                        set.retain(|rec| {
                            seen.push(rec.key);
                            rec.val % 3 != val % 3
                        });
                        assert_eq!(seen, model.keys().copied().collect::<Vec<_>>(), "{what}: retain order");
                        model.retain(|_, rec| rec.val % 3 != val % 3);
                    }
                    8 => assert_eq!(set.get(key), model.get(&key), "{what}"),
                    _ => {
                        let (got, want) = (set.get_mut(key), model.get_mut(&key));
                        assert_eq!(got, want, "{what}");
                        if let (Some(got), Some(want)) = (got, want) {
                            got.val = val;
                            want.val = val;
                        }
                    }
                }
                assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()), "{what}");
                // The records live in place until the set first holds more
                // than fit there, and in its heap ring from then on.
                peak = peak.max(model.len());
                assert_eq!(set.is_inline(), peak <= InlineSet::<Rec>::INLINE, "{what}");
                let listed: Vec<Rec> = set.iter().copied().collect();
                assert_eq!(listed, model.values().copied().collect::<Vec<_>>(), "{what}: iteration order");
            }
        }
    }
}

fn arb_curve(r: &mut StdRng) -> (f64, f64) {
    let alpha = 0.5 + 9.5 * r.random::<f64>();
    let tau = 1.0 + 599.0 * r.random::<f64>();
    (alpha, tau)
}

#[test]
fn curve_monotone_and_bounded() {
    let mut r = rng();
    for i in 0..CASES {
        let (alpha, tau) = arb_curve(&mut r);
        let c = ErrorToleranceCurve::new(alpha, tau);
        let dt1 = 0.001 + 599.999 * r.random::<f64>();
        let dt2 = 0.001 + 599.999 * r.random::<f64>();
        let (lo, hi) = if dt1 <= dt2 { (dt1, dt2) } else { (dt2, dt1) };
        assert!(c.e_max(lo) >= c.e_max(hi), "case {i}: monotone non-increasing");
        assert_eq!(c.e_max(tau), 0.0, "case {i}");
        assert!(c.e_max(tau + 1.0) == 0.0, "case {i}");
    }
}

#[test]
fn curve_sends_any_change_within_tau() {
    let mut r = rng();
    for i in 0..CASES {
        let (alpha, tau) = arb_curve(&mut r);
        let a = r.random_range(0u64..10_000);
        let b = r.random_range(0u64..10_000);
        if a == b {
            continue;
        }
        let c = ErrorToleranceCurve::new(alpha, tau);
        let t0 = netsim::SimTime::ZERO;
        let after_tau = t0 + netsim::SimDuration::from_secs_f64(tau + 0.001);
        assert!(c.should_send(a, b, t0, after_tau), "case {i}: any change must be sent by tau");
    }
}

#[test]
fn curve_next_check_is_sound() {
    let mut r = rng();
    for i in 0..CASES {
        let (alpha, tau) = arb_curve(&mut r);
        let a = r.random_range(1u64..10_000);
        let b = r.random_range(1u64..10_000);
        if a == b {
            continue;
        }
        let c = ErrorToleranceCurve::new(alpha, tau);
        let t0 = netsim::SimTime::ZERO;
        let at = c.next_check_at(a, b, t0).expect("pending change");
        // Strictly before the check time, no send happens.
        if at.micros() > 2_000 {
            let before = netsim::SimTime(at.micros() - 1_000);
            assert!(!c.should_send(a, b, t0, before), "case {i}");
        }
        // Shortly after, it does.
        let after = at + netsim::SimDuration::from_millis(2);
        assert!(c.should_send(a, b, t0, after), "case {i}");
    }
}

#[test]
fn floor_control_invariants() {
    let mut r = rng();
    let members: Vec<Ipv4Addr> = (0..8).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
    for _case in 0..CASES / 4 {
        let mut f = FloorControl::open();
        let n_ops = r.random_range(1usize..100);
        for _ in 0..n_ops {
            let m = members[r.random_range(0usize..8)];
            match r.random_range(0u8..3) {
                0 => {
                    let d = f.request(m);
                    if d == FloorDecision::Granted {
                        assert_eq!(f.holder(), Some(m));
                    }
                }
                1 => {
                    f.release(m);
                }
                _ => {
                    let _ = f.may_speak(m);
                }
            }
            // Invariant: at most one holder; the holder is never queued.
            if let Some(h) = f.holder() {
                assert!(f.may_speak(h));
            }
        }
    }
}

#[test]
fn fib_cost_model_positive_and_linear() {
    let mut r = rng();
    for i in 0..CASES {
        let k = r.random_range(1u64..100);
        let n = r.random_range(1u64..1000);
        let h = r.random_range(1u64..64);
        let secs = 1.0 + (1e7 - 1.0) * r.random::<f64>();
        let m = FibCostModel::default();
        let c1 = m.session_cost_bound(k, n, h, secs);
        assert!(c1.total_dollars > 0.0, "case {i}");
        let c2 = m.session_cost_bound(k * 2, n, h, secs);
        assert!((c2.total_dollars / c1.total_dollars - 2.0).abs() < 1e-9, "case {i}: linear in k");
    }
}

#[test]
fn mgmt_model_matches_components() {
    let mut r = rng();
    for i in 0..CASES {
        let m = MgmtStateModel {
            record_bytes: r.random_range(1u64..128),
            records_per_channel: r.random_range(1u64..8),
            outstanding_counts: r.random_range(1u64..8),
            key_bytes: r.random_range(0u64..64),
            dollars_per_byte: 1e-6,
        };
        assert_eq!(
            m.bytes_per_channel(),
            m.record_bytes * m.records_per_channel * m.outstanding_counts + m.key_bytes,
            "case {i}"
        );
    }
}
