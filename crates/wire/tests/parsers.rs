//! Every parser of this crate against hostile input, table-driven: each
//! message kind a parser's emitter produces is cut at every length short of
//! whole (the parser must return `Err`), then mutated by a seeded byte-flip
//! loop (the parser must not panic, and whatever it accepts must re-emit to
//! bytes that parse back to the same value).

use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::cbt::CbtMessage;
use express_wire::dvmrp::DvmrpMessage;
use express_wire::ecmp::{self, Count, CountId, CountQuery, CountResponse, EcmpMessage, ProactiveParams, ResponseStatus};
use express_wire::encap;
use express_wire::fib::FibEntry;
use express_wire::igmp::{GroupRecord, IgmpV2, IgmpV3, RecordType};
use express_wire::ipv4::{Ipv4Repr, Protocol};
use express_wire::pim::{GroupBlock, PimMessage, SourceEntry};

/// A parser under test: `true` if it accepted `bytes`, having checked that
/// what it accepted re-emits to bytes that parse back equal.
type Parser = fn(&[u8]) -> bool;

fn ecmp_message(b: &[u8]) -> bool {
    let Ok((m, _)) = EcmpMessage::parse(b) else { return false };
    assert_eq!(EcmpMessage::parse(&m.to_vec()), Ok((m, m.buffer_len())));
    true
}

fn ecmp_batch(b: &[u8]) -> bool {
    let Ok(msgs) = ecmp::parse_batch(b) else { return false };
    let again: Vec<u8> = msgs.iter().flat_map(EcmpMessage::to_vec).collect();
    assert_eq!(ecmp::parse_batch(&again).as_ref(), Ok(&msgs));
    true
}

fn channel(b: &[u8]) -> bool {
    let Ok(c) = Channel::parse(b, 0) else { return false };
    let mut again = [0u8; Channel::WIRE_LEN];
    c.emit(&mut again, 0).unwrap();
    assert_eq!(Channel::parse(&again, 0), Ok(c));
    true
}

fn ipv4(b: &[u8]) -> bool {
    let Ok(h) = Ipv4Repr::parse(b) else { return false };
    let mut again = vec![0u8; h.buffer_len()];
    h.emit(&mut again).unwrap();
    assert_eq!(Ipv4Repr::parse(&again), Ok(h));
    true
}

fn decapsulate(b: &[u8]) -> bool {
    let Ok((outer, inner)) = encap::decapsulate(b) else { return false };
    let again = encap::encapsulate(outer.src, outer.dst, outer.ttl, inner).unwrap();
    assert_eq!(encap::decapsulate(&again), Ok((outer, inner)));
    true
}

fn igmp_v2(b: &[u8]) -> bool {
    let Ok(m) = IgmpV2::parse(b) else { return false };
    let mut again = [0u8; IgmpV2::WIRE_LEN];
    m.emit(&mut again).unwrap();
    assert_eq!(IgmpV2::parse(&again), Ok(m));
    true
}

fn igmp_v3(b: &[u8]) -> bool {
    let Ok(m) = IgmpV3::parse(b) else { return false };
    assert_eq!(IgmpV3::parse(&m.to_vec()), Ok(m));
    true
}

fn pim(b: &[u8]) -> bool {
    let Ok(m) = PimMessage::parse(b) else { return false };
    assert_eq!(PimMessage::parse(&m.to_vec()), Ok(m));
    true
}

fn cbt(b: &[u8]) -> bool {
    let Ok(m) = CbtMessage::parse(b) else { return false };
    assert_eq!(CbtMessage::parse(&m.to_vec()), Ok(m));
    true
}

fn dvmrp(b: &[u8]) -> bool {
    let Ok(m) = DvmrpMessage::parse(b) else { return false };
    assert_eq!(DvmrpMessage::parse(&m.to_vec()), Ok(m));
    true
}

fn fib_entry(b: &[u8]) -> bool {
    let Ok(raw) = <[u8; 12]>::try_from(b) else { return false };
    let Ok(e) = FibEntry::from_raw(raw) else { return false };
    assert_eq!(FibEntry::from_raw(e.raw()), Ok(e));
    true
}

/// One message kind, encoded, with the parser that reads it and the
/// lengths it must reject the encoding cut to.
struct Case {
    parse: Parser,
    name: String,
    bytes: Vec<u8>,
    cuts: Vec<usize>,
}

/// Every message kind each parser's emitter produces.
fn cases() -> Vec<Case> {
    let s = Ipv4Addr::new(10, 0, 0, 7);
    let g = Ipv4Addr::new(224, 5, 5, 5);
    let chan = Channel::new(s, 0x00AB_CDEF).unwrap();
    let mut cases: Vec<(Parser, String, Vec<u8>)> = Vec::new();

    let ecmp_msgs = [
        EcmpMessage::from(CountQuery { channel: chan, count_id: CountId::SUBSCRIBERS, timeout_ms: 900, proactive: None }),
        EcmpMessage::from(CountQuery {
            channel: chan,
            count_id: CountId::LINKS,
            timeout_ms: 0,
            proactive: Some(ProactiveParams { alpha_milli: 4_000, tau_ms: 30_000 }),
        }),
        EcmpMessage::from(Count { channel: chan, count_id: CountId::SUBSCRIBERS, count: 5, key: None }),
        EcmpMessage::from(Count { channel: chan, count_id: CountId(0x8000_0001), count: 1 << 40, key: Some(9) }),
        EcmpMessage::from(CountResponse { channel: chan, count_id: CountId::SUBSCRIBERS, status: ResponseStatus::Ok, key: None }),
        EcmpMessage::from(CountResponse {
            channel: chan,
            count_id: CountId::SUBSCRIBERS,
            status: ResponseStatus::InvalidAuthenticator,
            key: Some(7),
        }),
    ];
    for m in ecmp_msgs {
        cases.push((ecmp_message, format!("ecmp {m:?}"), m.to_vec()));
    }
    let (batch, _) = ecmp::emit_batch(&ecmp_msgs, 1480);
    cases.push((ecmp_batch, "ecmp batch".into(), batch));

    let mut c = vec![0u8; Channel::WIRE_LEN];
    chan.emit(&mut c, 0).unwrap();
    cases.push((channel, "channel".into(), c));

    let inner_header = Ipv4Repr { src: s, dst: chan.group(), protocol: Protocol::Udp, ttl: 64, payload_len: 12 };
    let mut inner = vec![0x5a; inner_header.buffer_len()];
    inner_header.emit(&mut inner).unwrap();
    cases.push((ipv4, "ipv4 datagram".into(), inner.clone()));
    let tunnelled = encap::encapsulate(s, Ipv4Addr::new(10, 0, 0, 9), 32, &inner).unwrap();
    cases.push((decapsulate, "ip-in-ip".into(), tunnelled));

    for m in [IgmpV2::Query { group: g, max_resp_decisecs: 100 }, IgmpV2::Report { group: g }, IgmpV2::Leave { group: g }] {
        let mut b = vec![0u8; IgmpV2::WIRE_LEN];
        m.emit(&mut b).unwrap();
        cases.push((igmp_v2, format!("{m:?}"), b));
    }
    let v3 = [
        IgmpV3::Query { group: g, max_resp_decisecs: 10, suppress: true, qrv: 2, qqic: 125, sources: vec![s, Ipv4Addr::new(10, 0, 0, 8)] },
        IgmpV3::Report {
            records: vec![
                GroupRecord { record_type: RecordType::ModeIsInclude, group: g, sources: vec![s] },
                GroupRecord { record_type: RecordType::ChangeToExclude, group: Ipv4Addr::new(224, 6, 6, 6), sources: vec![] },
            ],
        },
    ];
    for m in v3 {
        cases.push((igmp_v3, format!("{m:?}"), m.to_vec()));
    }

    let pims = [
        PimMessage::Hello { holdtime_secs: 105 },
        PimMessage::Register { source: s, group: g, null: true },
        PimMessage::RegisterStop { source: s, group: g },
        PimMessage::JoinPrune {
            upstream: Ipv4Addr::new(10, 0, 0, 1),
            holdtime_secs: 210,
            groups: vec![GroupBlock {
                group: g,
                joins: vec![SourceEntry::wildcard_rpt(Ipv4Addr::new(10, 0, 0, 2)), SourceEntry::source(s)],
                prunes: vec![SourceEntry::source_rpt(s)],
            }],
        },
    ];
    for m in pims {
        cases.push((pim, format!("{m:?}"), m.to_vec()));
    }

    let core = Ipv4Addr::new(10, 0, 0, 3);
    let cbts = [
        CbtMessage::JoinRequest { group: g, core, originator: s },
        CbtMessage::JoinAck { group: g, core, originator: s },
        CbtMessage::QuitNotification { group: g, core },
        CbtMessage::EchoRequest { group: g, core },
        CbtMessage::EchoReply { group: g, core },
    ];
    for m in cbts {
        cases.push((cbt, format!("{m:?}"), m.to_vec()));
    }

    let dvmrps = [
        DvmrpMessage::Probe { generation_id: 0xdead_beef },
        DvmrpMessage::Prune { source: s, group: g, lifetime_secs: 7_200 },
        DvmrpMessage::Graft { source: s, group: g },
        DvmrpMessage::GraftAck { source: s, group: g },
    ];
    for m in dvmrps {
        cases.push((dvmrp, format!("{m:?}"), m.to_vec()));
    }

    let mut cases: Vec<Case> = cases
        .into_iter()
        .map(|(parse, name, bytes)| Case { parse, name, cuts: (0..bytes.len()).collect(), bytes })
        .collect();
    // A batch cut at a message boundary is a shorter batch, and the empty
    // batch is a batch: those cuts are not truncations.
    let batch = cases.iter_mut().find(|c| c.name == "ecmp batch").expect("listed above");
    let bytes = &batch.bytes;
    let ends: Vec<usize> = std::iter::successors(Some(0), |&at| EcmpMessage::parse(&bytes[at..]).ok().map(|(_, n)| at + n)).collect();
    batch.cuts.retain(|c| !ends.contains(c));
    // Exactly 12 octets by type: nothing to truncate, only bytes to flip.
    let fib = FibEntry::new(chan, 3, 0b1010_0110).unwrap();
    cases.push(Case { parse: fib_entry, name: "fib entry".into(), bytes: fib.raw().to_vec(), cuts: Vec::new() });
    cases
}

#[test]
fn every_parser_accepts_what_its_emitter_writes_and_rejects_every_truncation() {
    for Case { parse, name, bytes, cuts } in cases() {
        assert!(parse(&bytes), "{name}: its own encoding is rejected");
        for cut in cuts {
            assert!(!parse(&bytes[..cut]), "{name}: accepted the first {cut} of {} octets", bytes.len());
        }
    }
}

#[test]
fn flipped_bytes_never_panic_and_what_parses_re_emits() {
    // SplitMix64: a seeded stream with no dependency.
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for Case { parse, bytes, .. } in cases() {
        for _ in 0..2_000 {
            let mut b = bytes.clone();
            for _ in 0..1 + next() % 3 {
                let at = (next() % b.len() as u64) as usize;
                b[at] ^= 1 + (next() % 255) as u8;
            }
            parse(&b);
        }
    }
}
