use super::*;
use crate::time::{SimDuration, SimTime};
use crate::topology::LinkSpec;
use crate::trace::TraceConfig;

/// Echoes every datagram back out the interface it arrived on and
/// counts arrivals.
struct Echo {
    seen: Vec<(SimTime, Vec<u8>)>,
    reply: bool,
}

impl Agent for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        self.seen.push((ctx.now(), bytes.to_vec()));
        if self.reply {
            ctx.send(iface, bytes, class, Reliability::Reliable, Tx::AllOnLink);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends one frame at start.
struct Pinger {
    payload: Vec<u8>,
    replies: u32,
}

impl Agent for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let p = self.payload.clone();
        ctx.send(IfaceId(0), &p, TrafficClass::Data, Reliability::Reliable, Tx::AllOnLink);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {
        self.replies += 1;
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn two_nodes(latency_ms: u64) -> (Sim, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    t.connect(
        a,
        b,
        LinkSpec {
            latency: SimDuration::from_millis(latency_ms),
            bandwidth_bps: u64::MAX,
            ..Default::default()
        },
    )
    .unwrap();
    (Sim::new(t, 7), a, b)
}

#[test]
fn ping_pong_with_latency() {
    let (mut sim, a, b) = two_nodes(5);
    sim.set_agent(
        a,
        Box::new(Pinger {
            payload: b"ping".to_vec(),
            replies: 0,
        }),
    );
    sim.set_agent(
        b,
        Box::new(Echo {
            seen: vec![],
            reply: true,
        }),
    );
    sim.run();
    let echo = sim.agent_as::<Echo>(b).unwrap();
    assert_eq!(echo.seen.len(), 1);
    assert_eq!(echo.seen[0].0, SimTime(5_000));
    assert_eq!(echo.seen[0].1, b"ping");
    let pinger = sim.agent_as::<Pinger>(a).unwrap();
    assert_eq!(pinger.replies, 1);
    assert_eq!(sim.now(), SimTime(10_000));
}

#[test]
fn serialization_delay_from_bandwidth() {
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    t.connect(
        a,
        b,
        LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: 8_000, // 1 byte per ms
            ..Default::default()
        },
    )
    .unwrap();
    let mut sim = Sim::new(t, 0);
    sim.set_agent(
        a,
        Box::new(Pinger {
            payload: vec![0u8; 10],
            replies: 0,
        }),
    );
    sim.set_agent(b, Box::new(Echo { seen: vec![], reply: false }));
    sim.run();
    let echo = sim.agent_as::<Echo>(b).unwrap();
    assert_eq!(echo.seen[0].0, SimTime(10_000)); // 10 bytes @ 1ms/byte
}

#[test]
fn lossy_link_drops_datagrams_not_reliable() {
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    let l = t
        .connect(
            a,
            b,
            LinkSpec {
                loss: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
    struct Blaster;
    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..10 {
                ctx.send(IfaceId(0), b"d", TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
            }
            ctx.send(IfaceId(0), b"r", TrafficClass::Data, Reliability::Reliable, Tx::AllOnLink);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Sim::new(t, 1);
    sim.set_agent(a, Box::new(Blaster));
    sim.set_agent(b, Box::new(Echo { seen: vec![], reply: false }));
    sim.run();
    assert_eq!(sim.stats().link(l).drops, 10);
    let echo = sim.agent_as::<Echo>(b).unwrap();
    assert_eq!(echo.seen.len(), 1);
    assert_eq!(echo.seen[0].1, b"r");
}

#[test]
fn lan_multicast_and_unicast_delivery() {
    let mut t = Topology::new();
    let r = t.add_router();
    let h1 = t.add_host();
    let h2 = t.add_host();
    t.add_lan(&[r, h1, h2], LinkSpec::lan()).unwrap();
    struct LanSender {
        target: NodeId,
    }
    impl Agent for LanSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(IfaceId(0), b"all", TrafficClass::Control, Reliability::Reliable, Tx::AllOnLink);
            ctx.send(
                IfaceId(0),
                b"one",
                TrafficClass::Control,
                Reliability::Reliable,
                Tx::To(self.target),
            );
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Sim::new(t, 2);
    sim.set_agent(r, Box::new(LanSender { target: h1 }));
    sim.set_agent(h1, Box::new(Echo { seen: vec![], reply: false }));
    sim.set_agent(h2, Box::new(Echo { seen: vec![], reply: false }));
    sim.run();
    let e1 = sim.agent_as::<Echo>(h1).unwrap();
    assert_eq!(
        e1.seen.iter().map(|(_, b)| b.as_slice()).collect::<Vec<_>>(),
        vec![b"all".as_slice(), b"one".as_slice()]
    );
    let e2 = sim.agent_as::<Echo>(h2).unwrap();
    assert_eq!(e2.seen.len(), 1);
    assert_eq!(e2.seen[0].1, b"all");
}

#[test]
fn timers_fire_in_order() {
    struct TimerAgent {
        fired: Vec<(SimTime, TimerToken)>,
    }
    impl Agent for TimerAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 2);
            ctx.set_timer(SimDuration::from_millis(5), 1);
            ctx.set_timer(SimDuration::from_millis(10), 3); // same time as 2
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.fired.push((ctx.now(), token));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut t = Topology::new();
    let a = t.add_host();
    let mut sim = Sim::new(t, 0);
    sim.set_agent(a, Box::new(TimerAgent { fired: vec![] }));
    sim.run();
    let ta = sim.agent_as::<TimerAgent>(a).unwrap();
    assert_eq!(
        ta.fired,
        vec![
            (SimTime(5_000), 1),
            (SimTime(10_000), 2),
            (SimTime(10_000), 3) // insertion order breaks the tie
        ]
    );
}

#[test]
fn link_change_notifies_endpoints_and_drops_in_flight() {
    let (mut sim, a, b) = two_nodes(10);
    struct Watcher {
        changes: Vec<(SimTime, bool)>,
        got: u32,
    }
    impl Agent for Watcher {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _b: &Payload, _c: TrafficClass) {
            self.got += 1;
        }
        fn on_link_change(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, up: bool) {
            self.changes.push((ctx.now(), up));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.set_agent(
        a,
        Box::new(Pinger {
            payload: b"x".to_vec(),
            replies: 0,
        }),
    );
    sim.set_agent(b, Box::new(Watcher { changes: vec![], got: 0 }));
    let link = LinkId(0);
    // Frame sent at t=0 arrives at t=10ms, but the link dies at 5ms.
    sim.schedule_link_change(SimTime(5_000), link, false);
    sim.run();
    let w = sim.agent_as::<Watcher>(b).unwrap();
    assert_eq!(w.got, 0);
    assert_eq!(w.changes, vec![(SimTime(5_000), false)]);
}

#[test]
fn run_until_stops_at_time() {
    /// Re-arms a 1 ms timer (token 0) forever and logs what it is told.
    struct Repeater {
        log: Vec<(SimTime, String)>,
    }
    impl Agent for Repeater {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.log.push((ctx.now(), format!("timer {token}")));
            if token == 0 {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        fn on_link_change(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, up: bool) {
            self.log.push((ctx.now(), format!("link up={up}")));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    // The horizon's edges are the run loop's, whichever way a segment drains.
    for shards in [1, 2] {
        let (mut sim, a, _) = two_nodes(10);
        sim.set_shards(shards);
        assert_eq!(sim.shard_count(), shards);
        sim.set_agent(a, Box::new(Repeater { log: vec![] }));
        // One microsecond, four events: harness timers either side of a
        // global (rank-0 keys, in scheduling order), then the node's own.
        sim.schedule_timer_at(a, SimTime(3_000), 1);
        sim.schedule_link_change(SimTime(3_000), LinkId(0), false);
        sim.schedule_timer_at(a, SimTime(3_000), 2);
        // A global exactly at the horizon runs; one a microsecond later waits.
        sim.schedule_link_change(SimTime(5_500), LinkId(0), true);
        sim.schedule_link_change(SimTime(5_501), LinkId(0), false);
        sim.run_until(SimTime(5_500));
        assert_eq!(sim.now(), SimTime(5_500));
        let want: Vec<(SimTime, String)> = [
            (1_000, "timer 0"),
            (2_000, "timer 0"),
            (3_000, "timer 1"),
            (3_000, "link up=false"),
            (3_000, "timer 2"),
            (3_000, "timer 0"),
            (4_000, "timer 0"),
            (5_000, "timer 0"),
            (5_500, "link up=true"),
        ]
        .map(|(at, what)| (SimTime(at), what.to_string()))
        .into();
        assert_eq!(sim.agent_as::<Repeater>(a).unwrap().log, want, "{shards} shard(s)");
        // 5 re-armed firings at 1..=5 ms, 2 harness timers, 2 globals.
        assert_eq!(sim.events_processed(), 9);
        // An earlier horizon is a no-op: nothing runs, the clock stays.
        sim.run_until(SimTime(4_000));
        assert_eq!((sim.now(), sim.events_processed()), (SimTime(5_500), 9));
        sim.run_until(SimTime(5_501));
        assert_eq!(sim.now(), SimTime(5_501));
        let log = &sim.agent_as::<Repeater>(a).unwrap().log;
        assert_eq!(log.last(), Some(&(SimTime(5_501), "link up=false".to_string())));
        assert_eq!(sim.events_processed(), 10);
    }
}

#[test]
fn batched_fanout_counts_expanded_deliveries_and_bounds_depth() {
    // A 1-router + N-host LAN burst: batching on must deliver the same
    // events_processed / delivered totals as batching off, with a far
    // smaller peak queue depth (1 deferred entry vs N arrivals).
    fn run(batch: bool) -> (u64, usize, u64) {
        let mut t = Topology::new();
        let r = t.add_router();
        let hosts: Vec<NodeId> = (0..64).map(|_| t.add_host()).collect();
        let mut members = vec![r];
        members.extend(&hosts);
        t.add_lan(&members, LinkSpec::lan()).unwrap();
        struct Burst;
        impl Agent for Burst {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                ctx.send(IfaceId(0), b"data", TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Sink {
            got: u64,
        }
        impl Agent for Sink {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _b: &Payload, _c: TrafficClass) {
                self.got += 1;
            }
            fn hot_packet_fn(&self) -> Option<HotPacketFn> {
                Some(hot_packet_stub::<Self>())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(t, 3);
        sim.set_fanout_batching(batch);
        sim.set_agent(r, Box::new(Burst));
        for &h in &hosts {
            sim.set_agent(h, Box::new(Sink { got: 0 }));
        }
        for i in 1..=4u64 {
            sim.schedule_timer_at(r, SimTime(i * 1_000), 0);
        }
        sim.run();
        let delivered: u64 = hosts.iter().map(|&h| sim.agent_as::<Sink>(h).unwrap().got).sum();
        (sim.events_processed(), sim.peak_queue_depth(), delivered)
    }
    let (ev_b, peak_b, got_b) = run(true);
    let (ev_e, peak_e, got_e) = run(false);
    assert_eq!(got_b, 4 * 64);
    assert_eq!(got_b, got_e);
    assert_eq!(ev_b, ev_e, "batched totals must match the eager path");
    assert!(peak_b < peak_e, "batching must shrink peak depth ({peak_b} vs {peak_e})");
    assert!(peak_b <= 8, "one burst = one deferred entry (+ timers), got {peak_b}");
}

#[test]
fn hot_packet_stub_dispatches_to_concrete_agent() {
    let (mut sim, a, b) = two_nodes(1);
    struct Hot {
        got: Vec<Vec<u8>>,
    }
    impl Agent for Hot {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, bytes: &Payload, _c: TrafficClass) {
            self.got.push(bytes.to_vec());
        }
        fn hot_packet_fn(&self) -> Option<HotPacketFn> {
            Some(hot_packet_stub::<Self>())
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.set_agent(
        a,
        Box::new(Pinger {
            payload: b"via-hot-fn".to_vec(),
            replies: 0,
        }),
    );
    sim.set_agent(b, Box::new(Hot { got: vec![] }));
    sim.run();
    assert_eq!(sim.agent_as::<Hot>(b).unwrap().got, vec![b"via-hot-fn".to_vec()]);
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run_once(seed: u64) -> (u64, u64) {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let l = t
            .connect(
                a,
                b,
                LinkSpec {
                    loss: 0.5,
                    ..Default::default()
                },
            )
            .unwrap();
        struct Blast;
        impl Agent for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..100 {
                    ctx.send(IfaceId(0), b"d", TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(t, seed);
        sim.set_agent(a, Box::new(Blast));
        sim.run();
        (sim.stats().link(l).drops, sim.events_processed())
    }
    assert_eq!(run_once(42), run_once(42));
    // Different seeds give a different loss pattern (overwhelmingly).
    assert_ne!(run_once(1).0, run_once(2).0);
}

#[test]
fn send_on_down_link_fails() {
    let (mut sim, a, b) = two_nodes(1);
    sim.schedule_link_change(SimTime::ZERO, LinkId(0), false);
    sim.run();
    let _ = b;
    struct TrySend;
    impl Agent for TrySend {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            assert!(!ctx.send(IfaceId(0), b"x", TrafficClass::Data, Reliability::Reliable, Tx::AllOnLink));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.set_agent(a, Box::new(TrySend));
    sim.start();
}

/// A relay line: node i forwards every arrival out its other
/// interface, so one ping at node 0 walks the whole line — crossing
/// every shard boundary of any contiguous partition.
struct Forward;
impl Agent for Forward {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        ctx.count("fwd.seen", 1);
        let out = IfaceId(1 - iface.0);
        if (out.0 as usize) < ctx.iface_count() {
            ctx.send_shared(out, bytes.clone(), class, Reliability::Reliable, Tx::AllOnLink);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn line_run(shards: usize, batching: bool) -> (u64, String, String) {
    let t = crate::topogen::line(16, LinkSpec::default()).topo;
    let mut sim = Sim::new(t, 11);
    sim.set_shards(shards);
    sim.enable_trace(TraceConfig::default());
    for i in 0..16 {
        sim.set_agent(NodeId(i), Box::new(Forward));
    }
    sim.set_fanout_batching(batching);
    // Kick the line from node 0 at t=1ms via a harness timer: Forward
    // has no on_timer, so prime with a Pinger at node 0 instead.
    sim.set_agent(
        NodeId(0),
        Box::new(Pinger {
            payload: b"walk".to_vec(),
            replies: 0,
        }),
    );
    sim.run();
    let stats = format!("{:?}", sim.stats().named_counters().collect::<Vec<_>>());
    let trace = sim.take_trace().expect("ring trace");
    (sim.events_processed(), stats, trace.to_jsonl())
}

#[test]
fn sharded_line_matches_classic_at_every_shard_count() {
    let (ev1, st1, tr1) = line_run(1, true);
    assert!(ev1 > 0);
    for shards in [2, 3, 4] {
        for batching in [true, false] {
            let (ev, st, tr) = line_run(shards, batching);
            assert_eq!(ev, ev1, "events diverge at {shards} shards (batching={batching})");
            assert_eq!(st, st1, "stats diverge at {shards} shards (batching={batching})");
            assert_eq!(tr, tr1, "trace diverges at {shards} shards (batching={batching})");
        }
    }
}

#[test]
fn sharded_run_with_faults_and_timers_matches_classic() {
    let run = |shards: usize| -> (u64, String) {
        let t = crate::topogen::line(12, LinkSpec::default()).topo;
        let mut sim = Sim::new(t, 5);
        sim.set_shards(shards);
        for i in 0..12 {
            sim.set_agent(NodeId(i), Box::new(Forward));
        }
        sim.set_agent(
            NodeId(0),
            Box::new(Pinger {
                payload: b"x".to_vec(),
                replies: 0,
            }),
        );
        // A fault mid-flight plus harness timers on both sides of it.
        sim.schedule_timer_at(NodeId(3), SimTime(2_000), 7);
        sim.schedule_link_change(SimTime(4_000), LinkId(6), false);
        sim.schedule_link_change(SimTime(9_000), LinkId(6), true);
        sim.schedule_timer_at(NodeId(9), SimTime(30_000), 8);
        sim.run_until(SimTime(40_000));
        assert_eq!(sim.now(), SimTime(40_000));
        // The sole shard drains inline: it never meets a window barrier.
        assert_eq!(sim.sync_stats() == (0, 0), shards == 1, "{:?} at {shards} shard(s)", sim.sync_stats());
        (sim.events_processed(), format!("{:?}", sim.stats().named_counters().map(|(k, v)| (k.to_string(), v)).collect::<Vec<_>>()))
    };
    let base = run(1);
    for shards in [2, 4] {
        assert_eq!(run(shards), base, "diverged at {shards} shards");
    }
}

#[test]
#[should_panic(expected = "before any events are scheduled")]
fn set_shards_panics_once_events_are_scheduled() {
    let t = crate::topogen::line(8, LinkSpec::default()).topo;
    let mut sim = Sim::new(t, 1);
    sim.schedule_timer_at(NodeId(2), SimTime(1_000), 0);
    sim.set_shards(2);
}

#[test]
#[should_panic(expected = "enable_trace_sink requires shards=1")]
fn trace_sink_rejects_sharded_sim() {
    let t = crate::topogen::line(8, LinkSpec::default()).topo;
    let mut sim = Sim::new(t, 1);
    sim.set_shards(2);
    sim.enable_trace_sink(
        TraceConfig::default(),
        Box::new(crate::trace::JsonlSink::new(Vec::new())),
    );
}

/// Run `f` inside a dispatch (node `a`'s start-up callback); returns
/// the derivations the run performed.
fn in_dispatch(f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) -> u64 {
    struct Once<F>(Option<F>);
    impl<F: FnOnce(&mut Ctx<'_>) + Send + 'static> Agent for Once<F> {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            (self.0.take().expect("started once"))(ctx)
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let (mut sim, a, _) = two_nodes(1);
    sim.set_agent(a, Box::new(Once(Some(f))));
    sim.start();
    sim.frames_derived()
}

/// A derivation that is a function of `(octets, tag)`: the octets with
/// the first one replaced by the tag.
fn stamp(tag: u32) -> impl Fn(&[u8]) -> Payload {
    move |octets| {
        let mut out = octets.to_vec();
        out[0] = tag as u8;
        out.into()
    }
}

#[test]
fn derive_frame_answers_only_for_the_same_handle_and_tag() {
    let derived = in_dispatch(|ctx| {
        let a = Payload::from(&b"frame"[..]);
        let twin = Payload::from(&b"frame"[..]);
        let first = ctx.derive_frame(&a, 7, stamp(7));
        assert_eq!(&*first, b"\x07rame");
        assert!(Arc::ptr_eq(&first, &ctx.derive_frame(&a, 7, stamp(7))), "same handle, same tag: remembered");
        // Equal octets under another handle are another frame.
        let other = ctx.derive_frame(&twin, 7, stamp(7));
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(first, other);
        // Same handle, another tag.
        let retagged = ctx.derive_frame(&twin, 6, stamp(6));
        assert_eq!(&*retagged, b"\x06rame");
        assert!(Arc::ptr_eq(&retagged, &ctx.derive_frame(&twin, 6, stamp(6))));
        // One entry: `a` was displaced, and derives afresh.
        assert!(!Arc::ptr_eq(&first, &ctx.derive_frame(&a, 7, stamp(7))));
    });
    assert_eq!(derived, 4);
}

#[test]
fn derive_frame_cannot_hit_on_a_recycled_address() {
    // The caller lets go of every source right after deriving from it.
    // Were the memo to remember the bare address, the allocator would
    // hand it to the next same-length frame and the stale entry would
    // answer for it; the memo's own clone keeps the address taken.
    let derived = in_dispatch(|ctx| {
        let mut remembered = std::ptr::null();
        for i in 0..1000u32 {
            let mut octets = [0u8; 64];
            octets[60..].copy_from_slice(&i.to_be_bytes());
            let src = Payload::from(&octets[..]);
            assert_ne!(src.as_ptr(), remembered, "round {i}");
            let out = ctx.derive_frame(&src, 1, stamp(1));
            assert_eq!(out[60..], i.to_be_bytes(), "round {i} was answered from another frame");
            remembered = src.as_ptr();
        }
    });
    assert_eq!(derived, 1000);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "not a function of (octets, tag)")]
fn derive_frame_hit_checks_the_purity_contract_in_debug_builds() {
    in_dispatch(|ctx| {
        let a = Payload::from(&b"frame"[..]);
        ctx.derive_frame(&a, 7, stamp(7));
        ctx.derive_frame(&a, 7, stamp(8));
    });
}
