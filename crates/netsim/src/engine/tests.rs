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
        }
        struct Sink {
            got: u64,
        }
        impl Agent for Sink {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _b: &Payload, _c: TrafficClass) {
                self.got += 1;
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
fn data_and_control_reach_a_typed_agent_through_its_pool() {
    let (mut sim, a, b) = two_nodes(1);
    struct Both;
    impl Agent for Both {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(IfaceId(0), b"data", TrafficClass::Data, Reliability::Reliable, Tx::AllOnLink);
            ctx.send(IfaceId(0), b"ctl", TrafficClass::Control, Reliability::Reliable, Tx::AllOnLink);
        }
    }
    struct Typed {
        got: Vec<(Vec<u8>, TrafficClass)>,
    }
    impl Agent for Typed {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, bytes: &Payload, class: TrafficClass) {
            self.got.push((bytes.to_vec(), class));
        }
    }
    sim.set_agent(a, Box::new(Both));
    sim.set_agent(b, Box::new(Typed { got: vec![] }));
    sim.run();
    let got = &sim.agent_as::<Typed>(b).unwrap().got;
    assert_eq!(*got, [(b"data".to_vec(), TrafficClass::Data), (b"ctl".to_vec(), TrafficClass::Control)]);
    // Two types, two pools of one row each; node ids are not rows.
    assert_eq!(sim.stores[0].pool_lens(), [1, 1]);
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

/// What every [`Probe`] of a run was told, in the order it was told:
/// `(when, node, what)`.
type HookLog = Arc<std::sync::Mutex<Vec<(SimTime, u32, String)>>>;

/// Logs every callback into the run's shared [`HookLog`] (and mirrors it
/// into the trace as a counter bump). A watching probe asks for topology
/// callbacks twice over in `on_start` and again from inside both hooks —
/// asking is idempotent wherever it happens; a ticking one keeps a 1 ms
/// timer running.
struct Probe {
    log: HookLog,
    watch: bool,
    tick: bool,
}

impl Probe {
    fn boxed(log: &HookLog, watch: bool, tick: bool) -> Box<dyn Agent> {
        Box::new(Probe { log: log.clone(), watch, tick })
    }
    fn note(&self, ctx: &mut Ctx<'_>, what: String) {
        ctx.count("probe.told", 1);
        self.log.lock().unwrap().push((ctx.now(), ctx.node_id().0, what));
    }
    fn rewatch(&self, ctx: &mut Ctx<'_>) {
        if self.watch {
            ctx.watch_topology();
        }
    }
}

impl Agent for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.note(ctx, "start".into());
        self.rewatch(ctx);
        self.rewatch(ctx);
        if self.tick {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.note(ctx, format!("timer {token}"));
        if self.tick {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        self.note(ctx, format!("link {iface:?} up={up}"));
    }
    fn on_topology_change(&mut self, ctx: &mut Ctx<'_>, change: TopologyChange) {
        self.note(ctx, format!("topo {change:?}"));
        self.rewatch(ctx);
    }
    fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
        self.note(ctx, "route".into());
        self.rewatch(ctx);
    }
}

/// A line of `routers` routers (a host at each end: `routers + 2` nodes)
/// with a [`Probe`] on every node, watching on the nodes of `listeners`
/// only.
fn probe_line(routers: usize, listeners: &[u32], log: &HookLog) -> Sim {
    let mut sim = Sim::new(crate::topogen::line(routers, LinkSpec::default()).topo, 9);
    for n in 0..routers as u32 + 2 {
        sim.set_agent(NodeId(n), Probe::boxed(log, listeners.contains(&n), false));
    }
    sim
}

/// The two sweeps of one transition as the log should hold them:
/// `on_topology_change` at every listener, then `on_route_change` at every
/// listener, each in ascending node id.
fn sweeps(at_ms: u64, change: TopologyChange, listeners: &[u32]) -> Vec<(SimTime, u32, String)> {
    let at = SimTime(at_ms * 1_000);
    let topo = listeners.iter().map(|&n| (at, n, format!("topo {change:?}")));
    let route = listeners.iter().map(|&n| (at, n, "route".to_string()));
    topo.chain(route).collect()
}

fn is_sweep(what: &str) -> bool {
    what.starts_with("topo") || what == "route"
}

#[test]
fn topology_transitions_reach_exactly_the_listeners() {
    use TopologyChange::*;
    // Twelve nodes cut [0,3) [3,6) [6,9) [9,12): listeners 2 and 3 sit
    // either side of a shard boundary, and so do the endpoints 5 and 6 of
    // the link that flaps, neither of which listens.
    let run = |bounds: &[u32]| -> (Vec<(SimTime, u32, String)>, String) {
        let log = HookLog::default();
        let mut sim = probe_line(10, &[2, 3, 8], &log);
        sim.set_shard_bounds(bounds);
        sim.enable_trace(TraceConfig::default());
        // 3 comes back listening, 8 does not.
        for (node, watch) in [(3, true), (8, false)] {
            let log = log.clone();
            sim.set_restart_factory(NodeId(node), Box::new(move || Probe::boxed(&log, watch, false)));
        }
        let ms = |t: u64| SimTime(t * 1_000);
        sim.schedule_link_change(ms(10), LinkId(5), false);
        sim.schedule_link_change(ms(20), LinkId(5), true);
        sim.schedule_crash(ms(30), NodeId(3));
        sim.schedule_link_change(ms(35), LinkId(5), false);
        sim.schedule_restart(ms(40), NodeId(3));
        sim.schedule_crash(ms(50), NodeId(8));
        sim.schedule_restart(ms(60), NodeId(8));
        sim.schedule_link_change(ms(70), LinkId(5), true);
        sim.run();
        let log = std::mem::take(&mut *log.lock().unwrap());
        (log, sim.take_trace().expect("ring trace").to_jsonl())
    };
    let (log, trace) = run(&[0, 12]);

    // Each transition: every live listener once per hook, all of
    // `on_topology_change` before any `on_route_change`, ascending id.
    let swept: Vec<_> = log.iter().filter(|(.., what)| is_sweep(what)).cloned().collect();
    let want = [
        sweeps(10, LinkDown(LinkId(5)), &[2, 3, 8]),
        sweeps(20, LinkUp(LinkId(5)), &[2, 3, 8]),
        sweeps(30, NodeDown(NodeId(3)), &[2, 8]),
        sweeps(35, LinkDown(LinkId(5)), &[2, 8]), // 3 is down
        sweeps(40, NodeUp(NodeId(3)), &[2, 3, 8]), // its replacement asked
        sweeps(50, NodeDown(NodeId(8)), &[2, 3]),
        sweeps(60, NodeUp(NodeId(8)), &[2, 3]), // its replacement did not
        sweeps(70, LinkUp(LinkId(5)), &[2, 3]),
    ]
    .concat();
    assert_eq!(swept, want);

    // An endpoint that never asked hears of its own link and nothing else.
    let told = |node: u32| -> Vec<(u64, &str)> {
        let of_node = log.iter().filter(|&&(_, n, _)| n == node);
        of_node.map(|(at, _, what)| (at.0 / 1_000, what.as_str())).collect()
    };
    let want = [
        (0, "start"),
        (10, "link IfaceId(1) up=false"),
        (20, "link IfaceId(1) up=true"),
        (35, "link IfaceId(1) up=false"),
        (70, "link IfaceId(1) up=true"),
    ];
    assert_eq!(told(5), want);
    // The replacement at 8 was started and told of its links coming back;
    // the registration of the agent it replaced is not its own.
    let after_restart: Vec<_> = told(8).into_iter().filter(|&(at, _)| at >= 60).collect();
    assert_eq!(after_restart, [(60, "start"), (60, "link IfaceId(0) up=true"), (60, "link IfaceId(1) up=true")]);

    for bounds in [&[0, 6, 12][..], &[0, 3, 6, 9, 12]] {
        let (sharded_log, sharded_trace) = run(bounds);
        assert_eq!(sharded_log, log, "hook order diverges at bounds {bounds:?}");
        assert_eq!(sharded_trace, trace, "trace diverges at bounds {bounds:?}");
    }
}

#[test]
fn a_transition_costs_two_dispatches_per_listener_at_any_node_count() {
    // Every node logs every hook call, so the count below is the number of
    // dispatches the engine made — not the number that did something.
    for routers in [8, 9_998] {
        let log = HookLog::default();
        let mut sim = probe_line(routers, &[1, 4, 6], &log);
        sim.schedule_link_change(SimTime(10_000), LinkId(2), false);
        sim.schedule_link_change(SimTime(20_000), LinkId(2), true);
        sim.run();
        let dispatched = log.lock().unwrap().iter().filter(|(.., what)| is_sweep(what)).count();
        assert_eq!(dispatched, 2 * (2 * 3), "{} nodes", routers + 2);
    }
}

#[test]
fn a_replaced_agent_inherits_neither_timers_nor_registration() {
    let log = HookLog::default();
    // Node 1 starts out listening, with a 1 ms timer chain running.
    let mut sim = probe_line(4, &[], &log);
    sim.set_agent(NodeId(1), Probe::boxed(&log, true, true));
    sim.run_until(SimTime(5_500));
    let told_since = |from: usize| -> Vec<(u64, String)> {
        let log = log.lock().unwrap();
        let of_node = log[from..].iter().filter(|&&(_, n, _)| n == 1);
        of_node.map(|(at, _, what)| (at.0, what.clone())).collect()
    };
    assert_eq!(told_since(0).last(), Some(&(5_000, "timer 0".to_string())));

    // Replaced mid-run by an agent that asks for nothing: the old chain's
    // 6 ms timer must not fire into it, and the flap of its own link
    // reaches it as a link change only. A harness timer belongs to the
    // process it was scheduled for: the one set before the replacement is
    // stranded with the old agent's own, the one set after it arrives.
    sim.schedule_timer_at(NodeId(1), SimTime(7_000), 9);
    let mark = log.lock().unwrap().len();
    sim.set_agent(NodeId(1), Probe::boxed(&log, false, false));
    sim.schedule_timer_at(NodeId(1), SimTime(7_500), 10);
    sim.schedule_link_change(SimTime(8_000), LinkId(0), false);
    sim.run_until(SimTime(9_000));
    let want = [
        (5_500, "start".to_string()),
        (7_500, "timer 10".to_string()),
        (8_000, "link IfaceId(0) up=false".to_string()),
    ];
    assert_eq!(told_since(mark), want);

    // A replacement that asks is heard — on its own registration.
    let mark = log.lock().unwrap().len();
    sim.set_agent(NodeId(1), Probe::boxed(&log, true, false));
    sim.schedule_link_change(SimTime(10_000), LinkId(0), true);
    sim.run_until(SimTime(11_000));
    let want = [
        (9_000, "start".to_string()),
        (10_000, "link IfaceId(0) up=true".to_string()),
        (10_000, format!("topo {:?}", TopologyChange::LinkUp(LinkId(0)))),
        (10_000, "route".to_string()),
    ];
    assert_eq!(told_since(mark), want);

    // The same rule across a crash: a harness timer set while the node is
    // down was set for the dead process, and does not reach the agent the
    // restart installs, even when it is due after the restart.
    let mark = log.lock().unwrap().len();
    let factory_log = log.clone();
    sim.set_restart_factory(NodeId(1), Box::new(move || Probe::boxed(&factory_log, false, false)));
    sim.schedule_crash(SimTime(12_000), NodeId(1));
    sim.schedule_restart(SimTime(14_000), NodeId(1));
    sim.run_until(SimTime(13_000));
    sim.schedule_timer_at(NodeId(1), SimTime(16_000), 11);
    sim.run_until(SimTime(17_000));
    sim.schedule_timer_at(NodeId(1), SimTime(18_000), 12);
    sim.run_until(SimTime(19_000));
    let want = [
        (14_000, "start".to_string()),
        (14_000, "link IfaceId(0) up=true".to_string()),
        (14_000, "link IfaceId(1) up=true".to_string()),
        (18_000, "timer 12".to_string()),
    ];
    assert_eq!(told_since(mark), want);
}

/// Draws three values from its node's stream on each timer.
#[derive(Default)]
struct Dice {
    rolled: Vec<u64>,
}

impl Agent for Dice {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        for _ in 0..3 {
            let v = ctx.rng().next_u64();
            self.rolled.push(v);
        }
    }
}

#[test]
fn a_node_draws_its_own_seeded_stream_whenever_it_first_draws() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    const SEED: u64 = 0xD1CE;
    const ROUTERS: usize = 9;
    let stream = |node: NodeId, draws: usize| -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(world::node_seed(SEED, node.0));
        (0..draws).map(|_| rng.next_u64()).collect()
    };
    for shards in [1, 2, 4] {
        let g = crate::topogen::line(ROUTERS, LinkSpec::default());
        let n = g.topo.node_count() as u32;
        let mut sim = Sim::new(g.topo, SEED);
        sim.set_shards(shards);
        assert_eq!(sim.shard_count(), shards);
        for i in 0..n {
            sim.set_agent(NodeId(i), Box::<Dice>::default());
        }
        // Nodes 0, 1 and N−1 draw at t = 0; node 1 and a mid-line node —
        // in a shard nobody has drawn in yet when there are four — draw
        // again or for the first time mid-run.
        let (first, last, late) = (NodeId(0), NodeId(n - 1), NodeId(n / 2));
        for node in [first, NodeId(1), last] {
            sim.schedule_timer_at(node, SimTime::ZERO, 0);
        }
        sim.run_until(SimTime(10));
        // A shard nobody drew in holds no streams: the two in the middle.
        assert_eq!(sim.worlds.iter().filter(|w| !w.rngs_seeded()).count(), shards.saturating_sub(2));
        sim.schedule_timer_at(NodeId(1), SimTime(5_000), 0);
        sim.schedule_timer_at(late, SimTime(5_000), 0);
        sim.run();
        for (node, draws) in [(first, 3), (NodeId(1), 6), (last, 3), (late, 3)] {
            assert_eq!(sim.agent_as::<Dice>(node).unwrap().rolled, stream(node, draws), "{node} at {shards} shard(s)");
        }
    }
}

#[test]
fn fanout_send_is_48_bytes_and_rebuilds_what_it_packs() {
    use std::mem::size_of;
    // A singleton fan-out owns its frame and chain; a cohort member keeps
    // only what differs along a run, and the wheel's entry does not grow.
    assert!(size_of::<world::FanoutSend>() <= 48, "{}", size_of::<world::FanoutSend>());
    assert_eq!((size_of::<world::Member>(), size_of::<world::EventKind>()), (16, 56));
    // The extremes of every packed field: the last node of the address plan
    // (its rank, `MAX_NODES`, still fits a packet id with a 40-bit counter
    // at 2^40 − 1), the last interface, both classes, a 48-bit sequence
    // number.
    for (node, iface, class, seq) in [
        (NodeId(0), IfaceId(0), TrafficClass::Data, 0u64),
        (NodeId(Topology::MAX_NODES - 1), IfaceId(31), TrafficClass::Control, (1 << 48) - 1),
        (NodeId(0x00AB_CDEF), IfaceId(17), TrafficClass::Data, 0x1234_5678_9ABC),
    ] {
        let id = world::packet_id(node, 0xFF_FFFF_FFFF);
        let key = (u128::from(node.0) + 1) << 64 | u128::from(seq);
        let m = world::Member::new(iface, class, id, key);
        assert_eq!((m.node(), m.iface(), m.class(), m.key(), m.id), (node, iface, class, key, id));
    }
}

/// The most 64 B cache lines a `span`-byte stretch of a pool row may cross,
/// over every row of a pool chunk (`stride` bytes apart) and every 8-byte
/// alignment of the chunk.
fn lines_crossed(span: usize, stride: usize) -> usize {
    let starts = (0..64).step_by(8).flat_map(|base| (0..64).map(move |row| base + row * stride));
    starts.map(|s| (s + span - 1) / 64 - s / 64 + 1).max().expect("some start")
}

/// The bytes of per-node and per-link table rows — the agent's pool row
/// included — that forwarding one packet over one router-to-router hop
/// indexes: what the sending router's transmit reads and writes, then what
/// the expansion and delivery at the receiving router do. Each row is a
/// cache line the hop may miss on, so their sum is the host-independent
/// form of "cache lines touched per delivery" (docs/INTERNALS.md §8 has the
/// table with the sizes before).
#[test]
fn a_forwarding_hop_indexes_under_190_bytes_of_rows() {
    use std::mem::size_of;
    /// `express::router::tests::router_size_is_pinned`'s bound: the agent of
    /// a forwarding hop, and its pool row — `Option` adds no byte to it.
    const AGENT: usize = 72;
    /// The same test's forwarding plane: the part of the row a forward of
    /// channel data reads, one contiguous span.
    const HOT: usize = 56;
    let (node_id, iface_id, link_id) = (size_of::<NodeId>(), size_of::<IfaceId>(), size_of::<LinkId>());
    let iface_range = 8; // (start: u32, len: u8, cap: u8), padded
    let link_of = iface_range + link_id; // topology: the node's range, its slab slot
    let transmit = link_of
        + size_of::<bool>()             // link state
        + size_of::<u32>()              // interned spec index (the spec itself is shared)
        + size_of::<[u64; 2]>()         // stats: the link's data pair
        + 2 * size_of::<u64>()          // the sender's packet-id and key counters
        + size_of::<world::Member>();   // the cohort member (single plan: no link mask; its run is shared)
    let delivery = link_of
        + size_of::<bool>()             // link state, re-read at expansion
        + 2 * size_of::<u32>()          // the link's endpoint range
        + 2 * (node_id + iface_id).next_multiple_of(4) // its two endpoints
        + size_of::<bool>()             // receiver's down flag
        + size_of::<store::Slot>()      // receiver's slot: pool and row
        + size_of::<Box<[u8; 1]>>()     // the pool's pointer to the row's chunk
        + AGENT;                        // the row
    assert_eq!((size_of::<store::Slot>(), size_of::<world::Member>()), (4, 16));
    assert!(transmit + delivery < 190, "{transmit} + {delivery}");
    // The row's hot span crosses at most two lines wherever the row sits,
    // and so does the whole row.
    assert_eq!((lines_crossed(HOT, AGENT), lines_crossed(AGENT, AGENT)), (2, 2));
}

/// Forwards everything to the agent it wraps, `as_any_mut` included — the
/// shape of a tracing or tampering wrapper.
struct Wrap<A>(A);

impl<A: Agent> Agent for Wrap<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.on_start(ctx)
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        self.0.on_packet(ctx, iface, bytes, class)
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.0.on_timer(ctx, token)
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

#[test]
fn a_thousand_restarts_and_replacements_reuse_their_rows() {
    let log = HookLog::default();
    let mut sim = probe_line(3, &[2], &log);
    let factory_log = log.clone();
    sim.set_restart_factory(NodeId(2), Box::new(move || Probe::boxed(&factory_log, true, false)));
    sim.start();
    let mut first = None;
    for cycle in 0..1_000u64 {
        let t = SimTime(cycle * 10_000);
        sim.schedule_crash(t + SimDuration::from_millis(1), NodeId(2));
        sim.schedule_restart(t + SimDuration::from_millis(2), NodeId(2));
        sim.run_until(t + SimDuration::from_millis(5));
        // Mid-run replacement of a typed agent by one of its own type.
        sim.set_agent(NodeId(3), Box::new(Echo { seen: vec![], reply: false }));
        let lens = sim.stores[0].pool_lens();
        assert_eq!(*first.get_or_insert_with(|| lens.clone()), lens, "cycle {cycle}");
    }
    // Probes (boxed, before the start and from the factory) and the one Echo.
    assert_eq!(first.unwrap(), [5, 1]);
    assert!(sim.node_is_up(NodeId(2)));
    let told = log.lock().unwrap().iter().filter(|&&(_, n, ref what)| n == 2 && what == "start").count();
    assert_eq!(told, 1 + 1_000, "the first start and one per restart");
}

#[test]
fn agent_as_finds_the_agent_behind_a_wrapper_and_a_box() {
    let (mut sim, a, b) = two_nodes(1);
    sim.set_agent(a, Box::new(Wrap(Pinger { payload: b"in".to_vec(), replies: 0 })));
    let boxed: Box<dyn Agent> = Box::new(Echo { seen: vec![], reply: true });
    sim.set_agent(b, boxed);
    sim.run();
    // The wrapper has its own pool; downcasts go through its `as_any_mut`.
    assert_eq!(sim.agent_as::<Pinger>(a).unwrap().replies, 1);
    assert!(sim.agent_as::<Wrap<Pinger>>(a).is_none());
    assert_eq!(sim.agent_as::<Echo>(b).unwrap().seen.len(), 1);
    assert_eq!(sim.stores[0].pool_lens(), [1, 1]);
}

#[test]
fn agents_installed_before_partitioning_run_as_in_one_shard() {
    // Typed, wrapped and boxed agents, then the partition.
    let run = |partition: &dyn Fn(&mut Sim)| -> (u64, String, String) {
        let t = crate::topogen::line(16, LinkSpec::default()).topo;
        let mut sim = Sim::new(t, 11);
        for i in 0..16 {
            match i % 3 {
                0 => sim.set_agent(NodeId(i), Box::new(Forward)),
                1 => sim.set_agent(NodeId(i), Box::new(Wrap(Forward))),
                _ => sim.set_agent(NodeId(i), Box::new(Forward) as Box<dyn Agent>),
            }
        }
        sim.set_agent(NodeId(0), Box::new(Pinger { payload: b"walk".to_vec(), replies: 0 }));
        partition(&mut sim);
        sim.enable_trace(TraceConfig::default());
        sim.schedule_link_change(SimTime(3_000), LinkId(9), false);
        sim.schedule_link_change(SimTime(4_000), LinkId(9), true);
        sim.run();
        let stats = format!("{:?}", sim.stats().named_counters().collect::<Vec<_>>());
        let trace = sim.take_trace().expect("ring trace").to_jsonl();
        (sim.events_processed(), stats, trace)
    };
    let one = run(&|_| {});
    assert!(one.0 > 0);
    assert_eq!(run(&|sim| sim.set_shards(2)), one, "set_shards(2)");
    assert_eq!(run(&|sim| sim.set_shard_bounds(&[0, 5, 11, 18])), one, "set_shard_bounds");
    let mut sim = Sim::new(crate::topogen::line(16, LinkSpec::default()).topo, 11);
    sim.set_agent(NodeId(3), Box::new(Forward));
    sim.set_shard_bounds(&[0, 5, 11, 18]);
    assert_eq!((sim.stores[0].pool_lens(), sim.stores[1].pool_lens()), (vec![1], vec![]));
}

#[test]
fn a_tombstoned_agents_timer_never_fires_into_its_rows_next_occupant() {
    /// Arms token 7 for 5 ms out when `arm`; logs every timer it hears.
    struct Ticker {
        arm: bool,
        log: HookLog,
    }
    impl Agent for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.arm {
                ctx.set_timer(SimDuration::from_millis(5), 7);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.log.lock().unwrap().push((ctx.now(), ctx.node_id().0, format!("timer {token}")));
        }
    }
    let ticker = |log: &HookLog, arm| Box::new(Ticker { arm, log: log.clone() });
    for shards in [1, 2] {
        let log = HookLog::default();
        let (mut sim, a, b) = two_nodes(1);
        sim.set_shards(shards);
        sim.set_agent(a, ticker(&log, true));
        sim.run_until(SimTime(1_000));
        // `a`'s row is tombstoned; at one shard `b`'s newcomer takes it
        // over, then `a` gets a row of its own again.
        sim.set_agent(a, Box::new(NullAgent));
        sim.set_agent(b, ticker(&log, false));
        sim.set_agent(a, ticker(&log, false));
        if shards == 1 {
            assert_eq!(sim.stores[0].pool_lens(), [2]);
        }
        sim.run();
        assert_eq!(*log.lock().unwrap(), [], "{shards} shard(s)");
        // The timer is still in the queue and runs to nothing.
        assert_eq!(sim.now(), SimTime(5_000));
    }
}
