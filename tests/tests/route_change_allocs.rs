//! What a route-change sweep allocates, pinned without the host clock: a
//! router re-asks RPF for every channel it holds on every route change, and
//! a sweep in which no channel moved allocates nothing; one that re-homes
//! channels allocates the frames it sends and one list of what moved.
//!
//! A binary of its own: the counting allocator (`counting_alloc`) is
//! process-wide.

use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::ecmp::{Count, CountId, EcmpMessage};
use express::packets::{self, EcmpMode};
use netsim::engine::{Agent, Ctx, Reliability, Tx};
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::topology::LinkSpec;
use netsim::{IfaceId, LinkId, NodeId, Payload, Sim, TimerToken, Topology};
use std::sync::atomic::{AtomicU64, Ordering};

mod counting_alloc;
use counting_alloc::ALLOCS;

/// Allocations made inside the last `on_route_change` of a [`Measured`]
/// agent, and how many such calls there were.
static SWEEP_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SWEEPS: AtomicU64 = AtomicU64::new(0);

/// `A`, with what its route-change sweeps allocate measured.
struct Measured<A>(A);

impl<A: Agent> Agent for Measured<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.on_start(ctx)
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        self.0.on_packet(ctx, iface, bytes, class)
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.0.on_timer(ctx, token)
    }
    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        self.0.on_link_change(ctx, iface, up)
    }
    fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
        let before = ALLOCS.load(Ordering::Relaxed);
        self.0.on_route_change(ctx);
        SWEEP_ALLOCS.store(ALLOCS.load(Ordering::Relaxed) - before, Ordering::Relaxed);
        SWEEPS.fetch_add(1, Ordering::Relaxed);
    }
}

/// A host that sends its script of frames and counts the frames it gets.
#[derive(Default)]
struct Host {
    script: Vec<(u64, Vec<u8>)>,
    got: u64,
}

impl Agent for Host {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (token, (at_ms, _)) in self.script.iter().enumerate() {
            ctx.set_timer(netsim::time::SimDuration::from_millis(*at_ms), token as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let frame = &self.script[token as usize].1;
        ctx.send(IfaceId(0), frame, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {
        self.got += 1;
    }
}

const CHANNELS: u32 = 24;

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// `src` behind two hosts, `p1` one hop from the router and `p2` two (their
/// router links are metric 1 and 2), the router's link to `p1` down; a
/// member behind the router joins 24 of `src`'s channels; a stub host hangs
/// off `p1`. Returns the simulation, `[p1, p2]`, the router's link to `p1`
/// and the stub's link.
fn joined() -> (Sim, [NodeId; 2], LinkId, LinkId) {
    let mut topo = Topology::new();
    let (src, p1, p2) = (topo.add_host(), topo.add_host(), topo.add_host());
    let (r, member, stub) = (topo.add_router(), topo.add_host(), topo.add_host());
    topo.connect(member, r, LinkSpec::default()).unwrap();
    topo.connect(src, p1, LinkSpec::default()).unwrap();
    topo.connect(src, p2, LinkSpec::default()).unwrap();
    let near = topo.connect(r, p1, LinkSpec::default()).unwrap();
    topo.connect(r, p2, LinkSpec { metric: 2, ..LinkSpec::default() }).unwrap();
    let stub_link = topo.connect(stub, p1, LinkSpec::default()).unwrap();
    topo.set_link_up(near, false);
    let script = (1..=CHANNELS)
        .map(|e| {
            let join = Count {
                channel: Channel::new(topo.ip(src), e).unwrap(),
                count_id: CountId::SUBSCRIBERS,
                count: 1,
                key: None,
            };
            let frame = packets::ecmp_unicast(topo.ip(member), topo.ip(r), EcmpMode::Tcp, &[EcmpMessage::from(join)]);
            (10 + u64::from(e), frame.to_vec())
        })
        .collect();
    let mut sim = Sim::new(topo, 1);
    let rcfg = RouterConfig { neighbor_probe: None, ..RouterConfig::default() };
    sim.set_agent(r, Box::new(Measured(EcmpRouter::new(rcfg))));
    for h in [src, p1, p2, stub] {
        sim.set_agent(h, Box::<Host>::default());
    }
    sim.set_agent(member, Box::new(Host { script, got: 0 }));
    (sim, [p1, p2], near, stub_link)
}

/// Apply a link change at `ms` and run past it. Returns what the router's
/// sweep allocated and the frames `taps` were handed meanwhile.
fn transition(sim: &mut Sim, taps: [NodeId; 2], ms: u64, link: LinkId, up: bool) -> (u64, u64) {
    let got = |sim: &mut Sim| taps.map(|h| sim.agent_as::<Host>(h).unwrap().got).iter().sum::<u64>();
    let (sweeps, frames) = (SWEEPS.load(Ordering::Relaxed), got(sim));
    sim.schedule_link_change(at_ms(ms), link, up);
    sim.run_until(at_ms(ms + 100));
    assert_eq!(SWEEPS.load(Ordering::Relaxed), sweeps + 1, "one sweep at {ms} ms");
    (SWEEP_ALLOCS.load(Ordering::Relaxed), got(sim) - frames)
}

#[test]
fn a_sweep_allocates_nothing_unless_a_channel_moves_and_then_its_frames_and_one_list() {
    let (mut sim, taps, near, stub) = joined();
    sim.run_until(at_ms(1_000));
    // A stub link elsewhere flaps: every channel is re-asked, none moves.
    assert_eq!(transition(&mut sim, taps, 1_000, stub, false), (0, 0));
    assert_eq!(transition(&mut sim, taps, 1_200, stub, true), (0, 0));
    // The nearer upstream comes up and every channel moves to it: a Count
    // segment to it, one of zero Counts to the old upstream. The first such
    // sweep grows the router's send queue to a re-home's size; it keeps it.
    transition(&mut sim, taps, 2_000, near, true);
    // After the hold-down (2 s): back over the far upstream (the frames to
    // the downed one are sent, and lost) and over the near one again.
    transition(&mut sim, taps, 5_000, near, false);
    let (allocs, frames) = transition(&mut sim, taps, 8_000, near, true);
    assert_eq!(frames, 2, "one segment to each upstream");
    assert_eq!(allocs, frames + 1, "the frames and the list of moved channels");
    // And quiet again.
    assert_eq!(transition(&mut sim, taps, 9_000, stub, false), (0, 0));
}
