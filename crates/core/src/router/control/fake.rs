//! A [`ControlEnv`] with no simulator behind it — an explicit clock, a hop
//! table, a recorded outbox and a timer list — and a rig that drives the
//! handlers through it one dispatch at a time, as the router does.

use super::*;
use crate::packets::Classified;
use express_wire::ipv4::Ipv4Repr;
use netsim::stats::Stats;
use netsim::NodeKind;

/// The world of one router, written down.
pub(super) struct FakeEnv {
    pub(super) now: SimTime,
    me: Ipv4Addr,
    /// Unicast routes by destination: the next hop's interface and address.
    pub(super) hops: BTreeMap<Ipv4Addr, (IfaceId, Ipv4Addr)>,
    /// The nodes `resolve` knows, by address.
    nodes: BTreeMap<Ipv4Addr, (NodeId, NodeKind)>,
    /// Frames sent, in order.
    outbox: Vec<(IfaceId, Payload, Reliability, Tx)>,
    /// Timers armed and not yet fired: (due, token).
    timers: Vec<(SimTime, u64)>,
    pub(super) stats: Stats,
}

impl ControlEnv for FakeEnv {
    fn now(&self) -> SimTime {
        self.now
    }
    fn my_ip(&self) -> Ipv4Addr {
        self.me
    }
    fn resolve(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.nodes.get(&ip).map(|&(n, _)| n)
    }
    fn next_hop(&mut self, ip: Ipv4Addr) -> Option<(IfaceId, Ipv4Addr)> {
        self.hops.get(&ip).copied()
    }
    /// Every link point-to-point: every interface in TCP mode.
    fn multi_access(&self, _iface: IfaceId) -> bool {
        false
    }
    fn is_router(&self, ip: Ipv4Addr) -> bool {
        self.nodes.get(&ip).is_some_and(|&(_, k)| k == NodeKind::Router)
    }
    fn link_metric(&self, _iface: IfaceId) -> Option<u32> {
        Some(1)
    }
    fn send_shared(&mut self, iface: IfaceId, frame: Payload, class: TrafficClass, rel: Reliability, tx: Tx) {
        assert_eq!(class, TrafficClass::Control);
        self.outbox.push((iface, frame, rel, tx));
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((self.now + delay, token));
    }
    fn audit_changed(&mut self) {}
    fn count_id(&mut self, id: CounterId, delta: u64) {
        self.stats.count_id(id, delta);
    }
    fn count_channel(&mut self, base: &'static str, channel: Channel, delta: u64) {
        let id = self.stats.channel_counter(base, channel);
        self.stats.count_id(id, delta);
    }
    fn trace(&mut self, _name: &'static str, _build: impl FnOnce(ProtoEvent) -> ProtoEvent) {}
}

/// One frame as its receiver reads it.
#[derive(Debug, PartialEq)]
pub(super) struct Sent {
    pub(super) iface: IfaceId,
    pub(super) to: Ipv4Addr,
    pub(super) rel: Reliability,
    pub(super) messages: Vec<EcmpMessage>,
}

/// A control plane, its FIB and its world, with no router or engine.
pub(super) struct Rig {
    pub(super) env: FakeEnv,
    pub(super) plane: ControlPlane,
    pub(super) fib: Fib,
    cfg: &'static RouterConfig,
    ids: EcmpCounters,
}

impl Rig {
    /// One dispatch: `handle` on the handlers, then the flush that ends
    /// every router callback that ran one.
    pub(super) fn dispatch(&mut self, handle: impl FnOnce(&mut Control<'_>, &mut FakeEnv)) {
        let mut control = self.plane.control(self.cfg, &mut self.fib, self.ids);
        handle(&mut control, &mut self.env);
        control.port.flush(&mut self.env);
    }

    /// Counts from `from` on `iface`, handled in one dispatch — one
    /// arriving batch.
    pub(super) fn counts(&mut self, iface: IfaceId, from: Ipv4Addr, counts: &[Count]) {
        self.dispatch(|c, env| counts.iter().for_each(|&m| c.handle_count(env, iface, from, m)));
    }

    /// Every timer due by `until`, fired in due order (ties in the order
    /// armed), each in a dispatch of its own at its own time.
    pub(super) fn run_timers(&mut self, until: SimTime) {
        while let Some(i) = (0..self.env.timers.len()).filter(|&i| self.env.timers[i].0 <= until).min_by_key(|&i| self.env.timers[i].0) {
            let (due, token) = self.env.timers.remove(i);
            self.env.now = due;
            self.dispatch(|c, env| assert!(c.fire(env, token), "an armed token"));
        }
    }

    /// The frames sent since the last call, decoded.
    pub(super) fn sent(&mut self) -> Vec<Sent> {
        let decode = |(iface, frame, rel, _): (IfaceId, Payload, Reliability, Tx)| {
            let to = Ipv4Repr::parse(&frame).expect("an IPv4 frame").dst;
            let Ok(Classified::Ecmp { from, messages, .. }) = packets::classify(&frame, to) else {
                panic!("not an ECMP frame")
            };
            assert_eq!(from, self.env.me);
            Sent { iface, to, rel, messages: messages.collect() }
        };
        let outbox = std::mem::take(&mut self.env.outbox);
        outbox.into_iter().map(decode).collect()
    }

    /// The record of `channel`, if the plane has one.
    pub(super) fn channel(&self, channel: Channel) -> Option<&ChannelState> {
        self.plane.tables.channels.get(channel_key(channel))
    }
}

/// The router the tests drive.
pub(super) const ME: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Its upstream router toward `SRC`, on interface 0.
pub(super) const UP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Another router, on interface 1.
pub(super) const ALT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// The source host, behind `UP`.
pub(super) const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 9, 1);
/// Two member hosts, on point-to-point interfaces 2 and 3.
pub(super) const M1: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 1);
pub(super) const M2: Ipv4Addr = Ipv4Addr::new(10, 0, 3, 1);

/// `ME` with the default config at time zero, its route to `SRC` through
/// `UP`, and `UP`, `ALT` and the members known.
pub(super) fn rig() -> Rig {
    let mut stats = Stats::new(0);
    let ids = EcmpCounters::intern(|name| stats.counter(name));
    let known = [(UP, NodeKind::Router), (ALT, NodeKind::Router), (M1, NodeKind::Host), (M2, NodeKind::Host)];
    let env = FakeEnv {
        now: SimTime::ZERO,
        me: ME,
        hops: BTreeMap::from([(SRC, (IfaceId(0), UP))]),
        nodes: known.into_iter().enumerate().map(|(n, (ip, kind))| (ip, (NodeId(n as u32 + 1), kind))).collect(),
        outbox: Vec::new(),
        timers: Vec::new(),
        stats,
    };
    Rig { env, plane: ControlPlane::default(), fib: Fib::new(), cfg: RouterConfig::default().shared(), ids }
}

/// Channel `e` of `SRC`.
pub(super) fn chan(e: u32) -> Channel {
    Channel::new(SRC, e).unwrap()
}

/// A `subscriberId` Count.
pub(super) fn tree_count(channel: Channel, count: u64, key: Option<ChannelKey>) -> Count {
    Count { channel, count_id: CountId::SUBSCRIBERS, count, key }
}
