//! The ECMP router: the paper's §3 as a `netsim` agent.
//!
//! One protocol does everything: "ECMP \[is\] a single common management
//! protocol that both maintains the distribution tree and supports
//! source-directed counting and voting ... distribution tree construction
//! for a single source is a restricted case of counting the subscribers in
//! each subtree."
//!
//! The protocol is the `control` submodule, which reaches the world only
//! through its `ControlEnv` seam (implemented here over the engine's `Ctx`):
//!
//! * **Tree maintenance** (§3.2): unsolicited `subscriberId` Counts routed
//!   toward the source by RPF; zero-Count unsubscribe; per-interface
//!   subscriber counts; FIB entry installation/removal.
//! * **Generic counting** (§3.1): per-downstream-neighbor query records,
//!   per-hop timeout decrement, partial replies on deadline, summation,
//!   router-initiated network-layer counts (e.g. links in a domain).
//! * **Authentication** (§3.2/§3.5): keys passed upstream for validation,
//!   `CountResponse` validation/denial, key caching for local decisions.
//! * **Neighbor modes** (§3.2): TCP mode (reliable, no per-channel refresh,
//!   counts subtracted on connection failure) vs UDP mode (periodic
//!   multicast queries, no report suppression, entry expiry).
//! * **Topology changes** (§3.2): re-homing a channel to a new upstream
//!   with hysteresis against route oscillation.
//! * **Proactive counting** (§6): curve-driven upstream updates.
//!
//! The `forward` submodule is the forwarding plane (§3.4): exact (S,E)
//! match, incoming-interface check, count-and-drop on miss, subcast
//! decapsulation (§2.1), plus plain unicast forwarding for the substrate.

use crate::fib::Fib;
use crate::packets::{self, Classified, EcmpMode};
use crate::table::{channel_key, Table};
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{Batch, CountId, EcmpMessage};
use express_wire::fib::FibEntry;
use netsim::audit::{AuditNodeState, AuditRoute};
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::topology::Topology;
use netsim::stats::{CounterId, TrafficClass};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::ProtoEvent;
use netsim::NodeKind;
use std::sync::{Mutex, PoisonError};

mod control;
mod forward;
use control::{general_query, iface_mode, ChannelState, Control, ControlEnv, ControlPlane, EcmpCounters, TimerPurpose};
use forward::ForwardingPlane;

/// Tunables for an ECMP router.
///
/// A router holds a pointer to a shared copy, not the config itself: every
/// router built from equal configs points at the same one (see
/// [`EcmpRouter::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Period of the UDP-mode general query on multi-access interfaces
    /// (the IGMP-query analogue of §3.2).
    pub udp_refresh: SimDuration,
    /// Damping delay before re-homing a channel after a route change
    /// ("hysteresis is applied to prevent route oscillation", §3.2).
    pub hysteresis: SimDuration,
    /// Force every interface into one mode (tests/ablations); `None`
    /// selects per-interface: multi-access ⇒ UDP (edge), point-to-point ⇒
    /// TCP (core), the deployment §3.2 describes.
    pub mode_override: Option<EcmpMode>,
    /// Period of the §3.3 neighbor-discovery probe per interface; doubles
    /// as the RTT-measurement source for the per-hop CountQuery timeout
    /// decrement. `None` disables probing.
    pub neighbor_probe: Option<SimDuration>,
    /// Cache validated channel keys (§3.2). Disabling forces every
    /// authenticated join to travel to the source for validation — the
    /// ablation quantifying what the cache buys.
    pub cache_keys: bool,
    /// Send an immediate ALL_CHANNELS general query on every UDP-mode
    /// interface at start, instead of waiting one full
    /// [`udp_refresh`](Self::udp_refresh) interval. A router restarting
    /// after a crash uses this to re-aggregate edge subscriptions within a
    /// round-trip rather than a refresh interval (the IGMP startup-query
    /// analogue). Off by default so steady-state control-traffic ledgers
    /// (§5.3 experiments) are unchanged.
    pub boot_query: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            udp_refresh: SimDuration::from_secs(60),
            hysteresis: SimDuration::from_secs(2),
            mode_override: None,
            neighbor_probe: Some(SimDuration::from_secs(30)),
            cache_keys: true,
            boot_query: false,
        }
    }
}

impl RouterConfig {
    /// The process's one copy of this config: made (and kept for the rest
    /// of the process) the first time a router is built from it, shared by
    /// every router built from an equal one since. A process builds a
    /// handful of distinct configs, so the copies kept are a few hundred
    /// bytes, and a lookup compares against a handful.
    fn shared(self) -> &'static RouterConfig {
        static SHARED: Mutex<Vec<&'static RouterConfig>> = Mutex::new(Vec::new());
        let mut shared = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&cfg) = shared.iter().find(|&&cfg| *cfg == self) {
            return cfg;
        }
        let cfg: &'static RouterConfig = Box::leak(Box::new(self));
        shared.push(cfg);
        cfg
    }
}

/// Counters the router exposes for experiments (beyond the global named
/// counters it also bumps via `ctx.count`), as read by
/// [`EcmpRouter::counters`]. The three `data_*` fields are read off the
/// forwarding plane (its FIB's counters, plus the subcast forwards), the
/// rest are kept by the control plane — zero while the router has none.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterCounters {
    /// Subscribe events processed (0→n or new-neighbor Counts).
    pub subscribes: u64,
    /// Unsubscribe events processed (zero Counts / expiries).
    pub unsubscribes: u64,
    /// Count messages received.
    pub counts_rx: u64,
    /// Count messages sent.
    pub counts_tx: u64,
    /// Data packets forwarded.
    pub data_forwarded: u64,
    /// Data packets dropped with no FIB entry (§3.4 count-and-drop).
    pub data_no_entry: u64,
    /// Data packets dropped by the incoming-interface check.
    pub data_rpf_drop: u64,
    /// Subscriptions rejected for bad/missing keys.
    pub auth_rejects: u64,
    /// Channel re-homings applied after topology changes.
    pub rehomes: u64,
}

/// The ECMP router agent.
///
/// Two planes, as in the paper's cost model: the forwarding plane (§5.1's
/// fast-path memory) is all a data packet reads or writes and is held
/// inline; the control plane (§5.2's management state) is allocated by the
/// first ECMP message, armed timer or locally initiated count, and until
/// then stands for an empty one — a router given only static routes never
/// has it.
pub struct EcmpRouter {
    fwd: ForwardingPlane,
    /// `None` ≡ empty: no channel, pending count, timer or neighbor, no
    /// count result, every control-side counter zero.
    ctl: Option<Box<ControlPlane>>,
    /// Last: a forwarded packet reads `fwd` and never this. Shared with
    /// every router built from an equal config (`RouterConfig::shared`).
    cfg: &'static RouterConfig,
}

impl EcmpRouter {
    /// A router with the given configuration.
    pub fn new(cfg: RouterConfig) -> Self {
        EcmpRouter {
            fwd: ForwardingPlane::default(),
            ctl: None,
            cfg: cfg.shared(),
        }
    }

    /// The experiment counters as they stand.
    pub fn counters(&self) -> RouterCounters {
        let fib = self.fwd.fib.counters();
        RouterCounters {
            data_forwarded: fib.forwarded + self.fwd.subcast_forwarded(),
            data_no_entry: fib.no_entry_drops,
            data_rpf_drop: fib.rpf_drops,
            ..self.ctl.as_ref().map_or_else(RouterCounters::default, |c| c.counters)
        }
    }

    /// Results of the counts this router initiated itself (§3.1), oldest
    /// first: see [`schedule_local_count`](Self::schedule_local_count).
    pub fn local_results(&self) -> &[(SimTime, Channel, CountId, u64)] {
        self.ctl.as_ref().map_or(&[], |c| &c.local_results)
    }

    /// Read-only access to the FIB (memory accounting, experiments).
    pub fn fib(&self) -> &Fib {
        &self.fwd.fib
    }

    /// Install a forwarding entry directly, bypassing the join protocol —
    /// the administrative "static route" hook scale harnesses use to stand
    /// up a multi-million-node distribution tree without running one
    /// Count exchange per router (the §3.4 fast path is exercised either
    /// way; only tree *construction* is short-circuited). Entries installed
    /// this way carry no channel soft state: they never expire, re-home, or
    /// propagate counts, exactly like a manually configured route.
    pub fn install_static_route(&mut self, entry: FibEntry) {
        self.fwd.fib.install(entry);
    }

    /// The per-channel protocol state, if any was ever created.
    fn channels(&self) -> Option<&Table<ChannelState>> {
        self.ctl.as_ref().map(|c| &c.tables.channels)
    }

    fn channel(&self, channel: Channel) -> Option<&ChannelState> {
        self.channels()?.get(channel_key(channel))
    }

    /// Number of channels with protocol state.
    pub fn channel_count(&self) -> usize {
        self.channels().map_or(0, Table::len)
    }

    /// Total management-level state in bytes across channels (§5.2).
    pub fn mgmt_state_bytes(&self) -> usize {
        self.channels()
            .map_or(0, |t| t.iter().map(ChannelState::mgmt_state_bytes).sum())
    }

    /// Does this router have tree state for `channel`?
    pub fn on_tree(&self, channel: Channel) -> bool {
        self.channel(channel).is_some()
    }

    /// The upstream neighbor currently used for `channel`.
    pub fn upstream_of(&self, channel: Channel) -> Option<Ipv4Addr> {
        self.channel(channel).and_then(|c| c.upstream.map(|(_, n)| n))
    }

    /// Diagnostic view of a channel's downstream entries:
    /// `(neighbor, subtree count, validated)`, sorted by neighbor.
    pub fn downstream_of(&self, channel: Channel) -> Vec<(Ipv4Addr, u64, bool)> {
        self.channel(channel).map_or_else(Vec::new, |s| {
            s.downstream.iter().map(|e| (e.addr, e.count, e.validated)).collect()
        })
    }

    /// EXPRESS neighbors discovered via the §3.3 probes:
    /// `(address, interface)` pairs, sorted by address.
    pub fn discovered_neighbors(&self) -> Vec<(Ipv4Addr, IfaceId)> {
        self.ctl.as_ref().map_or_else(Vec::new, |c| {
            c.tables.neighbors.iter().map(|(a, (i, _))| (*a, *i)).collect()
        })
    }

    /// The smoothed RTT estimate toward `neighbor`, if any probe has been
    /// answered (feeds the §3.1 per-hop timeout decrement).
    pub fn rtt_to(&self, neighbor: Ipv4Addr) -> Option<SimDuration> {
        let rtt = &self.ctl.as_ref()?.tables.rtt;
        rtt.get(&neighbor).filter(|e| e.has_sample()).map(|e| e.rtt())
    }

    /// Schedule a router-initiated count (§3.1: "ECMP also allows any
    /// router on the channel distribution tree to initiate a query without
    /// source cooperation") on `node` at absolute time `at` from outside
    /// the simulation — e.g. a transit-domain ingress router counting the
    /// links a channel uses "to make inter-domain settlements". The result
    /// lands in [`local_results`](Self::local_results).
    pub fn schedule_local_count(
        sim: &mut netsim::Sim,
        node: netsim::NodeId,
        at: SimTime,
        channel: Channel,
        count_id: CountId,
        timeout: SimDuration,
    ) {
        let router = sim.agent_as::<EcmpRouter>(node).expect("node agent is not an EcmpRouter");
        let token = router.ctl.get_or_insert_with(Box::default).timers.token(TimerPurpose::LocalCount {
            channel,
            count_id,
            timeout,
        });
        sim.schedule_timer_at(node, at, token);
    }

    /// The control plane as it stands: `None` while nothing has needed one,
    /// which every caller treats as an empty one.
    ///
    /// The first dispatch to find one — allocated just now by
    /// [`control`](Self::control), or earlier from outside by
    /// [`schedule_local_count`](Self::schedule_local_count) — registers the
    /// router for topology callbacks: from here on there may be channels to
    /// re-home. Not in `on_start`: a router without a control plane has
    /// nothing [`on_route_change`](Agent::on_route_change) could
    /// re-evaluate, and on a static-route tree that is every router. `ids`
    /// going `None` → `Some` is the once-per-agent mark of that dispatch, so
    /// the registration lives and moves with the counter interning
    /// (`static_route_router_holds_no_control_plane_until_the_first_count`
    /// pins both directions: not from `on_start`, and from the first Count).
    fn control_if_any(&mut self, ctx: &mut Ctx<'_>) -> Option<Control<'_>> {
        let ctl = self.ctl.as_deref_mut()?;
        let ids = *ctl.ids.get_or_insert_with(|| {
            ctx.watch_topology();
            EcmpCounters::intern(|name| ctx.counter(name))
        });
        Some(ctl.control(self.cfg, &mut self.fwd.fib, ids))
    }

    /// The control plane, allocated here if this is the first use of it.
    fn control(&mut self, ctx: &mut Ctx<'_>) -> Control<'_> {
        self.ctl.get_or_insert_with(Box::default);
        self.control_if_any(ctx).expect("allocated above")
    }

    /// A batch of ECMP messages from `from`. Kept out of line: `on_packet`
    /// is the per-delivery fast path, and its data arms should not carry
    /// the control plane's stack frame and prologue.
    #[inline(never)]
    fn on_ecmp(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, messages: Batch<'_>) {
        let mut control = self.control(ctx);
        for m in messages {
            match m {
                EcmpMessage::CountQuery(q) => control.handle_query(ctx, iface, from, q),
                EcmpMessage::Count(c) => control.handle_count(ctx, iface, from, c),
                EcmpMessage::CountResponse(r) => control.handle_response(ctx, r),
            }
        }
        control.port.flush(ctx);
    }
}

/// The control plane's world in a simulation: each method is the engine
/// call of the same name, or the reads it stands for.
impl ControlEnv for Ctx<'_> {
    fn now(&self) -> SimTime { Ctx::now(self) }
    fn my_ip(&self) -> Ipv4Addr { Ctx::my_ip(self) }
    fn resolve(&self, ip: Ipv4Addr) -> Option<NodeId> { Ctx::resolve(self, ip) }
    fn next_hop(&mut self, ip: Ipv4Addr) -> Option<(IfaceId, Ipv4Addr)> {
        self.next_hop_ip(ip).map(|h| (h.iface, self.ip_of(h.next)))
    }
    fn multi_access(&self, iface: IfaceId) -> bool {
        let topo = self.topology();
        matches!(topo.link_of(self.node_id(), iface), Ok(link) if topo.link_endpoint_count(link) > 2)
    }
    fn is_router(&self, ip: Ipv4Addr) -> bool {
        self.resolve(ip).is_some_and(|n| self.topology().kind(n) == NodeKind::Router)
    }
    fn link_metric(&self, iface: IfaceId) -> Option<u32> {
        let link = self.topology().link_of(self.node_id(), iface).ok()?;
        Some(self.topology().link_spec(link).metric)
    }
    fn send_shared(&mut self, iface: IfaceId, frame: Payload, class: TrafficClass, rel: Reliability, tx: Tx) {
        Ctx::send_shared(self, iface, frame, class, rel, tx);
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) { Ctx::set_timer(self, delay, token) }
    fn audit_changed(&mut self) { Ctx::audit_changed(self) }
    fn count_id(&mut self, id: CounterId, delta: u64) { Ctx::count_id(self, id, delta) }
    fn count_channel(&mut self, base: &'static str, channel: Channel, delta: u64) {
        Ctx::count_channel(self, base, channel, delta)
    }
    fn trace(&mut self, name: &'static str, build: impl FnOnce(ProtoEvent) -> ProtoEvent) {
        Ctx::trace(self, name, build)
    }
}

impl Agent for EcmpRouter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.fwd.intern_counters(ctx);
        let cfg = self.cfg;
        for i in 0..ctx.iface_count() {
            let iface = IfaceId(i as u8);
            // Arm the periodic UDP-mode refresh on every multi-access interface.
            if iface_mode(cfg, ctx, iface) == EcmpMode::Udp {
                let mut control = self.control(ctx);
                control.port.timers.arm(ctx, cfg.udp_refresh, TimerPurpose::UdpRefresh { iface });
                // Startup query: a router restarting after a crash solicits
                // Counts immediately so edge subscriptions re-aggregate
                // within a round-trip instead of a refresh interval.
                if cfg.boot_query {
                    control.port.send_multicast(ctx, iface, general_query(CountId::ALL_CHANNELS, 1_000));
                    ctx.count_id(control.port.ids.boot_query, 1);
                }
            }
            // §3.3 neighbor discovery on every interface. Stagger the first
            // probe so a cold-started network doesn't thunder.
            if let Some(interval) = cfg.neighbor_probe {
                let first = SimDuration::from_micros(
                    interval.micros() / 10 + (u64::from(iface.0) + 1) * 1_000,
                );
                self.control(ctx).port.timers.arm(ctx, first, TimerPurpose::NeighborProbe { iface });
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        let me = ctx.my_ip();
        // Only the ECMP arm can queue control messages, so only it flushes.
        match packets::classify(bytes, me) {
            Ok(Classified::ChannelData { channel, header }) => {
                self.fwd.forward_data(ctx, iface, bytes, channel, header);
            }
            Ok(Classified::Ecmp { from, messages, .. }) => self.on_ecmp(ctx, iface, from, messages),
            Ok(Classified::Encapsulated { outer, inner }) => {
                self.fwd.forward_subcast(ctx, outer, inner);
            }
            Ok(Classified::Other { header }) => {
                if header.dst != me {
                    self.fwd.forward_unicast(ctx, bytes, header, class);
                }
            }
            Err(_) => ctx.count("express.parse_error", 1),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(mut control) = self.control_if_any(ctx) else { return };
        if control.fire(ctx, token) {
            control.port.flush(ctx);
        }
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        let Some(mut control) = self.control_if_any(ctx) else { return };
        if up {
            control.readvertise_on(ctx, iface);
        } else {
            control.prune_behind(ctx, iface);
        }
        control.port.flush(ctx);
    }

    fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
        let Some(mut control) = self.control_if_any(ctx) else { return };
        control.reevaluate_upstreams(ctx);
        control.port.flush(ctx);
    }

    fn audit_state(&self, _topo: &Topology, _node: NodeId) -> Option<AuditNodeState> {
        let route = |st: &ChannelState| AuditRoute {
            channel: netsim::audit::label(st.channel),
            oif_mask: u64::from(st.oif_mask()),
            upstream_iface: st.upstream.map(|(iface, _)| iface),
            advertised: Some(st.advertised),
            downstream_sum: Some(st.aggregate()),
        };
        let mut routes: Vec<AuditRoute> = self
            .channels()
            .map_or_else(Vec::new, |t| t.iter().map(route).collect());
        routes.sort_by(|a, b| a.channel.cmp(&b.channel));
        Some(AuditNodeState { routes, ..Default::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use express_wire::ecmp::{Count, CountResponse, ResponseStatus};
    use netsim::{LinkId, LinkSpec, Sim};

    /// A host that sends each `(at ms, class, packet)` of its script out
    /// interface 0 and counts what it receives.
    #[derive(Default)]
    struct Scripted {
        sends: Vec<(u64, TrafficClass, Vec<u8>)>,
        got: u64,
    }

    impl Agent for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (token, (at_ms, ..)) in self.sends.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(*at_ms), token as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let (_, class, pkt) = &self.sends[token as usize];
            ctx.send(IfaceId(0), pkt, *class, Reliability::Datagram, Tx::AllOnLink);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {
            self.got += 1;
        }
    }

    fn quiet_cfg() -> RouterConfig {
        RouterConfig {
            neighbor_probe: None,
            ..RouterConfig::default()
        }
    }

    /// `src — router — sink` over point-to-point links (router interface 0
    /// faces `src`), the router holding one static route for `src`'s
    /// channel 1 toward `sink`; the hosts' scripts start empty. Returns
    /// `(sim, [src, router, sink], channel)`.
    fn static_route_line() -> (Sim, [NodeId; 3], Channel, HookLog) {
        let mut topo = Topology::new();
        let (src, r, sink) = (topo.add_host(), topo.add_router(), topo.add_host());
        topo.connect(src, r, LinkSpec::default()).unwrap();
        topo.connect(r, sink, LinkSpec::default()).unwrap();
        let chan = Channel::new(topo.ip(src), 1).unwrap();
        let mut sim = Sim::new(topo, 1);
        let mut router = EcmpRouter::new(quiet_cfg());
        router.install_static_route(FibEntry::new(chan, 0, 0b10).unwrap());
        let hooks = HookLog::default();
        sim.set_agent(r, hooked(router, &hooks));
        sim.set_agent(src, Box::new(Scripted::default()));
        sim.set_agent(sink, Box::new(Scripted::default()));
        (sim, [src, r, sink], chan, hooks)
    }

    fn script(sim: &mut Sim, host: NodeId, sends: Vec<(u64, TrafficClass, Vec<u8>)>) {
        sim.agent_as::<Scripted>(host).unwrap().sends = sends;
    }

    #[test]
    fn ttl_expired_data_is_a_ttl_drop_and_not_a_forward() {
        let (mut sim, [src, r, sink], chan, _) = static_route_line();
        let unknown = Channel::new(chan.source, 2).unwrap();
        let expired = vec![
            (1, TrafficClass::Data, packets::channel_data(chan, 16, 1)),
            // Expired *and* entry-less: the FIB's drop reason still wins.
            (2, TrafficClass::Data, packets::channel_data(unknown, 16, 1)),
        ];
        script(&mut sim, src, expired);
        sim.run();
        assert_eq!(sim.stats().named("express.ttl_drop"), 1);
        assert_eq!(sim.stats().named("express.no_entry_drop"), 1);
        assert_eq!(sim.stats().named("express.data_fwd"), 0);
        assert_eq!(sim.agent_as::<Scripted>(sink).unwrap().got, 0, "nothing was sent");
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        let fib = router.fib().counters();
        assert_eq!((fib.forwarded, fib.no_entry_drops, fib.rpf_drops), (0, 1, 0));
        assert_eq!(router.counters().data_forwarded, 0);
        assert_eq!(router.counters().data_no_entry, 1);
    }

    #[test]
    fn router_size_is_pinned() {
        // 72 B on x86-64 (docs/INTERNALS.md §8), first what a forward of
        // channel data reads:
        //    56  forwarding plane: FIB 40 (one-slot table 24, forwarded
        //        counter 8, drop-counter pointer 8), the `data_fwd` handle
        //        4 (+ 4 padding), the pointer to the cold half 8
        //     8  control-plane pointer
        //     8  pointer to the shared config (40 B: two durations 16, the
        //        optional probe period 16, the mode override and two
        //        flags 3, + 5 padding)
        // A router is a row of the engine's pool of routers: `size_of`
        // bytes, no allocator header or rounding, and `Option` (the row's
        // tombstone) adds none. Each byte is 2 MiB on the 2²⁰-subscriber
        // tree, the whole per-router memory of a one-route forwarding hop.
        // The bytes a forward reads are the forwarding plane's 56, one
        // contiguous span of the row (the hop ledger in netsim's engine
        // tests counts the cache lines it may cross).
        use std::mem::size_of;
        let size = size_of::<EcmpRouter>();
        assert!(size <= 72, "{size}");
        assert_eq!(size_of::<Option<EcmpRouter>>(), size);
        assert_eq!((size_of::<ForwardingPlane>(), size_of::<Fib>(), size_of::<RouterConfig>()), (56, 40, 40));
    }

    #[test]
    fn routers_built_from_equal_configs_share_one_copy() {
        let (a, b) = (EcmpRouter::new(quiet_cfg()), EcmpRouter::new(quiet_cfg()));
        assert!(std::ptr::eq(a.cfg, b.cfg));
        assert_eq!(*a.cfg, quiet_cfg());
        let other = EcmpRouter::new(RouterConfig { boot_query: true, ..quiet_cfg() });
        assert!(!std::ptr::eq(a.cfg, other.cfg));
        assert!(other.cfg.boot_query && !a.cfg.boot_query);
        assert!(std::ptr::eq(EcmpRouter::new(RouterConfig::default()).cfg, EcmpRouter::new(RouterConfig::default()).cfg));
    }

    #[test]
    fn routing_size_is_pinned() {
        // 240 B on x86-64 (docs/INTERNALS.md §6, §7): the destination slots
        // and the origin bitset 48, the scratch arrays and counters 160 (the
        // radix queue behind one 8 B box), four counters 32. A `Routing`
        // sits inline in the engine's world, also where nothing ever asks a
        // route: 800 B more in it (what the queue's 33
        // buckets take inline) moved `star_100k_data` `peak_rss_mb`
        // 10.3 → 10.96–11.0 MB, and the same bytes boxed read 10.3. Not the
        // bytes themselves: the heap kept its extent and its live bytes, but
        // the bigger world block moved where a zeroed, sparsely written
        // per-node table is carved from — recycled pages, already resident,
        // instead of fresh ones that stay untouched (INTERNALS §6).
        let size = std::mem::size_of::<netsim::routing::Routing>();
        assert!(size <= 240, "{size}");
    }

    /// Everything the control-plane accessors and the audit sweep report.
    fn control_view(router: &EcmpRouter, topo: &Topology, node: NodeId, chan: Channel, neighbor: Ipv4Addr) -> String {
        format!(
            "{} {} {} {:?} {:?} {:?} {:?} {:?}",
            router.channel_count(),
            router.mgmt_state_bytes(),
            router.on_tree(chan),
            router.upstream_of(chan),
            router.downstream_of(chan),
            router.discovered_neighbors(),
            router.rtt_to(neighbor),
            router.audit_state(topo, node),
        )
    }

    #[test]
    fn static_route_router_holds_no_control_plane_until_the_first_count() {
        const PACKETS: u64 = 50;
        let (mut sim, [src, r, sink], chan, hooks) = static_route_line();
        let data = (0..PACKETS)
            .map(|i| (10 + i, TrafficClass::Data, packets::channel_data(chan, 16, packets::DEFAULT_TTL)))
            .collect();
        script(&mut sim, src, data);
        let (src_ip, router_ip, sink_ip) = (chan.source, sim.topology().ip(r), sim.topology().ip(sink));
        let join = EcmpMessage::from(Count {
            channel: chan,
            count_id: CountId::SUBSCRIBERS,
            count: 1,
            key: None,
        });
        let join = packets::ecmp_unicast(sink_ip, router_ip, EcmpMode::Tcp, &[join]);
        script(&mut sim, sink, vec![(500, TrafficClass::Control, join.to_vec())]);

        // Data before, during and after a flap of the sink link (which is
        // also a route change at every node), and a timer token the router
        // never armed.
        sim.schedule_link_change(SimTime(30_500), LinkId(1), false);
        sim.schedule_link_change(SimTime(40_500), LinkId(1), true);
        sim.schedule_timer_at(r, SimTime(45_000), 77);
        sim.run_until(SimTime(400_000));

        let got = sim.agent_as::<Scripted>(sink).unwrap().got;
        assert!(got > 0 && got < PACKETS, "the flap lost some of the {PACKETS} packets, not all: {got}");
        let topo = sim.topology().clone();
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        assert_eq!(router.counters().data_forwarded, PACKETS);
        assert!(router.ctl.is_none(), "forwarding, a flap, a route change and a stray timer allocate nothing");
        // Nor did `on_start` or any of it register the router: the engine
        // handed it neither sweep of either transition.
        assert_eq!(*hooks.lock().unwrap(), []);
        // Absent ≡ empty: every accessor reads the same just before the
        // plane is allocated and just after, the data counters included.
        let view = |router: &EcmpRouter| {
            let control = control_view(router, &topo, r, chan, sink_ip);
            format!("{control} {:?} {:?}", router.counters(), router.local_results())
        };
        let absent = view(router);
        assert!(absent.contains(&format!("data_forwarded: {PACKETS},")) && absent.contains(" subscribes: 0,"), "{absent}");
        router.ctl = Some(Box::default());
        assert_eq!(view(router), absent);
        router.ctl = None;

        // The first Count allocates it, and is a join like any other.
        sim.run_until(SimTime(1_000_000));
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        assert!(router.ctl.is_some());
        assert_eq!(router.counters().data_forwarded, PACKETS, "what the forwarding plane counted stands");
        assert_eq!(router.counters().subscribes, 1);
        assert_eq!(router.downstream_of(chan), vec![(sink_ip, 1, true)]);
        assert_eq!(router.upstream_of(chan), Some(src_ip));
        assert_eq!(router.counters().counts_tx, 1, "the join went on toward the source");
        assert!(sim.agent_as::<Scripted>(src).unwrap().got >= 1);

        // With a channel to re-home, the router listens: losing the link
        // toward the source — no link of the sink's — orphans the channel.
        sim.schedule_link_change(SimTime(1_100_000), LinkId(0), false);
        sim.run_until(SimTime(1_200_000));
        assert_eq!(sim.agent_as::<EcmpRouter>(r).unwrap().counters().rehomes, 1);
        assert_eq!(sim.stats().named("ecmp.rehome"), 1);
        assert_eq!(*hooks.lock().unwrap(), [r, r], "one transition, both sweeps");

        // A count the router initiates itself reports where the accessor
        // reads: one link toward the one member.
        assert_eq!(sim.agent_as::<EcmpRouter>(r).unwrap().local_results(), []);
        let at = SimTime(1_300_000);
        EcmpRouter::schedule_local_count(&mut sim, r, at, chan, CountId::LINKS, SimDuration::from_millis(50));
        sim.run_until(SimTime(1_400_000));
        assert_eq!(sim.agent_as::<EcmpRouter>(r).unwrap().local_results(), [(at, chan, CountId::LINKS, 1)]);
    }

    /// Hands every callback to the agent inside (which is also what a
    /// downcast reaches) and logs the node of each topology hook it is
    /// given: what the engine dispatched, whatever the agent made of it.
    struct Hooked<A> {
        inner: A,
        hooks: HookLog,
    }

    type HookLog = std::sync::Arc<std::sync::Mutex<Vec<NodeId>>>;

    fn hooked<A: Agent + 'static>(inner: A, hooks: &HookLog) -> Box<dyn Agent> {
        Box::new(Hooked { inner, hooks: hooks.clone() })
    }

    impl<A: Agent> Agent for Hooked<A> {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.inner.on_start(ctx)
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
            self.inner.on_packet(ctx, iface, bytes, class)
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.inner.on_timer(ctx, token)
        }
        fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
            self.inner.on_link_change(ctx, iface, up)
        }
        fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
            self.hooks.lock().unwrap().push(ctx.node_id());
            self.inner.on_route_change(ctx)
        }
        fn on_topology_change(&mut self, ctx: &mut Ctx<'_>, change: netsim::engine::TopologyChange) {
            self.hooks.lock().unwrap().push(ctx.node_id());
            self.inner.on_topology_change(ctx, change)
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self.inner.as_any_mut()
        }
    }

    #[test]
    fn a_router_listens_from_its_first_control_dispatch_and_not_before() {
        const DEPTH: usize = 8;
        let g = netsim::topogen::kary_tree(2, DEPTH, LinkSpec::default());
        let (src, sinks) = (g.hosts[0], &g.hosts[1..]);
        let topo = g.topo.clone();
        let up = |n: NodeId| topo.neighbors_on(n, IfaceId(0))[0].0;
        let data = Channel::new(topo.ip(src), 1).unwrap();
        let joined = Channel::new(topo.ip(src), 2).unwrap();
        let mut sim = Sim::new(g.topo, 1);
        let hooks = HookLog::default();

        // Every router forwards `data` on a static route: in on interface 0
        // (toward the source), out on all the others.
        for &r in &g.routers {
            let mut router = EcmpRouter::new(quiet_cfg());
            let all = (1u32 << topo.iface_count(r)) - 1;
            router.install_static_route(FibEntry::new(data, 0, all & !1).unwrap());
            sim.set_agent(r, hooked(router, &hooks));
        }
        let waves = [10, 100, 600, 900];
        let wave = |&at| (at, TrafficClass::Data, packets::channel_data(data, 16, packets::DEFAULT_TTL));
        sim.set_agent(src, hooked(Scripted { sends: waves.iter().map(wave).collect(), got: 0 }, &hooks));
        // The first sink joins a second channel at 300 ms; its Count
        // travels the DEPTH + 1 routers between it and the source.
        let leaf = up(sinks[0]);
        let path: Vec<NodeId> = std::iter::successors(Some(leaf), |&r| Some(up(r)).filter(|&n| n != src)).collect();
        assert_eq!(path.len(), DEPTH + 1);
        let join = ecmp_from(&sim, sinks[0], leaf, tree_count(joined, 1));
        sim.set_agent(sinks[0], hooked(Scripted { sends: vec![(300, TrafficClass::Control, join)], got: 0 }, &hooks));
        for &h in &sinks[1..] {
            sim.set_agent(h, hooked(Scripted::default(), &hooks));
        }
        // Another leaf router is given a control plane from outside, which
        // no dispatch reaches before the count's timer at 700 ms.
        let counter = up(sinks[sinks.len() / 2]);
        EcmpRouter::schedule_local_count(&mut sim, counter, SimTime(700_000), data, CountId::SUBSCRIBERS, SimDuration::from_millis(50));

        let ms = |t: u64| SimTime(t * 1_000);
        let last_link = LinkId(topo.link_count() as u32 - 1); // a leaf router — its sink
        let uplink = topo.link_of(leaf, IfaceId(0)).unwrap();
        sim.schedule_link_change(ms(50), last_link, false);
        sim.schedule_link_change(ms(60), last_link, true);
        sim.schedule_link_change(ms(400), uplink, false);
        sim.schedule_link_change(ms(500), uplink, true);
        sim.schedule_link_change(ms(800), last_link, false);
        sim.schedule_link_change(ms(810), last_link, true);
        // Who was given a hook since the last look, in ascending id.
        let hooked_since = || {
            let mut nodes = std::mem::take(&mut *hooks.lock().unwrap());
            nodes.sort_unstable();
            nodes
        };
        // Twice per hook: one flap is two transitions.
        let twice = |nodes: &[NodeId]| {
            let mut nodes = [nodes, nodes, nodes, nodes].concat();
            nodes.sort_unstable();
            nodes
        };

        // Nothing but static routes: a flap dispatches no hook at all.
        sim.run_until(ms(200));
        assert_eq!(hooked_since(), []);
        // The join made listeners of the routers it went through, and of
        // nobody else — not of the router whose control plane only exists.
        sim.run_until(ms(650));
        assert_eq!(hooked_since(), twice(&path));
        // Orphaned at 400 ms; the way back waits out the hysteresis.
        assert_eq!(sim.agent_as::<EcmpRouter>(leaf).unwrap().counters().rehomes, 1);
        assert_eq!(sim.stats().named("ecmp.rehome"), 1);
        assert!(sim.agent_as::<EcmpRouter>(up(leaf)).unwrap().ctl.is_some());
        // The count's timer was the first dispatch to meet that one.
        sim.run_until(ms(1_000));
        assert_eq!(hooked_since(), twice(&[&path[..], &[counter]].concat()));

        // The static tree stood throughout: every wave reached every sink.
        for &h in sinks {
            let got = sim.agent_as::<Scripted>(h).unwrap().got;
            assert!(got >= waves.len() as u64, "{h:?} got {got}");
        }
        assert_eq!(sim.stats().named("express.data_fwd"), (waves.len() * g.routers.len()) as u64);
    }

    /// `src — router — sinks…` over point-to-point links, nothing installed:
    /// the router learns every route from the sinks' scripts.
    fn join_star(sinks: usize) -> (Sim, NodeId, NodeId, Vec<NodeId>) {
        let mut topo = Topology::new();
        let (src, r) = (topo.add_host(), topo.add_router());
        topo.connect(src, r, LinkSpec::default()).unwrap();
        let sinks: Vec<NodeId> = (0..sinks).map(|_| topo.add_host()).collect();
        for &s in &sinks {
            topo.connect(r, s, LinkSpec::default()).unwrap();
        }
        let mut sim = Sim::new(topo, 1);
        sim.set_agent(r, Box::new(EcmpRouter::new(quiet_cfg())));
        for &h in [src].iter().chain(&sinks) {
            sim.set_agent(h, Box::new(Scripted::default()));
        }
        (sim, src, r, sinks)
    }

    fn ecmp_from(sim: &Sim, from: NodeId, to: NodeId, msg: impl Into<EcmpMessage>) -> Vec<u8> {
        let (from, to) = (sim.topology().ip(from), sim.topology().ip(to));
        packets::ecmp_unicast(from, to, EcmpMode::Tcp, &[msg.into()]).to_vec()
    }

    fn tree_count(channel: Channel, count: u64) -> Count {
        Count {
            channel,
            count_id: CountId::SUBSCRIBERS,
            count,
            key: None,
        }
    }

    #[test]
    fn nonsense_input_leaves_table_fib_and_counters_as_they_were() {
        let (mut sim, src, r, sinks) = join_star(2);
        let (member, stranger) = (sinks[0], sinks[1]);
        let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
        let other = Channel::new(sim.topology().ip(src), 2).unwrap();
        let nowhere = Channel::new(Ipv4Addr::new(10, 99, 0, 1), 1).unwrap();
        let join = ecmp_from(&sim, member, r, tree_count(chan, 1));
        script(&mut sim, member, vec![(1, TrafficClass::Control, join)]);
        let verdict = |channel, key| CountResponse {
            channel,
            count_id: CountId::SUBSCRIBERS,
            status: ResponseStatus::Ok,
            key,
        };
        let vote = Count {
            channel: other,
            count_id: CountId(CountId::APPLICATION_BASE + 1),
            count: 9,
            key: None,
        };
        let nonsense: Vec<EcmpMessage> = vec![
            vote.into(),                     // a Count for a channel nobody joined
            tree_count(other, 0).into(),     // a leave for it
            tree_count(chan, 0).into(),      // a leave from a neighbor that never joined
            tree_count(nowhere, 3).into(),   // a join toward an unreachable source
            verdict(chan, None).into(),      // verdicts nobody is waiting for
            verdict(chan, Some(7)).into(),
            verdict(other, Some(7)).into(),
        ];
        let sends = nonsense.iter().enumerate();
        let sends = sends.map(|(i, &m)| (100 + i as u64, TrafficClass::Control, ecmp_from(&sim, stranger, r, m)));
        let sends = sends.collect();
        script(&mut sim, stranger, sends);

        let member_ip = sim.topology().ip(member);
        let topo = sim.topology().clone();
        let view = |sim: &mut Sim| {
            let router = sim.agent_as::<EcmpRouter>(r).unwrap();
            let mut fib: Vec<[u8; 12]> = router.fib().iter().map(|e| e.raw()).collect();
            fib.sort_unstable();
            let c = router.counters();
            let ctl = router.ctl.as_ref().unwrap();
            format!(
                "{} fib {fib:?} sub {} unsub {} tx {} auth {} pending {} timers {}",
                control_view(router, &topo, r, chan, member_ip),
                c.subscribes,
                c.unsubscribes,
                c.counts_tx,
                c.auth_rejects,
                ctl.tables.pending.len(),
                ctl.timers.meta.len(),
            )
        };
        sim.run_until(SimTime(50_000));
        let before = view(&mut sim);
        assert_eq!(sim.agent_as::<EcmpRouter>(r).unwrap().downstream_of(chan), vec![(member_ip, 1, true)]);
        let upstream_got = sim.agent_as::<Scripted>(src).unwrap().got;
        sim.run();
        assert_eq!(view(&mut sim), before);
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        assert_eq!(router.counters().counts_rx, 1 + 4, "every Count was received");
        // The only answer is the rejection of the unreachable join; nothing
        // went upstream.
        assert_eq!(sim.stats().named("ecmp.response_tx"), 1);
        assert_eq!(sim.agent_as::<Scripted>(stranger).unwrap().got, 1);
        assert_eq!(sim.agent_as::<Scripted>(src).unwrap().got, upstream_got);
    }

    /// A host that keeps every frame it is handed.
    #[derive(Default)]
    struct Tap {
        frames: Vec<(SimTime, Vec<u8>)>,
    }

    impl Agent for Tap {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
            self.frames.push((ctx.now(), bytes.to_vec()));
        }
    }

    /// `src` reached over two taps: `p1` one hop from the router, `p2` two
    /// (their router links are metric 1 and 2), the router's link to `p1`
    /// down; a scripted member behind the router. Returns the simulation,
    /// `[src, p1, p2, router, member]` and the link to `p1`.
    fn two_upstreams() -> (Sim, [NodeId; 5], LinkId) {
        let mut topo = Topology::new();
        let (src, p1, p2) = (topo.add_host(), topo.add_host(), topo.add_host());
        let (r, member) = (topo.add_router(), topo.add_host());
        topo.connect(src, p1, LinkSpec::default()).unwrap();
        topo.connect(src, p2, LinkSpec::default()).unwrap();
        let near = topo.connect(r, p1, LinkSpec::default()).unwrap();
        topo.connect(r, p2, LinkSpec { metric: 2, ..LinkSpec::default() }).unwrap();
        topo.connect(member, r, LinkSpec::default()).unwrap();
        topo.set_link_up(near, false);
        let mut sim = Sim::new(topo, 1);
        sim.set_agent(r, Box::new(EcmpRouter::new(quiet_cfg())));
        for h in [p1, p2] {
            sim.set_agent(h, Box::<Tap>::default());
        }
        sim.set_agent(member, Box::<Scripted>::default());
        (sim, [src, p1, p2, r, member], near)
    }

    #[test]
    fn a_route_change_rehomes_in_channel_order_whatever_the_table_history() {
        use netsim::trace::{TraceConfig, TraceEvent, TraceKind};
        const CHANNELS: u32 = 24;
        let flap = SimTime(2_000_000);
        let run = |history: &[(u32, u64)]| {
            let (mut sim, [src, p1, p2, r, member], near) = two_upstreams();
            let count = |e: u32, n| tree_count(Channel::new(sim.topology().ip(src), e).unwrap(), n);
            let sends = history.iter().enumerate();
            let sends = sends.map(|(i, &(e, n))| (10 + i as u64, TrafficClass::Control, count(e, n)));
            let sends = sends.map(|(at, class, c)| (at, class, ecmp_from(&sim, member, r, c)));
            let sends = sends.collect();
            script(&mut sim, member, sends);
            sim.enable_trace(TraceConfig::default());
            sim.schedule_link_change(flap, near, true);
            sim.run_until(SimTime(1_000_000));
            let router = sim.agent_as::<EcmpRouter>(r).unwrap();
            let slots: Vec<u64> = router.channels().unwrap().iter().map(|st| channel_key(st.channel)).collect();
            sim.run_until(SimTime(3_000_000));
            let after = |frames: &[(SimTime, Vec<u8>)]| frames.iter().filter(|f| f.0 >= flap).cloned().collect();
            let frames: [Vec<_>; 2] = [p1, p2].map(|h| after(&sim.agent_as::<Tap>(h).unwrap().frames));
            let records = sim.trace().unwrap().events();
            let records = records.filter(|e| e.at >= flap && matches!(e.kind, TraceKind::Proto { node, .. } if node == r));
            let records: Vec<_> = records.cloned().collect();
            (slots, frames, records, sim.topology().ip(p2))
        };
        // The same channels joined in ascending order, and in descending
        // order after twenty others that then leave: two slot orders.
        let ascending: Vec<(u32, u64)> = (1..=CHANNELS).map(|e| (e, 1)).collect();
        let extra = CHANNELS + 1..=CHANNELS + 20;
        let churned = extra.clone().map(|e| (e, 1)).chain((1..=CHANNELS).rev().map(|e| (e, 1)));
        let churned: Vec<(u32, u64)> = churned.chain(extra.map(|e| (e, 0))).collect();
        let (slots_a, frames_a, records_a, p2_ip) = run(&ascending);
        let (slots_b, frames_b, records_b, _) = run(&churned);
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(slots_a.len(), CHANNELS as usize);
        assert_eq!(sorted(slots_a.clone()), sorted(slots_b.clone()), "the same channels");
        assert_ne!(slots_a, slots_b, "in two slot orders");

        // One Count segment to the new upstream, one of zero Counts to the
        // old, byte for byte the same; so is every record the sweep made (a
        // re-home's own and its counter's).
        assert_eq!(frames_a.each_ref().map(|f| f.len()), [1, 1]);
        assert_eq!(frames_a, frames_b);
        let rehome = |e: &&TraceEvent| {
            matches!(&e.kind, TraceKind::Proto { event, .. } if event.name == "ecmp.rehome" && event.detail.is_some())
        };
        assert_eq!(records_a.iter().filter(rehome).count(), CHANNELS as usize);
        assert_eq!(records_a, records_b);
        // The order is the channels' own.
        let Ok(Classified::Ecmp { messages, .. }) = packets::classify(&frames_a[1][0].1, p2_ip) else {
            panic!("an ECMP segment")
        };
        let order: Vec<u64> = messages.map(|m| match m {
            EcmpMessage::Count(c) if c.count == 0 => channel_key(c.channel),
            other => panic!("{other:?}"),
        }).collect();
        assert_eq!(order, sorted(slots_a));
    }

    #[test]
    fn a_second_join_leave_cycle_grows_no_state() {
        let (mut sim, src, r, sinks) = join_star(1);
        let chan = Channel::new(sim.topology().ip(src), 1).unwrap();
        let cycle = |at| {
            vec![
                (at, TrafficClass::Control, ecmp_from(&sim, sinks[0], r, tree_count(chan, 1))),
                (at + 10, TrafficClass::Control, ecmp_from(&sim, sinks[0], r, tree_count(chan, 0))),
            ]
        };
        let sends = [cycle(1), cycle(101), cycle(201)].concat();
        script(&mut sim, sinks[0], sends);
        // Everything the control plane owns that could grow.
        let owned = |sim: &mut Sim| {
            let router = sim.agent_as::<EcmpRouter>(r).unwrap();
            let ctl = router.ctl.as_ref().unwrap();
            let st = ctl.tables.channels.get(channel_key(chan));
            (
                ctl.tables.channels.capacity(),
                ctl.timers.meta.len() + ctl.tables.pending.len() + ctl.tables.rtt.len(),
                st.map(|st| (st.downstream.is_inline(), st.extra.is_none())),
                router.fib().len(),
            )
        };
        sim.run_until(SimTime(5_000)); // joined
        assert_eq!(owned(&mut sim), (1, 0, Some((true, true)), 1), "a joined channel is one inline record");
        sim.run_until(SimTime(50_000)); // left
        let idle = owned(&mut sim);
        assert_eq!(idle, (1, 0, None, 0));
        for (joined_at, left_at) in [(105_000, 150_000), (205_000, 250_000)] {
            sim.run_until(SimTime(joined_at));
            assert_eq!(owned(&mut sim), (1, 0, Some((true, true)), 1));
            sim.run_until(SimTime(left_at));
            assert_eq!(owned(&mut sim), idle, "a later cycle reuses what the first one left");
        }
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        assert_eq!((router.counters().subscribes, router.counters().unsubscribes), (3, 3));
        assert_eq!(router.counters().counts_tx, 6, "each join and each prune went on toward the source");
        assert_eq!(sim.agent_as::<Scripted>(src).unwrap().got, 6);
    }

    #[test]
    fn router_config_defaults_sane() {
        let c = RouterConfig::default();
        assert!(c.udp_refresh > SimDuration::ZERO);
        assert!(c.mode_override.is_none());
    }
}
