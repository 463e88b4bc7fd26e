//! The ECMP router: the paper's §3 as a `netsim` agent.
//!
//! One protocol does everything: "ECMP \[is\] a single common management
//! protocol that both maintains the distribution tree and supports
//! source-directed counting and voting ... distribution tree construction
//! for a single source is a restricted case of counting the subscribers in
//! each subtree."
//!
//! Responsibilities implemented here:
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
//! * **Forwarding** (§3.4): exact (S,E) match, incoming-interface check,
//!   count-and-drop on miss, subcast decapsulation (§2.1), plus plain
//!   unicast forwarding for the substrate — the forwarding plane, in the
//!   `forward` submodule; everything else here is the control plane.
//! * **Proactive counting** (§6): curve-driven upstream updates.

use crate::counting::{decrement_timeout, PendingCount, ReplyTo};
use crate::fib::Fib;
use crate::packets::{self, Classified, EcmpMode};
use crate::proactive::{ErrorToleranceCurve, ProactiveState};
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{
    ChannelKey, Count, CountId, CountQuery, CountResponse, EcmpMessage, ProactiveParams,
    ResponseStatus,
};
use express_wire::fib::FibEntry;
use netsim::audit::{AuditNodeState, AuditRoute};
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::topology::Topology;
use netsim::stats::TrafficClass;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::RttEstimator;
use netsim::NodeKind;
use std::any::Any;
use std::collections::HashMap;

mod forward;
use forward::ForwardingPlane;

/// Tunables for an ECMP router.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Period of the UDP-mode general query on multi-access interfaces
    /// (the IGMP-query analogue of §3.2).
    pub udp_refresh: SimDuration,
    /// Missed refresh rounds before a UDP-mode downstream entry expires.
    pub udp_robustness: u32,
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
    /// Base delay of the exponential-backoff re-join retry: when a channel
    /// still has subscribers but RPF yields no upstream (partition, or the
    /// upstream crashed and routing has not re-converged), the router
    /// retries the join at `base`, `2·base`, `4·base`, … capped at
    /// [`rejoin_backoff_max`](Self::rejoin_backoff_max), until a route
    /// exists. `None` disables retries (the pre-fault-model behavior:
    /// recovery waits for the next routing change).
    pub rejoin_backoff: Option<SimDuration>,
    /// Ceiling for the re-join backoff delay.
    pub rejoin_backoff_max: SimDuration,
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
            udp_robustness: 2,
            hysteresis: SimDuration::from_secs(2),
            mode_override: None,
            neighbor_probe: Some(SimDuration::from_secs(30)),
            cache_keys: true,
            rejoin_backoff: Some(SimDuration::from_millis(500)),
            rejoin_backoff_max: SimDuration::from_secs(30),
            boot_query: false,
        }
    }
}

/// What a pending timer means (tokens are indices into `timer_meta`).
#[derive(Debug, Clone)]
enum TimerPurpose {
    /// Deadline for an outstanding count aggregation.
    QueryDeadline {
        channel: Channel,
        count_id: CountId,
        generation: u64,
    },
    /// Periodic UDP-mode general query + expiry sweep on one interface.
    UdpRefresh { iface: IfaceId },
    /// Re-evaluate a proactive count against its curve.
    ProactiveCheck {
        channel: Channel,
        count_id: CountId,
        generation: u64,
    },
    /// Apply a deferred re-home after the hysteresis interval.
    HysteresisExpire { channel: Channel },
    /// Periodic neighbor-discovery probe on one interface (§3.3).
    NeighborProbe { iface: IfaceId },
    /// Fire a harness-scheduled router-initiated count (§3.1).
    LocalCount {
        channel: Channel,
        count_id: CountId,
        timeout: SimDuration,
    },
    /// Retry joining upstream after RPF came up empty (exponential
    /// backoff; see `RouterConfig::rejoin_backoff`).
    RejoinRetry { channel: Channel, attempt: u32 },
}

/// One downstream neighbor's contribution to a channel.
#[derive(Debug, Clone, Copy)]
struct DownstreamEntry {
    iface: IfaceId,
    /// Latest subscriberId count reported by this neighbor's subtree.
    count: u64,
    /// Last time the entry was confirmed (UDP-mode expiry).
    refreshed: SimTime,
    /// Subscription accepted (auth passed or channel unauthenticated).
    validated: bool,
}

/// Per-channel protocol state ("management-level state", §5.2).
#[derive(Debug, Clone)]
struct ChannelState {
    /// Toward the source: (interface, upstream neighbor address).
    upstream: Option<(IfaceId, Ipv4Addr)>,
    /// Downstream neighbors by address.
    downstream: HashMap<Ipv4Addr, DownstreamEntry>,
    /// subscriberId total we last sent upstream (join when 0→n, prune on →0).
    advertised: u64,
    /// Cached channel key, learned from a validated subscription (§3.2:
    /// "a valid key is cached so that further authenticated requests can be
    /// denied or accepted locally").
    cached_key: Option<ChannelKey>,
    /// Downstream requesters whose keys are awaiting upstream validation.
    awaiting_validation: Vec<(Ipv4Addr, ChannelKey)>,
    /// Proactive counting state per countId.
    proactive: HashMap<CountId, ProactiveState>,
    /// Latest downstream values for generic (non-subscriberId) proactive
    /// counts: countId → neighbor → value.
    proactive_values: HashMap<CountId, HashMap<Ipv4Addr, u64>>,
    /// No re-home before this time.
    hold_down_until: SimTime,
    /// A re-home is scheduled (avoid duplicate timers).
    rehome_pending: bool,
    /// A backoff re-join retry is armed (avoid duplicate timers).
    rejoin_pending: bool,
}

impl ChannelState {
    fn new() -> Self {
        ChannelState {
            upstream: None,
            downstream: HashMap::new(),
            advertised: 0,
            cached_key: None,
            awaiting_validation: Vec::new(),
            proactive: HashMap::new(),
            proactive_values: HashMap::new(),
            hold_down_until: SimTime::ZERO,
            rehome_pending: false,
            rejoin_pending: false,
        }
    }

    /// Current subscriberId aggregate over all downstream neighbors.
    fn aggregate(&self) -> u64 {
        self.downstream.values().filter(|e| e.validated).map(|e| e.count).sum()
    }

    /// Outgoing-interface mask: interfaces with any validated subscriber
    /// weight.
    fn oif_mask(&self) -> u32 {
        let mut m = 0u32;
        for e in self.downstream.values() {
            if e.validated && e.count > 0 {
                m |= 1 << e.iface.0;
            }
        }
        m
    }

    /// Approximate DRAM footprint of this record, for the §5.2 experiment:
    /// one upstream + per-downstream records + key (the paper budgets
    /// ~200 bytes/channel).
    fn mgmt_state_bytes(&self) -> usize {
        32 + self.downstream.len() * 32 + if self.cached_key.is_some() { 8 } else { 0 }
    }
}

/// Counters the router exposes for experiments (beyond the global named
/// counters it also bumps via `ctx.count`).
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
    /// Queries received.
    pub queries_rx: u64,
    /// Queries sent (forwarded or periodic).
    pub queries_tx: u64,
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
    /// Backoff re-join retries fired while no upstream route existed.
    pub rejoin_retries: u64,
}

/// The control plane: everything ECMP keeps beyond the FIB — the
/// "management-level state" the paper's §5.2 prices apart from the fast
/// path's memory. A router holds none until something needs it (see
/// [`EcmpRouter`]).
#[derive(Default)]
struct ControlPlane {
    channels: HashMap<Channel, ChannelState>,
    pending: HashMap<(Channel, CountId), PendingCount>,
    pending_gen: u64,
    timer_meta: HashMap<u64, TimerPurpose>,
    next_timer: u64,
    rtt: HashMap<Ipv4Addr, RttEstimator>,
    /// Discovered EXPRESS neighbors: address → (interface, last heard).
    neighbors: HashMap<Ipv4Addr, (IfaceId, SimTime)>,
    /// Unicast ECMP messages queued within the current event dispatch,
    /// flushed (batched per neighbor) before the callback returns.
    txq: Vec<(IfaceId, Ipv4Addr, EcmpMessage)>,
    /// When the last neighbor probe went out on each interface.
    probe_sent: HashMap<IfaceId, SimTime>,
}

impl ControlPlane {
    /// A fresh timer token standing for `purpose`.
    fn timer_token(&mut self, purpose: TimerPurpose) -> u64 {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timer_meta.insert(token, purpose);
        token
    }
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
    cfg: RouterConfig,
    fwd: ForwardingPlane,
    /// `None` ≡ empty: no channel, pending count, timer or neighbor.
    ctl: Option<Box<ControlPlane>>,
    /// Locally-initiated count results (router-initiated queries, §3.1).
    pub local_results: Vec<(SimTime, Channel, CountId, u64)>,
    /// Experiment counters.
    pub counters: RouterCounters,
}

impl EcmpRouter {
    /// A router with the given configuration.
    pub fn new(cfg: RouterConfig) -> Self {
        EcmpRouter {
            cfg,
            fwd: ForwardingPlane::default(),
            ctl: None,
            local_results: Vec::new(),
            counters: RouterCounters::default(),
        }
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

    /// Skew the advertised upstream count for `channel` without
    /// re-aggregating the downstream entries. The router's truth snapshot
    /// ([`Agent::audit_state`]) keeps reporting the skewed `advertised`
    /// against the honest `downstream_sum`, so the auditor's A3 count
    /// check fires. Negative-test hook only: real code paths always set
    /// `advertised` from the aggregate of validated downstream entries.
    pub fn skew_advertised_for_audit_test(&mut self, channel: Channel, delta: u64) {
        if let Some(st) = self.ctl.as_mut().and_then(|c| c.channels.get_mut(&channel)) {
            st.advertised = st.advertised.saturating_add(delta);
        }
    }

    /// The per-channel protocol state, if any was ever created.
    fn channels(&self) -> Option<&HashMap<Channel, ChannelState>> {
        self.ctl.as_ref().map(|c| &c.channels)
    }

    fn channel(&self, channel: Channel) -> Option<&ChannelState> {
        self.channels()?.get(&channel)
    }

    /// Number of channels with protocol state.
    pub fn channel_count(&self) -> usize {
        self.channels().map_or(0, HashMap::len)
    }

    /// Total management-level state in bytes across channels (§5.2).
    pub fn mgmt_state_bytes(&self) -> usize {
        self.channels()
            .map_or(0, |m| m.values().map(ChannelState::mgmt_state_bytes).sum())
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
    /// `(neighbor, subtree count, validated)`.
    pub fn downstream_of(&self, channel: Channel) -> Vec<(Ipv4Addr, u64, bool)> {
        self.channel(channel)
            .map(|s| {
                let mut v: Vec<_> = s
                    .downstream
                    .iter()
                    .map(|(a, e)| (*a, e.count, e.validated))
                    .collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }

    /// EXPRESS neighbors discovered via the §3.3 probes:
    /// `(address, interface)` pairs, sorted by address.
    pub fn discovered_neighbors(&self) -> Vec<(Ipv4Addr, IfaceId)> {
        let mut v: Vec<_> = self
            .ctl
            .as_ref()
            .map_or_else(Vec::new, |c| c.neighbors.iter().map(|(a, (i, _))| (*a, *i)).collect());
        v.sort();
        v
    }

    /// The smoothed RTT estimate toward `neighbor`, if any probe has been
    /// answered (feeds the §3.1 per-hop timeout decrement).
    pub fn rtt_to(&self, neighbor: Ipv4Addr) -> Option<SimDuration> {
        self.ctl.as_ref()?.rtt.get(&neighbor).filter(|e| e.has_sample()).map(|e| e.rtt())
    }

    /// Schedule a router-initiated count (§3.1) on `node` at absolute time
    /// `at` from outside the simulation — e.g. a transit-domain ingress
    /// router counting the links a channel uses "to make inter-domain
    /// settlements". The result lands in
    /// [`local_results`](Self::local_results).
    pub fn schedule_local_count(
        sim: &mut netsim::Sim,
        node: netsim::NodeId,
        at: SimTime,
        channel: Channel,
        count_id: CountId,
        timeout: SimDuration,
    ) {
        let router = sim.agent_as::<EcmpRouter>(node).expect("node agent is not an EcmpRouter");
        let token = router.ctl.get_or_insert_with(Box::default).timer_token(TimerPurpose::LocalCount {
            channel,
            count_id,
            timeout,
        });
        sim.schedule_timer_at(node, at, token);
    }

    /// Initiate a router-local count (§3.1: "ECMP also allows any router on
    /// the channel distribution tree to initiate a query without source
    /// cooperation") — e.g. counting the links a channel uses inside a
    /// transit domain. The result lands in [`local_results`](Self::local_results).
    pub fn initiate_count(&mut self, ctx: &mut Ctx<'_>, channel: Channel, count_id: CountId, timeout: SimDuration) {
        self.control().initiate_count(ctx, channel, count_id, timeout);
    }

    /// The control plane as it stands: `None` while nothing has needed one,
    /// which every caller treats as an empty one.
    fn control_if_any(&mut self) -> Option<Control<'_>> {
        Some(Control {
            cfg: &self.cfg,
            fwd: &mut self.fwd,
            counters: &mut self.counters,
            local_results: &mut self.local_results,
            ctl: self.ctl.as_deref_mut()?,
        })
    }

    /// The control plane, allocated here if this is the first use of it.
    fn control(&mut self) -> Control<'_> {
        self.ctl.get_or_insert_with(Box::default);
        self.control_if_any().expect("allocated above")
    }
}

/// The neighbor mode of an interface: LAN ⇒ UDP edge mode, p2p ⇒ TCP
/// core mode, unless overridden.
fn iface_mode(cfg: &RouterConfig, ctx: &Ctx<'_>, iface: IfaceId) -> EcmpMode {
    if let Some(m) = cfg.mode_override {
        return m;
    }
    let node = ctx.node_id();
    match ctx.topology().link_of(node, iface) {
        Ok(link) if ctx.topology().link_endpoints(link).len() > 2 => EcmpMode::Udp,
        _ => EcmpMode::Tcp,
    }
}

/// What a control-plane handler works on: the router's control plane, now
/// known to exist, beside the rest of the router it reads and updates.
struct Control<'a> {
    cfg: &'a RouterConfig,
    fwd: &'a mut ForwardingPlane,
    counters: &'a mut RouterCounters,
    local_results: &'a mut Vec<(SimTime, Channel, CountId, u64)>,
    ctl: &'a mut ControlPlane,
}

impl Control<'_> {
    /// See [`EcmpRouter::initiate_count`].
    fn initiate_count(&mut self, ctx: &mut Ctx<'_>, channel: Channel, count_id: CountId, timeout: SimDuration) {
        let q = CountQuery {
            channel,
            count_id,
            timeout_ms: timeout.millis() as u32,
            proactive: None,
        };
        self.start_aggregation(ctx, q, ReplyTo::Local);
    }

    fn alloc_timer(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration, purpose: TimerPurpose) {
        let token = self.ctl.timer_token(purpose);
        ctx.set_timer(delay, token);
    }

    /// Queue a unicast ECMP message for `to` out `iface`. Messages queued
    /// during one event dispatch to the same neighbor are coalesced into one
    /// TCP-mode segment by [`flush_tx`](Self::flush_tx) — the §5.3 batching
    /// ("approximately 92 ... Count messages fit in a ... TCP segment"),
    /// exercised live whenever one event produces several messages for one
    /// neighbor (ALL_CHANNELS re-advertisement, re-homing, multi-channel
    /// teardown on link failure).
    fn send_ecmp(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, to: Ipv4Addr, msg: EcmpMessage) {
        match msg {
            EcmpMessage::Count(ref c) => {
                self.counters.counts_tx += 1;
                ctx.count("ecmp.count_tx", 1);
                // Interned per-(base, channel) handle: no per-message key
                // formatting (the composed key is identical to what
                // count_labeled built, so OBSERVABILITY.md names hold).
                ctx.count_channel("ecmp.count_msgs", c.channel, 1);
            }
            EcmpMessage::CountQuery(_) => {
                self.counters.queries_tx += 1;
                ctx.count("ecmp.query_tx", 1);
            }
            EcmpMessage::CountResponse(_) => ctx.count("ecmp.response_tx", 1),
        }
        self.ctl.txq.push((iface, to, msg));
    }

    /// Transmit everything queued by [`send_ecmp`](Self::send_ecmp),
    /// batching per (interface, neighbor). Called at the end of every agent
    /// callback that ran a control-plane handler.
    fn flush_tx(&mut self, ctx: &mut Ctx<'_>) {
        if self.ctl.txq.is_empty() {
            return;
        }
        let txq = std::mem::take(&mut self.ctl.txq);
        // Group by destination, preserving per-destination order.
        let mut groups: Vec<((IfaceId, Ipv4Addr), Vec<EcmpMessage>)> = Vec::new();
        for (iface, to, msg) in txq {
            match groups.iter_mut().find(|((i, t), _)| *i == iface && *t == to) {
                Some((_, v)) => v.push(msg),
                None => groups.push(((iface, to), vec![msg])),
            }
        }
        for ((iface, to), mut msgs) in groups {
            let mode = iface_mode(self.cfg, ctx, iface);
            let rel = match mode {
                EcmpMode::Tcp => Reliability::Reliable,
                EcmpMode::Udp => Reliability::Datagram,
            };
            let tx = match ctx.resolve(to) {
                Some(node) => Tx::To(node),
                None => Tx::AllOnLink,
            };
            if msgs.len() > 1 {
                ctx.count("ecmp.batched_msgs", msgs.len() as u64);
            }
            while !msgs.is_empty() {
                // emit_batch takes as many whole messages as fit one MTU.
                let (payload_probe, taken) =
                    express_wire::ecmp::emit_batch(&msgs, packets::ECMP_BATCH_BUDGET);
                debug_assert!(taken >= 1);
                let _ = payload_probe;
                let pkt = packets::ecmp_unicast(ctx.my_ip(), to, mode, &msgs[..taken]);
                ctx.send(iface, &pkt, TrafficClass::Control, rel, tx);
                msgs.drain(..taken);
            }
        }
    }

    fn send_ecmp_multicast(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, msg: EcmpMessage) {
        let pkt = packets::ecmp_multicast(ctx.my_ip(), &[msg]);
        ctx.send(iface, &pkt, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
        if matches!(msg, EcmpMessage::CountQuery(_)) {
            self.counters.queries_tx += 1;
            ctx.count("ecmp.query_tx", 1);
        }
    }

    fn state_mut(&mut self, channel: Channel) -> &mut ChannelState {
        self.ctl.channels.entry(channel).or_insert_with(ChannelState::new)
    }

    /// Recompute the FIB entry for a channel from its state; remove state
    /// entirely when the last subscriber is gone.
    fn sync_fib(&mut self, channel: Channel) {
        let Some(st) = self.ctl.channels.get(&channel) else {
            self.fwd.fib.remove(channel);
            return;
        };
        let mask = st.oif_mask();
        if mask == 0 && st.aggregate() == 0 {
            self.fwd.fib.remove(channel);
            return;
        }
        let in_iface = st.upstream.map(|(i, _)| i.0).unwrap_or(0);
        if let Ok(e) = FibEntry::new(channel, in_iface, mask) {
            self.fwd.fib.install(e);
        }
    }

    /// Send `subscriberId` aggregate upstream if the join/prune edge
    /// condition or the proactive curve says so.
    fn propagate_upstream(&mut self, ctx: &mut Ctx<'_>, channel: Channel) {
        let now = ctx.now();
        let Some(st) = self.ctl.channels.get_mut(&channel) else { return };
        let agg = st.aggregate();
        let Some((up_iface, up_addr)) = st.upstream else { return };

        let value_to_send: Option<u64> = if let Some(p) = st.proactive.get_mut(&CountId::SUBSCRIBERS) {
            // Proactive mode: curve-driven.
            let v = p.evaluate(agg, now);
            if v.is_none() {
                // Schedule a re-check if a change is pending.
                if let Some(at) = p.curve.next_check_at(p.advertised, agg, p.last_sent) {
                    let generation = p.generation;
                    let delay = at.since(now).max(SimDuration::from_millis(1));
                    self.alloc_timer(
                        ctx,
                        delay,
                        TimerPurpose::ProactiveCheck {
                            channel,
                            count_id: CountId::SUBSCRIBERS,
                            generation,
                        },
                    );
                }
                None
            } else {
                v
            }
        } else {
            // Plain mode: only the on-tree / off-tree transitions propagate
            // (§3.2: subscription stops "at a router already on the
            // distribution tree"; a zero Count prunes).
            if agg > 0 && st.advertised == 0 {
                Some(agg)
            } else if agg == 0 && st.advertised > 0 {
                Some(0)
            } else {
                st.advertised = agg; // track silently
                None
            }
        };

        if let Some(v) = value_to_send {
            if let Some(st) = self.ctl.channels.get_mut(&channel) {
                st.advertised = v;
            }
            // Forward the strongest key we have (first-join carries the
            // subscriber's key so upstream can validate).
            let key = self.ctl.channels.get(&channel).and_then(|s| s.cached_key);
            let msg = EcmpMessage::from(Count {
                channel,
                count_id: CountId::SUBSCRIBERS,
                count: v,
                key,
            });
            self.send_ecmp(ctx, up_iface, up_addr, msg);
        }

        // Tear down state when fully pruned and nothing pending.
        if let Some(st) = self.ctl.channels.get(&channel) {
            if st.aggregate() == 0 && st.advertised == 0 && st.awaiting_validation.is_empty() {
                self.ctl.channels.remove(&channel);
            }
        }
        self.sync_fib(channel);
    }

    /// Curve-driven upstream propagation for a generic (non-subscriberId)
    /// proactively-maintained count: sum the latest downstream values and
    /// send when the error tolerance curve permits.
    fn propagate_generic_proactive(&mut self, ctx: &mut Ctx<'_>, channel: Channel, count_id: CountId) {
        let now = ctx.now();
        let Some(st) = self.ctl.channels.get_mut(&channel) else { return };
        let Some((up_iface, up_addr)) = st.upstream else { return };
        let aggregate: u64 = st
            .proactive_values
            .get(&count_id)
            .map(|m| m.values().sum())
            .unwrap_or(0);
        let Some(p) = st.proactive.get_mut(&count_id) else { return };
        match p.evaluate(aggregate, now) {
            Some(v) => {
                let msg = EcmpMessage::from(Count {
                    channel,
                    count_id,
                    count: v,
                    key: None,
                });
                self.send_ecmp(ctx, up_iface, up_addr, msg);
            }
            None => {
                if let Some(at) = p.curve.next_check_at(p.advertised, aggregate, p.last_sent) {
                    let generation = p.generation;
                    let delay = at.since(now).max(SimDuration::from_millis(1));
                    self.alloc_timer(
                        ctx,
                        delay,
                        TimerPurpose::ProactiveCheck {
                            channel,
                            count_id,
                            generation,
                        },
                    );
                }
            }
        }
    }

    /// Establish (or look up) the upstream for a channel via RPF.
    fn ensure_upstream(&mut self, ctx: &mut Ctx<'_>, channel: Channel) -> Option<(IfaceId, Ipv4Addr)> {
        if let Some(st) = self.ctl.channels.get(&channel) {
            if let Some(up) = st.upstream {
                return Some(up);
            }
        }
        let hop = ctx.rpf(channel.source)?;
        let up = (hop.iface, ctx.ip_of(hop.next));
        self.state_mut(channel).upstream = Some(up);
        Some(up)
    }

    /// Handle a subscriberId Count from a neighbor: tree maintenance.
    fn handle_tree_count(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, c: Count) {
        let channel = c.channel;
        let now = ctx.now();

        // A non-zero Count from our *upstream* neighbor is not a
        // subscription — it is a query reply (handled by the pending path)
        // or stray; ignore it as tree input. A ZERO Count from the upstream
        // must still be processed: after a topology change the neighbor that
        // just became our upstream may simultaneously be un-subscribing the
        // stale reverse relationship it held with us (§3.2 re-homing sends
        // "a zero Count message to the old upstream router"). Dropping it
        // would leave a phantom downstream entry and a parent/child cycle.
        if let Some(st) = self.ctl.channels.get(&channel) {
            if st.upstream.map(|(_, n)| n) == Some(from) && c.count != 0 {
                return;
            }
        }

        if self.ensure_upstream(ctx, channel).is_none() && ctx.resolve(channel.source) != Some(ctx.node_id()) {
            // Source unreachable: reject.
            let resp = EcmpMessage::from(CountResponse {
                channel,
                count_id: CountId::SUBSCRIBERS,
                status: ResponseStatus::NoSuchChannel,
                key: c.key,
            });
            self.send_ecmp(ctx, iface, from, resp);
            return;
        }

        // Authentication (§3.2): if we have a cached key, validate locally;
        // otherwise pass the key upstream and leave the entry unvalidated
        // until the CountResponse returns. Unauthenticated requests are
        // validated immediately (a router that *knows* the channel requires
        // a key — has one cached — rejects keyless joins).
        let cached = self.ctl.channels.get(&channel).and_then(|s| s.cached_key);
        let (validated, reject) = match (cached, c.key) {
            (Some(k), Some(pk)) => (k == pk, k != pk),
            (Some(_), None) => (false, true),
            (None, Some(_)) => (false, false), // validate upstream
            (None, None) => (true, false),
        };
        if reject {
            self.counters.auth_rejects += 1;
            ctx.count("ecmp.auth_reject", 1);
            let resp = EcmpMessage::from(CountResponse {
                channel,
                count_id: CountId::SUBSCRIBERS,
                status: ResponseStatus::InvalidAuthenticator,
                key: c.key,
            });
            self.send_ecmp(ctx, iface, from, resp);
            return;
        }

        let prev;
        let mut upstream_validation: Option<((IfaceId, Ipv4Addr), u64, ChannelKey)> = None;
        {
            let st = self.state_mut(channel);
            prev = st.downstream.get(&from).map(|e| e.count).unwrap_or(0);
            if c.count == 0 {
                st.downstream.remove(&from);
            } else {
                st.downstream.insert(
                    from,
                    DownstreamEntry {
                        iface,
                        count: c.count,
                        refreshed: now,
                        validated,
                    },
                );
                if !validated {
                    // Queue for upstream validation and forward the key now.
                    let key = c.key.expect("unvalidated implies key present");
                    st.awaiting_validation.push((from, key));
                    if let Some(up) = st.upstream {
                        let validated_sum: u64 =
                            st.downstream.values().filter(|e| e.validated).map(|e| e.count).sum();
                        upstream_validation = Some((up, validated_sum + c.count, key));
                    }
                }
            }
        }
        if c.count == 0 {
            if prev > 0 {
                self.counters.unsubscribes += 1;
                ctx.count("ecmp.unsubscribe", 1);
                ctx.trace("ecmp.unsubscribe", |e| e.chan(channel));
            }
            // §3.2: on a UDP interface, a zero Count triggers a re-query so
            // remaining LAN members re-report (no suppression, like IGMPv3).
            if iface_mode(self.cfg, ctx, iface) == EcmpMode::Udp {
                let q = EcmpMessage::from(CountQuery {
                    channel,
                    count_id: CountId::SUBSCRIBERS,
                    timeout_ms: 1_000,
                    proactive: None,
                });
                self.send_ecmp_multicast(ctx, iface, q);
            }
        } else {
            if prev == 0 {
                self.counters.subscribes += 1;
                ctx.count("ecmp.subscribe", 1);
                ctx.trace("ecmp.subscribe", |e| e.chan(channel).value(c.count));
                // §6: a proactive request "is propagated to all routers in
                // the multicast tree" — including branches that join later.
                let installs: Vec<(CountId, ProactiveParams)> = self
                    .ctl
                    .channels
                    .get(&channel)
                    .map(|s| {
                        s.proactive
                            .iter()
                            .map(|(id, p)| (*id, p.curve.to_wire()))
                            .collect()
                    })
                    .unwrap_or_default();
                for (count_id, params) in installs {
                    let q = EcmpMessage::from(CountQuery {
                        channel,
                        count_id,
                        timeout_ms: 0,
                        proactive: Some(params),
                    });
                    self.send_ecmp(ctx, iface, from, q);
                }
            }
            if let Some(((ui, ua), sum, key)) = upstream_validation {
                let msg = EcmpMessage::from(Count {
                    channel,
                    count_id: CountId::SUBSCRIBERS,
                    count: sum,
                    key: Some(key),
                });
                self.send_ecmp(ctx, ui, ua, msg);
                self.sync_fib(channel);
                return; // upstream propagation continues when validated
            }
            if !validated {
                // Key present but no upstream yet (we are adjacent to the
                // source host): validation happens when the Count reaches
                // the source — handled by ensure_upstream/first-hop case.
                self.sync_fib(channel);
                return;
            }
        }
        self.sync_fib(channel);
        self.propagate_upstream(ctx, channel);
    }

    /// Begin aggregation for a query at this node: create the pending
    /// record, forward downstream, arm the deadline.
    fn start_aggregation(&mut self, ctx: &mut Ctx<'_>, q: CountQuery, reply_to: ReplyTo) {
        let channel = q.channel;
        let count_id = q.count_id;
        let now = ctx.now();

        // Proactive install: remember the curve and push the query down the
        // tree; no aggregation record (updates flow continuously).
        if let Some(p) = q.proactive {
            self.install_proactive(ctx, q, p);
            return;
        }

        let remaining = SimDuration::from_millis(u64::from(q.timeout_ms));
        // §3.1: decrement by a small multiple of the upstream RTT so we
        // time out (and send a partial reply) before our parent does.
        let rtt = match reply_to {
            ReplyTo::Upstream(up) => self.ctl.rtt.entry(up).or_default().hop_decrement(),
            ReplyTo::Local => SimDuration::ZERO,
        };
        let budget = decrement_timeout(remaining, rtt);

        // Downstream targets: every downstream neighbor of the channel;
        // network-layer countIds stop at routers (§3.1 footnote) — they are
        // still *sent* to router neighbors only.
        let st = self.ctl.channels.get(&channel);
        let mut targets: Vec<(IfaceId, Ipv4Addr)> = Vec::new();
        let requester = match reply_to {
            ReplyTo::Upstream(up) => Some(up),
            ReplyTo::Local => None,
        };
        if let Some(st) = st {
            for (addr, e) in &st.downstream {
                if !e.validated {
                    continue;
                }
                // Never reflect a query back at its requester (guards
                // against transiently inconsistent parent/child relations
                // during re-homing).
                if Some(*addr) == requester {
                    continue;
                }
                if count_id.is_network_layer() {
                    let is_router = ctx
                        .resolve(*addr)
                        .map(|n| ctx.topology().kind(n) == NodeKind::Router)
                        .unwrap_or(false);
                    if !is_router {
                        continue;
                    }
                }
                targets.push((e.iface, *addr));
            }
        }

        // Local contribution: routers contribute to network-layer counts
        // (links = active downstream interfaces), not to subscriber or
        // application counts.
        let local = if count_id == CountId::LINKS {
            self.ctl.channels
                .get(&channel)
                .map(|s| u64::from(s.oif_mask().count_ones()))
                .unwrap_or(0)
        } else if count_id == CountId::WEIGHTED_TREE_SIZE {
            // The "weighted tree size measure" of §2.1: each active
            // downstream link contributes its routing metric, so expensive
            // (high-metric) links weigh more in the settlement.
            let node = ctx.node_id();
            self.ctl.channels
                .get(&channel)
                .map(|s| {
                    let mask = s.oif_mask();
                    (0..32u8)
                        .filter(|i| mask & (1 << i) != 0)
                        .filter_map(|i| ctx.topology().link_of(node, IfaceId(i)).ok())
                        .map(|l| u64::from(ctx.topology().link_spec(l).metric))
                        .sum()
                })
                .unwrap_or(0)
        } else {
            0
        };

        self.ctl.pending_gen += 1;
        let generation = self.ctl.pending_gen;
        let deadline = now + budget;
        let pc = PendingCount::new(
            targets.iter().map(|&(_, a)| a),
            local,
            reply_to,
            deadline,
            generation,
        );
        let complete = pc.complete();
        self.ctl.pending.insert((channel, count_id), pc);

        let fwd = CountQuery {
            channel,
            count_id,
            timeout_ms: budget.millis() as u32,
            proactive: None,
        };
        for (iface, addr) in targets {
            self.send_ecmp(ctx, iface, addr, EcmpMessage::from(fwd));
        }

        if complete {
            self.finish_aggregation(ctx, channel, count_id);
        } else {
            self.alloc_timer(
                ctx,
                budget,
                TimerPurpose::QueryDeadline {
                    channel,
                    count_id,
                    generation,
                },
            );
        }
    }

    /// Install proactive counting state and flood the install downstream.
    fn install_proactive(&mut self, ctx: &mut Ctx<'_>, q: CountQuery, p: ProactiveParams) {
        let curve = ErrorToleranceCurve::from_wire(p);
        let now = ctx.now();
        let st = self.state_mut(q.channel);
        st.proactive
            .entry(q.count_id)
            .or_insert_with(|| ProactiveState::new(curve, now));
        let targets: Vec<(IfaceId, Ipv4Addr)> = self
            .ctl
            .channels
            .get(&q.channel)
            .map(|s| s.downstream.iter().map(|(a, e)| (e.iface, *a)).collect())
            .unwrap_or_default();
        for (iface, addr) in targets {
            self.send_ecmp(ctx, iface, addr, EcmpMessage::from(q));
        }
        // Immediately evaluate (first advertisement of the current value).
        self.propagate_upstream(ctx, q.channel);
    }

    /// Complete (fully answered or deadline) an aggregation: emit the total.
    fn finish_aggregation(&mut self, ctx: &mut Ctx<'_>, channel: Channel, count_id: CountId) {
        let Some(pc) = self.ctl.pending.remove(&(channel, count_id)) else { return };
        let total = pc.total();
        match pc.reply_to {
            ReplyTo::Local => {
                self.local_results.push((ctx.now(), channel, count_id, total));
            }
            ReplyTo::Upstream(up) => {
                // Find the interface for the upstream requester.
                let iface = self
                    .ctl
                    .channels
                    .get(&channel)
                    .and_then(|s| s.upstream.filter(|&(_, a)| a == up).map(|(i, _)| i))
                    .or_else(|| ctx.next_hop_ip(up).map(|h| h.iface));
                if let Some(iface) = iface {
                    let msg = EcmpMessage::from(Count {
                        channel,
                        count_id,
                        count: total,
                        key: None,
                    });
                    self.send_ecmp(ctx, iface, up, msg);
                }
            }
        }
    }

    /// Handle an incoming CountQuery (from upstream, or a periodic LAN
    /// query from a neighbor router — a router only *answers* queries for
    /// channels it has downstream state for).
    fn handle_query(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, from: Ipv4Addr, q: CountQuery) {
        self.counters.queries_rx += 1;
        ctx.count("ecmp.query_rx", 1);
        if q.count_id == CountId::NEIGHBORS {
            // Neighbor discovery (§3.3): answer directly.
            let iface = ctx.next_hop_ip(from).map(|h| h.iface).unwrap_or(_iface);
            let msg = EcmpMessage::from(Count {
                channel: q.channel,
                count_id: CountId::NEIGHBORS,
                count: 1,
                key: None,
            });
            self.send_ecmp(ctx, iface, from, msg);
            return;
        }
        if q.count_id == CountId::ALL_CHANNELS {
            // Re-advertise every channel we send upstream via `from`.
            let to_readvertise: Vec<(Channel, u64)> = self
                .ctl
                .channels
                .iter()
                .filter(|(_, s)| s.upstream.map(|(_, a)| a) == Some(from) && s.advertised > 0)
                .map(|(c, s)| (*c, s.aggregate()))
                .collect();
            for (chan, agg) in to_readvertise {
                let key = self.ctl.channels.get(&chan).and_then(|s| s.cached_key);
                let iface = self.ctl.channels.get(&chan).and_then(|s| s.upstream.map(|(i, _)| i));
                if let Some(iface) = iface {
                    let msg = EcmpMessage::from(Count {
                        channel: chan,
                        count_id: CountId::SUBSCRIBERS,
                        count: agg,
                        key,
                    });
                    self.send_ecmp(ctx, iface, from, msg);
                }
            }
            return;
        }
        self.start_aggregation(ctx, q, ReplyTo::Upstream(from));
    }

    /// Handle an incoming Count.
    fn handle_count(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, c: Count) {
        self.counters.counts_rx += 1;
        ctx.count("ecmp.count_rx", 1);

        // 1. Does it answer an outstanding aggregation?
        if let Some(pc) = self.ctl.pending.get_mut(&(c.channel, c.count_id)) {
            if pc.record(from, c.count) {
                if pc.complete() {
                    self.finish_aggregation(ctx, c.channel, c.count_id);
                }
                // subscriberId replies also refresh tree state below.
                if c.count_id != CountId::SUBSCRIBERS {
                    return;
                }
            }
        }

        match c.count_id {
            CountId::SUBSCRIBERS => self.handle_tree_count(ctx, iface, from, c),
            CountId::NEIGHBORS => {
                // A probe answer: record the neighbor and take an RTT
                // sample against the probe we sent on this interface.
                let now = ctx.now();
                self.ctl.neighbors.insert(from, (iface, now));
                if let Some(sent) = self.ctl.probe_sent.get(&iface) {
                    let sample = now.since(*sent);
                    if sample > SimDuration::ZERO {
                        self.ctl.rtt.entry(from).or_default().sample(sample);
                    }
                }
            }
            id if (id.is_application_defined() || id.is_network_layer() || id.is_locally_defined())
                && self
                    .ctl
                    .channels
                    .get(&c.channel)
                    .map(|s| s.proactive.contains_key(&id))
                    .unwrap_or(false)
                => {
                    // Proactive update from downstream for a maintained
                    // count (§6 works "for any countId"): record the
                    // neighbor's latest value and push upstream through our
                    // own error-tolerance curve.
                    if let Some(st) = self.ctl.channels.get_mut(&c.channel) {
                        st.proactive_values.entry(id).or_default().insert(from, c.count);
                    }
                    self.propagate_generic_proactive(ctx, c.channel, id);
                }
            _ => {}
        }
    }

    /// Handle a CountResponse: authentication verdicts travelling back
    /// down the tree (§3.2).
    fn handle_response(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, _from: Ipv4Addr, r: CountResponse) {
        let channel = r.channel;
        let Some(st) = self.ctl.channels.get_mut(&channel) else { return };
        // The verdict applies to the echoed key only (several validations
        // with different keys can be in flight simultaneously).
        let waiting: Vec<(Ipv4Addr, ChannelKey)> = match r.key {
            Some(k) => {
                let (matched, rest): (Vec<_>, Vec<_>) =
                    std::mem::take(&mut st.awaiting_validation).into_iter().partition(|(_, wk)| *wk == k);
                st.awaiting_validation = rest;
                matched
            }
            None => std::mem::take(&mut st.awaiting_validation),
        };
        if waiting.is_empty() {
            return;
        }
        match r.status {
            ResponseStatus::Ok => {
                // Cache the validated key (§3.2) and mark entries validated.
                if self.cfg.cache_keys {
                    if let Some((_, key)) = waiting.first() {
                        st.cached_key = Some(*key);
                    }
                }
                for (addr, _) in &waiting {
                    if let Some(e) = st.downstream.get_mut(addr) {
                        e.validated = true;
                    }
                }
                let targets: Vec<(IfaceId, Ipv4Addr)> = waiting
                    .iter()
                    .filter_map(|(a, _)| st.downstream.get(a).map(|e| (e.iface, *a)))
                    .collect();
                for (ifc, addr) in targets {
                    let msg = EcmpMessage::from(CountResponse {
                        channel,
                        count_id: r.count_id,
                        status: ResponseStatus::Ok,
                        key: r.key,
                    });
                    self.send_ecmp(ctx, ifc, addr, msg);
                }
                self.sync_fib(channel);
                self.propagate_upstream(ctx, channel);
            }
            status => {
                self.counters.auth_rejects += waiting.len() as u64;
                ctx.count("ecmp.auth_reject", waiting.len() as u64);
                // Forward the denial and tear down *tentative* entries. A
                // downstream neighbor may carry joins under several keys
                // (e.g. an edge router with both valid and invalid
                // subscribers behind it): the denial for one key must not
                // destroy the neighbor's entry if it is already validated
                // or still has other keys awaiting validation.
                let mut targets = Vec::new();
                for (addr, _) in &waiting {
                    let keep = st
                        .downstream
                        .get(addr)
                        .map(|e| e.validated)
                        .unwrap_or(false)
                        || st.awaiting_validation.iter().any(|(a, _)| a == addr);
                    if keep {
                        if let Some(e) = st.downstream.get(addr) {
                            targets.push((e.iface, *addr));
                        }
                    } else if let Some(e) = st.downstream.remove(addr) {
                        targets.push((e.iface, *addr));
                    }
                }
                for (ifc, addr) in targets {
                    let msg = EcmpMessage::from(CountResponse {
                        channel,
                        count_id: r.count_id,
                        status,
                        key: r.key,
                    });
                    self.send_ecmp(ctx, ifc, addr, msg);
                }
                self.sync_fib(channel);
                self.propagate_upstream(ctx, channel);
            }
        }
    }

    /// UDP-mode expiry sweep + periodic general query on one interface.
    fn udp_refresh(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let now = ctx.now();
        let horizon = self.cfg.udp_refresh.saturating_mul(u64::from(self.cfg.udp_robustness));
        let mut dirty: Vec<Channel> = Vec::new();
        for (chan, st) in self.ctl.channels.iter_mut() {
            let before = st.downstream.len();
            st.downstream
                .retain(|_, e| e.iface != iface || now.since(e.refreshed) <= horizon);
            if st.downstream.len() != before {
                dirty.push(*chan);
            }
        }
        for chan in dirty {
            self.counters.unsubscribes += 1;
            ctx.count("ecmp.expire", 1);
            self.sync_fib(chan);
            self.propagate_upstream(ctx, chan);
        }
        // General query soliciting Counts for all channels (§3.3).
        let q = EcmpMessage::from(CountQuery {
            channel: Channel::new(Ipv4Addr::ECMP_LOCALHOST_SOURCE, 0).expect("wellknown"),
            count_id: CountId::ALL_CHANNELS,
            timeout_ms: 1_000,
            proactive: None,
        });
        self.send_ecmp_multicast(ctx, iface, q);
        let delay = self.cfg.udp_refresh;
        self.alloc_timer(ctx, delay, TimerPurpose::UdpRefresh { iface });
    }

    /// Send a §3.3 neighbor-discovery CountQuery on one interface and
    /// re-arm the timer; expire neighbors not heard from in 3 intervals.
    ///
    /// Expiry doubles as the §3.2 TCP-mode keepalive: "a single per-neighbor
    /// keepalive is sufficient to detect a connection failure. The
    /// associated count is subtracted from the sum provided upstream if the
    /// connection fails." A neighbor that was once discovered and stops
    /// answering has its downstream channel state torn down.
    fn neighbor_probe(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let Some(interval) = self.cfg.neighbor_probe else { return };
        let now = ctx.now();
        self.ctl.probe_sent.insert(iface, now);
        let q = EcmpMessage::from(CountQuery {
            channel: Channel::new(Ipv4Addr::ECMP_LOCALHOST_SOURCE, 0).expect("wellknown"),
            count_id: CountId::NEIGHBORS,
            timeout_ms: interval.millis() as u32,
            proactive: None,
        });
        self.send_ecmp_multicast(ctx, iface, q);
        let horizon = interval.saturating_mul(3);
        let mut dead: Vec<Ipv4Addr> = Vec::new();
        self.ctl.neighbors.retain(|addr, (_, heard)| {
            let alive = now.since(*heard) <= horizon;
            if !alive {
                dead.push(*addr);
            }
            alive
        });
        for addr in dead {
            let mut dirty = Vec::new();
            for (chan, st) in self.ctl.channels.iter_mut() {
                if st.downstream.remove(&addr).is_some() {
                    dirty.push(*chan);
                }
            }
            for chan in dirty {
                self.counters.unsubscribes += 1;
                ctx.count("ecmp.keepalive_prune", 1);
                self.sync_fib(chan);
                self.propagate_upstream(ctx, chan);
            }
        }
        self.alloc_timer(ctx, interval, TimerPurpose::NeighborProbe { iface });
    }

    /// Re-evaluate RPF for every channel after a routing change; apply or
    /// schedule (hysteresis) the §3.2 re-home.
    fn reevaluate_upstreams(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let channels: Vec<Channel> = self.ctl.channels.keys().copied().collect();
        for chan in channels {
            let new_hop = ctx.rpf(chan.source).map(|h| (h.iface, ctx.ip_of(h.next)));
            let st = self.ctl.channels.get_mut(&chan).expect("listed");
            let old = st.upstream;
            if new_hop == old {
                continue;
            }
            if now < st.hold_down_until {
                if !st.rehome_pending {
                    st.rehome_pending = true;
                    let delay = st.hold_down_until.since(now);
                    self.alloc_timer(ctx, delay, TimerPurpose::HysteresisExpire { channel: chan });
                }
                continue;
            }
            self.apply_rehome(ctx, chan, new_hop);
        }
    }

    fn apply_rehome(&mut self, ctx: &mut Ctx<'_>, chan: Channel, new_hop: Option<(IfaceId, Ipv4Addr)>) {
        let now = ctx.now();
        let Some(st) = self.ctl.channels.get_mut(&chan) else { return };
        let old = st.upstream;
        if new_hop == old {
            st.rehome_pending = false;
            return;
        }
        st.upstream = new_hop;
        st.hold_down_until = now + self.cfg.hysteresis;
        st.rehome_pending = false;
        let agg = st.aggregate();
        let key = st.cached_key;
        self.counters.rehomes += 1;
        ctx.count("ecmp.rehome", 1);
        ctx.trace("ecmp.rehome", |e| {
            let hop = |h: Option<(IfaceId, Ipv4Addr)>| match h {
                Some((i, a)) => format!("{i}/{a}"),
                None => "none".to_string(),
            };
            e.chan(chan).value(agg).detail(format!("{} -> {}", hop(old), hop(new_hop)))
        });
        // §3.2: "it sends a current Count message to the new upstream router
        // and a zero Count message to the old upstream router".
        if let Some((ni, na)) = new_hop {
            if agg > 0 {
                let msg = EcmpMessage::from(Count {
                    channel: chan,
                    count_id: CountId::SUBSCRIBERS,
                    count: agg,
                    key,
                });
                self.send_ecmp(ctx, ni, na, msg);
                if let Some(stm) = self.ctl.channels.get_mut(&chan) {
                    stm.advertised = agg;
                }
            }
        }
        if let Some((oi, oa)) = old {
            let msg = EcmpMessage::from(Count {
                channel: chan,
                count_id: CountId::SUBSCRIBERS,
                count: 0,
                key: None,
            });
            self.send_ecmp(ctx, oi, oa, msg);
        }
        self.sync_fib(chan);
        // Orphaned with subscribers below us (the upstream crashed or the
        // network partitioned): arm the exponential-backoff re-join so the
        // subtree reattaches as soon as a route to the source reappears.
        if new_hop.is_none() && agg > 0 {
            self.arm_rejoin_retry(ctx, chan, 0);
        }
    }

    /// Arm the backoff re-join retry for an orphaned channel.
    fn arm_rejoin_retry(&mut self, ctx: &mut Ctx<'_>, chan: Channel, attempt: u32) {
        let Some(base) = self.cfg.rejoin_backoff else { return };
        let Some(st) = self.ctl.channels.get_mut(&chan) else { return };
        if st.rejoin_pending {
            return;
        }
        st.rejoin_pending = true;
        let delay = SimDuration::from_micros(
            base.micros()
                .saturating_mul(1u64 << attempt.min(20))
                .min(self.cfg.rejoin_backoff_max.micros()),
        );
        self.alloc_timer(ctx, delay, TimerPurpose::RejoinRetry { channel: chan, attempt });
    }

    /// The backoff timer fired: re-join if a route to the source exists
    /// now, otherwise double the delay and try again.
    fn rejoin_retry(&mut self, ctx: &mut Ctx<'_>, chan: Channel, attempt: u32) {
        let Some(st) = self.ctl.channels.get_mut(&chan) else { return };
        st.rejoin_pending = false;
        if st.upstream.is_some() || st.aggregate() == 0 {
            return; // recovered via a route change, or nothing left to join
        }
        self.counters.rejoin_retries += 1;
        ctx.count("ecmp.rejoin_retry", 1);
        ctx.trace("ecmp.rejoin_retry", |e| e.chan(chan).value(attempt as u64));
        match ctx.rpf(chan.source).map(|h| (h.iface, ctx.ip_of(h.next))) {
            Some(hop) => {
                // apply_rehome sends the current aggregate upstream — the
                // re-join proper (§3.2's Count to the new upstream router).
                self.apply_rehome(ctx, chan, Some(hop));
            }
            None => self.arm_rejoin_retry(ctx, chan, attempt.saturating_add(1)),
        }
    }

    /// A TCP-mode connection re-established (link restored, or the
    /// neighbor restarted after a crash): re-send our aggregate for every
    /// channel homed on `iface` so an upstream that lost its soft state
    /// re-learns the subtree. Idempotent for an upstream that kept its
    /// state — the Count simply confirms the value it already holds.
    fn readvertise_on(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let mut readvertise: Vec<(Channel, u64, Option<ChannelKey>)> = Vec::new();
        for (chan, st) in self.ctl.channels.iter_mut() {
            if let Some((ui, _)) = st.upstream {
                if ui == iface {
                    let agg = st.aggregate();
                    if agg > 0 {
                        st.advertised = agg;
                        readvertise.push((*chan, agg, st.cached_key));
                    }
                }
            }
        }
        for (chan, agg, key) in readvertise {
            let Some(st) = self.ctl.channels.get(&chan) else { continue };
            let Some((ui, ua)) = st.upstream else { continue };
            ctx.count("ecmp.readvertise", 1);
            let msg = EcmpMessage::from(Count {
                channel: chan,
                count_id: CountId::SUBSCRIBERS,
                count: agg,
                key,
            });
            self.send_ecmp(ctx, ui, ua, msg);
        }
    }

    /// §3.2 TCP mode: "The associated count is subtracted from the sum
    /// provided upstream if the connection fails." Remove every
    /// downstream entry learned over the dead interface.
    fn prune_behind(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let mut dirty = Vec::new();
        for (chan, st) in self.ctl.channels.iter_mut() {
            let before = st.downstream.len();
            st.downstream.retain(|_, e| e.iface != iface);
            if st.downstream.len() != before {
                dirty.push(*chan);
            }
        }
        for chan in dirty {
            self.counters.unsubscribes += 1;
            ctx.count("ecmp.conn_fail_prune", 1);
            self.sync_fib(chan);
            self.propagate_upstream(ctx, chan);
        }
    }
}

impl Agent for EcmpRouter {
    fn kind_name(&self) -> &'static str {
        "ecmp_router"
    }

    fn hot_packet_fn(&self) -> Option<netsim::HotPacketFn> {
        Some(netsim::hot_packet_stub::<Self>())
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.fwd.intern_counters(ctx);
        let cfg = self.cfg;
        for i in 0..ctx.iface_count() {
            let iface = IfaceId(i as u8);
            // Arm the periodic UDP-mode refresh on every multi-access interface.
            if iface_mode(&cfg, ctx, iface) == EcmpMode::Udp {
                let mut control = self.control();
                control.alloc_timer(ctx, cfg.udp_refresh, TimerPurpose::UdpRefresh { iface });
                // Startup query: a router restarting after a crash solicits
                // Counts immediately so edge subscriptions re-aggregate
                // within a round-trip instead of a refresh interval.
                if cfg.boot_query {
                    let q = EcmpMessage::from(CountQuery {
                        channel: Channel::new(Ipv4Addr::ECMP_LOCALHOST_SOURCE, 0).expect("wellknown"),
                        count_id: CountId::ALL_CHANNELS,
                        timeout_ms: 1_000,
                        proactive: None,
                    });
                    control.send_ecmp_multicast(ctx, iface, q);
                    ctx.count("ecmp.boot_query", 1);
                }
            }
            // §3.3 neighbor discovery on every interface. Stagger the first
            // probe so a cold-started network doesn't thunder.
            if let Some(interval) = cfg.neighbor_probe {
                let first = SimDuration::from_micros(
                    interval.micros() / 10 + (u64::from(iface.0) + 1) * 1_000,
                );
                self.control().alloc_timer(ctx, first, TimerPurpose::NeighborProbe { iface });
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        let me = ctx.my_ip();
        // Only the ECMP arm can queue control messages, so only it flushes.
        match packets::classify(bytes, me) {
            Ok(Classified::ChannelData { channel, header }) => {
                self.fwd.forward_data(&mut self.counters, ctx, iface, bytes, channel, header);
            }
            Ok(Classified::Ecmp { from, messages, .. }) => {
                let mut control = self.control();
                for m in messages {
                    match m {
                        EcmpMessage::CountQuery(q) => control.handle_query(ctx, iface, from, q),
                        EcmpMessage::Count(c) => control.handle_count(ctx, iface, from, c),
                        EcmpMessage::CountResponse(r) => control.handle_response(ctx, iface, from, r),
                    }
                }
                control.flush_tx(ctx);
            }
            Ok(Classified::Encapsulated { outer, inner }) => {
                self.fwd.forward_subcast(&mut self.counters, ctx, outer, inner);
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
        let Some(mut control) = self.control_if_any() else { return };
        let Some(purpose) = control.ctl.timer_meta.remove(&token) else { return };
        match purpose {
            TimerPurpose::QueryDeadline {
                channel,
                count_id,
                generation,
            } => {
                let live = control
                    .ctl
                    .pending
                    .get(&(channel, count_id))
                    .map(|p| p.generation == generation)
                    .unwrap_or(false);
                if live {
                    ctx.count("ecmp.query_timeout", 1);
                    control.finish_aggregation(ctx, channel, count_id);
                }
            }
            TimerPurpose::UdpRefresh { iface } => control.udp_refresh(ctx, iface),
            TimerPurpose::ProactiveCheck {
                channel,
                count_id,
                generation,
            } => {
                let live = control
                    .ctl
                    .channels
                    .get(&channel)
                    .and_then(|s| s.proactive.get(&count_id))
                    .map(|p| p.generation == generation)
                    .unwrap_or(false);
                if live {
                    if count_id == CountId::SUBSCRIBERS {
                        control.propagate_upstream(ctx, channel);
                    } else {
                        control.propagate_generic_proactive(ctx, channel, count_id);
                    }
                }
            }
            TimerPurpose::HysteresisExpire { channel } => {
                let new_hop = ctx.rpf(channel.source).map(|h| (h.iface, ctx.ip_of(h.next)));
                control.apply_rehome(ctx, channel, new_hop);
            }
            TimerPurpose::NeighborProbe { iface } => control.neighbor_probe(ctx, iface),
            TimerPurpose::LocalCount {
                channel,
                count_id,
                timeout,
            } => control.initiate_count(ctx, channel, count_id, timeout),
            TimerPurpose::RejoinRetry { channel, attempt } => control.rejoin_retry(ctx, channel, attempt),
        }
        control.flush_tx(ctx);
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        let Some(mut control) = self.control_if_any() else { return };
        if up {
            control.readvertise_on(ctx, iface);
        } else {
            control.prune_behind(ctx, iface);
        }
        control.flush_tx(ctx);
    }

    fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
        let Some(mut control) = self.control_if_any() else { return };
        control.reevaluate_upstreams(ctx);
        control.flush_tx(ctx);
    }

    fn audit_state(&self, _topo: &Topology, _node: NodeId) -> Option<AuditNodeState> {
        let route = |(chan, st): (&Channel, &ChannelState)| AuditRoute {
            channel: chan.to_string(),
            oif_mask: u64::from(st.oif_mask()),
            upstream_iface: st.upstream.map(|(iface, _)| iface),
            advertised: Some(st.advertised),
            downstream_sum: Some(st.aggregate()),
        };
        let mut routes: Vec<AuditRoute> = self
            .channels()
            .map_or_else(Vec::new, |m| m.iter().map(route).collect());
        routes.sort_by(|a, b| a.channel.cmp(&b.channel));
        Some(AuditNodeState { routes, ..Default::default() })
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
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
    fn static_route_line() -> (Sim, [NodeId; 3], Channel) {
        let mut topo = Topology::new();
        let (src, r, sink) = (topo.add_host(), topo.add_router(), topo.add_host());
        topo.connect(src, r, LinkSpec::default()).unwrap();
        topo.connect(r, sink, LinkSpec::default()).unwrap();
        let chan = Channel::new(topo.ip(src), 1).unwrap();
        let mut sim = Sim::new(topo, 1);
        let mut router = EcmpRouter::new(quiet_cfg());
        router.install_static_route(FibEntry::new(chan, 0, 0b10).unwrap());
        sim.set_agent(r, Box::new(router));
        sim.set_agent(src, Box::new(Scripted::default()));
        sim.set_agent(sink, Box::new(Scripted::default()));
        (sim, [src, r, sink], chan)
    }

    fn script(sim: &mut Sim, host: NodeId, sends: Vec<(u64, TrafficClass, Vec<u8>)>) {
        sim.agent_as::<Scripted>(host).unwrap().sends = sends;
    }

    #[test]
    fn ttl_expired_data_is_a_ttl_drop_and_not_a_forward() {
        let (mut sim, [src, r, sink], chan) = static_route_line();
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
        assert_eq!(router.counters.data_forwarded, 0);
        assert_eq!(router.counters.data_no_entry, 1);
    }

    #[test]
    fn router_size_is_pinned() {
        // 320 B on x86-64: config 64, forwarding plane 128, control-plane
        // pointer 8, results 24, counters 96 (docs/INTERNALS.md §8). The
        // bound is the largest size whose glibc chunk is still 336 B — the
        // whole per-router heap of a one-route forwarding hop.
        assert!(std::mem::size_of::<EcmpRouter>() <= 328, "{}", std::mem::size_of::<EcmpRouter>());
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
        let (mut sim, [src, r, sink], chan) = static_route_line();
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
        script(&mut sim, sink, vec![(500, TrafficClass::Control, join)]);

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
        assert_eq!(router.counters.data_forwarded, PACKETS);
        assert!(router.ctl.is_none(), "forwarding, a flap, a route change and a stray timer allocate nothing");
        let empty = EcmpRouter {
            ctl: Some(Box::default()),
            ..EcmpRouter::new(quiet_cfg())
        };
        assert_eq!(
            control_view(router, &topo, r, chan, sink_ip),
            control_view(&empty, &topo, r, chan, sink_ip),
            "absent ≡ empty"
        );

        // The first Count allocates it, and is a join like any other.
        sim.run_until(SimTime(1_000_000));
        let router = sim.agent_as::<EcmpRouter>(r).unwrap();
        assert!(router.ctl.is_some());
        assert_eq!(router.counters.subscribes, 1);
        assert_eq!(router.downstream_of(chan), vec![(sink_ip, 1, true)]);
        assert_eq!(router.upstream_of(chan), Some(src_ip));
        assert_eq!(router.counters.counts_tx, 1, "the join went on toward the source");
        assert!(sim.agent_as::<Scripted>(src).unwrap().got >= 1);
    }

    #[test]
    fn router_config_defaults_sane() {
        let c = RouterConfig::default();
        assert!(c.udp_refresh > SimDuration::ZERO);
        assert!(c.udp_robustness >= 1);
        assert!(c.mode_override.is_none());
    }

    #[test]
    fn channel_state_aggregate_and_mask() {
        let mut st = ChannelState::new();
        st.downstream.insert(
            Ipv4Addr::new(10, 0, 0, 2),
            DownstreamEntry {
                iface: IfaceId(1),
                count: 3,
                refreshed: SimTime::ZERO,
                validated: true,
            },
        );
        st.downstream.insert(
            Ipv4Addr::new(10, 0, 0, 3),
            DownstreamEntry {
                iface: IfaceId(2),
                count: 2,
                refreshed: SimTime::ZERO,
                validated: false, // pending auth: excluded from both
            },
        );
        assert_eq!(st.aggregate(), 3);
        assert_eq!(st.oif_mask(), 0b10);
        assert!(st.mgmt_state_bytes() > 0);
    }
}
