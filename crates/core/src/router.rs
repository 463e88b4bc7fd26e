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
use crate::table::{channel_key, InlineSet, Keyed, Table};
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{
    Batch, ChannelKey, Count, CountId, CountQuery, CountResponse, EcmpMessage, ProactiveParams,
    ResponseStatus,
};
use express_wire::fib::FibEntry;
use netsim::audit::{AuditNodeState, AuditRoute};
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::topology::Topology;
use netsim::stats::{CounterId, TrafficClass};
use netsim::time::{SimDuration, SimTime};
use netsim::transport::RttEstimator;
use netsim::NodeKind;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

mod forward;
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

/// Missed refresh rounds before a UDP-mode downstream entry expires.
const UDP_ROBUSTNESS: u64 = 2;

/// Base delay of the exponential-backoff re-join retry: when a channel
/// still has subscribers but RPF yields no upstream (partition, or the
/// upstream crashed and routing has not re-converged), the router retries
/// the join at this delay, then twice it, four times it, … capped at
/// [`REJOIN_BACKOFF_MAX`], until a route exists.
const REJOIN_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// Ceiling for the re-join backoff delay.
const REJOIN_BACKOFF_MAX: SimDuration = SimDuration::from_secs(30);

/// What a pending timer means (tokens are keys of `Timers::meta`).
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
    /// backoff; see [`REJOIN_BACKOFF`]).
    RejoinRetry { channel: Channel, attempt: u32 },
}

/// One downstream neighbor's contribution to a channel.
#[derive(Debug, Clone, Copy)]
struct DownstreamEntry {
    addr: Ipv4Addr,
    iface: IfaceId,
    /// Latest subscriberId count reported by this neighbor's subtree.
    count: u64,
    /// Last time the entry was confirmed (UDP-mode expiry).
    refreshed: SimTime,
    /// Subscription accepted (auth passed or channel unauthenticated).
    validated: bool,
}

impl Keyed for DownstreamEntry {
    type Key = Ipv4Addr;

    fn key(&self) -> Ipv4Addr {
        self.addr
    }
}

/// One proactively maintained count of a channel (§6).
#[derive(Debug, Clone)]
struct Proactive {
    state: ProactiveState,
    /// Latest downstream values of a generic (non-subscriberId) count, by
    /// neighbor.
    values: BTreeMap<Ipv4Addr, u64>,
}

/// The part of a channel's state most channels never have: authentication
/// and proactive counting. Allocated by the first key or curve the channel
/// sees.
#[derive(Debug, Clone, Default)]
struct ChannelExtra {
    /// Cached channel key, learned from a validated subscription (§3.2:
    /// "a valid key is cached so that further authenticated requests can be
    /// denied or accepted locally").
    cached_key: Option<ChannelKey>,
    /// Downstream requesters whose keys are awaiting upstream validation.
    awaiting_validation: Vec<(Ipv4Addr, ChannelKey)>,
    /// Proactive counting state per countId.
    proactive: BTreeMap<CountId, Proactive>,
}

/// Per-channel protocol state ("management-level state", §5.2): one
/// record, its downstream neighbors in place, filed in the control plane's
/// table under the channel it carries.
#[derive(Debug, Clone)]
struct ChannelState {
    channel: Channel,
    /// Toward the source: (interface, upstream neighbor address).
    upstream: Option<(IfaceId, Ipv4Addr)>,
    /// Downstream neighbors by address.
    downstream: InlineSet<DownstreamEntry>,
    /// subscriberId total we last sent upstream (join when 0→n, prune on →0).
    advertised: u64,
    /// No re-home before this time.
    hold_down_until: SimTime,
    /// A re-home is scheduled (avoid duplicate timers).
    rehome_pending: bool,
    /// A backoff re-join retry is armed (avoid duplicate timers).
    rejoin_pending: bool,
    extra: Option<Box<ChannelExtra>>,
}

impl Keyed for ChannelState {
    type Key = u64;

    fn key(&self) -> u64 {
        channel_key(self.channel)
    }
}

impl ChannelState {
    fn new(channel: Channel) -> Self {
        ChannelState {
            channel,
            upstream: None,
            downstream: InlineSet::new(),
            advertised: 0,
            hold_down_until: SimTime::ZERO,
            rehome_pending: false,
            rejoin_pending: false,
            extra: None,
        }
    }

    /// Current subscriberId aggregate over all downstream neighbors.
    fn aggregate(&self) -> u64 {
        self.downstream.iter().filter(|e| e.validated).map(|e| e.count).sum()
    }

    /// Outgoing-interface mask: interfaces with any validated subscriber
    /// weight.
    fn oif_mask(&self) -> u32 {
        let mut m = 0u32;
        for e in self.downstream.iter() {
            if e.validated && e.count > 0 {
                m |= 1 << e.iface.0;
            }
        }
        m
    }

    fn cached_key(&self) -> Option<ChannelKey> {
        self.extra.as_ref().and_then(|x| x.cached_key)
    }

    fn extra_mut(&mut self) -> &mut ChannelExtra {
        self.extra.get_or_insert_with(Box::default)
    }

    /// Nothing left to keep the record for: fully pruned, the prune sent,
    /// no validation in flight.
    fn spent(&self) -> bool {
        self.aggregate() == 0
            && self.advertised == 0
            && self.extra.as_ref().is_none_or(|x| x.awaiting_validation.is_empty())
    }

    /// Approximate DRAM footprint of this record, for the §5.2 experiment:
    /// one upstream + per-downstream records + key (the paper budgets
    /// ~200 bytes/channel).
    fn mgmt_state_bytes(&self) -> usize {
        32 + self.downstream.len() * 32 + if self.cached_key().is_some() { 8 } else { 0 }
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

/// Handles of the `ecmp.*` counters a message or a re-home bumps, interned
/// once per control plane (registration alone surfaces nothing; the names
/// in `docs/OBSERVABILITY.md` are what the handles stand for).
#[derive(Debug, Clone, Copy)]
struct EcmpCounters {
    count_tx: CounterId,
    count_rx: CounterId,
    query_tx: CounterId,
    query_rx: CounterId,
    response_tx: CounterId,
    subscribe: CounterId,
    unsubscribe: CounterId,
    batched_msgs: CounterId,
    rehome: CounterId,
    readvertise: CounterId,
    conn_fail_prune: CounterId,
    rejoin_retry: CounterId,
    expire: CounterId,
    keepalive_prune: CounterId,
    query_timeout: CounterId,
    boot_query: CounterId,
    auth_reject: CounterId,
}

impl EcmpCounters {
    fn intern(ctx: &mut Ctx<'_>) -> Self {
        EcmpCounters {
            count_tx: ctx.counter("ecmp.count_tx"),
            count_rx: ctx.counter("ecmp.count_rx"),
            query_tx: ctx.counter("ecmp.query_tx"),
            query_rx: ctx.counter("ecmp.query_rx"),
            response_tx: ctx.counter("ecmp.response_tx"),
            subscribe: ctx.counter("ecmp.subscribe"),
            unsubscribe: ctx.counter("ecmp.unsubscribe"),
            batched_msgs: ctx.counter("ecmp.batched_msgs"),
            rehome: ctx.counter("ecmp.rehome"),
            readvertise: ctx.counter("ecmp.readvertise"),
            conn_fail_prune: ctx.counter("ecmp.conn_fail_prune"),
            rejoin_retry: ctx.counter("ecmp.rejoin_retry"),
            expire: ctx.counter("ecmp.expire"),
            keepalive_prune: ctx.counter("ecmp.keepalive_prune"),
            query_timeout: ctx.counter("ecmp.query_timeout"),
            boot_query: ctx.counter("ecmp.boot_query"),
            auth_reject: ctx.counter("ecmp.auth_reject"),
        }
    }
}

/// Armed timers: token → what it is for.
#[derive(Default)]
struct Timers {
    meta: BTreeMap<u64, TimerPurpose>,
    next: u64,
}

impl Timers {
    /// A fresh timer token standing for `purpose`.
    fn token(&mut self, purpose: TimerPurpose) -> u64 {
        let token = self.next;
        self.next += 1;
        self.meta.insert(token, purpose);
        token
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration, purpose: TimerPurpose) {
        let token = self.token(purpose);
        ctx.set_timer(delay, token);
    }
}

/// A unicast ECMP message waiting for the end of the dispatch.
type Queued = (IfaceId, Ipv4Addr, EcmpMessage);

/// What the control plane knows, each map in ascending key order: whatever
/// a handler does per channel, neighbor or interface, it does in an order
/// its contents fix.
#[derive(Default)]
struct Tables {
    channels: Table<ChannelState>,
    /// Outstanding aggregations; boxed, so a router that answers a query
    /// now and then does not hold a map node sized for eleven of them.
    pending: BTreeMap<(Channel, CountId), Box<PendingCount>>,
    pending_gen: u64,
    rtt: BTreeMap<Ipv4Addr, RttEstimator>,
    /// Discovered EXPRESS neighbors: address → (interface, last heard).
    neighbors: BTreeMap<Ipv4Addr, (IfaceId, SimTime)>,
    /// When the last neighbor probe went out on each interface.
    probe_sent: BTreeMap<IfaceId, SimTime>,
}

/// The control plane: everything ECMP keeps beyond the FIB — the
/// "management-level state" the paper's §5.2 prices apart from the fast
/// path's memory. A router holds none until something needs it (see
/// [`EcmpRouter`]).
#[derive(Default)]
struct ControlPlane {
    tables: Tables,
    timers: Timers,
    /// Unicast ECMP messages queued within the current event dispatch,
    /// flushed (batched per neighbor) before the callback returns. Empty
    /// between dispatches; its capacity is kept.
    txq: Vec<Queued>,
    /// Interned by the first dispatch that reaches the control plane, which
    /// is also where the router starts listening for route changes (see
    /// [`EcmpRouter::control_if_any`]).
    ids: Option<EcmpCounters>,
    /// Locally-initiated count results (router-initiated queries, §3.1).
    local_results: Vec<LocalResult>,
    /// The control-side [`RouterCounters`]; its `data_*` fields stay zero
    /// (the forwarding plane has those).
    counters: RouterCounters,
}

/// One finished router-initiated count: `(when, channel, countId, total)`.
type LocalResult = (SimTime, Channel, CountId, u64);

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
    /// first: see [`initiate_count`](Self::initiate_count) and
    /// [`schedule_local_count`](Self::schedule_local_count).
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
        let token = router.ctl.get_or_insert_with(Box::default).timers.token(TimerPurpose::LocalCount {
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
        self.control(ctx).initiate_count(ctx, channel, count_id, timeout);
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
        let ControlPlane { tables, timers, txq, ids, local_results, counters } = self.ctl.as_deref_mut()?;
        let ids = *ids.get_or_insert_with(|| {
            ctx.watch_topology();
            EcmpCounters::intern(ctx)
        });
        Some(Control {
            port: Port {
                cfg: self.cfg,
                fib: &mut self.fwd.fib,
                counters,
                ids,
                txq,
                timers,
            },
            local_results,
            t: tables,
        })
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

/// The general query of §3.3: solicits Counts for all channels.
fn general_query(count_id: CountId, timeout_ms: u32) -> EcmpMessage {
    EcmpMessage::from(CountQuery {
        channel: Channel::new(Ipv4Addr::ECMP_LOCALHOST_SOURCE, 0).expect("wellknown"),
        count_id,
        timeout_ms,
        proactive: None,
    })
}

/// The RPF next hop toward `source` as a channel's upstream.
fn rpf_hop(ctx: &mut Ctx<'_>, source: Ipv4Addr) -> Option<(IfaceId, Ipv4Addr)> {
    ctx.rpf(source).map(|h| (h.iface, ctx.ip_of(h.next)))
}

/// The router around one channel record: everything a step of the protocol
/// reads or writes while it holds the record — the sending side, the
/// timers, the FIB — and nothing the record was looked up in.
struct Port<'a> {
    cfg: &'static RouterConfig,
    fib: &'a mut Fib,
    counters: &'a mut RouterCounters,
    ids: EcmpCounters,
    txq: &'a mut Vec<Queued>,
    timers: &'a mut Timers,
}

impl Port<'_> {
    /// Queue a unicast ECMP message for `to` out `iface`. Messages queued
    /// during one event dispatch to the same neighbor are coalesced into one
    /// TCP-mode segment by [`flush`](Self::flush) — the §5.3 batching
    /// ("approximately 92 ... Count messages fit in a ... TCP segment"),
    /// exercised live whenever one event produces several messages for one
    /// neighbor (ALL_CHANNELS re-advertisement, re-homing, multi-channel
    /// teardown on link failure).
    fn send(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, to: Ipv4Addr, msg: impl Into<EcmpMessage>) {
        let msg = msg.into();
        match msg {
            EcmpMessage::Count(c) => {
                self.counters.counts_tx += 1;
                ctx.count_id(self.ids.count_tx, 1);
                // Per-(base, channel) handle: no per-message key formatting,
                // and the trace keeps the channel as a field of its own.
                ctx.count_channel("ecmp.count_msgs", c.channel, 1);
            }
            EcmpMessage::CountQuery(_) => ctx.count_id(self.ids.query_tx, 1),
            EcmpMessage::CountResponse(_) => ctx.count_id(self.ids.response_tx, 1),
        }
        self.txq.push((iface, to, msg));
    }

    /// Transmit everything queued by [`send`](Self::send): per (interface,
    /// neighbor) in order of first appearance, that neighbor's messages in
    /// the order queued, split into segments at the batch budget. Each
    /// segment is written once, into the buffer its receivers will share.
    /// Called at the end of every agent callback that ran a handler.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(&(iface, to, _)) = self.txq.first() {
            let mode = iface_mode(self.cfg, ctx, iface);
            let rel = match mode {
                EcmpMode::Tcp => Reliability::Reliable,
                EcmpMode::Udp => Reliability::Datagram,
            };
            let tx = match ctx.resolve(to) {
                Some(node) => Tx::To(node),
                None => Tx::AllOnLink,
            };
            let bound_here = |q: &Queued| q.0 == iface && q.1 == to;
            let mut messages = self.txq.iter().filter(|q| bound_here(q)).map(|q| q.2);
            let n = messages.clone().count();
            if n > 1 {
                ctx.count_id(self.ids.batched_msgs, n as u64);
            }
            while let Some(frame) = packets::ecmp_segment(ctx.my_ip(), to, mode, &mut messages) {
                ctx.send_shared(iface, frame, TrafficClass::Control, rel, tx);
            }
            self.txq.retain(|q| !bound_here(q));
        }
    }

    fn send_multicast(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, msg: EcmpMessage) {
        let frame = packets::ecmp_multicast(ctx.my_ip(), &[msg]);
        ctx.send_shared(iface, frame, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
        if matches!(msg, EcmpMessage::CountQuery(_)) {
            ctx.count_id(self.ids.query_tx, 1);
        }
    }

    /// Make the FIB entry of `st`'s channel what the record says. Every
    /// change to a record that stays passes through here, so this is also
    /// where the router tells the auditor its report moved.
    fn sync_fib(&mut self, ctx: &mut Ctx<'_>, st: &ChannelState) {
        ctx.audit_changed();
        // No interface with validated weight is no validated weight at all
        // (a zero Count removes its entry): nothing to forward to.
        let mask = st.oif_mask();
        if mask == 0 {
            self.fib.remove(st.channel);
            return;
        }
        let in_iface = st.upstream.map_or(0, |(i, _)| i.0);
        if let Ok(e) = FibEntry::new(st.channel, in_iface, mask) {
            self.fib.install(e);
        }
    }

    /// After a change to `st`'s downstream set: send the `subscriberId`
    /// aggregate upstream if the join/prune edge condition or the proactive
    /// curve says so, then bring the FIB in line — once. Returns whether
    /// the record is spent (and its FIB entry gone): the caller drops it.
    fn settle(&mut self, ctx: &mut Ctx<'_>, st: &mut ChannelState) -> bool {
        let spent = self.propagate_upstream(ctx, st);
        if spent {
            // The caller drops the record: its route leaves the report.
            ctx.audit_changed();
            self.fib.remove(st.channel);
        } else {
            self.sync_fib(ctx, st);
        }
        spent
    }

    /// The upstream half of [`settle`](Self::settle). A record without an
    /// upstream has nowhere to send and is never spent.
    fn propagate_upstream(&mut self, ctx: &mut Ctx<'_>, st: &mut ChannelState) -> bool {
        let now = ctx.now();
        let channel = st.channel;
        let agg = st.aggregate();
        let Some((up_iface, up_addr)) = st.upstream else { return false };

        let curve = st.extra.as_mut().and_then(|x| x.proactive.get_mut(&CountId::SUBSCRIBERS));
        let value_to_send: Option<u64> = if let Some(Proactive { state: p, .. }) = curve {
            // Proactive mode: curve-driven.
            let v = p.evaluate(agg, now);
            if v.is_none() {
                // Schedule a re-check if a change is pending.
                if let Some(at) = p.curve.next_check_at(p.advertised, agg, p.last_sent) {
                    let check = TimerPurpose::ProactiveCheck {
                        channel,
                        count_id: CountId::SUBSCRIBERS,
                        generation: p.generation,
                    };
                    self.timers.arm(ctx, at.since(now).max(SimDuration::from_millis(1)), check);
                }
            }
            v
        } else if agg > 0 && st.advertised == 0 {
            // Plain mode: only the on-tree / off-tree transitions propagate
            // (§3.2: subscription stops "at a router already on the
            // distribution tree"; a zero Count prunes).
            Some(agg)
        } else if agg == 0 && st.advertised > 0 {
            Some(0)
        } else {
            st.advertised = agg; // track silently
            None
        };

        if let Some(v) = value_to_send {
            st.advertised = v;
            // Forward the strongest key we have (first-join carries the
            // subscriber's key so upstream can validate).
            let msg = Count {
                channel,
                count_id: CountId::SUBSCRIBERS,
                count: v,
                key: st.cached_key(),
            };
            self.send(ctx, up_iface, up_addr, msg);
        }
        // Tear down state when fully pruned and nothing pending.
        st.spent()
    }

    /// Curve-driven upstream propagation for a generic (non-subscriberId)
    /// proactively-maintained count: sum the latest downstream values and
    /// send when the error tolerance curve permits.
    fn propagate_generic_proactive(&mut self, ctx: &mut Ctx<'_>, st: &mut ChannelState, count_id: CountId) {
        let now = ctx.now();
        let channel = st.channel;
        let Some((up_iface, up_addr)) = st.upstream else { return };
        let Some(Proactive { state: p, values }) = st.extra.as_mut().and_then(|x| x.proactive.get_mut(&count_id))
        else {
            return;
        };
        let aggregate: u64 = values.values().sum();
        match p.evaluate(aggregate, now) {
            Some(v) => {
                let msg = Count {
                    channel,
                    count_id,
                    count: v,
                    key: None,
                };
                self.send(ctx, up_iface, up_addr, msg);
            }
            None => {
                if let Some(at) = p.curve.next_check_at(p.advertised, aggregate, p.last_sent) {
                    let check = TimerPurpose::ProactiveCheck {
                        channel,
                        count_id,
                        generation: p.generation,
                    };
                    self.timers.arm(ctx, at.since(now).max(SimDuration::from_millis(1)), check);
                }
            }
        }
    }

    /// Move `st` to the upstream `new_hop` (§3.2 re-homing).
    fn apply_rehome(&mut self, ctx: &mut Ctx<'_>, st: &mut ChannelState, new_hop: Option<(IfaceId, Ipv4Addr)>) {
        let now = ctx.now();
        let chan = st.channel;
        let old = st.upstream;
        st.rehome_pending = false;
        if new_hop == old {
            return;
        }
        st.upstream = new_hop;
        st.hold_down_until = now + self.cfg.hysteresis;
        let agg = st.aggregate();
        self.counters.rehomes += 1;
        ctx.count_id(self.ids.rehome, 1);
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
                let msg = Count {
                    channel: chan,
                    count_id: CountId::SUBSCRIBERS,
                    count: agg,
                    key: st.cached_key(),
                };
                self.send(ctx, ni, na, msg);
                st.advertised = agg;
            }
        }
        if let Some((oi, oa)) = old {
            let msg = Count {
                channel: chan,
                count_id: CountId::SUBSCRIBERS,
                count: 0,
                key: None,
            };
            self.send(ctx, oi, oa, msg);
        }
        self.sync_fib(ctx, st);
        // Orphaned with subscribers below us (the upstream crashed or the
        // network partitioned): arm the exponential-backoff re-join so the
        // subtree reattaches as soon as a route to the source reappears.
        if new_hop.is_none() && agg > 0 {
            self.arm_rejoin_retry(ctx, st, 0);
        }
    }

    /// Arm the backoff re-join retry for an orphaned channel.
    fn arm_rejoin_retry(&mut self, ctx: &mut Ctx<'_>, st: &mut ChannelState, attempt: u32) {
        if st.rejoin_pending {
            return;
        }
        st.rejoin_pending = true;
        let delay = SimDuration::from_micros(
            REJOIN_BACKOFF
                .micros()
                .saturating_mul(1u64 << attempt.min(20))
                .min(REJOIN_BACKOFF_MAX.micros()),
        );
        let channel = st.channel;
        self.timers.arm(ctx, delay, TimerPurpose::RejoinRetry { channel, attempt });
    }
}

/// What a control-plane handler works on: the control plane's tables, now
/// known to exist, beside the [`Port`] its steps go through. A handler
/// looks a channel's record up once and carries it through.
struct Control<'a> {
    port: Port<'a>,
    local_results: &'a mut Vec<LocalResult>,
    t: &'a mut Tables,
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

    /// Handle a subscriberId Count from a neighbor: tree maintenance.
    fn handle_tree_count(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, c: Count) {
        let channel = c.channel;
        let key = channel_key(channel);
        let now = ctx.now();
        // The one lookup. A record filed here for a channel that turns out
        // unreachable is taken out again below; every other path out of
        // this function leaves the table as the protocol wants it.
        let mut fresh = false;
        let st = self.t.channels.get_or_insert_with(key, || {
            fresh = true;
            ChannelState::new(channel)
        });

        // A non-zero Count from our *upstream* neighbor is not a
        // subscription — it is a query reply (handled by the pending path)
        // or stray; ignore it as tree input. A ZERO Count from the upstream
        // must still be processed: after a topology change the neighbor that
        // just became our upstream may simultaneously be un-subscribing the
        // stale reverse relationship it held with us (§3.2 re-homing sends
        // "a zero Count message to the old upstream router"). Dropping it
        // would leave a phantom downstream entry and a parent/child cycle.
        if st.upstream.map(|(_, n)| n) == Some(from) && c.count != 0 {
            return;
        }

        // Establish the upstream via RPF.
        if st.upstream.is_none() {
            st.upstream = rpf_hop(ctx, channel.source);
            if st.upstream.is_none() && ctx.resolve(channel.source) != Some(ctx.node_id()) {
                // Source unreachable: reject.
                if fresh {
                    self.t.channels.remove(key);
                }
                let resp = CountResponse {
                    channel,
                    count_id: CountId::SUBSCRIBERS,
                    status: ResponseStatus::NoSuchChannel,
                    key: c.key,
                };
                self.port.send(ctx, iface, from, resp);
                return;
            }
            // A new record, or one that found its upstream again.
            ctx.audit_changed();
        }

        // Authentication (§3.2): if we have a cached key, validate locally;
        // otherwise pass the key upstream and leave the entry unvalidated
        // until the CountResponse returns. Unauthenticated requests are
        // validated immediately (a router that *knows* the channel requires
        // a key — has one cached — rejects keyless joins).
        let (validated, reject) = match (st.cached_key(), c.key) {
            (Some(k), Some(pk)) => (k == pk, k != pk),
            (Some(_), None) => (false, true),
            (None, Some(_)) => (false, false), // validate upstream
            (None, None) => (true, false),
        };
        if reject {
            self.port.counters.auth_rejects += 1;
            ctx.count_id(self.port.ids.auth_reject, 1);
            let resp = CountResponse {
                channel,
                count_id: CountId::SUBSCRIBERS,
                status: ResponseStatus::InvalidAuthenticator,
                key: c.key,
            };
            self.port.send(ctx, iface, from, resp);
            return;
        }

        let prev = st.downstream.get(from).map_or(0, |e| e.count);
        if c.count == 0 {
            st.downstream.remove(from);
            if prev > 0 {
                self.port.counters.unsubscribes += 1;
                ctx.count_id(self.port.ids.unsubscribe, 1);
                ctx.trace("ecmp.unsubscribe", |e| e.chan(channel));
            }
            // §3.2: on a UDP interface, a zero Count triggers a re-query so
            // remaining LAN members re-report (no suppression, like IGMPv3).
            if iface_mode(self.port.cfg, ctx, iface) == EcmpMode::Udp {
                let q = EcmpMessage::from(CountQuery {
                    channel,
                    count_id: CountId::SUBSCRIBERS,
                    timeout_ms: 1_000,
                    proactive: None,
                });
                self.port.send_multicast(ctx, iface, q);
            }
        } else {
            st.downstream.insert(DownstreamEntry {
                addr: from,
                iface,
                count: c.count,
                refreshed: now,
                validated,
            });
            if !validated {
                // Queue for upstream validation.
                let key = c.key.expect("unvalidated implies key present");
                st.extra_mut().awaiting_validation.push((from, key));
            }
            if prev == 0 {
                self.port.counters.subscribes += 1;
                ctx.count_id(self.port.ids.subscribe, 1);
                ctx.trace("ecmp.subscribe", |e| e.chan(channel).value(c.count));
                // §6: a proactive request "is propagated to all routers in
                // the multicast tree" — including branches that join later.
                for (&count_id, p) in st.extra.iter().flat_map(|x| &x.proactive) {
                    let q = CountQuery {
                        channel,
                        count_id,
                        timeout_ms: 0,
                        proactive: Some(p.state.curve.to_wire()),
                    };
                    self.port.send(ctx, iface, from, q);
                }
            }
            if !validated {
                // Forward the key now; upstream propagation continues when
                // the verdict comes back. Without an upstream yet (we are
                // adjacent to the source host) validation happens when the
                // Count reaches the source.
                if let Some((ui, ua)) = st.upstream {
                    let msg = Count {
                        channel,
                        count_id: CountId::SUBSCRIBERS,
                        count: st.aggregate() + c.count,
                        key: c.key,
                    };
                    self.port.send(ctx, ui, ua, msg);
                }
                self.port.sync_fib(ctx, st);
                return;
            }
        }
        if self.port.settle(ctx, st) {
            self.t.channels.remove(key);
        }
    }

    /// Begin aggregation for a query at this node: create the pending
    /// record, forward downstream, arm the deadline.
    fn start_aggregation(&mut self, ctx: &mut Ctx<'_>, q: CountQuery, reply_to: ReplyTo) {
        let channel = q.channel;
        let count_id = q.count_id;

        // Proactive install: remember the curve and push the query down the
        // tree; no aggregation record (updates flow continuously).
        if let Some(p) = q.proactive {
            self.install_proactive(ctx, q, p);
            return;
        }

        let remaining = SimDuration::from_millis(u64::from(q.timeout_ms));
        // §3.1: decrement by a small multiple of the upstream RTT so we
        // time out (and send a partial reply) before our parent does.
        let (requester, rtt) = match reply_to {
            ReplyTo::Upstream(up) => (Some(up), self.t.rtt.entry(up).or_default().hop_decrement()),
            ReplyTo::Local => (None, SimDuration::ZERO),
        };
        let budget = decrement_timeout(remaining, rtt);

        let st = self.t.channels.get(channel_key(channel));
        // Downstream targets: every downstream neighbor of the channel;
        // network-layer countIds stop at routers (§3.1 footnote) — they are
        // still *sent* to router neighbors only.
        let targets: Vec<(IfaceId, Ipv4Addr)> = st
            .into_iter()
            .flat_map(|st| st.downstream.iter())
            .filter(|e| e.validated)
            // Never reflect a query back at its requester (guards against
            // transiently inconsistent parent/child relations during
            // re-homing).
            .filter(|e| Some(e.addr) != requester)
            .filter(|e| {
                !count_id.is_network_layer()
                    || ctx
                        .resolve(e.addr)
                        .is_some_and(|n| ctx.topology().kind(n) == NodeKind::Router)
            })
            .map(|e| (e.iface, e.addr))
            .collect();

        // Local contribution: routers contribute to network-layer counts
        // (links = active downstream interfaces), not to subscriber or
        // application counts.
        let mask = st.map_or(0, ChannelState::oif_mask);
        let local = if count_id == CountId::LINKS {
            u64::from(mask.count_ones())
        } else if count_id == CountId::WEIGHTED_TREE_SIZE {
            // The "weighted tree size measure" of §2.1: each active
            // downstream link contributes its routing metric, so expensive
            // (high-metric) links weigh more in the settlement.
            let node = ctx.node_id();
            (0..32u8)
                .filter(|i| mask & (1 << i) != 0)
                .filter_map(|i| ctx.topology().link_of(node, IfaceId(i)).ok())
                .map(|l| u64::from(ctx.topology().link_spec(l).metric))
                .sum()
        } else {
            0
        };

        self.t.pending_gen += 1;
        let generation = self.t.pending_gen;
        let pc = PendingCount::new(targets.iter().map(|&(_, a)| a), local, reply_to, generation);
        let complete = pc.complete();
        self.t.pending.insert((channel, count_id), Box::new(pc));

        let fwd = CountQuery {
            channel,
            count_id,
            timeout_ms: budget.millis() as u32,
            proactive: None,
        };
        for (iface, addr) in targets {
            self.port.send(ctx, iface, addr, fwd);
        }

        if complete {
            self.finish_aggregation(ctx, channel, count_id);
        } else {
            let deadline = TimerPurpose::QueryDeadline {
                channel,
                count_id,
                generation,
            };
            self.port.timers.arm(ctx, budget, deadline);
        }
    }

    /// Install proactive counting state and flood the install downstream.
    fn install_proactive(&mut self, ctx: &mut Ctx<'_>, q: CountQuery, p: ProactiveParams) {
        let now = ctx.now();
        let key = channel_key(q.channel);
        let st = self.t.channels.get_or_insert_with(key, || ChannelState::new(q.channel));
        st.extra_mut().proactive.entry(q.count_id).or_insert_with(|| Proactive {
            state: ProactiveState::new(ErrorToleranceCurve::from_wire(p), now),
            values: BTreeMap::new(),
        });
        for e in st.downstream.iter() {
            self.port.send(ctx, e.iface, e.addr, q);
        }
        // Immediately evaluate (first advertisement of the current value).
        if self.port.settle(ctx, st) {
            self.t.channels.remove(key);
        }
    }

    /// Complete (fully answered or deadline) an aggregation: emit the total.
    fn finish_aggregation(&mut self, ctx: &mut Ctx<'_>, channel: Channel, count_id: CountId) {
        let Some(pc) = self.t.pending.remove(&(channel, count_id)) else { return };
        let total = pc.total();
        match pc.reply_to {
            ReplyTo::Local => {
                self.local_results.push((ctx.now(), channel, count_id, total));
            }
            ReplyTo::Upstream(up) => {
                // Find the interface for the upstream requester.
                let iface = self
                    .t
                    .channels
                    .get(channel_key(channel))
                    .and_then(|s| s.upstream.filter(|&(_, a)| a == up).map(|(i, _)| i))
                    .or_else(|| ctx.next_hop_ip(up).map(|h| h.iface));
                if let Some(iface) = iface {
                    let msg = Count {
                        channel,
                        count_id,
                        count: total,
                        key: None,
                    };
                    self.port.send(ctx, iface, up, msg);
                }
            }
        }
    }

    /// Handle an incoming CountQuery (from upstream, or a periodic LAN
    /// query from a neighbor router — a router only *answers* queries for
    /// channels it has downstream state for).
    fn handle_query(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, q: CountQuery) {
        ctx.count_id(self.port.ids.query_rx, 1);
        if q.count_id == CountId::NEIGHBORS {
            // Neighbor discovery (§3.3): answer directly.
            let iface = ctx.next_hop_ip(from).map_or(iface, |h| h.iface);
            let msg = Count {
                channel: q.channel,
                count_id: CountId::NEIGHBORS,
                count: 1,
                key: None,
            };
            self.port.send(ctx, iface, from, msg);
            return;
        }
        if q.count_id == CountId::ALL_CHANNELS {
            // Re-advertise every channel we send upstream via `from`.
            let readvertised = self.t.channels.picked(|st| {
                let (up_iface, _) = st.upstream.filter(|&(_, a)| a == from && st.advertised > 0)?;
                let msg = Count {
                    channel: st.channel,
                    count_id: CountId::SUBSCRIBERS,
                    count: st.aggregate(),
                    key: st.cached_key(),
                };
                Some((up_iface, msg))
            });
            for (_, (up_iface, msg)) in readvertised {
                self.port.send(ctx, up_iface, from, msg);
            }
            return;
        }
        self.start_aggregation(ctx, q, ReplyTo::Upstream(from));
    }

    /// Handle an incoming Count.
    fn handle_count(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, c: Count) {
        self.port.counters.counts_rx += 1;
        ctx.count_id(self.port.ids.count_rx, 1);

        // 1. Does it answer an outstanding aggregation?
        if let Some(pc) = self.t.pending.get_mut(&(c.channel, c.count_id)) {
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
                self.t.neighbors.insert(from, (iface, now));
                if let Some(sent) = self.t.probe_sent.get(&iface) {
                    let sample = now.since(*sent);
                    if sample > SimDuration::ZERO {
                        self.t.rtt.entry(from).or_default().sample(sample);
                    }
                }
            }
            id if id.is_application_defined() || id.is_network_layer() || id.is_locally_defined() => {
                // Proactive update from downstream for a maintained count
                // (§6 works "for any countId"): record the neighbor's
                // latest value and push upstream through our own
                // error-tolerance curve.
                let Some(st) = self.t.channels.get_mut(channel_key(c.channel)) else { return };
                let Some(p) = st.extra.as_mut().and_then(|x| x.proactive.get_mut(&id)) else { return };
                p.values.insert(from, c.count);
                self.port.propagate_generic_proactive(ctx, st, id);
            }
            _ => {}
        }
    }

    /// Handle a CountResponse: authentication verdicts travelling back
    /// down the tree (§3.2).
    fn handle_response(&mut self, ctx: &mut Ctx<'_>, r: CountResponse) {
        let key = channel_key(r.channel);
        let Some(st) = self.t.channels.get_mut(key) else { return };
        // No key was ever seen on this channel: no verdict is awaited.
        let Some(x) = st.extra.as_mut() else { return };
        // The verdict applies to the echoed key only (several validations
        // with different keys can be in flight simultaneously).
        let waiting: Vec<(Ipv4Addr, ChannelKey)> = match r.key {
            Some(k) => {
                let (matched, rest): (Vec<_>, Vec<_>) =
                    std::mem::take(&mut x.awaiting_validation).into_iter().partition(|(_, wk)| *wk == k);
                x.awaiting_validation = rest;
                matched
            }
            None => std::mem::take(&mut x.awaiting_validation),
        };
        if waiting.is_empty() {
            return;
        }
        let verdict = CountResponse {
            channel: r.channel,
            count_id: r.count_id,
            status: r.status,
            key: r.key,
        };
        match r.status {
            ResponseStatus::Ok => {
                // Cache the validated key (§3.2) and mark entries validated.
                if self.port.cfg.cache_keys {
                    x.cached_key = waiting.first().map(|&(_, key)| key);
                }
                for &(addr, _) in &waiting {
                    if let Some(e) = st.downstream.get_mut(addr) {
                        e.validated = true;
                        self.port.send(ctx, e.iface, addr, verdict);
                    }
                }
            }
            _ => {
                self.port.counters.auth_rejects += waiting.len() as u64;
                ctx.count_id(self.port.ids.auth_reject, waiting.len() as u64);
                // Forward the denial and tear down *tentative* entries. A
                // downstream neighbor may carry joins under several keys
                // (e.g. an edge router with both valid and invalid
                // subscribers behind it): the denial for one key must not
                // destroy the neighbor's entry if it is already validated
                // or still has other keys awaiting validation.
                for &(addr, _) in &waiting {
                    let keep = st.downstream.get(addr).is_some_and(|e| e.validated)
                        || x.awaiting_validation.iter().any(|&(a, _)| a == addr);
                    let entry = if keep {
                        st.downstream.get(addr).copied()
                    } else {
                        st.downstream.remove(addr)
                    };
                    if let Some(e) = entry {
                        self.port.send(ctx, e.iface, addr, verdict);
                    }
                }
            }
        }
        if self.port.settle(ctx, st) {
            self.t.channels.remove(key);
        }
    }

    /// Drop the downstream entries `drop` says yes to, channel by channel
    /// in channel order; each channel that loses one counts as one
    /// unsubscribe under `counter` and settles (prune upstream, FIB,
    /// teardown).
    fn shrink_downstream(
        &mut self,
        ctx: &mut Ctx<'_>,
        counter: impl Fn(&mut Ctx<'_>),
        drop: impl Fn(&DownstreamEntry) -> bool,
    ) {
        let shrinking = self.t.channels.picked(|st| st.downstream.iter().any(&drop).then_some(()));
        for (key, ()) in shrinking {
            let Some(st) = self.t.channels.get_mut(key) else { continue };
            st.downstream.retain(|e| !drop(e));
            self.port.counters.unsubscribes += 1;
            counter(ctx);
            if self.port.settle(ctx, st) {
                self.t.channels.remove(key);
            }
        }
    }

    /// UDP-mode expiry sweep + periodic general query on one interface.
    fn udp_refresh(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let now = ctx.now();
        let refresh = self.port.cfg.udp_refresh;
        let horizon = refresh.saturating_mul(UDP_ROBUSTNESS);
        let expire = self.port.ids.expire;
        self.shrink_downstream(
            ctx,
            |ctx| ctx.count_id(expire, 1),
            |e| e.iface == iface && now.since(e.refreshed) > horizon,
        );
        // General query soliciting Counts for all channels (§3.3).
        self.port.send_multicast(ctx, iface, general_query(CountId::ALL_CHANNELS, 1_000));
        self.port.timers.arm(ctx, refresh, TimerPurpose::UdpRefresh { iface });
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
        let Some(interval) = self.port.cfg.neighbor_probe else { return };
        let now = ctx.now();
        self.t.probe_sent.insert(iface, now);
        let probe = general_query(CountId::NEIGHBORS, interval.millis() as u32);
        self.port.send_multicast(ctx, iface, probe);
        let horizon = interval.saturating_mul(3);
        let mut dead: Vec<Ipv4Addr> = Vec::new();
        self.t.neighbors.retain(|addr, (_, heard)| {
            let alive = now.since(*heard) <= horizon;
            if !alive {
                dead.push(*addr);
            }
            alive
        });
        let keepalive_prune = self.port.ids.keepalive_prune;
        for addr in dead {
            self.shrink_downstream(ctx, |ctx| ctx.count_id(keepalive_prune, 1), |e| e.addr == addr);
        }
        self.port.timers.arm(ctx, interval, TimerPurpose::NeighborProbe { iface });
    }

    /// Re-evaluate RPF for every channel after a routing change — one query
    /// each, in slot order — and apply or schedule (hysteresis) the §3.2
    /// re-home of those whose hop moved, in channel order. A sweep in which
    /// nothing moved allocates nothing.
    fn reevaluate_upstreams(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let moved = self.t.channels.picked(|st| {
            let new_hop = rpf_hop(ctx, st.channel.source);
            (new_hop != st.upstream).then_some(new_hop)
        });
        for (key, new_hop) in moved {
            let Some(st) = self.t.channels.get_mut(key) else { continue };
            if now < st.hold_down_until {
                if !st.rehome_pending {
                    st.rehome_pending = true;
                    let delay = st.hold_down_until.since(now);
                    let channel = st.channel;
                    self.port.timers.arm(ctx, delay, TimerPurpose::HysteresisExpire { channel });
                }
                continue;
            }
            self.port.apply_rehome(ctx, st, new_hop);
        }
    }

    /// The backoff timer fired: re-join if a route to the source exists
    /// now, otherwise double the delay and try again.
    fn rejoin_retry(&mut self, ctx: &mut Ctx<'_>, chan: Channel, attempt: u32) {
        let Some(st) = self.t.channels.get_mut(channel_key(chan)) else { return };
        st.rejoin_pending = false;
        if st.upstream.is_some() || st.aggregate() == 0 {
            return; // recovered via a route change, or nothing left to join
        }
        ctx.count_id(self.port.ids.rejoin_retry, 1);
        ctx.trace("ecmp.rejoin_retry", |e| e.chan(chan).value(attempt as u64));
        match rpf_hop(ctx, chan.source) {
            // apply_rehome sends the current aggregate upstream — the
            // re-join proper (§3.2's Count to the new upstream router).
            Some(hop) => self.port.apply_rehome(ctx, st, Some(hop)),
            None => self.port.arm_rejoin_retry(ctx, st, attempt.saturating_add(1)),
        }
    }

    /// A TCP-mode connection re-established (link restored, or the
    /// neighbor restarted after a crash): re-send our aggregate for every
    /// channel homed on `iface` so an upstream that lost its soft state
    /// re-learns the subtree. Idempotent for an upstream that kept its
    /// state — the Count simply confirms the value it already holds.
    fn readvertise_on(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let homed = self.t.channels.picked(|st| st.upstream.filter(|&(ui, _)| ui == iface && st.aggregate() > 0));
        for (key, (ui, ua)) in homed {
            let Some(st) = self.t.channels.get_mut(key) else { continue };
            let agg = st.aggregate();
            st.advertised = agg;
            ctx.count_id(self.port.ids.readvertise, 1);
            let msg = Count {
                channel: st.channel,
                count_id: CountId::SUBSCRIBERS,
                count: agg,
                key: st.cached_key(),
            };
            self.port.send(ctx, ui, ua, msg);
        }
    }

    /// §3.2 TCP mode: "The associated count is subtracted from the sum
    /// provided upstream if the connection fails." Remove every
    /// downstream entry learned over the dead interface.
    fn prune_behind(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let conn_fail_prune = self.port.ids.conn_fail_prune;
        self.shrink_downstream(ctx, |ctx| ctx.count_id(conn_fail_prune, 1), |e| e.iface == iface);
    }

    /// Dispatch an armed timer.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, purpose: TimerPurpose) {
        match purpose {
            TimerPurpose::QueryDeadline {
                channel,
                count_id,
                generation,
            } => {
                let live = self.t.pending.get(&(channel, count_id)).is_some_and(|p| p.generation == generation);
                if live {
                    ctx.count_id(self.port.ids.query_timeout, 1);
                    self.finish_aggregation(ctx, channel, count_id);
                }
            }
            TimerPurpose::UdpRefresh { iface } => self.udp_refresh(ctx, iface),
            TimerPurpose::ProactiveCheck {
                channel,
                count_id,
                generation,
            } => {
                let key = channel_key(channel);
                let Some(st) = self.t.channels.get_mut(key) else { return };
                let curve = st.extra.as_ref().and_then(|x| x.proactive.get(&count_id));
                if curve.is_none_or(|p| p.state.generation != generation) {
                    return;
                }
                if count_id != CountId::SUBSCRIBERS {
                    self.port.propagate_generic_proactive(ctx, st, count_id);
                } else if self.port.settle(ctx, st) {
                    self.t.channels.remove(key);
                }
            }
            TimerPurpose::HysteresisExpire { channel } => {
                let new_hop = rpf_hop(ctx, channel.source);
                if let Some(st) = self.t.channels.get_mut(channel_key(channel)) {
                    self.port.apply_rehome(ctx, st, new_hop);
                }
            }
            TimerPurpose::NeighborProbe { iface } => self.neighbor_probe(ctx, iface),
            TimerPurpose::LocalCount {
                channel,
                count_id,
                timeout,
            } => self.initiate_count(ctx, channel, count_id, timeout),
            TimerPurpose::RejoinRetry { channel, attempt } => self.rejoin_retry(ctx, channel, attempt),
        }
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
        let Some(purpose) = control.port.timers.meta.remove(&token) else { return };
        control.on_timer(ctx, purpose);
        control.port.flush(ctx);
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
        // radix queue behind one 8 B box), four counters 32. A `Routing` sits inline in every shard's world, also where
        // nothing ever asks a route: 800 B more in it (what the queue's 33
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
                ctl.txq.capacity(),
                ctl.timers.meta.len() + ctl.tables.pending.len() + ctl.tables.rtt.len(),
                st.map(|st| (st.downstream.is_inline(), st.extra.is_none())),
                router.fib().len(),
            )
        };
        sim.run_until(SimTime(5_000)); // joined
        assert_eq!(owned(&mut sim), (1, 4, 0, Some((true, true)), 1), "a joined channel is one inline record");
        sim.run_until(SimTime(50_000)); // left
        let idle = owned(&mut sim);
        assert_eq!(idle, (1, 4, 0, None, 0));
        for (joined_at, left_at) in [(105_000, 150_000), (205_000, 250_000)] {
            sim.run_until(SimTime(joined_at));
            assert_eq!(owned(&mut sim), (1, 4, 0, Some((true, true)), 1));
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

    #[test]
    fn channel_state_aggregate_and_mask() {
        let mut st = ChannelState::new(Channel::new(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap());
        st.downstream.insert(DownstreamEntry {
            addr: Ipv4Addr::new(10, 0, 0, 2),
            iface: IfaceId(1),
            count: 3,
            refreshed: SimTime::ZERO,
            validated: true,
        });
        st.downstream.insert(DownstreamEntry {
            addr: Ipv4Addr::new(10, 0, 0, 3),
            iface: IfaceId(2),
            count: 2,
            refreshed: SimTime::ZERO,
            validated: false, // pending auth: excluded from both
        });
        assert_eq!(st.aggregate(), 3);
        assert_eq!(st.oif_mask(), 0b10);
        assert!(st.mgmt_state_bytes() > 0);
    }
}
