//! The control plane: everything ECMP keeps beyond the FIB — the
//! "management-level state" the paper's §5.2 prices apart from the fast
//! path's memory — and the handlers of the four events that change it: a
//! Count, a CountQuery, a timer and a route change (one submodule each for
//! subscription, counting, proactive counts, recovery and timers). The
//! handlers reach the world only through [`ControlEnv`].

use super::{RouterConfig, RouterCounters};
use crate::counting::{PendingCount, ReplyTo};
use crate::fib::Fib;
use crate::packets::{self, EcmpMode};
use crate::proactive::ProactiveState;
use crate::table::{channel_key, InlineSet, Keyed, Table};
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{ChannelKey, Count, CountId, CountQuery, EcmpMessage};
use netsim::engine::{Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::stats::{CounterId, TrafficClass};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::ProtoEvent;
use netsim::transport::RttEstimator;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

mod count;
mod proactive;
mod recovery;
mod subscribe;
mod timers;

/// Everything the control plane reads of the world or does to it: the
/// router's engine context in a simulation, a fake in tests
/// (`docs/INTERNALS.md` §10 maps each method to the engine call behind
/// it). Generic at every use, never `dyn`: a handler is compiled for the
/// one environment it runs in.
pub(super) trait ControlEnv {
    // The clock, this node's address, and the node behind an address.
    fn now(&self) -> SimTime;
    fn my_ip(&self) -> Ipv4Addr;
    fn resolve(&self, ip: Ipv4Addr) -> Option<NodeId>;
    /// The unicast next hop toward `ip`, interface and neighbor address:
    /// toward a channel's source, its RPF upstream.
    fn next_hop(&mut self, ip: Ipv4Addr) -> Option<(IfaceId, Ipv4Addr)>;
    /// Whether `iface`'s link is multi-access (more than two attachments).
    fn multi_access(&self, iface: IfaceId) -> bool;
    /// Whether the neighbor at `ip` is a router.
    fn is_router(&self, ip: Ipv4Addr) -> bool;
    /// The routing metric of `iface`'s link.
    fn link_metric(&self, iface: IfaceId) -> Option<u32>;
    /// Transmit a built frame.
    fn send_shared(&mut self, iface: IfaceId, frame: Payload, class: TrafficClass, rel: Reliability, tx: Tx);
    /// Fire `token` back at this node after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: u64);
    /// What this node reports to the auditor may have changed.
    fn audit_changed(&mut self);
    /// Bump an interned counter.
    fn count_id(&mut self, id: CounterId, delta: u64);
    /// Bump the per-channel counter `base{chan=channel}`.
    fn count_channel(&mut self, base: &'static str, channel: Channel, delta: u64);
    /// Record a protocol event; `build` runs only while a trace is on.
    fn trace(&mut self, name: &'static str, build: impl FnOnce(ProtoEvent) -> ProtoEvent);
}

/// What a pending timer means (tokens are keys of `Timers::meta`; a
/// count's deadline is not one of them, see [`Timers::deadline`]).
#[derive(Debug, Clone)]
pub(super) enum TimerPurpose {
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
    /// backoff; see `recovery::REJOIN_BACKOFF`).
    RejoinRetry { channel: Channel, attempt: u32 },
}

/// One downstream neighbor's contribution to a channel.
#[derive(Debug, Clone, Copy)]
pub(super) struct DownstreamEntry {
    pub(super) addr: Ipv4Addr,
    iface: IfaceId,
    /// Latest subscriberId count reported by this neighbor's subtree.
    pub(super) count: u64,
    /// Last time the entry was confirmed (UDP-mode expiry).
    refreshed: SimTime,
    /// Subscription accepted (auth passed or channel unauthenticated).
    pub(super) validated: bool,
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
pub(super) struct ChannelExtra {
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
pub(super) struct ChannelState {
    pub(super) channel: Channel,
    /// Toward the source: (interface, upstream neighbor address).
    pub(super) upstream: Option<(IfaceId, Ipv4Addr)>,
    /// Downstream neighbors by address.
    pub(super) downstream: InlineSet<DownstreamEntry>,
    /// subscriberId total we last sent upstream (join when 0→n, prune on →0).
    pub(super) advertised: u64,
    /// No re-home before this time.
    hold_down_until: SimTime,
    /// A re-home is scheduled (avoid duplicate timers).
    rehome_pending: bool,
    /// A backoff re-join retry is armed (avoid duplicate timers).
    rejoin_pending: bool,
    pub(super) extra: Option<Box<ChannelExtra>>,
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
    pub(super) fn aggregate(&self) -> u64 {
        self.downstream.iter().filter(|e| e.validated).map(|e| e.count).sum()
    }

    /// Outgoing-interface mask: interfaces with any validated subscriber
    /// weight.
    pub(super) fn oif_mask(&self) -> u32 {
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
    pub(super) fn mgmt_state_bytes(&self) -> usize {
        32 + self.downstream.len() * 32 + if self.cached_key().is_some() { 8 } else { 0 }
    }
}

/// Handles of the `ecmp.*` counters a message or a re-home bumps, interned
/// once per control plane (registration alone surfaces nothing; the names
/// in `docs/OBSERVABILITY.md` are what the handles stand for).
#[derive(Debug, Clone, Copy)]
pub(super) struct EcmpCounters {
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
    pub(super) boot_query: CounterId,
    auth_reject: CounterId,
}

impl EcmpCounters {
    /// Every handle, each interned by `counter`, in declaration order.
    pub(super) fn intern(mut counter: impl FnMut(&'static str) -> CounterId) -> Self {
        EcmpCounters {
            count_tx: counter("ecmp.count_tx"),
            count_rx: counter("ecmp.count_rx"),
            query_tx: counter("ecmp.query_tx"),
            query_rx: counter("ecmp.query_rx"),
            response_tx: counter("ecmp.response_tx"),
            subscribe: counter("ecmp.subscribe"),
            unsubscribe: counter("ecmp.unsubscribe"),
            batched_msgs: counter("ecmp.batched_msgs"),
            rehome: counter("ecmp.rehome"),
            readvertise: counter("ecmp.readvertise"),
            conn_fail_prune: counter("ecmp.conn_fail_prune"),
            rejoin_retry: counter("ecmp.rejoin_retry"),
            expire: counter("ecmp.expire"),
            keepalive_prune: counter("ecmp.keepalive_prune"),
            query_timeout: counter("ecmp.query_timeout"),
            boot_query: counter("ecmp.boot_query"),
            auth_reject: counter("ecmp.auth_reject"),
        }
    }
}

/// Armed timers: token → what it is for.
#[derive(Default)]
pub(super) struct Timers {
    pub(super) meta: BTreeMap<u64, TimerPurpose>,
    next: u64,
}

/// The bit that marks a count's deadline token; the aggregation's
/// generation is the rest. `Timers::meta`'s tokens count up from 0 and
/// never reach it.
const DEADLINE: u64 = 1 << 63;

impl Timers {
    /// The token of the deadline of the aggregation of `generation`: it
    /// carries all the deadline needs, so nothing is filed for it.
    pub(super) fn deadline(generation: u64) -> u64 {
        DEADLINE | generation
    }

    /// A fresh timer token standing for `purpose`.
    pub(super) fn token(&mut self, purpose: TimerPurpose) -> u64 {
        let token = self.next;
        self.next += 1;
        self.meta.insert(token, purpose);
        token
    }

    pub(super) fn arm(&mut self, env: &mut impl ControlEnv, delay: SimDuration, purpose: TimerPurpose) {
        let token = self.token(purpose);
        env.set_timer(delay, token);
    }
}

/// A unicast ECMP message waiting for the end of the dispatch.
type Queued = (IfaceId, Ipv4Addr, EcmpMessage);

thread_local! {
    /// The send queue of the dispatch running on this thread, between
    /// dispatches: it keeps its capacity, so no router keeps one.
    static SPARE_TXQ: Cell<Vec<Queued>> = const { Cell::new(Vec::new()) };
}

/// What the control plane knows, each map in ascending key order: whatever
/// a handler does per channel, neighbor or interface, it does in an order
/// its contents fix.
#[derive(Default)]
pub(super) struct Tables {
    pub(super) channels: Table<ChannelState>,
    /// Outstanding aggregations, each under the (channel, countId) it
    /// counts. The last one to finish frees the list: a finished count
    /// leaves nothing behind.
    pub(super) pending: Vec<(Channel, CountId, PendingCount)>,
    /// The generation of the last aggregation begun.
    pending_gen: u64,
    pub(super) rtt: BTreeMap<Ipv4Addr, RttEstimator>,
    /// Discovered EXPRESS neighbors: address → (interface, last heard).
    pub(super) neighbors: BTreeMap<Ipv4Addr, (IfaceId, SimTime)>,
    /// When the last neighbor probe went out on each interface.
    probe_sent: BTreeMap<IfaceId, SimTime>,
    /// The heap ring of the last dropped channel whose downstream set had
    /// spilled, empty: the next set to spill takes it, so a channel whose
    /// members all come and go allocates its ring once, not once a cycle.
    spare_ring: Option<VecDeque<DownstreamEntry>>,
}

impl Tables {
    /// The aggregation counting `count_id` on `channel`, if one is
    /// outstanding.
    fn aggregation(&mut self, channel: Channel, count_id: CountId) -> Option<&mut PendingCount> {
        self.pending.iter_mut().find(|a| (a.0, a.1) == (channel, count_id)).map(|a| &mut a.2)
    }

    /// File `pc` as the aggregation counting `count_id` on `channel`, in
    /// place of any outstanding one (whose deadline then finds nothing).
    fn begin_aggregation(&mut self, channel: Channel, count_id: CountId, pc: PendingCount) {
        match self.aggregation(channel, count_id) {
            Some(old) => *old = pc,
            // One at a time: a router rarely counts two at once.
            None => {
                self.pending.reserve_exact(1);
                self.pending.push((channel, count_id, pc));
            }
        }
    }

    /// Take out the aggregation counting `count_id` on `channel`; the last
    /// one out frees the list.
    fn take_aggregation(&mut self, channel: Channel, count_id: CountId) -> Option<PendingCount> {
        let i = self.pending.iter().position(|a| (a.0, a.1) == (channel, count_id))?;
        let (.., pc) = self.pending.swap_remove(i);
        if self.pending.is_empty() {
            self.pending = Vec::new();
        }
        Some(pc)
    }

    /// Drop the record filed under `key`, keeping its downstream ring as
    /// the spare (one per router).
    fn drop_channel(&mut self, key: u64) {
        if let Some(ring) = self.channels.remove(key).and_then(|st| st.downstream.into_ring()) {
            self.spare_ring.get_or_insert(ring);
        }
    }
}

/// The control plane's state. A router holds none until something needs
/// it (see `EcmpRouter`).
#[derive(Default)]
pub(super) struct ControlPlane {
    pub(super) tables: Tables,
    pub(super) timers: Timers,
    /// Interned by the first dispatch that reaches the control plane, which
    /// is also where the router starts listening for route changes (see
    /// `EcmpRouter::control_if_any`).
    pub(super) ids: Option<EcmpCounters>,
    /// Locally-initiated count results (router-initiated queries, §3.1).
    pub(super) local_results: Vec<LocalResult>,
    /// The control-side [`RouterCounters`]; its `data_*` fields stay zero
    /// (the forwarding plane has those).
    pub(super) counters: RouterCounters,
}

impl ControlPlane {
    /// The handlers' view of this plane, beside the router's `cfg` and
    /// `fib`, with the counter handles `ids` (this plane's own, interned).
    pub(super) fn control<'a>(&'a mut self, cfg: &'static RouterConfig, fib: &'a mut Fib, ids: EcmpCounters) -> Control<'a> {
        let ControlPlane { tables, timers, local_results, counters, .. } = self;
        Control {
            port: Port { cfg, fib, counters, ids, txq: Vec::new(), timers },
            local_results,
            t: tables,
        }
    }
}

/// One finished router-initiated count: `(when, channel, countId, total)`.
type LocalResult = (SimTime, Channel, CountId, u64);

/// The neighbor mode of an interface: LAN ⇒ UDP edge mode, p2p ⇒ TCP
/// core mode, unless overridden.
pub(super) fn iface_mode(cfg: &RouterConfig, env: &impl ControlEnv, iface: IfaceId) -> EcmpMode {
    cfg.mode_override.unwrap_or_else(|| if env.multi_access(iface) { EcmpMode::Udp } else { EcmpMode::Tcp })
}

/// The general query of §3.3: solicits Counts for all channels.
pub(super) fn general_query(count_id: CountId, timeout_ms: u32) -> EcmpMessage {
    EcmpMessage::from(CountQuery {
        channel: Channel::new(Ipv4Addr::ECMP_LOCALHOST_SOURCE, 0).expect("wellknown"),
        count_id,
        timeout_ms,
        proactive: None,
    })
}

/// The router around one channel record: everything a step of the protocol
/// reads or writes while it holds the record — the sending side, the
/// timers, the FIB — and nothing the record was looked up in.
pub(super) struct Port<'a> {
    cfg: &'static RouterConfig,
    fib: &'a mut Fib,
    counters: &'a mut RouterCounters,
    pub(super) ids: EcmpCounters,
    /// Unicast messages queued within this dispatch, flushed (batched per
    /// neighbor) before the callback returns: the thread's spare queue,
    /// taken by the first message and given back by the flush.
    txq: Vec<Queued>,
    pub(super) timers: &'a mut Timers,
}

impl Port<'_> {
    /// Queue a unicast ECMP message for `to` out `iface`. Messages queued
    /// during one event dispatch to the same neighbor are coalesced into one
    /// TCP-mode segment by [`flush`](Self::flush) — the §5.3 batching
    /// ("approximately 92 ... Count messages fit in a ... TCP segment"),
    /// exercised live whenever one event produces several messages for one
    /// neighbor (ALL_CHANNELS re-advertisement, re-homing, multi-channel
    /// teardown on link failure).
    fn send(&mut self, env: &mut impl ControlEnv, iface: IfaceId, to: Ipv4Addr, msg: impl Into<EcmpMessage>) {
        let msg = msg.into();
        match msg {
            EcmpMessage::Count(c) => {
                self.counters.counts_tx += 1;
                env.count_id(self.ids.count_tx, 1);
                // Per-(base, channel) handle: no per-message key formatting,
                // and the trace keeps the channel as a field of its own.
                env.count_channel("ecmp.count_msgs", c.channel, 1);
            }
            EcmpMessage::CountQuery(_) => env.count_id(self.ids.query_tx, 1),
            EcmpMessage::CountResponse(_) => env.count_id(self.ids.response_tx, 1),
        }
        if self.txq.capacity() == 0 {
            self.txq = SPARE_TXQ.take();
        }
        self.txq.push((iface, to, msg));
    }

    /// Transmit everything queued by [`send`](Self::send): per (interface,
    /// neighbor) in order of first appearance, that neighbor's messages in
    /// the order queued, split into segments at the batch budget. Each
    /// segment is written once, into the buffer its receivers will share.
    /// Called at the end of every agent callback that ran a handler.
    pub(super) fn flush(&mut self, env: &mut impl ControlEnv) {
        while let Some(&(iface, to, _)) = self.txq.first() {
            let mode = iface_mode(self.cfg, env, iface);
            let rel = match mode {
                EcmpMode::Tcp => Reliability::Reliable,
                EcmpMode::Udp => Reliability::Datagram,
            };
            let tx = match env.resolve(to) {
                Some(node) => Tx::To(node),
                None => Tx::AllOnLink,
            };
            let bound_here = |q: &Queued| q.0 == iface && q.1 == to;
            let mut messages = self.txq.iter().filter(|q| bound_here(q)).map(|q| q.2);
            let n = messages.clone().count();
            if n > 1 {
                env.count_id(self.ids.batched_msgs, n as u64);
            }
            while let Some(frame) = packets::ecmp_segment(env.my_ip(), to, mode, &mut messages) {
                env.send_shared(iface, frame, TrafficClass::Control, rel, tx);
            }
            self.txq.retain(|q| !bound_here(q));
        }
        if self.txq.capacity() > 0 {
            SPARE_TXQ.set(std::mem::take(&mut self.txq));
        }
    }

    pub(super) fn send_multicast(&mut self, env: &mut impl ControlEnv, iface: IfaceId, msg: EcmpMessage) {
        let frame = packets::ecmp_multicast(env.my_ip(), &[msg]);
        env.send_shared(iface, frame, TrafficClass::Control, Reliability::Datagram, Tx::AllOnLink);
        if matches!(msg, EcmpMessage::CountQuery(_)) {
            env.count_id(self.ids.query_tx, 1);
        }
    }
}

/// What a control-plane handler works on: the control plane's tables, now
/// known to exist, beside the [`Port`] its steps go through. A handler
/// looks a channel's record up once and carries it through.
pub(super) struct Control<'a> {
    pub(super) port: Port<'a>,
    local_results: &'a mut Vec<LocalResult>,
    t: &'a mut Tables,
}

#[cfg(test)]
mod fake;

#[cfg(test)]
mod tests {
    use super::fake::{chan, rig, tree_count, Sent, M1, UP};
    use super::*;
    use std::path::Path;

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

    #[test]
    fn control_state_size_is_pinned() {
        // x86-64. A channel record is 144 B with no padding: the channel 8,
        // the upstream 6 and two flags 2, four downstream entries in place
        // 104, the advertised count 8, the hold-down 8, the cold part's
        // pointer 8. The plane is 480 B: its tables 280 (the channel table's
        // inline record 144, the pending list and three maps 24 each, a
        // generation 8, the spare ring 32), the timers 32, the counter
        // handles 68 (+ 4), the local results 24 and the counters 72. A count
        // keeps its state in neither: its aggregation is a list entry freed
        // when it finishes, its deadline a timer token, its messages the
        // thread's spare send queue (504 B while each plane held its own).
        use std::mem::size_of;
        assert_eq!(size_of::<ChannelState>(), 144);
        assert!(size_of::<ControlPlane>() <= 480, "{}", size_of::<ControlPlane>());
    }

    #[test]
    fn messages_for_one_neighbor_in_one_dispatch_leave_as_one_segment() {
        // Three joins in one arriving batch: one segment upstream (§5.3).
        let mut rig = rig();
        let joins: Vec<Count> = (1..=3).map(|e| tree_count(chan(e), 1, None)).collect();
        rig.counts(IfaceId(2), M1, &joins);
        let messages: Vec<EcmpMessage> = joins.iter().map(|&c| c.into()).collect();
        assert_eq!(rig.sent(), [Sent { iface: IfaceId(0), to: UP, rel: Reliability::Reliable, messages }]);
        assert_eq!(rig.env.stats.named("ecmp.batched_msgs"), 3);
        // The same in three dispatches: three segments, none batched.
        for e in 4..=6 {
            rig.counts(IfaceId(2), M1, &[tree_count(chan(e), 1, None)]);
        }
        assert_eq!(rig.sent().iter().map(|s| s.messages.len()).collect::<Vec<_>>(), [1, 1, 1]);
        assert_eq!(rig.env.stats.named("ecmp.batched_msgs"), 3);
        // More than a segment holds: split at the budget, in order.
        let joins: Vec<Count> = (100..400).map(|e| tree_count(chan(e), 1, None)).collect();
        rig.counts(IfaceId(2), M1, &joins);
        let sent = rig.sent();
        assert!(sent.len() > 1 && sent.iter().all(|s| (s.iface, s.to) == (IfaceId(0), UP)), "{}", sent.len());
        let messages: Vec<EcmpMessage> = sent.into_iter().flat_map(|s| s.messages).collect();
        assert_eq!(messages, joins.iter().map(|&c| c.into()).collect::<Vec<EcmpMessage>>());
        assert_eq!(rig.env.stats.named("ecmp.batched_msgs"), 3 + 300);
    }

    /// The non-test part of `path`: everything before its first
    /// `#[cfg(test)]`.
    fn non_test_code(path: &Path) -> String {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        text.split("#[cfg(test)]").next().unwrap_or_default().to_string()
    }

    #[test]
    fn the_handlers_reach_the_world_only_through_control_env() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let root = std::fs::read_to_string(src.join("router/control.rs")).unwrap();
        // The files only tests compile (`#[cfg(test)] mod x;`).
        let test_only: Vec<String> = root
            .split("#[cfg(test)]\nmod ")
            .skip(1)
            .filter_map(|rest| rest.split_once(';'))
            .filter(|(name, _)| name.chars().all(|c| c.is_alphanumeric() || c == '_'))
            .map(|(name, _)| format!("{name}.rs"))
            .collect();
        assert_eq!(test_only, ["fake.rs"]);
        let mut files = vec![src.join("router/control.rs")];
        for entry in std::fs::read_dir(src.join("router/control")).unwrap() {
            let path = entry.unwrap().path();
            if !test_only.iter().any(|t| path.ends_with(t)) {
                files.push(path);
            }
        }
        assert_eq!(files.len(), 6, "{files:?}");
        let words = |code: &str| code.split(|c: char| !(c.is_alphanumeric() || c == '_')).map(str::to_string).collect::<Vec<_>>();
        for file in &files {
            assert!(!words(&non_test_code(file)).iter().any(|w| w == "Ctx"), "{} names the engine's Ctx", file.display());
        }
        // One production implementor, the engine's context; and no
        // `dyn` anywhere (the generic `trace` makes the trait unusable as
        // one anyway).
        let (mut implementors, dyn_env) = (Vec::new(), concat!("dyn ", "ControlEnv"));
        let mut dirs = vec![src];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                let text = std::fs::read_to_string(&path).unwrap();
                assert!(!text.contains(dyn_env), "{}", path.display());
                let code = if test_only.iter().any(|t| path.ends_with(t)) { String::new() } else { non_test_code(&path) };
                implementors.extend(code.lines().filter(|l| l.starts_with("impl ControlEnv for ")).map(str::to_string));
            }
        }
        assert_eq!(implementors, ["impl ControlEnv for Ctx<'_> {"]);
    }
}
