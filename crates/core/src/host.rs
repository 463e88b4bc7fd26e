//! The EXPRESS host: the §2.1 service interface as a `netsim` agent.
//!
//! A host can simultaneously act as a **source** (allocating channels,
//! installing keys, sending data, subcasting, running `CountQuery`) and a
//! **subscriber** (`newSubscription` / `deleteSubscription`, answering
//! count queries, receiving data). The harness drives it by scheduling
//! [`HostAction`]s at simulated times and reads back the [`HostEvent`] log.
//!
//! Protocol behaviour implemented here:
//!
//! * `newSubscription(channel[, K])` sends an unsolicited `subscriberId`
//!   Count of 1 toward the source via the RPF next hop (§3.2, Figure 3);
//!   `deleteSubscription` sends a zero Count.
//! * The *source* host is the root of its channels' trees: it receives
//!   subscriberId Counts from its first-hop router, validates keys
//!   installed via `channelKey` (§2.1), and answers with `CountResponse` —
//!   routers cache the validated key on the way back down.
//! * `CountQuery(channel, countId, timeout)` from the source flows down the
//!   tree; the aggregated Count comes back as a [`HostEvent::CountResult`].
//! * Subscribers answer `subscriberId` queries with 1 per subscription, and
//!   application-defined countIds from values set by `SetAppValue`
//!   (§2.2.1's votes: "a subscriber client could present an
//!   application-specific dialog box ... when such a countId query
//!   arrives").
//! * `ALL_CHANNELS` general queries (UDP-mode refresh, §3.3) trigger
//!   re-advertisement of every live subscription — no report suppression.

use crate::channel::ChannelAllocator;
use crate::counting::{PendingCount, ReplyTo};
use crate::packets::{self, Classified, EcmpMode};
use crate::proactive::ErrorToleranceCurve;
use crate::table::{InlineSet, Keyed};
use express_wire::addr::{Channel, Ipv4Addr};
use express_wire::ecmp::{ChannelKey, Count, CountId, CountQuery, CountResponse, EcmpMessage, ResponseStatus};
use netsim::audit::AuditNodeState;
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::topology::Topology;
use netsim::stats::{CounterId, TrafficClass};
use netsim::time::{SimDuration, SimTime};
use netsim::Sim;
use std::collections::{BTreeMap, BTreeSet};

/// Actions the harness can schedule on a host.
#[derive(Debug, Clone)]
pub enum HostAction {
    /// `newSubscription(channel [, K])` (§2.1).
    Subscribe {
        /// The channel to join.
        channel: Channel,
        /// Authenticator for restricted channels.
        key: Option<ChannelKey>,
    },
    /// `deleteSubscription(channel)`.
    Unsubscribe {
        /// The channel to leave.
        channel: Channel,
    },
    /// Send `payload_len` octets of data on a channel this host sources.
    SendData {
        /// The channel (source must be this host for delivery to work —
        /// sending on someone else's channel is exactly the §1 attack the
        /// network counts-and-drops).
        channel: Channel,
        /// Payload size in octets.
        payload_len: usize,
    },
    /// Subcast (§2.1): unicast an encapsulated channel packet to an
    /// on-tree router, which decapsulates and forwards downstream only.
    Subcast {
        /// The channel.
        channel: Channel,
        /// The on-channel router to relay through.
        via: Ipv4Addr,
        /// Payload size.
        payload_len: usize,
    },
    /// `CountQuery(channel, countId, timeout)` (§2.1).
    CountQuery {
        /// The channel to count on.
        channel: Channel,
        /// What to count.
        count_id: CountId,
        /// Collection timeout.
        timeout: SimDuration,
    },
    /// `channelKey(channel, K)` (§2.1): restrict the channel.
    InstallKey {
        /// The channel this host sources.
        channel: Channel,
        /// The key subscribers must present.
        key: ChannelKey,
    },
    /// Request proactive counting (§6) for a countId on a sourced channel.
    EnableProactive {
        /// The channel.
        channel: Channel,
        /// The count to maintain.
        count_id: CountId,
        /// The error-tolerance curve.
        curve: ErrorToleranceCurve,
    },
    /// Set this host's answer to an application-defined countId (a vote).
    SetAppValue {
        /// The application countId.
        count_id: CountId,
        /// The value to report.
        value: u64,
    },
}

/// Everything observable that happened at a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// Channel data arrived for a subscribed channel.
    DataReceived {
        /// When.
        at: SimTime,
        /// On which channel.
        channel: Channel,
        /// Payload size.
        payload_len: usize,
    },
    /// The aggregated answer to a CountQuery this host issued.
    CountResult {
        /// When the (possibly partial) result arrived or timed out.
        at: SimTime,
        /// The channel queried.
        channel: Channel,
        /// The countId queried.
        count_id: CountId,
        /// The aggregated value.
        count: u64,
    },
    /// The network's verdict on a subscription (auth channels) —
    /// the `result` of `newSubscription` (§2.1).
    SubscriptionResult {
        /// When.
        at: SimTime,
        /// The channel.
        channel: Channel,
        /// Accepted?
        ok: bool,
    },
    /// A subscriberId Count reached this host as the channel source: the
    /// root's live view of the tree (the proactive-counting estimate of
    /// Figure 8 is this series).
    SubscriberEstimate {
        /// When.
        at: SimTime,
        /// The channel.
        channel: Channel,
        /// The first-hop router's reported subtree count.
        count: u64,
    },
    /// A proactively-maintained count (§6) update reached this source host:
    /// the live network-aggregated value for a non-subscriber countId
    /// (e.g. a running vote tally).
    MaintainedCount {
        /// When.
        at: SimTime,
        /// The channel.
        channel: Channel,
        /// The maintained countId.
        count_id: CountId,
        /// The aggregated value.
        count: u64,
    },
    /// An application-defined count query was delivered to this subscriber
    /// (§2.2.1's dialog-box hook).
    AppQueryDelivered {
        /// When.
        at: SimTime,
        /// The channel.
        channel: Channel,
        /// The countId.
        count_id: CountId,
    },
}

/// A harness-scheduled action waiting for its timer.
#[derive(Debug, Clone)]
struct PendingAction {
    token: u64,
    action: HostAction,
}

impl Keyed for PendingAction {
    type Key = u64;
    fn key(&self) -> u64 {
        self.token
    }
}

#[derive(Debug, Clone)]
struct Subscription {
    channel: Channel,
    key: Option<ChannelKey>,
    confirmed: bool,
    /// countIds the source maintains proactively (§6 installs seen on this
    /// channel): value changes are pushed upstream unsolicited.
    proactive_ids: Vec<CountId>,
    /// When `newSubscription` ran — start of the join-latency clock.
    subscribed_at: SimTime,
    /// Set at the first data delivery; the join latency was observed then.
    first_data_seen: bool,
}

impl Keyed for Subscription {
    type Key = Channel;
    fn key(&self) -> Channel {
        self.channel
    }
}

#[derive(Debug, Clone, Default)]
struct SourceState {
    key: Option<ChannelKey>,
    /// Latest subscriberId count received from the first-hop router.
    last_estimate: u64,
    /// Hosts on the source's own LAN subscribed directly with us (their
    /// RPF next hop toward the source *is* the source, so no router holds
    /// state for them; the source tracks and counts them itself).
    direct_subs: BTreeSet<Ipv4Addr>,
}

/// The EXPRESS host agent.
///
/// Its maps are ordered: whatever the host does once per subscription,
/// direct subscriber or pending query, it does in ascending key order.
/// Pending actions and subscriptions sit in [`InlineSet`]s, which hold up
/// to four records in place: a host joining or leaving one channel at a
/// time changes membership without a heap block.
pub struct ExpressHost {
    actions: InlineSet<PendingAction>,
    next_action_token: u64,
    subscriptions: InlineSet<Subscription>,
    sourced: BTreeMap<Channel, SourceState>,
    app_values: BTreeMap<CountId, u64>,
    pending_queries: BTreeMap<(Channel, CountId), PendingCount>,
    query_gen: u64,
    /// The observable event log.
    pub events: Vec<HostEvent>,
    /// Local channel allocation database (created lazily with the host IP).
    allocator: Option<ChannelAllocator>,
    /// Interned handle for the per-delivery counter (registered in
    /// `on_start`, bumped by array index on every received data packet).
    hot_data_rx: Option<CounterId>,
    /// Interned transmit-side counters (ECMP control, channel data,
    /// subcast), registered alongside `hot_data_rx` so steady-state
    /// sends never touch the string-keyed counter map.
    hot_ecmp_tx: Option<CounterId>,
    hot_data_tx: Option<CounterId>,
    hot_subcast_tx: Option<CounterId>,
    /// Channels this host has ever transmitted data on — the sender-side
    /// truth the auditor's single-source check reads. Sending does not
    /// create `sourced` soft state (that needs a key install), so this is
    /// tracked separately.
    sent_channels: BTreeSet<Channel>,
    /// Append a [`HostEvent::DataReceived`] entry per delivered data packet
    /// (on by default). Harnesses that only read counters can switch this
    /// off so the steady-state receive path never grows the event `Vec`
    /// — at scale those doublings are the host's only data-path
    /// allocations. Control-plane events (subscription results, count
    /// replies) are always logged: they are part of the API. They are not
    /// rare on a churning host — every join to an unauthenticated channel
    /// appends a `SubscriptionResult`, one per membership cycle — so a
    /// harness that churns for long reads and clears `events`.
    log_data_events: bool,
}

/// Action tokens live above this bound; below are internal timers.
const ACTION_TOKEN_BASE: u64 = 1 << 32;
/// Internal timer: query deadline; low bits hold the generation.
const TIMER_QUERY_DEADLINE: u64 = 1 << 20;

impl Default for ExpressHost {
    fn default() -> Self {
        Self::new()
    }
}

impl ExpressHost {
    /// A fresh host.
    pub fn new() -> Self {
        ExpressHost {
            actions: InlineSet::new(),
            next_action_token: ACTION_TOKEN_BASE,
            subscriptions: InlineSet::new(),
            sourced: BTreeMap::new(),
            app_values: BTreeMap::new(),
            pending_queries: BTreeMap::new(),
            query_gen: 0,
            events: Vec::new(),
            allocator: None,
            hot_data_rx: None,
            hot_ecmp_tx: None,
            hot_data_tx: None,
            hot_subcast_tx: None,
            sent_channels: BTreeSet::new(),
            log_data_events: true,
        }
    }

    /// Enable or disable per-packet [`HostEvent::DataReceived`] logging
    /// (see the field docs; defaults to on).
    pub fn set_data_event_logging(&mut self, on: bool) {
        self.log_data_events = on;
    }

    /// Schedule `action` on the host at `node` at absolute simulated time
    /// `at`. The standard way harnesses drive scenarios.
    ///
    /// Panics if `node`'s agent is not an `ExpressHost`.
    pub fn schedule(sim: &mut Sim, node: NodeId, at: SimTime, action: HostAction) {
        let host = sim
            .agent_as::<ExpressHost>(node)
            .expect("node agent is not an ExpressHost");
        let token = host.next_action_token;
        host.next_action_token += 1;
        host.actions.insert(PendingAction { token, action });
        sim.schedule_timer_at(node, at, token);
    }

    /// Allocate a channel from this host's local database (§2.2.1). Usable
    /// before the simulation starts; the source address must be supplied
    /// because the agent has no `Ctx` yet.
    pub fn allocate_channel(&mut self, my_ip: Ipv4Addr) -> Channel {
        self.allocator
            .get_or_insert_with(|| ChannelAllocator::new(my_ip))
            .allocate()
            .expect("channel space exhausted")
    }

    /// Channels this host is currently subscribed to, ascending.
    pub fn subscribed_channels(&self) -> Vec<Channel> {
        self.subscriptions.iter().map(|sub| sub.channel).collect()
    }

    /// Is a subscription to `channel` live (and, for auth channels,
    /// confirmed)?
    pub fn is_subscribed(&self, channel: Channel) -> bool {
        self.subscriptions.get(channel).is_some()
    }

    /// Data packets received on `channel`.
    pub fn data_received(&self, channel: Channel) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, HostEvent::DataReceived { channel: c, .. } if *c == channel))
            .count()
    }

    /// The series of subscriber estimates seen at this (source) host —
    /// Figure 8's "estimated size" line.
    pub fn estimate_series(&self, channel: Channel) -> Vec<(SimTime, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                HostEvent::SubscriberEstimate { at, channel: c, count } if *c == channel => {
                    Some((*at, *count))
                }
                _ => None,
            })
            .collect()
    }

    /// The series of §6 maintained-count updates for `(channel, count_id)`
    /// seen at this source host (e.g. the live vote tally).
    pub fn maintained_series(&self, channel: Channel, count_id: CountId) -> Vec<(SimTime, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                HostEvent::MaintainedCount {
                    at,
                    channel: c,
                    count_id: id,
                    count,
                } if *c == channel && *id == count_id => Some((*at, *count)),
                _ => None,
            })
            .collect()
    }

    /// Count results received by this host.
    pub fn count_results(&self) -> Vec<(SimTime, Channel, CountId, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                HostEvent::CountResult {
                    at,
                    channel,
                    count_id,
                    count,
                } => Some((*at, *channel, *count_id, *count)),
                _ => None,
            })
            .collect()
    }

    // ---- internals -------------------------------------------------------

    /// First-hop (iface, neighbor address) toward `dst`; hosts usually have
    /// a single interface.
    fn first_hop(&self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) -> Option<(IfaceId, Ipv4Addr)> {
        ctx.next_hop_ip(dst).map(|h| (h.iface, ctx.ip_of(h.next)))
    }

    /// The attached router (for queries this host originates as a source:
    /// the tree hangs entirely below the first-hop router).
    fn attached_router(&self, ctx: &mut Ctx<'_>) -> Option<(IfaceId, Ipv4Addr)> {
        for (iface, n) in ctx.neighbors() {
            if ctx.topology().kind(n) == netsim::NodeKind::Router {
                return Some((iface, ctx.ip_of(n)));
            }
        }
        None
    }

    /// Send one ECMP message to `to` out `iface`. Borrows only the counter
    /// handle, so callers may hold any of the host's maps while they send.
    fn send_ecmp(&self, ctx: &mut Ctx<'_>, iface: IfaceId, to: Ipv4Addr, msg: impl Into<EcmpMessage>) {
        // Hosts speak UDP-mode ECMP (§3.2: edge routers face "many
        // neighboring end hosts").
        let pkt = packets::ecmp_unicast(ctx.my_ip(), to, EcmpMode::Udp, &[msg.into()]);
        let tx = match ctx.resolve(to) {
            Some(node) => Tx::To(node),
            None => Tx::AllOnLink,
        };
        ctx.send_shared(iface, pkt, TrafficClass::Control, Reliability::Datagram, tx);
        match self.hot_ecmp_tx {
            Some(id) => ctx.count_id(id, 1),
            None => ctx.count("host.ecmp_tx", 1),
        }
    }

    fn do_action(&mut self, ctx: &mut Ctx<'_>, action: HostAction) {
        match action {
            HostAction::Subscribe { channel, key } => {
                let at = ctx.now();
                // No unicast route to the source ⇒ newSubscription fails
                // immediately (§2.1's result parameter).
                let Some((iface, up)) = self.first_hop(ctx, channel.source) else {
                    self.events.push(HostEvent::SubscriptionResult { at, channel, ok: false });
                    return;
                };
                ctx.audit_changed();
                self.subscriptions.insert(Subscription {
                    channel,
                    key,
                    confirmed: key.is_none(),
                    proactive_ids: Vec::new(),
                    subscribed_at: at,
                    first_data_seen: false,
                });
                ctx.trace("host.subscribe", |e| e.chan(channel));
                if key.is_none() {
                    self.events.push(HostEvent::SubscriptionResult { at, channel, ok: true });
                }
                let msg = EcmpMessage::from(Count {
                    channel,
                    count_id: CountId::SUBSCRIBERS,
                    count: 1,
                    key,
                });
                self.send_ecmp(ctx, iface, up, msg);
            }
            HostAction::Unsubscribe { channel } => {
                if self.subscriptions.remove(channel).is_some() {
                    ctx.audit_changed();
                    if let Some((iface, up)) = self.first_hop(ctx, channel.source) {
                        let msg = EcmpMessage::from(Count {
                            channel,
                            count_id: CountId::SUBSCRIBERS,
                            count: 0,
                            key: None,
                        });
                        self.send_ecmp(ctx, iface, up, msg);
                    }
                }
            }
            HostAction::SendData { channel, payload_len } => {
                if self.sent_channels.insert(channel) {
                    ctx.audit_changed();
                }
                let pkt = packets::channel_data(channel, payload_len, packets::DEFAULT_TTL);
                // Out every interface (hosts have one); the network enforces
                // the single-source rule, not the sender.
                ctx.send(IfaceId(0), &pkt, TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
                match self.hot_data_tx {
                    Some(id) => ctx.count_id(id, 1),
                    None => ctx.count("host.data_tx", 1),
                }
            }
            HostAction::Subcast { channel, via, payload_len } => {
                let inner = packets::channel_data(channel, payload_len, packets::DEFAULT_TTL);
                if let Ok(pkt) =
                    express_wire::encap::encapsulate(ctx.my_ip(), via, packets::DEFAULT_TTL, &inner)
                {
                    if let Some((iface, next)) = self.first_hop(ctx, via) {
                        let tx = ctx.resolve(next).map(Tx::To).unwrap_or(Tx::AllOnLink);
                        ctx.send(iface, &pkt, TrafficClass::Data, Reliability::Datagram, tx);
                        match self.hot_subcast_tx {
                            Some(id) => ctx.count_id(id, 1),
                            None => ctx.count("host.subcast_tx", 1),
                        }
                    }
                }
            }
            HostAction::CountQuery {
                channel,
                count_id,
                timeout,
            } => {
                if let Some((iface, router)) = self.attached_router(ctx) {
                    self.query_gen += 1;
                    let generation = self.query_gen;
                    // Await the router's aggregate plus each direct (own-LAN)
                    // subscriber, who has no router state to be counted in.
                    let mut awaited = vec![router];
                    if !count_id.is_network_layer() {
                        if let Some(st) = self.sourced.get(&channel) {
                            awaited.extend(st.direct_subs.iter().copied());
                        }
                    }
                    let deadline = ctx.now() + timeout;
                    let pending = PendingCount::new(awaited.iter().copied(), 0, ReplyTo::Local, deadline, generation);
                    self.pending_queries.insert((channel, count_id), pending);
                    let msg = EcmpMessage::from(CountQuery {
                        channel,
                        count_id,
                        timeout_ms: timeout.millis() as u32,
                        proactive: None,
                    });
                    for dest in awaited {
                        self.send_ecmp(ctx, iface, dest, msg);
                    }
                    // Deadline: deliver whatever arrived (possibly partial).
                    ctx.set_timer(timeout + SimDuration::from_millis(100), TIMER_QUERY_DEADLINE + generation);
                }
            }
            HostAction::InstallKey { channel, key } => {
                self.sourced.entry(channel).or_default().key = Some(key);
                ctx.audit_changed();
            }
            HostAction::EnableProactive {
                channel,
                count_id,
                curve,
            } => {
                if let Some((iface, router)) = self.attached_router(ctx) {
                    let msg = EcmpMessage::from(CountQuery {
                        channel,
                        count_id,
                        timeout_ms: 0,
                        proactive: Some(curve.to_wire()),
                    });
                    self.send_ecmp(ctx, iface, router, msg);
                }
            }
            HostAction::SetAppValue { count_id, value } => {
                self.app_values.insert(count_id, value);
                // Push the new value unsolicited on every subscribed channel
                // whose source maintains this count proactively (§6): the
                // vote change flows toward the source through the routers'
                // error-tolerance curves.
                for sub in self.subscriptions.iter() {
                    let channel = sub.channel;
                    if !sub.proactive_ids.contains(&count_id) {
                        continue;
                    }
                    if let Some((iface, up)) = self.first_hop(ctx, channel.source) {
                        let msg = Count {
                            channel,
                            count_id,
                            count: value,
                            key: sub.key,
                        };
                        self.send_ecmp(ctx, iface, up, msg);
                    }
                }
            }
        }
    }

    fn handle_query(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, q: CountQuery) {
        if q.count_id == CountId::ALL_CHANNELS {
            // General query: re-advertise every live subscription (§3.3);
            // no report suppression.
            for sub in self.subscriptions.iter() {
                let msg = Count {
                    channel: sub.channel,
                    count_id: CountId::SUBSCRIBERS,
                    count: 1,
                    key: sub.key,
                };
                self.send_ecmp(ctx, iface, from, msg);
            }
            return;
        }
        if q.count_id == CountId::NEIGHBORS {
            let msg = EcmpMessage::from(Count {
                channel: q.channel,
                count_id: CountId::NEIGHBORS,
                count: 1,
                key: None,
            });
            self.send_ecmp(ctx, iface, from, msg);
            return;
        }
        // A proactive install (§6): remember the countId so later value
        // changes are pushed unsolicited.
        if q.proactive.is_some() {
            if let Some(sub) = self.subscriptions.get_mut(q.channel) {
                if !sub.proactive_ids.contains(&q.count_id) {
                    sub.proactive_ids.push(q.count_id);
                }
            }
        }
        // Per-channel queries only concern subscribed channels.
        let Some(sub) = self.subscriptions.get(q.channel) else { return };
        let key = sub.key;
        let value = if q.count_id == CountId::SUBSCRIBERS {
            1
        } else if q.count_id.is_application_defined() {
            let at = ctx.now();
            self.events.push(HostEvent::AppQueryDelivered {
                at,
                channel: q.channel,
                count_id: q.count_id,
            });
            self.app_values.get(&q.count_id).copied().unwrap_or(0)
        } else {
            return; // network-layer counts never reach hosts (§3.1 fn. 3)
        };
        let msg = EcmpMessage::from(Count {
            channel: q.channel,
            count_id: q.count_id,
            count: value,
            key,
        });
        self.send_ecmp(ctx, iface, from, msg);
    }

    fn handle_count(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, from: Ipv4Addr, c: Count) {
        let at = ctx.now();
        // Reply to an outstanding query this host initiated?
        let mut consumed = false;
        if let Some(pc) = self.pending_queries.get_mut(&(c.channel, c.count_id)) {
            if pc.record(from, c.count) {
                consumed = true;
                if pc.complete() {
                    let total = pc.total();
                    self.pending_queries.remove(&(c.channel, c.count_id));
                    self.events.push(HostEvent::CountResult {
                        at,
                        channel: c.channel,
                        count_id: c.count_id,
                        count: total,
                    });
                }
            }
        }
        if consumed && c.count_id != CountId::SUBSCRIBERS {
            return;
        }
        // Generic maintained counts arriving at the source (§6).
        if c.count_id != CountId::SUBSCRIBERS && c.channel.source == ctx.my_ip() {
            self.events.push(HostEvent::MaintainedCount {
                at,
                channel: c.channel,
                count_id: c.count_id,
                count: c.count,
            });
            return;
        }
        // subscriberId Counts arriving at the source: the root of the tree.
        if c.count_id == CountId::SUBSCRIBERS && c.channel.source == ctx.my_ip() {
            // A Count arriving directly from a host (not a router) is an
            // own-LAN subscriber joining/leaving directly with us.
            let from_host = ctx
                .resolve(from)
                .map(|n| ctx.topology().kind(n) == netsim::NodeKind::Host)
                .unwrap_or(false);
            let st = self.sourced.entry(c.channel).or_default();
            if from_host && !consumed {
                if c.count == 0 {
                    st.direct_subs.remove(&from);
                } else {
                    st.direct_subs.insert(from);
                }
            }
            // Authentication authority (§2.1 channelKey): validate here.
            let status = match (st.key, c.key) {
                (Some(k), Some(pk)) if k == pk => ResponseStatus::Ok,
                (Some(_), _) => ResponseStatus::InvalidAuthenticator,
                (None, _) => ResponseStatus::Ok,
            };
            // The first Count makes the source state, and an accepted one
            // moves the estimate.
            ctx.audit_changed();
            if status == ResponseStatus::Ok {
                st.last_estimate = c.count;
                self.events.push(HostEvent::SubscriberEstimate {
                    at,
                    channel: c.channel,
                    count: c.count,
                });
            }
            // Answer only when the joiner presented a key (auth handshake);
            // unauthenticated joins need no confirmation round-trip.
            if c.key.is_some() {
                let msg = EcmpMessage::from(CountResponse {
                    channel: c.channel,
                    count_id: c.count_id,
                    status,
                    key: c.key,
                });
                self.send_ecmp(ctx, iface, from, msg);
            }
        }
    }

    fn handle_response(&mut self, ctx: &mut Ctx<'_>, r: CountResponse) {
        let at = ctx.now();
        if let Some(sub) = self.subscriptions.get_mut(r.channel) {
            ctx.audit_changed();
            match r.status {
                ResponseStatus::Ok => {
                    if !sub.confirmed {
                        sub.confirmed = true;
                        self.events.push(HostEvent::SubscriptionResult {
                            at,
                            channel: r.channel,
                            ok: true,
                        });
                    }
                }
                _ => {
                    self.subscriptions.remove(r.channel);
                    self.events.push(HostEvent::SubscriptionResult {
                        at,
                        channel: r.channel,
                        ok: false,
                    });
                }
            }
        }
    }
}

/// Send a subscription (`count = 1`) or unsubscription (`count = 0`) for
/// `channel` toward its source via the RPF next hop — the §3.2 host-side
/// primitive, exposed for agents (like the session-relay participants) that
/// embed EXPRESS behaviour without being an [`ExpressHost`].
pub fn send_subscription(ctx: &mut Ctx<'_>, channel: Channel, key: Option<ChannelKey>, subscribe: bool) -> bool {
    let Some(hop) = ctx.next_hop_ip(channel.source) else {
        return false;
    };
    let up = ctx.ip_of(hop.next);
    let msg = EcmpMessage::from(Count {
        channel,
        count_id: CountId::SUBSCRIBERS,
        count: u64::from(subscribe),
        key: if subscribe { key } else { None },
    });
    let pkt = packets::ecmp_unicast(ctx.my_ip(), up, EcmpMode::Udp, &[msg]);
    let tx = ctx.resolve(up).map(Tx::To).unwrap_or(Tx::AllOnLink);
    ctx.send_shared(hop.iface, pkt, TrafficClass::Control, Reliability::Datagram, tx)
}

impl Agent for ExpressHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.hot_data_rx = Some(ctx.counter("host.data_rx"));
        self.hot_ecmp_tx = Some(ctx.counter("host.ecmp_tx"));
        self.hot_data_tx = Some(ctx.counter("host.data_tx"));
        self.hot_subcast_tx = Some(ctx.counter("host.subcast_tx"));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
        let me = ctx.my_ip();
        match packets::classify(bytes, me) {
            Ok(Classified::ChannelData { channel, header })
                if self.subscriptions.get(channel).map(|s| s.confirmed).unwrap_or(false) => {
                    let at = ctx.now();
                    if self.log_data_events {
                        self.events.push(HostEvent::DataReceived {
                            at,
                            channel,
                            payload_len: header.payload_len,
                        });
                    }
                    match self.hot_data_rx {
                        Some(id) => ctx.count_id(id, 1),
                        None => ctx.count("host.data_rx", 1),
                    }
                    // End-to-end delivery latency: age of the causal chain
                    // this frame belongs to (source send → here).
                    let age = ctx.packet_age();
                    if let Some(a) = age {
                        ctx.observe("delivery.latency_us", a.micros());
                    }
                    ctx.trace("host.data_rx", |e| {
                        let e = e.chan(channel);
                        match age {
                            Some(a) => e.value(a.micros()),
                            None => e,
                        }
                    });
                    if let Some(sub) = self.subscriptions.get_mut(channel) {
                        if !sub.first_data_seen {
                            sub.first_data_seen = true;
                            let join = at - sub.subscribed_at;
                            ctx.observe("join.latency_us", join.micros());
                            ctx.trace("host.first_data", |e| e.chan(channel).value(join.micros()));
                        }
                    }
                }
            Ok(Classified::Ecmp { from, messages, .. }) => {
                for m in messages {
                    match m {
                        EcmpMessage::CountQuery(q) => self.handle_query(ctx, iface, from, q),
                        EcmpMessage::Count(c) => self.handle_count(ctx, iface, from, c),
                        EcmpMessage::CountResponse(r) => self.handle_response(ctx, r),
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(PendingAction { action, .. }) = self.actions.remove(token) {
            self.do_action(ctx, action);
            return;
        }
        if token > TIMER_QUERY_DEADLINE && token < ACTION_TOKEN_BASE {
            let generation = token - TIMER_QUERY_DEADLINE;
            // Deadline: deliver the (possibly partial) totals of any query
            // of this generation that has not completed.
            let at = ctx.now();
            self.pending_queries.retain(|&(channel, count_id), pc| {
                if pc.generation != generation {
                    return true;
                }
                self.events.push(HostEvent::CountResult {
                    at,
                    channel,
                    count_id,
                    count: pc.total(),
                });
                false
            });
        }
    }

    fn audit_state(&self, _topo: &Topology, _node: NodeId) -> Option<AuditNodeState> {
        let mut subscribed: Vec<String> = self
            .subscriptions
            .iter()
            .filter(|sub| sub.confirmed)
            .map(|sub| netsim::audit::label(sub.channel))
            .collect();
        subscribed.sort();
        // Sourcing truth: channels with source soft state carry the latest
        // subscriber estimate; channels merely transmitted on report `None`.
        let mut sourcing: Vec<(String, Option<u64>)> = self
            .sourced
            .iter()
            .map(|(chan, st)| (netsim::audit::label(chan), Some(st.last_estimate)))
            .collect();
        for chan in &self.sent_channels {
            if !self.sourced.contains_key(chan) {
                sourcing.push((netsim::audit::label(chan), None));
            }
        }
        sourcing.sort();
        Some(AuditNodeState { subscribed, sourcing, ..Default::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use express_wire::ipv4::Ipv4Repr;
    use netsim::LinkSpec;

    /// A neighbor that sends each `(at ms, class, frame)` of its script out
    /// interface 0.
    struct Scripted(Vec<(u64, TrafficClass, Vec<u8>)>);

    impl Agent for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (token, (at_ms, ..)) in self.0.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(*at_ms), token as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let (_, class, frame) = &self.0[token as usize];
            ctx.send(IfaceId(0), frame, *class, Reliability::Datagram, Tx::AllOnLink);
        }
    }

    #[test]
    fn nonsense_input_leaves_subscriptions_source_state_and_counters_as_they_were() {
        let mut topo = Topology::new();
        let (host, peer) = (topo.add_host(), topo.add_host());
        topo.connect(host, peer, LinkSpec::default()).unwrap();
        let (host_ip, peer_ip) = (topo.ip(host), topo.ip(peer));
        // The host subscribes to `theirs` (its source is the peer) and
        // sources `mine`, keyed, with the peer reporting 2 subscribers.
        let (theirs, other) = (Channel::new(peer_ip, 1).unwrap(), Channel::new(peer_ip, 2).unwrap());
        let mine = Channel::new(host_ip, 1).unwrap();
        let ecmp = |m: EcmpMessage| packets::ecmp_unicast(peer_ip, host_ip, EcmpMode::Udp, &[m]).to_vec();
        let count = |channel, count, key| EcmpMessage::from(Count { channel, count_id: CountId::SUBSCRIBERS, count, key });
        let verdict = |channel, key| EcmpMessage::from(CountResponse { channel, count_id: CountId::SUBSCRIBERS, status: ResponseStatus::Ok, key });
        let truncated = {
            let frame = ecmp(count(mine, 1, Some(7)));
            // Whole IP header, ECMP payload three octets short.
            let mut short = frame[..frame.len() - 3].to_vec();
            let header = Ipv4Repr::parse(&frame).unwrap();
            Ipv4Repr { payload_len: header.payload_len - 3, ..header }.emit(&mut short).unwrap();
            short
        };
        let mut script = vec![(5, TrafficClass::Control, ecmp(count(mine, 2, Some(7))))];
        let nonsense = [
            ecmp(verdict(other, Some(7))), // a verdict nobody awaits
            ecmp(verdict(theirs, None)),   // one for a subscription long confirmed
            ecmp(count(other, 5, None)),   // a Count for a channel it does not source
            ecmp(count(other, 0, None)),   // a leave for it
            ecmp(count(theirs, 0, None)),
            packets::channel_data(other, 32, packets::DEFAULT_TTL), // data it never asked for
            truncated,
            ecmp(count(mine, 9, None))[..30].to_vec(), // cut inside the IP header
        ];
        script.extend(nonsense.into_iter().enumerate().map(|(i, f)| (100 + i as u64, TrafficClass::Control, f)));
        let mut sim = Sim::new(topo, 1);
        sim.set_agent(host, Box::new(ExpressHost::new()));
        sim.set_agent(peer, Box::new(Scripted(script)));
        let at = |ms: u64| SimTime(ms * 1000);
        ExpressHost::schedule(&mut sim, host, at(1), HostAction::Subscribe { channel: theirs, key: None });
        ExpressHost::schedule(&mut sim, host, at(1), HostAction::InstallKey { channel: mine, key: 7 });
        ExpressHost::schedule(&mut sim, host, at(2), HostAction::SendData { channel: mine, payload_len: 32 });

        let view = |sim: &mut Sim| {
            let counters: Vec<(String, u64)> = sim.stats().named_counters().map(|(k, v)| (k.to_string(), v)).collect();
            let topo = sim.topology().clone();
            let h = sim.agent_as::<ExpressHost>(host).unwrap();
            format!("{:?} {:?} {:?} {:?} {counters:?}", h.subscribed_channels(), h.sourced, h.audit_state(&topo, host), h.events)
        };
        sim.run_until(at(50));
        let before = view(&mut sim);
        assert!(before.contains("last_estimate: 2"), "{before}");
        let sent = sim.stats().total().data_packets + sim.stats().total().control_packets;
        sim.run();
        assert_eq!(view(&mut sim), before);
        let total = sim.stats().total();
        assert_eq!(total.data_packets + total.control_packets - sent, 8, "every frame of the script was sent");
    }

    #[test]
    fn allocate_channels_locally() {
        let mut h = ExpressHost::new();
        let ip = Ipv4Addr::new(10, 0, 0, 7);
        let c1 = h.allocate_channel(ip);
        let c2 = h.allocate_channel(ip);
        assert_ne!(c1, c2);
        assert_eq!(c1.source, ip);
    }

    #[test]
    fn event_query_helpers() {
        let mut h = ExpressHost::new();
        let c = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        h.events.push(HostEvent::DataReceived {
            at: SimTime(1),
            channel: c,
            payload_len: 10,
        });
        h.events.push(HostEvent::SubscriberEstimate {
            at: SimTime(2),
            channel: c,
            count: 5,
        });
        h.events.push(HostEvent::CountResult {
            at: SimTime(3),
            channel: c,
            count_id: CountId::SUBSCRIBERS,
            count: 5,
        });
        assert_eq!(h.data_received(c), 1);
        assert_eq!(h.estimate_series(c), vec![(SimTime(2), 5)]);
        assert_eq!(h.count_results().len(), 1);
    }
}
