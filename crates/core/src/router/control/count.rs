//! Generic counting (§3.1): a CountQuery forwarded down the tree, the
//! aggregation of the replies, the total sent up or kept; a Count's
//! dispatch by countId; neighbor discovery's answers (§3.3).

use super::*;
use crate::counting::decrement_timeout;

impl Control<'_> {
    /// Initiate a router-local count (§3.1: "ECMP also allows any router on
    /// the channel distribution tree to initiate a query without source
    /// cooperation"); the total lands in the router's local results.
    pub(super) fn initiate_count(&mut self, env: &mut impl ControlEnv, channel: Channel, count_id: CountId, timeout: SimDuration) {
        let q = CountQuery {
            channel,
            count_id,
            timeout_ms: timeout.millis() as u32,
            proactive: None,
        };
        self.start_aggregation(env, q, ReplyTo::Local);
    }

    /// Begin aggregation for a query at this node: create the pending
    /// record, forward downstream, arm the deadline.
    fn start_aggregation(&mut self, env: &mut impl ControlEnv, q: CountQuery, reply_to: ReplyTo) {
        let channel = q.channel;
        let count_id = q.count_id;

        // Proactive install: remember the curve and push the query down the
        // tree; no aggregation record (updates flow continuously).
        if let Some(p) = q.proactive {
            self.install_proactive(env, q, p);
            return;
        }

        let remaining = SimDuration::from_millis(u64::from(q.timeout_ms));
        // §3.1: decrement by a small multiple of the upstream RTT so we
        // time out (and send a partial reply) before our parent does. An
        // upstream never measured reads the estimator's default, and is
        // not filed for it.
        let (requester, rtt) = match reply_to {
            ReplyTo::Upstream(up) => (Some(up), self.t.rtt.get(&up).copied().unwrap_or_default().hop_decrement()),
            ReplyTo::Local => (None, SimDuration::ZERO),
        };
        let budget = decrement_timeout(remaining, rtt);

        let st = self.t.channels.get(channel_key(channel));
        let downstream = || st.into_iter().flat_map(|st| st.downstream.iter());
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
            (0..32u8)
                .filter(|i| mask & (1 << i) != 0)
                .filter_map(|i| env.link_metric(IfaceId(i)))
                .map(u64::from)
                .sum()
        } else {
            0
        };

        // Downstream targets: every downstream neighbor of the channel;
        // network-layer countIds stop at routers (§3.1 footnote) — they are
        // still *sent* to router neighbors only.
        let targets = downstream()
            .filter(|e| e.validated)
            // Never reflect a query back at its requester (guards against
            // transiently inconsistent parent/child relations during
            // re-homing).
            .filter(|e| Some(e.addr) != requester)
            .filter(|e| !count_id.is_network_layer() || env.is_router(e.addr))
            .map(|e| e.addr);
        self.t.pending_gen += 1;
        let generation = self.t.pending_gen;
        let pc = PendingCount::new(targets, local, reply_to, generation);
        let fwd = CountQuery {
            channel,
            count_id,
            timeout_ms: budget.millis() as u32,
            proactive: None,
        };
        for e in downstream().filter(|e| pc.awaits(e.addr)) {
            self.port.send(env, e.iface, e.addr, fwd);
        }
        let complete = pc.complete();
        self.t.begin_aggregation(channel, count_id, pc);

        if complete {
            self.finish_aggregation(env, channel, count_id);
        } else {
            env.set_timer(budget, Timers::deadline(generation));
        }
    }

    /// Complete (fully answered or deadline) an aggregation: emit the total.
    pub(super) fn finish_aggregation(&mut self, env: &mut impl ControlEnv, channel: Channel, count_id: CountId) {
        let Some(pc) = self.t.take_aggregation(channel, count_id) else { return };
        let total = pc.total();
        match pc.reply_to {
            ReplyTo::Local => {
                self.local_results.push((env.now(), channel, count_id, total));
            }
            // A subscriberId total cut short by the deadline is no answer
            // when it reads 0: upstream, a Count(0) from a neighbor it
            // queried is that neighbor's prune, and would cut off the
            // members whose replies were late (§3.1's partial reply is
            // still sent whenever it counts someone).
            ReplyTo::Upstream(_) if total == 0 && count_id == CountId::SUBSCRIBERS && !pc.complete() => {}
            ReplyTo::Upstream(up) => {
                // Find the interface for the upstream requester.
                let iface = self
                    .t
                    .channels
                    .get(channel_key(channel))
                    .and_then(|s| s.upstream.filter(|&(_, a)| a == up).map(|(i, _)| i))
                    .or_else(|| env.next_hop(up).map(|(i, _)| i));
                if let Some(iface) = iface {
                    let msg = Count {
                        channel,
                        count_id,
                        count: total,
                        key: None,
                    };
                    self.port.send(env, iface, up, msg);
                }
            }
        }
    }

    /// Handle an incoming CountQuery (from upstream, or a periodic LAN
    /// query from a neighbor router — a router only *answers* queries for
    /// channels it has downstream state for).
    pub(in crate::router) fn handle_query(&mut self, env: &mut impl ControlEnv, iface: IfaceId, from: Ipv4Addr, q: CountQuery) {
        env.count_id(self.port.ids.query_rx, 1);
        if q.count_id == CountId::NEIGHBORS {
            // Neighbor discovery (§3.3): answer directly.
            let iface = env.next_hop(from).map_or(iface, |(i, _)| i);
            let msg = Count {
                channel: q.channel,
                count_id: CountId::NEIGHBORS,
                count: 1,
                key: None,
            };
            self.port.send(env, iface, from, msg);
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
                self.port.send(env, up_iface, from, msg);
            }
            return;
        }
        self.start_aggregation(env, q, ReplyTo::Upstream(from));
    }

    /// Handle an incoming Count.
    pub(in crate::router) fn handle_count(&mut self, env: &mut impl ControlEnv, iface: IfaceId, from: Ipv4Addr, c: Count) {
        self.port.counters.counts_rx += 1;
        env.count_id(self.port.ids.count_rx, 1);

        // 1. Does it answer an outstanding aggregation?
        if let Some(pc) = self.t.aggregation(c.channel, c.count_id) {
            if pc.record(from, c.count) {
                if pc.complete() {
                    self.finish_aggregation(env, c.channel, c.count_id);
                }
                // subscriberId replies also refresh tree state below.
                if c.count_id != CountId::SUBSCRIBERS {
                    return;
                }
            }
        }

        match c.count_id {
            CountId::SUBSCRIBERS => self.handle_tree_count(env, iface, from, c),
            CountId::NEIGHBORS => {
                // A probe answer: record the neighbor and take an RTT
                // sample against the probe we sent on this interface.
                let now = env.now();
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
                self.port.propagate_generic_proactive(env, st, id);
            }
            _ => {}
        }
    }
}
