//! Tree maintenance and authentication (§3.2): a `subscriberId` Count from
//! downstream, the verdict that comes back down, and what either changes
//! upstream and in the FIB.

use super::*;
use express_wire::ecmp::{CountResponse, ResponseStatus};
use express_wire::fib::FibEntry;

impl Port<'_> {
    /// Make the FIB entry of `st`'s channel what the record says. Every
    /// change to a record that stays passes through here, so this is also
    /// where the router tells the auditor its report moved.
    pub(super) fn sync_fib(&mut self, env: &mut impl ControlEnv, st: &ChannelState) {
        env.audit_changed();
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
    pub(super) fn settle(&mut self, env: &mut impl ControlEnv, st: &mut ChannelState) -> bool {
        let spent = self.propagate_upstream(env, st);
        if spent {
            // The caller drops the record: its route leaves the report.
            env.audit_changed();
            self.fib.remove(st.channel);
        } else {
            self.sync_fib(env, st);
        }
        spent
    }

    /// The upstream half of [`settle`](Self::settle). A record without an
    /// upstream has nowhere to send and is never spent.
    fn propagate_upstream(&mut self, env: &mut impl ControlEnv, st: &mut ChannelState) -> bool {
        let now = env.now();
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
                    self.timers.arm(env, at.since(now).max(SimDuration::from_millis(1)), check);
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
            self.send(env, up_iface, up_addr, msg);
        }
        // Tear down state when fully pruned and nothing pending.
        st.spent()
    }
}

impl Control<'_> {
    /// Handle a subscriberId Count from a neighbor: tree maintenance.
    pub(super) fn handle_tree_count(&mut self, env: &mut impl ControlEnv, iface: IfaceId, from: Ipv4Addr, c: Count) {
        let channel = c.channel;
        let key = channel_key(channel);
        let now = env.now();
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
            st.upstream = env.next_hop(channel.source);
            if st.upstream.is_none() && channel.source != env.my_ip() {
                // Source unreachable: reject.
                if fresh {
                    self.t.drop_channel(key);
                }
                let resp = CountResponse {
                    channel,
                    count_id: CountId::SUBSCRIBERS,
                    status: ResponseStatus::NoSuchChannel,
                    key: c.key,
                };
                self.port.send(env, iface, from, resp);
                return;
            }
            // A new record, or one that found its upstream again.
            env.audit_changed();
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
            env.count_id(self.port.ids.auth_reject, 1);
            let resp = CountResponse {
                channel,
                count_id: CountId::SUBSCRIBERS,
                status: ResponseStatus::InvalidAuthenticator,
                key: c.key,
            };
            self.port.send(env, iface, from, resp);
            return;
        }

        let prev = st.downstream.get(from).map_or(0, |e| e.count);
        if c.count == 0 {
            st.downstream.remove(from);
            if prev > 0 {
                self.port.counters.unsubscribes += 1;
                env.count_id(self.port.ids.unsubscribe, 1);
                env.trace("ecmp.unsubscribe", |e| e.chan(channel));
            }
            // §3.2: on a UDP interface, a zero Count triggers a re-query so
            // remaining LAN members re-report (no suppression, like IGMPv3).
            if iface_mode(self.port.cfg, env, iface) == EcmpMode::Udp {
                let q = EcmpMessage::from(CountQuery {
                    channel,
                    count_id: CountId::SUBSCRIBERS,
                    timeout_ms: 1_000,
                    proactive: None,
                });
                self.port.send_multicast(env, iface, q);
            }
        } else {
            let entry = DownstreamEntry {
                addr: from,
                iface,
                count: c.count,
                refreshed: now,
                validated,
            };
            st.downstream.insert_with_spare(entry, &mut self.t.spare_ring);
            if !validated {
                // Queue for upstream validation.
                let key = c.key.expect("unvalidated implies key present");
                st.extra_mut().awaiting_validation.push((from, key));
            }
            if prev == 0 {
                self.port.counters.subscribes += 1;
                env.count_id(self.port.ids.subscribe, 1);
                env.trace("ecmp.subscribe", |e| e.chan(channel).value(c.count));
                // §6: a proactive request "is propagated to all routers in
                // the multicast tree" — including branches that join later.
                for (&count_id, p) in st.extra.iter().flat_map(|x| &x.proactive) {
                    let q = CountQuery {
                        channel,
                        count_id,
                        timeout_ms: 0,
                        proactive: Some(p.state.curve.to_wire()),
                    };
                    self.port.send(env, iface, from, q);
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
                    self.port.send(env, ui, ua, msg);
                }
                self.port.sync_fib(env, st);
                return;
            }
        }
        if self.port.settle(env, st) {
            self.t.drop_channel(key);
        }
    }

    /// Handle a CountResponse: authentication verdicts travelling back
    /// down the tree (§3.2).
    pub(in crate::router) fn handle_response(&mut self, env: &mut impl ControlEnv, r: CountResponse) {
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
                        self.port.send(env, e.iface, addr, verdict);
                    }
                }
            }
            _ => {
                self.port.counters.auth_rejects += waiting.len() as u64;
                env.count_id(self.port.ids.auth_reject, waiting.len() as u64);
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
                        self.port.send(env, e.iface, addr, verdict);
                    }
                }
            }
        }
        if self.port.settle(env, st) {
            self.t.drop_channel(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fake::{chan, rig, tree_count, Sent, M1, M2, UP};
    use super::*;

    /// One `subscriberId` Count of `channel` to `to` out `iface`.
    fn count(iface: u8, to: Ipv4Addr, channel: Channel, n: u64, key: Option<ChannelKey>) -> Sent {
        let messages = vec![tree_count(channel, n, key).into()];
        Sent { iface: IfaceId(iface), to, rel: Reliability::Reliable, messages }
    }

    #[test]
    fn a_first_join_installs_the_entry_and_sends_one_count_upstream() {
        let mut rig = rig();
        rig.counts(IfaceId(2), M1, &[tree_count(chan(1), 1, None)]);
        assert_eq!(rig.fib.get(chan(1)), Some(&FibEntry::new(chan(1), 0, 0b100).unwrap()));
        assert_eq!(rig.sent(), [count(0, UP, chan(1), 1, None)]);
        assert_eq!(rig.plane.counters.subscribes, 1);

        // A keyed join goes upstream carrying the subscriber's key, and
        // forwards nothing until the verdict comes back.
        let key = Some(0x5eed);
        rig.counts(IfaceId(2), M1, &[tree_count(chan(2), 1, key)]);
        assert_eq!(rig.sent(), [count(0, UP, chan(2), 1, key)]);
        assert_eq!(rig.fib.get(chan(2)), None);
        // The verdict installs the entry, goes on to the member, and the
        // validated aggregate goes upstream under the cached key.
        let ok = CountResponse { channel: chan(2), count_id: CountId::SUBSCRIBERS, status: ResponseStatus::Ok, key };
        rig.dispatch(|c, env| c.handle_response(env, ok));
        assert_eq!(rig.fib.get(chan(2)), Some(&FibEntry::new(chan(2), 0, 0b100).unwrap()));
        let verdict = Sent { iface: IfaceId(2), to: M1, rel: Reliability::Reliable, messages: vec![ok.into()] };
        assert_eq!(rig.sent(), [verdict, count(0, UP, chan(2), 1, key)]);
    }

    #[test]
    fn the_last_leave_sends_a_zero_count_upstream_and_drops_the_record() {
        let mut rig = rig();
        rig.counts(IfaceId(2), M1, &[tree_count(chan(1), 1, None)]);
        rig.counts(IfaceId(3), M2, &[tree_count(chan(1), 2, None)]);
        assert_eq!(rig.sent().len(), 1, "the second join stops at a router already on the tree");
        rig.counts(IfaceId(2), M1, &[tree_count(chan(1), 0, None)]);
        assert_eq!(rig.sent(), [], "a leave that is not the last stops here too");
        assert_eq!(rig.fib.get(chan(1)), Some(&FibEntry::new(chan(1), 0, 0b1000).unwrap()));
        rig.counts(IfaceId(3), M2, &[tree_count(chan(1), 0, None)]);
        assert_eq!(rig.sent(), [count(0, UP, chan(1), 0, None)]);
        assert!(rig.channel(chan(1)).is_none() && rig.fib.is_empty());
        assert_eq!((rig.plane.counters.subscribes, rig.plane.counters.unsubscribes), (2, 2));
    }
}
