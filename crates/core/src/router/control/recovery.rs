//! Topology changes (§3.2): re-homing a channel to a new upstream with
//! hysteresis, the re-join backoff of an orphaned channel, re-advertising
//! on a restored connection and pruning the counts behind a dead one.

use super::*;

/// Base delay of the exponential-backoff re-join retry: when a channel
/// still has subscribers but RPF yields no upstream (partition, or the
/// upstream crashed and routing has not re-converged), the router retries
/// the join at this delay, then twice it, four times it, … capped at
/// [`REJOIN_BACKOFF_MAX`], until a route exists.
const REJOIN_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// Ceiling for the re-join backoff delay.
const REJOIN_BACKOFF_MAX: SimDuration = SimDuration::from_secs(30);

impl Port<'_> {
    /// Move `st` to the upstream `new_hop` (§3.2 re-homing).
    pub(super) fn apply_rehome(&mut self, env: &mut impl ControlEnv, st: &mut ChannelState, new_hop: Option<(IfaceId, Ipv4Addr)>) {
        let now = env.now();
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
        env.count_id(self.ids.rehome, 1);
        env.trace("ecmp.rehome", |e| {
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
                self.send(env, ni, na, msg);
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
            self.send(env, oi, oa, msg);
        }
        self.sync_fib(env, st);
        // Orphaned with subscribers below us (the upstream crashed or the
        // network partitioned): arm the exponential-backoff re-join so the
        // subtree reattaches as soon as a route to the source reappears.
        if new_hop.is_none() && agg > 0 {
            self.arm_rejoin_retry(env, st, 0);
        }
    }

    /// Arm the backoff re-join retry for an orphaned channel.
    fn arm_rejoin_retry(&mut self, env: &mut impl ControlEnv, st: &mut ChannelState, attempt: u32) {
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
        self.timers.arm(env, delay, TimerPurpose::RejoinRetry { channel, attempt });
    }
}

impl Control<'_> {
    /// Drop the downstream entries `drop` says yes to, channel by channel
    /// in channel order; each channel that loses one counts as one
    /// unsubscribe under `counter` and settles (prune upstream, FIB,
    /// teardown).
    pub(super) fn shrink_downstream(&mut self, env: &mut impl ControlEnv, counter: CounterId, drop: impl Fn(&DownstreamEntry) -> bool) {
        let shrinking = self.t.channels.picked(|st| st.downstream.iter().any(&drop).then_some(()));
        for (key, ()) in shrinking {
            let Some(st) = self.t.channels.get_mut(key) else { continue };
            st.downstream.retain(|e| !drop(e));
            self.port.counters.unsubscribes += 1;
            env.count_id(counter, 1);
            if self.port.settle(env, st) {
                self.t.drop_channel(key);
            }
        }
    }

    /// Re-evaluate RPF for every channel after a routing change — one query
    /// each, in slot order — and apply or schedule (hysteresis) the §3.2
    /// re-home of those whose hop moved, in channel order. A sweep in which
    /// nothing moved allocates nothing.
    pub(in crate::router) fn reevaluate_upstreams(&mut self, env: &mut impl ControlEnv) {
        let now = env.now();
        let moved = self.t.channels.picked(|st| {
            let new_hop = env.next_hop(st.channel.source);
            (new_hop != st.upstream).then_some(new_hop)
        });
        for (key, new_hop) in moved {
            let Some(st) = self.t.channels.get_mut(key) else { continue };
            if now < st.hold_down_until {
                if !st.rehome_pending {
                    st.rehome_pending = true;
                    let delay = st.hold_down_until.since(now);
                    let channel = st.channel;
                    self.port.timers.arm(env, delay, TimerPurpose::HysteresisExpire { channel });
                }
                continue;
            }
            self.port.apply_rehome(env, st, new_hop);
        }
    }

    /// The backoff timer fired: re-join if a route to the source exists
    /// now, otherwise double the delay and try again.
    pub(super) fn rejoin_retry(&mut self, env: &mut impl ControlEnv, chan: Channel, attempt: u32) {
        let Some(st) = self.t.channels.get_mut(channel_key(chan)) else { return };
        st.rejoin_pending = false;
        if st.upstream.is_some() || st.aggregate() == 0 {
            return; // recovered via a route change, or nothing left to join
        }
        env.count_id(self.port.ids.rejoin_retry, 1);
        env.trace("ecmp.rejoin_retry", |e| e.chan(chan).value(attempt as u64));
        match env.next_hop(chan.source) {
            // apply_rehome sends the current aggregate upstream — the
            // re-join proper (§3.2's Count to the new upstream router).
            Some(hop) => self.port.apply_rehome(env, st, Some(hop)),
            None => self.port.arm_rejoin_retry(env, st, attempt.saturating_add(1)),
        }
    }

    /// A TCP-mode connection re-established (link restored, or the
    /// neighbor restarted after a crash): re-send our aggregate for every
    /// channel homed on `iface` so an upstream that lost its soft state
    /// re-learns the subtree. Idempotent for an upstream that kept its
    /// state — the Count simply confirms the value it already holds.
    pub(in crate::router) fn readvertise_on(&mut self, env: &mut impl ControlEnv, iface: IfaceId) {
        let homed = self.t.channels.picked(|st| st.upstream.filter(|&(ui, _)| ui == iface && st.aggregate() > 0));
        for (key, (ui, ua)) in homed {
            let Some(st) = self.t.channels.get_mut(key) else { continue };
            let agg = st.aggregate();
            st.advertised = agg;
            env.count_id(self.port.ids.readvertise, 1);
            let msg = Count {
                channel: st.channel,
                count_id: CountId::SUBSCRIBERS,
                count: agg,
                key: st.cached_key(),
            };
            self.port.send(env, ui, ua, msg);
        }
    }

    /// §3.2 TCP mode: "The associated count is subtracted from the sum
    /// provided upstream if the connection fails." Remove every
    /// downstream entry learned over the dead interface.
    pub(in crate::router) fn prune_behind(&mut self, env: &mut impl ControlEnv, iface: IfaceId) {
        self.shrink_downstream(env, self.port.ids.conn_fail_prune, |e| e.iface == iface);
    }
}

#[cfg(test)]
mod tests {
    use super::super::fake::{chan, rig, tree_count, Rig, Sent, ALT, M1, M2, SRC, UP};
    use super::*;
    use express_wire::fib::FibEntry;
    use netsim::engine::Reliability;

    /// One `subscriberId` Count of channel 1 to `to` out `iface`.
    fn count(iface: u8, to: Ipv4Addr, n: u64) -> Sent {
        let messages = vec![tree_count(chan(1), n, None).into()];
        Sent { iface: IfaceId(iface), to, rel: Reliability::Reliable, messages }
    }

    /// When the tests' route changes happen.
    const T0: SimTime = SimTime(10_000_000);

    /// Channel 1 joined by both members (aggregate 3) through `UP`, at `T0`.
    fn joined() -> Rig {
        let mut rig = rig();
        rig.counts(IfaceId(2), M1, &[tree_count(chan(1), 1, None)]);
        rig.counts(IfaceId(3), M2, &[tree_count(chan(1), 2, None)]);
        assert_eq!(rig.sent(), [count(0, UP, 1)]);
        rig.env.now = T0;
        rig
    }

    #[test]
    fn a_rehome_moves_the_aggregate_and_holds_down_the_next_one() {
        let mut rig = joined();
        let hysteresis = RouterConfig::default().hysteresis;
        rig.env.hops.insert(SRC, (IfaceId(1), ALT));
        rig.dispatch(|c, env| c.reevaluate_upstreams(env));
        // §3.2: the current Count to the new upstream, a zero to the old.
        assert_eq!(rig.sent(), [count(1, ALT, 3), count(0, UP, 0)]);
        let st = rig.channel(chan(1)).unwrap();
        let held = T0 + hysteresis;
        assert_eq!((st.upstream, st.advertised, st.hold_down_until), (Some((IfaceId(1), ALT)), 3, held));
        assert_eq!(rig.fib.get(chan(1)), Some(&FibEntry::new(chan(1), 1, 0b1100).unwrap()));
        assert_eq!(rig.plane.counters.rehomes, 1);

        // The route flips back inside the hold-down: the channel waits it out.
        rig.env.hops.insert(SRC, (IfaceId(0), UP));
        rig.dispatch(|c, env| c.reevaluate_upstreams(env));
        assert_eq!(rig.sent(), []);
        rig.run_timers(held);
        assert_eq!(rig.env.now, held);
        assert_eq!(rig.sent(), [count(0, UP, 3), count(1, ALT, 0)]);
        assert_eq!(rig.plane.counters.rehomes, 2);
    }

    #[test]
    fn an_orphaned_channel_rejoins_with_backoff() {
        let mut rig = joined();
        rig.env.hops.remove(&SRC);
        rig.dispatch(|c, env| c.reevaluate_upstreams(env));
        assert_eq!(rig.sent(), [count(0, UP, 0)]);
        // Retries at +0.5 s and +1 s more find no route; the route is back
        // before the third, at +2 s more, which re-joins.
        rig.run_timers(T0 + SimDuration::from_millis(1_500));
        assert_eq!((rig.env.now, rig.sent()), (T0 + SimDuration::from_millis(1_500), vec![]));
        rig.env.hops.insert(SRC, (IfaceId(0), UP));
        rig.run_timers(T0 + SimDuration::from_secs(10));
        assert_eq!((rig.env.now, rig.sent()), (T0 + SimDuration::from_millis(3_500), vec![count(0, UP, 3)]));
        assert_eq!(rig.env.stats.named("ecmp.rejoin_retry"), 3);
    }
}
