//! Armed timers: what each one does when it fires, and the two periodic
//! ones — the UDP-mode refresh and the neighbor probe (§3.2, §3.3).

use super::*;

/// Missed refresh rounds before a UDP-mode downstream entry expires.
const UDP_ROBUSTNESS: u64 = 2;

impl Control<'_> {
    /// UDP-mode expiry sweep + periodic general query on one interface.
    fn udp_refresh(&mut self, env: &mut impl ControlEnv, iface: IfaceId) {
        let now = env.now();
        let refresh = self.port.cfg.udp_refresh;
        let horizon = refresh.saturating_mul(UDP_ROBUSTNESS);
        self.shrink_downstream(env, self.port.ids.expire, |e| e.iface == iface && now.since(e.refreshed) > horizon);
        // General query soliciting Counts for all channels (§3.3).
        self.port.send_multicast(env, iface, general_query(CountId::ALL_CHANNELS, 1_000));
        self.port.timers.arm(env, refresh, TimerPurpose::UdpRefresh { iface });
    }

    /// Send a §3.3 neighbor-discovery CountQuery on one interface and
    /// re-arm the timer; expire neighbors not heard from in 3 intervals.
    ///
    /// Expiry doubles as the §3.2 TCP-mode keepalive: "a single per-neighbor
    /// keepalive is sufficient to detect a connection failure. The
    /// associated count is subtracted from the sum provided upstream if the
    /// connection fails." A neighbor that was once discovered and stops
    /// answering has its downstream channel state torn down.
    fn neighbor_probe(&mut self, env: &mut impl ControlEnv, iface: IfaceId) {
        let Some(interval) = self.port.cfg.neighbor_probe else { return };
        let now = env.now();
        self.t.probe_sent.insert(iface, now);
        let probe = general_query(CountId::NEIGHBORS, interval.millis() as u32);
        self.port.send_multicast(env, iface, probe);
        let horizon = interval.saturating_mul(3);
        let mut dead: Vec<Ipv4Addr> = Vec::new();
        self.t.neighbors.retain(|addr, (_, heard)| {
            let alive = now.since(*heard) <= horizon;
            if !alive {
                dead.push(*addr);
            }
            alive
        });
        for addr in dead {
            self.shrink_downstream(env, self.port.ids.keepalive_prune, |e| e.addr == addr);
        }
        self.port.timers.arm(env, interval, TimerPurpose::NeighborProbe { iface });
    }

    /// A timer fired: a count's deadline (see [`Timers::deadline`]), or
    /// the purpose filed under `token`. `false` for a token this plane
    /// never armed, or whose timer was spent.
    pub(in crate::router) fn fire(&mut self, env: &mut impl ControlEnv, token: u64) -> bool {
        if token & DEADLINE != 0 {
            let generation = token & !DEADLINE;
            let due = self.t.pending.iter().find(|a| a.2.generation == generation);
            if let Some(&(channel, count_id, _)) = due {
                env.count_id(self.port.ids.query_timeout, 1);
                self.finish_aggregation(env, channel, count_id);
            }
            return true;
        }
        let Some(purpose) = self.port.timers.meta.remove(&token) else { return false };
        self.on_timer(env, purpose);
        true
    }

    /// Dispatch an armed timer.
    fn on_timer(&mut self, env: &mut impl ControlEnv, purpose: TimerPurpose) {
        match purpose {
            TimerPurpose::UdpRefresh { iface } => self.udp_refresh(env, iface),
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
                    self.port.propagate_generic_proactive(env, st, count_id);
                } else if self.port.settle(env, st) {
                    self.t.drop_channel(key);
                }
            }
            TimerPurpose::HysteresisExpire { channel } => {
                let new_hop = env.next_hop(channel.source);
                if let Some(st) = self.t.channels.get_mut(channel_key(channel)) {
                    self.port.apply_rehome(env, st, new_hop);
                }
            }
            TimerPurpose::NeighborProbe { iface } => self.neighbor_probe(env, iface),
            TimerPurpose::LocalCount {
                channel,
                count_id,
                timeout,
            } => self.initiate_count(env, channel, count_id, timeout),
            TimerPurpose::RejoinRetry { channel, attempt } => self.rejoin_retry(env, channel, attempt),
        }
    }
}
