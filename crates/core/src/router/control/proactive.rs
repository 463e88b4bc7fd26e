//! Proactive counting (§6): a curve installed by a query and flooded down
//! the tree, and generic counts pushed upstream when the curve allows.

use super::*;
use crate::proactive::ErrorToleranceCurve;
use express_wire::ecmp::ProactiveParams;

impl Port<'_> {
    /// Curve-driven upstream propagation for a generic (non-subscriberId)
    /// proactively-maintained count: sum the latest downstream values and
    /// send when the error tolerance curve permits.
    pub(super) fn propagate_generic_proactive(&mut self, env: &mut impl ControlEnv, st: &mut ChannelState, count_id: CountId) {
        let now = env.now();
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
                self.send(env, up_iface, up_addr, msg);
            }
            None => {
                if let Some(at) = p.curve.next_check_at(p.advertised, aggregate, p.last_sent) {
                    let check = TimerPurpose::ProactiveCheck {
                        channel,
                        count_id,
                        generation: p.generation,
                    };
                    self.timers.arm(env, at.since(now).max(SimDuration::from_millis(1)), check);
                }
            }
        }
    }
}

impl Control<'_> {
    /// Install proactive counting state and flood the install downstream.
    pub(super) fn install_proactive(&mut self, env: &mut impl ControlEnv, q: CountQuery, p: ProactiveParams) {
        let now = env.now();
        let key = channel_key(q.channel);
        let st = self.t.channels.get_or_insert_with(key, || ChannelState::new(q.channel));
        st.extra_mut().proactive.entry(q.count_id).or_insert_with(|| Proactive {
            state: ProactiveState::new(ErrorToleranceCurve::from_wire(p), now),
            values: BTreeMap::new(),
        });
        for e in st.downstream.iter() {
            self.port.send(env, e.iface, e.addr, q);
        }
        // Immediately evaluate (first advertisement of the current value).
        if self.port.settle(env, st) {
            self.t.drop_channel(key);
        }
    }
}
