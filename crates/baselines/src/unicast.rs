//! Unicast fan-out: the no-multicast baseline of the paper's introduction.
//!
//! "An ISP may decide to put off providing multicast, forcing a source
//! wanting to reach k sites at rate R to simulate multicast with unicast
//! and thus pay for k·R bandwidth." [`UnicastSource`] sends one copy per
//! receiver; experiment E9 compares the delivered bytes and the source's
//! first-hop load against a single EXPRESS channel.

use crate::util;
use express_wire::addr::Ipv4Addr;
use express_wire::ipv4::{Ipv4Repr, Protocol};
use netsim::engine::{Agent, Ctx, Payload, Reliability, Tx};
use netsim::id::{IfaceId, NodeId};
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::Sim;
use std::collections::HashMap;

/// A source that reaches its receivers with one unicast copy each.
pub struct UnicastSource {
    receivers: Vec<Ipv4Addr>,
    bursts: HashMap<u64, usize /*payload_len*/>,
    next_token: u64,
    /// Copies transmitted.
    pub copies_sent: u64,
}

impl UnicastSource {
    /// A source with a fixed receiver list.
    pub fn new(receivers: Vec<Ipv4Addr>) -> Self {
        UnicastSource {
            receivers,
            bursts: HashMap::new(),
            next_token: 1,
            copies_sent: 0,
        }
    }

    /// Schedule one "frame": a burst of k unicast copies at time `at`.
    pub fn schedule_burst(sim: &mut Sim, node: NodeId, at: SimTime, payload_len: usize) {
        let s = sim.agent_as::<UnicastSource>(node).expect("not a UnicastSource");
        let token = s.next_token;
        s.next_token += 1;
        s.bursts.insert(token, payload_len);
        sim.schedule_timer_at(node, at, token);
    }
}

impl Agent for UnicastSource {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(payload_len) = self.bursts.remove(&token) else { return };
        let me = ctx.my_ip();
        for dst in self.receivers.clone() {
            let pkt = util::unicast_datagram(me, dst, Protocol::Udp, &vec![0u8; payload_len], util::DEFAULT_TTL);
            if let Some(hop) = ctx.next_hop_ip(dst) {
                let nxt = hop.next;
                ctx.send(hop.iface, &pkt, TrafficClass::Data, Reliability::Datagram, Tx::To(nxt));
                self.copies_sent += 1;
                ctx.count("unicast.copies_tx", 1);
            }
        }
    }
}

/// A receiver recording delivered unicast datagrams.
#[derive(Default)]
pub struct UnicastSink {
    /// (time, source, payload_len) per delivery.
    pub received: Vec<(SimTime, Ipv4Addr, usize)>,
}

impl UnicastSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Agent for UnicastSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
        let Ok(header) = Ipv4Repr::parse(bytes) else { return };
        if header.dst == ctx.my_ip() && header.protocol == Protocol::Udp {
            self.received.push((ctx.now(), header.src, header.payload_len));
            ctx.count("unicast.data_rx", 1);
        }
    }
}

/// A plain unicast-forwarding router (the ISP that "put off providing
/// multicast").
pub struct UnicastRouter;

impl Agent for UnicastRouter {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, class: TrafficClass) {
        let Ok(header) = Ipv4Repr::parse(bytes) else { return };
        if header.dst != ctx.my_ip() && !header.dst.is_multicast() {
            let _ = util::forward_unicast(ctx, bytes, header, class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topogen;
    use netsim::topology::LinkSpec;

    #[test]
    fn k_receivers_k_copies() {
        let g = topogen::star(4, 2, LinkSpec::default());
        let mut sim = Sim::new(g.topo.clone(), 1);
        for &r in &g.routers {
            sim.set_agent(r, Box::new(UnicastRouter));
        }
        let receivers: Vec<Ipv4Addr> = g.hosts[1..].iter().map(|&h| g.topo.ip(h)).collect();
        sim.set_agent(g.hosts[0], Box::new(UnicastSource::new(receivers)));
        for &h in &g.hosts[1..] {
            sim.set_agent(h, Box::new(UnicastSink::new()));
        }
        UnicastSource::schedule_burst(&mut sim, g.hosts[0], SimTime(1000), 100);
        sim.run_until(SimTime(1_000_000));
        for &h in &g.hosts[1..] {
            assert_eq!(sim.agent_as::<UnicastSink>(h).unwrap().received.len(), 1);
        }
        let src = sim.agent_as::<UnicastSource>(g.hosts[0]).unwrap();
        assert_eq!(src.copies_sent, 4);
        // The source's access link carried k copies — the k·R charge.
        let access_link = netsim::LinkId(0); // first link created = src-hub? (star creates hub links first)
        let _ = access_link;
        assert_eq!(sim.stats().named("unicast.copies_tx"), 4);
    }
}
