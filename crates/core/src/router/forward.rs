//! The router's forwarding plane: everything a data packet touches.
//!
//! The paper prices this state separately (§5.1: fast-path memory, 12 B
//! per channel) from the management-level state of §5.2, which the fast
//! path never reads. The same cut is made here: a [`ForwardingPlane`] is
//! the FIB, the forward counter's handle and a pointer to the rest (the
//! forwarding-buffer pool and the subcast count), and a router that only
//! forwards holds nothing else (see `docs/INTERNALS.md` §8 for the byte
//! budget).

use crate::fib::{Fib, Forward};
use express_wire::addr::Channel;
use express_wire::ipv4::{self, Ipv4Repr};
use netsim::engine::{Ctx, Payload, Reliability, Tx};
use netsim::id::IfaceId;
use netsim::stats::{CounterId, TrafficClass};

/// The state of the §3.4 fast path.
#[derive(Default)]
pub(super) struct ForwardingPlane {
    pub(super) fib: Fib,
    /// The handle of `express.data_fwd`, interned in `on_start` so a
    /// forward bumps it by array index.
    data_fwd: Option<CounterId>,
    /// What a forward of channel data never reads, allocated by the first
    /// event that needs it: on a distribution tree only the router of each
    /// level that patches the frame (see [`derive`](Self::derive)) has one.
    cold: Option<Box<ColdPlane>>,
}

/// The part of the forwarding plane a forward of channel data does not
/// touch: the buffer pool a memo miss patches into, and the subcast count.
#[derive(Default)]
struct ColdPlane {
    /// Recycled forwarding buffers (see [`PayloadPool`]).
    pool: PayloadPool,
    /// Subcast packets forwarded. With the FIB's own counters — every
    /// other data packet is counted there, once, under the decision it met
    /// — this makes up the `data_*` fields of
    /// [`RouterCounters`](super::RouterCounters).
    subcast_forwarded: u64,
}

impl ForwardingPlane {
    /// Intern the per-packet counter once; the forwarding fast path bumps
    /// it by handle (registration alone surfaces nothing).
    pub(super) fn intern_counters(&mut self, ctx: &mut Ctx<'_>) {
        self.data_fwd = Some(ctx.counter("express.data_fwd"));
    }

    fn cold(&mut self) -> &mut ColdPlane {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Subcast packets forwarded (see [`ColdPlane::subcast_forwarded`]).
    pub(super) fn subcast_forwarded(&self) -> u64 {
        self.cold.as_ref().map_or(0, |c| c.subcast_forwarded)
    }

    /// Forward channel data per §3.4.
    pub(super) fn forward_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        bytes: &Payload,
        channel: Channel,
        header: Ipv4Repr,
    ) {
        // Decide, then count: a packet the FIB would forward but whose TTL
        // has run out is a TTL drop everywhere, a forward nowhere. The FIB's
        // own drop reasons still win over TTL expiry.
        let decision = self.fib.decide(channel, iface.0);
        if matches!(decision, Forward::To(_)) && header.ttl <= 1 {
            ctx.count("express.ttl_drop", 1);
            return;
        }
        self.fib.record(decision);
        match decision {
            Forward::To(mask) => {
                // One TTL patch per arriving frame: every out-interface (and
                // every receiver behind each) shares the patched buffer, and
                // so does every other router handed the same frame.
                let out = self.derive(ctx, bytes, header.ttl - 1);
                ctx.send_fanout(mask, &out, TrafficClass::Data, Reliability::Datagram);
                ctx.count_id(self.data_fwd.expect("counters are interned in on_start"), 1);
            }
            Forward::NoEntry => ctx.count("express.no_entry_drop", 1),
            Forward::WrongInterface => ctx.count("express.rpf_drop", 1),
        }
    }

    /// Subcast (§2.1): decapsulate and forward toward downstream receivers
    /// only, preserving the single-source check (outer src must be S).
    pub(super) fn forward_subcast(&mut self, ctx: &mut Ctx<'_>, outer: Ipv4Repr, inner: Vec<u8>) {
        let Ok(inner_hdr) = Ipv4Repr::parse(&inner) else { return };
        if !inner_hdr.dst.is_single_source_multicast() {
            return;
        }
        let Ok(channel) = Channel::from_source_group(inner_hdr.src, inner_hdr.dst) else {
            return;
        };
        // Only the channel source may subcast on a channel (§7.1's contrast
        // with RMTP's SUBTREE_CAST).
        if outer.src != channel.source {
            ctx.count("express.subcast_reject", 1);
            return;
        }
        let Some(e) = self.fib.get(channel) else {
            ctx.count("express.no_entry_drop", 1);
            return;
        };
        if inner_hdr.ttl <= 1 {
            ctx.count("express.ttl_drop", 1);
            return;
        }
        let mask = e.oif_mask();
        // A decapsulated frame arrives in no shared buffer, so there is no
        // handle another router could present: patch it here.
        let cold = self.cold();
        let out = cold.pool.patch_ttl(&inner, inner_hdr.ttl - 1);
        ctx.send_fanout(mask, &out, TrafficClass::Data, Reliability::Datagram);
        cold.pool.release(out);
        cold.subcast_forwarded += 1;
        ctx.count("express.subcast_fwd", 1);
    }

    /// Plain unicast forwarding (the substrate: relays, subcast transit,
    /// encapsulated register traffic for baselines sharing this router).
    pub(super) fn forward_unicast(&mut self, ctx: &mut Ctx<'_>, bytes: &Payload, header: Ipv4Repr, class: TrafficClass) {
        if header.ttl <= 1 {
            ctx.count("express.ttl_drop", 1);
            return;
        }
        let Some(hop) = ctx.next_hop_ip(header.dst) else {
            ctx.count("express.unroutable", 1);
            return;
        };
        let out = self.derive(ctx, bytes, header.ttl - 1);
        ctx.send_shared(hop.iface, out, class, Reliability::Datagram, Tx::To(hop.next));
    }

    /// The frame a hop forwards for the arriving `src`: `src` with the TTL
    /// rewritten to `new_ttl`, from the engine's derivation memo when
    /// another router was handed the same frame just before, patched here
    /// (and parked for recycling) otherwise. The patch depends on `src`'s
    /// octets and `new_ttl` alone, which is the memo's contract.
    fn derive(&mut self, ctx: &mut Ctx<'_>, src: &Payload, new_ttl: u8) -> Payload {
        ctx.derive_frame(src, u32::from(new_ttl), |octets| {
            let pool = &mut self.cold().pool;
            let out = pool.patch_ttl(octets, new_ttl);
            pool.release(out.clone());
            out
        })
    }
}

/// A small recycling pool for forwarding buffers — where a frame is
/// actually patched when [`Ctx::derive_frame`] has no remembered answer.
///
/// Delivery events hold clones of the patched handle; once every one has
/// been consumed, the handle parked here by [`PayloadPool::release`] is
/// uniquely owned again, and the next patch of a same-sized frame reuses
/// its allocation — a memcpy instead of a fresh `Arc<[u8]>` — driving the
/// steady-state forwarding path to ~0 allocations per packet. A router the
/// memo always answers for (every router of a tree level but the first to
/// run) never patches, so it never parks a buffer either. Reuse is
/// content-independent (the buffer is fully overwritten before the TTL
/// patch), so whether a given forward hit or missed the pool can never
/// change emitted bytes or event order, and replay determinism is
/// unaffected.
#[derive(Default)]
struct PayloadPool {
    parked: Vec<Payload>,
}

impl PayloadPool {
    /// At most this many parked handles; beyond it, returns are dropped.
    const CAP: usize = 8;

    /// Copy `bytes` into a recycled (or fresh) shared buffer with the TTL
    /// rewritten to `new_ttl` and the header checksum recomputed, so one
    /// patch serves every out-interface of the hop via `send_shared`.
    fn patch_ttl(&mut self, bytes: &[u8], new_ttl: u8) -> Payload {
        let mut arc = self.acquire(bytes);
        ipv4::set_ttl(Payload::get_mut(&mut arc).expect("unique by construction"), new_ttl);
        arc
    }

    /// A uniquely-owned buffer holding a copy of `bytes`: recycled from the
    /// pool when a parked same-length handle has shed all its delivery
    /// clones, freshly allocated otherwise.
    fn acquire(&mut self, bytes: &[u8]) -> Payload {
        let reusable = |s: &mut Payload| s.len() == bytes.len() && Payload::get_mut(s).is_some();
        let hit = self.parked.iter_mut().position(reusable);
        match hit.map(|idx| self.parked.swap_remove(idx)) {
            Some(mut arc) => {
                Payload::get_mut(&mut arc).expect("checked unique").copy_from_slice(bytes);
                arc
            }
            None => Payload::from(bytes),
        }
    }

    /// Park a handle for reuse once its delivery clones drop.
    fn release(&mut self, arc: Payload) {
        if self.parked.len() < Self::CAP {
            self.parked.push(arc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets;
    use crate::router::{EcmpRouter, RouterConfig};
    use express_wire::addr::Ipv4Addr;
    use express_wire::fib::FibEntry;
    use netsim::engine::Agent;
    use netsim::time::SimTime;
    use netsim::{topogen, LinkSpec, NodeId, Sim, Topology};

    fn data_packet() -> Vec<u8> {
        let chan = Channel::new(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        packets::channel_data(chan, 16, 64)
    }

    /// A host that sends `script[token]` — the handle itself, not a copy —
    /// out interface 0 on each timer, and keeps every frame it receives.
    #[derive(Default)]
    struct Tap {
        script: Vec<Payload>,
        got: Vec<Payload>,
    }

    impl Agent for Tap {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let frame = self.script[token as usize].clone();
            ctx.send_shared(IfaceId(0), frame, TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, bytes: &Payload, _class: TrafficClass) {
            self.got.push(bytes.clone());
        }
    }

    /// A router with no timers of its own, one static route for `chan`:
    /// in on interface 0, out on every other interface.
    fn static_router(sim: &Sim, node: NodeId, chan: Channel) -> Box<EcmpRouter> {
        let mut router = EcmpRouter::new(RouterConfig {
            neighbor_probe: None,
            boot_query: false,
            ..RouterConfig::default()
        });
        let all = (1u32 << sim.topology().iface_count(node)) - 1;
        router.install_static_route(FibEntry::new(chan, 0, all & !1).unwrap());
        Box::new(router)
    }

    #[test]
    fn interleaved_frames_through_one_router_keep_their_own_ttl_and_checksum() {
        let mut topo = Topology::new();
        let (src, r, sink) = (topo.add_host(), topo.add_router(), topo.add_host());
        topo.connect(src, r, LinkSpec::default()).unwrap();
        topo.connect(r, sink, LinkSpec::default()).unwrap();
        let chan = Channel::new(topo.ip(src), 1).unwrap();
        // Same length, so the router's pool recycles one buffer across them.
        let a: Payload = packets::channel_data(chan, 16, 64).into();
        let mut b = packets::channel_data(chan, 16, 9);
        *b.last_mut().unwrap() = 0xBB;
        let b: Payload = b.into();
        let script = vec![a.clone(), a.clone(), b.clone(), a.clone(), b.clone()];
        let mut sim = Sim::new(topo, 1);
        sim.set_agent(r, static_router(&sim, r, chan));
        sim.set_agent(src, Box::new(Tap { script: script.clone(), got: vec![] }));
        sim.set_agent(sink, Box::<Tap>::default());
        for token in 0..script.len() as u64 {
            sim.schedule_timer_at(src, SimTime((token + 1) * 10), token);
        }
        sim.run();
        // A, A: one derivation; then B, A, B each displace the other.
        assert_eq!(sim.frames_derived(), 4);
        let got = &sim.agent_as::<Tap>(sink).unwrap().got;
        assert_eq!(got.len(), script.len());
        for (sent, rx) in script.iter().zip(got) {
            let (was, now) = (Ipv4Repr::parse(sent).unwrap(), Ipv4Repr::parse(rx).expect("checksum verifies"));
            assert_eq!(now.ttl, was.ttl - 1);
            assert_eq!(rx[ipv4::HEADER_LEN..], sent[ipv4::HEADER_LEN..]);
        }
    }

    #[test]
    fn a_tree_wave_patches_one_frame_per_level() {
        const DEPTH: usize = 6;
        let g = topogen::kary_tree(2, DEPTH, LinkSpec::default());
        let (src, sinks) = (g.hosts[0], &g.hosts[1..]);
        let chan = Channel::new(g.topo.ip(src), 1).unwrap();
        let frame: Payload = packets::channel_data(chan, 16, packets::DEFAULT_TTL).into();
        let mut sim = Sim::new(g.topo, 1);
        for &r in &g.routers {
            sim.set_agent(r, static_router(&sim, r, chan));
        }
        for &h in sinks {
            sim.set_agent(h, Box::<Tap>::default());
        }
        sim.set_agent(src, Box::new(Tap { script: vec![frame], got: vec![] }));
        for wave in 1..=2u64 {
            sim.schedule_timer_at(src, SimTime(wave * 100_000), 0);
            sim.run();
            // DEPTH + 1 router levels, whatever their width.
            assert_eq!(sim.frames_derived(), wave * (DEPTH as u64 + 1));
        }
        assert_eq!(sim.stats().named("express.data_fwd"), 2 * g.routers.len() as u64);
        // Only a router that patched a frame holds the cold half of its
        // forwarding plane, and a frame parked in its pool. (Debug builds
        // re-derive on every memo hit to check the memo's contract, so
        // there every router patches.)
        let pools = g.routers.iter().filter(|&&r| {
            let cold = sim.agent_as::<EcmpRouter>(r).unwrap().fwd.cold.as_deref();
            cold.is_some_and(|c| !c.pool.parked.is_empty())
        });
        assert_eq!(pools.count(), if cfg!(debug_assertions) { g.routers.len() } else { DEPTH + 1 });
        let first = sim.agent_as::<Tap>(sinks[0]).unwrap().got.clone();
        for &h in sinks {
            let got = &sim.agent_as::<Tap>(h).unwrap().got;
            assert_eq!(got.len(), 2);
            for (rx, same) in got.iter().zip(&first) {
                assert!(Payload::ptr_eq(rx, same), "every sink of a wave holds the one last-level frame");
                assert_eq!(Ipv4Repr::parse(rx).unwrap().ttl, packets::DEFAULT_TTL - (DEPTH as u8 + 1));
            }
        }
    }

    #[test]
    fn patch_ttl_keeps_checksum_valid() {
        let mut pool = PayloadPool::default();
        let patched = pool.patch_ttl(&data_packet(), 63);
        let hdr = Ipv4Repr::parse(&patched).unwrap();
        assert_eq!(hdr.ttl, 63);
    }

    #[test]
    fn payload_pool_recycles_unique_same_length_buffers() {
        let pkt = data_packet();
        let mut pool = PayloadPool::default();
        let first = pool.patch_ttl(&pkt, 63);
        let addr = first.as_ptr() as usize;
        pool.release(first); // unique: eligible for reuse
        let second = pool.patch_ttl(&pkt, 62);
        assert_eq!(second.as_ptr() as usize, addr, "unique buffer is recycled");
        assert_eq!(Ipv4Repr::parse(&second).unwrap().ttl, 62);

        // A still-shared handle must NOT be recycled, and the bytes its
        // holder sees must not change.
        let held = second.clone();
        pool.release(second);
        let third = pool.patch_ttl(&pkt, 61);
        assert_ne!(third.as_ptr() as usize, addr, "shared buffer stays intact");
        assert_eq!(Ipv4Repr::parse(&held).unwrap().ttl, 62);

        // Once its holder lets go, it is reusable again — and found behind
        // a handle that still is not.
        let busy = third.clone();
        pool.release(third);
        pool.parked.swap(0, 1);
        drop(held);
        let fourth = pool.patch_ttl(&pkt, 60);
        assert_eq!(fourth.as_ptr() as usize, addr, "every parked handle is probed");
        assert_eq!(Ipv4Repr::parse(&busy).unwrap().ttl, 61);
    }

    #[test]
    fn payload_pool_one_in_flight_never_spills() {
        let pkt = data_packet();
        let mut pool = PayloadPool::default();
        let mut capacity = None;
        for round in 0..1000u32 {
            let out = pool.patch_ttl(&pkt, 63 - (round % 60) as u8);
            pool.release(out);
            assert_eq!(pool.parked.len(), 1);
            assert_eq!(*capacity.get_or_insert(pool.parked.capacity()), pool.parked.capacity(), "round {round}");
        }
    }

    #[test]
    fn payload_pool_parks_at_most_cap_handles() {
        let pkt = data_packet();
        let mut pool = PayloadPool::default();
        // Nine distinct buffers, each still shared when it is released.
        let held: Vec<Payload> = (0..9).map(|_| Payload::from(&pkt[..])).collect();
        for h in &held {
            pool.release(h.clone());
        }
        assert_eq!(pool.parked.len(), PayloadPool::CAP);
        assert_eq!(PayloadPool::CAP, 8);
        // None of them is reusable while its holder lives.
        let fresh = pool.patch_ttl(&pkt, 63);
        assert!(held.iter().all(|h| h.as_ptr() != fresh.as_ptr()));
        assert!(held.iter().all(|h| Ipv4Repr::parse(h).unwrap().ttl == 64));
    }
}
