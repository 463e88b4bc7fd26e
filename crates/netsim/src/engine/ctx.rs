//! [`Ctx`]: what an agent can see and do during one dispatch.

use super::world::{packet_id, ArrivalCause, DerivedFrame, EventKind, FanoutSend, Member, Shared, World};
use super::{Payload, Reliability, TimerToken, Tx};
use crate::id::{IfaceId, NodeId};
use crate::routing::NextHop;
use crate::metrics::Metrics;
use crate::stats::{CounterId, Name, TrafficClass};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeKind, Topology};
use crate::trace::{DropReason, ProtoEvent, TraceKind};
use express_wire::addr::{Channel, Ipv4Addr};
use rand::rngs::StdRng;
use rand::RngExt;
use std::borrow::Cow;
use std::sync::Arc;

/// The agent's window into the simulation during a dispatch: queries
/// (time, topology, routing), actions (send, timers), and observability
/// (counters, traces, metrics). Borrows the engine's shared read-mostly
/// state plus the dispatching shard's mutable world for the duration of
/// one callback.
pub struct Ctx<'a> {
    pub(super) shared: &'a Shared,
    pub(super) world: &'a mut World,
    pub(super) node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The node this agent is attached to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// This node's unicast address.
    pub fn my_ip(&self) -> Ipv4Addr {
        self.shared.topo.ip(self.node)
    }

    /// This node's kind.
    pub fn kind(&self) -> NodeKind {
        self.shared.topo.kind(self.node)
    }

    /// Number of interfaces on this node.
    pub fn iface_count(&self) -> usize {
        self.shared.topo.iface_count(self.node)
    }

    /// Read-only access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// This node's deterministic RNG stream. Streams are seeded per node
    /// from the run seed, so one node's draws are independent of every
    /// other node's — and of the shard layout.
    pub fn rng(&mut self) -> &mut StdRng {
        self.world.rng(self.shared.seed, self.node)
    }

    /// Bump a named global counter (`<proto>.<event>` convention; see
    /// `docs/OBSERVABILITY.md`). When tracing / metrics are enabled the
    /// bump is also mirrored into the event stream and the time series.
    pub fn count(&mut self, key: &'static str, delta: u64) {
        let node = self.node;
        self.world.count(node, key, delta);
    }

    /// Intern `key` and return its [`CounterId`] handle for use with
    /// [`count_id`](Self::count_id). Register hot counters once (typically
    /// in [`Agent::on_start`](super::Agent::on_start)); registration alone
    /// does not surface the key in
    /// [`Stats::named_counters`](crate::stats::Stats::named_counters).
    pub fn counter(&mut self, key: &'static str) -> CounterId {
        self.world.stats.counter(key)
    }

    /// Bump a pre-registered counter — the per-packet fast path: an array
    /// index instead of a map probe, with the same mirroring to metrics and
    /// trace as [`count`](Self::count) when those are enabled.
    #[inline]
    pub fn count_id(&mut self, id: CounterId, delta: u64) {
        let node = self.node;
        self.world.count_id(node, id, delta);
    }

    /// Bump the per-channel labeled counter `base{chan=channel}` — e.g.
    /// `ctx.count_channel("ecmp.count_msgs", chan, 1)` bumps
    /// `ecmp.count_msgs{chan=(10.0.0.5, 232.0.0.1)}`. The composed key is
    /// formatted once per distinct `(base, channel)` pair for the run, and
    /// every later bump is a hash probe on the pair.
    pub fn count_channel(&mut self, base: &'static str, channel: Channel, delta: u64) {
        let node = self.node;
        self.world.count_channel(node, base, channel, delta);
    }

    /// Pre-register the per-channel counter `base{chan=channel}` and return
    /// its [`CounterId`] for later [`count_id`](Self::count_id) bumps. This
    /// skips even the hash probe that [`count_channel`](Self::count_channel)
    /// pays per call — agents handling one channel on a hot path should
    /// resolve the id once and bump by id. Note that id-based bumps trace
    /// with the composed key as the event name and no separate `channel`
    /// field; use `count_channel` where the structured trace shape matters.
    pub fn channel_counter(&mut self, base: &'static str, channel: Channel) -> CounterId {
        self.world.stats.channel_counter(base, channel)
    }

    /// Emit a structured protocol trace event, sampled by the causal root
    /// of the arrival being dispatched, if any. Zero-cost when tracing is
    /// disabled: `build` runs only if the trace is on. Typical use:
    /// `ctx.trace("ecmp.rehome", |e| e.chan(chan).detail("via if2"))`.
    pub fn trace(&mut self, name: &'static str, build: impl FnOnce(ProtoEvent) -> ProtoEvent) {
        if self.world.trace.is_some() {
            let event = build(ProtoEvent { name: Name::Static(name), ..ProtoEvent::default() });
            let node = self.node;
            self.world.trace_push_ambient(TraceKind::Proto { node, event });
        }
    }

    /// Inside an [`Agent::on_packet`](super::Agent::on_packet) dispatch: the age of the causal
    /// packet chain the arriving frame belongs to — now minus the time the
    /// *original* frame (not the last hop's copy) entered the wire. This is
    /// the end-to-end delivery latency when called at the delivering host.
    /// `None` outside packet dispatch.
    pub fn packet_age(&self) -> Option<SimDuration> {
        self.world.cause.map(|c| self.world.now - c.root_at)
    }

    /// Neighbors reachable on `iface` right now (empty if the link is down).
    pub fn neighbors_on(&self, iface: IfaceId) -> Vec<(NodeId, IfaceId)> {
        self.shared.topo.neighbors_on(self.node, iface)
    }

    /// All (iface, neighbor) pairs of this node.
    pub fn neighbors(&self) -> Vec<(IfaceId, NodeId)> {
        self.shared.topo.neighbors(self.node)
    }

    /// Unicast next hop toward `ip` (the routing substrate of §3).
    pub fn next_hop_ip(&mut self, ip: Ipv4Addr) -> Option<NextHop> {
        let node = self.node;
        self.world.routing.next_hop_ip(&self.shared.topo, node, ip)
    }

    /// The RPF lookup: interface and upstream neighbor toward `source`
    /// (paper §3.2, Figure 3).
    pub fn rpf(&mut self, source: Ipv4Addr) -> Option<NextHop> {
        self.next_hop_ip(source)
    }

    /// Resolve a unicast address to its node.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.shared.topo.node_by_ip(ip)
    }

    /// The unicast address of `node`.
    pub fn ip_of(&self, node: NodeId) -> Ipv4Addr {
        self.shared.topo.ip(node)
    }

    /// The frame derived from the arriving frame `src` under `tag` — a
    /// forwarding hop's TTL-patched copy, with `tag` the new TTL. `derive`
    /// builds it from `src`'s octets, and its result must be a function of
    /// those octets and `tag` **only**: on that contract the engine
    /// remembers the last derivation, and a caller presenting the same
    /// `src` handle and `tag` again — every other router of the tree level
    /// that was handed this frame — gets the remembered handle back
    /// without running `derive`. Frames are immutable once shared, so one
    /// handle serving a whole level is indistinguishable from per-router
    /// copies; receivers still verify the checksum when they parse it.
    ///
    /// Identity, not content, is what is compared (equal octets under
    /// another handle derive afresh), and the memo holds a clone of `src`,
    /// so the address it compares against cannot be reused by a different
    /// frame while the entry stands. Debug builds re-run `derive` on every
    /// hit and assert the octets agree.
    pub fn derive_frame(&mut self, src: &Payload, tag: u32, derive: impl FnOnce(&[u8]) -> Payload) -> Payload {
        let w = &mut *self.world;
        if let Some(m) = &w.derived {
            if m.tag == tag && Arc::ptr_eq(&m.src, src) {
                debug_assert!(*derive(src) == *m.out, "derive_frame: derivation is not a function of (octets, tag)");
                return m.out.clone();
            }
        }
        let out = derive(src);
        w.frames_derived += 1;
        w.derived = Some(DerivedFrame {
            src: src.clone(),
            tag,
            out: out.clone(),
        });
        out
    }

    /// Transmit `bytes` out `iface`. Returns `true` if the link was up and
    /// the frame entered the wire (it may still be lost per-receiver when
    /// `Datagram`). Copies `bytes` into one shared buffer; when the frame
    /// is already in a shared buffer (a forwarded arrival), use
    /// [`send_shared`](Self::send_shared) to skip the copy.
    pub fn send(&mut self, iface: IfaceId, bytes: &[u8], class: TrafficClass, rel: Reliability, tx: Tx) -> bool {
        self.send_shared(iface, Arc::from(bytes), class, rel, tx)
    }

    /// [`send`](Self::send) without the copy: transmit an already-shared
    /// buffer out `iface`. Every receiver's arrival event — across all
    /// interfaces the same handle is sent on — references the one buffer,
    /// so a forwarding hop costs at most one allocation (its own header
    /// patch) regardless of fan-out.
    pub fn send_shared(&mut self, iface: IfaceId, payload: Payload, class: TrafficClass, rel: Reliability, tx: Tx) -> bool {
        self.transmit(iface, Cow::Owned(payload), class, rel, tx)
    }

    /// The one transmit path behind [`send_shared`](Self::send_shared)
    /// (owned handle) and [`send_fanout`](Self::send_fanout) (borrowed
    /// handle): the frame is cloned only where an event must own it.
    fn transmit(&mut self, iface: IfaceId, payload: Cow<'_, Payload>, class: TrafficClass, rel: Reliability, tx: Tx) -> bool {
        let node = self.node;
        let Ok(link) = self.shared.topo.link_of(node, iface) else {
            return false;
        };
        if !self.shared.topo.link_up(link) {
            return false;
        }
        let spec = self.shared.topo.link_spec(link);
        let ser = if spec.bandwidth_bps == u64::MAX {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((payload.len() as u64 * 8).saturating_mul(1_000_000) / spec.bandwidth_bps)
        };
        let arrive = self.world.now + spec.latency + ser;
        self.world.stats.record_tx(link, payload.len(), class);
        if let Some(m) = &mut self.world.metrics {
            // Aggregate per-class transmission series, so experiments get
            // data/control timelines without sampling Stats in a loop.
            let series = match class {
                TrafficClass::Data => Metrics::LINK_DATA_PKTS,
                TrafficClass::Control => Metrics::LINK_CONTROL_PKTS,
            };
            m.bump(series, self.world.now, 1);
        }
        // Causal identity: a fresh id per send; a send performed while an
        // arrival is being dispatched inherits that chain's root (it is a
        // forwarded copy), otherwise it starts a new chain. Ids are drawn
        // from the sender's own counter so they are shard-invariant.
        let li = self.world.local(node);
        let id = packet_id(node, self.world.pkt_seq[li]);
        self.world.pkt_seq[li] += 1;
        let (cause, root, root_at) = match self.world.cause {
            Some(c) => (Some(c.id), c.root, c.root_at),
            None => (None, id, self.world.now),
        };
        let frame = ArrivalCause { id, root, root_at };
        self.world.trace_push(TraceKind::PacketTx {
            node,
            iface,
            link,
            id,
            cause,
            root,
            bytes: payload.len() as u32,
            class,
        });
        let loss = self.shared.loss_override.get(&link).copied().unwrap_or(spec.loss);
        // Deferred fan-out (the batched data path): a loss-free all-on-link
        // send becomes ONE queue entry expanded at drain time, instead of
        // one arrival per receiver. Only loss-free sends may defer — a
        // lossy datagram send draws per-receiver RNG, and deferring those
        // draws would shift the random stream relative to the eager path.
        // (Loss-free sends draw nothing, so deferral cannot shift it.)
        if self.shared.batch_fanout
            && matches!(tx, Tx::AllOnLink)
            && (rel == Reliability::Reliable || loss <= 0.0)
        {
            let member = Member::new(iface, class, id, self.world.next_key(node));
            // A fan-out on a cut link is mirrored — same key — into every
            // other shard the link touches; each shard expands only its own
            // endpoint range, so the union of expansions is exactly the
            // single-shard expansion in the same merge order.
            let mask = self.shared.plan.link_mask(link);
            if mask.count_ones() > 1 {
                let mut m = mask & !(1u64 << self.world.shard);
                while m != 0 {
                    let d = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mirror = FanoutSend { bytes: Payload::clone(&payload), root, root_at, member };
                    self.world.outbox.push((d, arrive, member.key(), EventKind::Fanout(mirror)));
                }
            }
            self.world.push_fanout(arrive, member, root, root_at, payload);
            return true;
        }
        // Eager path (lossy or unicast sends, or batching off): indexed
        // endpoint walk — each `link_endpoint` call re-borrows the topology
        // for one copy, so no endpoint list is materialized per send (the
        // filter order matches the endpoint slice order). In-shard
        // survivors are collected and bulk-scheduled: one bucket resolution
        // per send, consecutive per-sender keys in walk order — the
        // identical pop order per-survivor pushes would produce.
        // Out-of-shard survivors go to the outbox under the same keys.
        let mut cohort = std::mem::take(&mut self.world.bulk_scratch);
        debug_assert!(cohort.is_empty());
        let n_endpoints = self.shared.topo.link_endpoint_count(link);
        for e in 0..n_endpoints {
            let (n, i) = self.shared.topo.link_endpoint(link, e);
            if n == node {
                continue;
            }
            if let Tx::To(t) = tx {
                if n != t {
                    continue;
                }
            }
            let lost = rel == Reliability::Datagram
                && loss > 0.0
                && self.world.rng(self.shared.seed, node).random::<f64>() < loss;
            if lost {
                self.world.stats.record_drop(link);
                if let Some(m) = &mut self.world.metrics {
                    m.bump(Metrics::LINK_DROPS, self.world.now, 1);
                }
                self.world.trace_drop(link, frame, DropReason::Loss, class);
                continue;
            }
            let key = self.world.next_key(node);
            let ev = EventKind::Arrival {
                node: n,
                iface: i,
                bytes: Payload::clone(&payload),
                class,
                cause: frame,
            };
            if n.0 >= self.world.base && n.0 < self.world.limit {
                cohort.push((key, ev));
            } else {
                self.world.outbox.push((self.shared.plan.shard_of(n), arrive, key, ev));
            }
        }
        if !cohort.is_empty() {
            self.world.queue.schedule_bulk_keyed(arrive, cohort.drain(..));
            if self.world.queue.len() > self.world.peak_queue_depth {
                self.world.peak_queue_depth = self.world.queue.len();
            }
        }
        self.world.bulk_scratch = cohort;
        true
    }

    /// Transmit an already-shared buffer out every interface whose bit is
    /// set in `mask` (bit *i* = `IfaceId(i)`, ascending) — the router
    /// fan-out walk as one call. Equivalent to one
    /// [`send_shared`](Self::send_shared) with [`Tx::AllOnLink`] per set
    /// bit; under batching each becomes a deferred fan-out and consecutive
    /// same-latency sends coalesce into a single queue entry, sharing the
    /// handle by reference rather than cloning it per interface. Returns
    /// the number of interfaces whose link was up (frames that entered the
    /// wire).
    pub fn send_fanout(&mut self, mut mask: u32, payload: &Payload, class: TrafficClass, rel: Reliability) -> u32 {
        let mut sent = 0;
        while mask != 0 {
            let i = mask.trailing_zeros();
            mask &= mask - 1;
            if self.transmit(IfaceId(i as u8), Cow::Borrowed(payload), class, rel, Tx::AllOnLink) {
                sent += 1;
            }
        }
        sent
    }

    /// Arrange for [`Agent::on_timer`](super::Agent::on_timer) with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let node = self.node;
        let at = self.world.now + delay;
        let epoch = self.shared.epoch(node);
        let key = self.world.next_key(node);
        self.world.push(at, key, EventKind::Timer { node, token, epoch });
    }

    /// Ask to hear topology transitions: from now on every link or node
    /// transition anywhere in the network calls this agent's
    /// [`on_topology_change`](super::Agent::on_topology_change) and
    /// [`on_route_change`](super::Agent::on_route_change). Nobody is told
    /// by default — a transition costs the engine one call per hook per
    /// listener, not per node — so an agent with state to re-evaluate when
    /// routes move calls this once, typically from
    /// [`on_start`](super::Agent::on_start); calling it again changes
    /// nothing, from inside one of the two hooks included.
    ///
    /// It takes effect at once: the next sweep visits the node, even the
    /// sweeps of a transition whose
    /// [`on_link_change`](super::Agent::on_link_change) did the asking.
    /// There is no way to stop listening; the registration belongs to the
    /// agent and goes when the engine replaces it — a crash, a restart, a
    /// mid-run [`Sim::set_agent`](super::Sim::set_agent) — so a replacement
    /// that wants the callbacks asks for itself.
    pub fn watch_topology(&mut self) {
        self.world.listeners.insert(self.node.0);
    }

    /// Tell the online auditor that what this agent's
    /// [`audit_state`](super::Agent::audit_state) would report may have
    /// changed in this dispatch. The auditor's refreshes re-read only the
    /// nodes marked since the last one, so **the contract is: every
    /// dispatch that changes the report calls this** — before or after the
    /// change, once or many times (marks are idempotent). Marking when
    /// nothing changed costs one re-read and is never wrong; a change
    /// without a mark leaves the auditor judging by a stale tree, which
    /// debug builds catch at the next refresh by comparing against
    /// [`Sim::audit_snapshot`](super::Sim::audit_snapshot).
    ///
    /// The engine marks on the agent's behalf where a change comes from
    /// outside a dispatch: when it installs an agent (crash, restart,
    /// [`Sim::set_agent`](super::Sim::set_agent)), when the harness reaches
    /// in through [`Sim::agent_mut`](super::Sim::agent_mut) /
    /// [`Sim::agent_as`](super::Sim::agent_as), at both endpoints of a link
    /// that goes up or down (a report may read the topology — and whatever
    /// an [`on_link_change`](super::Agent::on_link_change) changes is
    /// covered by that mark), and at every node when an auditor joins the
    /// sink chain. Without an auditor this is one branch.
    ///
    /// A call on `Ctx`, not a hook: wrappers that hand their `Ctx` to the
    /// agent they wrap pass the mark through unchanged.
    pub fn audit_changed(&mut self) {
        self.world.mark_audit(self.node);
    }

    /// Whether `node`'s process is currently up (routers crashed by a
    /// scheduled fault are down until their restart).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.shared.node_down[node.index()]
    }
}
