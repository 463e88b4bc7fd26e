//! The network topology: nodes (routers and hosts), interfaces, and links
//! (point-to-point or multi-access LAN segments).
//!
//! Every node automatically receives a unique unicast IPv4 address from
//! `10.0.0.0/8`; addresses are *computed* from the node index (`10.a.b.c`
//! encodes index `a·2^16 + b·2^8 + c`), so address↔node resolution is
//! arithmetic — no reverse map is stored. Interfaces per node are capped at
//! 32, matching the 5-bit incoming-interface / 32-bit outgoing-mask FIB
//! entry of the paper's Figure 5.
//!
//! ## Arena layout
//!
//! The graph is stored struct-of-arrays, indexed by [`NodeId`]/[`LinkId`],
//! with **no per-node or per-link heap allocation**:
//!
//! * Per-node fields (`kinds`, `iface_ranges`) are flat `Vec`s indexed by
//!   `NodeId`. A node's interface table is a `(start, len, cap)` range into
//!   one shared `iface_slab: Vec<LinkId>`; interface *i* of node *n*
//!   attaches to `iface_slab[start + i]`. Growth past `cap` relocates the
//!   range to the slab's end with doubled capacity (classic slab
//!   relocation; the abandoned range is accepted fragmentation, bounded by
//!   the 32-interface cap).
//! * Per-link fields (`link_spec_ix`, `link_state`, `ep_ranges`) are flat
//!   `Vec`s indexed by `LinkId`. A link's endpoint list is an *exact-sized*
//!   `(start, len)` range into a shared `ep_slab: Vec<(NodeId, IfaceId)>` —
//!   endpoints never change after [`connect`](Topology::connect) /
//!   [`add_lan`](Topology::add_lan), so no capacity slack is needed.
//! * Link specs are **interned**: a link holds a 4-byte index into the
//!   table of distinct specs (`specs`), told apart by bit pattern. A
//!   generated topology has one to three of them, so the 32-byte
//!   [`LinkSpec`] is stored that many times, not once per link.
//!
//! Building an `N`-node topology therefore performs O(1) *allocations*
//! (amortized `Vec` doubling on a handful of flat arrays) instead of the
//! 2–3 per node of the former boxed layout — the difference between 14.5 s
//! and sub-second setup for the §5.3 million-subscriber tree. The layout is
//! also the unit of future parallelism: a shard of the network is a
//! contiguous slice of these arenas (see `docs/INTERNALS.md`).

use crate::id::{IfaceId, LinkId, NodeId};
use crate::time::SimDuration;
use express_wire::addr::Ipv4Addr;
use std::collections::HashMap;

/// Whether a node is a router (forwards) or an end host (sources/sinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A packet-forwarding router running a multicast routing protocol.
    Router,
    /// An end host running the subscriber/source service interface.
    Host,
}

/// Physical characteristics of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Transmission rate in bits per second (serialization delay =
    /// 8·bytes / bandwidth). `u64::MAX` disables serialization delay.
    /// Must be at least 1: a link that never finishes serializing a frame
    /// is rejected with [`TopoError::ZeroBandwidth`].
    pub bandwidth_bps: u64,
    /// Independent per-packet loss probability for datagram traffic
    /// (reliable stream traffic is never dropped — retransmission is
    /// abstracted away, as §3.2's TCP mode assumes).
    pub loss: f64,
    /// Routing metric (unicast shortest paths minimize the metric sum).
    /// Must be at least 1: [`Topology::connect`] and [`Topology::add_lan`]
    /// reject 0 with [`TopoError::ZeroMetric`], because `netsim::routing`
    /// relies on every hop strictly increasing the distance.
    pub metric: u32,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: 100_000_000, // paper §4.5: "each low-cost PC ... 100 Mbps"
            loss: 0.0,
            metric: 1,
        }
    }
}

impl LinkSpec {
    /// A LAN-ish spec: low latency, high bandwidth.
    pub fn lan() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(100),
            ..Default::default()
        }
    }

    /// A WAN-ish spec with the given one-way delay in milliseconds.
    pub fn wan(latency_ms: u64) -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(latency_ms),
            bandwidth_bps: 45_000_000, // T3-era backbone trunk
            ..Default::default()
        }
    }
}

/// Errors from topology construction and queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoError {
    /// The node already has 32 interfaces (Figure 5 bound).
    TooManyInterfaces(NodeId),
    /// An id referenced a node that does not exist.
    NoSuchNode(NodeId),
    /// An id referenced a link that does not exist.
    NoSuchLink(LinkId),
    /// A node/interface pair that does not exist.
    NoSuchInterface(NodeId, IfaceId),
    /// A link was specified with routing metric 0 (the minimum is 1).
    ZeroMetric,
    /// A link was specified with a bandwidth of 0 bits per second.
    ZeroBandwidth,
}

impl core::fmt::Display for TopoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopoError::TooManyInterfaces(n) => write!(f, "{n} already has 32 interfaces"),
            TopoError::NoSuchNode(n) => write!(f, "no such node {n}"),
            TopoError::NoSuchLink(l) => write!(f, "no such link {l}"),
            TopoError::NoSuchInterface(n, i) => write!(f, "no such interface {n}/{i}"),
            TopoError::ZeroMetric => write!(f, "link metric must be at least 1"),
            TopoError::ZeroBandwidth => write!(f, "link bandwidth must be at least 1 bit per second"),
        }
    }
}

impl std::error::Error for TopoError {}

/// A node's interface table: a range into the shared interface slab.
/// `len`/`cap` fit in a byte because interfaces are capped at 32.
#[derive(Debug, Clone, Copy)]
struct IfaceRange {
    start: u32,
    len: u8,
    cap: u8,
}

/// A link's endpoint list: an exact-sized range into the endpoint slab.
#[derive(Debug, Clone, Copy)]
struct EpRange {
    start: u32,
    len: u32,
}

/// Interface slots the first attachment of a router from
/// [`add_router`](Topology::add_router) reserves (the common tree degree is
/// ≤ 3) …
const ROUTER_SLOTS: u8 = 4;
/// … and a host's (almost always a single uplink).
const HOST_SLOTS: u8 = 1;

/// Placeholder filling unused capacity slots in the interface slab.
const NO_LINK: LinkId = LinkId(u32::MAX);

/// What tells two specs apart: the bit pattern of every field (`0.0` and
/// `-0.0` loss are two specs, and each reads back as it was given).
type SpecBits = (u64, u64, u64, u32);

fn spec_bits(spec: &LinkSpec) -> SpecBits {
    (spec.latency.0, spec.bandwidth_bps, spec.loss.to_bits(), spec.metric)
}

/// The network graph, stored as NodeId/LinkId-indexed arenas (see the
/// module docs for the layout and its scaling rationale).
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Per-node kind.
    kinds: Vec<NodeKind>,
    /// Per-node interface range into `iface_slab`.
    iface_ranges: Vec<IfaceRange>,
    /// Shared interface storage: `iface_slab[r.start + i]` is the link on
    /// interface `i`; slots in `[r.start + r.len, r.start + r.cap)` are
    /// unused capacity (`NO_LINK`).
    iface_slab: Vec<LinkId>,
    /// The distinct link specs, in order of first use.
    specs: Vec<LinkSpec>,
    /// Bit pattern → index into `specs`.
    spec_index: HashMap<SpecBits, u32>,
    /// Per-link index into `specs`.
    link_spec_ix: Vec<u32>,
    /// Per-link up/down state.
    link_state: Vec<bool>,
    /// Per-link endpoint range into `ep_slab`.
    ep_ranges: Vec<EpRange>,
    /// Shared endpoint storage, exact-sized per link.
    ep_slab: Vec<(NodeId, IfaceId)>,
}

impl Topology {
    /// The most nodes a topology holds. Node *i* is 10.a.b.c with a.b.c =
    /// *i*, so the last node is 10.255.255.254 and the /8's broadcast
    /// address is nobody's. The same bound keeps an agent-store row index
    /// in 24 bits and a packet id's sender rank, *i* + 1, in the 24 bits
    /// above its 40-bit counter.
    pub const MAX_NODES: u32 = (1 << 24) - 1;

    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty topology with every arena sized for `nodes` nodes and
    /// `links` point-to-point links, each link filling one interface slot
    /// at either end — what the closed-form generators build, reserving
    /// each router's exact degree
    /// ([`add_router_with_ifaces`](Self::add_router_with_ifaces)) and
    /// attaching single-homed hosts. A topology built to those counts
    /// never regrows an arena, so it holds no doubling slack; one that
    /// outgrows them grows like any other.
    pub(crate) fn with_capacity(nodes: usize, links: usize) -> Self {
        let mut t = Self::default();
        t.kinds.reserve_exact(nodes);
        t.iface_ranges.reserve_exact(nodes);
        t.iface_slab.reserve_exact(2 * links);
        t.link_spec_ix.reserve_exact(links);
        t.link_state.reserve_exact(links);
        t.ep_ranges.reserve_exact(links);
        t.ep_slab.reserve_exact(2 * links);
        t
    }

    /// Elements allocated but not filled, over the seven arenas, and
    /// interface slots that hold no link: reserved and never attached, or
    /// left behind by a relocation.
    #[cfg(test)]
    pub(crate) fn arena_slack(&self) -> usize {
        fn slack<T>(v: &Vec<T>) -> usize {
            v.capacity() - v.len()
        }
        let attached: usize = self.iface_ranges.iter().map(|r| usize::from(r.len)).sum();
        self.iface_slab.len() - attached
            + slack(&self.kinds)
            + slack(&self.iface_ranges)
            + slack(&self.iface_slab)
            + slack(&self.link_spec_ix)
            + slack(&self.link_state)
            + slack(&self.ep_ranges)
            + slack(&self.ep_slab)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        assert!(id.0 < Self::MAX_NODES, "topology exceeds the 10.0.0.0/8 address plan");
        self.kinds.push(kind);
        self.iface_ranges.push(IfaceRange { start: 0, len: 0, cap: 0 });
        id
    }

    /// Add a router.
    pub fn add_router(&mut self) -> NodeId {
        self.add_node(NodeKind::Router)
    }

    /// Add a router with `ifaces` interface slots reserved now (at most the
    /// 32-interface cap), for a generator that knows the router's degree.
    /// Attaching more than that relocates the range as for any router.
    pub(crate) fn add_router_with_ifaces(&mut self, ifaces: usize) -> NodeId {
        let id = self.add_router();
        let (start, cap) = (self.iface_slab.len(), ifaces.min(32));
        self.iface_slab.resize(start + cap, NO_LINK);
        self.iface_ranges[id.index()] = IfaceRange { start: start as u32, len: 0, cap: cap as u8 };
        id
    }

    /// Add an end host.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_spec_ix.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// The kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// The unicast address of `node` — computed, not stored: `10.a.b.c`
    /// encodes the node index.
    pub fn ip(&self, node: NodeId) -> Ipv4Addr {
        debug_assert!(node.index() < self.kinds.len());
        let idx = node.0;
        Ipv4Addr::new(10, (idx >> 16) as u8, (idx >> 8) as u8, idx as u8)
    }

    /// Resolve a unicast address to its node — the arithmetic inverse of
    /// [`ip`](Self::ip): decode the index and bounds-check it.
    pub fn node_by_ip(&self, ip: Ipv4Addr) -> Option<NodeId> {
        let v = ip.to_u32();
        if v >> 24 != 10 {
            return None;
        }
        let idx = v & 0x00FF_FFFF;
        (idx < self.kinds.len() as u32).then_some(NodeId(idx))
    }

    /// Number of interfaces on `node`.
    pub fn iface_count(&self, node: NodeId) -> usize {
        self.iface_ranges[node.index()].len as usize
    }

    /// The link attached to `node`'s interface `iface`.
    pub fn link_of(&self, node: NodeId, iface: IfaceId) -> Result<LinkId, TopoError> {
        let r = self
            .iface_ranges
            .get(node.index())
            .ok_or(TopoError::NoSuchNode(node))?;
        if iface.index() >= r.len as usize {
            return Err(TopoError::NoSuchInterface(node, iface));
        }
        Ok(self.iface_slab[r.start as usize + iface.index()])
    }

    /// The physical spec of `link`.
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        self.specs[self.link_spec_ix[link.index()] as usize]
    }

    /// Is `link` currently up?
    pub fn link_up(&self, link: LinkId) -> bool {
        self.link_state[link.index()]
    }

    /// Mark `link` up or down (unicast routes must then be recomputed;
    /// the engine does this and notifies attached agents).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.link_state[link.index()] = up;
    }

    /// All `(node, iface)` attachment points of `link`.
    pub fn link_endpoints(&self, link: LinkId) -> &[(NodeId, IfaceId)] {
        let r = self.ep_ranges[link.index()];
        &self.ep_slab[r.start as usize..(r.start + r.len) as usize]
    }

    /// Number of attachment points of `link` (2 for point-to-point, the
    /// member count for a LAN).
    pub fn link_endpoint_count(&self, link: LinkId) -> usize {
        self.ep_ranges[link.index()].len as usize
    }

    /// The `idx`-th attachment point of `link`, in the same order as
    /// [`link_endpoints`](Self::link_endpoints). Indexed access lets
    /// delivery loops walk a link's endpoints without holding a borrow of
    /// the topology across engine mutations (and without collecting the
    /// endpoint list per packet).
    pub fn link_endpoint(&self, link: LinkId, idx: usize) -> (NodeId, IfaceId) {
        let r = self.ep_ranges[link.index()];
        debug_assert!((idx as u32) < r.len);
        self.ep_slab[r.start as usize + idx]
    }

    /// Where a spec enters the topology: checked, then filed under its bit
    /// pattern — a new entry of `specs` only if no link had it before. The
    /// previous link's spec is compared first, so a generator handing every
    /// link the same spec never hashes.
    fn intern_spec(&mut self, spec: LinkSpec) -> Result<u32, TopoError> {
        if spec.metric == 0 {
            return Err(TopoError::ZeroMetric);
        }
        if spec.bandwidth_bps == 0 {
            return Err(TopoError::ZeroBandwidth);
        }
        let bits = spec_bits(&spec);
        if let Some(&last) = self.link_spec_ix.last() {
            if spec_bits(&self.specs[last as usize]) == bits {
                return Ok(last);
            }
        }
        let specs = &mut self.specs;
        Ok(*self.spec_index.entry(bits).or_insert_with(|| {
            specs.push(spec);
            specs.len() as u32 - 1
        }))
    }

    /// A new up link with `spec` and no endpoints yet; an invalid spec
    /// consumes no id.
    fn add_link(&mut self, spec: LinkSpec) -> Result<LinkId, TopoError> {
        let ix = self.intern_spec(spec)?;
        let link = LinkId(self.link_spec_ix.len() as u32);
        self.link_spec_ix.push(ix);
        self.link_state.push(true);
        self.ep_ranges.push(EpRange {
            start: self.ep_slab.len() as u32,
            len: 0,
        });
        Ok(link)
    }

    fn attach(&mut self, node: NodeId, link: LinkId) -> Result<IfaceId, TopoError> {
        let r = *self
            .iface_ranges
            .get(node.index())
            .ok_or(TopoError::NoSuchNode(node))?;
        if r.len >= 32 {
            return Err(TopoError::TooManyInterfaces(node));
        }
        let mut r = r;
        if r.len == r.cap {
            // Relocate the range to the slab's end with more capacity;
            // growth doubles, capped at the 32-interface bound.
            let new_cap = if r.cap == 0 {
                match self.kinds[node.index()] {
                    NodeKind::Router => ROUTER_SLOTS,
                    NodeKind::Host => HOST_SLOTS,
                }
            } else {
                (r.cap as usize * 2).min(32) as u8
            };
            let new_start = self.iface_slab.len() as u32;
            self.iface_slab.reserve(new_cap as usize);
            for i in 0..r.len {
                let v = self.iface_slab[(r.start + i as u32) as usize];
                self.iface_slab.push(v);
            }
            for _ in r.len..new_cap {
                self.iface_slab.push(NO_LINK);
            }
            r.start = new_start;
            r.cap = new_cap;
        }
        let iface = IfaceId(r.len);
        self.iface_slab[(r.start + r.len as u32) as usize] = link;
        r.len += 1;
        self.iface_ranges[node.index()] = r;
        Ok(iface)
    }

    /// Connect two nodes with a point-to-point link, allocating one
    /// interface on each; returns the link id.
    ///
    /// On an interface error the link id is still consumed (a dead,
    /// endpoint-less link remains) — callers that resample on failure, like
    /// the random topology generators, rely on this id-assignment behavior
    /// staying stable across layout changes. A zero `spec.metric` or
    /// `spec.bandwidth_bps` is rejected before anything is consumed.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> Result<LinkId, TopoError> {
        // Reserve the link slot first so `attach` records a valid id.
        let link = self.add_link(spec)?;
        let ia = self.attach(a, link)?;
        let ib = self.attach(b, link)?;
        let start = self.ep_slab.len() as u32;
        self.ep_slab.push((a, ia));
        self.ep_slab.push((b, ib));
        self.ep_ranges[link.index()] = EpRange { start, len: 2 };
        Ok(link)
    }

    /// Create a multi-access LAN segment attaching all of `members`;
    /// returns the link id. Datagrams sent to a multicast destination on a
    /// LAN reach every attached node except the sender.
    pub fn add_lan(&mut self, members: &[NodeId], spec: LinkSpec) -> Result<LinkId, TopoError> {
        let link = self.add_link(spec)?;
        let start = self.ep_slab.len() as u32;
        for &m in members {
            let i = self.attach(m, link)?;
            self.ep_slab.push((m, i));
        }
        self.ep_ranges[link.index()] = EpRange {
            start,
            len: members.len() as u32,
        };
        Ok(link)
    }

    /// The neighbors reachable out of `node`'s interface `iface`
    /// (one for point-to-point, possibly many on a LAN). Only includes
    /// endpoints if the link is up.
    pub fn neighbors_on(&self, node: NodeId, iface: IfaceId) -> Vec<(NodeId, IfaceId)> {
        let Ok(link) = self.link_of(node, iface) else {
            return Vec::new();
        };
        if !self.link_up(link) {
            return Vec::new();
        }
        self.link_endpoints(link)
            .iter()
            .copied()
            .filter(|&(n, _)| n != node)
            .collect()
    }

    /// All neighbors of `node` across all interfaces, with the local
    /// interface each is reached through.
    pub fn neighbors(&self, node: NodeId) -> Vec<(IfaceId, NodeId)> {
        let mut out = Vec::new();
        for i in 0..self.iface_count(node) {
            let iface = IfaceId(i as u8);
            for (n, _) in self.neighbors_on(node, iface) {
                out.push((iface, n));
            }
        }
        out
    }

    /// Every link attached to `node`, in interface order.
    pub fn links_of(&self, node: NodeId) -> Vec<LinkId> {
        let mut out: Vec<LinkId> = (0..self.iface_count(node))
            .filter_map(|i| self.link_of(node, IfaceId(i as u8)).ok())
            .collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_ips_and_reverse_lookup() {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_host();
        assert_ne!(t.ip(a), t.ip(b));
        assert_eq!(t.node_by_ip(t.ip(a)), Some(a));
        assert_eq!(t.node_by_ip(t.ip(b)), Some(b));
        assert_eq!(t.node_by_ip(Ipv4Addr::new(192, 0, 2, 1)), None);
        // In-plan but unassigned addresses must not resolve.
        assert_eq!(t.node_by_ip(Ipv4Addr::new(10, 0, 0, 2)), None);
        assert_eq!(t.node_by_ip(Ipv4Addr::new(10, 200, 0, 0)), None);
        assert!(t.ip(a).is_unicast());
    }

    #[test]
    fn connect_allocates_interfaces() {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let c = t.add_router();
        let l1 = t.connect(a, b, LinkSpec::default()).unwrap();
        let l2 = t.connect(a, c, LinkSpec::default()).unwrap();
        assert_eq!(t.iface_count(a), 2);
        assert_eq!(t.iface_count(b), 1);
        assert_eq!(t.link_of(a, IfaceId(0)).unwrap(), l1);
        assert_eq!(t.link_of(a, IfaceId(1)).unwrap(), l2);
        assert_eq!(t.neighbors_on(a, IfaceId(0)), vec![(b, IfaceId(0))]);
        assert_eq!(t.neighbors(a), vec![(IfaceId(0), b), (IfaceId(1), c)]);
    }

    #[test]
    fn interface_cap_is_32() {
        let mut t = Topology::new();
        let hub = t.add_router();
        for _ in 0..32 {
            let x = t.add_router();
            t.connect(hub, x, LinkSpec::default()).unwrap();
        }
        let extra = t.add_router();
        assert_eq!(
            t.connect(hub, extra, LinkSpec::default()),
            Err(TopoError::TooManyInterfaces(hub))
        );
        // The hub's table relocated 4→8→16→32 but answers stayed intact.
        for i in 0..32u8 {
            assert_eq!(t.link_of(hub, IfaceId(i)).unwrap(), LinkId(i as u32));
        }
    }

    #[test]
    fn zero_metric_is_rejected_and_consumes_nothing() {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let free = LinkSpec { metric: 0, ..Default::default() };
        assert_eq!(t.connect(a, b, free), Err(TopoError::ZeroMetric));
        assert_eq!(t.add_lan(&[a, b], free), Err(TopoError::ZeroMetric));
        assert_eq!((t.link_count(), t.iface_count(a)), (0, 0));
        assert_eq!(t.connect(a, b, LinkSpec::default()), Ok(LinkId(0)));
    }

    #[test]
    fn zero_bandwidth_is_rejected_and_consumes_nothing() {
        // Such a link used to be accepted, and the first transmission on it
        // divided by its bandwidth.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let stalled = LinkSpec { bandwidth_bps: 0, ..Default::default() };
        assert_eq!(t.connect(a, b, stalled), Err(TopoError::ZeroBandwidth));
        assert_eq!(t.add_lan(&[a, b], stalled), Err(TopoError::ZeroBandwidth));
        assert_eq!((t.link_count(), t.iface_count(a), t.specs.len()), (0, 0, 0));
        assert_eq!(t.connect(a, b, LinkSpec { bandwidth_bps: 1, ..Default::default() }), Ok(LinkId(0)));
    }

    #[test]
    fn every_link_reads_back_the_spec_it_was_given() {
        // The links of a random graph, rebuilt with a spec per link: runs
        // of one spec, specs that come back after others, specs that differ
        // in one field or one bit (`0.0` / `-0.0` loss), all distinct ones.
        let g = crate::topogen::random_connected(40, 30, 20, LinkSpec::default(), 7);
        let spec_for = |l: usize| match l % 10 {
            0..=3 => LinkSpec::default(),
            4 => LinkSpec { loss: -0.0, ..Default::default() },
            5 => LinkSpec { loss: 0.0, ..LinkSpec::lan() },
            6 => LinkSpec { metric: 2, ..Default::default() },
            7 => LinkSpec { bandwidth_bps: u64::MAX, ..Default::default() },
            _ => LinkSpec { latency: SimDuration::from_micros(l as u64), loss: l as f64 / 1e3, ..Default::default() },
        };
        let mut t = Topology::new();
        for n in g.topo.node_ids() {
            t.add_node(g.topo.kind(n));
        }
        let mut given = Vec::new();
        for l in 0..g.topo.link_count() {
            let spec = spec_for(l);
            match *g.topo.link_endpoints(LinkId(l as u32)) {
                [(a, _), (b, _)] => assert_eq!(t.connect(a, b, spec), Ok(LinkId(l as u32))),
                // The generator's own failed attempts: ids without endpoints.
                _ => assert_eq!(t.add_link(spec), Ok(LinkId(l as u32))),
            }
            given.push(spec);
        }
        // One more id consumed by a connect that fails, under a spec of its
        // own, and a link after it.
        let hub = t.add_router();
        for _ in 0..32 {
            let x = t.add_router();
            given.push(spec_for(given.len()));
            t.connect(hub, x, *given.last().unwrap()).unwrap();
        }
        let odd = LinkSpec { metric: 77, ..LinkSpec::wan(3) };
        assert_eq!(t.connect(hub, NodeId(0), odd), Err(TopoError::TooManyInterfaces(hub)));
        given.push(odd);
        given.push(LinkSpec::default());
        t.connect(NodeId(0), NodeId(1), LinkSpec::default()).unwrap();

        assert_eq!(t.link_count(), given.len());
        for (l, want) in given.iter().enumerate() {
            let got = t.link_spec(LinkId(l as u32));
            assert_eq!(spec_bits(&got), spec_bits(want), "link {l}");
        }
        let mut distinct: Vec<SpecBits> = given.iter().map(spec_bits).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(t.specs.len(), distinct.len(), "one stored spec per bit pattern");
        assert!(distinct.len() > 20 && distinct.len() < given.len() / 2);
    }

    #[test]
    fn iface_slab_relocation_preserves_host_tables() {
        // A host growing past its 1-slot initial capacity (LAN + p2p)
        // relocates; both interfaces must survive.
        let mut t = Topology::new();
        let r = t.add_router();
        let h = t.add_host();
        let lan = t.add_lan(&[r, h], LinkSpec::lan()).unwrap();
        let p2p = t.connect(h, r, LinkSpec::default()).unwrap();
        assert_eq!(t.link_of(h, IfaceId(0)).unwrap(), lan);
        assert_eq!(t.link_of(h, IfaceId(1)).unwrap(), p2p);
        assert_eq!(t.iface_count(h), 2);
    }

    #[test]
    fn lan_membership() {
        let mut t = Topology::new();
        let r = t.add_router();
        let h1 = t.add_host();
        let h2 = t.add_host();
        let lan = t.add_lan(&[r, h1, h2], LinkSpec::lan()).unwrap();
        assert_eq!(t.link_endpoints(lan).len(), 3);
        let nbrs = t.neighbors_on(r, IfaceId(0));
        assert_eq!(nbrs.len(), 2);
        assert_eq!(t.link_of(h1, IfaceId(0)), Ok(lan));
    }

    #[test]
    fn link_down_hides_neighbors() {
        let mut t = Topology::new();
        let a = t.add_router();
        let b = t.add_router();
        let l = t.connect(a, b, LinkSpec::default()).unwrap();
        assert_eq!(t.neighbors_on(a, IfaceId(0)).len(), 1);
        t.set_link_up(l, false);
        assert!(!t.link_up(l));
        assert!(t.neighbors_on(a, IfaceId(0)).is_empty());
        t.set_link_up(l, true);
        assert_eq!(t.neighbors_on(a, IfaceId(0)).len(), 1);
    }

    #[test]
    fn bad_queries_error() {
        let mut t = Topology::new();
        let a = t.add_router();
        assert_eq!(
            t.link_of(a, IfaceId(0)),
            Err(TopoError::NoSuchInterface(a, IfaceId(0)))
        );
        assert_eq!(
            t.link_of(NodeId(99), IfaceId(0)),
            Err(TopoError::NoSuchNode(NodeId(99)))
        );
    }

    #[test]
    fn failed_connect_still_consumes_link_id() {
        // Generators that resample on TooManyInterfaces depend on the dead
        // link id staying consumed (stable ids → stable golden traces).
        let mut t = Topology::new();
        let hub = t.add_router();
        for _ in 0..32 {
            let x = t.add_router();
            t.connect(hub, x, LinkSpec::default()).unwrap();
        }
        let before = t.link_count();
        let extra = t.add_router();
        assert!(t.connect(hub, extra, LinkSpec::default()).is_err());
        assert_eq!(t.link_count(), before + 1);
        let dead = LinkId(before as u32);
        assert_eq!(t.link_endpoint_count(dead), 0);
        let fresh = t.add_router();
        let ok = t.connect(extra, fresh, LinkSpec::default()).unwrap();
        assert_eq!(ok, LinkId(before as u32 + 1));
    }
}
