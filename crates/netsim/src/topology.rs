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
//! with **no per-node or per-link heap allocation**, at 8 B a node and
//! 16 B a point-to-point link:
//!
//! * Per node, one 8 B record (`iface_ranges`): the node's [`NodeKind`] and
//!   a `(start, len, cap)` range into one shared `iface_slab: Vec<LinkId>`;
//!   interface *i* of node *n* attaches to `iface_slab[start + i]`. Growth
//!   past `cap` relocates the range to the slab's end with doubled
//!   capacity (classic slab relocation; the abandoned range is accepted
//!   fragmentation, bounded by the 32-interface cap).
//! * Per link, one 4 B spec word (`link_words`: the index of the link's
//!   spec, its top bit set while the link is down) and one 4 B offset into
//!   the endpoint array (`ep_offsets`). Endpoints are stored in CSR order:
//!   link *l*'s are `ep[ep_offsets[l]..ep_offsets[l + 1]]`, the last offset
//!   a sentinel. Endpoints never change after
//!   [`connect`](Topology::connect) / [`add_lan`](Topology::add_lan), and
//!   each appends its link's endpoints once, in link-id order, so the
//!   array is exact-sized.
//! * An endpoint is one `u32`, `node << 8 | iface`: a node id fits in 24
//!   bits ([`Topology::MAX_NODES`]) and an interface in 5.
//! * Link specs are **interned**: the spec word indexes the table of
//!   distinct specs (`specs`), told apart by bit pattern. A generated
//!   topology has one to three of them, so the 32-byte [`LinkSpec`] is
//!   stored that many times, not once per link.
//!
//! Building an `N`-node topology therefore performs O(1) *allocations*
//! (amortized `Vec` doubling on a handful of flat arrays) instead of the
//! 2–3 per node of the former boxed layout — the difference between 14.5 s
//! and sub-second setup for the §5.3 million-subscriber tree (see
//! `docs/INTERNALS.md`).

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

/// A node's record: its kind and its interface table, a range into the
/// shared interface slab. `len`/`cap` fit in a byte because interfaces are
/// capped at 32; the kind takes what would be padding.
#[derive(Debug, Clone, Copy)]
struct IfaceRange {
    start: u32,
    len: u8,
    cap: u8,
    kind: NodeKind,
}

/// The bit of a link's spec word set while the link is down; the rest is
/// the index of its spec.
const DOWN: u32 = 1 << 31;

/// One endpoint, packed: `node << 8 | iface`.
fn pack_endpoint(node: NodeId, iface: IfaceId) -> u32 {
    node.0 << 8 | u32::from(iface.0)
}

fn unpack_endpoint(ep: u32) -> (NodeId, IfaceId) {
    (NodeId(ep >> 8), IfaceId(ep as u8))
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
#[derive(Debug, Clone)]
pub struct Topology {
    /// Per-node kind and interface range into `iface_slab`.
    iface_ranges: Vec<IfaceRange>,
    /// Shared interface storage: `iface_slab[r.start + i]` is the link on
    /// interface `i`; slots in `[r.start + r.len, r.start + r.cap)` are
    /// unused capacity (`NO_LINK`).
    iface_slab: Vec<LinkId>,
    /// The distinct link specs, in order of first use.
    specs: Vec<LinkSpec>,
    /// Bit pattern → index into `specs`.
    spec_index: HashMap<SpecBits, u32>,
    /// Per-link spec word: index into `specs`, `DOWN` set while down.
    link_words: Vec<u32>,
    /// Per-link start of its endpoints in `ep`, and one sentinel: always
    /// `link_count() + 1` entries, the last `ep.len()`.
    ep_offsets: Vec<u32>,
    /// Every link's endpoints, packed, in link-id order.
    ep: Vec<u32>,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            iface_ranges: Vec::new(),
            iface_slab: Vec::new(),
            specs: Vec::new(),
            spec_index: HashMap::new(),
            link_words: Vec::new(),
            ep_offsets: vec![0],
            ep: Vec::new(),
        }
    }
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
        t.iface_ranges.reserve_exact(nodes);
        t.iface_slab.reserve_exact(2 * links);
        t.link_words.reserve_exact(links);
        t.ep_offsets.reserve_exact(links);
        t.ep.reserve_exact(2 * links);
        t
    }

    /// Elements allocated but not filled, over the five arenas, and
    /// interface slots that hold no link: reserved and never attached, or
    /// left behind by a relocation.
    #[cfg(test)]
    pub(crate) fn arena_slack(&self) -> usize {
        fn slack<T>(v: &Vec<T>) -> usize {
            v.capacity() - v.len()
        }
        let attached: usize = self.iface_ranges.iter().map(|r| usize::from(r.len)).sum();
        self.iface_slab.len() - attached
            + slack(&self.iface_ranges)
            + slack(&self.iface_slab)
            + slack(&self.link_words)
            + slack(&self.ep_offsets)
            + slack(&self.ep)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.iface_ranges.len() as u32);
        assert!(id.0 < Self::MAX_NODES, "topology exceeds the 10.0.0.0/8 address plan");
        self.iface_ranges.push(IfaceRange { start: 0, len: 0, cap: 0, kind });
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
        let r = &mut self.iface_ranges[id.index()];
        (r.start, r.cap) = (start as u32, cap as u8);
        id
    }

    /// Add an end host.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.iface_ranges.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_words.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.iface_ranges[node.index()].kind
    }

    /// The unicast address of `node` — computed, not stored: `10.a.b.c`
    /// encodes the node index.
    pub fn ip(&self, node: NodeId) -> Ipv4Addr {
        debug_assert!(node.index() < self.node_count());
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
        (idx < self.node_count() as u32).then_some(NodeId(idx))
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
        self.specs[(self.link_words[link.index()] & !DOWN) as usize]
    }

    /// Is `link` currently up?
    pub fn link_up(&self, link: LinkId) -> bool {
        self.link_words[link.index()] & DOWN == 0
    }

    /// Mark `link` up or down (unicast routes must then be recomputed;
    /// the engine does this and notifies attached agents).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        let w = &mut self.link_words[link.index()];
        *w = if up { *w & !DOWN } else { *w | DOWN };
    }

    /// `link`'s packed endpoints.
    fn packed_endpoints(&self, link: LinkId) -> &[u32] {
        let l = link.index();
        &self.ep[self.ep_offsets[l] as usize..self.ep_offsets[l + 1] as usize]
    }

    /// All `(node, iface)` attachment points of `link`, in attachment
    /// order. By value: the iterator unpacks each from one word.
    pub fn endpoints(&self, link: LinkId) -> impl ExactSizeIterator<Item = (NodeId, IfaceId)> + Clone + '_ {
        self.packed_endpoints(link).iter().map(|&ep| unpack_endpoint(ep))
    }

    /// Number of attachment points of `link` (2 for point-to-point, the
    /// member count for a LAN).
    pub fn link_endpoint_count(&self, link: LinkId) -> usize {
        self.packed_endpoints(link).len()
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
        if let Some(&last) = self.link_words.last() {
            let last = last & !DOWN;
            if spec_bits(&self.specs[last as usize]) == bits {
                return Ok(last);
            }
        }
        let specs = &mut self.specs;
        Ok(*self.spec_index.entry(bits).or_insert_with(|| {
            specs.push(spec);
            assert!(specs.len() <= DOWN as usize, "a spec index keeps the spec word's top bit clear");
            specs.len() as u32 - 1
        }))
    }

    /// A new up link with `spec` and no endpoints yet; an invalid spec
    /// consumes no id. Endpoints pushed onto `ep` from here on are the new
    /// link's once [`seal_endpoints`](Self::seal_endpoints) moves the
    /// sentinel past them.
    fn add_link(&mut self, spec: LinkSpec) -> Result<LinkId, TopoError> {
        let ix = self.intern_spec(spec)?;
        let link = LinkId(self.link_words.len() as u32);
        self.link_words.push(ix);
        self.ep_offsets.push(self.ep.len() as u32);
        Ok(link)
    }

    /// Close the last link's endpoint list at the end of `ep`.
    fn seal_endpoints(&mut self) {
        *self.ep_offsets.last_mut().expect("the sentinel") = self.ep.len() as u32;
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
                match r.kind {
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
        self.ep.push(pack_endpoint(a, ia));
        self.ep.push(pack_endpoint(b, ib));
        self.seal_endpoints();
        Ok(link)
    }

    /// Create a multi-access LAN segment attaching all of `members`;
    /// returns the link id. Datagrams sent to a multicast destination on a
    /// LAN reach every attached node except the sender.
    ///
    /// On an interface error the link id is consumed as by
    /// [`connect`](Self::connect), and the link keeps no endpoint: the
    /// members attached before the failing one keep their interfaces.
    pub fn add_lan(&mut self, members: &[NodeId], spec: LinkSpec) -> Result<LinkId, TopoError> {
        let link = self.add_link(spec)?;
        for &m in members {
            match self.attach(m, link) {
                Ok(i) => self.ep.push(pack_endpoint(m, i)),
                Err(e) => {
                    self.ep.truncate(self.ep_offsets[link.index()] as usize);
                    return Err(e);
                }
            }
        }
        self.seal_endpoints();
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
        self.endpoints(link).filter(|&(n, _)| n != node).collect()
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
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // The links of random graphs, rebuilt with a spec per link and a
        // LAN after every fifth: runs of one spec, specs that come back
        // after others, specs that differ in one field or one bit (`0.0` /
        // `-0.0` loss), all distinct ones. Every answer is checked against
        // a model holding a tuple per endpoint, through seeded link flips.
        let spec_for = |l: usize| match l % 10 {
            0..=3 => LinkSpec::default(),
            4 => LinkSpec { loss: -0.0, ..Default::default() },
            5 => LinkSpec { loss: 0.0, ..LinkSpec::lan() },
            6 => LinkSpec { metric: 2, ..Default::default() },
            7 => LinkSpec { bandwidth_bps: u64::MAX, ..Default::default() },
            _ => LinkSpec { latency: SimDuration::from_micros(l as u64), loss: l as f64 / 1e3, ..Default::default() },
        };
        for seed in [7, 8, 9] {
            let g = crate::topogen::random_connected(40, 30, 20, LinkSpec::default(), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Topology::new();
            let kinds: Vec<NodeKind> = g.topo.node_ids().map(|n| g.topo.kind(n)).collect();
            for &k in &kinds {
                t.add_node(k);
            }
            // Per link: its spec, its endpoints and whether it is up.
            let (mut given, mut eps, mut up) = (Vec::new(), Vec::<Vec<(NodeId, IfaceId)>>::new(), Vec::new());
            let mut lan = |t: &mut Topology, given: &mut Vec<LinkSpec>, eps: &mut Vec<_>| {
                let members: Vec<NodeId> = (0..rng.random_range(2..6usize)).map(|_| NodeId(rng.random_range(0..40u32))).collect();
                let spec = spec_for(given.len());
                let ifaces: Vec<usize> = members.iter().map(|&m| t.iface_count(m)).collect();
                assert_eq!(t.add_lan(&members, spec), Ok(LinkId(given.len() as u32)));
                // A member named twice attaches twice.
                let mut seen = Vec::new();
                eps.push(members.iter().zip(ifaces).map(|(&m, i)| {
                    seen.push(m);
                    (m, IfaceId((i + seen.iter().filter(|&&s| s == m).count() - 1) as u8))
                }).collect());
                given.push(spec);
            };
            for l in 0..g.topo.link_count() {
                let spec = spec_for(given.len());
                let id = LinkId(given.len() as u32);
                match g.topo.endpoints(LinkId(l as u32)).collect::<Vec<_>>()[..] {
                    [(a, _), (b, _)] => {
                        let (ia, ib) = (t.iface_count(a), t.iface_count(b) + usize::from(a == b));
                        assert_eq!(t.connect(a, b, spec), Ok(id));
                        eps.push(vec![(a, IfaceId(ia as u8)), (b, IfaceId(ib as u8))]);
                    }
                    // The generator's own failed attempts: ids without endpoints.
                    _ => {
                        assert_eq!(t.add_link(spec), Ok(id));
                        eps.push(Vec::new());
                    }
                }
                given.push(spec);
                if l % 5 == 4 {
                    lan(&mut t, &mut given, &mut eps);
                }
            }
            // One more id consumed by a connect that fails, under a spec of
            // its own, and a link after it.
            let hub = t.add_router();
            for _ in 0..32 {
                let x = t.add_router();
                given.push(spec_for(given.len()));
                t.connect(hub, x, *given.last().unwrap()).unwrap();
                eps.push(vec![(hub, IfaceId(t.iface_count(hub) as u8 - 1)), (x, IfaceId(0))]);
            }
            let odd = LinkSpec { metric: 77, ..LinkSpec::wan(3) };
            assert_eq!(t.connect(hub, NodeId(0), odd), Err(TopoError::TooManyInterfaces(hub)));
            given.push(odd);
            eps.push(Vec::new());
            lan(&mut t, &mut given, &mut eps);
            up.resize(given.len(), true);

            assert_eq!(t.link_count(), given.len());
            for flip in 0..=200 {
                for (l, want) in given.iter().enumerate() {
                    let link = LinkId(l as u32);
                    assert_eq!(spec_bits(&t.link_spec(link)), spec_bits(want), "seed {seed}, link {l}");
                    assert_eq!(t.link_up(link), up[l], "seed {seed}, link {l}, flip {flip}");
                    assert_eq!(t.endpoints(link).collect::<Vec<_>>(), eps[l], "seed {seed}, link {l}");
                    assert_eq!(t.link_endpoint_count(link), eps[l].len());
                    for &(n, ni) in &eps[l] {
                        assert_eq!(t.link_of(n, ni), Ok(link));
                    }
                }
                for (n, &k) in kinds.iter().enumerate() {
                    assert_eq!(t.kind(NodeId(n as u32)), k);
                }
                let l = rng.random_range(0..given.len());
                up[l] = rng.random_range(0..2u32) == 1;
                t.set_link_up(LinkId(l as u32), up[l]);
            }
            assert!(up.iter().any(|&u| !u));
            let mut distinct: Vec<SpecBits> = given.iter().map(spec_bits).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(t.specs.len(), distinct.len(), "one stored spec per bit pattern");
            assert!(distinct.len() > 20 && distinct.len() < given.len() / 2);
        }
    }

    #[test]
    fn a_failed_add_lan_or_connect_leaves_no_endpoint_and_the_next_link_reads_back() {
        let mut t = Topology::new();
        let hub = t.add_router();
        let spokes: Vec<NodeId> = (0..32)
            .map(|_| {
                let x = t.add_host();
                t.connect(hub, x, LinkSpec::default()).unwrap();
                x
            })
            .collect();
        let (a, b) = (t.add_router(), t.add_router());
        // A LAN whose third member is full: the first two attach, and keep
        // their interfaces, before it fails.
        let lan = LinkId(t.link_count() as u32);
        assert_eq!(t.add_lan(&[a, b, hub, spokes[0]], LinkSpec::lan()), Err(TopoError::TooManyInterfaces(hub)));
        // A connect whose second end is full.
        let p2p = LinkId(lan.0 + 1);
        assert_eq!(t.connect(a, hub, LinkSpec::default()), Err(TopoError::TooManyInterfaces(hub)));
        for dead in [lan, p2p] {
            assert_eq!((t.link_endpoint_count(dead), t.endpoints(dead).len()), (0, 0));
        }
        assert_eq!((t.iface_count(a), t.iface_count(b), t.link_count()), (2, 1, 34));
        let next = t.add_lan(&[a, b, spokes[1]], LinkSpec::lan()).unwrap();
        let last = t.connect(b, a, LinkSpec::default()).unwrap();
        assert_eq!((next, last), (LinkId(p2p.0 + 1), LinkId(p2p.0 + 2)));
        let want = [
            (LinkId(0), vec![(hub, IfaceId(0)), (spokes[0], IfaceId(0))]),
            (LinkId(31), vec![(hub, IfaceId(31)), (spokes[31], IfaceId(0))]),
            (next, vec![(a, IfaceId(2)), (b, IfaceId(1)), (spokes[1], IfaceId(1))]),
            (last, vec![(b, IfaceId(2)), (a, IfaceId(3))]),
        ];
        for (link, eps) in want {
            assert_eq!(t.endpoints(link).collect::<Vec<_>>(), eps);
            assert_eq!(t.link_endpoint_count(link), eps.len());
        }
        assert_eq!(t.link_of(a, IfaceId(0)), Ok(lan), "the dead LAN keeps the interface it took");
        assert_eq!(t.link_of(a, IfaceId(1)), Ok(p2p));
    }

    #[test]
    fn a_node_is_one_8_byte_record() {
        // The kind sits in what would be the range's padding.
        assert_eq!(std::mem::size_of::<IfaceRange>(), 8);
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
        assert_eq!(t.endpoints(lan).len(), 3);
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
