//! Structured event tracing: a zero-cost-when-disabled stream of engine and
//! protocol events captured through a pluggable [`TraceSink`].
//!
//! The paper's evaluation is observational — §5.3 prices control bandwidth,
//! Figure 8 counts messages, §3.3's count mechanism doubles as a
//! network-management tool — but flat end-of-run counters cannot answer
//! *when* or *along which path* something happened. The trace layer records:
//!
//! * **Packet events**: every transmission, delivery and drop, with a
//!   per-frame [`PacketId`] and a *causal* id chain — a frame sent while an
//!   agent is processing an arrival records that arrival's id as its
//!   `cause` and inherits its `root`, so one data packet can be followed
//!   source → receivers across links ([`TraceBuffer::packet_path`]).
//! * **Timer fires** and **topology changes** (the fault schedule as it
//!   actually executed).
//! * **Protocol events** emitted by agents via
//!   [`Ctx::trace`](crate::engine::Ctx::trace), carrying a
//!   `<proto>.<event>` name and optional channel label / value / detail.
//!   Every named-counter bump ([`Ctx::count`](crate::engine::Ctx::count))
//!   is also mirrored as a protocol event, so existing instrumentation
//!   shows up in timelines for free.
//!
//! # Sinks
//!
//! Captured events flow into a [`TraceSink`]. Two are provided:
//!
//! * [`TraceBuffer`] — the bounded in-memory ring (the original backend and
//!   still the default via
//!   [`Sim::enable_trace`](crate::engine::Sim::enable_trace)). When full it
//!   overwrites oldest-first and counts what it lost ([`TraceSink::discarded`],
//!   surfaced in the JSONL header).
//! * [`JsonlSink`] — a buffered write-through JSON Lines stream (file or any
//!   `io::Write`), so multi-million-event runs can be captured end-to-end in
//!   bounded memory. Attach with
//!   [`Sim::enable_trace_sink`](crate::engine::Sim::enable_trace_sink).
//!
//! # Deterministic causal sampling
//!
//! At full scale even a streaming sink produces unwieldy captures; the
//! interesting unit is the *causal chain* (one original send plus every
//! forwarded copy), not the individual event. [`TraceConfig::sample_one_in`]
//! keeps or drops whole chains by hashing the chain's **root packet id**:
//! a chain is kept iff `splitmix64(root) % n == 0`. Packet ids are
//! assigned deterministically and unconditionally by the engine, so two
//! same-seed runs keep exactly the same chains and emit **byte-identical**
//! sampled output — the same determinism contract the golden fault-storm
//! replay pins for unsampled traces. Events with no causal root (timer
//! fires, topology changes, protocol events emitted outside a packet
//! dispatch) are always kept.
//!
//! Tracing is **off by default**: a disabled trace adds one branch per
//! event site and never perturbs [`crate::stats::Stats`] (pinned by the
//! `tracing_does_not_perturb_stats` test in `express`). Enable with
//! [`Sim::enable_trace`](crate::engine::Sim::enable_trace) — every event is
//! captured, subject only to sampling — and export with
//! [`TraceBuffer::to_jsonl`]. The schema is documented in
//! `docs/OBSERVABILITY.md`.

use crate::downcast::AsAny;
use crate::engine::TopologyChange;
use crate::id::{IfaceId, LinkId, NodeId};
use crate::json::{self, Line, Out};
use crate::stats::{CounterId, Name, TrafficClass};
use crate::time::{SimDuration, SimTime};
use express_wire::addr::{Channel, Ipv4Addr};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Trace schema version written in the `trace_header` line. Version 2 added
/// the header/footer lines themselves, the `root` field on drop records and
/// the `sample` denominator.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Identifies one transmitted frame (one `Ctx::send` call). Copies of the
/// same frame delivered to several LAN endpoints share the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Why a frame never reached a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link's datagram loss process discarded it.
    Loss,
    /// The link went down while the frame was in flight.
    LinkDown,
    /// The destination node was down (crashed) at delivery time.
    NodeDown,
}

impl DropReason {
    fn as_str(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::LinkDown => "link_down",
            DropReason::NodeDown => "node_down",
        }
    }
}

/// A protocol event's channel / group label: a typed [`Channel`], which is
/// copied into the event and only rendered — as its `Display` form,
/// `(10.0.0.5, 232.0.0.1)` — by whoever exports or compares it, or free text.
/// Two labels are equal when they render the same.
#[derive(Debug, Clone)]
pub enum ChanLabel {
    /// An EXPRESS channel.
    Channel(Channel),
    /// Anything else, already rendered (a group address, an imported label).
    Text(String),
}

impl PartialEq for ChanLabel {
    fn eq(&self, other: &ChanLabel) -> bool {
        match (self, other) {
            (ChanLabel::Channel(a), ChanLabel::Channel(b)) => a == b,
            (a, b) => a.to_string() == b.to_string(),
        }
    }
}

impl Eq for ChanLabel {}

impl std::fmt::Display for ChanLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChanLabel::Channel(c) => c.fmt(f),
            ChanLabel::Text(t) => f.write_str(t),
        }
    }
}

impl From<Channel> for ChanLabel {
    fn from(c: Channel) -> Self {
        ChanLabel::Channel(c)
    }
}

impl From<Ipv4Addr> for ChanLabel {
    fn from(group: Ipv4Addr) -> Self {
        ChanLabel::Text(group.to_string())
    }
}

impl From<&str> for ChanLabel {
    fn from(t: &str) -> Self {
        ChanLabel::Text(t.to_string())
    }
}

/// A protocol-level event emitted by an agent through
/// [`Ctx::trace`](crate::engine::Ctx::trace): a `<proto>.<event>` name plus
/// optional channel label, value and free-form detail. Building one with a
/// literal name, a [`Channel`] label and a value allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ProtoEvent {
    /// Event name, `<proto>.<event>` (e.g. `ecmp.rehome`).
    pub name: Name,
    /// Channel / group label (e.g. `(10.0.0.5, 232.0.0.1)`), if the event
    /// concerns one channel. Exported as the record's `chan` field.
    pub channel: Option<ChanLabel>,
    /// An associated quantity (a count, a latency in µs, a delta).
    pub value: Option<u64>,
    /// Free-form human-readable detail.
    pub detail: Option<String>,
    /// On a mirrored counter bump whose `name` is the counter's interned
    /// key: that counter's handle in the emitting simulation's
    /// [`Stats`](crate::stats::Stats), so a consumer on the live stream can
    /// index a table by it instead of comparing names. A hint, not part of
    /// the event: `==` ignores it and no export carries it.
    pub counter: Option<CounterId>,
}

impl PartialEq for ProtoEvent {
    fn eq(&self, other: &ProtoEvent) -> bool {
        (&self.name, &self.channel, self.value, &self.detail) == (&other.name, &other.channel, other.value, &other.detail)
    }
}

impl Eq for ProtoEvent {}

impl ProtoEvent {
    /// Attach a channel label: a [`Channel`] as it is, a group address or
    /// text rendered.
    pub fn chan(mut self, c: impl Into<ChanLabel>) -> Self {
        self.channel = Some(c.into());
        self
    }

    /// Attach a value.
    pub fn value(mut self, v: u64) -> Self {
        self.value = Some(v);
        self
    }

    /// Attach free-form detail.
    pub fn detail(mut self, d: impl Into<String>) -> Self {
        self.detail = Some(d.into());
        self
    }
}

/// What happened, in one trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A frame entered the wire.
    PacketTx {
        /// Sending node.
        node: NodeId,
        /// Out which interface.
        iface: IfaceId,
        /// Onto which link.
        link: LinkId,
        /// This frame's id.
        id: PacketId,
        /// The arrival being processed when this send happened, if any —
        /// the causal parent (a forwarded packet's upstream copy).
        cause: Option<PacketId>,
        /// The first frame of the causal chain (equals `id` for a send
        /// performed outside any arrival dispatch, e.g. from a timer).
        root: PacketId,
        /// Frame length in octets.
        bytes: u32,
        /// Data or control.
        class: TrafficClass,
    },
    /// A frame reached a node (about to be dispatched to its agent).
    PacketRx {
        /// Receiving node.
        node: NodeId,
        /// On which interface.
        iface: IfaceId,
        /// This frame's id (matches the `PacketTx`).
        id: PacketId,
        /// The causal root of the chain this frame belongs to.
        root: PacketId,
        /// Simulated age of the causal chain: now − root's send time.
        age: SimDuration,
        /// Data or control.
        class: TrafficClass,
    },
    /// A frame copy was discarded before reaching its receiver.
    PacketDrop {
        /// The link it was crossing.
        link: LinkId,
        /// The frame's id.
        id: PacketId,
        /// The causal root of the chain this frame belongs to, so drops
        /// survive causal sampling alongside the rest of their chain.
        root: PacketId,
        /// Why.
        reason: DropReason,
        /// Data or control.
        class: TrafficClass,
    },
    /// An agent timer fired.
    TimerFire {
        /// The node whose agent ran.
        node: NodeId,
        /// The agent-chosen cookie.
        token: u64,
    },
    /// A topology transition was applied.
    Topology(TopologyChange),
    /// An agent-emitted protocol event (see [`ProtoEvent`]).
    Proto {
        /// The emitting node.
        node: NodeId,
        /// The event.
        event: ProtoEvent,
    },
}

impl TraceKind {
    /// The causal-chain root this event belongs to, if it has one. Packet
    /// tx/rx/drop records carry their root; timer fires, topology changes
    /// and protocol events do not (protocol events emitted *during* a
    /// packet dispatch are attributed to the ambient arrival's root by the
    /// engine, not by the record itself).
    pub fn root_id(&self) -> Option<PacketId> {
        match self {
            TraceKind::PacketTx { root, .. }
            | TraceKind::PacketRx { root, .. }
            | TraceKind::PacketDrop { root, .. } => Some(*root),
            _ => None,
        }
    }
}

/// One trace record: when + what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// The event.
    pub kind: TraceKind,
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash used for causal
/// sampling. Stable across runs, platforms and versions (any change would
/// silently re-select sampled chains, breaking golden comparisons).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic causal-chain sampling: keep a chain iff
/// `splitmix64(root) % denominator == 0`.
///
/// Because the decision is a pure function of the chain's root [`PacketId`]
/// (assigned deterministically by the engine whether or not tracing is on),
/// every event of a kept chain — tx, forwarded copies, deliveries, drops —
/// survives together, and two same-seed runs keep identical chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Keep one chain in `denominator` on average. `0` and `1` keep all.
    pub denominator: u64,
}

impl SampleSpec {
    /// Is the chain rooted at `root` kept?
    pub fn keeps(&self, root: PacketId) -> bool {
        if self.denominator <= 1 {
            return true;
        }
        splitmix64(root.0).is_multiple_of(self.denominator)
    }
}

/// Capture configuration: ring capacity and optional causal sampling.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Maximum retained events; older events are overwritten (ring).
    pub capacity: usize,
    /// Deterministic causal sampling (`None` = keep every chain). See
    /// [`SampleSpec`].
    pub sample: Option<SampleSpec>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 20, sample: None }
    }
}

impl TraceConfig {
    /// Ring capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Keep one causal chain in `n` (deterministically, by root packet id).
    /// `0` and `1` disable sampling.
    pub fn sample_one_in(mut self, n: u64) -> Self {
        self.sample = if n <= 1 {
            None
        } else {
            Some(SampleSpec { denominator: n })
        };
        self
    }
}

/// One hop of a reconstructed packet path: a frame of the causal chain
/// crossing one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// When the frame entered the wire.
    pub sent_at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// The link crossed.
    pub link: LinkId,
    /// Receiving node (`None` when every copy was dropped).
    pub to: Option<NodeId>,
    /// When it arrived (`None` if dropped).
    pub arrived_at: Option<SimTime>,
    /// The frame id of this hop.
    pub id: PacketId,
}

/// The reconstructed path of one causal packet chain (one original send and
/// every forwarded copy): the distribution-tree slice that frame exercised.
#[derive(Debug, Clone, Default)]
pub struct PacketPath {
    /// Every hop, in send order.
    pub hops: Vec<PathHop>,
}

impl PacketPath {
    /// The set of links the chain crossed (deduplicated).
    pub fn links(&self) -> BTreeSet<LinkId> {
        self.hops.iter().map(|h| h.link).collect()
    }

    /// Nodes that received some frame of the chain.
    pub fn receivers(&self) -> BTreeSet<NodeId> {
        self.hops.iter().filter_map(|h| h.to).collect()
    }

    /// Did any link carry two frames of this chain (a forwarding loop or
    /// duplicate delivery — never legal on a distribution tree)?
    pub fn has_duplicate_link(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.hops.iter().any(|h| !seen.insert(h.link))
    }
}

// ---- sinks ---------------------------------------------------------------

/// Where captured trace events go. The engine samples *before* a sink sees
/// an event, so a sink only ever sees events that should be kept — its job
/// is retention.
///
/// The engine builds each record once and lends it to the sink chain
/// through [`record_ref`](Self::record_ref); a [`Tee`] lends the same
/// record to every child. A sink that only reads the record (a serializer,
/// a checker) implements `record_ref` and routes [`record`](Self::record)
/// into it; a sink that keeps records implements `record` and inherits the
/// `record_ref` that clones for it.
///
/// Implementations must account for anything they fail to retain via
/// [`discarded`](Self::discarded): ring overwrite, I/O errors — whatever
/// the backend's loss mode is. The count is surfaced in export headers and
/// by `trace_inspect`, so a truncated capture never looks complete.
///
/// The type itself supplies the downcasts ([`as_any`](Self::as_any),
/// [`as_any_mut`](Self::as_any_mut), [`into_any`](Self::into_any)) by which
/// the engine finds a [`TraceBuffer`] or an
/// [`Auditor`](crate::audit::Auditor) in a sink chain. Override them only in
/// a wrapper, to forward to the sink it wraps.
pub trait TraceSink: AsAny {
    /// The tracer configuration this sink is attached under. Called once by
    /// [`Tracer::new`]; sinks that write self-describing output (e.g.
    /// [`JsonlSink`]'s header line) capture what they need here.
    fn on_attach(&mut self, _cfg: &TraceConfig) {}

    /// Retain one event. Must not drop it — sampling already happened.
    fn record(&mut self, event: TraceEvent);

    /// Calls [`record`](Self::record); the engine never calls this. Kept
    /// only because `benchmark/src/spans.rs` overrides it (see
    /// `crates/netsim/src/compat.rs`).
    fn record_tagged(&mut self, event: TraceEvent, _key: u128, _sub: u64) {
        self.record(event);
    }

    /// Take one event by reference — what the [`Tracer`] and [`Tee`] call.
    /// The default clones the event into [`record`](Self::record).
    fn record_ref(&mut self, event: &TraceEvent) {
        self.record(event.clone());
    }

    /// How many admitted events this sink failed to retain (ring
    /// overwrites, write errors, …).
    fn discarded(&self) -> u64 {
        0
    }

    /// Push buffered output to the backend (no-op for in-memory sinks).
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Finalize the capture: write any trailer/footer and flush. Called by
    /// [`Tracer::finish`]; safe to call more than once.
    fn finish(&mut self) -> std::io::Result<()> {
        self.flush()
    }

    /// This sink as `Any` (e.g. recovering the [`TraceBuffer`] behind
    /// [`Sim::trace`](crate::engine::Sim::trace)).
    fn as_any(&self) -> &dyn std::any::Any {
        self.any_ref()
    }

    /// This sink as mutable `Any`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.any_mut()
    }

    /// This sink as an owned `Any` (e.g.
    /// [`Sim::take_trace`](crate::engine::Sim::take_trace)).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self.into_any_box()
    }
}

/// The in-memory event ring — the default sink.
#[derive(Debug)]
pub struct TraceBuffer {
    cfg: TraceConfig,
    ring: VecDeque<TraceEvent>,
    /// Events discarded because the ring was full.
    overwritten: u64,
}

impl TraceBuffer {
    /// An empty buffer with the given configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceBuffer {
            ring: VecDeque::with_capacity(cfg.capacity.min(4096)),
            cfg,
            overwritten: 0,
        }
    }

    /// A buffer holding `events` (e.g. re-imported from JSONL via
    /// [`parse_jsonl`](Self::parse_jsonl)), so the query API — path
    /// reconstruction, data roots — works on saved traces too.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        TraceBuffer {
            cfg: TraceConfig::default().capacity(events.len().max(1)),
            ring: events.into(),
            overwritten: 0,
        }
    }

    /// The capture configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// How many captured events were overwritten by newer ones.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    fn store(&mut self, event: TraceEvent) {
        if self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.overwritten += 1;
        }
        self.ring.push_back(event);
    }

    // ---- queries ---------------------------------------------------------

    /// The root [`PacketId`]s of all captured *data* packet chains: data
    /// transmissions performed outside any arrival dispatch (an original
    /// source send, not a forwarded copy).
    pub fn data_roots(&self) -> Vec<PacketId> {
        self.ring
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::PacketTx {
                    id,
                    cause: None,
                    class: TrafficClass::Data,
                    ..
                } => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// Reconstruct the path of the causal chain rooted at `root`: every
    /// transmission with that root, joined with its delivery (or lack of
    /// one). This is the §3.2 distribution-tree slice one data packet
    /// exercised — tests assert tree *shape* with it, not just totals.
    pub fn packet_path(&self, root: PacketId) -> PacketPath {
        let mut rx: BTreeMap<PacketId, Vec<(NodeId, SimTime)>> = BTreeMap::new();
        for e in &self.ring {
            if let TraceKind::PacketRx { node, id, root: r, .. } = &e.kind {
                if *r == root {
                    rx.entry(*id).or_default().push((*node, e.at));
                }
            }
        }
        let mut path = PacketPath::default();
        for e in &self.ring {
            if let TraceKind::PacketTx {
                node, link, id, root: r, ..
            } = &e.kind
            {
                if *r != root {
                    continue;
                }
                match rx.get(id) {
                    Some(arrivals) => {
                        for (to, when) in arrivals {
                            path.hops.push(PathHop {
                                sent_at: e.at,
                                from: *node,
                                link: *link,
                                to: Some(*to),
                                arrived_at: Some(*when),
                                id: *id,
                            });
                        }
                    }
                    None => path.hops.push(PathHop {
                        sent_at: e.at,
                        from: *node,
                        link: *link,
                        to: None,
                        arrived_at: None,
                        id: *id,
                    }),
                }
            }
        }
        path
    }

    // ---- JSONL export / import ------------------------------------------

    /// Serialize the retained events as JSON Lines, preceded by a
    /// `trace_header` line carrying the schema version, event count, the
    /// ring's `discarded` count and the sampling denominator (schema in
    /// `docs/OBSERVABILITY.md`). Deterministic: two identical runs produce
    /// byte-identical output.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::with_capacity(self.ring.len() * 64 + 96);
        open_header(&mut out, "ring");
        json::field_u64(&mut out, "events", self.ring.len() as u64);
        json::field_u64(&mut out, "discarded", self.overwritten);
        close_header(&mut out, &self.cfg.sample);
        for e in &self.ring {
            write_jsonl_line(&mut out, e);
            out.put(b"\n");
        }
        json::into_string(out)
    }

    /// Parse events from JSON Lines previously produced by
    /// [`to_jsonl`](Self::to_jsonl) or streamed through a [`JsonlSink`].
    /// Header / footer / unknown lines are skipped; returns the parsed
    /// events in order. Use [`TraceMeta::parse`] to read the header.
    pub fn parse_jsonl(text: &str) -> Vec<TraceEvent> {
        text.lines().filter_map(parse_jsonl_line).collect()
    }
}

impl TraceSink for TraceBuffer {
    fn record(&mut self, event: TraceEvent) {
        self.store(event);
    }

    fn discarded(&self) -> u64 {
        self.overwritten
    }
}

/// A buffered write-through JSON Lines sink: events are serialized into an
/// in-memory text buffer and written to the backend whenever the buffer
/// exceeds ~64 KiB, so memory stays bounded no matter how many events the
/// run produces. Write errors are counted as [`discarded`](TraceSink::discarded)
/// events (never panicking mid-run) and surfaced in the footer.
///
/// The stream starts with a `trace_header` line (written when the sink is
/// attached to a [`Tracer`], or lazily before the first event) and — once
/// [`finish`](TraceSink::finish) runs — ends with a `trace_footer` line
/// carrying the final event and discarded counts.
pub struct JsonlSink<W: std::io::Write + 'static> {
    out: W,
    buf: Vec<u8>,
    /// Where a line of bounded length is built before it joins `buf`.
    line: Line<LINE_BYTES>,
    /// Flush threshold in bytes.
    flush_at: usize,
    /// Events currently serialized in `buf` (lost together on write error).
    buf_events: u64,
    events: u64,
    discarded: u64,
    header_written: bool,
    sample: Option<SampleSpec>,
    finished: bool,
}

/// Buffered bytes before a backend write (64 KiB).
const JSONL_FLUSH_BYTES: usize = 64 * 1024;

/// `{"ev":"trace_header","version":2,"source":"…"`, left open for the
/// source's own fields.
fn open_header(out: &mut Vec<u8>, source: &str) {
    out.put(b"{\"ev\":\"trace_header\"");
    json::field_u64(out, "version", TRACE_SCHEMA_VERSION);
    json::field_str(out, "source", source);
}

fn close_header(out: &mut Vec<u8>, sample: &Option<SampleSpec>) {
    if let Some(s) = sample {
        json::field_u64(out, "sample", s.denominator);
    }
    out.put(b"}\n");
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncating) `path` and stream the capture to it.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(std::io::BufWriter::new(file)))
    }
}

impl<W: std::io::Write + 'static> JsonlSink<W> {
    /// Stream the capture to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: Vec::with_capacity(JSONL_FLUSH_BYTES + 1024),
            line: Line::new(),
            flush_at: JSONL_FLUSH_BYTES,
            buf_events: 0,
            events: 0,
            discarded: 0,
            header_written: false,
            sample: None,
            finished: false,
        }
    }

    /// Events successfully handed to the backend or still buffered.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Recover the backend writer (after [`TraceSink::finish`]).
    pub fn into_inner(self) -> W {
        self.out
    }

    fn write_header(&mut self) {
        if self.header_written {
            return;
        }
        self.header_written = true;
        open_header(&mut self.buf, "stream");
        close_header(&mut self.buf, &self.sample);
    }

    fn drain_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.out.write_all(&self.buf).is_err() {
            self.discarded += self.buf_events;
            self.events -= self.buf_events.min(self.events);
        }
        self.buf.clear();
        self.buf_events = 0;
    }
}

impl<W: std::io::Write + 'static> TraceSink for JsonlSink<W> {
    fn on_attach(&mut self, cfg: &TraceConfig) {
        self.sample = cfg.sample;
        self.write_header();
    }

    fn record(&mut self, event: TraceEvent) {
        self.record_ref(&event);
    }

    fn record_ref(&mut self, event: &TraceEvent) {
        self.write_header();
        if text_len(event) <= LINE_TEXT_MAX {
            self.line.clear();
            write_jsonl_line(&mut self.line, event);
            self.line.put(b"\n");
            self.buf.put(self.line.bytes());
        } else {
            // A name, label or detail as long as its author made it:
            // straight into the heap buffer.
            write_jsonl_line(&mut self.buf, event);
            self.buf.push(b'\n');
        }
        self.events += 1;
        self.buf_events += 1;
        if self.buf.len() >= self.flush_at {
            self.drain_buf();
        }
    }

    fn discarded(&self) -> u64 {
        self.discarded
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.drain_buf();
        self.out.flush()
    }

    fn finish(&mut self) -> std::io::Result<()> {
        if !self.finished {
            self.finished = true;
            self.write_header();
            self.drain_buf();
            self.buf.put(b"{\"ev\":\"trace_footer\"");
            json::field_u64(&mut self.buf, "events", self.events);
            json::field_u64(&mut self.buf, "discarded", self.discarded);
            self.buf.put(b"}\n");
            self.drain_buf();
        }
        self.out.flush()
    }
}

// ---- tee -----------------------------------------------------------------

/// A fan-out sink: every admitted event goes to *all* child sinks, in the
/// order they were added. This is how an online consumer (e.g.
/// [`Auditor`](crate::audit::Auditor)) runs beside a capture sink
/// ([`JsonlSink`], [`TraceBuffer`]) on the same stream —
/// [`Sim::add_trace_sink`](crate::engine::Sim::add_trace_sink) builds one
/// transparently when a second sink is attached.
///
/// Semantics:
/// - [`record_ref`](TraceSink::record_ref) lends the one event to each
///   child in turn; the tee itself never clones it (a child that keeps
///   events clones for itself).
/// - [`discarded`](TraceSink::discarded) is the **sum** over children: any
///   child losing events makes the combined capture incomplete.
/// - [`flush`](TraceSink::flush) / [`finish`](TraceSink::finish) run on
///   *every* child even if an earlier one errors; the first error is
///   returned.
#[derive(Default)]
pub struct Tee {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl Tee {
    /// An empty tee. Children are added with [`push`](Self::push) (their
    /// [`on_attach`](TraceSink::on_attach) is the caller's responsibility)
    /// or arrive pre-attached via [`Tracer::add_sink`].
    pub fn new() -> Self {
        Tee::default()
    }

    /// A tee over `sinks`, fanning out in the given order.
    pub fn from_sinks(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        Tee { sinks }
    }

    /// Append a child sink (events recorded before this point were not
    /// seen by it).
    pub fn push(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// The child sinks, in fan-out order.
    pub fn sinks(&self) -> &[Box<dyn TraceSink>] {
        &self.sinks
    }

    /// The child sinks, mutably (e.g. to downcast one mid-run).
    pub fn sinks_mut(&mut self) -> &mut [Box<dyn TraceSink>] {
        &mut self.sinks
    }

    /// Consume the tee into its children, in fan-out order.
    pub fn into_sinks(self) -> Vec<Box<dyn TraceSink>> {
        self.sinks
    }

    /// Run `op` on every child, an earlier one's error notwithstanding;
    /// the first error is the result.
    fn on_every(&mut self, op: impl FnMut(&mut Box<dyn TraceSink>) -> std::io::Result<()>) -> std::io::Result<()> {
        let results: Vec<_> = self.sinks.iter_mut().map(op).collect();
        results.into_iter().collect()
    }
}

impl std::fmt::Debug for Tee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tee")
            .field("sinks", &self.sinks.len())
            .field("discarded", &self.discarded())
            .finish()
    }
}

impl TraceSink for Tee {
    fn on_attach(&mut self, cfg: &TraceConfig) {
        for s in &mut self.sinks {
            s.on_attach(cfg);
        }
    }

    fn record(&mut self, event: TraceEvent) {
        self.record_ref(&event);
    }

    fn record_ref(&mut self, event: &TraceEvent) {
        for s in &mut self.sinks {
            s.record_ref(event);
        }
    }

    fn discarded(&self) -> u64 {
        self.sinks.iter().map(|s| s.discarded()).sum()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.on_every(|s| s.flush())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.on_every(|s| s.finish())
    }
}

/// The capture front-end the engine talks to: owns the [`TraceConfig`]
/// (causal sampling) and forwards the events it keeps to its
/// [`TraceSink`].
pub struct Tracer {
    cfg: TraceConfig,
    sink: Box<dyn TraceSink>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("cfg", &self.cfg)
            .field("discarded", &self.sink.discarded())
            .finish()
    }
}

impl Tracer {
    /// A tracer sampling by `cfg` into `sink` (the sink's
    /// [`on_attach`](TraceSink::on_attach) hook runs here).
    pub fn new(cfg: TraceConfig, mut sink: Box<dyn TraceSink>) -> Self {
        sink.on_attach(&cfg);
        Tracer { cfg, sink }
    }

    /// A tracer capturing into a fresh in-memory ring configured by `cfg`.
    pub fn ring(cfg: TraceConfig) -> Self {
        let buffer = TraceBuffer::new(cfg.clone());
        Tracer::new(cfg, Box::new(buffer))
    }

    /// The sink, for inspection (e.g. its `discarded` count).
    pub fn sink(&self) -> &dyn TraceSink {
        self.sink.as_ref()
    }

    /// The sink, mutably (e.g. to [`flush`](TraceSink::flush) mid-run).
    pub fn sink_mut(&mut self) -> &mut dyn TraceSink {
        self.sink.as_mut()
    }

    /// Add a second (third, …) sink beside the current one: the current
    /// sink is wrapped into a [`Tee`] (or, if it already is one, the new
    /// sink is appended) and every event admitted from now on fans out to
    /// all of them. The new sink's [`on_attach`](TraceSink::on_attach) runs
    /// here; events recorded before this call are not replayed into it.
    pub fn add_sink(&mut self, mut sink: Box<dyn TraceSink>) {
        sink.on_attach(&self.cfg);
        if let Some(tee) = self.sink.as_any_mut().downcast_mut::<Tee>() {
            tee.push(sink);
            return;
        }
        let current = std::mem::replace(&mut self.sink, Box::new(Tee::new()));
        self.sink = Box::new(Tee::from_sinks(vec![current, sink]));
    }

    /// The ring buffer behind this tracer, if the sink is one — looking
    /// through a [`Tee`] for the first buffer child if necessary.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        if let Some(buf) = self.sink.as_any().downcast_ref::<TraceBuffer>() {
            return Some(buf);
        }
        self.sink
            .as_any()
            .downcast_ref::<Tee>()
            .and_then(|tee| tee.sinks().iter().find_map(|s| s.as_any().downcast_ref::<TraceBuffer>()))
    }

    /// Finalize the capture ([`TraceSink::finish`]) and hand the sink back.
    pub fn finish(mut self) -> Box<dyn TraceSink> {
        let _ = self.sink.finish();
        self.sink
    }

    /// Record an event whose sampling root (if any) is carried by the
    /// record itself.
    pub(crate) fn push(&mut self, at: SimTime, kind: TraceKind) {
        self.push_caused(at, kind, None);
    }

    /// Record an event, sampling by the record's own root or — for rootless
    /// records like protocol events — by `ambient_root` (the arrival being
    /// dispatched when the event fired). Events with no root at all always
    /// pass sampling. The record is built here, once, and lent to the sink
    /// chain.
    pub(crate) fn push_caused(&mut self, at: SimTime, kind: TraceKind, ambient_root: Option<PacketId>) {
        if let Some(s) = self.cfg.sample {
            if let Some(root) = kind.root_id().or(ambient_root) {
                if !s.keeps(root) {
                    return;
                }
            }
        }
        self.sink.record_ref(&TraceEvent { at, kind });
    }
}

// ---- header / footer metadata -------------------------------------------

/// Metadata parsed from a capture's `trace_header` / `trace_footer` lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Schema version from the header.
    pub version: u64,
    /// `"ring"` (exported from a [`TraceBuffer`]) or `"stream"` (a
    /// [`JsonlSink`] capture).
    pub source: String,
    /// Total events in the capture, when the header or footer recorded it.
    pub events: Option<u64>,
    /// Events the sink failed to retain (ring overwrite / write errors).
    /// Nonzero means the capture is **incomplete**.
    pub discarded: Option<u64>,
    /// Causal-sampling denominator (`1/n` chains kept), if sampling was on.
    pub sample: Option<u64>,
}

impl TraceMeta {
    /// Extract capture metadata from JSONL text: the `trace_header` line
    /// (scanned near the top) plus, for streamed captures, the
    /// `trace_footer` (scanned from the bottom) which carries the final
    /// counts. Returns `None` for pre-v2 captures with no header.
    pub fn parse(text: &str) -> Option<TraceMeta> {
        let mut meta: Option<TraceMeta> = None;
        for line in text.lines().take(8) {
            let Some(m) = parse_flat_json_object(line) else { continue };
            if m.get("ev").map(String::as_str) == Some("trace_header") {
                let get = |k: &str| m.get(k).and_then(|v| v.parse::<u64>().ok());
                meta = Some(TraceMeta {
                    version: get("version").unwrap_or(0),
                    source: m.get("source").cloned().unwrap_or_default(),
                    events: get("events"),
                    discarded: get("discarded"),
                    sample: get("sample"),
                });
                break;
            }
        }
        let mut meta = meta?;
        for line in text.lines().rev().take(8) {
            let Some(m) = parse_flat_json_object(line) else { continue };
            if m.get("ev").map(String::as_str) == Some("trace_footer") {
                let get = |k: &str| m.get(k).and_then(|v| v.parse::<u64>().ok());
                if let Some(e) = get("events") {
                    meta.events = Some(e);
                }
                if let Some(d) = get("discarded") {
                    meta.discarded = Some(d);
                }
                break;
            }
        }
        Some(meta)
    }
}

fn class_str(class: TrafficClass) -> &'static [u8] {
    match class {
        TrafficClass::Data => b",\"class\":\"data\"}",
        TrafficClass::Control => b",\"class\":\"control\"}",
    }
}

/// The longest line a record without text can serialize to: a `pkt_tx`
/// with a cause and every integer at its type's maximum.
const FIXED_LINE_MAX: usize = 208;

/// The text a record may carry and still be built in a [`JsonlSink`]'s
/// line: the engine's own events — a `<proto>.<event>` name, a typed
/// channel — stay well under it.
const LINE_TEXT_MAX: usize = 48;

/// Room for the longest record without text, `LINE_TEXT_MAX` bytes of text
/// with every one of them escaped six-fold, the newline, and the twenty
/// bytes an integer's last write may cover.
const LINE_BYTES: usize = FIXED_LINE_MAX + 6 * LINE_TEXT_MAX + 1 + 20;

/// How many bytes of text (name, label, detail) `e` carries, before
/// escaping. A typed channel renders to at most 34.
fn text_len(e: &TraceEvent) -> usize {
    let TraceKind::Proto { event, .. } = &e.kind else { return 0 };
    let label = match &event.channel {
        Some(ChanLabel::Text(t)) => t.len(),
        Some(ChanLabel::Channel(_)) | None => 0,
    };
    event.name.len() + label + event.detail.as_ref().map_or(0, String::len)
}

/// `e` as one trace JSONL v2 line, without the newline.
pub(crate) fn write_jsonl_line(out: &mut impl Out, e: &TraceEvent) {
    use json::num;
    num(out, b"{\"t\":", e.at.micros());
    match &e.kind {
        TraceKind::PacketTx { node, iface, link, id, cause, root, bytes, class } => {
            num(out, b",\"ev\":\"pkt_tx\",\"node\":", node.0.into());
            num(out, b",\"iface\":", iface.0.into());
            num(out, b",\"link\":", link.0.into());
            num(out, b",\"id\":", id.0);
            num(out, b",\"root\":", root.0);
            if let Some(c) = cause {
                num(out, b",\"cause\":", c.0);
            }
            num(out, b",\"bytes\":", (*bytes).into());
            out.put(class_str(*class));
        }
        TraceKind::PacketRx { node, iface, id, root, age, class } => {
            num(out, b",\"ev\":\"pkt_rx\",\"node\":", node.0.into());
            num(out, b",\"iface\":", iface.0.into());
            num(out, b",\"id\":", id.0);
            num(out, b",\"root\":", root.0);
            num(out, b",\"age_us\":", age.micros());
            out.put(class_str(*class));
        }
        TraceKind::PacketDrop { link, id, root, reason, class } => {
            num(out, b",\"ev\":\"drop\",\"link\":", link.0.into());
            num(out, b",\"id\":", id.0);
            num(out, b",\"root\":", root.0);
            json::field_str(out, "reason", reason.as_str());
            out.put(class_str(*class));
        }
        TraceKind::TimerFire { node, token } => {
            num(out, b",\"ev\":\"timer\",\"node\":", node.0.into());
            num(out, b",\"token\":", *token);
            out.put(b"}");
        }
        TraceKind::Topology(change) => {
            let (kind, entity) = match change {
                TopologyChange::LinkDown(l) => ("link_down", l.0),
                TopologyChange::LinkUp(l) => ("link_up", l.0),
                TopologyChange::NodeDown(n) => ("node_down", n.0),
                TopologyChange::NodeUp(n) => ("node_up", n.0),
            };
            out.put(b",\"ev\":\"topo\"");
            json::field_str(out, "change", kind);
            num(out, b",\"entity\":", entity.into());
            out.put(b"}");
        }
        TraceKind::Proto { node, event } => {
            num(out, b",\"ev\":\"proto\",\"node\":", node.0.into());
            out.put(b",\"name\":");
            json::string(out, &event.name);
            match &event.channel {
                Some(ChanLabel::Channel(c)) => {
                    // `Channel`'s `Display`, by hand: "(source, group)".
                    let mut open: &[u8] = b",\"chan\":\"(";
                    for Ipv4Addr([a, b, c, d]) in [c.source, c.group()] {
                        num(out, open, a.into());
                        num(out, b".", b.into());
                        num(out, b".", c.into());
                        num(out, b".", d.into());
                        open = b", ";
                    }
                    out.put(b")\"");
                }
                Some(ChanLabel::Text(c)) => json::field_str(out, "chan", c),
                None => {}
            }
            if let Some(v) = event.value {
                num(out, b",\"value\":", v);
            }
            if let Some(d) = &event.detail {
                json::field_str(out, "detail", d);
            }
            out.put(b"}");
        }
    }
}

/// A minimal flat-object JSON parser for the line schemas this workspace
/// writes (trace JSONL, `prof_report` JSON, bench baselines): one object
/// per line, one level deep, string / integer values only. Returns `None`
/// on anything that is not a flat object.
pub fn parse_flat_json_object(line: &str) -> Option<BTreeMap<String, String>> {
    let line = line.trim();
    let inner = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut map = BTreeMap::new();
    let bytes = inner.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        // Key.
        while i < bytes.len() && (bytes[i] == b',' || bytes[i] == b' ') {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != b'"' {
            return None;
        }
        i += 1;
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'"' {
            i += 1;
        }
        let key = inner.get(key_start..i)?.to_string();
        i += 1; // closing quote
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i += 1;
        // Value: string (with escapes) or bare token.
        if i < bytes.len() && bytes[i] == b'"' {
            i += 1;
            let mut val = String::new();
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    i += 1;
                    match bytes[i] {
                        b'n' => val.push('\n'),
                        b'u' => {
                            let hex = inner.get(i + 1..i + 5)?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            val.push(char::from_u32(code)?);
                            i += 4;
                        }
                        c => val.push(c as char),
                    }
                    i += 1;
                } else {
                    // Multi-byte UTF-8: copy the whole char.
                    let ch = inner.get(i..)?.chars().next()?;
                    val.push(ch);
                    i += ch.len_utf8();
                }
            }
            if i >= bytes.len() {
                return None; // unterminated string (truncated line)
            }
            i += 1;
            map.insert(key, val);
        } else {
            let val_start = i;
            while i < bytes.len() && bytes[i] != b',' {
                i += 1;
            }
            map.insert(key, inner.get(val_start..i)?.trim().to_string());
        }
    }
    Some(map)
}

fn parse_jsonl_line(line: &str) -> Option<TraceEvent> {
    let m = parse_flat_json_object(line)?;
    let at = SimTime(m.get("t")?.parse().ok()?);
    let u64f = |k: &str| -> Option<u64> { m.get(k)?.parse().ok() };
    // Ids narrower than 64 bits: a value that does not fit is a garbled
    // line, not the id it would wrap to.
    let u32f = |k: &str| -> Option<u32> { u64f(k)?.try_into().ok() };
    let iface = || -> Option<IfaceId> { Some(IfaceId(u64f("iface")?.try_into().ok()?)) };
    let class = || -> TrafficClass {
        match m.get("class").map(String::as_str) {
            Some("control") => TrafficClass::Control,
            _ => TrafficClass::Data,
        }
    };
    let kind = match m.get("ev")?.as_str() {
        "pkt_tx" => TraceKind::PacketTx {
            node: NodeId(u32f("node")?),
            iface: iface()?,
            link: LinkId(u32f("link")?),
            id: PacketId(u64f("id")?),
            cause: u64f("cause").map(PacketId),
            root: PacketId(u64f("root")?),
            bytes: u32f("bytes")?,
            class: class(),
        },
        "pkt_rx" => TraceKind::PacketRx {
            node: NodeId(u32f("node")?),
            iface: iface()?,
            id: PacketId(u64f("id")?),
            root: PacketId(u64f("root")?),
            age: SimDuration(u64f("age_us")?),
            class: class(),
        },
        "drop" => {
            let id = PacketId(u64f("id")?);
            TraceKind::PacketDrop {
                link: LinkId(u32f("link")?),
                id,
                // v1 drops carried no root; fall back to the frame id so old
                // captures still parse (path joins just lose drop hops).
                root: u64f("root").map(PacketId).unwrap_or(id),
                reason: match m.get("reason").map(String::as_str) {
                    Some("link_down") => DropReason::LinkDown,
                    Some("node_down") => DropReason::NodeDown,
                    _ => DropReason::Loss,
                },
                class: class(),
            }
        }
        "timer" => TraceKind::TimerFire {
            node: NodeId(u32f("node")?),
            token: u64f("token")?,
        },
        "topo" => {
            let entity = u32f("entity")?;
            TraceKind::Topology(match m.get("change")?.as_str() {
                "link_down" => TopologyChange::LinkDown(LinkId(entity)),
                "link_up" => TopologyChange::LinkUp(LinkId(entity)),
                "node_down" => TopologyChange::NodeDown(NodeId(entity)),
                "node_up" => TopologyChange::NodeUp(NodeId(entity)),
                _ => return None,
            })
        }
        "proto" => TraceKind::Proto {
            node: NodeId(u32f("node")?),
            event: ProtoEvent {
                name: m.get("name")?.clone().into(),
                channel: m.get("chan").cloned().map(ChanLabel::Text),
                value: u64f("value"),
                detail: m.get("detail").cloned(),
                counter: None,
            },
        },
        _ => return None,
    };
    Some(TraceEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use express_wire::addr::ChannelDest;
    use std::fmt::Write as _;

    impl TraceBuffer {
        /// Record an event, applying this buffer's own sampling (under a
        /// [`Tracer`] the tracer samples and the buffer's
        /// [`TraceSink::record`] stores unconditionally).
        fn push(&mut self, at: SimTime, kind: TraceKind) {
            if let (Some(s), Some(root)) = (self.cfg.sample, kind.root_id()) {
                if !s.keeps(root) {
                    return;
                }
            }
            self.store(TraceEvent { at, kind });
        }
    }

    fn tx(id: u64, root: u64, cause: Option<u64>, node: u32, link: u32) -> TraceKind {
        TraceKind::PacketTx {
            node: NodeId(node),
            iface: IfaceId(0),
            link: LinkId(link),
            id: PacketId(id),
            cause: cause.map(PacketId),
            root: PacketId(root),
            bytes: 100,
            class: TrafficClass::Data,
        }
    }

    fn rx(id: u64, root: u64, node: u32) -> TraceKind {
        TraceKind::PacketRx {
            node: NodeId(node),
            iface: IfaceId(0),
            id: PacketId(id),
            root: PacketId(root),
            age: SimDuration(500),
            class: TrafficClass::Data,
        }
    }

    fn drop_kind(id: u64, root: u64, link: u32) -> TraceKind {
        TraceKind::PacketDrop {
            link: LinkId(link),
            id: PacketId(id),
            root: PacketId(root),
            reason: DropReason::LinkDown,
            class: TrafficClass::Control,
        }
    }

    #[test]
    fn ring_bound_and_overwrite_count() {
        let mut b = TraceBuffer::new(TraceConfig::default().capacity(2));
        for i in 0..5 {
            b.push(SimTime(i), TraceKind::TimerFire { node: NodeId(0), token: i });
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.overwritten(), 3);
        let tokens: Vec<u64> = b
            .events()
            .map(|e| match e.kind {
                TraceKind::TimerFire { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, vec![3, 4]);
    }

    #[test]
    fn path_reconstruction_follows_causal_chain() {
        let mut b = TraceBuffer::new(TraceConfig::default());
        // src(0) -l0-> r(1) -l1-> rcv(2); a second unrelated chain on l0.
        b.push(SimTime(0), tx(1, 1, None, 0, 0));
        b.push(SimTime(10), rx(1, 1, 1));
        b.push(SimTime(10), tx(2, 1, Some(1), 1, 1));
        b.push(SimTime(20), rx(2, 1, 2));
        b.push(SimTime(30), tx(3, 3, None, 0, 0));
        assert_eq!(b.data_roots(), vec![PacketId(1), PacketId(3)]);
        let p = b.packet_path(PacketId(1));
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.links().into_iter().collect::<Vec<_>>(), vec![LinkId(0), LinkId(1)]);
        assert_eq!(p.receivers().into_iter().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
        assert!(!p.has_duplicate_link());
        // A chain whose only frame was never delivered: hop with to=None.
        let p3 = b.packet_path(PacketId(3));
        assert_eq!(p3.hops.len(), 1);
        assert_eq!(p3.hops[0].to, None);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut b = TraceBuffer::new(TraceConfig::default());
        b.push(SimTime(5), tx(1, 1, None, 0, 2));
        b.push(SimTime(6), rx(1, 1, 3));
        b.push(SimTime(7), drop_kind(1, 1, 2));
        b.push(SimTime(8), TraceKind::TimerFire { node: NodeId(4), token: 99 });
        b.push(SimTime(9), TraceKind::Topology(TopologyChange::NodeDown(NodeId(2))));
        b.push(
            SimTime(10),
            TraceKind::Proto {
                node: NodeId(1),
                event: ProtoEvent::default()
                    .value(3)
                    .chan("(10.0.0.5, 232.0.0.1)")
                    .detail("old=\"10.0.0.9\"\nnew=10.0.0.8"),
            },
        );
        let text = b.to_jsonl();
        // 6 events plus the trace_header line.
        assert_eq!(text.lines().count(), 7);
        assert!(text.starts_with("{\"ev\":\"trace_header\""));
        let parsed = TraceBuffer::parse_jsonl(&text);
        let original: Vec<TraceEvent> = b.events().cloned().collect();
        assert_eq!(parsed, original);
        let meta = TraceMeta::parse(&text).expect("header parses");
        assert_eq!(meta.version, TRACE_SCHEMA_VERSION);
        assert_eq!(meta.source, "ring");
        assert_eq!(meta.events, Some(6));
        assert_eq!(meta.discarded, Some(0));
        assert_eq!(meta.sample, None);
    }

    #[test]
    fn header_surfaces_ring_overwrite() {
        let mut b = TraceBuffer::new(TraceConfig::default().capacity(2));
        for i in 0..5 {
            b.push(SimTime(i), TraceKind::TimerFire { node: NodeId(0), token: i });
        }
        let meta = TraceMeta::parse(&b.to_jsonl()).unwrap();
        assert_eq!(meta.events, Some(2));
        assert_eq!(meta.discarded, Some(3));
    }

    #[test]
    fn sampling_is_deterministic_and_chain_complete() {
        let spec = SampleSpec { denominator: 4 };
        // Pure function of root: same answer every call.
        for r in 0..256u64 {
            assert_eq!(spec.keeps(PacketId(r)), spec.keeps(PacketId(r)));
        }
        // Roughly 1/4 of roots kept (well-mixed hash; loose bounds).
        let kept = (0..4096u64).filter(|r| spec.keeps(PacketId(*r))).count();
        assert!((700..1400).contains(&kept), "kept {kept}/4096 at 1/4");

        // Chain completeness: a kept root keeps its tx, forwarded copies,
        // rx and drops; a dropped root drops all of them.
        let root = (0..u64::MAX).find(|r| spec.keeps(PacketId(*r))).unwrap();
        let culled = (0..u64::MAX).find(|r| !spec.keeps(PacketId(*r))).unwrap();
        let mut b = TraceBuffer::new(TraceConfig::default().sample_one_in(4));
        for (i, r) in [(1u64, root), (2, culled)] {
            b.push(SimTime(0), tx(i, r, None, 0, 0));
            b.push(SimTime(1), rx(i, r, 1));
            b.push(SimTime(1), tx(i + 10, r, Some(i), 1, 1));
            b.push(SimTime(2), drop_kind(i + 10, r, 1));
        }
        assert_eq!(b.len(), 4);
        assert!(b.events().all(|e| e.kind.root_id() == Some(PacketId(root))));
        // Rootless events always pass sampling.
        b.push(SimTime(3), TraceKind::TimerFire { node: NodeId(0), token: 1 });
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn sample_one_in_builder_normalizes() {
        assert!(TraceConfig::default().sample_one_in(0).sample.is_none());
        assert!(TraceConfig::default().sample_one_in(1).sample.is_none());
        let cfg = TraceConfig::default().sample_one_in(1024);
        assert_eq!(cfg.sample, Some(SampleSpec { denominator: 1024 }));
    }

    #[test]
    fn jsonl_sink_streams_header_events_footer() {
        let cfg = TraceConfig::default().sample_one_in(2);
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_attach(&cfg);
        sink.record(TraceEvent { at: SimTime(1), kind: tx(1, 1, None, 0, 0) });
        sink.record(TraceEvent { at: SimTime(2), kind: rx(1, 1, 1) });
        sink.finish().unwrap();
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let meta = TraceMeta::parse(&text).expect("header+footer");
        assert_eq!(meta.version, TRACE_SCHEMA_VERSION);
        assert_eq!(meta.source, "stream");
        assert_eq!(meta.sample, Some(2));
        assert_eq!(meta.events, Some(2));
        assert_eq!(meta.discarded, Some(0));
        let events = TraceBuffer::parse_jsonl(&text);
        assert_eq!(events.len(), 2);
        assert!(text.lines().last().unwrap().contains("trace_footer"));
    }

    #[test]
    fn jsonl_sink_bounds_memory() {
        // Tiny flush threshold: the internal buffer must never grow past
        // threshold + one serialized event.
        let mut sink = JsonlSink::new(Vec::new());
        sink.flush_at = 256;
        for i in 0..1000u64 {
            sink.record(TraceEvent {
                at: SimTime(i),
                kind: TraceKind::TimerFire { node: NodeId(0), token: i },
            });
            assert!(sink.buf.len() < 256 + 128, "buffer grew to {}", sink.buf.len());
        }
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(TraceBuffer::parse_jsonl(&text).len(), 1000);
    }

    #[test]
    fn tracer_routes_through_filters_and_sampling_into_sink() {
        let cfg = TraceConfig::default().sample_one_in(4);
        let spec = cfg.sample.unwrap();
        let root = (0..u64::MAX).find(|r| spec.keeps(PacketId(*r))).unwrap();
        let culled = (0..u64::MAX).find(|r| !spec.keeps(PacketId(*r))).unwrap();
        let mut tr = Tracer::ring(cfg);
        tr.push(SimTime(0), tx(1, root, None, 0, 0));
        tr.push(SimTime(0), tx(2, culled, None, 0, 0)); // sampled out
        let proto = |v: u64| TraceKind::Proto {
            node: NodeId(0),
            event: ProtoEvent { name: "x.y".into(), value: Some(v), ..ProtoEvent::default() },
        };
        // Proto sampled by ambient root when supplied, kept otherwise.
        tr.push_caused(SimTime(1), proto(1), Some(PacketId(root)));
        tr.push_caused(SimTime(1), proto(2), Some(PacketId(culled)));
        tr.push_caused(SimTime(1), proto(3), None);
        let b = tr.buffer().unwrap();
        assert_eq!(b.len(), 3);
        let kinds: Vec<bool> = b.events().map(|e| matches!(e.kind, TraceKind::Proto { .. })).collect();
        assert_eq!(kinds, vec![false, true, true]);
    }

    #[test]
    fn parse_skips_malformed_lines() {
        // A valid capture with hostile lines interleaved: truncated JSON,
        // unterminated strings, bad escapes, wrong types, unknown events.
        let mut good = TraceBuffer::new(TraceConfig::default());
        good.push(SimTime(5), tx(1, 1, None, 0, 2));
        good.push(SimTime(6), rx(1, 1, 3));
        let mut text = good.to_jsonl();
        for bad in [
            "",                                          // blank
            "{\"t\":5,\"ev\":\"pkt_tx\"",                // truncated: no closing brace
            "{\"t\":6,\"ev\":\"pkt_rx\",\"node\":",      // truncated mid-value
            "{\"t\":7,\"ev\":\"proto\",\"node\":1,\"name\":\"x", // unterminated string
            "{\"t\":8,\"ev\":\"proto\",\"node\":1,\"name\":\"\\u12\"}", // bad \u escape
            "{\"t\":9,\"ev\":\"warp\",\"node\":1}",      // unknown event type
            "{\"t\":\"soon\",\"ev\":\"timer\",\"node\":1,\"token\":2}", // non-numeric t
            "{\"t\":10,\"ev\":\"timer\",\"node\":1}",    // missing required field
            "{\"t\":11,\"ev\":\"topo\",\"change\":\"melt\",\"entity\":3}", // unknown change
            "not json at all",
            "[1,2,3]",                                   // not an object
            // Ids that do not fit their type are garbage, not the id they
            // would wrap to (iface 0, node 5, link 2, bytes 100).
            "{\"t\":12,\"ev\":\"pkt_rx\",\"node\":3,\"iface\":256,\"id\":1,\"root\":1,\"age_us\":9,\"class\":\"data\"}",
            "{\"t\":12,\"ev\":\"timer\",\"node\":4294967301,\"token\":2}",
            "{\"t\":12,\"ev\":\"drop\",\"link\":4294967298,\"id\":41,\"root\":41,\"reason\":\"loss\",\"class\":\"data\"}",
            "{\"t\":12,\"ev\":\"pkt_tx\",\"node\":0,\"iface\":0,\"link\":2,\"id\":1,\"root\":1,\"bytes\":4294967396,\"class\":\"data\"}",
            "{\"t\":12,\"ev\":\"topo\",\"change\":\"link_up\",\"entity\":4294967296}",
            "{\"t\":12,\"ev\":\"proto\",\"node\":18446744073709551615,\"name\":\"x.y\"}",
        ] {
            text.push_str(bad);
            text.push('\n');
        }
        let parsed = TraceBuffer::parse_jsonl(&text);
        assert_eq!(parsed.len(), 2);
        let original: Vec<TraceEvent> = good.events().cloned().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_accepts_v1_drop_without_root() {
        let line = "{\"t\":7,\"ev\":\"drop\",\"link\":2,\"id\":41,\"reason\":\"loss\",\"class\":\"data\"}";
        let ev = parse_jsonl_line(line).expect("v1 drop parses");
        match ev.kind {
            TraceKind::PacketDrop { id, root, .. } => {
                assert_eq!(id, PacketId(41));
                assert_eq!(root, PacketId(41)); // falls back to the frame id
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn record_tagged_is_record_and_round_trips_through_jsonl() {
        // `record_tagged` (kept for the benchmark's sink wrapper) records
        // the event as `record` would, whatever the numbers beside it, and
        // the ring overwrites and exports what it keeps.
        let mut b = TraceBuffer::new(TraceConfig::default().capacity(2));
        let evs = [
            TraceEvent { at: SimTime(1), kind: tx(1, 1, None, 0, 0) },
            TraceEvent { at: SimTime(2), kind: rx(1, 1, 1) },
            TraceEvent { at: SimTime(3), kind: drop_kind(2, 1, 1) },
        ];
        for (i, e) in evs.iter().enumerate() {
            TraceSink::record_tagged(&mut b, e.clone(), 7, i as u64);
        }
        assert_eq!((b.len(), b.overwritten()), (2, 1));
        assert_eq!(TraceBuffer::parse_jsonl(&b.to_jsonl()), evs[1..]);
    }

    #[test]
    fn tee_fans_out_in_order_and_sums_discarded() {
        let cfg = TraceConfig::default();
        let mut tee = Tee::from_sinks(vec![
            Box::new(TraceBuffer::new(cfg.clone().capacity(2))), // overwrites
            Box::new(TraceBuffer::new(cfg.clone())),
        ]);
        tee.on_attach(&cfg);
        for i in 0..5u64 {
            tee.record(TraceEvent { at: SimTime(i), kind: TraceKind::TimerFire { node: NodeId(0), token: i } });
        }
        // Both children saw every event, in emission order.
        let small = tee.sinks()[0].as_any().downcast_ref::<TraceBuffer>().unwrap();
        let full = tee.sinks()[1].as_any().downcast_ref::<TraceBuffer>().unwrap();
        assert_eq!(small.len(), 2);
        assert_eq!(full.len(), 5);
        let tokens: Vec<u64> = full
            .events()
            .map(|e| match e.kind {
                TraceKind::TimerFire { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, vec![0, 1, 2, 3, 4]);
        // discarded is the sum over children (3 ring overwrites + 0).
        assert_eq!(tee.discarded(), 3);
    }

    #[test]
    fn tee_finish_reaches_every_child_and_returns_first_error() {
        struct Probe {
            finishes: std::sync::Arc<std::sync::atomic::AtomicU32>,
            fail: bool,
        }
        impl TraceSink for Probe {
            fn record(&mut self, _event: TraceEvent) {}
            fn finish(&mut self) -> std::io::Result<()> {
                self.finishes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if self.fail {
                    Err(std::io::Error::other("probe failure"))
                } else {
                    Ok(())
                }
            }
        }
        let count = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut tee = Tee::from_sinks(vec![
            Box::new(Probe { finishes: count.clone(), fail: true }),
            Box::new(Probe { finishes: count.clone(), fail: false }),
            Box::new(Probe { finishes: count.clone(), fail: true }),
        ]);
        let err = tee.finish().expect_err("first child error surfaces");
        assert_eq!(err.to_string(), "probe failure");
        // The error did not short-circuit: all three children finalized.
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn tracer_add_sink_tees_capture_and_keeps_buffer_access() {
        let mut tr = Tracer::ring(TraceConfig::default());
        tr.push(SimTime(0), tx(1, 1, None, 0, 0));
        // Attach a streaming sink mid-run; only later events reach it.
        tr.add_sink(Box::new(JsonlSink::new(Vec::new())));
        tr.push(SimTime(1), rx(1, 1, 1));
        // buffer() still finds the ring through the tee.
        let buf = tr.buffer().expect("ring reachable through tee");
        assert_eq!(buf.len(), 2);
        // A third sink appends to the existing tee rather than re-nesting.
        tr.add_sink(Box::new(TraceBuffer::new(TraceConfig::default())));
        tr.push(SimTime(2), drop_kind(2, 1, 1));
        let tee = tr.finish().into_any().downcast::<Tee>().expect("sink is a tee");
        let sinks = tee.into_sinks();
        assert_eq!(sinks.len(), 3);
        let mut jsonl_events = None;
        let mut ring_lens = Vec::new();
        for s in sinks {
            let s = s.into_any();
            match s.downcast::<JsonlSink<Vec<u8>>>() {
                Ok(j) => {
                    let text = String::from_utf8(j.into_inner()).unwrap();
                    jsonl_events = Some(TraceBuffer::parse_jsonl(&text).len());
                }
                Err(s) => {
                    let b = s.downcast::<TraceBuffer>().expect("ring child");
                    ring_lens.push(b.len());
                }
            }
        }
        // JsonlSink saw the rx + drop; the original ring saw all three; the
        // late ring saw only the drop.
        assert_eq!(jsonl_events, Some(2));
        ring_lens.sort_unstable();
        assert_eq!(ring_lens, vec![1, 3]);
    }

    // ---- the byte-level writer against the `core::fmt` one it replaced ---

    fn oracle_str_field(out: &mut String, key: &str, val: &str) {
        let _ = write!(out, ",\"{key}\":\"");
        for ch in val.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The schema v2 line writer as it stood before [`crate::json`]:
    /// `write!` for every integer, `Display` for a channel. Kept as the
    /// oracle [`write_jsonl_line`] is compared against.
    fn oracle_line(out: &mut String, e: &TraceEvent) {
        let class_str = |c: &TrafficClass| match c {
            TrafficClass::Data => "data",
            TrafficClass::Control => "control",
        };
        let t = e.at.micros();
        match &e.kind {
            TraceKind::PacketTx { node, iface, link, id, cause, root, bytes, class } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"pkt_tx\",\"node\":{},\"iface\":{},\"link\":{},\"id\":{},\"root\":{}",
                    node.0, iface.0, link.0, id.0, root.0
                );
                if let Some(c) = cause {
                    let _ = write!(out, ",\"cause\":{}", c.0);
                }
                let _ = write!(out, ",\"bytes\":{bytes},\"class\":\"{}\"}}", class_str(class));
            }
            TraceKind::PacketRx { node, iface, id, root, age, class } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"pkt_rx\",\"node\":{},\"iface\":{},\"id\":{},\"root\":{},\"age_us\":{},\"class\":\"{}\"}}",
                    node.0, iface.0, id.0, root.0, age.micros(), class_str(class)
                );
            }
            TraceKind::PacketDrop { link, id, root, reason, class } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"drop\",\"link\":{},\"id\":{},\"root\":{},\"reason\":\"{}\",\"class\":\"{}\"}}",
                    link.0, id.0, root.0, reason.as_str(), class_str(class)
                );
            }
            TraceKind::TimerFire { node, token } => {
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"timer\",\"node\":{},\"token\":{token}}}", node.0);
            }
            TraceKind::Topology(change) => {
                let (kind, entity) = match change {
                    TopologyChange::LinkDown(l) => ("link_down", l.0),
                    TopologyChange::LinkUp(l) => ("link_up", l.0),
                    TopologyChange::NodeDown(n) => ("node_down", n.0),
                    TopologyChange::NodeUp(n) => ("node_up", n.0),
                };
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"topo\",\"change\":\"{kind}\",\"entity\":{entity}}}");
            }
            TraceKind::Proto { node, event } => {
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"proto\",\"node\":{}", node.0);
                oracle_str_field(out, "name", &event.name);
                if let Some(c) = &event.channel {
                    oracle_str_field(out, "chan", &c.to_string());
                }
                if let Some(v) = event.value {
                    let _ = write!(out, ",\"value\":{v}");
                }
                if let Some(d) = &event.detail {
                    oracle_str_field(out, "detail", d);
                }
                out.push('}');
            }
        }
    }

    /// Every record shape at both ends of every integer's range, and
    /// protocol events whose strings hold everything a string can.
    fn differential_events() -> Vec<TraceEvent> {
        let mut kinds = Vec::new();
        for big in [false, true] {
            let (n, i, t) = if big { (u32::MAX, u8::MAX, u64::MAX) } else { (0, 0, 0) };
            for class in [TrafficClass::Data, TrafficClass::Control] {
                for cause in [None, Some(PacketId(t))] {
                    kinds.push(TraceKind::PacketTx {
                        node: NodeId(n),
                        iface: IfaceId(i),
                        link: LinkId(n),
                        id: PacketId(t),
                        cause,
                        root: PacketId(t),
                        bytes: n,
                        class,
                    });
                }
                kinds.push(TraceKind::PacketRx {
                    node: NodeId(n),
                    iface: IfaceId(i),
                    id: PacketId(t),
                    root: PacketId(t),
                    age: SimDuration(t),
                    class,
                });
                for reason in [DropReason::Loss, DropReason::LinkDown, DropReason::NodeDown] {
                    kinds.push(TraceKind::PacketDrop { link: LinkId(n), id: PacketId(t), root: PacketId(t), reason, class });
                }
            }
            kinds.push(TraceKind::TimerFire { node: NodeId(n), token: t });
            kinds.extend(
                [TopologyChange::LinkDown(LinkId(n)), TopologyChange::LinkUp(LinkId(n)), TopologyChange::NodeDown(NodeId(n)), TopologyChange::NodeUp(NodeId(n))]
                    .map(TraceKind::Topology),
            );
        }
        let nasty = ["", "plain", "q\"uote", "back\\slash", "new\nline", "tab\tbell\u{7}nul\u{0}unit\u{1f}", "é ✓ 日本 \u{1f980}", "}{\",\":[]"];
        let channels = [
            Channel::new(Ipv4Addr::new(10, 0, 0, 5), 1).unwrap(),
            Channel::new(Ipv4Addr::new(1, 22, 133, 254), ChannelDest::MAX).unwrap(),
            Channel::new(Ipv4Addr::new(223, 255, 255, 255), 0).unwrap(),
        ];
        for (k, s) in nasty.iter().enumerate() {
            let event = ProtoEvent { name: s.to_string().into(), value: (k % 2 == 0).then_some(u64::MAX >> k), ..ProtoEvent::default() };
            kinds.push(TraceKind::Proto { node: NodeId(k as u32), event: event.clone() });
            kinds.push(TraceKind::Proto { node: NodeId(0), event: event.clone().chan(*s).detail(*s) });
            kinds.push(TraceKind::Proto { node: NodeId(0), event: ProtoEvent { name: "host.data_rx".into(), ..event }.chan(channels[k % 3]) });
        }
        kinds.into_iter().flat_map(|kind| [0, u64::MAX].map(|at| TraceEvent { at: SimTime(at), kind: kind.clone() })).collect()
    }

    #[test]
    fn byte_writer_matches_the_fmt_oracle_and_round_trips() {
        let events = differential_events();
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            let mut expected = String::new();
            oracle_line(&mut expected, e);
            let mut direct = Vec::new();
            write_jsonl_line(&mut direct, e);
            assert_eq!(json::into_string(direct), expected, "{e:?}");
            sink.record_ref(e);
        }
        // The longest fixed-shape line is what the stack line is sized by.
        let longest = events.iter().filter(|e| !matches!(e.kind, TraceKind::Proto { .. })).map(|e| {
            let mut line = Vec::new();
            write_jsonl_line(&mut line, e);
            line.len()
        });
        assert_eq!(longest.max(), Some(FIXED_LINE_MAX));
        // And the most a line-built record with text can: every byte of
        // its allowance a control character, the widest channel, a value.
        let widest = Channel::new(Ipv4Addr::new(223, 255, 255, 255), ChannelDest::MAX).unwrap();
        let event = ProtoEvent { name: "\u{1}".repeat(LINE_TEXT_MAX).into(), ..ProtoEvent::default() }.chan(widest).value(u64::MAX);
        let worst = TraceEvent { at: SimTime(u64::MAX), kind: TraceKind::Proto { node: NodeId(u32::MAX), event } };
        assert_eq!(text_len(&worst), LINE_TEXT_MAX);
        let mut line = Vec::new();
        write_jsonl_line(&mut line, &worst);
        assert!(line.len() + 1 + 20 <= LINE_BYTES, "{} bytes", line.len());
        sink.record_ref(&worst);
        let mut events = events;
        events.push(worst);
        // Through the sink (stack line for fixed shapes, heap for strings),
        // the same bytes line by line — and they parse back to the events.
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("{\"ev\":\"trace_header\",\"version\":2,\"source\":\"stream\"}"));
        for e in &events {
            let mut expected = String::new();
            oracle_line(&mut expected, e);
            assert_eq!(lines.next(), Some(expected.as_str()));
        }
        assert_eq!(lines.next(), Some(format!("{{\"ev\":\"trace_footer\",\"events\":{},\"discarded\":0}}", events.len()).as_str()));
        assert_eq!(TraceBuffer::parse_jsonl(&text), events);
    }

    #[test]
    fn a_typed_channel_label_is_its_display_form() {
        let c = Channel::new(Ipv4Addr::new(10, 0, 0, 5), 1).unwrap();
        let typed = ChanLabel::from(c);
        assert_eq!(typed.to_string(), "(10.0.0.5, 232.0.0.1)");
        assert_eq!(typed, ChanLabel::from("(10.0.0.5, 232.0.0.1)"));
        assert_ne!(typed, ChanLabel::from("(10.0.0.5, 232.0.0.2)"));
    }
}
