//! Benchmark-side tracing: spans around the calls into each layer.
//!
//! The traced run wraps every agent in [`Timed`] and every trace sink in
//! [`TimedSink`]. Each wrapper counts every call (exact) and times one call
//! in [`SAMPLE_EVERY`] (name, start, end, parent), so the window's wall
//! time splits into agent callbacks, sink records and the remainder —
//! engine self time. An agent span includes the `Ctx` calls the agent makes
//! (sends, timers, counter bumps): splitting those needs spans inside the
//! program, which is a later change.
//!
//! Everything is recorded in memory, on the one driver thread, and written
//! out when the benchmark ends.

use netsim::engine::{Agent, Ctx, HotPacketFn, Payload, TimerToken, TopologyChange};
use netsim::stats::TrafficClass;
use netsim::topology::Topology;
use netsim::trace::{TraceConfig, TraceEvent, TraceSink};
use netsim::{AuditNodeState, IfaceId, NodeId, Sim};
use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One call in this many is timed, on average.
pub const SAMPLE_EVERY: u64 = 64;
/// Spans kept for the trace file (totals stay exact past the cap).
const SPAN_CAP: usize = 20_000;

/// The layers the wrappers sit in front of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Router = 0,
    Host = 1,
    Sink = 2,
    Source = 3,
    JsonlSink = 4,
    Auditor = 5,
}

const LAYERS: usize = 6;
const LAYER_NAMES: [&str; LAYERS] = ["router", "host", "sink", "source", "trace.jsonl", "audit"];

impl Layer {
    pub fn name(self) -> &'static str {
        LAYER_NAMES[self as usize]
    }
    fn is_agent(self) -> bool {
        (self as usize) < Layer::JsonlSink as usize
    }
}

/// Per-layer totals: exact call counts, sampled time.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Calls into the layer.
    pub calls: u64,
    /// `on_packet` calls among them (agents only).
    pub packet_calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Wall time of the timed calls, ns.
    pub timed_ns: u64,
    /// Sink layers only: calls made while an agent callback was running
    /// (their time is inside that agent's span).
    pub nested_calls: u64,
}

impl LayerTotals {
    /// Mean ns per call over the timed sample (0 when nothing was timed).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed as f64
        }
    }
    /// Estimated total time in the layer: mean of the timed calls × calls.
    pub fn est_total_ns(&self) -> f64 {
        self.mean_ns() * self.calls as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Option<Layer>,
    op: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span (`None` for a window, the root).
    parent: Option<u32>,
}

struct Recorder {
    epoch: Instant,
    /// Xorshift state choosing which calls are timed: a fixed stride would
    /// alias with the regular call pattern of a tree wave.
    pick: u64,
    /// Cost of one start/end clock-read pair, ns, taken off every timed
    /// call (calibrated on first use).
    clock_pair_ns: u64,
    totals: [LayerTotals; LAYERS],
    spans: Vec<Span>,
    /// Root span of the window being measured.
    window: Option<u32>,
    /// Agent span currently open, if it is being recorded.
    agent_span: Option<u32>,
    /// Agent callbacks currently on the stack (0 or 1: agents do not nest).
    in_agent: u32,
    /// Calls are let through uncounted (see [`pause`]).
    paused: bool,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        pick: 0x9E37_79B9_7F4A_7C15,
        clock_pair_ns: u64::MAX,
        totals: [LayerTotals::default(); LAYERS],
        spans: Vec::new(),
        window: None,
        agent_span: None,
        in_agent: 0,
        paused: false,
    });
}

fn push_span(r: &mut Recorder, span: Span) -> Option<u32> {
    if r.spans.len() >= SPAN_CAP {
        return None;
    }
    r.spans.push(span);
    Some((r.spans.len() - 1) as u32)
}

/// Open a window span (the root of everything recorded until
/// [`window_end`]). `name` labels the window kind (`wave`, `churn`, …).
pub fn window_begin(name: &'static str) {
    REC.with_borrow_mut(|r| {
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.window = push_span(
            r,
            Span {
                layer: None,
                op: name,
                start_ns: now,
                end_ns: now,
                parent: None,
            },
        );
    });
}

/// Close the current window span.
pub fn window_end() {
    REC.with_borrow_mut(|r| {
        let now = r.epoch.elapsed().as_nanos() as u64;
        if let Some(w) = r.window.take() {
            r.spans[w as usize].end_ns = now;
        }
    });
}

/// Totals per layer since the last [`reset`].
pub fn totals(layer: Layer) -> LayerTotals {
    REC.with_borrow(|r| r.totals[layer as usize])
}

/// Estimated time spent in agent callbacks plus sink records made outside
/// any agent callback — everything the window's wall time is *not* engine.
pub fn est_non_engine_ns() -> f64 {
    REC.with_borrow(|r| {
        let mut sum = 0.0;
        for (i, t) in r.totals.iter().enumerate() {
            if i < Layer::JsonlSink as usize {
                sum += t.est_total_ns();
            } else {
                sum += t.mean_ns() * (t.calls - t.nested_calls) as f64;
            }
        }
        sum
    })
}

/// Stop (`true`) or resume (`false`) counting and timing calls. A workload
/// pauses around the windows its per-layer totals are *not* about — the
/// fault windows interleaved with its data or churn windows — so that the
/// totals cover exactly the windows `ops_per_s` is taken over.
pub fn pause(paused: bool) {
    REC.with_borrow_mut(|r| r.paused = paused);
}

/// Forget all totals and spans (between set-up and the measured windows).
pub fn reset() {
    REC.with_borrow_mut(|r| {
        r.paused = false;
        r.totals = [LayerTotals::default(); LAYERS];
        r.spans.clear();
        r.window = None;
        r.agent_span = None;
    });
}

/// Serialize the recorded spans: one object per span with name, start, end
/// (ns since process start) and parent index, preceded by the exact totals.
pub fn to_json(workload: &str) -> String {
    REC.with_borrow(|r| {
        let mut s = String::with_capacity(64 + r.spans.len() * 72);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"sample_every\":{SAMPLE_EVERY},\"span_cap\":{SPAN_CAP},\"layers\":["
        );
        for (i, t) in r.totals.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"layer\":\"{}\",\"calls\":{},\"timed\":{},\"timed_ns\":{},\"nested_calls\":{}}}",
                LAYER_NAMES[i], t.calls, t.timed, t.timed_ns, t.nested_calls
            );
        }
        s.push_str("],\"spans\":[\n");
        for (i, sp) in r.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let name = match sp.layer {
                Some(l) => format!("{}.{}", l.name(), sp.op),
                None => format!("window.{}", sp.op),
            };
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                sp.start_ns, sp.end_ns
            );
            match sp.parent {
                Some(p) => {
                    let _ = write!(s, "{p}}}");
                }
                None => s.push_str("null}"),
            }
        }
        s.push_str("\n]}\n");
        s
    })
}

/// Median cost of a start/end clock-read pair around nothing, ns.
fn clock_pair_ns() -> u64 {
    let mut samples: Vec<u64> = (0..101)
        .map(|_| {
            let start = Instant::now();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Run `f` as one call into `layer`, counting it and timing one in
/// [`SAMPLE_EVERY`].
#[inline]
fn call<R>(layer: Layer, op: &'static str, packet: bool, f: impl FnOnce() -> R) -> R {
    let agent = layer.is_agent();
    if REC.with_borrow(|r| r.paused) {
        return f();
    }
    let (timed, nested) = REC.with_borrow_mut(|r| {
        r.pick ^= r.pick << 13;
        r.pick ^= r.pick >> 7;
        r.pick ^= r.pick << 17;
        let t = &mut r.totals[layer as usize];
        t.calls += 1;
        t.packet_calls += packet as u64;
        let nested = !agent && r.in_agent > 0;
        t.nested_calls += nested as u64;
        if agent {
            r.in_agent += 1;
        }
        (r.pick % SAMPLE_EVERY == 0, nested)
    });
    if !timed {
        let out = f();
        if agent {
            REC.with_borrow_mut(|r| r.in_agent -= 1);
        }
        return out;
    }
    // Reserve the span before the call so children recorded during it can
    // name it as their parent. Only the two clock reads and `f` itself sit
    // inside the timed interval.
    let idx = REC.with_borrow_mut(|r| {
        if r.clock_pair_ns == u64::MAX {
            r.clock_pair_ns = clock_pair_ns();
        }
        let parent = if nested {
            r.agent_span.or(r.window)
        } else {
            r.window
        };
        let idx = push_span(
            r,
            Span {
                layer: Some(layer),
                op,
                start_ns: 0,
                end_ns: 0,
                parent,
            },
        );
        if agent {
            r.agent_span = idx;
        }
        idx
    });
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    REC.with_borrow_mut(|r| {
        let t = &mut r.totals[layer as usize];
        t.timed += 1;
        t.timed_ns += ns.saturating_sub(r.clock_pair_ns);
        if let Some(i) = idx {
            let start_ns = start.duration_since(r.epoch).as_nanos() as u64;
            r.spans[i as usize].start_ns = start_ns;
            r.spans[i as usize].end_ns = start_ns + ns;
        }
        if agent {
            r.agent_span = None;
            r.in_agent -= 1;
        }
    });
    out
}

/// An agent with a span around each of its callbacks.
///
/// `as_any_mut` forwards to the wrapped agent, so harness code downcasts to
/// the concrete agent (`ExpressHost::schedule`, `agent_as::<EcmpRouter>`)
/// the same way in traced and untraced runs. The price is the engine's
/// devirtualized data path: its stub downcasts through `as_any_mut` and
/// would skip the wrapper, so a timed agent declines it — part of the
/// tracing overhead the traced run reports.
pub struct Timed<A: Agent> {
    inner: A,
    layer: Layer,
}

impl<A: Agent> Timed<A> {
    pub fn new(inner: A, layer: Layer) -> Self {
        Timed { inner, layer }
    }
}

/// Attach `agent` to `node`, behind a [`Timed`] wrapper in a traced run.
pub fn install(
    sim: &mut Sim,
    node: NodeId,
    agent: impl Agent + 'static,
    layer: Layer,
    traced: bool,
) {
    if traced {
        sim.set_agent(node, Box::new(Timed::new(agent, layer)));
    } else {
        sim.set_agent(node, Box::new(agent));
    }
}

impl<A: Agent> Agent for Timed<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        call(self.layer, "on_start", false, || self.inner.on_start(ctx))
    }
    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        bytes: &Payload,
        class: TrafficClass,
    ) {
        call(self.layer, "on_packet", true, || {
            self.inner.on_packet(ctx, iface, bytes, class)
        })
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        call(self.layer, "on_timer", false, || {
            self.inner.on_timer(ctx, token)
        })
    }
    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        call(self.layer, "on_link_change", false, || {
            self.inner.on_link_change(ctx, iface, up)
        })
    }
    fn on_route_change(&mut self, ctx: &mut Ctx<'_>) {
        call(self.layer, "on_route_change", false, || {
            self.inner.on_route_change(ctx)
        })
    }
    fn on_topology_change(&mut self, ctx: &mut Ctx<'_>, change: TopologyChange) {
        call(self.layer, "on_topology_change", false, || {
            self.inner.on_topology_change(ctx, change)
        })
    }
    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }
    fn audit_state(&self, topo: &Topology, node: NodeId) -> Option<AuditNodeState> {
        self.inner.audit_state(topo, node)
    }
    fn hot_packet_fn(&self) -> Option<HotPacketFn> {
        None
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A trace sink with a span around each record. Downcasts forward to the
/// wrapped sink, so the engine still finds an [`netsim::Auditor`] behind it.
pub struct TimedSink<S: TraceSink> {
    inner: S,
    layer: Layer,
}

impl<S: TraceSink> TimedSink<S> {
    pub fn new(inner: S, layer: Layer) -> Self {
        TimedSink { inner, layer }
    }
}

impl<S: TraceSink + 'static> TraceSink for TimedSink<S> {
    fn on_attach(&mut self, cfg: &TraceConfig) {
        self.inner.on_attach(cfg)
    }
    fn record(&mut self, event: TraceEvent) {
        call(self.layer, "record", false, || self.inner.record(event))
    }
    fn record_tagged(&mut self, event: TraceEvent, key: u128, sub: u64) {
        call(self.layer, "record", false, || {
            self.inner.record_tagged(event, key, sub)
        })
    }
    fn discarded(&self) -> u64 {
        self.inner.discarded()
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
    fn finish(&mut self) -> std::io::Result<()> {
        self.inner.finish()
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        Box::new(self.inner).into_any()
    }
}
