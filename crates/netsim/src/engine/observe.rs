//! `Sim`'s observability surface — trace capture and its per-shard merge,
//! metrics, the self-profiler, the auditor's snapshots — and the fold of
//! per-shard observability state into shard 0 when a run ends.

use super::world::AuditMarks;
use super::Sim;
use crate::audit::{AuditSnapshot, Auditor, ChannelTruth};
use crate::id::{IfaceId, LinkId, NodeId};
use crate::metrics::{Metrics, MetricsConfig};
use crate::prof::{ProfConfig, Profiler};
use crate::time::SimTime;
use crate::trace::{Tee, TraceBuffer, TraceConfig, TraceEvent, TraceSink, Tracer};
use std::collections::{BTreeMap, HashMap};

impl Sim {
    /// Turn on structured event tracing into the default in-memory ring
    /// with the given capture configuration (replaces any previous trace).
    /// Tracing is off by default and, when off, adds no counter or per-link
    /// overhead. Under sharding each shard captures into its own ring and
    /// [`take_trace`](Self::take_trace) merges them in canonical order;
    /// the byte-identical guarantee requires the ring capacity to cover
    /// the captured events (per-shard overflow trims streams
    /// independently).
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        for w in &mut self.worlds {
            w.trace = Some(Tracer::ring(cfg.clone()));
        }
        self.sync_audit_marks();
    }

    /// Turn on structured event tracing into an explicit [`TraceSink`] —
    /// e.g. a [`JsonlSink`](crate::trace::JsonlSink) streaming a full-scale
    /// run to disk in bounded memory. Filters and causal sampling from
    /// `cfg` apply before events reach the sink. Recover the sink with
    /// [`finish_trace`](Self::finish_trace). Single-shard only (a
    /// streaming sink cannot be re-ordered post hoc): panics if the
    /// simulation has been partitioned with [`set_shards`](Self::set_shards).
    pub fn enable_trace_sink(&mut self, cfg: TraceConfig, sink: Box<dyn TraceSink>) {
        assert_eq!(
            self.shard_count(),
            1,
            "enable_trace_sink requires shards=1: a streaming sink cannot be merged \
             across shards — use enable_trace + take_trace, or keep the default shard count"
        );
        self.worlds[0].trace = Some(Tracer::new(cfg, sink));
        self.sync_audit_marks();
    }

    /// The captured in-memory trace, if tracing is enabled *and* backed by
    /// the default ring (`None` under a custom sink — use
    /// [`tracer`](Self::tracer) for sink-agnostic access). Like `tracer`,
    /// this is shard 0's ring: under sharding the whole capture exists
    /// only after the [`take_trace`](Self::take_trace) merge.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.worlds[0].trace.as_ref().and_then(|t| t.buffer())
    }

    /// The active tracer (sampling + sink) of shard 0, if tracing is
    /// enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.worlds[0].trace.as_ref()
    }

    /// Detach the captured ring trace (tracing stops), e.g. to export it
    /// after a run. `None` when tracing is off or backed by a custom sink
    /// (then use [`finish_trace`](Self::finish_trace)). The per-shard
    /// rings are merged into one buffer in canonical `(time, key, sub)`
    /// order — byte-identical to the single-shard capture, where the merge
    /// of the one stream is the identity.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        let mut cfg = None;
        let mut streams = Vec::with_capacity(self.worlds.len());
        let mut overwritten = 0u64;
        let taken: Option<()> = self.worlds.iter_mut().try_for_each(|w| {
            let buffer = sink_into_buffer(w.trace.take()?.finish())?;
            cfg.get_or_insert_with(|| buffer.config().clone());
            let (events, over) = buffer.into_tagged();
            overwritten += over;
            streams.push(events);
            Some(())
        });
        self.sync_audit_marks();
        taken?;
        Some(TraceBuffer::from_tagged(cfg?, merge_tagged(streams), overwritten))
    }

    /// Finalize the capture (footer + flush via [`TraceSink::finish`]) and
    /// detach the sink, whatever its concrete type. Tracing stops. Under
    /// sharding this returns the merged ring buffer (custom sinks are
    /// single-shard only; see [`enable_trace_sink`](Self::enable_trace_sink)).
    pub fn finish_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        // Not a shortcut past a merge: the sole shard's chain may hold a
        // streaming sink, a tee or an auditor, and comes back whole.
        if let [world] = &mut self.worlds[..] {
            let sink = world.trace.take().map(Tracer::finish);
            self.sync_audit_marks();
            return sink;
        }
        self.take_trace().map(|b| Box::new(b) as Box<dyn TraceSink>)
    }

    /// Attach an *additional* [`TraceSink`] beside whatever capture is
    /// active: the current sink chain is teed (see [`Tracer::add_sink`])
    /// so every admitted event reaches both. If tracing was not enabled
    /// yet, it starts now with [`TraceConfig::default`] into this sink.
    /// This is how the online [`Auditor`] runs
    /// beside a [`JsonlSink`](crate::trace::JsonlSink) or the default
    /// ring. Single-shard only, like
    /// [`enable_trace_sink`](Self::enable_trace_sink).
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        assert_eq!(
            self.shard_count(),
            1,
            "add_trace_sink requires shards=1: a streaming sink cannot be merged \
             across shards — use enable_trace + take_trace, or keep the default shard count"
        );
        match &mut self.worlds[0].trace {
            Some(tracer) => tracer.add_sink(sink),
            None => self.worlds[0].trace = Some(Tracer::new(TraceConfig::default(), sink)),
        }
        self.sync_audit_marks();
    }

    /// Keep audit marks exactly while an [`Auditor`] is in the sink chain —
    /// wherever in it, and however it got there — with every node marked
    /// when the chain changes under one: a new auditor has read nothing.
    fn sync_audit_marks(&mut self) {
        let audited = self.worlds[0].trace.as_mut().is_some_and(|t| find_auditor_mut(t.sink_mut()).is_some());
        for w in &mut self.worlds {
            w.audit_marks = audited.then(|| AuditMarks::all(w.base, w.limit));
        }
    }

    /// Capture a point-in-time [`AuditSnapshot`] of protocol truth: sweep
    /// every live agent's [`Agent::audit_state`](super::Agent::audit_state) and resolve the reported
    /// interface masks against the topology into `(node, link)` tree
    /// membership plus per-channel count truth. A pure read — taking a
    /// snapshot never perturbs the run.
    ///
    /// This is the reference, not what the auditor's refreshes pay: they
    /// re-read only the nodes marked since the last one (see
    /// [`Ctx::audit_changed`](super::Ctx::audit_changed)), and debug builds
    /// check at every refresh that the truth so kept equals this sweep.
    pub fn audit_snapshot(&self) -> AuditSnapshot {
        let topo = &self.shared.topo;
        let mut snap = AuditSnapshot {
            at: self.worlds[0].now,
            ..Default::default()
        };
        // Router routes whose upstream link might face the channel source
        // (resolved to the root router once all sources are known), and
        // each channel's source host.
        let mut upstreams: Vec<(String, NodeId, LinkId, u64)> = Vec::new();
        let mut sources: HashMap<String, (NodeId, Option<u64>)> = HashMap::new();
        for idx in 0..topo.node_count() {
            if self.shared.node_down[idx] {
                continue;
            }
            let node = NodeId(idx as u32);
            let Some(state) = self.agent_ref(node).audit_state(topo, node) else {
                continue;
            };
            snap.audited.insert(node);
            for route in state.routes {
                let mut mask = route.oif_mask;
                while mask != 0 {
                    let iface = IfaceId(mask.trailing_zeros() as u8);
                    mask &= mask - 1;
                    if let Ok(link) = topo.link_of(node, iface) {
                        snap.allowed.insert((node, link));
                    }
                }
                let truth = truth_of(&mut snap.channels, &route.channel);
                if let (Some(adv), Some(sum)) = (route.advertised, route.downstream_sum) {
                    truth.routers.push((node, adv, sum));
                }
                if let (Some(up), Some(adv)) = (route.upstream_iface, route.advertised) {
                    if let Ok(link) = topo.link_of(node, up) {
                        upstreams.push((route.channel, node, link, adv));
                    }
                }
            }
            for chan in &state.subscribed {
                truth_of(&mut snap.channels, chan).subscribers += 1;
            }
            for (chan, estimate) in state.sourcing {
                // A source may put data on any of its links: the tree
                // starts at its access link(s).
                for link in topo.links_of(node) {
                    snap.allowed.insert((node, link));
                }
                sources.insert(chan, (node, estimate));
            }
        }
        for (chan, node, link, adv) in upstreams {
            let Some(&(src, _)) = sources.get(&chan) else {
                continue;
            };
            if topo.link_endpoints(link).iter().any(|&(n, _)| n == src) {
                let truth: &mut ChannelTruth = snap.channels.entry(chan).or_default();
                truth.root_advertised = Some((node, adv));
            }
        }
        for (chan, (src, estimate)) in sources {
            if let Some(est) = estimate {
                snap.channels.entry(chan).or_default().source_estimate = Some((src, est));
            }
        }
        snap
    }

    /// Feed the attached [`Auditor`] a quiescent
    /// checkpoint: the A1 interval check closes against a fresh
    /// [`audit_snapshot`](Self::audit_snapshot) *and* A3 count convergence
    /// is verified against it. Call at protocol-quiescent instants — after
    /// joins settle, at the end of a run. No-op when no auditor is
    /// attached.
    pub fn audit_checkpoint(&mut self) {
        self.audit_refresh(true);
    }

    /// Refresh the auditor's truth (A1 only unless `check_counts`): re-read
    /// [`Agent::audit_state`](super::Agent::audit_state) of the nodes
    /// marked since the last refresh, hand each report to the auditor to
    /// diff into the truth it keeps, and close the A1 interval. Runs
    /// automatically around every topology transition so the allowed tree
    /// tracks faults; one branch when no auditor is in the chain. Debug
    /// builds compare the truth with the full [`audit_snapshot`](Self::audit_snapshot)
    /// each time, so every audited test checks the marks.
    pub(super) fn audit_refresh(&mut self, check_counts: bool) {
        if self.worlds[0].audit_marks.is_none() {
            return;
        }
        #[cfg(debug_assertions)]
        let reference = self.audit_snapshot();
        // Marks are kept only with an auditor, and an auditor runs only at
        // one shard (`add_trace_sink`, `enable_trace_sink`).
        let world = &mut self.worlds[0];
        let (Some(marks), Some(tracer)) = (&mut world.audit_marks, &mut world.trace) else { return };
        let auditor = find_auditor_mut(tracer.sink_mut()).expect("audit marks are kept only while an auditor is in the chain");
        let (topo, agents) = (&self.shared.topo, &self.stores[0]);
        for node in marks.take() {
            let state = match self.shared.node_down[node.index()] {
                true => None,
                false => agents.agent_ref(node).audit_state(topo, node),
            };
            auditor.update_node(topo, node, state);
        }
        auditor.refresh(world.now, check_counts);
        #[cfg(debug_assertions)]
        {
            let truth = auditor.truth(reference.at);
            debug_assert!(
                truth == reference,
                "the auditor's truth is not the full sweep's — a report changed without Ctx::audit_changed: \
                 allowed differs at {:?}, audited at {:?}, channels agree: {}",
                truth.allowed.symmetric_difference(&reference.allowed).take(8).collect::<Vec<_>>(),
                truth.audited.symmetric_difference(&reference.audited).take(8).collect::<Vec<_>>(),
                truth.channels == reference.channels,
            );
        }
    }

    /// Turn on time-series metrics with the given configuration (replaces
    /// any previous metrics). Off by default. Under sharding each shard
    /// collects its own series; they are merged into one view when a
    /// sharded run completes.
    pub fn enable_metrics(&mut self, cfg: MetricsConfig) {
        for w in &mut self.worlds {
            w.metrics = Some(Metrics::new(cfg.clone()));
        }
    }

    /// The collected metrics, if enabled (the merged view after a sharded
    /// run).
    pub fn metrics(&self) -> Option<&Metrics> {
        self.worlds[0].metrics.as_ref()
    }

    /// Turn on the engine self-profiler (replaces any previous profiler;
    /// off by default — when off, one branch per event). Event counts per
    /// [`EventClass`](crate::prof::EventClass) are exact; wall-time
    /// attribution is *sampled* (one event in
    /// [`ProfConfig::sample_every`]) to bound overhead. Wheel and
    /// queue gauges are snapshotted every [`ProfConfig::gauge_every`]
    /// events. Under sharding each shard profiles its own drain
    /// (sampling its own event stream) and the per-shard profiles are
    /// merged when the run completes; conservative-sync stalls surface as
    /// `sync_windows` / `sync_stall_ns` in the report.
    pub fn enable_prof(&mut self, cfg: ProfConfig) {
        let nodes = self.shared.topo.node_count();
        for w in &mut self.worlds {
            w.prof = Some(Profiler::new(cfg, nodes));
        }
    }

    /// The engine self-profiler, if enabled (the merged view after a
    /// sharded run).
    pub fn prof(&self) -> Option<&Profiler> {
        self.worlds[0].prof.as_ref()
    }

    /// Detach the profiler (profiling stops), e.g. to render its report.
    /// Under sharding the per-shard profiles are merged first.
    pub fn take_prof(&mut self) -> Option<Profiler> {
        let (w0, rest) = self.worlds.split_first_mut().expect("at least one shard");
        if let Some(p0) = w0.prof.as_mut() {
            for w in rest.iter_mut() {
                if let Some(p) = w.prof.as_mut() {
                    p0.absorb(p);
                }
            }
        }
        for w in rest {
            w.prof = None;
        }
        w0.prof.take()
    }

    /// Fold per-shard observability state into shard 0 at the end of a
    /// run: stats, metrics, and profiles merge associatively (sources are
    /// drained but keep their intern tables, so repeated `run_until`
    /// calls keep accumulating).
    pub(super) fn merge_worlds(&mut self) {
        let (w0, rest) = self.worlds.split_first_mut().expect("at least one shard");
        for w in rest {
            w0.stats.absorb(&mut w.stats);
            if let (Some(a), Some(b)) = (w0.metrics.as_mut(), w.metrics.as_mut()) {
                a.absorb(b);
            }
            if let (Some(a), Some(b)) = (w0.prof.as_mut(), w.prof.as_mut()) {
                a.absorb(b);
            }
        }
    }
}

/// `channels[chan]`, made empty if there is none — a label that is already
/// a key (every route and subscription but a channel's first) is not copied
/// to look it up.
fn truth_of<'a>(channels: &'a mut BTreeMap<String, ChannelTruth>, chan: &str) -> &'a mut ChannelTruth {
    if !channels.contains_key(chan) {
        channels.insert(chan.to_string(), ChannelTruth::default());
    }
    channels.get_mut(chan).expect("a key, or just made one")
}

/// Consume a finished sink chain into its [`TraceBuffer`], looking through
/// a [`Tee`] for the first ring child (the shape
/// [`Sim::add_trace_sink`] builds when an auditor runs beside the ring).
fn sink_into_buffer(sink: Box<dyn TraceSink>) -> Option<TraceBuffer> {
    match sink.into_any().downcast::<TraceBuffer>() {
        Ok(buffer) => Some(*buffer),
        Err(any) => match any.downcast::<Tee>() {
            Ok(tee) => tee.into_sinks().into_iter().find_map(sink_into_buffer),
            Err(_) => None,
        },
    }
}

/// Find the live [`Auditor`] in a sink chain — the sink itself or, at any
/// depth, a child of a [`Tee`].
fn find_auditor_mut(sink: &mut dyn TraceSink) -> Option<&mut Auditor> {
    if sink.as_any().is::<Auditor>() {
        return sink.as_any_mut().downcast_mut::<Auditor>();
    }
    sink.as_any_mut()
        .downcast_mut::<Tee>()?
        .sinks_mut()
        .iter_mut()
        .find_map(|s| find_auditor_mut(s.as_mut()))
}

/// Stable k-way merge of per-shard tagged trace streams by head
/// `(time, key, sub)` tag. This is a *merge by head*, not a sort: one
/// shard's stream can be locally non-monotone in key (a zero-latency
/// causal chain records its consequence events under later keys at the
/// same instant), and merging by smallest head reproduces exactly the
/// order the single-shard scheduler would have emitted — it simulates the
/// one-shard pop loop, whose per-pop record batches these streams partition.
fn merge_tagged(streams: Vec<Vec<(TraceEvent, u128, u64)>>) -> Vec<(TraceEvent, u128, u64)> {
    let total = streams.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = streams.into_iter().map(|s| s.into_iter().peekable()).collect();
    let mut out: Vec<(TraceEvent, u128, u64)> = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, (SimTime, u128, u64))> = None;
        let mut live = 0;
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some((ev, k, sub)) = it.peek() {
                live += 1;
                let tag = (ev.at, *k, *sub);
                if best.is_none_or(|(_, t)| tag < t) {
                    best = Some((i, tag));
                }
            }
        }
        match best {
            // One stream left — the only one there ever was, at one shard:
            // what remains of it is what remains of the merge.
            Some((i, _)) if live == 1 => {
                out.extend(iters[i].by_ref());
                break;
            }
            Some((i, _)) => out.push(iters[i].next().expect("peeked element vanished")),
            None => break,
        }
    }
    out
}
