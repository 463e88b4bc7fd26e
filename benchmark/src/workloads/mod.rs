//! The four workloads and the protocol every one of them is measured by.
//!
//! Single process, single driver thread, closed loop: the driver calls
//! `Sim::run_until` window by window, and an *operation* is defined by the
//! workload so the headline does not depend on how the engine counts
//! events. One run is
//!
//! 1. [`Cfg::setup_passes`] **timed set-up passes**, each thrown away but
//!    the last; every pass must reproduce the same simulated statistics.
//!    The first pass is the *cold* one: it runs before anything has been
//!    pre-faulted and is reported on its own as `cold_setup_s`. It is also
//!    the pre-fault — it touches exactly the memory the workload needs, so
//!    the later passes and the measured windows reuse pages the hypervisor
//!    has already backed. `setup_s` is the median of the passes after it;
//! 2. `VmHWM` reset, after the cold pass has been dropped;
//! 3. the **measured windows** on the last pass's simulation, for at least
//!    `--seconds` of host time and at least the workload's minimum window
//!    count;
//! 4. the output checks.

pub mod data;
pub mod isp;
pub mod observed;

use crate::hostctl::{self, PeakRss};
use crate::quantiles::{median, summarize, Summary};
use crate::spans;
use express::host::{ExpressHost, HostAction, HostEvent};
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use netsim::time::{SimDuration, SimTime};
use netsim::{NodeId, Sim};
use std::collections::BTreeMap;
use std::time::Instant;

/// The workload names, in reporting order.
pub const NAMES: [&str; 4] = [
    "tree_1m_data",
    "star_100k_data",
    "isp_churn_faults",
    "tree_1k_observed",
];

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Seeds topology and schedule generation; the simulator receives only
    /// the generated inputs.
    pub seed: u64,
    /// Host seconds of measured windows (the minimum window counts apply on
    /// top).
    pub seconds: f64,
    /// Traced run: agents and sinks wrapped in spans, per-layer metrics.
    pub trace: bool,
    /// Toy sizes for `--check` and `cargo test`.
    pub check: bool,
    /// Set-up passes, the cold one included (at least 2).
    pub setup_passes: usize,
    /// Three-window minimums at full size: the untraced reference probe of
    /// a traced run.
    pub short: bool,
}

impl Cfg {
    /// Minimum measured windows per phase.
    pub fn min_windows(&self, full: usize) -> usize {
        if self.check || self.short {
            3
        } else {
            full
        }
    }
}

/// The seed every pinned digest in `expected/` was taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Exact simulated statistics, as `key=value` lines. A simulator speed-up
/// must leave them identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest(pub Vec<(String, u64)>);

impl Digest {
    pub fn put(&mut self, key: impl Into<String>, value: u64) {
        self.0.push((key.into(), value));
    }
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.0 {
            s.push_str(k);
            s.push('=');
            s.push_str(&v.to_string());
            s.push('\n');
        }
        s
    }
    /// Lines of `self` that `expected` (in [`to_text`](Self::to_text) form)
    /// does not contain verbatim, plus expected lines `self` lacks.
    pub fn mismatches(&self, expected: &str) -> Vec<String> {
        let want: Vec<&str> = expected.lines().filter(|l| !l.trim().is_empty()).collect();
        let got_text = self.to_text();
        let got: Vec<&str> = got_text.lines().collect();
        let mut out = Vec::new();
        for i in 0..want.len().max(got.len()) {
            match (want.get(i), got.get(i)) {
                (Some(w), Some(g)) if w == g => {}
                (w, g) => out.push(format!(
                    "digest line {}: expected `{}`, got `{}`",
                    i + 1,
                    w.unwrap_or(&"<none>"),
                    g.unwrap_or(&"<none>")
                )),
            }
        }
        out
    }
}

/// Wall-clock split of one set-up pass, for the `setup.*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    pub nodes: usize,
    pub topology_s: f64,
    pub sim_new_s: f64,
    pub install_s: f64,
    pub start_s: f64,
    pub allocs: u64,
}

/// Everything a run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Host seconds of each set-up pass; the first is the cold one.
    pub setup_passes_s: Vec<f64>,
    /// Peak RSS of the cold pass: the size the run was pre-faulted to.
    pub prefault_mb: f64,
    pub peak_rss_mb: f64,
    pub rss_source: &'static str,
    /// Operations per second of host time, one sample per measured window.
    pub ops_rates: Vec<f64>,
    /// Host ms per fault window.
    pub fault_ms: Vec<f64>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    pub digest: Digest,
    /// `Some(true)` pinned digest matched, `Some(false)` mismatched, `None`
    /// no digest is pinned for this seed and size.
    pub digest_pinned: Option<bool>,
    /// Workload-specific end-to-end figures (`obs_slowdown`,
    /// `ctrl_msgs_per_change`) and the traced run's per-layer metrics.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The un-pre-faulted first pass.
    pub fn cold_setup_s(&self) -> f64 {
        self.setup_passes_s[0]
    }
    /// Median of the set-up passes after the cold one.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_passes_s[1..])
    }
    pub fn ops(&self) -> Summary {
        summarize(&self.ops_rates)
    }
    pub fn fault(&self) -> Summary {
        summarize(&self.fault_ms)
    }
    /// Record `n` failed operations with one reason.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.ops_failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// What a workload implements; [`run`] supplies the protocol around it.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Everything from topology generation to the end of the warm-up
    /// windows. `traced` wraps agents and sinks in spans.
    fn setup(cfg: &Cfg, traced: bool) -> Self;
    /// Wall-clock split of this pass's set-up.
    fn split(&self) -> SetupSplit;
    /// Exact simulated statistics at the end of set-up.
    fn setup_digest(&self) -> Digest;
    /// The measured windows and output checks. `budget_s` is host seconds
    /// to fill; minimum window counts come from `cfg`.
    fn measure(&mut self, cfg: &Cfg, budget_s: f64, rss: &mut PeakRss, out: &mut Outcome);
    /// Extra traced-only passes and isolated layer costs.
    fn trace_extras(&mut self, _cfg: &Cfg, _out: &mut Outcome) {}
    /// The digest pinned for this seed and size, if any: workloads whose
    /// simulated statistics do not depend on the seed pin one for every
    /// seed, the others for [`DEFAULT_SEED`] only.
    fn expected(cfg: &Cfg) -> Option<&'static str>;
}

/// Run workload `W` by the protocol in the module docs.
pub fn run<W: Workload>(cfg: &Cfg) -> Outcome {
    let mut out = Outcome {
        workload: W::NAME,
        seed: cfg.seed,
        traced: cfg.trace,
        ..Outcome::default()
    };

    // Set-up passes. The first is the cold one; in a traced run the
    // last-but-one stays untraced and measures a short reference rate, so
    // the tracing overhead comes out of one process.
    let passes = cfg.setup_passes.max(2);
    let mut rss = PeakRss::start();
    let mut reference: Option<Digest> = None;
    let mut untraced_rate = None;
    let mut split = SetupSplit::default();
    let mut teardown_s = 0.0;
    let mut world = None;
    for pass in 0..passes {
        let last = pass + 1 == passes;
        let t0 = Instant::now();
        let mut w = W::setup(cfg, cfg.trace && last);
        out.setup_passes_s.push(t0.elapsed().as_secs_f64());
        // Twin check: identical inputs must give identical simulated
        // statistics, pass after pass, for every seed.
        let d = w.setup_digest();
        match &reference {
            None => reference = Some(d),
            Some(r) if *r == d => {}
            Some(r) => {
                for m in d.mismatches(&r.to_text()) {
                    out.fail(
                        1,
                        format!("set-up pass {pass} disagrees with the first: {m}"),
                    );
                }
            }
        }
        if pass == 0 {
            // The cold pass is the pre-fault: what it touched is the size
            // the run was pre-faulted to. From here on the high-water mark
            // belongs to the passes that follow.
            out.prefault_mb = hostctl::vm_hwm_kb().unwrap_or(0) as f64 / 1024.0;
        }
        if last {
            split = w.split();
            world = Some(w);
        } else {
            if cfg.trace && pass + 2 == passes {
                let mut probe = Outcome::default();
                let short = Cfg {
                    short: true,
                    ..cfg.clone()
                };
                w.measure(&short, (cfg.seconds / 4.0).min(2.0), &mut rss, &mut probe);
                untraced_rate = Some(probe.ops().median);
                out.ops_failed += probe.ops_failed;
            }
            let t0 = Instant::now();
            drop(w);
            teardown_s = t0.elapsed().as_secs_f64();
        }
        if pass == 0 {
            rss = PeakRss::start();
        }
    }
    let mut world = world.expect("at least one set-up pass ran");

    // Measured windows.
    spans::reset();
    world.measure(cfg, cfg.seconds, &mut rss, &mut out);
    let (mb, source) = rss.peak_mb();
    out.peak_rss_mb = mb;
    out.rss_source = source;

    // Pinned digest, where one applies, on top of the pass agreement.
    if let Some(expected) = W::expected(cfg) {
        let bad = out.digest.mismatches(expected);
        out.digest_pinned = Some(bad.is_empty());
        for m in bad {
            out.fail(1, m);
        }
    }

    if cfg.trace {
        let per_node = |s: f64| s * 1e9 / split.nodes.max(1) as f64;
        out.layer("setup.topology_ns_per_node", per_node(split.topology_s));
        out.layer("setup.sim_new_ns_per_node", per_node(split.sim_new_s));
        out.layer("setup.agent_install_ns_per_node", per_node(split.install_s));
        out.layer("setup.start_ns_per_node", per_node(split.start_s));
        out.layer(
            "setup.allocs_per_node",
            split.allocs as f64 / split.nodes.max(1) as f64,
        );
        out.layer("setup.cold_setup_s", out.cold_setup_s());
        out.layer("setup.prefault_mb", out.prefault_mb);
        out.layer("teardown_s", teardown_s);
        if let Some(base) = untraced_rate {
            let traced = out.ops().median;
            out.layer(
                "trace_overhead_share",
                if base > 0.0 { 1.0 - traced / base } else { 0.0 },
            );
        }
        world.trace_extras(cfg, &mut out);
    }
    out
}

/// Run a workload by name.
pub fn run_named(name: &str, cfg: &Cfg) -> Option<Outcome> {
    Some(match name {
        "tree_1m_data" => run::<data::Tree>(cfg),
        "star_100k_data" => run::<data::Star>(cfg),
        "isp_churn_faults" => run::<isp::Isp>(cfg),
        "tree_1k_observed" => run::<observed::Observed>(cfg),
        _ => return None,
    })
}

/// Keep opening windows until both the time budget and the minimum window
/// count are met.
pub struct WindowClock {
    start: Instant,
    budget_s: f64,
    min: usize,
    done: usize,
}

impl WindowClock {
    pub fn new(budget_s: f64, min: usize) -> Self {
        WindowClock {
            start: Instant::now(),
            budget_s,
            min,
            done: 0,
        }
    }
    /// Whether another window should run; counts it if so.
    pub fn grant(&mut self) -> bool {
        let more = self.done < self.min || self.start.elapsed().as_secs_f64() < self.budget_s;
        if more {
            self.done += 1;
        }
        more
    }
    /// Windows granted so far.
    pub fn done(&self) -> usize {
        self.done
    }
}

/// A fixed set of simulated counters read at window edges; each workload
/// names its own. Sums of per-window deltas make up the digest sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters<const N: usize>(pub [u64; N]);

impl<const N: usize> Counters<N> {
    pub const ZERO: Self = Counters([0; N]);

    /// Add what changed between two readings.
    pub fn add_delta(&mut self, before: &Self, after: &Self) {
        for i in 0..N {
            self.0[i] += after.0[i] - before.0[i];
        }
    }

    /// `after - before`.
    pub fn delta(before: &Self, after: &Self) -> Self {
        let mut d = Self::ZERO;
        d.add_delta(before, after);
        d
    }

    /// Write every counter as `section.name=value`.
    pub fn put(&self, d: &mut Digest, section: &str, names: &[&str; N]) {
        for (name, value) in names.iter().zip(self.0) {
            d.put(format!("{section}.{name}"), value);
        }
    }
}

/// Simulated ms for a burst of control traffic to settle (paths are ~10
/// one-millisecond hops).
pub const SETTLE_MS: u64 = 200;
/// Simulated ms from link-up to the end of a protocol fault window: the
/// cut-off side orphans itself on the way down, the back-off re-join
/// (0.5 s, 1 s, …) and the 2 s hysteresis run out after the link is back,
/// then the re-join Counts settle.
pub const QUIESCE_MS: u64 = 5_000;
/// `CountQuery` timeout. Generous on purpose: with neighbour probes off every
/// hop takes the default 200 ms decrement off the budget, and a budget that
/// runs out mid-tree yields a partial count. A complete answer returns as
/// soon as the last reply is in, long before this.
const QUERY_TIMEOUT_MS: u64 = 10_000;

/// The next whole simulated millisecond.
pub fn next_ms(sim: &Sim) -> u64 {
    sim.now().0 / 1000 + 1
}

/// Run `sim` to `until_ms`; returns host seconds.
pub fn run_to_ms(sim: &mut Sim, until_ms: u64) -> f64 {
    let t0 = Instant::now();
    sim.run_until(SimTime(until_ms * 1000));
    t0.elapsed().as_secs_f64()
}

/// Have the `ExpressHost` at `src` count `channel`'s subscribers now.
pub fn schedule_count_query(sim: &mut Sim, src: NodeId, channel: Channel) {
    let at = SimTime(next_ms(sim) * 1000);
    let action = HostAction::CountQuery {
        channel,
        count_id: CountId::SUBSCRIBERS,
        timeout: SimDuration::from_millis(QUERY_TIMEOUT_MS),
    };
    ExpressHost::schedule(sim, src, at, action);
}

/// The latest `CountQuery` answer the host at `src` received, clearing its
/// event log (which would otherwise grow with the window count).
pub fn take_count_answer(sim: &mut Sim, src: NodeId) -> Option<u64> {
    let host = sim.agent_as::<ExpressHost>(src).expect("source host agent");
    let answer = host.events.iter().rev().find_map(|e| match e {
        HostEvent::CountResult { count, .. } => Some(*count),
        _ => None,
    });
    host.events.clear();
    answer
}
