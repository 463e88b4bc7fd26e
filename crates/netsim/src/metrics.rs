//! Time-series metrics: windowed sampling of named counters and post-fault
//! convergence probes.
//!
//! The flat end-of-run counter map ([`crate::stats::Stats`]) answers *how
//! much*; this module answers *when*. When enabled
//! ([`Sim::enable_metrics`](crate::engine::Sim::enable_metrics)), every
//! named-counter bump is also accumulated into a per-counter time series of
//! fixed-width buckets, stamped with the exact simulated time of the bump —
//! no driver-side stepping or sampling loop required (this replaces
//! `fig_recovery`'s original hand-rolled bucketing).
//!
//! On top of the raw series sit three derived facilities:
//!
//! * **Delivery watch**: the counters in [`Metrics::DELIVERY_COUNTERS`]
//!   (`host.data_rx` and `group.data_rx`) are treated as data deliveries;
//!   their exact instants are kept so probes resolve far below the bucket
//!   width.
//! * **Fault marks**: every topology transition is recorded, giving the
//!   fault schedule as it executed.
//! * **Convergence probes**: [`Metrics::reconvergence_after`] measures the
//!   time from a fault to the first restored delivery — the quantity the
//!   `docs/FAILURE_MODEL.md` recovery bounds are stated in.
//!
//! [`Histogram`] is the fixed-bucket latency distribution the auditor and
//! `trace_inspect` fill from the trace. Units are documented in
//! `docs/OBSERVABILITY.md`: times in microseconds, sizes in octets.

use crate::engine::TopologyChange;
use crate::stats::{CounterId, Name, Stats};
use crate::time::{SimDuration, SimTime};

/// Default histogram bucket upper bounds, in microseconds: 1 ms to ~33 s in
/// powers of two. Suits join / delivery / reconvergence latencies.
pub const DEFAULT_LATENCY_BOUNDS_US: [u64; 16] = [
    1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000, 1_024_000, 2_048_000, 4_096_000,
    8_192_000, 16_384_000, 32_768_000,
];

/// Configuration for [`Metrics`].
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Time-series bucket width.
    pub bucket: SimDuration,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig { bucket: SimDuration::from_millis(100) }
    }
}

impl MetricsConfig {
    /// Set the time-series bucket width.
    pub fn bucket(mut self, bucket: SimDuration) -> Self {
        self.bucket = bucket;
        self
    }
}

/// A fixed-bucket histogram: counts per upper bound plus an overflow
/// bucket, with min / max / count.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram with the given ascending upper bounds.
    pub fn new(bounds: impl Into<Vec<u64>>) -> Self {
        let bounds = bounds.into();
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The buckets: `(upper_bound, count)` pairs, `None` bound = overflow.
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.bounds
            .iter()
            .map(Some)
            .chain(std::iter::once(None))
            .zip(self.counts.iter())
            .map(|(b, &c)| (b.copied(), c))
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`); `None` if empty or the quantile lands in the
    /// overflow bucket (then [`max`](Self::max) bounds it).
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds.get(i).copied();
            }
        }
        None
    }

    /// The `q`-quantile observation (`q` in `[0, 1]`), resolved to a single
    /// value: the containing bucket's upper bound capped at the observed
    /// [`max`](Self::max), or the max itself when the quantile lands in the
    /// overflow bucket. `None` only if the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        Some(match self.quantile_bound(q) {
            Some(bound) => bound.min(self.max),
            None => self.max,
        })
    }
}

/// One counter's time series.
#[derive(Debug)]
struct Series {
    name: Name,
    /// Named in [`Metrics::DELIVERY_COUNTERS`]: a bump is a delivery.
    watched: bool,
    /// Bucketed deltas (bucket i covers `[i·w, (i+1)·w)`); empty until the
    /// first bump.
    buckets: Vec<u64>,
}

/// All metric state for one run. Created by
/// [`Sim::enable_metrics`](crate::engine::Sim::enable_metrics); fed by the
/// engine on every counter bump and topology change.
#[derive(Debug)]
pub struct Metrics {
    bucket_us: u64,
    /// The three per-class link series ([`Metrics::LINK_DATA_PKTS`] …),
    /// then one series per counter in first-bump order. A bump reaches its
    /// series by index; names are compared when a counter is first seen and
    /// when something is read or merged.
    series: Vec<Series>,
    /// [`CounterId`] → index into `series` ([`UNBOUND`] until the counter's
    /// first bump).
    by_id: Vec<u32>,
    /// Watched (delivery) bumps as `(instant, how many)` runs, in time order.
    deliveries: Vec<(SimTime, u64)>,
    /// Topology transitions as they executed.
    faults: Vec<(SimTime, TopologyChange)>,
}

const UNBOUND: u32 = u32::MAX;

impl Metrics {
    /// The counters whose bumps are data deliveries: their exact instants
    /// are kept and drive the convergence probes (and the auditor's A4).
    pub const DELIVERY_COUNTERS: [&'static str; 2] = ["host.data_rx", "group.data_rx"];

    /// Series index of `link.data_pkts`: data frames entering the wire.
    pub(crate) const LINK_DATA_PKTS: usize = 0;
    /// Series index of `link.control_pkts`.
    pub(crate) const LINK_CONTROL_PKTS: usize = 1;
    /// Series index of `link.drops`: frames the loss process discarded.
    pub(crate) const LINK_DROPS: usize = 2;

    /// Empty metrics with the given configuration.
    pub fn new(cfg: MetricsConfig) -> Self {
        let mut m = Metrics {
            bucket_us: cfg.bucket.micros().max(1),
            series: Vec::new(),
            by_id: Vec::new(),
            deliveries: Vec::new(),
            faults: Vec::new(),
        };
        for name in ["link.data_pkts", "link.control_pkts", "link.drops"] {
            m.slot_of(&Name::Static(name));
        }
        m
    }

    /// The series named `name`, created empty if there is none yet.
    fn slot_of(&mut self, name: &Name) -> usize {
        if let Some(slot) = self.series.iter().position(|s| s.name == *name) {
            return slot;
        }
        self.series.push(Series {
            name: name.clone(),
            watched: Self::DELIVERY_COUNTERS.contains(&name.as_str()),
            buckets: Vec::new(),
        });
        self.series.len() - 1
    }

    /// Engine hook: counter `id` of `stats` was bumped by `delta` at `now`.
    pub(crate) fn on_count(&mut self, now: SimTime, id: CounterId, stats: &Stats, delta: u64) {
        let slot = match self.by_id.get(id.index()) {
            Some(&slot) if slot != UNBOUND => slot as usize,
            _ => {
                let slot = self.slot_of(stats.name_of(id));
                if self.by_id.len() <= id.index() {
                    self.by_id.resize(id.index() + 1, UNBOUND);
                }
                self.by_id[id.index()] = slot as u32;
                slot
            }
        };
        self.bump(slot, now, delta);
    }

    /// Add `delta` to series `slot` at `now`.
    pub(crate) fn bump(&mut self, slot: usize, now: SimTime, delta: u64) {
        let idx = (now.micros() / self.bucket_us) as usize;
        let series = &mut self.series[slot];
        if series.buckets.len() <= idx {
            series.buckets.resize(idx + 1, 0);
        }
        series.buckets[idx] += delta;
        if series.watched {
            self.on_delivery(now, delta);
        }
    }

    /// `n` watched deliveries at `now` (not before the last one recorded).
    pub(crate) fn on_delivery(&mut self, now: SimTime, n: u64) {
        match self.deliveries.last_mut() {
            Some((at, run)) if *at == now => *run += n,
            _ if n > 0 => self.deliveries.push((now, n)),
            _ => {}
        }
    }

    /// Engine hook: a topology transition executed at `now`.
    pub(crate) fn mark_fault(&mut self, now: SimTime, change: TopologyChange) {
        self.faults.push((now, change));
    }

    /// Merge-and-drain another `Metrics` into this one: series are added
    /// elementwise by name, delivery runs merge-sorted by time (this side's
    /// first on ties). Fault marks are coordinator-recorded (shard 0 only
    /// in a sharded run) but merged defensively all the same.
    /// `other` is left empty, its counters still bound to their series.
    pub(crate) fn absorb(&mut self, other: &mut Metrics) {
        for src in &mut other.series {
            let src_buckets = std::mem::take(&mut src.buckets);
            let slot = self.slot_of(&src.name);
            let dst = &mut self.series[slot].buckets;
            if dst.len() < src_buckets.len() {
                dst.resize(src_buckets.len(), 0);
            }
            for (d, s) in dst.iter_mut().zip(src_buckets) {
                *d += s;
            }
        }
        let src = std::mem::take(&mut other.deliveries);
        self.deliveries = merge_by_time(std::mem::take(&mut self.deliveries), src, |e| e.0);
        let faults = std::mem::take(&mut other.faults);
        self.faults.extend(faults);
        self.faults.sort_by_key(|&(t, _)| t);
    }

    // ---- reads -----------------------------------------------------------

    /// The bucketed series of counter `name` (empty if never bumped).
    /// Bucket `i` holds the total delta in `[i·w, (i+1)·w)`.
    pub fn series(&self, name: &str) -> &[u64] {
        self.series.iter().find(|s| s.name.as_str() == name).map_or(&[], |s| &s.buckets)
    }

    /// Watched (delivery) counter bumps as `(instant, how many)` runs in
    /// time order: deliveries at one instant — every leaf of a tree level
    /// receives a packet in the same microsecond — share a run, so a long
    /// stream costs memory per distinct instant, not per delivery. The
    /// probes below read the instants only. (After a sharded run's merge an
    /// instant can head more than one consecutive run.)
    pub fn deliveries(&self) -> &[(SimTime, u64)] {
        &self.deliveries
    }

    /// The topology transitions as they executed.
    pub fn fault_marks(&self) -> &[(SimTime, TopologyChange)] {
        &self.faults
    }

    // ---- convergence probes ----------------------------------------------

    /// Time from `mark` (typically a fault's timestamp) to the first
    /// watched delivery at or after it — the "time from fault to first
    /// restored delivery" reconvergence measure. `None` if delivery never
    /// resumed.
    pub fn reconvergence_after(&self, mark: SimTime) -> Option<SimDuration> {
        let idx = self.deliveries.partition_point(|&(t, _)| t < mark);
        self.deliveries.get(idx).map(|&(t, _)| t - mark)
    }

    /// [`reconvergence_after`](Self::reconvergence_after) applied to every
    /// recorded fault mark: `(fault_time, change, recovery)` triples.
    pub fn reconvergence_report(&self) -> Vec<(SimTime, TopologyChange, Option<SimDuration>)> {
        self.faults
            .iter()
            .map(|&(t, c)| (t, c, self.reconvergence_after(t)))
            .collect()
    }

    /// Delivery gaps of at least `min_gap` between consecutive watched
    /// deliveries inside `[start, end]` — the outage windows a fault tore
    /// in the data stream.
    pub fn delivery_gaps(&self, start: SimTime, end: SimTime, min_gap: SimDuration) -> Vec<(SimTime, SimTime)> {
        let mut gaps = Vec::new();
        let mut prev = start;
        for &(t, n) in &self.deliveries {
            if t < start {
                continue;
            }
            if t > end {
                break;
            }
            if t - prev >= min_gap {
                gaps.push((prev, t));
            }
            prev = t;
            // The rest of the run follows at distance zero.
            if min_gap == SimDuration::ZERO {
                gaps.extend(std::iter::repeat_n((t, t), n as usize - 1));
            }
        }
        if end > prev && end - prev >= min_gap {
            gaps.push((prev, end));
        }
        gaps
    }
}

/// Stable two-way merge of time-sorted vectors: on equal timestamps, `a`'s
/// elements come first. Used by [`Metrics::absorb`].
fn merge_by_time<T>(a: Vec<T>, b: Vec<T>, key: impl Fn(&T) -> SimTime) -> Vec<T> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if key(x) <= key(y) {
                    merged.push(a.next().unwrap());
                } else {
                    merged.push(b.next().unwrap());
                }
            }
            (Some(_), None) => merged.push(a.next().unwrap()),
            (None, Some(_)) => merged.push(b.next().unwrap()),
            (None, None) => break,
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LinkId;

    fn ms(n: u64) -> SimTime {
        SimTime(n * 1_000)
    }

    /// Metrics fed the way the engine feeds them: by handle into `stats`.
    struct Fed {
        m: Metrics,
        stats: Stats,
    }

    impl Fed {
        fn new(cfg: MetricsConfig) -> Fed {
            Fed { m: Metrics::new(cfg), stats: Stats::new(0) }
        }

        fn count(&mut self, at: SimTime, key: &'static str, delta: u64) {
            let id = self.stats.counter(key);
            self.m.on_count(at, id, &self.stats, delta);
        }
    }

    #[test]
    fn series_buckets_by_time() {
        let mut f = Fed::new(MetricsConfig::default().bucket(SimDuration::from_millis(100)));
        f.count(ms(10), "x.tx", 1);
        f.count(ms(90), "x.tx", 2);
        f.count(ms(250), "x.tx", 5);
        let m = f.m;
        assert_eq!(m.series("x.tx"), &[3, 0, 5]);
        assert_eq!(m.series("missing"), &[] as &[u64]);
    }

    #[test]
    fn watched_deliveries_and_reconvergence() {
        let mut f = Fed::new(MetricsConfig::default());
        f.count(ms(100), "host.data_rx", 1);
        f.count(ms(110), "host.data_rx", 1);
        f.m.mark_fault(ms(150), TopologyChange::LinkDown(LinkId(3)));
        f.count(ms(400), "host.data_rx", 1);
        f.count(ms(410), "other.counter", 1); // not watched
        let m = f.m;
        assert_eq!(m.deliveries().len(), 3);
        assert_eq!(m.reconvergence_after(ms(150)), Some(SimDuration::from_millis(250)));
        assert_eq!(m.reconvergence_after(ms(500)), None);
        let report = m.reconvergence_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].2, Some(SimDuration::from_millis(250)));
        let gaps = m.delivery_gaps(ms(100), ms(500), SimDuration::from_millis(100));
        // One torn window mid-stream, and the tail after the last delivery.
        assert_eq!(gaps, vec![(ms(110), ms(400)), (ms(400), ms(500))]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for v in [5, 7, 50, 200, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(5000));
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(10), 2), (Some(100), 1), (Some(1000), 1), (None, 1)]);
        assert_eq!(h.quantile_bound(0.5), Some(100));
        assert_eq!(h.quantile_bound(0.0), Some(10));
        assert_eq!(h.quantile_bound(1.0), None); // lands in overflow
        assert!(Histogram::new(vec![1]).quantile_bound(0.5).is_none());
        // quantile() resolves to a value: bucket bound, capped at max, or
        // the max itself in the overflow bucket; None only when empty.
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(1.0), Some(5000)); // overflow → observed max
        assert!(Histogram::new(vec![1]).quantile(0.5).is_none());
        let mut low = Histogram::new(vec![1000]);
        low.observe(3);
        assert_eq!(low.quantile(0.5), Some(3)); // bound capped at max
    }

    #[test]
    fn histogram_boundary_buckets() {
        // Exact edges are inclusive on the bucket's upper bound: a value
        // equal to a bound lands in that bucket, one past it in the next.
        let mut h = Histogram::new(vec![10, 100]);
        h.observe(10);
        h.observe(11);
        h.observe(100);
        h.observe(101); // overflow
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(10), 1), (Some(100), 2), (None, 1)]);

        // Underflow: zero and anything below the first bound land in the
        // first bucket; min/max still track the raw values.
        let mut h = Histogram::new(vec![10, 100]);
        h.observe(0);
        h.observe(1);
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(10), 2), (Some(100), 0), (None, 0)]);
        assert_eq!(h.min(), Some(0));

        // Overflow only: every observation past the last bound is counted,
        // quantiles all report overflow (None), and max still bounds them.
        let mut h = Histogram::new(vec![10, 100]);
        h.observe(u64::MAX);
        h.observe(101);
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(10), 0), (Some(100), 0), (None, 2)]);
        assert_eq!(h.quantile_bound(0.0), None);
        assert_eq!(h.quantile_bound(1.0), None);
        assert_eq!(h.max(), Some(u64::MAX));

        // Degenerate geometry: an empty bounds list is a single overflow
        // bucket; counts and extremes still work.
        let mut h = Histogram::new(Vec::new());
        h.observe(7);
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(None, 1)]);
        assert_eq!((h.count(), h.min(), h.max()), (1, Some(7), Some(7)));
    }

    /// Deliveries at one instant share a run; the probes read instants.
    #[test]
    fn deliveries_are_runs_of_equal_instants() {
        let mut f = Fed::new(MetricsConfig::default());
        for _ in 0..1_000 {
            f.count(ms(10), "host.data_rx", 1);
        }
        f.count(ms(10), "group.data_rx", 3);
        f.count(ms(40), "host.data_rx", 2);
        f.count(ms(40), "host.data_rx", 0);
        assert_eq!(f.m.deliveries(), &[(ms(10), 1_003), (ms(40), 2)]);
        assert_eq!(f.m.reconvergence_after(ms(11)), Some(SimDuration::from_millis(29)));
        assert_eq!(f.m.delivery_gaps(ms(0), ms(50), SimDuration::from_millis(10)), vec![(ms(0), ms(10)), (ms(10), ms(40)), (ms(40), ms(50))]);
        // A zero bound asks for every consecutive pair, a run's own included.
        assert_eq!(f.m.delivery_gaps(ms(20), ms(40), SimDuration::ZERO), vec![(ms(20), ms(40)), (ms(40), ms(40))]);
        // A merge interleaves the other side's runs by instant, ours first.
        let mut g = Fed::new(MetricsConfig::default());
        g.count(ms(10), "host.data_rx", 5);
        g.count(ms(20), "host.data_rx", 1);
        f.m.absorb(&mut g.m);
        assert_eq!(f.m.deliveries(), &[(ms(10), 1_003), (ms(10), 5), (ms(20), 1), (ms(40), 2)]);
        assert_eq!(f.m.series("host.data_rx"), &[1_008]);
        assert!(g.m.deliveries().is_empty() && g.m.series("host.data_rx").is_empty());
    }
}
