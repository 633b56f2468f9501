//! Telemetry: mergeable histograms, exact time-weighted gauges, and the
//! probe that feeds them.
//!
//! The simulation's distributional quantities — wait times, staging
//! occupancy, per-server load — are not recoverable from the scalar means
//! in [`crate::simulation::SimOutcome`]. This module adds a metrics layer
//! on top of the PR-2 probe interface:
//!
//! * [`Histogram`] — a streaming log-bucketed histogram whose bucket
//!   boundaries are derived from the float's *bit pattern* (no `ln`, no
//!   platform-dependent libm), so two runs bucket identically everywhere.
//!   Merging histograms adds bucket counts keywise, which makes
//!   multi-trial aggregation *exact*: merging per-trial histograms equals
//!   the histogram of the pooled samples, bucket for bucket.
//! * [`TimeWeightedGauge`] — an exact integral of a piecewise-linear
//!   quantity. The simulation only changes rates inside event handlers,
//!   so every integrand of interest (committed bandwidth, waitlist depth,
//!   active streams, staged megabits) is linear between events; sampling
//!   the value *and its slope* at each event boundary and integrating
//!   `v·dt + ½·s·dt²` reproduces the true integral with no sampling
//!   error. The warm-up boundary is not an event; segments straddling it
//!   are clipped analytically.
//! * [`StateView`] — the narrow read-only window onto world state the
//!   loop exposes to probes at each event boundary, projecting lazy
//!   engine clocks forward to the event time.
//! * [`TelemetryProbe`] — subscribes to both streams and instruments the
//!   quantities the paper's evaluation cares about; its
//!   [`TelemetryProbe::finish`] folds everything into a
//!   [`MetricsRegistry`].
//! * [`MetricsRegistry`] — named counters/gauges/histograms, mergeable
//!   across trials, exportable as an [`sct_analysis::MetricsSnapshot`].
//!
//! Like every probe, the telemetry layer observes and never steers: the
//! golden-snapshot tests pass with a [`TelemetryProbe`] attached.

use crate::config::SimConfig;
use crate::events::{AdmitPath, Probe, SimEvent};
use sct_analysis::snapshot::{
    BucketSnapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot,
};
use sct_simcore::SimTime;
use sct_transmission::{ServerEngine, Stream};
use std::collections::BTreeMap;

/// Sub-octave cutpoints `2^(i/8)` for `i = 0..8`, as correctly-rounded
/// f64 literals. Eight buckets per octave bounds the relative quantile
/// error at `2^(1/8) − 1 ≈ 9 %`.
const SUB_CUTS: [f64; 8] = [
    1.0,
    1.090_507_732_665_257_7,
    1.189_207_115_002_721,
    1.296_839_554_651_009_6,
    std::f64::consts::SQRT_2,
    1.542_210_825_407_940_7,
    1.681_792_830_507_429,
    1.834_008_086_409_342,
];

/// `2^(1/16)`: multiplying a bucket's lower bound by this yields its
/// geometric midpoint, the bucket's representative value.
const GEO_MID: f64 = 1.044_273_782_427_413_8;

/// The log bucket a positive finite value falls into. Pure bit
/// arithmetic plus float *comparisons* — deterministic on every platform.
fn bucket_key(v: f64) -> i64 {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let (exp, mantissa) = if biased == 0 {
        // Subnormals collapse into the bottom octave.
        (-1023i64, 1.0)
    } else {
        let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
        (biased - 1023, m)
    };
    let mut sub = 0i64;
    for i in (1..8).rev() {
        if mantissa >= SUB_CUTS[i] {
            sub = i as i64;
            break;
        }
    }
    exp * 8 + sub
}

/// The lower bound of a bucket, reconstructed from its key (the exact
/// inverse of [`bucket_key`]'s rounding-down).
fn bucket_lower(key: i64) -> f64 {
    let exp = key.div_euclid(8).clamp(-1022, 1023);
    let sub = key.rem_euclid(8) as usize;
    f64::from_bits(((exp + 1023) as u64) << 52) * SUB_CUTS[sub]
}

/// A deterministic streaming log-bucketed histogram.
///
/// Positive samples land in buckets of relative width `2^(1/8)`; samples
/// `≤ 0` are counted in a dedicated class (zero wait times are real data,
/// but a log scale cannot hold them). Quantiles report a bucket's
/// geometric midpoint clamped to the observed `[min, max]`, so they
/// depend only on state that merges exactly — quantiles computed from a
/// merged histogram equal quantiles of the pooled samples' histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<i64, u64>,
    nonpositive: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: BTreeMap::new(),
            nonpositive: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Panics on non-finite input: every instrumented
    /// quantity is a finite simulation observable.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "histogram sample must be finite: {v}");
        if v > 0.0 {
            *self.buckets.entry(bucket_key(v)).or_insert(0) += 1;
        } else {
            self.nonpositive += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0 when empty). Note the mean is the
    /// one aggregate that merges only approximately (float addition
    /// reassociates); bucket counts, min, max, and quantiles merge
    /// exactly.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`): the representative value of the
    /// bucket holding the sample of rank `⌈q·n⌉`. Within `2^(1/16)` of a
    /// true order statistic; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.nonpositive;
        if rank <= cum {
            // All non-positive samples sit below every bucket; the class
            // representative is the observed minimum.
            return self.min;
        }
        for (&key, &n) in &self.buckets {
            cum += n;
            if rank <= cum {
                let rep = bucket_lower(key) * GEO_MID;
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s samples into `self`: bucket counts add keywise, so
    /// the merge is exact (see the type-level docs).
    pub fn merge(&mut self, other: &Histogram) {
        for (&key, &n) in &other.buckets {
            *self.buckets.entry(key).or_insert(0) += n;
        }
        self.nonpositive += other.nonpositive;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets in key order (for export).
    pub fn buckets(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.buckets.iter().map(|(&k, &n)| (k, n))
    }

    /// Samples `≤ 0`, held outside the log buckets.
    pub fn nonpositive(&self) -> u64 {
        self.nonpositive
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            nonpositive: self.nonpositive,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self
                .buckets()
                .map(|(key, count)| BucketSnapshot { key, count })
                .collect(),
        }
    }
}

/// An exact time-weighted gauge over the measurement window
/// `[window_start, end]`.
///
/// Feed it `(now, value, slope)` at every event boundary — the value just
/// after the handler ran and the rate at which it will change until the
/// next event. Because the simulation's integrands are piecewise linear
/// *between* events (rates only change inside handlers), integrating
/// `v·dt + ½·slope·dt²` per segment is exact; jumps at the boundaries are
/// captured by re-observing. Segments straddling `window_start` are
/// clipped analytically (the warm-up boundary is not an event).
#[derive(Clone, Debug, PartialEq)]
pub struct TimeWeightedGauge {
    window_start: SimTime,
    last_t: SimTime,
    last_v: f64,
    last_slope: f64,
    integral: f64,
    span: f64,
    min: f64,
    max: f64,
}

impl TimeWeightedGauge {
    /// Creates a gauge measuring from `window_start`, with the integrand
    /// implicitly 0 from time 0 (the world starts empty).
    pub fn new(window_start: SimTime) -> Self {
        TimeWeightedGauge {
            window_start,
            last_t: SimTime::ZERO,
            last_v: 0.0,
            last_slope: 0.0,
            integral: 0.0,
            span: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Integrates the pending segment `[last_t, now]` (clipped to the
    /// window) under the stored value/slope.
    fn advance(&mut self, now: SimTime) {
        let t0 = self.last_t.max(self.window_start);
        if now > t0 {
            // Offsets from last_t, where the stored value/slope are exact.
            let a = t0 - self.last_t;
            let b = now - self.last_t;
            self.integral += self.last_v * (b - a) + 0.5 * self.last_slope * (b * b - a * a);
            let va = self.last_v + self.last_slope * a;
            let vb = self.last_v + self.last_slope * b;
            self.min = self.min.min(va.min(vb));
            self.max = self.max.max(va.max(vb));
        }
    }

    /// Observes the integrand at an event boundary: `value` holds from
    /// `now` and changes at `slope` per second until the next observation
    /// (use 0 for piecewise-constant integrands).
    pub fn observe(&mut self, now: SimTime, value: f64, slope: f64) {
        debug_assert!(now >= self.last_t, "gauge time went backwards");
        self.advance(now);
        self.last_t = self.last_t.max(now);
        self.last_v = value;
        self.last_slope = slope;
    }

    /// Closes the window at `end`, extending the last segment to it. Call
    /// exactly once, after the run.
    pub fn finalize(&mut self, end: SimTime) {
        self.advance(end);
        self.last_t = self.last_t.max(end);
        self.span += (end - self.window_start).max(0.0);
    }

    /// `∫ value dt` over the (finalized) window, value-seconds.
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Measured seconds (summed across merged trials).
    pub fn span_secs(&self) -> f64 {
        self.span
    }

    /// Time-weighted mean over the window (0 before finalizing).
    pub fn mean(&self) -> f64 {
        if self.span > 0.0 {
            self.integral / self.span
        } else {
            0.0
        }
    }

    /// Smallest value inside the window (0 when the window is empty).
    pub fn min(&self) -> f64 {
        if self.min.is_finite() {
            self.min
        } else {
            0.0
        }
    }

    /// Largest value inside the window (0 when the window is empty).
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Merges another (finalized) gauge of the same quantity from a
    /// different trial: integrals and spans add, so the merged mean is the
    /// pooled time-weighted mean.
    pub fn merge(&mut self, other: &TimeWeightedGauge) {
        self.integral += other.integral;
        self.span += other.span;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn snapshot(&self, name: &str) -> GaugeSnapshot {
        GaugeSnapshot {
            name: name.to_string(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            integral: self.integral,
            span_secs: self.span,
        }
    }
}

/// A read-only window onto simulation state, handed to probes at each
/// event boundary (after the handler ran). Engines integrate lazily, so
/// every accessor projects stream state forward from the engine's local
/// clock to the event time — rates are constant in between, so the
/// projection is exact.
pub struct StateView<'a> {
    now: SimTime,
    engines: &'a [ServerEngine],
    waitlist_depth: usize,
}

/// The work [`StateView`]'s accessors do, tallied per thread in test
/// builds only: one per server field read and one per stream visited.
/// The probe gates in `crate::simulation`'s tests pin these counts.
#[cfg(test)]
pub(crate) mod view_work {
    use std::cell::Cell;

    thread_local! {
        static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(crate) fn add(server_reads: usize, stream_visits: usize) {
        TALLY.with(|t| {
            let (r, v) = t.get();
            t.set((r + server_reads as u64, v + stream_visits as u64));
        });
    }

    /// `(server reads, stream visits)` on this thread so far.
    pub(crate) fn tally() -> (u64, u64) {
        TALLY.with(Cell::get)
    }
}

/// Megabits `s` has transmitted `dt` seconds past its engine's clock, at
/// its current allocated rate. Engines integrate lazily, and a rate stays
/// constant until the engine's next walk, so every reader between walks
/// (this view, the differential oracle) projects this way, exactly.
pub(crate) fn projected_sent_mb(s: &Stream, dt: f64) -> f64 {
    (s.sent_mb() + s.rate() * dt).min(s.size_mb)
}

/// Megabits of `s` sitting in its client's staging buffer at `now`,
/// projecting the (possibly stale) transmission state forward at the
/// current allocated rate.
pub(crate) fn projected_staged_mb(engine: &ServerEngine, s: &Stream, now: SimTime) -> f64 {
    let dt = (now - engine.clock()).max(0.0);
    (projected_sent_mb(s, dt) - s.viewed_mb(now)).max(0.0)
}

impl<'a> StateView<'a> {
    pub(crate) fn new(now: SimTime, engines: &'a [ServerEngine], waitlist_depth: usize) -> Self {
        StateView {
            now,
            engines,
            waitlist_depth,
        }
    }

    /// One server's engine, for an accessor that reads one of its fields.
    fn engine(&self, server: usize) -> &ServerEngine {
        #[cfg(test)]
        view_work::add(1, 0);
        &self.engines[server]
    }

    /// The event time this view is valid at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of servers in the cluster.
    pub fn n_servers(&self) -> usize {
        self.engines.len()
    }

    /// A server's outbound capacity, Mb/s.
    pub fn capacity_mbps(&self, server: usize) -> f64 {
        self.engine(server).capacity_mbps()
    }

    /// `true` while the server is up.
    pub fn is_online(&self, server: usize) -> bool {
        self.engine(server).is_online()
    }

    /// A server's minimum-flow commitment (Σ view rates), Mb/s.
    pub fn committed_mbps(&self, server: usize) -> f64 {
        self.engine(server).committed_mbps()
    }

    /// A server's currently allocated transmission rate (Σ stream rates),
    /// Mb/s — the integrand of the utilization metric. Reads the engine's
    /// mutation-maintained aggregate, so probes pay O(1) per server per
    /// state view instead of re-summing every stream.
    pub fn allocated_mbps(&self, server: usize) -> f64 {
        self.engine(server).allocated_mbps()
    }

    /// Unfinished streams on a server (viewer streams and replica
    /// copies).
    pub fn active_streams(&self, server: usize) -> usize {
        self.engine(server).active_count()
    }

    /// Unfinished streams across the cluster.
    pub fn total_active_streams(&self) -> usize {
        #[cfg(test)]
        view_work::add(self.engines.len(), 0);
        self.engines.iter().map(ServerEngine::active_count).sum()
    }

    /// Requests currently queued in the waitlist.
    pub fn waitlist_depth(&self) -> usize {
        self.waitlist_depth
    }

    /// Aggregate staged megabits across all *viewer* streams, and its
    /// slope in Mb/s (fill rate minus drain rate), both exact at `now`.
    pub fn staged_totals(&self) -> (f64, f64) {
        let mut staged = 0.0;
        let mut slope = 0.0;
        for e in self.engines {
            #[cfg(test)]
            view_work::add(1, e.streams().len());
            let dt = (self.now - e.clock()).max(0.0);
            for s in e.streams() {
                if s.is_copy() {
                    continue;
                }
                let sent = projected_sent_mb(s, dt);
                staged += (sent - s.viewed_mb(self.now)).max(0.0);
                if sent < s.size_mb {
                    slope += s.rate();
                }
                if !s.is_paused() && s.viewed_mb(self.now) < s.size_mb {
                    slope -= s.view_rate;
                }
            }
        }
        (staged, slope)
    }

    /// Staged megabits of one stream on one server, or `None` if the
    /// server does not hold it.
    pub fn stream_staged_mb(&self, server: usize, stream: u64) -> Option<f64> {
        let e = self.engines.get(server)?;
        let s = e.streams().iter().find(|s| {
            #[cfg(test)]
            view_work::add(0, 1);
            s.id.0 == stream
        })?;
        #[cfg(test)]
        view_work::add(1, 0);
        Some(projected_staged_mb(e, s, self.now))
    }
}

/// Named counters, gauges, and histograms — one trial's telemetry, or
/// several trials merged exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    trials: u32,
    measured_secs: f64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, TimeWeightedGauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry covering `trials` trials of
    /// `measured_secs` each.
    pub fn new(trials: u32, measured_secs: f64) -> Self {
        MetricsRegistry {
            trials,
            measured_secs,
            ..Default::default()
        }
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Inserts a (finalized) gauge under `name`, merging if present.
    pub fn insert_gauge(&mut self, name: &str, gauge: TimeWeightedGauge) {
        match self.gauges.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(gauge);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&gauge),
        }
    }

    /// Inserts a histogram under `name`, merging if present.
    pub fn insert_histogram(&mut self, name: &str, hist: Histogram) {
        match self.histograms.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(hist);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&hist),
        }
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&TimeWeightedGauge> {
        self.gauges.get(name)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Trials merged into this registry.
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// Merges another trial's registry: counters add, histograms merge
    /// bucketwise, gauge integrals and spans add. Exact except for float
    /// sums (see [`Histogram::mean`]).
    pub fn merge(&mut self, other: MetricsRegistry) {
        self.trials += other.trials;
        debug_assert!(
            (self.measured_secs - other.measured_secs).abs() < 1e-9,
            "merging registries with different measurement windows"
        );
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, g) in other.gauges {
            self.insert_gauge(&name, g);
        }
        for (name, h) in other.histograms {
            self.insert_histogram(&name, h);
        }
    }

    /// Exports the registry in the `sct-analysis` wire schema.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            trials: self.trials,
            measured_secs: self.measured_secs,
            counters: self
                .counters
                .iter()
                .map(|(name, &value)| CounterSnapshot {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, g)| g.snapshot(name))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| h.snapshot(name))
                .collect(),
            profile: None,
        }
    }
}

/// The telemetry probe: instruments the distributional quantities the
/// paper's evaluation cares about.
///
/// * `waitlist_wait_secs` (histogram) — queueing delay of served waiters.
/// * `admitted_direct` / `admitted_drm` / `admitted_chained` /
///   `rejected` / `completions` (counters) — the admission path mix.
/// * `migration_staging_margin_mb` (histogram) — staged megabits a DRM
///   hand-off victim carries onto its new server: the playback slack that
///   absorbs the hand-off latency.
/// * `server_utilization/<i>` (gauges) — allocated rate over capacity per
///   server; the time-weighted mean reproduces the epilogue's
///   `per_server_utilization` exactly. `cluster_utilization` is the
///   capacity-weighted whole-cluster gauge.
/// * `server_committed_share/<i>` (gauges) — minimum-flow commitment over
///   capacity (slot occupancy).
/// * `waitlist_depth`, `active_streams`, `staged_mb` (gauges) — queue
///   length, stream population, and aggregate staging-buffer occupancy.
/// * `per_server_utilization` (histogram) — one sample per server per
///   trial, for the cross-server load distribution.
pub struct TelemetryProbe {
    warmup: SimTime,
    end: SimTime,
    admitted_direct: u64,
    admitted_drm: u64,
    admitted_chained: u64,
    rejected: u64,
    completions: u64,
    waitlist_wait: Histogram,
    staging_margin: Histogram,
    /// DRM hand-offs narrated at the current instant, `(stream, to)`;
    /// resolved against the state view that follows the same event.
    pending_margins: Vec<(u64, u16)>,
    per_server_util: Vec<TimeWeightedGauge>,
    per_server_committed: Vec<TimeWeightedGauge>,
    cluster_util: TimeWeightedGauge,
    waitlist_depth: TimeWeightedGauge,
    active_streams: TimeWeightedGauge,
    staged_mb: TimeWeightedGauge,
}

impl TelemetryProbe {
    /// Creates the probe for one trial of `config`.
    pub fn new(config: &SimConfig) -> Self {
        let warmup = config.warmup;
        TelemetryProbe {
            warmup,
            end: config.duration,
            admitted_direct: 0,
            admitted_drm: 0,
            admitted_chained: 0,
            rejected: 0,
            completions: 0,
            waitlist_wait: Histogram::new(),
            staging_margin: Histogram::new(),
            pending_margins: Vec::new(),
            per_server_util: Vec::new(),
            per_server_committed: Vec::new(),
            cluster_util: TimeWeightedGauge::new(warmup),
            waitlist_depth: TimeWeightedGauge::new(warmup),
            active_streams: TimeWeightedGauge::new(warmup),
            staged_mb: TimeWeightedGauge::new(warmup),
        }
    }

    /// Finalizes every gauge at the horizon and folds the probe into a
    /// single-trial [`MetricsRegistry`].
    pub fn finish(mut self) -> MetricsRegistry {
        let end = self.end;
        let mut reg = MetricsRegistry::new(1, end - self.warmup);
        reg.add_counter("admitted_direct", self.admitted_direct);
        reg.add_counter("admitted_drm", self.admitted_drm);
        reg.add_counter("admitted_chained", self.admitted_chained);
        reg.add_counter("rejected", self.rejected);
        reg.add_counter("completions", self.completions);
        let mut per_server = Histogram::new();
        for (i, mut g) in self.per_server_util.drain(..).enumerate() {
            g.finalize(end);
            per_server.record(g.mean());
            reg.insert_gauge(&format!("server_utilization/{i}"), g);
        }
        for (i, mut g) in self.per_server_committed.drain(..).enumerate() {
            g.finalize(end);
            reg.insert_gauge(&format!("server_committed_share/{i}"), g);
        }
        for (name, mut g) in [
            ("cluster_utilization", self.cluster_util),
            ("waitlist_depth", self.waitlist_depth),
            ("active_streams", self.active_streams),
            ("staged_mb", self.staged_mb),
        ] {
            g.finalize(end);
            reg.insert_gauge(name, g);
        }
        reg.insert_histogram("waitlist_wait_secs", self.waitlist_wait);
        reg.insert_histogram("migration_staging_margin_mb", self.staging_margin);
        reg.insert_histogram("per_server_utilization", per_server);
        reg
    }
}

impl Probe for TelemetryProbe {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent) {
        match *event {
            SimEvent::Admitted { path, .. } => match path {
                AdmitPath::Direct => self.admitted_direct += 1,
                AdmitPath::Migrated { .. } => self.admitted_drm += 1,
                AdmitPath::Chained { .. } => self.admitted_chained += 1,
            },
            SimEvent::Rejected { .. } => self.rejected += 1,
            SimEvent::Completed { .. } => self.completions += 1,
            SimEvent::WaitlistServed { waited_secs, .. } => {
                self.waitlist_wait.record(waited_secs);
            }
            SimEvent::Migrated {
                stream,
                to,
                emergency: false,
                ..
            } => self.pending_margins.push((stream, to)),
            _ => {}
        }
    }

    fn on_state(&mut self, now: SimTime, view: &StateView) {
        if self.per_server_util.is_empty() {
            self.per_server_util = (0..view.n_servers())
                .map(|_| TimeWeightedGauge::new(self.warmup))
                .collect();
            self.per_server_committed = (0..view.n_servers())
                .map(|_| TimeWeightedGauge::new(self.warmup))
                .collect();
        }
        // The hand-offs this event narrated happen-before this view.
        for (stream, to) in self.pending_margins.drain(..) {
            if let Some(margin) = view.stream_staged_mb(to as usize, stream) {
                self.staging_margin.record(margin);
            }
        }
        let mut total_alloc = 0.0;
        let mut total_cap = 0.0;
        for i in 0..view.n_servers() {
            let alloc = view.allocated_mbps(i);
            let cap = view.capacity_mbps(i);
            total_alloc += alloc;
            total_cap += cap;
            self.per_server_util[i].observe(now, alloc / cap, 0.0);
            self.per_server_committed[i].observe(now, view.committed_mbps(i) / cap, 0.0);
        }
        self.cluster_util.observe(now, total_alloc / total_cap, 0.0);
        self.waitlist_depth
            .observe(now, view.waitlist_depth() as f64, 0.0);
        self.active_streams
            .observe(now, view.total_active_streams() as f64, 0.0);
        let (staged, slope) = view.staged_totals();
        self.staged_mb.observe(now, staged, slope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_keys_are_monotone_and_octave_aligned() {
        // Powers of two open fresh octaves.
        assert_eq!(bucket_key(1.0), 0);
        assert_eq!(bucket_key(2.0), 8);
        assert_eq!(bucket_key(4.0), 16);
        assert_eq!(bucket_key(0.5), -8);
        // The key function is monotone over a log-spaced sweep.
        let mut last = bucket_key(1e-12);
        let mut v = 1e-12;
        while v < 1e12 {
            v *= 1.5;
            let k = bucket_key(v);
            assert!(k >= last, "key must be monotone at {v}");
            last = k;
        }
    }

    #[test]
    fn bucket_lower_inverts_bucket_key() {
        for &v in &[1e-9, 0.37, 1.0, 1.05, 2.0, 3.0, 7.5, 1234.5, 9.9e8] {
            let key = bucket_key(v);
            let lo = bucket_lower(key);
            assert!(lo <= v, "lower bound {lo} must not exceed {v}");
            assert!(
                v < lo * SUB_CUTS[1] * 1.000_000_1,
                "{v} must sit inside one sub-octave of {lo}"
            );
            assert_eq!(bucket_key(lo), key, "lower bound lands in its bucket");
        }
    }

    #[test]
    fn histogram_quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.73).collect();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), 1000);
        for (q, idx) in [(0.5, 499), (0.9, 899), (0.99, 989)] {
            let exact = samples[idx];
            let est = h.quantile(q);
            assert!((est / exact - 1.0).abs() < 0.095, "q={q}: {est} vs {exact}");
        }
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
        assert!((h.quantile(1.0) - h.max()).abs() <= h.max() * 0.095);
    }

    #[test]
    fn histogram_handles_zero_and_negative_samples() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-2.5);
        h.record(10.0);
        assert_eq!(h.nonpositive(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -2.5);
        // Rank 1 and 2 fall in the non-positive class → its representative
        // is the minimum.
        assert_eq!(h.quantile(0.3), -2.5);
        assert_eq!(h.quantile(0.6), -2.5);
        assert!(h.quantile(0.99) > 9.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(42.17);
        // min == max == the sample clamps every representative.
        assert_eq!(h.quantile(0.5), 42.17);
        assert_eq!(h.quantile(0.99), 42.17);
    }

    #[test]
    fn empty_histogram_exports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        let snap = h.snapshot("empty");
        assert_eq!(snap.count, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn merging_empty_histograms_is_inert() {
        // empty ∪ empty stays empty (the ±∞ min/max sentinels must not
        // leak through the merge into the exported zeros).
        let mut both = Histogram::new();
        both.merge(&Histogram::new());
        assert!(both.is_empty());
        assert_eq!(both.min(), 0.0);
        assert_eq!(both.max(), 0.0);
        assert_eq!(both.quantile(0.5), 0.0);

        // non-empty ∪ empty and empty ∪ non-empty are both identity.
        let mut filled = Histogram::new();
        filled.record(3.0);
        filled.record(8.5);
        let reference = filled.clone();
        filled.merge(&Histogram::new());
        assert_eq!(filled, reference);
        let mut from_empty = Histogram::new();
        from_empty.merge(&reference);
        assert_eq!(from_empty.count(), 2);
        assert_eq!(from_empty.min(), 3.0);
        assert_eq!(from_empty.max(), 8.5);
        assert_eq!(
            from_empty.buckets().collect::<Vec<_>>(),
            reference.buckets().collect::<Vec<_>>()
        );
    }

    #[test]
    fn octave_boundaries_land_in_the_opening_bucket() {
        // A sample exactly on a bucket's lower bound belongs to that
        // bucket, not the one below (the half-open [lo, hi) contract).
        for key in [-16, -8, -1, 0, 1, 8, 16, 40] {
            let lo = bucket_lower(key);
            assert_eq!(bucket_key(lo), key, "lower bound of key {key}");
            let mut h = Histogram::new();
            h.record(lo);
            assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(key, 1)]);
        }
        // Two samples straddling a boundary occupy adjacent buckets.
        let mut h = Histogram::new();
        let boundary = bucket_lower(8); // 2.0: the octave break
        h.record(boundary);
        h.record(boundary - 1e-12);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].0 - buckets[0].0, 1);
    }

    #[test]
    fn extreme_magnitudes_stay_bucketed_and_clamped() {
        // The log-bucket key covers the full finite f64 range: no panic,
        // no overflow, and quantiles stay inside [min, max] even when the
        // geometric bucket representative would not.
        let mut h = Histogram::new();
        for v in [f64::MIN_POSITIVE, 1e-300, 1.0, 1e300, f64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), f64::MIN_POSITIVE);
        assert_eq!(h.max(), f64::MAX);
        for q in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let est = h.quantile(q);
            assert!(
                (f64::MIN_POSITIVE..=f64::MAX).contains(&est),
                "q={q} escaped [min, max]: {est}"
            );
            assert!(est.is_finite());
        }
        // The top quantile is the bucket representative: within one
        // sub-octave bucket width of the true maximum, never above it.
        let top = h.quantile(1.0);
        assert!(top <= f64::MAX && top >= f64::MAX / 2f64.powf(1.0 / 8.0));
        // Merging two extreme-valued histograms keeps every aggregate
        // finite and exact.
        let mut other = Histogram::new();
        other.record(f64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), f64::MAX);
    }

    proptest! {
        /// The tentpole's merge guarantee: merging per-trial histograms
        /// equals the histogram of the pooled samples, bucket for bucket
        /// (and in min/max/count/quantiles, which derive from them).
        #[test]
        fn merging_trial_histograms_equals_pooled_histogram(
            trials in prop::collection::vec(
                prop::collection::vec(0.0f64..1.0e6, 0..40),
                1..6,
            )
        ) {
            let mut merged = Histogram::new();
            let mut pooled = Histogram::new();
            for trial in &trials {
                let mut h = Histogram::new();
                for &v in trial {
                    h.record(v);
                    pooled.record(v);
                }
                merged.merge(&h);
            }
            prop_assert_eq!(merged.count(), pooled.count());
            prop_assert_eq!(merged.nonpositive(), pooled.nonpositive());
            prop_assert_eq!(
                merged.buckets().collect::<Vec<_>>(),
                pooled.buckets().collect::<Vec<_>>()
            );
            prop_assert_eq!(merged.min(), pooled.min());
            prop_assert_eq!(merged.max(), pooled.max());
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), pooled.quantile(q));
            }
        }

        /// Bucketing never misplaces a sample: the bucket's bounds contain it.
        #[test]
        fn every_positive_sample_lands_inside_its_bucket(v in 1.0e-300f64..1.0e300) {
            let key = bucket_key(v);
            let lo = bucket_lower(key);
            let hi = bucket_lower(key + 1);
            prop_assert!(lo <= v && v < hi, "{} not in [{}, {})", v, lo, hi);
        }
    }

    #[test]
    fn gauge_integrates_piecewise_constant_exactly() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO);
        g.observe(SimTime::from_secs(0.0), 2.0, 0.0);
        g.observe(SimTime::from_secs(10.0), 4.0, 0.0);
        g.finalize(SimTime::from_secs(30.0));
        // 2·10 + 4·20 = 100 over 30 s.
        assert_eq!(g.integral(), 100.0);
        assert!((g.mean() - 100.0 / 30.0).abs() < 1e-15);
        assert_eq!(g.min(), 2.0);
        assert_eq!(g.max(), 4.0);
    }

    #[test]
    fn gauge_integrates_slopes_and_jumps_exactly() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO);
        // Rises 0→10 over [0,10), jumps to 3, falls to 1 over [10,12].
        g.observe(SimTime::from_secs(0.0), 0.0, 1.0);
        g.observe(SimTime::from_secs(10.0), 3.0, -1.0);
        g.finalize(SimTime::from_secs(12.0));
        // ∫ = 50 + (3+1)/2·2 = 54.
        assert_eq!(g.integral(), 54.0);
        assert_eq!(g.max(), 10.0);
        assert_eq!(g.min(), 0.0);
    }

    #[test]
    fn gauge_clips_the_warmup_boundary_analytically() {
        let mut g = TimeWeightedGauge::new(SimTime::from_secs(5.0));
        // v(t) = t over [0, 10): only [5, 10) counts → ∫ t dt = 37.5.
        g.observe(SimTime::from_secs(0.0), 0.0, 1.0);
        g.observe(SimTime::from_secs(10.0), 7.0, 0.0);
        g.finalize(SimTime::from_secs(20.0));
        assert_eq!(g.integral(), 37.5 + 70.0);
        assert_eq!(g.span_secs(), 15.0);
        // The pre-warm-up peak (v→5⁻) is outside the window; min inside is 5.
        assert_eq!(g.min(), 5.0);
        assert_eq!(g.max(), 10.0);
    }

    #[test]
    fn gauge_merge_pools_time_weighted_means() {
        let mut a = TimeWeightedGauge::new(SimTime::ZERO);
        a.observe(SimTime::ZERO, 1.0, 0.0);
        a.finalize(SimTime::from_secs(10.0));
        let mut b = TimeWeightedGauge::new(SimTime::ZERO);
        b.observe(SimTime::ZERO, 4.0, 0.0);
        b.finalize(SimTime::from_secs(30.0));
        a.merge(&b);
        // (1·10 + 4·30) / 40 = 3.25.
        assert_eq!(a.mean(), 3.25);
        assert_eq!(a.span_secs(), 40.0);
    }

    #[test]
    fn registry_merge_adds_counters_and_pools_metrics() {
        let mut r1 = MetricsRegistry::new(1, 100.0);
        r1.add_counter("rejected", 3);
        let mut h1 = Histogram::new();
        h1.record(1.0);
        r1.insert_histogram("wait", h1);
        let mut g1 = TimeWeightedGauge::new(SimTime::ZERO);
        g1.observe(SimTime::ZERO, 2.0, 0.0);
        g1.finalize(SimTime::from_secs(100.0));
        r1.insert_gauge("depth", g1);

        let mut r2 = MetricsRegistry::new(1, 100.0);
        r2.add_counter("rejected", 4);
        let mut h2 = Histogram::new();
        h2.record(8.0);
        r2.insert_histogram("wait", h2);
        let mut g2 = TimeWeightedGauge::new(SimTime::ZERO);
        g2.observe(SimTime::ZERO, 4.0, 0.0);
        g2.finalize(SimTime::from_secs(100.0));
        r2.insert_gauge("depth", g2);

        r1.merge(r2);
        assert_eq!(r1.trials(), 2);
        assert_eq!(r1.counter("rejected"), 7);
        assert_eq!(r1.histogram("wait").unwrap().count(), 2);
        assert_eq!(r1.gauge("depth").unwrap().mean(), 3.0);

        let snap = r1.snapshot();
        assert_eq!(snap.trials, 2);
        assert_eq!(snap.counter("rejected"), Some(7));
        assert_eq!(snap.histogram("wait").unwrap().count, 2);
        assert_eq!(snap.gauge("depth").unwrap().mean, 3.0);
    }
}
