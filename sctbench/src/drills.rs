//! Per-layer drills: each calls one layer's public API with a workload's
//! own parameters, times every operation from outside, and checks the
//! layer's invariants after the timed region.
//!
//! Operations that take well under a microsecond (queue holds, request
//! generation) are timed in batches of [`BATCH`] so the clock read does
//! not dominate; each sample is then the per-operation mean of one batch.

use crate::report::LayerValue;
use crate::spans::SpanLog;
use crate::stats::{percentile, Spread};
use crate::ENGINE_SIZES;
use sct_admission::{Admission, AssignmentPolicy, Controller};
use sct_cluster::ServerId;
use sct_core::SimConfig;
use sct_media::{ClientProfile, VideoId};
use sct_simcore::{EventQueue, Exponential, Rng, SimTime, UniformRange, ZipfLike};
use sct_transmission::{SchedulerKind, ServerEngine, Stream, StreamId};
use sct_workload::{calibrated_rate, RequestGenerator, SystemSpec};
use std::hint::black_box;
use std::time::Instant;

/// Operations per timed batch for sub-microsecond operations.
pub const BATCH: usize = 16;

/// Offered load of the admission drill, as a multiple of the calibrated
/// 100 % load: overload keeps every server full, so every workload
/// exercises all three admission paths (at 100 % the `dense` cluster
/// never rejects, and its DRM path would go unmeasured).
pub const ADMISSION_OVERLOAD: f64 = 2.0;

/// Collects a drill's metrics and its op-batch spans.
pub struct Drill<'a> {
    /// Metrics in report order.
    pub values: Vec<LayerValue>,
    log: &'a mut SpanLog,
    parent: u32,
    scale: f64,
}

impl<'a> Drill<'a> {
    /// A drill whose spans hang below `parent`; `scale` (≤ 1) shrinks
    /// every sample count for smoke tests.
    pub fn new(log: &'a mut SpanLog, parent: u32, scale: f64) -> Self {
        Drill {
            values: Vec::new(),
            log,
            parent,
            scale,
        }
    }

    fn count(&self, full: usize) -> usize {
        ((full as f64 * self.scale).ceil() as usize).max(1)
    }

    fn value(&mut self, name: String, unit: &str, value: f64, n: usize) {
        self.values.push(LayerValue {
            name,
            unit: unit.to_string(),
            value,
            n,
        });
    }

    fn timing(&mut self, prefix: &str, samples: &mut [f64]) {
        push_timing(&mut self.values, prefix, samples);
    }

    /// Runs every drill against the workload's parameters: `cfg` supplies
    /// the system, skew, placement, migration policy and seed.
    pub fn run_all(&mut self, cfg: &SimConfig) {
        self.transmission(cfg.seed);
        self.simcore_queue(cfg.seed);
        self.workload_generator(cfg);
        self.admission(cfg);
        self.cluster_and_media(cfg);
    }

    /// `transmission`: one `ServerEngine` per streams-per-server size in
    /// a closed wake loop, plus the other allocators at S = 100.
    pub fn transmission(&mut self, seed: u64) {
        let layer_start = Instant::now();
        let layer = self.log.reserve();
        let mut wake_p50 = Vec::new();
        let iterations = self.count(1500);
        for s in ENGINE_SIZES {
            let system = system_for_streams(s);
            let t0 = Instant::now();
            let warm = self.count(s);
            let mut times =
                engine_wake_loop(s, SchedulerKind::Eftf, &system, seed, warm, iterations);
            self.log
                .record(format!("s{s} eftf"), Some(layer), t0, Instant::now());
            for (op, samples) in [
                ("advance", &mut times.advance),
                ("reap", &mut times.reap),
                ("admit", &mut times.admit),
                ("reschedule", &mut times.reschedule),
            ] {
                self.timing(&format!("transmission.s{s}.{op}_ns"), samples);
            }
            let n = times.wake.len();
            if let Some(v) = percentile(&mut times.wake, 0.5) {
                self.value(format!("transmission.s{s}.wake_ns.p50"), "ns", v, n);
                wake_p50.push((s, v));
            }
        }
        for kind in [
            SchedulerKind::LatestFinishFirst,
            SchedulerKind::ProportionalShare,
            SchedulerKind::NoWorkahead,
        ] {
            let t0 = Instant::now();
            let system = system_for_streams(100);
            let warm = self.count(100);
            let mut times = engine_wake_loop(100, kind, &system, seed, warm, iterations);
            self.log.record(
                format!("s100 {}", kind.name()),
                Some(layer),
                t0,
                Instant::now(),
            );
            let n = times.wake.len();
            if let Some(v) = percentile(&mut times.wake, 0.5) {
                let name = format!("transmission.s100.{}.wake_ns.p50", kind.name());
                self.value(name, "ns", v, n);
            }
        }
        let at = |s| wake_p50.iter().find(|(k, _)| *k == s).map(|&(_, v)| v);
        if let (Some(hi), Some(lo)) = (at(4000), at(33)) {
            self.value(
                "transmission.wake_growth_4000_vs_33".into(),
                "ratio",
                hi / lo,
                2,
            );
        }
        self.log.push(
            layer,
            "transmission",
            Some(self.parent),
            layer_start,
            Instant::now(),
        );
    }

    /// `simcore`: the classic hold model (pop the earliest event, push
    /// one a random increment later) at fixed pending depths.
    pub fn simcore_queue(&mut self, seed: u64) {
        let layer_start = Instant::now();
        let layer = self.log.reserve();
        for depth in crate::QUEUE_DEPTHS {
            let t0 = Instant::now();
            let mut rng = Rng::new(seed).fork(depth as u64);
            let inc = Exponential::new(1.0);
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..depth {
                q.push(SimTime::ZERO + inc.sample(&mut rng), i as u32);
            }
            let hold = |q: &mut EventQueue<u32>, rng: &mut Rng| {
                let e = q.pop().expect("hold model keeps the queue non-empty");
                q.push(e.time + inc.sample(rng), e.payload);
            };
            for _ in 0..10 * depth {
                hold(&mut q, &mut rng);
            }
            let batches = self.count(4000);
            let mut samples = Vec::with_capacity(batches);
            for _ in 0..batches {
                let t = Instant::now();
                for _ in 0..BATCH {
                    hold(&mut q, &mut rng);
                }
                samples.push(per_op_ns(t, BATCH));
            }
            assert_eq!(q.len(), depth, "hold model changed the queue depth");
            self.log
                .record(format!("d{depth} hold"), Some(layer), t0, Instant::now());
            self.timing(&format!("simcore.queue.d{depth}.hold_ns"), &mut samples);
        }
        self.log.push(
            layer,
            "simcore",
            Some(self.parent),
            layer_start,
            Instant::now(),
        );
    }

    /// `workload`: `RequestGenerator::next_request` at the workload's
    /// calibrated rate and popularity.
    pub fn workload_generator(&mut self, cfg: &SimConfig) {
        let t0 = Instant::now();
        let root = Rng::new(cfg.seed);
        let catalog = cfg.system.catalog(&mut root.fork(1));
        let popularity = ZipfLike::new(catalog.len(), cfg.theta);
        let rate = calibrated_rate(
            cfg.system.total_bandwidth_mbps(),
            &catalog,
            popularity.probs(),
        );
        let mut gen = RequestGenerator::new(rate, &popularity, &root);
        let batches = self.count(4000);
        let mut samples = Vec::with_capacity(batches);
        let mut last = SimTime::ZERO;
        for _ in 0..batches {
            let t = Instant::now();
            for _ in 0..BATCH {
                last = black_box(gen.next_request()).at;
            }
            samples.push(per_op_ns(t, BATCH));
        }
        assert_eq!(gen.produced(), (batches * BATCH) as u64);
        assert!(last > SimTime::ZERO, "arrival times must advance");
        let layer = self
            .log
            .record("workload", Some(self.parent), t0, Instant::now());
        self.log
            .record("next_request", Some(layer), t0, Instant::now());
        self.timing("workload.next_request_ns", &mut samples);
    }

    /// `admission`: replays generated requests through
    /// `Controller::admit` on the workload's cluster and placement at
    /// [`ADMISSION_OVERLOAD`]; engines are advanced and reaped between
    /// calls outside the timed region. Sampling starts at the first
    /// rejection (the cluster is full from then on).
    pub fn admission(&mut self, cfg: &SimConfig) {
        let t0 = Instant::now();
        let root = Rng::new(cfg.seed);
        let catalog = cfg.system.catalog(&mut root.fork(1));
        let cluster = cfg.system.cluster();
        let popularity = ZipfLike::new(catalog.len(), cfg.theta);
        let map = cfg
            .placement
            .place(&catalog, &cluster, popularity.probs(), &mut root.fork(2));
        let rate = ADMISSION_OVERLOAD
            * calibrated_rate(cluster.total_bandwidth_mbps(), &catalog, popularity.probs());
        let mut gen = RequestGenerator::new(rate, &popularity, &root);
        let mut engines: Vec<ServerEngine> = cluster
            .ids()
            .map(|id| ServerEngine::new(id, cluster.server(id).bandwidth_mbps, cfg.scheduler))
            .collect();
        let mut controller = Controller::new(AssignmentPolicy::LeastLoaded, cfg.migration);
        let mut rng = root.fork(4);
        let client = cfg.client_profile(catalog.avg_size_mb());
        let view_rate = cfg.system.view_rate_mbps;

        let target = self.count(1000);
        let cap = self.count(400_000);
        let (mut direct, mut migrated, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
        let mut sampling = false;
        for i in 0..cap {
            if direct.len() >= target && migrated.len() >= target && rejected.len() >= target {
                break;
            }
            let req = gen.next_request();
            let now = req.at;
            for e in engines.iter_mut() {
                while let Some(w) = e.last_wake().filter(|&w| w <= now) {
                    e.advance_to(w);
                    e.reap_finished(w);
                    e.reschedule(w);
                }
            }
            let size = catalog.video(req.video).size_mb();
            let stream = Stream::new(StreamId(i as u64), req.video, size, view_rate, client, now);
            let t = Instant::now();
            let (decision, _) = controller.admit(stream, &mut engines, &map, now, &mut rng);
            let ns = t.elapsed().as_nanos() as f64;
            sampling |= decision == Admission::Rejected;
            if sampling {
                match decision {
                    Admission::Direct { .. } => direct.push(ns),
                    Admission::Rejected => rejected.push(ns),
                    _ => migrated.push(ns),
                }
            }
        }
        for e in &engines {
            e.check_invariants();
        }
        controller.stats.check();
        let layer = self
            .log
            .record("admission", Some(self.parent), t0, Instant::now());
        self.log
            .record("admit replay", Some(layer), t0, Instant::now());
        let reached_drm = migrated.len() + rejected.len();
        let migration_yield = migrated.len() as f64 / reached_drm.max(1) as f64;
        self.timing("admission.admit_ns.direct", &mut direct);
        self.timing("admission.admit_ns.migrated", &mut migrated);
        self.timing("admission.admit_ns.rejected", &mut rejected);
        self.value(
            "admission.migration_yield".into(),
            "ratio",
            migration_yield,
            reached_drm,
        );
    }

    /// `cluster` and `media`: replica placement and catalog generation
    /// for the workload's system, repeated and reported as medians.
    pub fn cluster_and_media(&mut self, cfg: &SimConfig) {
        let reps = self.count(31);
        let root = Rng::new(cfg.seed);
        let cluster = cfg.system.cluster();
        let catalog = cfg.system.catalog(&mut root.fork(1));
        let popularity = ZipfLike::new(catalog.len(), cfg.theta);

        let t0 = Instant::now();
        let mut place = Vec::with_capacity(reps);
        for r in 0..reps {
            let mut rng = root.fork(100 + r as u64);
            let t = Instant::now();
            let map = cfg
                .placement
                .place(&catalog, &cluster, popularity.probs(), &mut rng);
            place.push(t.elapsed().as_secs_f64() * 1e3);
            map.validate(&catalog, &cluster);
        }
        self.log
            .record("cluster", Some(self.parent), t0, Instant::now());

        let t0 = Instant::now();
        let mut catalogs = Vec::with_capacity(reps);
        for r in 0..reps {
            let mut rng = root.fork(200 + r as u64);
            let t = Instant::now();
            let c = cfg.system.catalog(&mut rng);
            catalogs.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(c.len(), cfg.system.n_videos);
        }
        self.log
            .record("media", Some(self.parent), t0, Instant::now());
        self.value(
            "cluster.place_ms".into(),
            "ms",
            Spread::of(&place).median,
            reps,
        );
        self.value(
            "media.catalog_ms".into(),
            "ms",
            Spread::of(&catalogs).median,
            reps,
        );
    }
}

/// Pushes `{prefix}.p50` and `{prefix}.p99` of `samples` (ns), each only
/// when the percentile rule allows it.
pub fn push_timing(values: &mut Vec<LayerValue>, prefix: &str, samples: &mut [f64]) {
    let n = samples.len();
    for (p, tag) in [(0.5, "p50"), (0.99, "p99")] {
        if let Some(v) = percentile(samples, p) {
            values.push(LayerValue {
                name: format!("{prefix}.{tag}"),
                unit: "ns".to_string(),
                value: v,
                n,
            });
        }
    }
}

fn per_op_ns(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// The system whose layout has `s` streams per server: Small (33),
/// Large (100), `dense` (1000) or `huge` (4000). The engine drill takes
/// its video lengths and client limits from it.
pub fn system_for_streams(s: usize) -> SystemSpec {
    match s {
        33 => SystemSpec::small_paper(),
        100 => SystemSpec::large_paper(),
        1000 => crate::workloads::dense_system(),
        _ => SystemSpec::huge(),
    }
}

/// Host-time samples (ns) of one engine's closed wake loop.
#[derive(Default)]
pub struct EngineTimes {
    /// `advance_to(wake)` per iteration.
    pub advance: Vec<f64>,
    /// `reap_finished` per iteration.
    pub reap: Vec<f64>,
    /// `admit` per replacement stream.
    pub admit: Vec<f64>,
    /// `reschedule` per iteration.
    pub reschedule: Vec<f64>,
    /// The whole iteration.
    pub wake: Vec<f64>,
}

/// Runs one `ServerEngine` holding `s` streams in a closed loop —
/// `reschedule` → `advance_to(wake)` → `reap_finished` → admit one
/// replacement per finished stream — and times each step. The server has
/// 10 % spare capacity beyond the streams' view rates, so the allocator
/// has workahead to distribute. `warm_completions` untimed completions
/// (one generation, `s`, in the benchmark) mix stream ages first; then
/// `iterations` wakes are timed.
pub fn engine_wake_loop(
    s: usize,
    kind: SchedulerKind,
    system: &SystemSpec,
    seed: u64,
    warm_completions: usize,
    iterations: usize,
) -> EngineTimes {
    let view = system.view_rate_mbps;
    let mut rng = Rng::new(seed).fork(s as u64);
    let lengths = UniformRange::new(system.video_length_secs.0, system.video_length_secs.1);
    let staging = 0.2 * lengths.mean() * view;
    let client = ClientProfile::new(staging, system.client_receive_cap_mbps);
    let mut engine = ServerEngine::new(ServerId(0), s as f64 * view / 0.9, kind);
    let mut next_id = 0u64;
    let mut new_stream = |rng: &mut Rng, now: SimTime| {
        next_id += 1;
        let size = lengths.sample(rng) * view;
        Stream::new(StreamId(next_id), VideoId(0), size, view, client, now)
    };
    let mut now = SimTime::ZERO;
    for _ in 0..s {
        let stream = new_stream(&mut rng, now);
        engine.admit(stream, now);
    }
    let mut times = EngineTimes::default();
    let mut completed = 0usize;
    let mut timed = 0usize;
    while timed < iterations {
        let warm = completed >= warm_completions;
        let t0 = Instant::now();
        let wake = engine.reschedule(now);
        let t1 = Instant::now();
        let wake = wake.expect("a loaded engine always has a next event");
        engine.advance_to(wake);
        let t2 = Instant::now();
        let done = engine.reap_finished(wake);
        let t3 = Instant::now();
        now = wake;
        for _ in &done {
            let stream = new_stream(&mut rng, now);
            let ta = Instant::now();
            engine.admit(black_box(stream), now);
            if warm {
                times.admit.push(ta.elapsed().as_nanos() as f64);
            }
        }
        completed += done.len();
        if warm {
            let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
            times.reschedule.push(ns(t0, t1));
            times.advance.push(ns(t1, t2));
            times.reap.push(ns(t2, t3));
            times.wake.push(t0.elapsed().as_nanos() as f64);
            timed += 1;
        }
    }
    engine.check_invariants();
    assert_eq!(
        engine.active_count(),
        s,
        "the closed loop must hold S streams"
    );
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_loop_holds_its_stream_count_and_times_every_op() {
        let t = engine_wake_loop(
            33,
            SchedulerKind::Eftf,
            &SystemSpec::small_paper(),
            5,
            33,
            50,
        );
        assert_eq!(t.wake.len(), 50);
        assert_eq!(t.advance.len(), 50);
        assert!(t.wake.iter().all(|&w| w > 0.0));
    }
}
