//! The four workloads, their passes, and the checks on their outputs.
//!
//! A *pass* is one complete execution of a workload's input: every trial
//! of the grid, or one `figures` process per experiment of `figures all`.
//! A run repeats passes until its measuring time is spent (at least
//! [`MIN_PASSES`]), and each end-to-end metric's value is the median of
//! its per-pass values. Every trial and `figures` process is bracketed by
//! runs of the calibration kernel, and its times are scaled to reference
//! seconds ([`crate::calib`]). Checks run after a pass's clock has stopped.

use crate::calib::{Calibrator, NOMINAL_S};
use crate::drills::{push_timing, Drill};
use crate::probe::{Gaps, RequestProbe};
use crate::report::{LayerValue, MetricValue, WorkloadReport};
use crate::spans::SpanLog;
use crate::stats::Spread;
use crate::END_TO_END;
use sct_admission::MigrationPolicy;
use sct_analysis::Series;
use sct_core::experiments::ExpOptions;
use sct_core::policies::Policy;
use sct_core::runner::derive_seed;
use sct_core::{Probe, SimConfig, SimOutcome, Simulation, SpanProbe, TimeSeriesProbe};
use sct_media::{client::PAPER_RECEIVE_CAP_MBPS, video::PAPER_VIEW_RATE_MBPS};
use sct_transmission::SchedulerKind;
use sct_workload::SystemSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Zipf θ of every workload (the literature's usual skew).
pub const THETA: f64 = 0.271;
/// Seed used when none is given, and the seed the reference values hold
/// for.
pub const REFERENCE_SEED: u64 = 5;
/// Fewest passes per run: outputs are compared across passes, and a
/// median needs three.
pub const MIN_PASSES: usize = 3;
/// Set-up repetitions per `figures_serial` pass.
const FIGURES_SETUP_REPS: usize = 5;
/// Simulated hours per `figures_serial` trial: an eighth of
/// `ExpOptions::quick()`'s 8, so one `figures` pass takes about 2 s and a
/// run's median rests on about ten passes.
const FIGURES_TRIAL_HOURS: f64 = 1.0;
/// Window of the `TimeSeriesProbe` attached in `observed_large`.
const TIMESERIES_WINDOW_SECS: f64 = 900.0;
/// Absolute tolerance of utilization, acceptance and series means against
/// the reference: admits the few float-tie flips a re-association of the
/// engine arithmetic may cause, and fails a bug that drops streams.
pub const REFERENCE_TOLERANCE: f64 = 1e-4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Small grid: every allocator × DRM {off, single hop}.
    PaperSmall,
    /// 1000 streams per server at steady state: engine-bound.
    Dense,
    /// The Large system with failures, pauses, a waitlist, and span and
    /// time-series probes exported: controller- and probe-bound.
    ObservedLarge,
    /// The `figures` binary regenerating every artifact at quick fidelity,
    /// one trial per point, one process per experiment.
    FiguresSerial,
}

impl Workload {
    /// All workloads, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSmall,
        Workload::Dense,
        Workload::ObservedLarge,
        Workload::FiguresSerial,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSmall => "paper_small",
            Workload::Dense => "dense",
            Workload::ObservedLarge => "observed_large",
            Workload::FiguresSerial => "figures_serial",
        }
    }

    /// Why the workload is in the benchmark (one line, as in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSmall => {
                "the paper's Small grid, all four allocators x DRM on/off; 33 streams/server, so loop, queue and controller overhead dominate"
            }
            Workload::Dense => {
                "1000 streams/server at steady state: the engine's per-stream passes dominate, while the controller's DRM path sits idle"
            }
            Workload::ObservedLarge => {
                "Large system with failures, pauses, waitlist and span/time-series probes exported: controller and probe paths work hard"
            }
            Workload::FiguresSerial => {
                "every experiment of `figures all --quick --trials 1 --hours 1`, one child process each: one trial per point (the runner's one-thread path), saved and rendered"
            }
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated trials of one pass. For `figures_serial` these are
    /// its set-up trials (one P4 trial per paper system at the options
    /// `figures` runs with); its experiments run in the `figures` process.
    /// Trial `i` runs on `derive_seed(seed, i)`: each trial draws its own
    /// catalog and placement, so a pass averages over several instead of
    /// carrying one seed's luck. Trials take 0.03–0.3 s, so the calibration
    /// kernel around each follows the host's speed while it runs, and a
    /// pass takes 1–3 s. `scale` (≤ 1) shrinks every simulated duration for
    /// smoke tests.
    pub fn trials(self, seed: u64, scale: f64) -> Vec<SimConfig> {
        let base = |system: SystemSpec, warmup_h: f64, measured_h: f64| {
            SimConfig::builder(system)
                .policy(Policy::P4)
                .theta(THETA)
                .warmup_hours(warmup_h * scale)
                .duration_hours((warmup_h + measured_h) * scale)
        };
        let builders: Vec<_> = match self {
            // Four rounds of the eight cells, so each cell sees four
            // catalogs: with two rounds of 50 h, the catalogs a seed drew
            // moved a run's value by 3–4 % from seed to seed, against 1 %
            // on one seed.
            Workload::PaperSmall => (0..4)
                .flat_map(|_| SchedulerKind::ALL)
                .flat_map(|kind| {
                    [MigrationPolicy::disabled(), Policy::P4.migration()].map(|drm| {
                        base(SystemSpec::small_paper(), 2.0, 25.0)
                            .scheduler(kind)
                            .migration(drm)
                    })
                })
                .collect(),
            Workload::Dense => (0..16).map(|_| base(dense_system(), 0.15, 0.1)).collect(),
            Workload::ObservedLarge => (0..16)
                .map(|_| {
                    base(SystemSpec::large_paper(), 4.0, 3.125)
                        .failures(48.0, 0.5)
                        .interactivity(0.3, 60.0, 300.0)
                        .waitlist(300.0, 10_000)
                })
                .collect(),
            Workload::FiguresSerial => [SystemSpec::small_paper(), SystemSpec::large_paper()]
                .map(|system| {
                    SimConfig::builder(system)
                        .policy(Policy::P4)
                        .theta(THETA)
                        .warmup_hours(ExpOptions::quick().warmup_hours)
                        .duration_hours(figures_hours(scale))
                })
                .into(),
        };
        builders
            .into_iter()
            .enumerate()
            .map(|(i, b)| b.seed(derive_seed(seed, i as u32)).build())
            .collect()
    }

    /// The trial whose parameters the drills use: the paper's own
    /// configuration where the grid has several (EFTF with DRM).
    pub fn representative(self, seed: u64, scale: f64) -> SimConfig {
        let index = match self {
            Workload::PaperSmall => 1,
            _ => 0,
        };
        self.trials(seed, scale).swap_remove(index)
    }

    fn exports(self) -> bool {
        self == Workload::ObservedLarge
    }

    /// How many times as much, in log terms, the workload's units slow
    /// down as the calibration kernel when the host slows (see
    /// [`crate::calib`]). Measured on the reference host by regressing
    /// run values on the run's host speed over twenty runs and a slow-phase
    /// run: `observed_large` leaned by 0.16–0.17 beyond the kernel (it read
    /// 6.5 % slow at 0.57 of the quiet speed), the others by 0.07 or less.
    fn elasticity(self) -> f64 {
        match self {
            Workload::ObservedLarge => 1.17,
            _ => 1.0,
        }
    }
}

/// The `dense` system: 4 servers × 3 Gb/s (1000 view slots each) and 200
/// videos of 5–10 minutes, 2.2 copies each. Per-event cost follows the
/// streams per server; four servers keep the whole stream state within a
/// core's 2 MB L2, so the cache other tenants share does not set the pace.
pub fn dense_system() -> SystemSpec {
    SystemSpec {
        name: "dense".into(),
        n_servers: 4,
        server_bandwidth_mbps: 3000.0,
        server_disk_gb: 100.0,
        n_videos: 200,
        video_length_secs: (300.0, 600.0),
        view_rate_mbps: PAPER_VIEW_RATE_MBPS,
        client_receive_cap_mbps: PAPER_RECEIVE_CAP_MBPS,
        avg_copies: 2.2,
    }
}

/// Simulated hours per trial of `figures_serial` (its `--hours`). The
/// warm-up stays quick's half hour, which `figures` has no flag for, so a
/// smoke-test scale must keep this above it.
pub fn figures_hours(scale: f64) -> f64 {
    FIGURES_TRIAL_HOURS * scale
}

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// Host seconds of untraced passes to measure.
    pub seconds: f64,
    /// Add traced passes and the per-layer drills.
    pub traced: bool,
    /// Simulated-duration and drill-size factor (1 = the benchmark).
    pub scale: f64,
    /// Directory for `figures_serial`'s output (removed after).
    pub scratch: PathBuf,
    /// The `figures` executable `figures_serial` runs.
    pub figures: PathBuf,
}

/// The per-trial values the reference pins on the reference seed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrialSummary {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Measured utilization.
    pub utilization: f64,
    /// Acceptance ratio.
    pub acceptance: f64,
}

/// One checked output of a pass: a trial or a saved artifact.
#[derive(Clone, Debug)]
struct Item {
    label: String,
    /// Hash of the serialized output, which must repeat exactly across
    /// passes, or why the item failed.
    fingerprint: Result<u64, String>,
    summary: Option<TrialSummary>,
    means: Option<Vec<f64>>,
}

impl Item {
    fn failed(label: impl Into<String>, why: String) -> Item {
        Item {
            label: label.into(),
            fingerprint: Err(why),
            summary: None,
            means: None,
        }
    }
}

fn hash_of<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = DefaultHasher::new();
    for t in texts {
        h.write(t.as_bytes());
        h.write_u8(0);
    }
    h.finish()
}

/// `a / b`, or 0 when nothing was measured (a failed pass).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one pass measured. Times are reference seconds
/// ([`crate::calib`]).
#[derive(Debug, Default)]
struct Pass {
    /// Seconds of the pass's work: every trial from set-up through export,
    /// or the `figures` process.
    wall_s: f64,
    /// Seconds of set-up, summed over the pass's trials.
    setup_s: f64,
    /// Seconds after the warm-up, summed over the pass's trials.
    measured_s: f64,
    /// Arrival resolutions after the warm-up.
    requests: u64,
    /// Loop events after the warm-up.
    events: u64,
    /// `figures_serial`: each experiment and the seconds of its `figures`
    /// process.
    experiments: Vec<(String, f64)>,
    /// Peak resident set of the pass, MB: the median over its trials of
    /// this process's peak during the trial, or on `figures_serial` the
    /// largest of its `figures` processes.
    peak_rss_mb: Option<f64>,
    /// Each `wall_s` trial's peak resident set, MB.
    trial_peaks_mb: Vec<f64>,
    gaps: Gaps,
    items: Vec<Item>,
    /// Host seconds of every calibration-kernel run of the pass.
    kernels: Vec<f64>,
}

impl Pass {
    /// The pass's value of end-to-end metric `name`.
    fn metric(&self, w: Workload, name: &str) -> f64 {
        match name {
            // The user's unit of work in `figures_serial` is one
            // regenerated experiment.
            "requests_per_s" if w == Workload::FiguresSerial => {
                ratio(self.experiments.len() as f64, self.wall_s)
            }
            "requests_per_s" => ratio(self.requests as f64, self.measured_s),
            "wall_s" => self.wall_s,
            "setup_s" => self.setup_s,
            other => unreachable!("no per-pass value of {other}"),
        }
    }
}

/// A finished trial, before its checks.
struct TrialRun {
    outcome: SimOutcome,
    probe: RequestProbe,
    exports: Vec<String>,
    start: Instant,
    end: Instant,
    export_end: Instant,
    /// Reference seconds per host second around the trial.
    scale: f64,
    /// This process's peak resident set from the trial's start through its
    /// export, MB.
    peak_rss_mb: Option<f64>,
}

impl TrialRun {
    /// Reference seconds from the call into the simulator to the first
    /// probe callback.
    fn setup_s(&self) -> f64 {
        let first = self.probe.first_callback.unwrap_or(self.end);
        (first - self.start).as_secs_f64() * self.scale
    }

    /// Adds the trial's times and counts to `pass`; `in_wall` says whether
    /// it is part of the pass's `wall_s`.
    fn add_to(&self, pass: &mut Pass, in_wall: bool) {
        if in_wall {
            pass.wall_s += (self.export_end - self.start).as_secs_f64() * self.scale;
            pass.setup_s += self.setup_s();
            pass.trial_peaks_mb.extend(self.peak_rss_mb);
        }
        let warm = self.probe.warm_at.unwrap_or(self.end);
        pass.measured_s += (self.end - warm).as_secs_f64() * self.scale;
        pass.requests += self.probe.measured_requests;
        pass.events += self.probe.measured_events;
    }

    /// Runs the checks and reduces the trial to its item.
    fn into_item(mut self, label: String, traced_gaps: &mut Gaps) -> Item {
        traced_gaps.extend(self.probe.take_gaps());
        let summary = TrialSummary {
            arrivals: self.outcome.stats.arrivals,
            utilization: self.outcome.utilization,
            acceptance: self.outcome.acceptance_ratio(),
        };
        let fingerprint = check_trial(&self.outcome, &self.probe).map(|()| {
            let outcome = serde_json::to_string(&self.outcome).expect("outcomes serialize");
            hash_of(
                std::iter::once(outcome.as_str()).chain(self.exports.iter().map(String::as_str)),
            )
        });
        Item {
            label,
            fingerprint,
            summary: Some(summary),
            means: None,
        }
    }
}

/// The correctness checks of one trial.
fn check_trial(outcome: &SimOutcome, probe: &RequestProbe) -> Result<(), String> {
    if probe.requests != outcome.stats.arrivals {
        return Err(format!(
            "{} Admitted + Rejected events but {} arrivals",
            probe.requests, outcome.stats.arrivals
        ));
    }
    catch_unwind(|| outcome.stats.check()).map_err(|_| "admission counters do not add up")?;
    let u = outcome.utilization;
    if !(0.0..=1.0 + 1e-9).contains(&u) {
        return Err(format!("utilization {u} outside [0, 1]"));
    }
    if probe.warm_at.is_none() {
        return Err("no event after the warm-up".into());
    }
    Ok(())
}

/// Runs one trial with the benchmark's probe (and, when `export`, the
/// span and time-series probes, finished and serialized in memory as
/// `sctsim run --spans --timeseries` does), then the calibration kernel
/// that closes its bracket.
fn run_trial(
    cfg: &SimConfig,
    export: bool,
    traced: bool,
    cal: &mut Calibrator,
) -> Result<TrialRun, String> {
    let mut probe = RequestProbe::new(cfg.warmup, traced);
    let mut span_probe = export.then(SpanProbe::new);
    let mut ts_probe = export.then(|| TimeSeriesProbe::new(cfg, TIMESERIES_WINDOW_SECS));
    reset_peak_rss();
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let outcome = {
            let mut hub: Vec<&mut dyn Probe> = vec![&mut probe];
            if let Some(p) = span_probe.as_mut() {
                hub.push(p);
            }
            if let Some(p) = ts_probe.as_mut() {
                hub.push(p);
            }
            Simulation::run_with_probes(cfg, &mut hub)
        };
        let end = Instant::now();
        let mut exports = Vec::new();
        if let Some(p) = span_probe {
            exports.push(p.finish(cfg.duration.as_secs()).to_json());
        }
        if let Some(p) = ts_probe {
            exports.push(p.finish().to_json());
        }
        (outcome, end, exports)
    }));
    let export_end = Instant::now();
    let peak_rss_mb = peak_rss_mb();
    let scale = cal.factor();
    let (outcome, end, exports) = run.map_err(|_| "the trial or its export panicked")?;
    Ok(TrialRun {
        outcome,
        probe,
        exports,
        start,
        end,
        export_end,
        scale,
        peak_rss_mb,
    })
}

/// Records a trial's set-up, warm-up, measured and export spans.
fn trial_spans(log: &mut SpanLog, parent: u32, label: &str, run: &TrialRun) {
    let trial = log.record(label, Some(parent), run.start, run.export_end);
    let first = run.probe.first_callback.unwrap_or(run.end);
    let warm = run.probe.warm_at.unwrap_or(run.end);
    log.record("setup", Some(trial), run.start, first);
    log.record("warm-up", Some(trial), first, warm);
    log.record("measured", Some(trial), warm, run.end);
    log.record("export", Some(trial), run.end, run.export_end);
}

/// One finished `figures` process.
struct FiguresRun {
    start: Instant,
    end: Instant,
    /// Peak resident set, MB, as last read while the process ran.
    peak_rss_mb: f64,
    /// Its stderr.
    stderr: String,
}

/// Runs `figures EXPERIMENT --quick --trials 1 --hours H --out DIR/out`
/// with stdout going to `stdout` and stderr to a file in `dir`, and polls
/// the child's peak resident set while it runs.
///
/// One trial per point keeps `run_trials` on its one-thread path. With two
/// trials it runs them on `available_parallelism` threads, and on a small
/// host shared with other tenants the parallel speed-up is set by the
/// neighbours: that way each experiment's time varied 30–60 % from pass
/// to pass (inter-quartile range over median).
fn run_figures(
    exe: &Path,
    experiment: &str,
    hours: f64,
    dir: &Path,
    stdout: &std::fs::File,
) -> Result<FiguresRun, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let stderr_path = dir.join("stderr.txt");
    let stderr = std::fs::File::create(&stderr_path).map_err(io)?;
    let stdout = stdout.try_clone().map_err(io)?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args([experiment, "--quick", "--trials", "1"])
        .args(["--hours", &hours.to_string(), "--out"])
        .arg(dir.join("out"))
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let status_file = format!("/proc/{}/status", child.id());
    // Only stops the watcher; the peak comes back through `join`.
    let done = AtomicBool::new(false);
    let (status, peak_rss_mb) = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut peak: f64 = 0.0;
            while !done.load(Ordering::Relaxed) {
                if let Some(mb) = vm_hwm_mb(&status_file) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let status = child.wait();
        done.store(true, Ordering::Relaxed);
        (status, watcher.join().expect("the watcher does not panic"))
    });
    let end = Instant::now();
    let status = status.map_err(|e| format!("waiting for figures: {e}"))?;
    let stderr = std::fs::read_to_string(&stderr_path).map_err(io)?;
    if !status.success() {
        let last = stderr.lines().last().unwrap_or_default();
        return Err(format!("figures {experiment} exited with {status}: {last}"));
    }
    Ok(FiguresRun {
        start,
        end,
        peak_rss_mb,
        stderr,
    })
}

/// The experiments `figures all` runs, in its order, read from the
/// `[NAME done in …]` lines of one `figures all` process run in `dir`.
/// It runs before any pass, untimed, and also loads the binary.
fn figures_experiments(exe: &Path, hours: f64, dir: &Path) -> Result<Vec<String>, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let stdout = std::fs::File::create(dir.join("stdout.txt")).map_err(io)?;
    let run = run_figures(exe, "all", hours, dir, &stdout);
    let _ = std::fs::remove_dir_all(dir);
    let names: Vec<String> = run?
        .stderr
        .lines()
        .filter_map(experiment_name)
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        return Err("figures all reported no experiment".into());
    }
    Ok(names)
}

/// The experiment of `figures`' `[NAME done in DURATION]` stderr line.
fn experiment_name(line: &str) -> Option<&str> {
    let (name, _) = line.strip_prefix('[')?.split_once(" done in ")?;
    Some(name)
}

/// One item per file stem in `dir` (a series' `.md`, `.json` and `.svg`,
/// or a table's `.md`), with the series' point means when there is JSON.
fn artifact_items(dir: &Path) -> std::io::Result<Vec<Item>> {
    let mut by_stem: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let ext = path
            .extension()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let text = std::fs::read_to_string(&path)?;
        by_stem
            .entry(stem.to_string())
            .or_default()
            .push((ext.to_string(), text));
    }
    let items = by_stem.into_iter().map(|(stem, mut files)| {
        files.sort();
        let json = files.iter().find(|(ext, _)| ext == "json");
        let means = json.map(|(_, text)| Series::from_json(text).map(|s| series_means(&s)));
        let fingerprint = match &means {
            Some(Err(e)) => Err(format!("unreadable series: {e}")),
            Some(Ok(m)) if !m.iter().all(|x| x.is_finite()) => {
                Err("non-finite series mean".to_string())
            }
            _ => Ok(hash_of(
                files
                    .iter()
                    .flat_map(|(ext, text)| [ext.as_str(), text.as_str()]),
            )),
        };
        Item {
            label: stem,
            fingerprint,
            summary: None,
            means: means.and_then(Result::ok),
        }
    });
    Ok(items.collect())
}

fn series_means(s: &Series) -> Vec<f64> {
    s.curves.iter().flat_map(|c| c.means()).collect()
}

/// Peak resident set (`VmHWM`) in the `/proc/.../status` file named, MB.
fn vm_hwm_mb(status_file: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_file).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    vm_hwm_mb("/proc/self/status")
}

/// Resets this process's `VmHWM` to its current resident set, so that
/// [`peak_rss_mb`] reads the peak from now on. Where `/proc` refuses the
/// reset, the peak keeps counting from the process's start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Shared inputs of one workload run.
struct Ctx<'a> {
    workload: Workload,
    opts: &'a RunOptions,
    configs: Vec<SimConfig>,
    /// `figures_serial`: the experiments of `figures all`, in its order.
    experiments: Result<Vec<String>, String>,
}

impl<'a> Ctx<'a> {
    fn new(workload: Workload, opts: &'a RunOptions) -> Self {
        let experiments = if workload == Workload::FiguresSerial {
            let dir = opts.scratch.join("experiments");
            figures_experiments(&opts.figures, figures_hours(opts.scale), &dir)
        } else {
            Ok(Vec::new())
        };
        Ctx {
            workload,
            opts,
            configs: workload.trials(opts.seed, opts.scale),
            experiments,
        }
    }

    fn scaled(&self, full: usize) -> usize {
        ((full as f64 * self.opts.scale).ceil() as usize).max(1)
    }

    /// One pass; `index` numbers passes within the run.
    fn run_pass(&self, traced: bool, index: usize, log: &mut SpanLog, parent: u32) -> Pass {
        let pass_span = log.reserve();
        let pass_start = Instant::now();
        let mut pass = Pass::default();
        let mut cal = Calibrator::new(self.workload.elasticity());
        if self.workload == Workload::FiguresSerial {
            self.figures_pass(&mut pass, traced, index, log, pass_span, &mut cal);
        } else {
            for (i, cfg) in self.configs.iter().enumerate() {
                let run = run_trial(cfg, self.workload.exports(), traced, &mut cal);
                self.absorb_trial(&mut pass, run, format!("trial {i}"), true, log, pass_span);
            }
            // The median trial: the largest of sixteen catalogs drawn from
            // the seed moved the pass's peak by 5–7 % from seed to seed.
            pass.peak_rss_mb =
                (!pass.trial_peaks_mb.is_empty()).then(|| Spread::of(&pass.trial_peaks_mb).median);
        }
        pass.kernels = cal.kernels;
        let kind = if traced { "traced pass" } else { "pass" };
        log.push(
            pass_span,
            format!("{kind} {index}"),
            Some(parent),
            pass_start,
            Instant::now(),
        );
        pass
    }

    /// Folds a finished trial into the pass: times, spans, checks. Called
    /// as soon as the trial ends, so its outcome and exports are reduced to
    /// a hash before the next trial starts: the process then holds one
    /// trial's data at a time, as a user's run of one trial does.
    fn absorb_trial(
        &self,
        pass: &mut Pass,
        run: Result<TrialRun, String>,
        label: String,
        in_wall: bool,
        log: &mut SpanLog,
        span: u32,
    ) {
        let item = match run {
            Ok(run) => {
                run.add_to(pass, in_wall);
                trial_spans(log, span, &label, &run);
                run.into_item(label, &mut pass.gaps)
            }
            Err(e) => Item::failed(label, e),
        };
        pass.items.push(item);
    }

    /// `figures_serial`: repeated set-up trials (outside `wall_s`; the
    /// pass's `setup_s` is their median repetition), then one `figures`
    /// process per experiment, each writing into the pass's fresh
    /// directory and bracketed by calibration-kernel runs.
    fn figures_pass(
        &self,
        pass: &mut Pass,
        traced: bool,
        index: usize,
        log: &mut SpanLog,
        span: u32,
        cal: &mut Calibrator,
    ) {
        let mut setups = Vec::with_capacity(FIGURES_SETUP_REPS);
        for rep in 0..FIGURES_SETUP_REPS {
            let mut setup_s = 0.0;
            for (i, cfg) in self.configs.iter().enumerate() {
                let run = run_trial(cfg, false, traced, cal);
                setup_s += run.as_ref().map_or(0.0, TrialRun::setup_s);
                self.absorb_trial(
                    pass,
                    run,
                    format!("setup rep {rep} trial {i}"),
                    false,
                    log,
                    span,
                );
            }
            setups.push(setup_s);
        }
        pass.setup_s = Spread::of(&setups).median;

        let dir = self.opts.scratch.join(format!("pass-{index}"));
        if let Err(e) = self.figures_processes(pass, &dir, log, span, cal) {
            pass.items.push(Item::failed("figures", e));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `figures` processes of one `figures_serial` pass, and the checks
    /// of what they printed and saved.
    fn figures_processes(
        &self,
        pass: &mut Pass,
        dir: &Path,
        log: &mut SpanLog,
        span: u32,
        cal: &mut Calibrator,
    ) -> Result<(), String> {
        let experiments = self.experiments.as_ref().map_err(Clone::clone)?;
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io)?;
        let stdout_path = dir.join("stdout.txt");
        let stdout = std::fs::File::create(&stdout_path).map_err(io)?;
        let hours = figures_hours(self.opts.scale);
        let mut peak_rss_mb: f64 = 0.0;
        for name in experiments {
            let run = run_figures(&self.opts.figures, name, hours, dir, &stdout);
            let scale = cal.factor();
            let run = run?;
            let secs = (run.end - run.start).as_secs_f64() * scale;
            pass.wall_s += secs;
            pass.experiments.push((name.clone(), secs));
            peak_rss_mb = peak_rss_mb.max(run.peak_rss_mb);
            log.record(name.as_str(), Some(span), run.start, run.end);
        }
        pass.peak_rss_mb = Some(peak_rss_mb);
        let stdout = std::fs::read_to_string(&stdout_path).map_err(io)?;
        pass.items.push(Item {
            label: "stdout".into(),
            fingerprint: Ok(hash_of([stdout.as_str()])),
            summary: None,
            means: None,
        });
        pass.items
            .extend(artifact_items(&dir.join("out")).map_err(io)?);
        Ok(())
    }
}

/// Runs workload `w`: untraced passes for `opts.seconds`, then (when
/// traced) traced passes and the per-layer drills; checks every output.
pub fn run_workload(w: Workload, opts: &RunOptions) -> WorkloadReport {
    let mut errors = Vec::new();
    let ctx = Ctx::new(w, opts);
    let mut log = SpanLog::new(opts.traced);
    let root = log.reserve();
    let run_start = Instant::now();

    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || run_start.elapsed().as_secs_f64() < opts.seconds {
        passes.push(ctx.run_pass(false, passes.len(), &mut log, root));
    }
    // The first pass's peak: the allocator's heap keeps growing a little
    // with every pass after it, and the pass count follows the host's speed.
    let peak_rss = passes[0].peak_rss_mb;

    let mut traced = Vec::new();
    let mut per_layer = Vec::new();
    let mut extras = Vec::new();
    if opts.traced {
        let traced_start = Instant::now();
        while traced.is_empty() || traced_start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
            traced.push(ctx.run_pass(true, traced.len(), &mut log, root));
        }
        match catch_unwind(AssertUnwindSafe(|| {
            layer_metrics(&ctx, &passes, &mut traced, &mut log, root)
        })) {
            Ok((values, more)) => {
                per_layer = values;
                extras = more;
            }
            Err(_) => errors.push("a per-layer drill panicked".to_string()),
        }
    }
    log.push(
        root,
        format!("workload {}", w.name()),
        None,
        run_start,
        Instant::now(),
    );
    let _ = std::fs::remove_dir_all(&opts.scratch);

    let all: Vec<&Pass> = passes.iter().chain(&traced).collect();
    let reference = (opts.seed == REFERENCE_SEED && opts.scale == 1.0)
        .then(|| Reference::bundled().workload(w).cloned())
        .flatten();
    let (attempted, failed, check_errors) = check_passes(w, &all, reference.as_ref());
    errors.extend(check_errors);

    let mut end_to_end = Vec::new();
    for def in END_TO_END {
        let spread = if def.name == "peak_rss_mb" {
            let Some(rss) = peak_rss else {
                errors.push("cannot read VmHWM from /proc".into());
                continue;
            };
            Spread::of(&[rss])
        } else {
            let values: Vec<f64> = passes.iter().map(|p| p.metric(w, def.name)).collect();
            Spread::of(&values)
        };
        end_to_end.push(MetricValue {
            name: def.name.to_string(),
            unit: def.unit.to_string(),
            spread,
        });
    }

    let speeds: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.kernels)
        .map(|k| NOMINAL_S / k)
        .collect();
    WorkloadReport {
        workload: w.name().to_string(),
        seed: opts.seed,
        passes: passes.len(),
        attempted,
        failed,
        errors,
        host_speed: Spread::of(&speeds),
        end_to_end,
        per_layer,
        extras,
        spans: log.spans,
    }
}

/// Per-layer metrics of a traced run, in [`crate::per_layer`] order, plus
/// workload-specific extras.
fn layer_metrics(
    ctx: &Ctx,
    passes: &[Pass],
    traced: &mut [Pass],
    log: &mut SpanLog,
    root: u32,
) -> (Vec<LayerValue>, Vec<LayerValue>) {
    let rep = ctx.workload.representative(ctx.opts.seed, ctx.opts.scale);
    let drills_start = Instant::now();
    let drills = log.reserve();
    let mut values = {
        let mut d = Drill::new(log, drills, ctx.opts.scale);
        d.run_all(&rep);
        d.values
    };
    log.push(drills, "drills", Some(root), drills_start, Instant::now());

    let value = |name: &str, unit: &str, value: f64, n: usize| LayerValue {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        n,
    };
    let measured_s: f64 = passes.iter().map(|p| p.measured_s).sum();
    let events: u64 = passes.iter().map(|p| p.events).sum();
    let requests: u64 = passes.iter().map(|p| p.requests).sum();
    values.push(value(
        "core.events_per_s",
        "1/s",
        ratio(events as f64, measured_s),
        passes.len(),
    ));
    values.push(value(
        "core.events_per_request",
        "count",
        ratio(events as f64, requests as f64),
        requests as usize,
    ));
    let mut gaps = Gaps::default();
    for p in traced.iter_mut() {
        gaps.extend(std::mem::take(&mut p.gaps));
    }
    push_timing(&mut values, "core.gap_ns.arrival", &mut gaps.arrival);
    push_timing(&mut values, "core.gap_ns.completed", &mut gaps.completed);
    push_timing(&mut values, "core.gap_ns.other", &mut gaps.other);

    let t0 = Instant::now();
    let probes = probe_costs(&rep, ctx.scaled(2));
    log.record("probe overhead", Some(root), t0, Instant::now());
    values.push(value(
        "core.probe_overhead_pct",
        "%",
        probes.overhead_pct,
        probes.reps,
    ));
    let median_wall = |ps: &[Pass]| Spread::of(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let (untraced_wall, traced_wall) = (median_wall(passes).median, median_wall(traced).median);
    values.push(value(
        "core.trace_overhead_pct",
        "%",
        ratio(traced_wall - untraced_wall, untraced_wall) * 100.0,
        traced.len(),
    ));
    values.push(value(
        "analysis.spans_perfetto_s",
        "s",
        probes.perfetto_s,
        1,
    ));
    values.push(value(
        "analysis.spans_perfetto_mb",
        "MB",
        probes.perfetto_mb,
        1,
    ));
    values.push(value(
        "analysis.timeseries_json_s",
        "s",
        probes.timeseries_json_s,
        1,
    ));

    let order = crate::per_layer();
    values.sort_by_key(|v| order.iter().position(|d| d.name == v.name));

    // Per-experiment times of `figures_serial`, median over passes.
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (name, secs) in passes.iter().flat_map(|p| &p.experiments) {
        times.entry(name).or_default().push(*secs);
    }
    let extras = times
        .into_iter()
        .map(|(name, secs)| {
            let name = format!("core.experiments.{name}_s");
            value(&name, "s", Spread::of(&secs).median, secs.len())
        })
        .collect();
    (values, extras)
}

/// Span/time-series probe cost on one trial and the cost of their
/// exports.
struct ProbeCosts {
    reps: usize,
    overhead_pct: f64,
    perfetto_s: f64,
    perfetto_mb: f64,
    timeseries_json_s: f64,
}

/// Runs `cfg` bare and with `SpanProbe` + `TimeSeriesProbe` attached,
/// interleaved `reps` times each; the overhead compares the fastest run
/// of each side. The last probed run's span set and recording are then
/// exported to Perfetto and JSON.
fn probe_costs(cfg: &SimConfig, reps: usize) -> ProbeCosts {
    let mut bare = f64::INFINITY;
    let mut probed = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let plain = Simulation::run_with_probes(cfg, &mut []);
        bare = bare.min(t.elapsed().as_secs_f64());
        let mut spans = SpanProbe::new();
        let mut ts = TimeSeriesProbe::new(cfg, TIMESERIES_WINDOW_SECS);
        let t = Instant::now();
        let observed = {
            let mut hub: [&mut dyn Probe; 2] = [&mut spans, &mut ts];
            Simulation::run_with_probes(cfg, &mut hub)
        };
        probed = probed.min(t.elapsed().as_secs_f64());
        assert_eq!(plain, observed, "probes perturbed the outcome");
        last = Some((spans, ts));
    }
    let (spans, ts) = last.expect("at least one repetition");
    let set = spans.finish(cfg.duration.as_secs());
    let t = Instant::now();
    let perfetto = set.to_perfetto();
    let perfetto_s = t.elapsed().as_secs_f64();
    let recording = ts.finish();
    let t = Instant::now();
    let json = recording.to_json();
    let timeseries_json_s = t.elapsed().as_secs_f64();
    assert!(!json.is_empty());
    ProbeCosts {
        reps,
        overhead_pct: (probed - bare) / bare * 100.0,
        perfetto_s,
        perfetto_mb: perfetto.len() as f64 / (1024.0 * 1024.0),
        timeseries_json_s,
    }
}

/// Counts attempted and failed items over every pass: failed items,
/// items whose output differs from the first pass, and (on the reference
/// seed) first-pass items that miss their reference values.
fn check_passes(
    w: Workload,
    passes: &[&Pass],
    reference: Option<&RefWorkload>,
) -> (u64, u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    let first = passes.first().map_or(&[][..], |p| &p.items[..]);
    for (p, pass) in passes.iter().enumerate() {
        if pass.items.len() != first.len() {
            failed += 1;
            errors.push(format!(
                "pass {p}: {} outputs, pass 0 had {}",
                pass.items.len(),
                first.len()
            ));
        }
        for (i, item) in pass.items.iter().enumerate() {
            attempted += 1;
            let base = first.get(i).map(|f| (&f.label, &f.fingerprint));
            let problem = match (&item.fingerprint, base) {
                (Err(e), _) => Some(e.clone()),
                (Ok(fp), Some((label, Ok(base))))
                    if p > 0 && (fp != base || *label != item.label) =>
                {
                    Some("output differs from pass 0".to_string())
                }
                _ => None,
            };
            if let Some(problem) = problem {
                failed += 1;
                errors.push(format!("pass {p}, {}: {problem}", item.label));
            }
        }
    }
    if let (Some(reference), Some(first)) = (reference, passes.first()) {
        for problem in reference.check(&reference_of(w, first)) {
            failed += 1;
            errors.push(format!("reference: {problem}"));
        }
    }
    (attempted, failed, errors)
}

/// Reference values on [`REFERENCE_SEED`], bundled from
/// `reference/seed5.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Reference {
    /// The seed the values hold for.
    pub seed: u64,
    /// One entry per workload.
    pub workloads: Vec<RefWorkload>,
}

/// A workload's reference values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RefWorkload {
    /// Workload name.
    pub workload: String,
    /// Per-trial values, in pass order.
    pub trials: Vec<RefTrial>,
    /// Per-series point means, by file stem.
    pub series: Vec<RefSeries>,
}

/// One trial's reference values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RefTrial {
    /// Item label ("trial 3").
    pub label: String,
    /// The values.
    pub summary: TrialSummary,
}

/// One saved series' reference point means (curve by curve).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RefSeries {
    /// File stem.
    pub label: String,
    /// Point means.
    pub means: Vec<f64>,
}

impl Reference {
    /// The reference values compiled into the binary.
    pub fn bundled() -> Reference {
        serde_json::from_str(include_str!("../reference/seed5.json"))
            .expect("bundled reference parses")
    }

    /// The entry for workload `w`.
    pub fn workload(&self, w: Workload) -> Option<&RefWorkload> {
        self.workloads.iter().find(|r| r.workload == w.name())
    }
}

impl RefWorkload {
    /// Compares `observed` values with these: arrivals exactly (the
    /// generator is upstream of every decision), utilization, acceptance
    /// and series means within [`REFERENCE_TOLERANCE`]. Returns one line
    /// per mismatch.
    pub fn check(&self, observed: &RefWorkload) -> Vec<String> {
        let near = |a: f64, b: f64| (a - b).abs() <= REFERENCE_TOLERANCE;
        let mut problems = Vec::new();
        for r in &self.trials {
            match observed.trials.iter().find(|o| o.label == r.label) {
                None => problems.push(format!("{} missing", r.label)),
                Some(o) => {
                    let (got, want) = (o.summary, r.summary);
                    if got.arrivals != want.arrivals
                        || !near(got.utilization, want.utilization)
                        || !near(got.acceptance, want.acceptance)
                    {
                        problems.push(format!("{}: got {got:?}, want {want:?}", r.label));
                    }
                }
            }
        }
        for r in &self.series {
            match observed.series.iter().find(|o| o.label == r.label) {
                None => problems.push(format!("{} missing", r.label)),
                Some(o) => {
                    let moved = o.means.len() != r.means.len()
                        || o.means.iter().zip(&r.means).any(|(a, b)| !near(*a, *b));
                    if moved {
                        problems.push(format!("{}: series means moved", r.label));
                    }
                }
            }
        }
        problems
    }
}

/// Runs one untraced pass of `w` with `opts` and records the values a
/// reference pins (`sctbench reference` writes those of the reference
/// seed at full scale to `reference/seed5.json`).
pub fn reference_values(w: Workload, opts: &RunOptions) -> RefWorkload {
    let ctx = Ctx::new(w, opts);
    let pass = ctx.run_pass(false, 0, &mut SpanLog::new(false), 0);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    reference_of(w, &pass)
}

fn reference_of(w: Workload, pass: &Pass) -> RefWorkload {
    RefWorkload {
        workload: w.name().to_string(),
        trials: pass
            .items
            .iter()
            .filter_map(|i| {
                i.summary.map(|summary| RefTrial {
                    label: i.label.clone(),
                    summary,
                })
            })
            .collect(),
        series: pass
            .items
            .iter()
            .filter_map(|i| {
                i.means.clone().map(|means| RefSeries {
                    label: i.label.clone(),
                    means,
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("huge"), None);
    }

    #[test]
    fn paper_small_is_the_allocator_by_drm_grid_four_times_on_distinct_seeds() {
        let trials = Workload::PaperSmall.trials(5, 1.0);
        assert_eq!(trials.len(), 32);
        for (a, b) in trials[..8].iter().cycle().zip(&trials[8..]) {
            assert_eq!((a.scheduler, a.migration), (b.scheduler, b.migration));
        }
        let mut seeds: Vec<u64> = trials.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 32);
        let rep = Workload::PaperSmall.representative(5, 1.0);
        assert_eq!(rep.scheduler, SchedulerKind::Eftf);
        assert!(rep.migration.enabled);
        assert_eq!(dense_system().svbr(), 1000);
    }

    #[test]
    fn experiment_names_parse_from_figures_stderr() {
        assert_eq!(experiment_name("[fig3 done in 95.8µs]"), Some("fig3"));
        assert_eq!(experiment_name("[het done in 1.2s]"), Some("het"));
        assert_eq!(experiment_name("skipping unknown experiment: x"), None);
    }
}
