//! Event-loop throughput floor: events/second for every scheduler ×
//! migration setting on the small paper system, measured by the loop's
//! own [`sct_core::LoopProfiler`], plus the `SpanProbe` attachment cost.
//!
//! The run records the full grid, the million-slot `huge` trial and the
//! probe overhead into `results/BENCH_sim.json`; CI fails if any cell
//! stops producing events, if a throughput ratchet is missed, or if
//! span collection costs more than 5 % of a bare trial (see
//! .github/workflows). Run it with
//! `cargo bench -p sct-bench --bench bench_simloop`.

use sct_admission::MigrationPolicy;
use sct_core::config::SimConfig;
use sct_core::policies::Policy;
use sct_core::simulation::Simulation;
use sct_core::{SpanProbe, TimeSeriesProbe};
use sct_transmission::SchedulerKind;
use sct_workload::SystemSpec;
use serde::{Deserialize, Serialize};
use std::hint::black_box;

#[derive(Serialize)]
struct ScenarioInfo {
    name: &'static str,
    simulated_hours: f64,
    theta: f64,
    seed: u64,
}

#[derive(Serialize)]
struct GridRow {
    scheduler: &'static str,
    migration: &'static str,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct HugeReport {
    simulated_hours: f64,
    theta: f64,
    seed: u64,
    concurrent_slots: usize,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct ProbeOverhead {
    bare_wall_secs: f64,
    spans_wall_secs: f64,
    spans: usize,
    overhead_pct: f64,
    /// Flight-recorder attachment cost, measured the same way: minimum
    /// wall over interleaved repetitions with a `TimeSeriesProbe`
    /// (900 s windows, default SLO policy) attached.
    timeseries_wall_secs: f64,
    windows: usize,
    timeseries_overhead_pct: f64,
}

#[derive(Serialize)]
struct Report {
    scenario: ScenarioInfo,
    grid: Vec<GridRow>,
    huge: HugeReport,
    probe_overhead: ProbeOverhead,
    /// Monotone throughput ratchet: the highest `RATCHET_FRACTION ×
    /// min(grid events/s)` any committed run has observed. CI fails when
    /// a run's slowest cell drops below this floor (after its own
    /// machine-variance allowance — see the workflow), so hot-path
    /// regressions cannot land silently; the floor only ever rises.
    floor_events_per_sec: f64,
    /// Ratchet for the Huge (million-slot) scenario, maintained the same
    /// way over its events/s. Huge trials run seconds, not milliseconds,
    /// so it takes the better of two runs and the CI allowance (see the
    /// workflow) absorbs the extra jitter.
    huge_floor_events_per_sec: f64,
}

const SIM_HOURS: f64 = 2.0;
const THETA: f64 = 0.271;
const SEED: u64 = 5;

/// Huge is ~10^6 concurrent slots; even a few simulated minutes drives
/// hundreds of thousands of events, and one trial already costs seconds
/// of wall time. Keep the simulated span short so the whole bench stays
/// affordable.
const HUGE_SIM_HOURS: f64 = 0.05;
const RESULT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_sim.json");

/// Fraction of the measured minimum used when advancing the floor: a
/// guard band so an immediate same-machine rerun (min-of-3 jitter) still
/// clears its own ratchet.
const RATCHET_FRACTION: f64 = 0.9;

/// The floor recorded by the previous run, if the results file exists
/// and carries one (reports written before the ratchet existed fail the
/// field lookup and bootstrap from the current run).
fn prior_floor() -> Option<f64> {
    #[derive(Deserialize)]
    struct Prior {
        floor_events_per_sec: f64,
    }
    let text = std::fs::read_to_string(RESULT_PATH).ok()?;
    let prior: Prior = serde_json::from_str(&text).ok()?;
    Some(prior.floor_events_per_sec)
}

/// Same lookup for the Huge ratchet; reports written before the Huge
/// scenario existed lack the field and bootstrap from the current run.
fn prior_huge_floor() -> Option<f64> {
    #[derive(Deserialize)]
    struct Prior {
        huge_floor_events_per_sec: f64,
    }
    let text = std::fs::read_to_string(RESULT_PATH).ok()?;
    let prior: Prior = serde_json::from_str(&text).ok()?;
    Some(prior.huge_floor_events_per_sec)
}

fn huge_config() -> SimConfig {
    SimConfig::builder(SystemSpec::huge())
        .theta(THETA)
        .duration_hours(HUGE_SIM_HOURS)
        .warmup_hours(0.0)
        .seed(SEED)
        .build()
}

fn grid_config(scheduler: SchedulerKind, migration: MigrationPolicy) -> SimConfig {
    // P4 fixes placement/staging; the sweep then overrides the two grid
    // axes, so every cell sees the identical workload.
    SimConfig::builder(SystemSpec::small_paper())
        .policy(Policy::P4)
        .theta(THETA)
        .duration_hours(SIM_HOURS)
        .warmup_hours(0.0)
        .seed(SEED)
        .scheduler(scheduler)
        .migration(migration)
        .build()
}

/// Smallest-of-`n` wall time as seen by the loop's own profiler, plus
/// the (deterministic) live-event count.
fn measure(cfg: &SimConfig, n: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..n {
        let (_, profile) = Simulation::run_instrumented(black_box(cfg), &mut []);
        best = best.min(profile.wall_secs);
        events = profile.events;
    }
    (best, events)
}

fn main() {
    let migrations = [
        ("off", MigrationPolicy::disabled()),
        ("single_hop", MigrationPolicy::single_hop()),
    ];

    let mut grid = Vec::new();
    for scheduler in SchedulerKind::ALL {
        for (mig_name, mig) in &migrations {
            let cfg = grid_config(scheduler, *mig);
            let (wall_secs, events) = measure(&cfg, 7);
            grid.push(GridRow {
                scheduler: scheduler.name(),
                migration: mig_name,
                events,
                wall_secs,
                events_per_sec: events as f64 / wall_secs,
            });
            println!(
                "simloop: {:<5} migration={:<10} {events:>8} events  {wall_secs:.4} s  \
                 ({:.0} events/s)",
                scheduler.name(),
                mig_name,
                events as f64 / wall_secs
            );
        }
    }

    // The million-slot Huge scenario. A trial costs seconds, so it takes
    // the better of two runs — enough to shed the worst host-jitter
    // outliers without doubling the bench.
    let (huge_wall_secs, huge_events) = measure(&huge_config(), 2);
    let huge_eps = huge_events as f64 / huge_wall_secs;
    println!(
        "simloop: huge {huge_events:>8} events  {huge_wall_secs:.4} s  \
         ({huge_eps:.0} events/s)"
    );

    // SpanProbe attachment cost on the busiest cell (EFTF + migration,
    // the paper's own configuration). Trials run a few milliseconds, so
    // the two sides are interleaved and each takes its minimum over many
    // repetitions — that keeps the CI gate on the probe's real cost, not
    // on scheduler jitter hitting one side.
    let cfg = grid_config(SchedulerKind::Eftf, MigrationPolicy::single_hop());
    let mut bare_wall_secs = f64::INFINITY;
    let mut spans_wall_secs = f64::INFINITY;
    let mut timeseries_wall_secs = f64::INFINITY;
    let mut n_spans = 0;
    let mut n_windows = 0;
    for _ in 0..31 {
        let (_, profile) = Simulation::run_instrumented(black_box(&cfg), &mut []);
        bare_wall_secs = bare_wall_secs.min(profile.wall_secs);
        let mut probe = SpanProbe::new();
        let (_, profile) = Simulation::run_instrumented(black_box(&cfg), &mut [&mut probe]);
        spans_wall_secs = spans_wall_secs.min(profile.wall_secs);
        n_spans = probe.finish(cfg.duration.as_secs()).spans.len();
        let mut ts_probe = TimeSeriesProbe::new(&cfg, 900.0);
        let (_, profile) = Simulation::run_instrumented(black_box(&cfg), &mut [&mut ts_probe]);
        timeseries_wall_secs = timeseries_wall_secs.min(profile.wall_secs);
        n_windows = ts_probe.finish().windows.len();
    }
    let overhead_pct = (spans_wall_secs - bare_wall_secs) / bare_wall_secs * 100.0;
    println!(
        "simloop: span probe {spans_wall_secs:.4} s vs bare {bare_wall_secs:.4} s \
         ({n_spans} spans, {overhead_pct:+.2} %)"
    );
    let timeseries_overhead_pct = (timeseries_wall_secs - bare_wall_secs) / bare_wall_secs * 100.0;
    println!(
        "simloop: time-series probe {timeseries_wall_secs:.4} s vs bare {bare_wall_secs:.4} s \
         ({n_windows} windows, {timeseries_overhead_pct:+.2} %)"
    );

    let min_eps = grid
        .iter()
        .map(|row| row.events_per_sec)
        .fold(f64::INFINITY, f64::min);
    let floor_events_per_sec = prior_floor().unwrap_or(0.0).max(RATCHET_FRACTION * min_eps);
    println!(
        "simloop: grid floor {min_eps:.0} events/s, ratchet {floor_events_per_sec:.0} events/s"
    );

    let huge_floor_events_per_sec = prior_huge_floor()
        .unwrap_or(0.0)
        .max(RATCHET_FRACTION * huge_eps);
    println!("simloop: huge ratchet {huge_floor_events_per_sec:.0} events/s");

    let report = Report {
        scenario: ScenarioInfo {
            name: "small_paper",
            simulated_hours: SIM_HOURS,
            theta: THETA,
            seed: SEED,
        },
        grid,
        huge: HugeReport {
            simulated_hours: HUGE_SIM_HOURS,
            theta: THETA,
            seed: SEED,
            concurrent_slots: {
                let spec = SystemSpec::huge();
                spec.n_servers * spec.svbr()
            },
            events: huge_events,
            wall_secs: huge_wall_secs,
            events_per_sec: huge_eps,
        },
        probe_overhead: ProbeOverhead {
            bare_wall_secs,
            spans_wall_secs,
            spans: n_spans,
            overhead_pct,
            timeseries_wall_secs,
            windows: n_windows,
            timeseries_overhead_pct,
        },
        floor_events_per_sec,
        huge_floor_events_per_sec,
    };
    std::fs::write(
        RESULT_PATH,
        serde_json::to_string_pretty(&report).expect("report serializes") + "\n",
    )
    .expect("write results/BENCH_sim.json");
}
