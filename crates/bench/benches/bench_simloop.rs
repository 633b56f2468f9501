//! Event-loop throughput floor: events/second for every scheduler ×
//! migration setting on the small paper system, measured by the loop's
//! own [`sct_core::LoopProfiler`].
//!
//! The run records the full grid and the million-slot `huge` trial into
//! `results/BENCH_sim.json`, each cell with its repetitions, its minimum
//! and median wall time, and the engines' walks over their streams and
//! the streams visited per event (exact counts, the same every run),
//! under the git revision and the host's available parallelism it ran
//! with. CI fails if any cell stops producing events, walks a server more
//! than 1.1 times per event, or misses a throughput ratchet (see
//! .github/workflows). What a probe costs per event is gated by exact
//! counts in the test suite, and timed by sctbench. Run it with
//! `cargo bench -p sct-bench --bench bench_simloop`.

use sct_admission::MigrationPolicy;
use sct_core::config::SimConfig;
use sct_core::policies::Policy;
use sct_core::simulation::Simulation;
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

/// One cell's timing over its repetitions: the minimum wall time, which
/// `events_per_sec` uses, and the median beside it, which raises the
/// ratchets.
#[derive(Serialize)]
struct GridRow {
    scheduler: &'static str,
    migration: &'static str,
    events: u64,
    reps: usize,
    wall_secs: f64,
    median_wall_secs: f64,
    events_per_sec: f64,
    walks_per_event: f64,
    visits_per_event: f64,
}

#[derive(Serialize)]
struct HugeReport {
    simulated_hours: f64,
    theta: f64,
    seed: u64,
    concurrent_slots: usize,
    events: u64,
    reps: usize,
    wall_secs: f64,
    median_wall_secs: f64,
    events_per_sec: f64,
    walks_per_event: f64,
    visits_per_event: f64,
}

#[derive(Serialize)]
struct Report {
    /// The commit the bench ran from (`git describe --always --dirty`),
    /// or `"unknown"` where git is not available.
    git_rev: String,
    /// `std::thread::available_parallelism` on the host (`null` if it
    /// could not be read). The loop itself runs on one thread.
    available_parallelism: Option<usize>,
    scenario: ScenarioInfo,
    grid: Vec<GridRow>,
    huge: HugeReport,
    /// Monotone throughput ratchet: the highest `RATCHET_FRACTION ×
    /// min(grid events / median wall)` any committed run has observed.
    /// CI fails when a run's slowest cell drops below this floor (after
    /// its own machine-variance allowance — see the workflow), so
    /// hot-path regressions cannot land silently; the floor only ever
    /// rises. It rises from the median rep, not the fastest, so one fast
    /// moment of a shared host cannot lift it for good.
    floor_events_per_sec: f64,
    /// Ratchet for the Huge (million-slot) scenario, maintained the same
    /// way over its events / median wall. Huge trials run seconds, not
    /// milliseconds, so the CI allowance (see the workflow) absorbs the
    /// extra jitter.
    huge_floor_events_per_sec: f64,
}

const SIM_HOURS: f64 = 2.0;
/// Repetitions per grid cell and of the `huge` trial.
const GRID_REPS: usize = 7;
const HUGE_REPS: usize = 2;
const THETA: f64 = 0.271;
const SEED: u64 = 5;

/// Huge is ~10^6 concurrent slots; even a few simulated minutes drives
/// hundreds of thousands of events, and one trial already costs seconds
/// of wall time. Keep the simulated span short so the whole bench stays
/// affordable.
const HUGE_SIM_HOURS: f64 = 0.05;
const RESULT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_sim.json");

/// Fraction of the measured median used when advancing a floor: a guard
/// band so an immediate same-machine rerun still clears its own ratchet.
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

/// The commit this bench runs from, or `"unknown"` without git.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// One cell's measurement: minimum and median of its wall times as seen
/// by the loop's own profiler, and the (deterministic) live-event count
/// and engine work.
struct Cell {
    wall_secs: f64,
    median_wall_secs: f64,
    events: u64,
    walks_per_event: f64,
    visits_per_event: f64,
}

fn measure(cfg: &SimConfig, n: usize) -> Cell {
    let mut walls = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let (_, profile) = Simulation::run_instrumented(black_box(cfg), &mut []);
        walls.push(profile.wall_secs);
        last = Some(profile);
    }
    walls.sort_by(f64::total_cmp);
    let profile = last.expect("at least one repetition");
    Cell {
        wall_secs: walls[0],
        median_wall_secs: (walls[(n - 1) / 2] + walls[n / 2]) / 2.0,
        events: profile.events,
        walks_per_event: profile.walks_per_event(),
        visits_per_event: profile.visits_per_event(),
    }
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
            let cell = measure(&cfg, GRID_REPS);
            let (events, wall_secs) = (cell.events, cell.wall_secs);
            grid.push(GridRow {
                scheduler: scheduler.name(),
                migration: mig_name,
                events,
                reps: GRID_REPS,
                wall_secs,
                median_wall_secs: cell.median_wall_secs,
                events_per_sec: events as f64 / wall_secs,
                walks_per_event: cell.walks_per_event,
                visits_per_event: cell.visits_per_event,
            });
            println!(
                "simloop: {:<5} migration={:<10} {events:>8} events  {wall_secs:.4} s  \
                 ({:.0} events/s, {:.3} walks and {:.1} stream visits per event)",
                scheduler.name(),
                mig_name,
                events as f64 / wall_secs,
                cell.walks_per_event,
                cell.visits_per_event
            );
        }
    }

    // The million-slot Huge scenario. A trial costs seconds, so it runs
    // twice: `events_per_sec` reports the faster run, the ratchet the
    // mean of both (the median of two).
    let huge = measure(&huge_config(), HUGE_REPS);
    let (huge_events, huge_wall_secs) = (huge.events, huge.wall_secs);
    let huge_eps = huge_events as f64 / huge_wall_secs;
    println!(
        "simloop: huge {huge_events:>8} events  {huge_wall_secs:.4} s  \
         ({huge_eps:.0} events/s, {:.3} walks and {:.1} stream visits per event)",
        huge.walks_per_event, huge.visits_per_event
    );

    let min_median_eps = grid
        .iter()
        .map(|row| row.events as f64 / row.median_wall_secs)
        .fold(f64::INFINITY, f64::min);
    let floor_events_per_sec = prior_floor()
        .unwrap_or(0.0)
        .max(RATCHET_FRACTION * min_median_eps);
    println!(
        "simloop: grid floor {min_median_eps:.0} events/s at the median, \
         ratchet {floor_events_per_sec:.0} events/s"
    );

    let huge_median_eps = huge_events as f64 / huge.median_wall_secs;
    let huge_floor_events_per_sec = prior_huge_floor()
        .unwrap_or(0.0)
        .max(RATCHET_FRACTION * huge_median_eps);
    println!("simloop: huge ratchet {huge_floor_events_per_sec:.0} events/s");

    let report = Report {
        git_rev: git_rev(),
        available_parallelism: std::thread::available_parallelism().ok().map(usize::from),
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
            reps: HUGE_REPS,
            wall_secs: huge_wall_secs,
            median_wall_secs: huge.median_wall_secs,
            events_per_sec: huge_eps,
            walks_per_event: huge.walks_per_event,
            visits_per_event: huge.visits_per_event,
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
