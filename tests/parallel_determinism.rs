//! Thread invariance of concurrent runs.
//!
//! The event loop runs on one thread. The concurrency left in the
//! program is `runner::run_points`, the trial pool: workers take
//! (point, trial) jobs from a shared counter and write each outcome into
//! that job's own slot, so results come back per point in trial order
//! whatever finished first. That is sound only if a simulation shares
//! no mutable state with another one running beside it: no global RNG,
//! no static counters, no caches that leak between runs. This test runs
//! the four golden scenarios (the same configs `golden_outcomes.rs`
//! locks against pre-refactor fixtures) at `threads ∈ {1, 2, 8}`. A cell
//! runs `threads` copies of the config at once on scoped threads,
//! alternately through `Simulation::run_instrumented` and
//! `run_with_probes`, and asserts every copy's [`SimOutcome`] and span
//! set bit-identical to a plain run made alone. The four configs also
//! run together as one multi-config `run_points` plan, whose jobs differ
//! in length (Small and Large systems), and each config's row of that
//! plan, like its `run_trials` plan, must equal the same trials run one
//! after another.

use sct_analysis::SpanSet;
use sct_core::spans::capture;
use sct_core::SpanProbe;
use semi_continuous_vod::prelude::*;
use std::sync::OnceLock;
use std::thread;

const THREADS: [usize; 3] = [1, 2, 8];

/// The trials every config runs as a plan: more than one, so the pool
/// spreads even one config's trials over its workers on any host with
/// two or more cores.
const PLAN: TrialPlan = TrialPlan {
    trials: 3,
    base_seed: 0x5EED,
};

/// The four golden configs, in the order of the matrix tests below.
fn goldens() -> [SimConfig; 4] {
    [
        SimConfig::builder(SystemSpec::small_paper())
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .seed(1001)
            .build(),
        SimConfig::builder(SystemSpec::small_paper())
            .theta(0.0)
            .migration(MigrationPolicy::single_hop())
            .interactivity(0.3, 60.0, 600.0)
            .waitlist(120.0, 50)
            .seed(1002)
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .build(),
        SimConfig::builder(SystemSpec::large_paper())
            .theta(-0.5)
            .replication(ReplicationSpec::default_paper_scale())
            .seed(1003)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build(),
        SimConfig::builder(SystemSpec::large_paper())
            .migration(MigrationPolicy::single_hop())
            .failures(4.0, 0.5)
            .seed(1004)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build(),
    ]
}

/// Every golden config's trials of [`PLAN`], run as one multi-config
/// pool. Each matrix test reads its own row; whichever test comes first
/// runs the pool, and the others wait for it.
fn pooled() -> &'static [Vec<SimOutcome>] {
    static POOLED: OnceLock<Vec<Vec<SimOutcome>>> = OnceLock::new();
    POOLED.get_or_init(|| run_points(&goldens(), PLAN))
}

/// Runs `job(copy)` for `copies` copies at once, one scoped thread
/// each, and returns the results in copy order.
fn concurrently<T: Send>(copies: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = (0..copies)
            .map(|copy| scope.spawn(move || job(copy)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation thread panicked"))
            .collect()
    })
}

/// Like [`capture`], but through `Simulation::run_instrumented`, with
/// the loop profiler on. It reads the wall clock only, so the outcome
/// and span set must match a `run_with_probes` run bit for bit, and the
/// profile must count exactly one dispatch window per event.
fn capture_instrumented(config: &SimConfig) -> (SimOutcome, SpanSet) {
    let mut probe = SpanProbe::new();
    let (outcome, profile) = Simulation::run_instrumented(config, &mut [&mut probe]);
    assert_eq!(
        profile.dispatch.calls, outcome.events_processed,
        "profile lost or double-counted dispatch windows"
    );
    assert_eq!(profile.events, outcome.events_processed);
    (outcome, probe.finish(config.duration.as_secs()))
}

/// Runs golden config `index` over the thread matrix and asserts
/// outcomes and span sets match a plain run made alone, bit for bit.
/// Even-numbered copies of a cell run instrumented (so the one-thread
/// cell does) and odd-numbered ones plain, so every multi-threaded cell
/// mixes profiled and unprofiled runs. Then checks the config's row of
/// the pooled four-config plan, and its own `run_trials` plan, against
/// the same trials run sequentially.
fn assert_parallel_invariant(name: &str, index: usize) {
    let cfg = goldens()[index].clone();
    let (base_outcome, base_spans) = capture(&cfg);
    assert!(
        !base_spans.spans.is_empty(),
        "{name}: scenario produced no spans — matrix would be vacuous"
    );
    for &threads in &THREADS {
        let copies = concurrently(threads, |copy| {
            if copy % 2 == 0 {
                capture_instrumented(&cfg)
            } else {
                capture(&cfg)
            }
        });
        for (copy, (outcome, spans)) in copies.into_iter().enumerate() {
            assert_eq!(
                outcome, base_outcome,
                "{name}: SimOutcome diverged at threads = {threads} (copy {copy})"
            );
            assert_eq!(
                spans, base_spans,
                "{name}: span set diverged at threads = {threads} (copy {copy})"
            );
        }
    }
    let sequential: Vec<SimOutcome> = (0..PLAN.trials)
        .map(|i| {
            let mut trial = cfg.clone();
            trial.seed = PLAN.seed(i);
            Simulation::run(&trial)
        })
        .collect();
    assert_eq!(
        pooled()[index],
        sequential,
        "{name}: the pooled multi-config plan diverged from sequential trials"
    );
    assert_eq!(
        run_trials(&cfg, PLAN),
        sequential,
        "{name}: run_trials diverged from sequential trials"
    );
}

#[test]
fn parallel_matrix_small_no_migration() {
    assert_parallel_invariant("small_no_migration", 0);
}

#[test]
fn parallel_matrix_small_migration_interactive() {
    assert_parallel_invariant("small_migration_interactive", 1);
}

#[test]
fn parallel_matrix_large_no_migration_replication() {
    assert_parallel_invariant("large_no_migration_replication", 2);
}

#[test]
fn parallel_matrix_large_migration_failures() {
    assert_parallel_invariant("large_migration_failures", 3);
}

/// Flash crowd: heavily skewed demand under a strong diurnal swing, so
/// the recording's windows and alerts have bursts to capture.
fn flash_crowd() -> SimConfig {
    SimConfig::builder(SystemSpec::small_paper())
        .theta(-0.5)
        .migration(MigrationPolicy::single_hop())
        .diurnal(0.9, 2.0)
        .seed(2024)
        .duration_hours(3.0)
        .warmup_hours(0.5)
        .build()
}

/// The flight recorder is a probe, so it runs on whatever thread runs
/// the simulation, and its recording must not depend on that. For every
/// thread count, `threads` recordings made at once (profiled on
/// even-numbered copies) must each equal the recording made alone byte
/// for byte.
#[test]
fn timeseries_recording_is_thread_invariant() {
    let cfg = flash_crowd();
    let record = |profiled: bool| {
        let mut probe = TimeSeriesProbe::new(&cfg, 600.0);
        if profiled {
            Simulation::run_instrumented(&cfg, &mut [&mut probe]);
        } else {
            Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        }
        probe.finish()
    };
    let base = record(false);
    assert!(!base.windows.is_empty());
    let alone = base.to_json();
    for &threads in &THREADS {
        let recordings = concurrently(threads, |copy| record(copy % 2 == 0));
        for (copy, rec) in recordings.iter().enumerate() {
            assert_eq!(
                rec.to_json(),
                alone,
                "recording depends on the thread at threads = {threads} (copy {copy})"
            );
        }
    }
}
