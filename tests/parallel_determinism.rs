//! Shard × thread invariance of concurrent runs.
//!
//! The event loop runs on one thread. The concurrency left in the
//! program is `runner::run_trials`, which runs independent trials on
//! scoped worker threads and collects them in trial order. That is
//! sound only if a simulation shares no mutable state with another one
//! running beside it: no global RNG, no static counters, no caches that
//! leak between runs. This test runs the four golden scenarios (the
//! same configs `golden_outcomes.rs` locks against pre-refactor
//! fixtures) across `shards ∈ {1, 2, 4} × threads ∈ {1, 2, 8}`. A cell
//! runs `threads` copies of the config at once on scoped threads,
//! alternately through `Simulation::run_instrumented` and
//! `run_with_probes`, and asserts every copy's [`SimOutcome`] and span
//! set bit-identical to a `shards = 1` run made alone. Each shard count
//! also runs the config as a multi-trial plan through `run_trials` and
//! checks it against the same trials run one after another.
//!
//! `shard_determinism.rs` pins the shard dimension on its own; this
//! file adds the thread dimension on top of it.

use sct_analysis::SpanSet;
use sct_core::spans::capture;
use sct_core::SpanProbe;
use semi_continuous_vod::prelude::*;
use std::thread;

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 8];

/// Trials per `run_trials` plan: more than one, so the runner spreads
/// them over worker threads on any host with two or more cores.
const TRIALS: u32 = 3;

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
/// the loop profilers on. They read the wall clock only, so the outcome
/// and span set must match a `run_with_probes` run bit for bit, and the
/// merged profile must count exactly one dispatch window per live event.
fn capture_instrumented(config: &SimConfig) -> (SimOutcome, SpanSet) {
    let mut probe = SpanProbe::new();
    let (outcome, profile, _) = Simulation::run_instrumented(config, &mut [&mut probe]);
    assert_eq!(
        profile.dispatch.calls, outcome.events_processed,
        "profile lost or double-counted dispatch windows"
    );
    assert_eq!(profile.events, outcome.events_processed);
    (outcome, probe.finish(config.duration.as_secs()))
}

/// Runs `build(shards)` over the full shard × thread matrix and asserts
/// outcomes and span sets match the plain `shards = 1` baseline, made
/// alone, bit for bit. Even-numbered copies of a cell run instrumented
/// (so the one-thread cell does) and odd-numbered ones plain, so every
/// multi-threaded cell mixes profiled and unprofiled runs. Then checks
/// `run_trials` against the same trials run sequentially.
fn assert_parallel_invariant(name: &str, build: impl Fn(usize) -> SimConfig) {
    let base_cfg = build(1);
    let (base_outcome, base_spans) = capture(&base_cfg);
    assert!(
        !base_spans.spans.is_empty(),
        "{name}: scenario produced no spans — matrix would be vacuous"
    );
    let plan = TrialPlan::new(TRIALS, base_cfg.seed);
    let sequential: Vec<SimOutcome> = (0..TRIALS)
        .map(|i| {
            let mut cfg = base_cfg.clone();
            cfg.seed = plan.seed(i);
            Simulation::run(&cfg)
        })
        .collect();
    for &shards in &SHARDS {
        let cfg = build(shards);
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
                    "{name}: SimOutcome diverged at shards = {shards}, \
                     threads = {threads} (copy {copy})"
                );
                assert_eq!(
                    spans, base_spans,
                    "{name}: span set diverged at shards = {shards}, \
                     threads = {threads} (copy {copy})"
                );
            }
        }
        assert_eq!(
            run_trials(&cfg, plan),
            sequential,
            "{name}: run_trials diverged from sequential trials at shards = {shards}"
        );
    }
}

#[test]
fn parallel_matrix_small_no_migration() {
    assert_parallel_invariant("small_no_migration", |shards| {
        SimConfig::builder(SystemSpec::small_paper())
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .sample_interval_secs(900.0)
            .track_per_video(true)
            .shards(shards)
            .seed(1001)
            .build()
    });
}

#[test]
fn parallel_matrix_small_migration_interactive() {
    assert_parallel_invariant("small_migration_interactive", |shards| {
        SimConfig::builder(SystemSpec::small_paper())
            .theta(0.0)
            .migration(MigrationPolicy::single_hop())
            .interactivity(0.3, 60.0, 600.0)
            .waitlist(120.0, 50)
            .shards(shards)
            .seed(1002)
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .build()
    });
}

#[test]
fn parallel_matrix_large_no_migration_replication() {
    assert_parallel_invariant("large_no_migration_replication", |shards| {
        SimConfig::builder(SystemSpec::large_paper())
            .theta(-0.5)
            .replication(ReplicationSpec::default_paper_scale())
            .shards(shards)
            .seed(1003)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    });
}

#[test]
fn parallel_matrix_large_migration_failures() {
    assert_parallel_invariant("large_migration_failures", |shards| {
        SimConfig::builder(SystemSpec::large_paper())
            .migration(MigrationPolicy::single_hop())
            .failures(4.0, 0.5)
            .shards(shards)
            .seed(1004)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    });
}

/// Flash crowd: heavily skewed demand under a strong diurnal swing, so
/// the recording's windows and alerts have bursts to capture.
fn flash_crowd(shards: usize) -> SimConfig {
    SimConfig::builder(SystemSpec::small_paper())
        .theta(-0.5)
        .migration(MigrationPolicy::single_hop())
        .diurnal(0.9, 2.0)
        .sample_interval_secs(600.0)
        .track_per_video(true)
        .shards(shards)
        .seed(2024)
        .duration_hours(3.0)
        .warmup_hours(0.5)
        .build()
}

/// The flight recorder is a probe, so it runs on whatever thread runs
/// the simulation, and its recording must not depend on that. For every
/// cell of the shard × thread matrix, `threads` recordings made at once
/// (profiled on even-numbered copies) must each equal the recording
/// made alone at that shard count byte for byte, and their `windows`
/// and `alerts` sections must equal the `shards = 1` baseline's.
#[test]
fn timeseries_recording_is_thread_invariant() {
    let record = |shards: usize, profiled: bool| {
        let cfg = flash_crowd(shards);
        let mut probe = TimeSeriesProbe::new(&cfg, 600.0);
        if profiled {
            Simulation::run_instrumented(&cfg, &mut [&mut probe]);
        } else {
            Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        }
        probe.finish()
    };
    let base = record(1, false);
    assert!(!base.windows.is_empty());
    for &shards in &SHARDS {
        let alone = record(shards, false).to_json();
        for &threads in &THREADS {
            let recordings = concurrently(threads, |copy| record(shards, copy % 2 == 0));
            for (copy, rec) in recordings.iter().enumerate() {
                assert_eq!(
                    rec.windows, base.windows,
                    "window series diverged at shards = {shards}, \
                     threads = {threads} (copy {copy})"
                );
                assert_eq!(
                    rec.alerts, base.alerts,
                    "alert stream diverged at shards = {shards}, \
                     threads = {threads} (copy {copy})"
                );
                assert_eq!(
                    rec.to_json(),
                    alone,
                    "recording depends on the thread at shards = {shards}, \
                     threads = {threads} (copy {copy})"
                );
            }
        }
    }
}
