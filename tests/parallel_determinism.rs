//! Shard × thread invariance matrix.
//!
//! PR "parallel shard execution" claim: dispatching epoch bursts on a
//! worker-thread pool changes *nothing observable*. The epoch protocol
//! (`sct_simcore::parallel`) elects every shard below the plane's head,
//! runs their bursts concurrently against private queues, and merges
//! the logs in global `(time, seq)` order — so the RNG draw sequence,
//! the event stream, and every outcome float are bit-identical for any
//! shard count *and* any thread count. This test runs the four golden
//! scenarios (the same configs `golden_outcomes.rs` locks against
//! pre-refactor fixtures) plus a flash-crowd scenario across
//! `shards ∈ {1, 2, 4} × threads ∈ {1, 2, 8}`, asserting identical
//! [`SimOutcome`]s and span sets against the single-threaded
//! `shards = 1` baseline, and identical time-series `windows`/`alerts`
//! sections for the recording probe.
//!
//! Two of the golden scenarios (interactivity/waitlist, failures) are
//! *ineligible* for the parallel path and must silently fall back to
//! the classic loop at every thread count; they are in the matrix
//! precisely to pin that fallback. Combined with `golden_outcomes.rs`
//! (which pins `shards = 1` to pre-refactor snapshots), this
//! transitively pins every shard × thread combination to the
//! pre-sharding loop.

use sct_core::spans::capture;
use sct_core::{ExecRecorder, SpanProbe};
use semi_continuous_vod::prelude::*;

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 8];

/// Like [`capture`], but through `Simulation::run_instrumented` — loop
/// profilers enabled and the execution-plane recorder attached —
/// returning the recorder's trace alongside the outcome and span set.
/// Profiler and recorder are wall-clock-only, so the outcome and spans
/// must match a `run_with_probes` run bit for bit — the matrix below
/// compares every instrumented cell against an uninstrumented baseline,
/// which pins shard/thread invariance *and* instrumentation invisibility
/// in one pass.
fn capture_with_exec(
    config: &SimConfig,
) -> (
    SimOutcome,
    sct_analysis::SpanSet,
    sct_analysis::exec::ExecTrace,
) {
    let mut probe = SpanProbe::new();
    let mut rec = ExecRecorder::new();
    let (outcome, profile, _, stats) =
        Simulation::run_instrumented(config, &mut [&mut probe], Some(&mut rec));
    let trace = rec.finish(config, &profile);
    // The profile still counts one dispatch window per live event, on
    // every path (monolithic, classic sharded, parallel epochs).
    assert_eq!(
        profile.dispatch.calls, outcome.events_processed,
        "profile lost or double-counted dispatch windows"
    );
    assert_eq!(profile.events, outcome.events_processed);
    // The trace must reconcile with the loop's own accounting on every
    // cell: one record per epoch, every event attributed exactly once.
    assert_eq!(trace.epochs_run(), stats.epochs_run);
    assert_eq!(trace.runs.len() as u64, stats.classic_runs);
    assert_eq!(
        trace.total_events(),
        outcome.events_processed,
        "exec trace lost or double-counted events"
    );
    (outcome, probe.finish(config.duration.as_secs()), trace)
}

/// Runs `build(shards, threads)` over the full matrix and asserts
/// outcomes and span sets match the single-threaded `shards = 1`
/// baseline bit-for-bit. The baseline runs through `run_with_probes`
/// (profilers disabled, no recorder); every cell, `(1, 1)` included,
/// runs through `run_instrumented` with the execution-plane recorder
/// attached, so a single pass pins shard invariance, thread invariance,
/// and profiler/recorder invisibility against each other.
fn assert_parallel_invariant(name: &str, build: impl Fn(usize, usize) -> SimConfig) {
    let (base_outcome, base_spans) = capture(&build(1, 1));
    assert!(
        !base_spans.spans.is_empty(),
        "{name}: scenario produced no spans — matrix would be vacuous"
    );
    for &shards in &SHARDS {
        for &threads in &THREADS {
            let (outcome, spans, _trace) = capture_with_exec(&build(shards, threads));
            assert_eq!(
                outcome, base_outcome,
                "{name}: SimOutcome diverged at shards = {shards}, threads = {threads}"
            );
            assert_eq!(
                spans, base_spans,
                "{name}: span set diverged at shards = {shards}, threads = {threads}"
            );
        }
    }
    // And the recorder-off cell at the far corner agrees too, closing
    // the recorder-on/off loop at a parallel cell (not just at (1,1)).
    let (off_outcome, off_spans) = capture(&build(4, 8));
    assert_eq!(
        off_outcome, base_outcome,
        "{name}: recorder-off (4,8) diverged"
    );
    assert_eq!(
        off_spans, base_spans,
        "{name}: recorder-off (4,8) spans diverged"
    );
}

#[test]
fn parallel_matrix_small_no_migration() {
    assert_parallel_invariant("small_no_migration", |shards, threads| {
        SimConfig::builder(SystemSpec::small_paper())
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .sample_interval_secs(900.0)
            .track_per_video(true)
            .shards(shards)
            .threads(threads)
            .offload_min_events(0)
            .seed(1001)
            .build()
    });
}

#[test]
fn parallel_matrix_small_migration_interactive() {
    // Interactivity + waitlist make this config ineligible for epochs:
    // every cell must take the classic fallback and still agree.
    assert_parallel_invariant("small_migration_interactive", |shards, threads| {
        SimConfig::builder(SystemSpec::small_paper())
            .theta(0.0)
            .migration(MigrationPolicy::single_hop())
            .interactivity(0.3, 60.0, 600.0)
            .waitlist(120.0, 50)
            .shards(shards)
            .threads(threads)
            .seed(1002)
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .build()
    });
}

#[test]
fn parallel_matrix_large_no_migration_replication() {
    // Dynamic replication is likewise ineligible: classic fallback.
    assert_parallel_invariant("large_no_migration_replication", |shards, threads| {
        SimConfig::builder(SystemSpec::large_paper())
            .theta(-0.5)
            .replication(ReplicationSpec::default_paper_scale())
            .shards(shards)
            .threads(threads)
            .seed(1003)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    });
}

#[test]
fn parallel_matrix_large_migration_failures() {
    // Failures route ServerDown/Up onto worker shards: ineligible,
    // classic fallback at every thread count.
    assert_parallel_invariant("large_migration_failures", |shards, threads| {
        SimConfig::builder(SystemSpec::large_paper())
            .migration(MigrationPolicy::single_hop())
            .failures(4.0, 0.5)
            .shards(shards)
            .threads(threads)
            .seed(1004)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    });
}

/// Flash crowd: heavily skewed demand under a strong diurnal swing, so
/// arrival bursts pile wakes onto the popular videos' holders — the
/// scenario where epoch bursts have the most simultaneous work and a
/// reordering bug would surface first. Eligible for the parallel path;
/// `offload_min_events(0)` forces real thread dispatch for every epoch.
fn flash_crowd(shards: usize, threads: usize) -> SimConfig {
    SimConfig::builder(SystemSpec::small_paper())
        .theta(-0.5)
        .migration(MigrationPolicy::single_hop())
        .diurnal(0.9, 2.0)
        .sample_interval_secs(600.0)
        .track_per_video(true)
        .shards(shards)
        .threads(threads)
        .offload_min_events(0)
        .seed(2024)
        .duration_hours(3.0)
        .warmup_hours(0.5)
        .build()
}

#[test]
fn parallel_matrix_flash_crowd() {
    assert!(
        flash_crowd(4, 8).parallel_eligible(),
        "flash crowd must exercise the epoch path, not the fallback"
    );
    assert_parallel_invariant("flash_crowd", flash_crowd);
}

/// The flight recorder's outcome-bearing sections (`windows`, `alerts`)
/// must be bit-identical across the whole shard × thread matrix. The
/// recording probe consumes state views, which forces the sequential
/// loop — the matrix pins exactly that: attaching it must not change
/// what it records, whatever execution the config *asked* for. The
/// baseline runs without the execution-plane recorder; every other cell
/// runs with it attached, so the recording is also pinned
/// exec-recorder-invariant.
#[test]
fn timeseries_recording_is_thread_invariant() {
    let record = |shards: usize, threads: usize, exec: bool| {
        let cfg = flash_crowd(shards, threads);
        let mut probe = TimeSeriesProbe::new(&cfg, 600.0);
        if exec {
            let mut rec = ExecRecorder::new();
            Simulation::run_instrumented(&cfg, &mut [&mut probe], Some(&mut rec));
        } else {
            Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        }
        probe.finish()
    };
    let base = record(1, 1, false);
    assert!(!base.windows.is_empty());
    for &shards in &SHARDS {
        for &threads in &THREADS {
            let rec = record(shards, threads, true);
            assert_eq!(
                rec.windows, base.windows,
                "window series diverged at shards = {shards}, threads = {threads}"
            );
            assert_eq!(
                rec.alerts, base.alerts,
                "alert stream diverged at shards = {shards}, threads = {threads}"
            );
        }
    }
}

/// The exec trace of an eligible parallel run must attribute real work
/// to the epoch path, export a combined Perfetto/analyzer document that
/// round-trips, and yield an analyzer verdict whose barrier accounting
/// reconciles with the merged `LoopProfiler` barrier phase.
#[test]
fn exec_trace_round_trips_and_reconciles_with_the_profiler() {
    let cfg = flash_crowd(4, 2);
    let (_, _, trace) = capture_with_exec(&cfg);
    assert!(trace.epochs_run() > 0, "eligible config never ran an epoch");
    assert!(
        trace.bursts_offloaded() > 0,
        "offload_min_events(0) never offloaded"
    );

    let text = trace.to_json();
    let back = sct_analysis::exec::ExecTrace::from_json(&text).unwrap();
    assert_eq!(back, trace, "combined JSON export did not round-trip");

    let report = trace.analyze();
    assert!(!report.verdict.is_empty());
    assert!(report.serialization_fraction > 0.0 && report.serialization_fraction <= 1.0);
    assert!(report.imbalance_ratio >= 1.0);
    assert!(
        report.profiler_barrier_secs > 0.0,
        "merged barrier phase missing"
    );
    // The recorder's barrier windows bracket the same coordinator work
    // the LoopProfiler charges to its barrier phase; clock-read overhead
    // sits between the two reads, so recorder >= profiler, within 3x.
    assert!(
        report.exec_barrier_secs >= report.profiler_barrier_secs * 0.5
            && report.exec_barrier_secs <= report.profiler_barrier_secs * 3.0,
        "barrier accounting out of family: exec {} s vs profiler {} s",
        report.exec_barrier_secs,
        report.profiler_barrier_secs
    );
}
