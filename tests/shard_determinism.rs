//! Shard-count invariance matrix.
//!
//! The sharded event loop's central claim: partitioning the queue by
//! server changes *nothing observable*. The conservative barrier in
//! `sct_simcore::ShardedQueue` multiplexes shards on one thread in
//! exactly the merged single-queue order, so the RNG draw sequence, the
//! event stream, and every outcome float are bit-identical for any
//! shard count. This test runs the four golden scenarios (the same
//! configs `golden_outcomes.rs` locks against pre-refactor fixtures),
//! plus a flash-crowd scenario, with `shards ∈ {1, 2, 4}` and asserts
//! identical [`SimOutcome`]s *and* identical span sets — the strongest
//! observable equality the probes expose. Every cell also runs through
//! `Simulation::run_instrumented`, so the same pass pins the loop
//! profiler as invisible to the run.
//!
//! Combined with `golden_outcomes.rs` (which pins `shards = 1` to the
//! pre-refactor snapshots), this transitively pins every shard count to
//! the pre-refactor loop.

use sct_analysis::SpanSet;
use sct_core::spans::capture;
use sct_core::SpanProbe;
use semi_continuous_vod::prelude::*;

const SHARD_MATRIX: [usize; 3] = [1, 2, 4];

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

/// Runs `build(shards)` for every shard count, plain and instrumented,
/// and asserts outcomes and span sets match the plain `shards = 1`
/// baseline bit-for-bit.
fn assert_shard_invariant(name: &str, build: impl Fn(usize) -> SimConfig) {
    let (base_outcome, base_spans) = capture(&build(1));
    assert!(
        !base_spans.spans.is_empty(),
        "{name}: scenario produced no spans — matrix would be vacuous"
    );
    for &shards in &SHARD_MATRIX {
        let cfg = build(shards);
        for (how, (outcome, spans)) in [
            ("plain", capture(&cfg)),
            ("instrumented", capture_instrumented(&cfg)),
        ] {
            assert_eq!(
                outcome, base_outcome,
                "{name}: {how} SimOutcome diverged at shards = {shards}"
            );
            assert_eq!(
                spans, base_spans,
                "{name}: {how} span set diverged at shards = {shards}"
            );
        }
    }
}

#[test]
fn shard_matrix_small_no_migration() {
    assert_shard_invariant("small_no_migration", |shards| {
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
fn shard_matrix_small_migration_interactive() {
    assert_shard_invariant("small_migration_interactive", |shards| {
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
fn shard_matrix_large_no_migration_replication() {
    assert_shard_invariant("large_no_migration_replication", |shards| {
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
fn shard_matrix_large_migration_failures() {
    assert_shard_invariant("large_migration_failures", |shards| {
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
/// arrival bursts pile wakes onto the popular videos' holders and runs
/// hit their barrier horizons often — where a reordering bug in the
/// barrier would surface first.
#[test]
fn shard_matrix_flash_crowd() {
    assert_shard_invariant("flash_crowd", |shards| {
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
    });
}

/// Oversharding clamps: more shards than servers behaves like one shard
/// per server, and outcomes still match.
#[test]
fn shard_matrix_overshard_clamps() {
    let build = |shards: usize| {
        SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(2.0)
            .warmup_hours(0.25)
            .shards(shards)
            .seed(7)
            .build()
    };
    let base = Simulation::run(&build(1));
    // tiny_test has 3 servers; 64 shards must clamp to 3.
    let over = Simulation::run(&build(64));
    assert_eq!(over, base, "oversharded outcome diverged");
}

/// The flight recorder splits its determinism promise in two. The
/// `windows` and `alerts` sections are pure folds of the (shard-
/// invariant) event stream and state views, so they must be
/// bit-identical for any shard count. The `shards` section describes
/// the loop's *execution shape* — run lengths, barrier-horizon slack,
/// cross-shard edges — which legitimately varies with the shard count
/// but must still be bit-identical across repeated runs at the same
/// count (it is derived from virtual time only, never wall clock), and
/// identical with the loop profilers on.
#[test]
fn timeseries_recording_is_deterministic_across_the_shard_matrix() {
    let build = |shards: usize| {
        SimConfig::builder(SystemSpec::small_paper())
            .theta(0.0)
            .migration(MigrationPolicy::single_hop())
            .shards(shards)
            .seed(1002)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    };
    let record_with = |shards: usize, profiled: bool| {
        let cfg = build(shards);
        let mut probe = TimeSeriesProbe::new(&cfg, 600.0);
        if profiled {
            Simulation::run_instrumented(&cfg, &mut [&mut probe]);
        } else {
            Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        }
        probe.finish()
    };
    let record = |shards: usize| record_with(shards, false);
    let base = record(1);
    assert!(!base.windows.is_empty());
    for &shards in &SHARD_MATRIX {
        let rec = record(shards);
        assert_eq!(
            rec.windows, base.windows,
            "window series diverged at shards = {shards}"
        );
        assert_eq!(
            rec.alerts, base.alerts,
            "alert stream diverged at shards = {shards}"
        );
        // Repeatability: the whole recording — barrier-slack series
        // included — is bit-identical run over run.
        let again = record(shards);
        assert_eq!(
            again.to_json(),
            rec.to_json(),
            "recording not reproducible at shards = {shards}"
        );
        assert_eq!(
            record_with(shards, true).to_json(),
            rec.to_json(),
            "profiling changed the recording at shards = {shards}"
        );
        if shards > 1 {
            assert_eq!(rec.shards.len(), shards, "missing per-shard series");
            let bounded: u64 = rec.shards.iter().flat_map(|s| &s.bounded_runs).sum();
            assert!(
                bounded > 0,
                "sharded run recorded no bounded barrier horizons"
            );
        }
    }
}

/// The cross-shard channel is observational: trace probes see
/// `CrossShard` records iff `shards > 1` and a relocation actually
/// crosses a boundary, and those records never perturb the run.
#[test]
fn cross_shard_channel_surfaces_only_when_sharded() {
    struct CrossCounter(u64);
    impl Probe for CrossCounter {
        fn on_event(&mut self, _now: sct_simcore::SimTime, event: &SimEvent) {
            if let SimEvent::CrossShard {
                from_shard,
                to_shard,
                ..
            } = event
            {
                assert_ne!(from_shard, to_shard, "same-shard relocation surfaced");
                self.0 += 1;
            }
        }
    }
    // Migration-heavy config so displacements are guaranteed.
    let build = |shards: usize| {
        SimConfig::builder(SystemSpec::small_paper())
            .theta(0.0)
            .migration(MigrationPolicy::single_hop())
            .shards(shards)
            .seed(1002)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    };
    let mut mono = CrossCounter(0);
    let out_mono = Simulation::run_with_probes(&build(1), &mut [&mut mono]);
    assert_eq!(mono.0, 0, "monolithic loop must emit no CrossShard records");

    let mut sharded = CrossCounter(0);
    let out_sharded = Simulation::run_with_probes(&build(4), &mut [&mut sharded]);
    assert!(
        sharded.0 > 0,
        "4-shard migration-heavy run surfaced no cross-shard relocations"
    );
    assert_eq!(out_mono, out_sharded, "channel records perturbed the run");
}
