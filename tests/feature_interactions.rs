//! Cross-feature interaction tests: every extension must compose with
//! every other without breaking the engine invariants or the accounting.

use sct_admission::{MigrationPolicy, ReplicationSpec, WaitlistSpec};
use sct_core::config::SimConfig;
use sct_core::simulation::Simulation;
use sct_core::TimeSeriesProbe;
use sct_workload::{HeterogeneityKind, SystemSpec};

fn drm() -> MigrationPolicy {
    MigrationPolicy {
        handoff_latency_secs: 0.0,
        ..MigrationPolicy::single_hop()
    }
}

fn base() -> sct_core::config::SimConfigBuilder {
    SimConfig::builder(SystemSpec::tiny_test())
        .duration_hours(6.0)
        .warmup_hours(0.5)
        .staging_fraction(0.2)
        .check_invariants(true)
}

/// Waitlist + server failures: a failed server's waiters keep waiting and
/// get served on repair; accounting still reconciles.
#[test]
fn waitlist_survives_failures() {
    let out = Simulation::run(
        &base()
            .theta(-0.5)
            .waitlist(600.0, 1000)
            .failures(1.5, 0.25)
            .seed(101)
            .build(),
    );
    assert!(out.server_failures > 0);
    assert!(out.waitlist.enqueued > 0);
    out.stats.check();
    assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
}

/// Pauses + migration: a paused stream can still be migrated (its staged
/// data rides along), and invariants hold throughout.
#[test]
fn pauses_compose_with_migration() {
    let out = Simulation::run(
        &base()
            .theta(0.0)
            .migration(drm())
            .interactivity(0.6, 60.0, 300.0)
            .seed(103)
            .build(),
    );
    assert!(out.pauses_applied > 0);
    assert!(out.stats.accepted_via_migration > 0);
    out.stats.check();
}

/// Replication + failures: copies abort cleanly when servers die; the
/// replica map never references a replica that was not completed.
#[test]
fn replication_composes_with_failures() {
    let out = Simulation::run(
        &base()
            .theta(-1.0)
            .replication(ReplicationSpec::default_paper_scale())
            .failures(1.0, 0.25)
            .seed(107)
            .build(),
    );
    assert!(out.server_failures > 0);
    assert!(out.replication.copies_started > 0);
    assert!(
        out.replication.replicas_created + out.replication.copies_aborted
            <= out.replication.copies_started
    );
    out.stats.check();
}

/// Batching + diurnal peaks: correlated demand spikes are exactly where
/// cohort service pays off; the run must stay consistent end to end.
#[test]
fn batching_composes_with_diurnal() {
    let out = Simulation::run(
        &base()
            .theta(-1.0)
            .waitlist_spec(WaitlistSpec::batching(300.0, 10_000))
            .diurnal(1.0, 2.0)
            .seed(109)
            .build(),
    );
    assert!(out.waitlist.enqueued > 0);
    out.stats.check();
    assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
}

/// Everything at once, heterogeneous cluster included, for several seeds.
#[test]
fn kitchen_sink_composition() {
    for seed in [1u64, 2, 3] {
        let cfg = base()
            .theta(-0.25)
            .migration(drm())
            .heterogeneity(HeterogeneityKind::Bandwidth, 0.5)
            .failures(2.0, 0.25)
            .interactivity(0.3, 60.0, 300.0)
            .replication(ReplicationSpec::default_paper_scale())
            .waitlist_spec(WaitlistSpec::batching(300.0, 10_000))
            .diurnal(0.75, 3.0)
            .seed(seed)
            .build();
        let mut recorder = TimeSeriesProbe::new(&cfg, 600.0);
        let out = Simulation::run_with_probes(&cfg, &mut [&mut recorder]);
        let windows = recorder.finish().windows;
        out.stats.check();
        assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
        // The recorder's arrivals, counted as they are admitted or
        // turned away, reconcile with the waitlist-adjusted totals.
        let arrivals: u64 = windows.iter().map(|w| w.arrivals).sum();
        assert_eq!(arrivals, out.stats.arrivals);
        // Recorded windows average to the headline utilization, each
        // weighted by its measured seconds.
        let measured: f64 = windows.iter().map(|w| w.measured_secs).sum();
        let mean = windows
            .iter()
            .map(|w| w.utilization * w.measured_secs)
            .sum::<f64>()
            / measured;
        assert!(
            (mean - out.utilization).abs() < 1e-9,
            "windows {mean} vs total {}",
            out.utilization
        );
    }
}
