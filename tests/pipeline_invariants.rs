//! End-to-end invariant sweeps: run the full simulation with expensive
//! per-event invariant checking across the policy/scheduler matrix, and
//! verify conservation and determinism properties that span all crates.

use sct_admission::{AssignmentPolicy, MigrationPolicy, VictimSelection};
use sct_core::config::{SimConfig, StagingSpec};
use sct_core::policies::Policy;
use sct_core::simulation::Simulation;
use sct_transmission::SchedulerKind;
use sct_workload::{HeterogeneityKind, SystemSpec};

fn checked(system: SystemSpec) -> sct_core::config::SimConfigBuilder {
    SimConfig::builder(system)
        .duration_hours(3.0)
        .warmup_hours(0.25)
        .check_invariants(true)
}

/// Every policy row of Fig. 6 survives full invariant checking: min-flow
/// rates, capacity limits, buffer bounds, playback-never-starves.
#[test]
fn all_policies_respect_invariants() {
    for policy in Policy::ALL {
        for theta in [-1.0, 0.271, 1.0] {
            let out = Simulation::run(
                &checked(SystemSpec::tiny_test())
                    .policy(policy)
                    .theta(theta)
                    .seed(99)
                    .build(),
            );
            assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
            out.stats.check();
        }
    }
}

/// Every scheduler kind survives invariant checking with staging on.
#[test]
fn all_schedulers_respect_invariants() {
    for scheduler in SchedulerKind::ALL {
        let out = Simulation::run(
            &checked(SystemSpec::tiny_test())
                .scheduler(scheduler)
                .staging_fraction(0.3)
                .seed(7)
                .build(),
        );
        assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
    }
}

/// Migration with a *non-zero* hand-off latency (our realistic extension)
/// also holds the invariants and still fires once clients stage data.
#[test]
fn migration_with_handoff_latency_is_safe() {
    let out = Simulation::run(
        &checked(SystemSpec::tiny_test())
            .staging_fraction(0.2)
            .migration(MigrationPolicy {
                handoff_latency_secs: 2.0,
                ..MigrationPolicy::single_hop()
            })
            .duration_hours(6.0)
            .seed(3)
            .build(),
    );
    assert!(
        out.stats.accepted_via_migration > 0,
        "migration never fired"
    );
}

/// The design ablations of EXPERIMENTS.md A2 run on the Small system for
/// one hour (θ 0.271, 20 % staging, seed 11), with no warm-up.
fn ablation() -> sct_core::config::SimConfigBuilder {
    SimConfig::builder(SystemSpec::small_paper())
        .duration_hours(1.0)
        .warmup_hours(0.0)
        .theta(0.271)
        .staging_fraction(0.2)
        .seed(11)
        .check_invariants(true)
}

/// Every DRM victim-selection rule, at the paper's instantaneous
/// hand-off, and the default rule at hand-off latencies of 1, 5 and 30 s
/// hold the invariants and keep the cluster busy: no variant can "win"
/// an ablation by doing nothing.
#[test]
fn drm_variants_respect_invariants() {
    let victims = [
        VictimSelection::MostStaged,
        VictimSelection::FirstFeasible,
        VictimSelection::EarliestFinish,
        VictimSelection::Random,
    ]
    .map(|victim| (0.0, victim));
    let latencies = [1.0, 5.0, 30.0].map(|latency| (latency, VictimSelection::MostStaged));
    for (latency, victim) in victims.into_iter().chain(latencies) {
        let out = Simulation::run(
            &ablation()
                .migration(MigrationPolicy {
                    handoff_latency_secs: latency,
                    victim_selection: victim,
                    ..MigrationPolicy::single_hop()
                })
                .build(),
        );
        assert!(
            out.utilization > 0.5,
            "{victim:?} at {latency} s: {}",
            out.utilization
        );
        out.stats.check();
    }
}

/// Every assignment policy holds the invariants and keeps the cluster
/// busy.
#[test]
fn assignment_policies_respect_invariants() {
    for assignment in [
        AssignmentPolicy::LeastLoaded,
        AssignmentPolicy::Random,
        AssignmentPolicy::FirstFit,
        AssignmentPolicy::MostLoaded,
    ] {
        let out = Simulation::run(&ablation().assignment(assignment).build());
        assert!(out.utilization > 0.4, "{assignment:?}: {}", out.utilization);
        out.stats.check();
    }
}

/// Heterogeneous clusters hold invariants for both kinds and several
/// spreads.
#[test]
fn heterogeneous_clusters_respect_invariants() {
    for kind in [HeterogeneityKind::Bandwidth, HeterogeneityKind::Storage] {
        for spread in [0.3, 0.8] {
            let out = Simulation::run(
                &checked(SystemSpec::tiny_test())
                    .heterogeneity(kind, spread)
                    .seed(5)
                    .build(),
            );
            assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
        }
    }
}

/// Unbounded staging and receive caps (Theorem 1 regime) at system scale.
#[test]
fn unbounded_clients_respect_invariants() {
    let out = Simulation::run(
        &checked(SystemSpec::tiny_test())
            .staging(StagingSpec::Unbounded)
            .receive_cap(f64::INFINITY)
            .seed(13)
            .build(),
    );
    // With unlimited workahead, servers drain instantly; utilization is
    // bounded by offered acceptance but must stay a valid ratio.
    assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
    assert!(out.completions > 0);
}

/// The utilization metric is conserved: megabits counted by the engines
/// can never exceed what admission accepted, and acceptance can never
/// exceed arrivals.
#[test]
fn conservation_across_the_stack() {
    let cfg = checked(SystemSpec::tiny_test())
        .policy(Policy::P4)
        .duration_hours(5.0)
        .warmup_hours(0.0)
        .seed(21)
        .build();
    let out = Simulation::run(&cfg);
    let capacity_mb = cfg.system.total_bandwidth_mbps() * out.measured_hours * 3600.0;
    let sent = out.utilization * capacity_mb;
    assert!(sent <= out.stats.accepted_mb + 1.0);
    assert!(out.stats.accepted() <= out.stats.arrivals);
    assert!(out.completions <= out.stats.accepted());
}

/// Bit-for-bit determinism of the entire pipeline, including with
/// migration and heterogeneity enabled.
#[test]
fn full_pipeline_determinism() {
    let mk = || {
        checked(SystemSpec::tiny_test())
            .policy(Policy::P8)
            .heterogeneity(HeterogeneityKind::Bandwidth, 0.4)
            .theta(-0.5)
            .seed(0xDEAD)
            .build()
    };
    let a = Simulation::run(&mk());
    let b = Simulation::run(&mk());
    assert_eq!(a, b);
}

/// Short horizons and long videos: a run shorter than a single video still
/// behaves (partial transmissions counted, no panic).
#[test]
fn horizon_shorter_than_videos() {
    let mut system = SystemSpec::tiny_test();
    system.video_length_secs = (3600.0, 7200.0); // 1-2 h videos
    let out = Simulation::run(
        &SimConfig::builder(system)
            .duration_hours(0.5)
            .warmup_hours(0.0)
            .check_invariants(true)
            .seed(2)
            .build(),
    );
    assert_eq!(out.completions, 0, "nothing can finish in half an hour");
    assert!(
        out.utilization > 0.0,
        "partial transmission must be counted"
    );
}
