//! Paper-fidelity soak tests, `#[ignore]`d by default: 1000 simulated
//! hours each, about 14 s for both in a release build on a 2-vCPU x86-64
//! host. CI's soak job runs them with:
//!
//! ```text
//! cargo test --release --test paper_fidelity_soak -- --ignored
//! ```

use sct_core::config::SimConfig;
use sct_core::policies::Policy;
use sct_core::simulation::Simulation;
use sct_workload::SystemSpec;

/// One full paper-protocol trial (1000 simulated hours) of the Small
/// system under P4, with invariant checking enabled throughout —
/// ~1.8 million events with every engine invariant asserted.
#[test]
#[ignore = "minutes-long soak; run with -- --ignored"]
fn thousand_hour_small_system_trial() {
    let cfg = SimConfig::builder(SystemSpec::small_paper())
        .policy(Policy::P4)
        .theta(0.271)
        .duration_hours(1000.0)
        .warmup_hours(5.0)
        .check_invariants(true)
        .seed(2001)
        .build();
    let out = Simulation::run(&cfg);
    assert!(out.stats.arrivals > 450_000, "{}", out.stats.arrivals);
    assert!(out.utilization > 0.95, "{}", out.utilization);
    assert!(out.utilization <= 1.0 + 1e-9);
    out.stats.check();
}

/// A 1000-hour Large-system trial with every extension active at once:
/// failures, pauses, replication, migration, heterogeneity.
#[test]
#[ignore = "minutes-long soak; run with -- --ignored"]
fn kitchen_sink_large_system_trial() {
    use sct_admission::{MigrationPolicy, ReplicationSpec};
    use sct_workload::HeterogeneityKind;
    let cfg = SimConfig::builder(SystemSpec::large_paper())
        .theta(-0.25)
        .migration(MigrationPolicy {
            handoff_latency_secs: 0.0,
            ..MigrationPolicy::single_hop()
        })
        .staging_fraction(0.2)
        .heterogeneity(HeterogeneityKind::Bandwidth, 0.4)
        .failures(50.0, 0.5)
        .interactivity(0.3, 60.0, 600.0)
        .replication(ReplicationSpec::default_paper_scale())
        .duration_hours(1000.0)
        .warmup_hours(5.0)
        .check_invariants(true)
        .seed(4242)
        .build();
    let out = Simulation::run(&cfg);
    assert!(out.utilization > 0.5 && out.utilization <= 1.0 + 1e-9);
    assert!(out.server_failures > 0);
    assert!(out.pauses_applied > 0);
    assert!(out.replication.replicas_created > 0);
    assert!(out.stats.accepted_via_migration > 0);
    out.stats.check();
}
