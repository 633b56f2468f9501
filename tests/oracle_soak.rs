//! Long-horizon oracle soak: multi-hour drains and an extended seed
//! matrix, affordable only because the exact event-boundary stepper's
//! cost is O(#events) rather than O(simulated duration).
//!
//! [`two_hour_drain_agrees_with_naive_spot_check`] runs in the default
//! tier: it counts the slices each stepper takes, so it gates the exact
//! stepper's cost without reading a clock. The other tests are
//! `#[ignore]` so the default `cargo test -q` tier stays fast; the
//! dedicated CI soak job runs them in release mode with
//! `cargo test --release --test oracle_soak -- --ignored`.

use sct_cluster::ServerId;
use sct_core::oracle::{
    run_differential, run_differential_with_stepper, OracleScenario, RefStepper, TraceOp,
    ORACLE_DT_SECS,
};
use sct_media::{ClientProfile, VideoId};
use sct_simcore::SimTime;
use sct_transmission::SchedulerKind;

/// A pinned drain scenario: one short companion clip (done at t = 100)
/// and one `hours`-long viewer at exactly the view rate (no staging, so
/// transmission cannot run ahead of the clock). The replay must carry
/// the reference through the whole multi-hour tail.
fn lone_drain(hours: f64) -> OracleScenario {
    let size_mb = hours * 3600.0 * 3.0;
    OracleScenario {
        seed: 0x50AD,
        n_servers: 2,
        slots_per_server: 3,
        view_rate: 3.0,
        scheduler: SchedulerKind::Eftf,
        migration_on: false,
        chain2_on: false,
        restart_on: false,
        client: ClientProfile::no_staging(30.0),
        holders: vec![vec![ServerId(0)], vec![ServerId(0), ServerId(1)]],
        replication: None,
        waitlist: None,
        trace: vec![
            (
                SimTime::ZERO,
                TraceOp::Arrival {
                    video: VideoId(1),
                    size_mb: 300.0,
                },
            ),
            (
                SimTime::ZERO,
                TraceOp::Arrival {
                    video: VideoId(0),
                    size_mb,
                },
            ),
        ],
    }
}

#[test]
#[ignore = "long-horizon soak; run via the CI soak job (--release -- --ignored)"]
fn slice_count_is_independent_of_horizon() {
    let two = run_differential_with_stepper(&lone_drain(2.0), RefStepper::Exact)
        .unwrap_or_else(|d| panic!("2 h: {d}"));
    let eight = run_differential_with_stepper(&lone_drain(8.0), RefStepper::Exact)
        .unwrap_or_else(|d| panic!("8 h: {d}"));
    // Same event structure, 4× the simulated duration, identical slice
    // count: replay cost is a function of events, not of hours.
    assert_eq!(
        two.ref_slices, eight.ref_slices,
        "exact stepper slice count must not scale with the horizon"
    );
}

/// The exact stepper's cost, gated as work rather than time: the
/// two-hour drain must replay divergence-free and agree with the naive
/// integrator at the oracle's own [`ORACLE_DT_SECS`] (720 000 fixed
/// steps). Two streams make a handful of boundaries, so the exact side
/// may take at most 64 closed-form slices, and at least 1000× fewer than
/// the naive side. A stepper that fell back to fixed slices would fail
/// both bounds.
#[test]
fn two_hour_drain_agrees_with_naive_spot_check() {
    let exact = run_differential_with_stepper(&lone_drain(2.0), RefStepper::Exact)
        .unwrap_or_else(|d| panic!("exact: {d}"));
    assert_eq!((exact.arrivals, exact.completions), (2, 2));
    let naive = run_differential_with_stepper(
        &lone_drain(2.0),
        RefStepper::Naive {
            dt_secs: ORACLE_DT_SECS,
        },
    )
    .unwrap_or_else(|d| panic!("naive: {d}"));
    let mut counters = naive;
    counters.ref_slices = exact.ref_slices;
    assert_eq!(exact, counters);
    assert!(
        exact.ref_slices <= 64,
        "{} exact slices for a lone two-hour drain",
        exact.ref_slices
    );
    assert!(
        exact.ref_slices.saturating_mul(1000) <= naive.ref_slices,
        "exact took {} slices, naive {}: expected at least 1000x fewer",
        exact.ref_slices,
        naive.ref_slices
    );
}

#[test]
#[ignore = "long-horizon soak; run via the CI soak job (--release -- --ignored)"]
fn extended_seed_matrix_soaks_clean() {
    for seed in 0..256u64 {
        let sc = OracleScenario::generate(seed);
        if let Err(d) = run_differential(&sc) {
            panic!("{d}");
        }
    }
}
