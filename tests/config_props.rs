//! Property test over the configuration space: random builder knobs,
//! out-of-range values included. `try_build` must answer `Ok` or `Err`
//! and never panic, and every config it accepts must run a short trial
//! with the engine invariants checked at every event and a sane outcome.

use proptest::prelude::*;
use sct_admission::{CopySource, MigrationPolicy, ReplicationSpec};
use sct_core::config::{SimConfig, SimConfigBuilder, StagingSpec};
use sct_core::simulation::Simulation;
use sct_transmission::SchedulerKind;
use sct_workload::{HeterogeneityKind, SystemSpec};

/// One draw of every knob the builder takes.
#[derive(Clone, Debug)]
struct Knobs {
    scheduler: SchedulerKind,
    migrate: bool,
    theta: f64,
    duration_hours: f64,
    warmup_hours: f64,
    staging: StagingSpec,
    receive_cap: f64,
    spread: Option<f64>,
    failures: Option<(f64, f64)>,
    interactivity: Option<(f64, f64, f64)>,
    diurnal: Option<(f64, f64)>,
    waitlist: Option<(f64, usize)>,
    replication: Option<(f64, usize, f64)>,
    seed: u64,
}

/// A value from `valid`, or one time in sixteen one of the `bad` ones, so
/// about half the draws have every knob in range and run a trial.
fn or_bad(valid: std::ops::Range<f64>, bad: &'static [f64]) -> impl Strategy<Value = f64> {
    (0usize..16, valid, 0..bad.len())
        .prop_map(move |(pick, v, b)| if pick == 0 { bad[b] } else { v })
}

fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(on, v)| on.then_some(v))
}

fn knobs() -> impl Strategy<Value = Knobs> {
    const NAN: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;
    let schedule = (
        0..SchedulerKind::ALL.len(),
        any::<bool>(),
        or_bad(-1.0..1.0, &[NAN, INF]),
        or_bad(0.3..2.0, &[0.0, -1.0, NAN, INF]),
        or_bad(0.0..0.25, &[-0.5, NAN, 2.0]),
        (0usize..3, or_bad(0.0..0.5, &[-0.5, NAN])),
        or_bad(3.0..60.0, &[1.0, NAN, INF]),
    );
    let extensions = (
        maybe(or_bad(0.0..0.9, &[1.5, -0.1, NAN])),
        maybe((
            or_bad(0.2..4.0, &[-1.0, 0.0, NAN]),
            or_bad(0.05..0.5, &[0.0, NAN]),
        )),
        maybe((
            or_bad(0.0..1.0, &[2.0, -0.5, NAN]),
            or_bad(10.0..60.0, &[0.0, -5.0, NAN]),
            or_bad(60.0..300.0, &[5.0, NAN]),
        )),
        maybe((
            or_bad(0.0..1.0, &[3.0, NAN]),
            or_bad(0.25..2.0, &[0.0, -1.0]),
        )),
        maybe((or_bad(10.0..600.0, &[-1.0, 0.0, NAN]), 0usize..50)),
        maybe((
            or_bad(3.0..60.0, &[0.0, -3.0, NAN]),
            0usize..4,
            or_bad(0.0..900.0, &[-1.0, NAN]),
        )),
        any::<u64>(),
    );
    (schedule, extensions).prop_map(
        |(
            (
                kind,
                migrate,
                theta,
                duration_hours,
                warmup_hours,
                (staging_kind, fraction),
                receive_cap,
            ),
            (spread, failures, interactivity, diurnal, waitlist, replication, seed),
        )| Knobs {
            scheduler: SchedulerKind::ALL[kind],
            migrate,
            theta,
            duration_hours,
            warmup_hours,
            staging: match staging_kind {
                0 => StagingSpec::FractionOfAvgVideo(fraction),
                1 => StagingSpec::AbsoluteMb(fraction * 1000.0),
                _ => StagingSpec::Unbounded,
            },
            receive_cap,
            spread,
            failures,
            interactivity,
            diurnal,
            waitlist,
            replication,
            seed,
        },
    )
}

fn builder(k: &Knobs) -> SimConfigBuilder {
    let mut b = SimConfig::builder(SystemSpec::tiny_test())
        .scheduler(k.scheduler)
        .migration(if k.migrate {
            MigrationPolicy::single_hop()
        } else {
            MigrationPolicy::disabled()
        })
        .theta(k.theta)
        .duration_hours(k.duration_hours)
        .warmup_hours(k.warmup_hours)
        .staging(k.staging)
        .receive_cap(k.receive_cap)
        .seed(k.seed)
        .check_invariants(true);
    if let Some(spread) = k.spread {
        b = b.heterogeneity(HeterogeneityKind::Bandwidth, spread);
    }
    if let Some((mtbf, repair)) = k.failures {
        b = b.failures(mtbf, repair);
    }
    if let Some((p, lo, hi)) = k.interactivity {
        b = b.interactivity(p, lo, hi);
    }
    if let Some((amplitude, period)) = k.diurnal {
        b = b.diurnal(amplitude, period);
    }
    if let Some((wait, len)) = k.waitlist {
        b = b.waitlist(wait, len);
    }
    if let Some((copy_rate_mbps, max_concurrent, cooldown_secs)) = k.replication {
        b = b.replication(ReplicationSpec {
            copy_rate_mbps,
            max_concurrent,
            cooldown_secs,
            source: CopySource::Tertiary,
        });
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn config_space_builds_or_refuses_and_accepted_configs_run_sanely(k in knobs()) {
        match builder(&k).try_build() {
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
            }
            Ok(cfg) => {
                let out = Simulation::run(&cfg);
                prop_assert!(
                    (0.0..=1.0 + 1e-9).contains(&out.utilization),
                    "utilization {} for {k:?}",
                    out.utilization
                );
                let acceptance = out.stats.acceptance_ratio();
                prop_assert!(
                    (0.0..=1.0).contains(&acceptance),
                    "acceptance {acceptance} for {k:?}"
                );
                prop_assert!(
                    out.completions <= out.stats.accepted(),
                    "{} completions of {} accepted for {k:?}",
                    out.completions,
                    out.stats.accepted()
                );
            }
        }
    }
}
