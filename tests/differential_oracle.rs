//! Differential testing: the event-driven simulator vs the independent
//! reference oracle (`sct_core::oracle`).
//!
//! Every scenario replays the same arrival/failure trace through both
//! simulators and cross-checks per-stream sent volumes, rates, and staging
//! occupancy, per-server commitment ledgers, admission legality, the
//! minimum-flow guarantee, and global data conservation at every event
//! boundary. A failure prints a replayable `(seed, time, stream)` triple.
//!
//! The reference integrates with the exact event-boundary stepper;
//! [`exact_and_naive_steppers_agree_across_the_matrix`] replays
//! the whole matrix under the fixed-Δt spot-check at a shrinking ladder
//! of step sizes and demands identical outcomes.

use sct_admission::{CopySource, ReplicationSpec, WaitlistSpec};
use sct_cluster::ServerId;
use sct_core::oracle::{
    run_differential, run_differential_with_fault, run_differential_with_stepper, FaultInjection,
    OracleScenario, RefStepper, TraceOp, ORACLE_DT_SECS,
};
use sct_media::{ClientProfile, VideoId};
use sct_simcore::SimTime;
use sct_transmission::{SchedulerKind, StreamId};

/// `true` when the generator appended the hours-long lone-drain tail
/// (bit 6 of the seed): one clip of at least 21 600 Mb (2 h at the
/// 3 Mb/s view rate).
fn has_long_drain(sc: &OracleScenario) -> bool {
    sc.trace
        .iter()
        .any(|(_, op)| matches!(op, TraceOp::Arrival { size_mb, .. } if *size_mb >= 21_600.0))
}

/// The acceptance bar from the issue: at least 100 random scenarios, all
/// four scheduler kinds, migration both on and off, chains armed and
/// not, zero divergences.
#[test]
fn random_scenarios_produce_zero_divergences() {
    let mut combo_seen = [false; 8];
    let mut arrivals = 0u64;
    let mut accepted = 0u64;
    let mut pause_scenarios = 0u64;
    let mut pauses_applied = 0u64;
    let mut copy_scenarios = 0u64;
    let mut copies_completed = 0u64;
    let mut waitlist_scenarios = 0u64;
    let mut waitlisted = 0u64;
    let mut waiters_served = 0u64;
    let mut chain_scenarios = 0u64;
    let mut chained = 0u64;
    let mut long_drain_scenarios = 0u64;
    let mut wakes = 0u64;
    for seed in 0..104u64 {
        let sc = OracleScenario::generate(seed);
        let combo = (seed % 4) as usize * 2 + usize::from(sc.migration_on);
        combo_seen[combo] = true;
        if sc
            .trace
            .iter()
            .any(|(_, op)| matches!(op, TraceOp::Pause(_)))
        {
            pause_scenarios += 1;
        }
        copy_scenarios += u64::from(sc.replication.is_some());
        waitlist_scenarios += u64::from(sc.waitlist.is_some());
        chain_scenarios += u64::from(sc.chain2_on);
        long_drain_scenarios += u64::from(has_long_drain(&sc));
        match run_differential(&sc) {
            Ok(out) => {
                arrivals += out.arrivals;
                accepted +=
                    out.accepted_direct + out.accepted_via_migration + out.accepted_via_chain;
                pauses_applied += out.pauses_applied;
                copies_completed += out.copies_completed;
                waitlisted += out.waitlisted;
                waiters_served += out.waiters_served;
                chained += out.accepted_via_chain;
                wakes += out.wakes;
                // One closed-form slice per boundary plus at most two
                // crossings per live stream: the slice count is bounded
                // by the event count, never by simulated duration —
                // hours-long drains included.
                assert!(
                    out.ref_slices <= 64 * (out.checks + 1),
                    "seed {seed}: {} slices for {} checks",
                    out.ref_slices,
                    out.checks
                );
            }
            Err(d) => panic!("{d}"),
        }
    }
    assert!(
        combo_seen.iter().all(|&b| b),
        "seed matrix must cover every (scheduler, migration) combination"
    );
    // The generator would be vacuous if nothing were ever admitted.
    assert!(accepted > 0 && arrivals >= 104 * 10);
    // ... or if the interactivity path were never exercised: a healthy
    // share of scenarios must schedule pauses, and some of those must
    // land on live streams (not just no-op against finished ones).
    assert!(
        pause_scenarios >= 104 / 4,
        "only {pause_scenarios}/104 scenarios contained a pause"
    );
    assert!(
        pauses_applied > 0,
        "no pause ever landed on a live stream across the matrix"
    );
    // The replication and waitlist extensions must be represented in the
    // matrix AND actually fire somewhere: a copy has to complete (so the
    // CopyDone → replica-map path is cross-checked), and some waiter has
    // to be re-admitted off the queue mid-replay.
    assert!(
        copy_scenarios >= 104 / 4,
        "only {copy_scenarios}/104 scenarios enabled replication"
    );
    assert!(
        copies_completed > 0,
        "no replica copy ever completed across the matrix"
    );
    assert!(
        waitlist_scenarios >= 104 / 4,
        "only {waitlist_scenarios}/104 scenarios enabled the waitlist"
    );
    assert!(
        waitlisted > 0 && waiters_served > 0,
        "the waitlist never served anyone across the matrix \
         (queued {waitlisted}, served {waiters_served})"
    );
    // The chain-2 axis (bit 5) must be represented and must actually
    // fire: at least one arrival placed by a two-step chain somewhere in
    // the matrix.
    assert!(
        chain_scenarios >= 104 / 4,
        "only {chain_scenarios}/104 scenarios armed two-step chains"
    );
    assert!(
        chained > 0,
        "no two-step migration chain ever fired across the matrix"
    );
    // The long-drain axis (bit 6) keeps multi-hour horizons in the
    // default matrix — affordable only because the exact stepper's cost
    // is horizon-independent.
    assert!(
        long_drain_scenarios >= 104 / 4,
        "only {long_drain_scenarios}/104 scenarios carried a long drain"
    );
    // The replay drives the engines through the event loop's own wake,
    // so its in-place reap and cached wake are what the matrix checks.
    assert!(wakes > 0, "the matrix drove no engine wake");
}

/// Exact-vs-naive stepper agreement over the full matrix, with the naive
/// Δt shrinking toward zero on an affordable subset: the per-slice
/// updates are closed forms, so outcomes must be *identical* at every
/// ladder rung (volume comparisons are cross-checked inside the replay
/// to [`sct_core::oracle::ORACLE_TOL_MB`]), not merely convergent.
#[test]
fn exact_and_naive_steppers_agree_across_the_matrix() {
    for seed in 0..104u64 {
        let sc = OracleScenario::generate(seed);
        let exact = run_differential_with_stepper(&sc, RefStepper::Exact)
            .unwrap_or_else(|d| panic!("seed {seed} exact: {d}"));
        // Coarse rungs everywhere; the production 10 ms step only where
        // the horizon stays short (seeds ≥ 64 carry no multi-hour tail).
        let mut ladder = vec![0.64, 0.31];
        if seed >= 64 && seed.is_multiple_of(4) {
            ladder.push(ORACLE_DT_SECS);
        }
        for dt_secs in ladder {
            let naive = run_differential_with_stepper(&sc, RefStepper::Naive { dt_secs })
                .unwrap_or_else(|d| panic!("seed {seed} naive Δt={dt_secs}: {d}"));
            let mut counters = naive;
            counters.ref_slices = exact.ref_slices;
            assert_eq!(exact, counters, "seed {seed} Δt={dt_secs}");
        }
    }
}

/// Pause/resume semantics pinned down on a hand-built trace: a paused
/// viewer stops playing (and, with no staging, stops receiving), so the
/// stream's service time stretches by the pause; the reference and the
/// engines must agree on every intermediate volume.
#[test]
fn pinned_pause_resume_scenario_passes_the_oracle() {
    for scheduler in SchedulerKind::ALL {
        let sc = OracleScenario {
            seed: 0x9A05E,
            n_servers: 2,
            slots_per_server: 3,
            view_rate: 3.0,
            scheduler,
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
                        video: VideoId(0),
                        size_mb: 300.0,
                    },
                ),
                (
                    SimTime::from_secs(5.0),
                    TraceOp::Arrival {
                        video: VideoId(1),
                        size_mb: 120.0,
                    },
                ),
                // Stream 0 pauses mid-play and resumes a minute later.
                (SimTime::from_secs(20.0), TraceOp::Pause(StreamId(0))),
                // Stream 1 finishes at t = 45; this pause is a no-op.
                (SimTime::from_secs(50.0), TraceOp::Pause(StreamId(1))),
                (SimTime::from_secs(60.0), TraceOp::Resume(StreamId(1))),
                // A never-admitted id is a no-op too.
                (SimTime::from_secs(70.0), TraceOp::Pause(StreamId(99))),
                (SimTime::from_secs(80.0), TraceOp::Resume(StreamId(0))),
            ],
        };
        let out = run_differential(&sc).unwrap_or_else(|d| panic!("{scheduler:?}: {d}"));
        assert_eq!(out.arrivals, 2, "{scheduler:?}");
        assert_eq!(out.accepted_direct, 2, "{scheduler:?}");
        assert_eq!(out.completions, 2, "{scheduler:?}");
        assert_eq!(
            out.pauses_applied, 2,
            "{scheduler:?}: exactly stream 0's pause and resume land"
        );
    }
}

/// The shrunken `controller_props` regression scenario (seed bd871fc3 in
/// `.proptest-regressions`, pinned as values in
/// `tests/regression_scenarios.rs`) replayed under the oracle: the same
/// trace must also survive full differential cross-checking.
#[test]
fn controller_props_regression_scenario_passes_the_oracle() {
    let sc = OracleScenario {
        seed: 0xbd871fc3,
        n_servers: 2,
        slots_per_server: 5,
        view_rate: 3.0,
        scheduler: SchedulerKind::Eftf,
        migration_on: false,
        chain2_on: false,
        restart_on: false,
        client: ClientProfile::new(300.0, 30.0),
        holders: vec![vec![ServerId(0)], vec![ServerId(1)]],
        replication: None,
        waitlist: None,
        trace: vec![
            (
                SimTime::ZERO,
                TraceOp::Arrival {
                    video: VideoId(1),
                    size_mb: 593.9863875361672,
                },
            ),
            (
                SimTime::ZERO,
                TraceOp::Arrival {
                    video: VideoId(0),
                    size_mb: 60.0,
                },
            ),
            (
                SimTime::from_secs(31.163592067570615),
                TraceOp::Arrival {
                    video: VideoId(0),
                    size_mb: 60.0,
                },
            ),
        ],
    };
    let out = run_differential(&sc).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(out.arrivals, 3);
    assert_eq!(out.accepted_direct, 3);
    assert_eq!(out.accepted_via_migration, 0);
    assert_eq!(out.rejected, 0);
    assert_eq!(out.completions, 3);
}

/// The shrunken `theorem1_eftf_optimality` regression scenario (seed
/// e941a27d) replayed under the oracle, for every scheduler kind: a
/// single unbounded-client server with zero-gap arrivals and a tail of
/// minimum-size clips.
#[test]
fn theorem1_regression_scenario_passes_the_oracle() {
    let reqs: [(f64, f64); 8] = [
        (0.0, 226.66574784569778),
        (4.559067464505736, 590.4488198724822),
        (5.915176078536567, 554.7679686959544),
        (22.649397433209266, 443.98241838535205),
        (0.0, 437.3056052058279),
        (47.62326748408694, 30.0),
        (0.0, 30.0),
        (34.47306875658756, 30.0),
    ];
    for scheduler in SchedulerKind::ALL {
        let mut t = 0.0;
        let mut trace = Vec::new();
        for (i, &(gap, size_mb)) in reqs.iter().enumerate() {
            t += gap;
            trace.push((
                SimTime::from_secs(t),
                TraceOp::Arrival {
                    video: VideoId(i as u32),
                    size_mb,
                },
            ));
        }
        let sc = OracleScenario {
            seed: 0xe941a27d,
            n_servers: 1,
            slots_per_server: 4,
            view_rate: 3.0,
            scheduler,
            migration_on: false,
            chain2_on: false,
            restart_on: false,
            client: ClientProfile::unbounded(),
            holders: (0..reqs.len()).map(|_| vec![ServerId(0)]).collect(),
            replication: None,
            waitlist: None,
            trace,
        };
        let out = run_differential(&sc).unwrap_or_else(|d| panic!("{scheduler:?}: {d}"));
        assert_eq!(out.arrivals, 8, "{scheduler:?}");
        assert_eq!(
            out.accepted_direct + out.rejected,
            8,
            "{scheduler:?}: no migration path exists on one server"
        );
        assert_eq!(out.completions, out.accepted_direct, "{scheduler:?}");
    }
}

/// A deliberately injected allocator bug — a stream's rate silently
/// perturbed without reallocation, exactly what a broken scheduler would
/// do — must be caught and localized to a (seed, time, stream) triple.
#[test]
fn injected_allocator_bug_is_caught_and_localized() {
    let mut caught = 0usize;
    for seed in 0..8u64 {
        let sc = OracleScenario::generate(seed);
        // Clean run first: the fault must be the only difference.
        let clean = run_differential(&sc).unwrap_or_else(|d| panic!("clean run diverged: {d}"));
        let accepted = clean.accepted_direct + clean.accepted_via_migration;
        assert!(accepted > 0, "vacuous scenario");
        // Corrupt the stream of the last direct or single-hop admission.
        // The corruption starts with the reallocation that admits it, so
        // that boundary's own check must already see it.
        let fault = FaultInjection {
            at_arrival: accepted - 1,
            delta_mbps: 0.75,
        };
        let d = run_differential_with_fault(&sc, Some(fault)).expect_err(&format!(
            "seed {seed} ({:?}, migration={}): a silently corrupted rate must be reported",
            sc.scheduler, sc.migration_on
        ));
        assert_eq!(d.seed, seed, "report must carry the scenario seed");
        assert!(
            d.stream.is_some() || d.server.is_some(),
            "report must localize the fault: {d}"
        );
        let horizon = sc.trace.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO) + 1.0e7;
        assert!(d.time <= horizon, "report time out of range: {d}");
        // The report must render the replay coordinates.
        let rendered = d.to_string();
        assert!(
            rendered.contains(&format!("seed={seed}")) && rendered.contains("t="),
            "unhelpful report: {rendered}"
        );
        caught += 1;
    }
    assert_eq!(caught, 8);
}

/// Sub-tolerance perturbations must NOT trip the oracle — the comparison
/// is meant to catch real bugs, not float noise.
#[test]
fn sub_tolerance_noise_is_not_reported() {
    let sc = OracleScenario::generate(3);
    let fault = FaultInjection {
        at_arrival: 0,
        delta_mbps: 1e-9,
    };
    if let Err(d) = run_differential_with_fault(&sc, Some(fault)) {
        panic!("1 nMb/s of noise should stay under the tolerance: {d}");
    }
}

/// Cluster-sourced replication pinned on a hand-built trace: a copy of
/// video 0 streams from its sole holder to server 1 at 3 Mb/s (90 Mb →
/// done at t = 30), the reference mirrors the transfer megabit for
/// megabit, and once `CopyDone` installs the replica, an arrival that
/// finds server 0 saturated must be admitted on server 1 — the oracle's
/// own admission-legality check recomputes the eligible set from the
/// *updated* map, so a dropped CopyDone would diverge immediately.
#[test]
fn pinned_replication_copy_scenario_passes_the_oracle() {
    for scheduler in SchedulerKind::ALL {
        let mut trace = vec![
            (
                SimTime::ZERO,
                TraceOp::StartCopy {
                    video: VideoId(0),
                    size_mb: 90.0,
                },
            ),
            // Rides alongside the copy on server 0; finishes at t = 25.
            (
                SimTime::from_secs(5.0),
                TraceOp::Arrival {
                    video: VideoId(0),
                    size_mb: 60.0,
                },
            ),
        ];
        // Three 100-second clips saturate server 0's three slots...
        for _ in 0..3 {
            trace.push((
                SimTime::from_secs(35.0),
                TraceOp::Arrival {
                    video: VideoId(0),
                    size_mb: 300.0,
                },
            ));
        }
        // ... so this one can only land on the fresh replica.
        trace.push((
            SimTime::from_secs(40.0),
            TraceOp::Arrival {
                video: VideoId(0),
                size_mb: 60.0,
            },
        ));
        let sc = OracleScenario {
            seed: 0xC0B1E5,
            n_servers: 2,
            slots_per_server: 3,
            view_rate: 3.0,
            scheduler,
            migration_on: false,
            chain2_on: false,
            restart_on: false,
            client: ClientProfile::no_staging(30.0),
            holders: vec![vec![ServerId(0)]],
            replication: Some(ReplicationSpec {
                copy_rate_mbps: 3.0,
                max_concurrent: 1,
                cooldown_secs: 5.0,
                source: CopySource::Cluster,
            }),
            waitlist: None,
            trace,
        };
        let out = run_differential(&sc).unwrap_or_else(|d| panic!("{scheduler:?}: {d}"));
        assert_eq!(out.copies_started, 1, "{scheduler:?}");
        assert_eq!(out.copies_completed, 1, "{scheduler:?}");
        assert_eq!(out.arrivals, 5, "{scheduler:?}");
        assert_eq!(
            out.accepted_direct, 5,
            "{scheduler:?}: the last arrival needs the new replica"
        );
        assert_eq!(out.rejected, 0, "{scheduler:?}");
        assert_eq!(out.completions, 5, "{scheduler:?}");
    }
}

/// Waitlist service pinned on a hand-built trace: one two-slot server,
/// two 20-second clips admitted at t = 0, two more viewers rejected into
/// the queue. When both streams depart at t = 20, `try_serve` re-admits
/// both waiters as fresh streams the reference must pick up mid-replay
/// (playback restarts at the serve time, not at arrival).
#[test]
fn pinned_waitlist_serve_scenario_passes_the_oracle() {
    for scheduler in SchedulerKind::ALL {
        let arrival = |t: f64, size_mb: f64| {
            (
                SimTime::from_secs(t),
                TraceOp::Arrival {
                    video: VideoId(0),
                    size_mb,
                },
            )
        };
        let sc = OracleScenario {
            seed: 0x3A17,
            n_servers: 1,
            slots_per_server: 2,
            view_rate: 3.0,
            scheduler,
            migration_on: false,
            chain2_on: false,
            restart_on: false,
            client: ClientProfile::no_staging(30.0),
            holders: vec![vec![ServerId(0)]],
            replication: None,
            waitlist: Some(WaitlistSpec::new(60.0, 4)),
            trace: vec![
                arrival(0.0, 60.0),
                arrival(0.0, 60.0),
                // Both slots taken: these two wait (patience until t+60).
                arrival(1.0, 60.0),
                arrival(2.0, 600.0),
            ],
        };
        let out = run_differential(&sc).unwrap_or_else(|d| panic!("{scheduler:?}: {d}"));
        assert_eq!(out.arrivals, 4, "{scheduler:?}");
        assert_eq!(out.accepted_direct, 2, "{scheduler:?}");
        assert_eq!(out.rejected, 2, "{scheduler:?}");
        assert_eq!(out.waitlisted, 2, "{scheduler:?}");
        assert_eq!(
            out.waiters_served, 2,
            "{scheduler:?}: both waiters fit once the first pair departs"
        );
        assert_eq!(out.waiters_expired, 0, "{scheduler:?}");
        assert_eq!(out.completions, 4, "{scheduler:?}");
    }
}

/// Migration-triggered chain-2 pinned on a hand-built trace. Ring
/// topology — v0 on {s0}, v1 on {s0, s1}, v2 on {s1, s2} — with s0 and
/// s1 filled exactly (three v1 clips on s0; two v1 plus one v2 on s1)
/// and two free slots on s2. The v0 arrival then fails direct (s0 full)
/// and single-hop (s1, the only other v1 holder, is full), so admission
/// must chain: the v2 victim moves s1 → s2, a v1 victim moves s0 → s1,
/// and the arrival lands on s0. The oracle mirrors both hops and checks
/// them against the controller's deterministic depth-2 plan.
#[test]
fn pinned_chain2_migration_scenario_passes_the_oracle() {
    for scheduler in SchedulerKind::ALL {
        let arrival = |t: f64, video: u32, size_mb: f64| {
            (
                SimTime::from_secs(t),
                TraceOp::Arrival {
                    video: VideoId(video),
                    size_mb,
                },
            )
        };
        let mut trace = vec![arrival(0.0, 2, 600.0), arrival(0.0, 2, 600.0)];
        for _ in 0..5 {
            trace.push(arrival(0.0, 1, 600.0));
        }
        trace.push(arrival(1.0, 0, 60.0));
        let sc = OracleScenario {
            seed: 0xC4A12,
            n_servers: 3,
            slots_per_server: 3,
            view_rate: 3.0,
            scheduler,
            migration_on: true,
            chain2_on: true,
            restart_on: false,
            client: ClientProfile::no_staging(30.0),
            holders: vec![
                vec![ServerId(0)],
                vec![ServerId(0), ServerId(1)],
                vec![ServerId(1), ServerId(2)],
            ],
            replication: None,
            waitlist: None,
            trace,
        };
        let out = run_differential(&sc).unwrap_or_else(|d| panic!("{scheduler:?}: {d}"));
        assert_eq!(out.arrivals, 8, "{scheduler:?}");
        assert_eq!(out.accepted_direct, 7, "{scheduler:?}");
        assert_eq!(out.accepted_via_migration, 0, "{scheduler:?}");
        assert_eq!(
            out.accepted_via_chain, 1,
            "{scheduler:?}: the v0 arrival needs the two-step chain"
        );
        assert_eq!(out.rejected, 0, "{scheduler:?}");
        assert_eq!(out.completions, 8, "{scheduler:?}");
    }
}

/// The waitlist places waiters directly or not at all, under a chain-2
/// policy too, as the event loop serves them. Same ring topology with
/// two slots per server; at t = 0 the v0 arrival's chain is blocked
/// because s2 is full too, so it queues. At t = 20 the short v2 clip on
/// s2 finishes, but the waiter's only holder, s0, is still full: no
/// migration or chain runs on its behalf, and it expires (patience 60 s)
/// before the long clips depart at t = 200.
#[test]
fn pinned_chain2_waitlist_scenario_passes_the_oracle() {
    for scheduler in SchedulerKind::ALL {
        let arrival = |t: f64, video: u32, size_mb: f64| {
            (
                SimTime::from_secs(t),
                TraceOp::Arrival {
                    video: VideoId(video),
                    size_mb,
                },
            )
        };
        let sc = OracleScenario {
            seed: 0xC4A13,
            n_servers: 3,
            slots_per_server: 2,
            view_rate: 3.0,
            scheduler,
            migration_on: true,
            chain2_on: true,
            restart_on: false,
            client: ClientProfile::no_staging(30.0),
            holders: vec![
                vec![ServerId(0)],
                vec![ServerId(0), ServerId(1)],
                vec![ServerId(1), ServerId(2)],
            ],
            replication: None,
            waitlist: Some(WaitlistSpec::new(60.0, 4)),
            trace: vec![
                // Least-loaded placement alternates v2 clips s1, s2,
                // s1, s2; the 60 Mb clip on s2 departs at t = 20.
                arrival(0.0, 2, 600.0),
                arrival(0.0, 2, 60.0),
                arrival(0.0, 2, 600.0),
                arrival(0.0, 2, 600.0),
                // Two v1 clips fill s0.
                arrival(0.0, 1, 600.0),
                arrival(0.0, 1, 600.0),
                // Every server full, every chain blocked: queue up.
                arrival(1.0, 0, 60.0),
            ],
        };
        let out = run_differential(&sc).unwrap_or_else(|d| panic!("{scheduler:?}: {d}"));
        assert_eq!(out.arrivals, 7, "{scheduler:?}");
        assert_eq!(out.accepted_direct, 6, "{scheduler:?}");
        assert_eq!(out.rejected, 1, "{scheduler:?}");
        assert_eq!(out.waitlisted, 1, "{scheduler:?}");
        assert_eq!(
            out.waiters_served, 0,
            "{scheduler:?}: the freed slot on s2 does not hold v0"
        );
        assert_eq!(out.waiters_expired, 1, "{scheduler:?}");
        assert_eq!(
            out.accepted_via_chain, 0,
            "{scheduler:?}: no chain runs on a waiter's behalf"
        );
        assert_eq!(out.completions, 6, "{scheduler:?}");
    }
}

/// Two equal clips admitted at one instant on one no-staging server
/// finish together: one wake must reap both. The last wake fold predicts
/// only one of them, so this is the wake's fallback to a full reap scan.
#[test]
fn pinned_simultaneous_finish_scenario_passes_the_oracle() {
    for scheduler in SchedulerKind::ALL {
        let arrival = (
            SimTime::ZERO,
            TraceOp::Arrival {
                video: VideoId(0),
                size_mb: 60.0,
            },
        );
        let sc = OracleScenario {
            seed: 0x2F1,
            n_servers: 1,
            slots_per_server: 2,
            view_rate: 3.0,
            scheduler,
            migration_on: false,
            chain2_on: false,
            restart_on: false,
            client: ClientProfile::no_staging(30.0),
            holders: vec![vec![ServerId(0)]],
            replication: None,
            waitlist: None,
            trace: vec![arrival.clone(), arrival],
        };
        let out = run_differential(&sc).unwrap_or_else(|d| panic!("{scheduler:?}: {d}"));
        assert_eq!(out.accepted_direct, 2, "{scheduler:?}");
        assert_eq!(out.completions, 2, "{scheduler:?}");
        assert_eq!(
            (out.wakes, out.multi_reap_wakes),
            (1, 1),
            "{scheduler:?}: one wake reaps both streams"
        );
    }
}

/// The headline evacuation bug pinned through the oracle: one v1 stream
/// is playing on s0 (with workahead staged) when s0 fails. Migration is
/// disabled, so a seamless hand-off is impossible — the strict policy
/// drops the stream even though s1 holds the same video with free slots.
/// The best-effort policy restarts it from the playback point on s1
/// instead (flushing the staged workahead), and the stream then runs to
/// completion. Both policies must track the analytic reference exactly
/// through the failure, the restart rewind, and the repair.
#[test]
fn pinned_evacuation_restart_scenario_passes_the_oracle() {
    for scheduler in SchedulerKind::ALL {
        for restart_on in [false, true] {
            let sc = OracleScenario {
                seed: 0xE7AC,
                n_servers: 2,
                slots_per_server: 2,
                view_rate: 3.0,
                scheduler,
                migration_on: false,
                chain2_on: false,
                restart_on,
                client: ClientProfile::new(1e6, 30.0),
                holders: vec![vec![ServerId(0)], vec![ServerId(0), ServerId(1)]],
                replication: None,
                waitlist: None,
                trace: vec![
                    // Least-loaded placement ties to the lowest id: s0.
                    (
                        SimTime::from_secs(0.0),
                        TraceOp::Arrival {
                            video: VideoId(1),
                            size_mb: 600.0,
                        },
                    ),
                    // Mid-transfer: the stream has viewed 150 Mb and
                    // (under the workahead schedulers) staged well past
                    // that.
                    (SimTime::from_secs(50.0), TraceOp::Fail(ServerId(0))),
                    (SimTime::from_secs(80.0), TraceOp::Repair(ServerId(0))),
                ],
            };
            let out = run_differential(&sc)
                .unwrap_or_else(|d| panic!("{scheduler:?} restart_on={restart_on}: {d}"));
            assert_eq!(out.arrivals, 1, "{scheduler:?} restart_on={restart_on}");
            assert_eq!(
                out.accepted_direct, 1,
                "{scheduler:?} restart_on={restart_on}"
            );
            // The observable difference between the policies: a dropped
            // stream never finishes; a restarted one does.
            assert_eq!(
                out.completions,
                u64::from(restart_on),
                "{scheduler:?} restart_on={restart_on}: the stream must {} complete",
                if restart_on { "" } else { "not" }
            );
        }
    }
}

/// Generated scenarios with bit 7 of the seed set run the best-effort
/// evacuation restart policy against the reference — the randomized
/// counterpart of the pinned scenario above (the 104-seed matrix keeps
/// the historical strict-policy corpus bit-for-bit).
#[test]
fn generated_restart_scenarios_produce_zero_divergences() {
    for seed in 128..144u64 {
        let sc = OracleScenario::generate(seed);
        assert!(
            sc.restart_on,
            "seed {seed}: bit 7 must arm the restart policy"
        );
        if let Err(d) = run_differential(&sc) {
            panic!("seed {seed}: {d}");
        }
    }
}
