//! Deterministic replays of the two checked-in proptest regression seeds.
//!
//! The `.proptest-regressions` files pin these scenarios as opaque
//! generator seeds; this file pins the *shrunken values* from those files'
//! comments as plain tests, so the reproductions survive any change of
//! property-testing framework or generator and run on every `cargo test`.

use sct_admission::{Admission, AssignmentPolicy, Controller, MigrationPolicy, VictimSelection};
use sct_cluster::{ReplicaMap, ServerId};
use sct_media::{ClientProfile, VideoId};
use sct_simcore::{Rng, SimTime};
use sct_transmission::{SchedulerKind, ServerEngine, Stream, StreamId};

const VIEW: f64 = 3.0;

/// The shrunken `controller_props` scenario:
/// 2 servers x 5 slots, video 0 held only by server 0, video 1 only by
/// server 1, migration off, and three arrivals — a long clip for video 1
/// and two interleaved short clips for video 0, the first two at t = 0.
#[test]
fn controller_props_regression_seed_bd871fc3() {
    let n_servers = 2usize;
    let slots = 5usize;
    let capacity = slots as f64 * VIEW;
    let arrivals: [(f64, usize, f64); 3] = [
        (0.0, 1, 593.9863875361672),
        (0.0, 0, 60.0),
        (31.163592067570615, 0, 60.0),
    ];
    let mut engines: Vec<ServerEngine> = (0..n_servers as u16)
        .map(|i| ServerEngine::new(ServerId(i), capacity, SchedulerKind::Eftf))
        .collect();
    let holders: Vec<Vec<ServerId>> = vec![vec![ServerId(0)], vec![ServerId(1)]];
    let map = ReplicaMap::from_holders(n_servers, holders);
    let migration = MigrationPolicy {
        enabled: false,
        max_hops_per_request: Some(0),
        handoff_latency_secs: 0.0,
        victim_selection: VictimSelection::MostStaged,
        ..MigrationPolicy::single_hop()
    };
    let mut controller = Controller::new(AssignmentPolicy::LeastLoaded, migration);
    let mut rng = Rng::new(1894168633426176511);
    let client = ClientProfile::new(300.0, 30.0);

    let mut t = 0.0f64;
    for (i, &(gap, vid, size)) in arrivals.iter().enumerate() {
        t += gap;
        let arrival = SimTime::from_secs(t);
        loop {
            let next = engines
                .iter()
                .filter_map(|e| e.next_event_after(e.clock()).map(|w| (w, e.id())))
                .min_by(|a, b| a.0.cmp(&b.0));
            match next {
                Some((when, id)) if when <= arrival => {
                    let e = &mut engines[id.index()];
                    e.advance_to(when);
                    e.reap_finished(when);
                    e.reschedule(when);
                }
                _ => break,
            }
        }
        let stream = Stream::new(
            StreamId(i as u64),
            VideoId(vid as u32),
            size,
            VIEW,
            client,
            arrival,
        );
        let (admission, touched) = controller.admit(stream, &mut engines, &map, arrival, &mut rng);
        for sid in touched.iter() {
            let e = &mut engines[sid.index()];
            e.advance_to(arrival);
            e.reschedule(arrival);
        }
        controller.stats.check();
        for e in &engines {
            e.check_invariants();
            assert!(e.active_count() <= slots, "server over its slot count");
            for s in e.streams() {
                assert!(
                    map.holds(e.id(), s.video),
                    "stream {} for {} placed on non-holder {}",
                    s.id,
                    s.video,
                    e.id()
                );
                assert!(s.hops == 0, "hop budget exceeded: {}", s.hops);
            }
        }
        assert!(
            !matches!(admission, Admission::WithMigration { .. }),
            "migration fired while disabled"
        );
    }
    assert_eq!(controller.stats.arrivals, arrivals.len() as u64);
    assert_eq!(controller.stats.accepted_via_migration, 0);
}

/// Runs a single-server minimum-flow simulation and returns the number of
/// accepted requests (mirrors `tests/theorem1_eftf_optimality.rs`).
fn run_single_server(
    kind: SchedulerKind,
    capacity: f64,
    reqs: &[(f64, f64)],
    client: ClientProfile,
) -> usize {
    let mut engine = ServerEngine::new(ServerId(0), capacity, kind);
    let mut clock = SimTime::ZERO;
    let mut accepted = 0usize;
    let mut t = 0.0;
    for (i, &(gap, size_mb)) in reqs.iter().enumerate() {
        t += gap;
        let arrival = SimTime::from_secs(t);
        while let Some(when) = engine.next_event_after(clock) {
            if when > arrival {
                break;
            }
            engine.advance_to(when);
            engine.reap_finished(when);
            engine.reschedule(when);
            clock = when;
        }
        engine.advance_to(arrival);
        engine.reap_finished(arrival);
        clock = arrival;
        if engine.can_admit(VIEW) {
            let stream = Stream::new(
                StreamId(i as u64),
                VideoId(i as u32),
                size_mb,
                VIEW,
                client,
                arrival,
            );
            engine.admit(stream, arrival);
            accepted += 1;
        } else {
            engine.reschedule(arrival);
        }
    }
    accepted
}

/// The shrunken `theorem1_eftf_optimality` scenario: an 8-request trace
/// with zero-gap arrivals and a tail of 30 Mb clips.
#[test]
fn theorem1_regression_seed_e941a27d() {
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
    let capacity = 12.0; // 4 slots
    let client = ClientProfile::unbounded();
    let eftf = run_single_server(SchedulerKind::Eftf, capacity, &reqs, client);
    for kind in SchedulerKind::ALL {
        let n = run_single_server(kind, capacity, &reqs, client);
        assert!(n >= 1, "{kind:?} must accept into an idle server");
        assert!(n <= reqs.len());
        if n == reqs.len() {
            assert_eq!(
                eftf,
                reqs.len(),
                "{kind:?} accommodated all {} requests but EFTF only {eftf}",
                reqs.len()
            );
        }
    }
}
