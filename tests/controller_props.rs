//! Property tests for the distribution controller over random cluster
//! shapes, replica maps, and arrival storms.

use proptest::prelude::*;
use sct_admission::{Admission, AssignmentPolicy, Controller, MigrationPolicy, VictimSelection};
use sct_cluster::{ReplicaMap, ServerId};
use sct_core::oracle::audit_engines;
use sct_media::{ClientProfile, VideoId};
use sct_simcore::{Rng, SimTime};
use sct_transmission::{SchedulerKind, ServerEngine, Stream, StreamId};

const VIEW: f64 = 3.0;

#[derive(Clone, Debug)]
struct Scenario {
    n_servers: usize,
    slots: usize,
    /// For each video: bitmask of holder servers (at least one).
    videos: Vec<u8>,
    /// Arrival sequence: (gap seconds, video index, size Mb).
    arrivals: Vec<(f64, usize, f64)>,
    migration_on: bool,
    /// Two-step chains allowed (`max_chain_length = 2`)?
    chain2: bool,
    hops: u32,
    victim: usize,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..6, 2usize..8).prop_flat_map(|(n_servers, slots)| {
        let n_videos = 1usize..12;
        n_videos.prop_flat_map(move |nv| {
            (
                prop::collection::vec(1u8..(1 << n_servers) as u8, nv..=nv),
                prop::collection::vec((0.0f64..40.0, 0..nv, 60.0f64..900.0), 1..80),
                prop::bool::ANY,
                prop::bool::ANY,
                0u32..3,
                0usize..4,
                any::<u64>(),
            )
                .prop_map(
                    move |(videos, arrivals, migration_on, chain2, hops, victim, seed)| Scenario {
                        n_servers,
                        slots,
                        videos,
                        arrivals,
                        migration_on,
                        chain2,
                        hops,
                        victim,
                        seed,
                    },
                )
        })
    })
}

fn victim_by_index(i: usize) -> VictimSelection {
    [
        VictimSelection::MostStaged,
        VictimSelection::FirstFeasible,
        VictimSelection::EarliestFinish,
        VictimSelection::Random,
    ][i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the topology, policies, and arrival storm: counters add
    /// up, no server is ever overcommitted, hop budgets hold, and every
    /// admitted stream sits on a server that actually stores its video.
    #[test]
    fn controller_holds_invariants_under_storm(sc in scenario()) {
        let capacity = sc.slots as f64 * VIEW;
        let mut engines: Vec<ServerEngine> = (0..sc.n_servers as u16)
            .map(|i| ServerEngine::new(ServerId(i), capacity, SchedulerKind::Eftf))
            .collect();
        let holders: Vec<Vec<ServerId>> = sc
            .videos
            .iter()
            .map(|&mask| {
                (0..sc.n_servers as u16)
                    .filter(|s| mask & (1 << s) != 0)
                    .map(ServerId)
                    .collect()
            })
            .collect();
        let map = ReplicaMap::from_holders(sc.n_servers, holders);
        let migration = MigrationPolicy {
            enabled: sc.migration_on,
            max_chain_length: if sc.chain2 { 2 } else { 1 },
            max_hops_per_request: Some(sc.hops),
            handoff_latency_secs: 0.0,
            victim_selection: victim_by_index(sc.victim),
        };
        let mut controller = Controller::new(AssignmentPolicy::LeastLoaded, migration);
        let mut rng = Rng::new(sc.seed);
        let client = ClientProfile::new(300.0, 30.0);

        let mut clock = SimTime::ZERO;
        let mut t = 0.0f64;
        for (i, &(gap, vid, size)) in sc.arrivals.iter().enumerate() {
            t += gap;
            let arrival = SimTime::from_secs(t);
            // Drain all engine events up to the arrival. Each engine's
            // next event is anchored at its *own* clock (rates are
            // piecewise constant from there).
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
                        clock = clock.max(when);
                    }
                    _ => break,
                }
            }
            clock = arrival;
            let stream = Stream::new(
                StreamId(i as u64),
                VideoId(vid as u32),
                size,
                VIEW,
                client,
                arrival,
            );
            let (admission, touched) =
                controller.admit(stream, &mut engines, &map, arrival, &mut rng);
            for sid in touched.iter() {
                let e = &mut engines[sid.index()];
                e.advance_to(arrival);
                e.reschedule(arrival);
            }
            // Invariants after every decision — the oracle's auditor
            // (ledger vs stream sum, capacity, min-flow, staging bounds)
            // plus the controller-level placement rules below.
            if let Err(d) = audit_engines(sc.seed, arrival, &engines) {
                prop_assert!(false, "{}", d);
            }
            controller.stats.check();
            for e in &engines {
                e.check_invariants();
                prop_assert!(
                    e.active_count() <= sc.slots,
                    "server over its slot count"
                );
                for s in e.streams() {
                    prop_assert!(
                        map.holds(e.id(), s.video),
                        "stream {} for {} placed on non-holder {}",
                        s.id,
                        s.video,
                        e.id()
                    );
                    prop_assert!(
                        s.hops <= sc.hops,
                        "hop budget exceeded: {} > {}",
                        s.hops,
                        sc.hops
                    );
                }
            }
            match admission {
                Admission::WithMigration { .. } => {
                    prop_assert!(sc.migration_on, "migration fired while disabled");
                }
                Admission::WithChain { .. } => {
                    prop_assert!(
                        sc.migration_on && sc.chain2,
                        "chain fired outside a chain-2 policy"
                    );
                }
                _ => {}
            }
        }
        prop_assert_eq!(controller.stats.arrivals, sc.arrivals.len() as u64);
        if !sc.migration_on {
            prop_assert_eq!(controller.stats.accepted_via_migration, 0);
        }
        if !(sc.migration_on && sc.chain2) {
            prop_assert_eq!(controller.stats.chain2_migrations, 0);
        }
    }
}
