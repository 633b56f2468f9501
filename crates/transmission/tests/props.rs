//! Property tests for the transmission engine: allocation invariants over
//! arbitrary stream populations, and a random-walk soak of a full server
//! engine with invariant checking at every event.

use proptest::prelude::*;
use sct_cluster::ServerId;
use sct_media::{ClientProfile, VideoId};
use sct_simcore::{Rng, SimTime};
use sct_transmission::{
    allocate, allocate_incremental, AllocScratch, SchedulerKind, ServerEngine, Stream, StreamId,
    EPS_MB,
};

/// Description of one synthetic stream for the allocator properties.
#[derive(Clone, Debug)]
struct StreamSpec {
    size_mb: f64,
    staging_cap: f64,
    receive_cap_over_view: f64,
    progress: f64,
    paused: bool,
}

fn stream_spec() -> impl Strategy<Value = StreamSpec> {
    (
        30.0f64..3000.0,
        prop_oneof![Just(0.0), 1.0f64..2000.0, Just(f64::INFINITY)],
        1.0f64..20.0,
        0.0f64..0.95,
        prop::bool::ANY,
    )
        .prop_map(
            |(size_mb, staging_cap, receive_cap_over_view, progress, paused)| StreamSpec {
                size_mb,
                staging_cap,
                receive_cap_over_view,
                progress,
                paused,
            },
        )
}

const VIEW: f64 = 3.0;

/// Materialises the specs into streams advanced to `at`, with `progress`
/// of each object already sent (at the view rate, so the playhead and the
/// data agree).
fn build_streams(specs: &[StreamSpec], at: SimTime) -> Vec<Stream> {
    let mut streams: Vec<Stream> = specs
        .iter()
        .enumerate()
        .map(|(i, sp)| {
            Stream::new(
                StreamId(i as u64),
                VideoId(i as u32),
                sp.size_mb,
                VIEW,
                ClientProfile::new(sp.staging_cap, sp.receive_cap_over_view * VIEW),
                SimTime::ZERO,
            )
        })
        .collect();
    // March every stream to `at` at the view rate; limit progress so no
    // stream is finished.
    allocate(SchedulerKind::NoWorkahead, 1e9, SimTime::ZERO, &mut streams);
    for (s, sp) in streams.iter_mut().zip(specs) {
        let t = (sp.progress * sp.size_mb / VIEW).min(at.as_secs());
        s.advance_to(SimTime::from_secs(t));
        s.advance_to(at); // rate may still be set; zero the gap below
    }
    streams
}

/// Checks what a `reschedule(now)` returned, and the aggregate it left,
/// against the references: `next_event_after` and a fresh in-order sum.
fn check_against_references(engine: &ServerEngine, now: SimTime, wake: Option<SimTime>) {
    let reference = engine.next_event_after(now);
    prop_assert_eq!(
        wake,
        reference,
        "{:?}: wake {:?} vs next_event_after {:?}",
        engine.id(),
        wake,
        reference
    );
    prop_assert_eq!(engine.last_wake(), wake);
    let sum: f64 = engine.streams().iter().map(|s| s.rate()).sum();
    prop_assert_eq!(
        engine.allocated_mbps().to_bits(),
        sum.to_bits(),
        "allocated {} vs in-order sum {}",
        engine.allocated_mbps(),
        sum
    );
    engine.check_invariants();
}

/// Asserts two streams are the same stream in the same state, bit for bit.
fn same_stream(a: &Stream, b: &Stream) {
    prop_assert_eq!(a.id, b.id);
    prop_assert_eq!(
        a.sent_mb().to_bits(),
        b.sent_mb().to_bits(),
        "sent of {}",
        a.id
    );
    prop_assert_eq!(a.rate().to_bits(), b.rate().to_bits(), "rate of {}", a.id);
    prop_assert_eq!(
        a.played_secs().to_bits(),
        b.played_secs().to_bits(),
        "played of {}",
        a.id
    );
    prop_assert_eq!(a.is_paused(), b.is_paused());
}

/// Asserts two engines hold the same streams in the same order and the
/// same meters, sums and wake, bit for bit.
fn same_engine(a: &ServerEngine, b: &ServerEngine) {
    prop_assert_eq!(a.clock(), b.clock());
    prop_assert_eq!(a.active_count(), b.active_count());
    for (x, y) in a.streams().iter().zip(b.streams()) {
        same_stream(x, y);
    }
    prop_assert_eq!(a.transmitted_mb().to_bits(), b.transmitted_mb().to_bits());
    prop_assert_eq!(a.measured_mb().to_bits(), b.measured_mb().to_bits());
    prop_assert_eq!(a.committed_mbps().to_bits(), b.committed_mbps().to_bits());
    prop_assert_eq!(a.allocated_mbps().to_bits(), b.allocated_mbps().to_bits());
    // Both engines have walked, so the cached sum is a fresh in-order
    // sum: -0.0 on an empty server.
    let sum: f64 = a.streams().iter().map(|s| s.rate()).sum();
    prop_assert_eq!(a.allocated_mbps().to_bits(), sum.to_bits());
    prop_assert_eq!(a.last_wake(), b.last_wake());
}

/// Which of the cases `one_walk_matches_the_separate_walks` must reach
/// one walk trial reached.
#[derive(Clone, Copy, Debug, Default)]
struct Coverage {
    /// Wakes that reaped 0, 1, 2 and 3 or more streams.
    reaped: [bool; 4],
    /// A wake at the predicted time that reaped the last stream alone.
    last_index: bool,
    /// A wake before the predicted time: the predicted stream has not
    /// finished.
    early: bool,
    /// Steps whose measurement start fell before, inside and after them.
    measure: [bool; 3],
    /// A pause, a resume, and a toggle of a stream the engine lost.
    pause: [bool; 3],
    /// Streams admitted with zero, bounded and unbounded staging, and a
    /// replica copy.
    admitted: [bool; 4],
}

impl Coverage {
    fn merge(&mut self, other: Coverage) {
        let or = |a: &mut [bool], b: &[bool]| a.iter_mut().zip(b).for_each(|(x, y)| *x |= y);
        or(&mut self.reaped, &other.reaped);
        self.last_index |= other.last_index;
        self.early |= other.early;
        or(&mut self.measure, &other.measure);
        or(&mut self.pause, &other.pause);
        or(&mut self.admitted, &other.admitted);
    }

    fn complete(&self) -> bool {
        self.reaped.iter().all(|&b| b)
            && self.last_index
            && self.early
            && self.measure.iter().all(|&b| b)
            && self.pause.iter().all(|&b| b)
            && self.admitted.iter().all(|&b| b)
    }
}

/// One trial of `one_walk_matches_the_separate_walks`: a random walk per
/// scheduler drives `fused` through `admit`, `wake` and `set_paused`, and
/// a clone through the separate steps each of those stands for:
/// `advance_to`, then `reap_finished` and `reschedule`, or the mutation
/// on an engine already at `now`. Both must agree after every step.
fn one_walk_trial(seed: u64, slots: usize, measure_at: f64) -> Coverage {
    let mut rng = Rng::new(seed);
    let mut seen = Coverage::default();
    for kind in SchedulerKind::ALL {
        let spare = rng.range_f64(0.0, 3.0) * VIEW;
        let mut fused = ServerEngine::new(ServerId(0), slots as f64 * VIEW + spare, kind);
        fused.set_measure_start(SimTime::from_secs(measure_at));
        let mut separate = fused.clone();
        let mut clock = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut lost = None;
        let note_step = |seen: &mut Coverage, from: SimTime, to: SimTime| {
            if to > from {
                let m = SimTime::from_secs(measure_at);
                let at = if m <= from {
                    0
                } else if m >= to {
                    2
                } else {
                    1
                };
                seen.measure[at] = true;
            }
        };
        for step in 0..50 {
            let target = clock + rng.range_f64(0.0, 60.0);
            // The engine's own wakes up to the next action, at the
            // predicted time, before it, or after it.
            for _ in 0..40 {
                let Some(predicted) = fused.last_wake().filter(|&w| w <= target) else {
                    break;
                };
                let at = match rng.below(4) {
                    0 => {
                        seen.early = true;
                        clock + (predicted - clock) * rng.range_f64(0.0, 1.0)
                    }
                    1 => predicted + rng.range_f64(0.0, 40.0),
                    _ => predicted,
                };
                let last = fused.streams().last().map(|s| s.id);
                note_step(&mut seen, clock, at);
                let reaped = fused.wake(at);
                separate.advance_to(at);
                let reference = separate.reap_finished(at);
                separate.reschedule(at);
                prop_assert_eq!(reaped.len(), reference.len());
                for (x, y) in reaped.iter().zip(&reference) {
                    same_stream(x, y);
                }
                same_engine(&fused, &separate);
                seen.reaped[reaped.len().min(3)] = true;
                if at == predicted && reaped.len() == 1 && last == Some(reaped[0].id) {
                    seen.last_index = true;
                }
                if let Some(done) = reaped.first() {
                    lost = Some(done.id);
                }
                clock = clock.max(at);
            }
            // A late wake may have run past the action.
            let target = target.max(clock);
            let n = fused.active_count();
            note_step(&mut seen, clock, target);
            match rng.below(6) {
                // Admit one stream, or up to three identical ones, which
                // finish together when nothing sets them apart.
                0..=2 if fused.can_admit(2.0 * VIEW) => {
                    let copies = if rng.chance(0.3) { 1 + rng.below(3) } else { 1 };
                    let size = rng.range_f64(30.0, 600.0);
                    let which = rng.below(3);
                    let staging = [0.0, rng.range_f64(1.0, 500.0), f64::INFINITY][which];
                    let client = ClientProfile::new(staging, rng.range_f64(VIEW, 10.0 * VIEW));
                    let copy = step % 17 == 16;
                    for _ in 0..copies {
                        if !fused.can_admit(2.0 * VIEW) {
                            break;
                        }
                        let stream = if copy {
                            seen.admitted[3] = true;
                            let id = StreamId(next_id);
                            Stream::replica_copy(id, VideoId(0), size, 2.0 * VIEW, target)
                        } else {
                            seen.admitted[which] = true;
                            Stream::new(StreamId(next_id), VideoId(0), size, VIEW, client, target)
                        };
                        next_id += 1;
                        let wake = fused.admit(stream.clone(), target);
                        separate.advance_to(target);
                        prop_assert_eq!(wake, separate.admit(stream, target));
                        same_engine(&fused, &separate);
                    }
                }
                // Pause or resume a stream, or one the engine no longer holds.
                3 | 4 if n > 0 => {
                    let stale = rng.chance(0.2);
                    let (id, paused) = match lost {
                        Some(id) if stale => {
                            seen.pause[2] = true;
                            (id, true)
                        }
                        _ => {
                            let s = &fused.streams()[rng.below(n)];
                            seen.pause[usize::from(s.is_paused())] = true;
                            (s.id, !s.is_paused())
                        }
                    };
                    let found = fused.set_paused(id, paused, target);
                    separate.advance_to(target);
                    prop_assert_eq!(found, separate.set_paused(id, paused, target));
                    same_engine(&fused, &separate);
                }
                // Migrate a stream out: the same separate steps on both.
                5 if n > 0 => {
                    let id = fused.streams()[rng.below(n)].id;
                    for e in [&mut fused, &mut separate] {
                        e.advance_to(target);
                        e.remove_stream(id, target);
                        e.reschedule(target);
                    }
                    same_engine(&fused, &separate);
                }
                _ => {}
            }
            clock = clock.max(target);
        }
    }
    seen
}

/// The trials `one_walk_matches_the_separate_walks` relies on reach every
/// case it names: each scheduler sees pauses, resumes and a stale toggle,
/// zero, bounded and unbounded staging and a replica copy, wakes that
/// reap 0 to 3 streams, the last stream reaped in place, early wakes, and
/// steps before, across and after the measurement start.
#[test]
fn one_walk_trials_reach_every_case() {
    let mut seen = Coverage::default();
    for seed in 0..48 {
        let slots = 2 + (seed as usize * 7) % 14;
        seen.merge(one_walk_trial(seed, slots, 40.0 + 30.0 * seed as f64));
    }
    assert!(seen.complete(), "{seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one-walk engine against the separate walks it fuses, with
    /// `to_bits` equality of every stream's sent, rate and played values,
    /// both meters, the committed and allocated sums (-0.0 on an empty
    /// server), the reaped streams in order, and the wake. The trials
    /// cover every scheduler, pauses, zero, bounded and unbounded
    /// staging, a replica copy, a measurement start before, inside and
    /// after a step, wakes that reap 0 to 3 streams, a finisher at the
    /// last index and wakes the last fold mispredicted
    /// (`one_walk_trials_reach_every_case` checks that they do).
    #[test]
    fn one_walk_matches_the_separate_walks(
        seed in any::<u64>(),
        slots in 2usize..16,
        measure_at in 0.0f64..1500.0,
    ) {
        one_walk_trial(seed, slots, measure_at);
    }

    /// For every scheduler: capacity conservation, minimum flow for
    /// playing streams, receive caps respected, and full buffers excluded
    /// from workahead.
    #[test]
    fn allocation_invariants(
        specs in prop::collection::vec(stream_spec(), 1..40),
        spare_slots in 0.0f64..40.0,
    ) {
        // Build unpaused first (Stream::new starts playing), then pause.
        let now = SimTime::from_secs(1.0);
        let mut base = build_streams(&specs, now);
        for (s, sp) in base.iter_mut().zip(&specs) {
            if sp.paused {
                s.pause(now);
            }
        }
        let committed: f64 = base.iter().map(|_| VIEW).sum();
        let capacity = committed + spare_slots * VIEW;
        for kind in SchedulerKind::ALL {
            let mut streams = base.clone();
            let idle = allocate(kind, capacity, now, &mut streams);
            let total: f64 = streams.iter().map(|s| s.rate()).sum();
            let n = streams.len() as f64;
            prop_assert!(
                total + idle <= capacity + EPS_MB * (n + 1.0),
                "{kind:?} overcommitted: {total} + {idle} > {capacity}"
            );
            for s in &streams {
                if s.is_paused() {
                    // Paused streams have no minimum; and a paused+full
                    // stream must receive nothing.
                    if s.buffer_full(now) {
                        prop_assert!(s.rate() <= EPS_MB);
                    }
                } else {
                    prop_assert!(
                        s.rate() >= VIEW - EPS_MB,
                        "{kind:?} broke min-flow: rate {}",
                        s.rate()
                    );
                }
                prop_assert!(
                    s.rate() <= s.client.receive_cap_mbps + EPS_MB,
                    "{kind:?} broke receive cap"
                );
                if s.buffer_full(now) && !s.is_paused() {
                    prop_assert!(
                        s.rate() <= VIEW + EPS_MB,
                        "{kind:?} gave workahead to a full buffer"
                    );
                }
            }
            // EFTF and LFF allocate greedily: if any eligible stream still
            // has headroom, no bandwidth may sit idle.
            if idle > EPS_MB * (n + 1.0)
                && matches!(kind, SchedulerKind::Eftf | SchedulerKind::LatestFinishFirst)
            {
                for s in &streams {
                    if !s.buffer_full(now) {
                        prop_assert!(
                            s.rate() >= s.client.receive_cap_mbps - EPS_MB * (n + 1.0),
                            "{kind:?} left {idle} idle while a stream had headroom"
                        );
                    }
                }
            }
        }
    }

    /// Random-walk soak: a server takes random admissions at random times
    /// and processes its own events; every step must satisfy the engine
    /// invariants, and total transmitted data must equal the sum of stream
    /// progress.
    #[test]
    fn engine_random_walk(seed in any::<u64>(), slots in 2usize..20) {
        let mut rng = Rng::new(seed);
        let capacity = slots as f64 * VIEW;
        let mut engine = ServerEngine::new(ServerId(0), capacity, SchedulerKind::Eftf);
        let mut clock = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut reaped_mb = 0.0f64;
        for _ in 0..60 {
            let arrival = clock + rng.range_f64(0.0, 120.0);
            // Drain engine events up to the arrival.
            while let Some(when) = engine.next_event_after(clock) {
                if when > arrival {
                    break;
                }
                engine.advance_to(when);
                reaped_mb += engine
                    .reap_finished(when)
                    .iter()
                    .map(|s| s.sent_mb())
                    .sum::<f64>();
                engine.reschedule(when);
                engine.check_invariants();
                clock = when;
            }
            engine.advance_to(arrival);
            reaped_mb += engine
                .reap_finished(arrival)
                .iter()
                .map(|s| s.sent_mb())
                .sum::<f64>();
            clock = arrival;
            if engine.can_admit(VIEW) {
                let size = rng.range_f64(30.0, 600.0);
                let cap = if rng.chance(0.3) {
                    0.0
                } else {
                    rng.range_f64(10.0, 500.0)
                };
                engine.admit(
                    Stream::new(
                        StreamId(next_id),
                        VideoId(next_id as u32),
                        size,
                        VIEW,
                        ClientProfile::new(cap, 30.0),
                        arrival,
                    ),
                    arrival,
                );
                next_id += 1;
            } else {
                engine.reschedule(arrival);
            }
            engine.check_invariants();
        }
        // Conservation: transmitted equals reaped plus in-flight progress.
        let in_flight: f64 = engine.streams().iter().map(|s| s.sent_mb()).sum();
        prop_assert!(
            (engine.transmitted_mb() - (reaped_mb + in_flight)).abs()
                < 1e-6 * (1.0 + engine.transmitted_mb()),
            "conservation violated: {} vs {} + {}",
            engine.transmitted_mb(),
            reaped_mb,
            in_flight
        );
    }

    /// Incremental repair vs the full allocator: a random event walk
    /// (arrivals, departures, pauses, resumes, time advances) over a
    /// persistent stream population, with ONE scratch surviving the whole
    /// walk — so the cached spare order crosses every kind of mutation,
    /// including `swap_remove` index churn. After every event the
    /// incremental path must produce bit-identical rate vectors and idle
    /// bandwidth to the full sort, for every scheduler.
    #[test]
    fn incremental_allocation_matches_full(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let capacity = 32.0 * VIEW;
        for kind in SchedulerKind::ALL {
            let mut scratch = AllocScratch::default();
            let mut streams: Vec<Stream> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut next_id = 0u64;
            for _ in 0..80 {
                // Advance sim time; reap anything that finished en route.
                now += rng.range_f64(0.0, 15.0);
                for s in streams.iter_mut() {
                    s.advance_to(now);
                }
                streams.retain(|s| !s.is_finished());
                // One random structural event.
                let committed: f64 = streams
                    .iter()
                    .filter(|s| !s.is_paused())
                    .map(|s| s.view_rate)
                    .sum();
                match rng.below(4) {
                    0 | 3 if committed + VIEW <= capacity && streams.len() < 30 => {
                        let staging = if rng.chance(0.3) {
                            0.0
                        } else {
                            rng.range_f64(1.0, 500.0)
                        };
                        streams.push(Stream::new(
                            StreamId(next_id),
                            VideoId(next_id as u32),
                            rng.range_f64(30.0, 600.0),
                            VIEW,
                            ClientProfile::new(staging, rng.range_f64(VIEW, 10.0 * VIEW)),
                            now,
                        ));
                        next_id += 1;
                    }
                    1 if !streams.is_empty() => {
                        // Same index churn as the engine's reap path.
                        let i = rng.below(streams.len());
                        streams.swap_remove(i);
                    }
                    2 if !streams.is_empty() => {
                        let i = rng.below(streams.len());
                        if streams[i].is_paused() {
                            streams[i].resume(now);
                        } else {
                            streams[i].pause(now);
                        }
                    }
                    _ => {}
                }
                let mut full = streams.clone();
                let idle_inc =
                    allocate_incremental(kind, capacity, now, &mut streams, &mut scratch);
                let idle_full = allocate(kind, capacity, now, &mut full);
                prop_assert_eq!(
                    idle_inc.to_bits(),
                    idle_full.to_bits(),
                    "{:?}: idle diverged: {} vs {}",
                    kind,
                    idle_inc,
                    idle_full
                );
                for (inc, reference) in streams.iter().zip(&full) {
                    prop_assert_eq!(
                        inc.rate().to_bits(),
                        reference.rate().to_bits(),
                        "{:?} stream {:?} diverged: {} vs {}",
                        kind,
                        inc.id,
                        inc.rate(),
                        reference.rate()
                    );
                }
            }
        }
    }

    /// The engine's two-pass `reschedule` against the references it
    /// stands in for, checked with `prop_assert` so release builds (no
    /// debug asserts) check it too. A random walk per scheduler admits
    /// streams with zero, bounded and unbounded staging and one replica
    /// copy, pauses, resumes and migrates them out, and drains the
    /// engine's own wakes. After every `reschedule(now)`, including the
    /// one inside `admit`, the wake must equal `next_event_after(now)`'s
    /// time and the allocated-rate aggregate must equal the in-order sum
    /// of the rates bit for bit: -0.0 on an empty server, as
    /// `Iterator::sum` gives.
    #[test]
    fn reschedule_matches_its_references(seed in any::<u64>(), slots in 2usize..24) {
        let mut rng = Rng::new(seed);
        for kind in SchedulerKind::ALL {
            let spare = rng.range_f64(0.0, 3.0) * VIEW;
            let mut engine = ServerEngine::new(ServerId(0), slots as f64 * VIEW + spare, kind);
            let mut clock = SimTime::ZERO;
            let wake = engine.reschedule(clock);
            prop_assert_eq!(wake, None);
            prop_assert_eq!(engine.allocated_mbps().to_bits(), (-0.0f64).to_bits());
            let copy_at = rng.below(40);
            let mut next_id = 0u64;
            for step in 0..60 {
                let target = clock + rng.range_f64(0.0, 90.0);
                // Drain the engine's own wakes up to the next action.
                while let Some(when) = engine.last_wake().filter(|&w| w <= target) {
                    engine.advance_to(when);
                    engine.reap_finished(when);
                    let wake = engine.reschedule(when);
                    check_against_references(&engine, when, wake);
                }
                engine.advance_to(target);
                engine.reap_finished(target);
                clock = target;
                let n = engine.active_count();
                let wake = match rng.below(5) {
                    0 | 1 if step == copy_at && engine.can_admit(2.0 * VIEW) => {
                        let copy = Stream::replica_copy(
                            StreamId(next_id),
                            VideoId(next_id as u32),
                            rng.range_f64(30.0, 600.0),
                            2.0 * VIEW,
                            clock,
                        );
                        next_id += 1;
                        engine.admit(copy, clock)
                    }
                    0 | 1 if engine.can_admit(VIEW) => {
                        let staging = match rng.below(3) {
                            0 => 0.0,
                            1 => rng.range_f64(1.0, 500.0),
                            _ => f64::INFINITY,
                        };
                        let stream = Stream::new(
                            StreamId(next_id),
                            VideoId(next_id as u32),
                            rng.range_f64(30.0, 600.0),
                            VIEW,
                            ClientProfile::new(staging, rng.range_f64(VIEW, 10.0 * VIEW)),
                            clock,
                        );
                        next_id += 1;
                        engine.admit(stream, clock)
                    }
                    2 if n > 0 => {
                        let s = &engine.streams()[rng.below(n)];
                        let (id, paused) = (s.id, s.is_paused());
                        prop_assert!(engine.set_paused(id, !paused, clock));
                        engine.reschedule(clock)
                    }
                    3 if n > 0 => {
                        let id = engine.streams()[rng.below(n)].id;
                        prop_assert!(engine.remove_stream(id, clock).is_some());
                        engine.reschedule(clock)
                    }
                    _ => engine.reschedule(clock),
                };
                check_against_references(&engine, clock, wake);
            }
        }
    }

    /// Migration mid-flight preserves stream progress exactly: the same
    /// schedule split across two engines transmits the same data.
    #[test]
    fn migration_preserves_progress(
        size in 100.0f64..1000.0,
        split_frac in 0.1f64..0.9,
    ) {
        let client = ClientProfile::new(f64::INFINITY, 30.0);
        let mk = || Stream::new(StreamId(1), VideoId(0), size, VIEW, client, SimTime::ZERO);
        // Reference: one engine all the way.
        let mut a = ServerEngine::new(ServerId(0), 90.0, SchedulerKind::Eftf);
        a.admit(mk(), SimTime::ZERO);
        let done_ref = a.next_event_after(SimTime::ZERO).unwrap();
        // Split: move the stream at split_frac of its transfer.
        let mut b1 = ServerEngine::new(ServerId(0), 90.0, SchedulerKind::Eftf);
        let mut b2 = ServerEngine::new(ServerId(1), 90.0, SchedulerKind::Eftf);
        b1.admit(mk(), SimTime::ZERO);
        let mid = SimTime::from_secs(done_ref.as_secs() * split_frac);
        b1.advance_to(mid);
        let moved = b1.remove_stream(StreamId(1), mid).unwrap();
        b2.advance_to(mid);
        b2.admit(moved, mid);
        let done_split = b2.next_event_after(mid).unwrap();
        prop_assert!(
            (done_split.as_secs() - done_ref.as_secs()).abs() < 1e-6,
            "migration changed the completion time: {done_split} vs {done_ref}"
        );
    }
}
