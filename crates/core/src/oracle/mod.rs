//! Differential reference simulator and invariant auditor.
//!
//! The production [`crate::simulation::Simulation`] is *event-driven*:
//! engines integrate piecewise-linear stream state exactly between
//! predicted events, and each server keeps one re-armable wake slot. That
//! machinery is efficient but subtle — an allocator bug, a mis-predicted
//! wake, or a commitment-ledger drift silently corrupts results without
//! tripping any single assertion.
//!
//! This module provides the classic antidote (see ns-2/ns-3 validation
//! practice): a **deliberately simple reference simulator** that replays
//! the same trace with an independently written allocator and an
//! independent integrator, plus an **invariant auditor** that
//! cross-checks the two at every event boundary:
//!
//! * per-stream `sent_mb`, allocated rate, staging-buffer occupancy;
//! * per-server `committed_mbps` and capacity;
//! * global data conservation (Σ transmitted == Σ reference deltas);
//! * the minimum-flow guarantee (every unpaused stream ≥ `b_view`);
//! * admission legality (a `Direct` must come from the eligible holder
//!   set; a rejection implies that set was empty);
//! * replication-copy traces: a cluster-sourced copy is mirrored as a
//!   reference stream at the copy rate, and its `CopyDone` must install
//!   the replica that later admissions are checked against;
//! * waitlist service: rejected viewers queue with bounded patience and
//!   re-enter as fresh streams after departures, placed directly on a
//!   legal holder, as the event loop serves them;
//! * two-step migration chains ([`Admission::WithChain`]): both hops are
//!   checked against the deterministic plan the controller's depth-2
//!   search must have found on the pre-admission state;
//! * every server's cached wake ([`ServerEngine::last_wake`]) against the
//!   reference's own earliest completion or buffer fill on that server.
//!
//! [`run_differential`] works the engines the way the event loop does,
//! so the protocol the loop relies on is what gets checked. Engines
//! integrate lazily: the drain wakes the server with the earliest cached
//! wake through [`ServerEngine::wake`], trace operations call the
//! controller, the engines and the waitlist as the loop's handlers do,
//! and no engine is advanced or re-solved for the oracle's sake. The
//! checks read each stream at the event time by projecting it from its
//! engine's clock (the projection [`crate::StateView`] uses).
//!
//! Between trace events every per-stream rate is constant, so sent and
//! played volumes are piecewise linear in time. The default
//! [`RefStepper::Exact`] integrator exploits that: one closed-form slice
//! per event boundary, sub-sliced at stream-finish and playout-end
//! crossings found by solving the linear crossing time (see
//! [`exact_slice`]). Replay cost is therefore O(#events), independent of
//! simulated duration — hours-long drains cost a handful of slices. The
//! original fixed-Δt integrator survives as [`RefStepper::Naive`] purely
//! as a spot-check, reached through [`run_differential_with_stepper`];
//! the clamped per-slice updates are exact for any Δt, so the two must
//! agree to float rounding, which the agreement tests assert.
//!
//! The first divergence aborts the replay and is reported with a
//! replayable **(seed, time, stream)** triple, so
//! `OracleScenario::generate(seed)` reproduces the failure exactly.
//! [`shrink_divergence`] then delta-debugs the scenario's trace to a
//! locally minimal reproduction, which is what the scenario fuzzer
//! reports on failure.
//!
//! Only compiled with the `differential` feature (which also unlocks the
//! introspection hooks in `sct-transmission` / `sct-admission`).

mod legality;
mod mirror;
mod scenario;
mod stepper;

pub use legality::{audit_engines, Divergence, DivergenceKind};
pub use scenario::{shrink_divergence, shrink_trace, OracleScenario, TraceOp};
pub use stepper::{
    exact_slice, RefStepper, SliceState, EPS_SECS, ORACLE_DT_SECS, ORACLE_TOL_MB, ORACLE_TOL_MBPS,
};

use legality::{cross_check, diverge};
use mirror::{mirror_relocation, RefCluster, RefStream};

use sct_admission::{
    Admission, AssignmentPolicy, Controller, CopyLaunch, CopySource, EvacuationPolicy,
    ReplicationManager, Waitlist,
};
use sct_cluster::{ClusterSpec, ReplicaMap, ServerId};
use sct_media::ClientProfile;
use sct_simcore::{Rng, SimTime};
use sct_transmission::{ServerEngine, Stream, StreamId, EPS_MB};

// ---------------------------------------------------------------------------
// The differential driver
// ---------------------------------------------------------------------------

/// Counters from a completed divergence-free replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Requests in the trace.
    pub arrivals: u64,
    /// Requests placed directly.
    pub accepted_direct: u64,
    /// Requests placed by migrating a victim (single hop).
    pub accepted_via_migration: u64,
    /// Arrivals admitted [`Admission::WithChain`].
    pub accepted_via_chain: u64,
    /// Requests turned away.
    pub rejected: u64,
    /// Streams that finished transmission during the replay (viewer
    /// streams only; finished copies count under `copies_completed`).
    pub completions: u64,
    /// Pause/resume operations that landed on a live stream (no-op
    /// pauses against finished or rejected streams are not counted).
    pub pauses_applied: u64,
    /// Replica copies the manager actually launched.
    pub copies_started: u64,
    /// Copy streams that finished and installed their replica.
    pub copies_completed: u64,
    /// Rejected requests parked on the waitlist.
    pub waitlisted: u64,
    /// Waiters later admitted off the queue (batched viewers included).
    pub waiters_served: u64,
    /// Waiters dropped because their patience ran out.
    pub waiters_expired: u64,
    /// Engine wakes the replay drove through [`ServerEngine::wake`].
    pub wakes: u64,
    /// Wakes that reaped two or more streams at once.
    pub multi_reap_wakes: u64,
    /// Cross-checks performed (one per event boundary).
    pub checks: u64,
    /// Integration slices the reference performed over the whole replay.
    /// Under [`RefStepper::Exact`] this is O(#events), independent of
    /// simulated duration; under [`RefStepper::Naive`] it grows like
    /// duration / Δt.
    pub ref_slices: u64,
}

/// A deliberately injected allocator fault, for oracle self-tests: from
/// accepted arrival number `at_arrival` onward, the stream admitted by
/// that arrival has its rate silently perturbed by `delta_mbps` after
/// every reallocation, exactly as a systematically buggy allocator would,
/// starting with the reallocation that admits it. (A one-shot
/// perturbation can be healed by the next reallocation with no
/// observable data drift — correctly nothing to report.) The oracle must
/// localize the corruption.
#[derive(Clone, Copy, Debug)]
pub struct FaultInjection {
    /// Zero-based index of the accepted arrival whose stream to corrupt.
    pub at_arrival: u64,
    /// Rate perturbation in Mb/s, re-applied after each reallocation.
    pub delta_mbps: f64,
}

/// Replays `scenario` through the event-driven engines + controller while
/// the reference integrates alongside, cross-checking at every event
/// boundary. Returns the first [`Divergence`] found, or the replay
/// counters if the two simulators agree throughout. Integrates with
/// [`RefStepper::Exact`].
pub fn run_differential(scenario: &OracleScenario) -> Result<OracleOutcome, Box<Divergence>> {
    run_differential_full(scenario, None, RefStepper::Exact)
}

/// [`run_differential`] with an optional injected allocator fault.
pub fn run_differential_with_fault(
    scenario: &OracleScenario,
    fault: Option<FaultInjection>,
) -> Result<OracleOutcome, Box<Divergence>> {
    run_differential_full(scenario, fault, RefStepper::Exact)
}

/// [`run_differential`] under an explicit reference stepper, for the
/// exact-vs-naive agreement and slice-count tests.
pub fn run_differential_with_stepper(
    scenario: &OracleScenario,
    stepper: RefStepper,
) -> Result<OracleOutcome, Box<Divergence>> {
    run_differential_full(scenario, None, stepper)
}

fn run_differential_full(
    scenario: &OracleScenario,
    fault: Option<FaultInjection>,
    stepper: RefStepper,
) -> Result<OracleOutcome, Box<Divergence>> {
    let seed = scenario.seed;
    let view = scenario.view_rate;
    let capacity = scenario.slots_per_server as f64 * view;
    if let Some(spec) = &scenario.replication {
        assert_eq!(
            spec.source,
            CopySource::Cluster,
            "the oracle only mirrors cluster-sourced copies (tertiary \
             transfers consume no engine bandwidth to cross-check)"
        );
    }
    let mut engines: Vec<ServerEngine> = (0..scenario.n_servers as u16)
        .map(|i| ServerEngine::new(ServerId(i), capacity, scenario.scheduler))
        .collect();
    let mut map = ReplicaMap::from_holders(scenario.n_servers, scenario.holders.clone());
    // Only the disk ledger matters to replication targeting; make it a
    // non-constraint so target choice stays purely load-driven.
    let cluster_spec = ClusterSpec::homogeneous(scenario.n_servers, capacity, 1_000.0);
    let mut controller =
        Controller::new(AssignmentPolicy::LeastLoaded, scenario.migration_policy());
    controller.evacuation = EvacuationPolicy {
        best_effort_restart: scenario.restart_on,
    };
    let mut replication = scenario.replication.map(ReplicationManager::new);
    let mut waitlist = scenario.waitlist.map(Waitlist::new);
    let mut rng = Rng::new(seed).fork(0xD1FF);
    let mut reference = RefCluster::new(scenario.n_servers, capacity, scenario.scheduler, stepper);
    let mut out = OracleOutcome::default();
    let mut accepted_seen: u64 = 0;
    let mut next_id: u64 = 0;
    // Copy streams live in their own id space so viewer stream ids keep
    // equalling arrival indices (which pause targets rely on).
    let mut copy_next_id: u64 = 1 << 32;
    // Armed once the faulty arrival is admitted: (stream, perturbation).
    let mut corruption: Option<(StreamId, f64)> = None;

    // Closes an event boundary: re-applies the injected fault, as a buggy
    // allocator would after reallocating, then cross-checks.
    macro_rules! check {
        ($now:expr) => {
            if let Some((sid, delta)) = corruption {
                for e in engines.iter_mut() {
                    e.inject_rate_error(sid, delta);
                }
            }
            out.checks += 1;
            cross_check(seed, $now, &engines, &reference)?;
        };
    }

    // Serve the wait queue after a slot may have freed, as the event loop
    // does: expire the impatient first (`try_serve` asserts the queue
    // holds no stale waiters), place waiters directly in FIFO order, and
    // mirror every non-batched serve as a fresh reference stream — its
    // parameters read back from the engine, so the mirror observes rather
    // than re-derives.
    macro_rules! serve_waitlist {
        ($now:expr) => {
            if let Some(wl) = waitlist.as_mut() {
                out.waiters_expired += wl.expire($now) as u64;
                let serve = wl.try_serve(&mut engines, &map, $now);
                for w in &serve.served {
                    out.waiters_served += 1;
                    if !map.holds(w.server, w.video) {
                        diverge!(
                            seed,
                            $now,
                            Some(w.id),
                            Some(w.server),
                            DivergenceKind::Admission,
                            "waiter served by a non-holder of its video"
                        );
                    }
                    if !w.batched {
                        let Some(s) = engines[w.server.index()]
                            .streams()
                            .iter()
                            .find(|s| s.id == w.id)
                        else {
                            diverge!(
                                seed,
                                $now,
                                Some(w.id),
                                Some(w.server),
                                DivergenceKind::StreamSet,
                                "served waiter missing from its engine"
                            );
                        };
                        reference.streams.push(RefStream::new(
                            w.id,
                            w.video,
                            w.server.index(),
                            s.size_mb,
                            s.view_rate,
                            s.client,
                        ));
                    }
                }
                for sid in &serve.touched {
                    reference.reallocate(sid.index());
                }
            }
        };
    }

    // Drain engine events (completions / buffer-full reallocations) up to
    // `horizon`, keeping the reference in lock-step: wake the server with
    // the earliest cached wake, as the event loop pops its wake slots.
    macro_rules! drain_until {
        ($horizon:expr) => {
            loop {
                let next = engines
                    .iter()
                    .filter_map(|e| e.last_wake().map(|w| (w, e.id())))
                    .min_by(|a, b| a.0.cmp(&b.0));
                match next {
                    Some((when, id)) if when <= $horizon => {
                        reference.integrate_to(when);
                        let reaped = engines[id.index()].wake(when);
                        out.wakes += 1;
                        out.multi_reap_wakes += u64::from(reaped.len() >= 2);
                        for done in &reaped {
                            if done.is_copy() {
                                // CopyDone: the replica must be known to
                                // the manager and lands in the shared map,
                                // widening later admission candidate sets.
                                out.copies_completed += 1;
                                let known = replication
                                    .as_mut()
                                    .and_then(|m| m.on_copy_finished(done.id, &mut map));
                                if known.is_none() {
                                    diverge!(
                                        seed,
                                        when,
                                        Some(done.id),
                                        Some(id),
                                        DivergenceKind::StreamSet,
                                        "finished copy unknown to the replication manager"
                                    );
                                }
                            } else {
                                out.completions += 1;
                            }
                            match reference.remove(done.id) {
                                Some(r) if r.remaining_mb() <= ORACLE_TOL_MB + EPS_MB => {}
                                Some(r) => diverge!(
                                    seed,
                                    when,
                                    Some(done.id),
                                    Some(id),
                                    DivergenceKind::SentMb,
                                    "engine finished it, reference still owes {} Mb",
                                    r.remaining_mb()
                                ),
                                None => diverge!(
                                    seed,
                                    when,
                                    Some(done.id),
                                    Some(id),
                                    DivergenceKind::StreamSet,
                                    "finished stream unknown to the reference"
                                ),
                            }
                        }
                        reference.reallocate(id.index());
                        if !reaped.is_empty() {
                            // A departure freed capacity somewhere.
                            serve_waitlist!(when);
                        }
                        check!(when);
                    }
                    _ => break,
                }
            }
        };
    }

    let trace = scenario.trace.clone();
    for (when, op) in &trace {
        let now = *when;
        drain_until!(now);
        reference.integrate_to(now);
        match op {
            TraceOp::Arrival { video, size_mb } => {
                out.arrivals += 1;
                let id = StreamId(next_id);
                next_id += 1;
                let stream = Stream::new(id, *video, *size_mb, view, scenario.client, now);
                let candidates = controller.direct_candidates(*video, view, &engines, &map);
                let expected_direct = candidates
                    .iter()
                    .copied()
                    .min_by_key(|s| (engines[s.index()].active_count(), *s));
                // The deterministic depth-2 plan on the state the
                // controller's own search will see: a `WithChain` outcome
                // must equal it exactly, and a rejection under a chain-2
                // policy implies none existed. Only consulted when no
                // direct slot exists, and then `Controller::admit` brings
                // the request's holders up to `now` before searching, so
                // the plan is computed on a clone advanced the same way.
                let expected_chain =
                    if scenario.migration_on && scenario.chain2_on && expected_direct.is_none() {
                        let mut searched = engines.clone();
                        for &h in map.holders(*video) {
                            searched[h.index()].advance_to(now);
                        }
                        controller.chain2_plan(*video, &searched, &map, now)
                    } else {
                        None
                    };
                let (admission, touched) =
                    controller.admit(stream, &mut engines, &map, now, &mut rng);
                match admission {
                    Admission::Direct { server } => {
                        out.accepted_direct += 1;
                        if expected_direct != Some(server) {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                Some(server),
                                DivergenceKind::Admission,
                                "direct to {server}, least-loaded eligible was {expected_direct:?}"
                            );
                        }
                    }
                    Admission::WithMigration { server, victim, to } => {
                        out.accepted_via_migration += 1;
                        if !scenario.migration_on {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                Some(server),
                                DivergenceKind::Admission,
                                "migration fired while disabled"
                            );
                        }
                        if expected_direct.is_some() {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                Some(server),
                                DivergenceKind::Admission,
                                "migrated although a direct slot existed on {expected_direct:?}"
                            );
                        }
                        mirror_relocation(seed, now, &mut reference, &map, victim, server, to)?;
                    }
                    Admission::WithChain {
                        server,
                        first,
                        second,
                    } => {
                        out.accepted_via_chain += 1;
                        if scenario.migration_policy().max_chain_length < 2 {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                Some(server),
                                DivergenceKind::Admission,
                                "chain migration under a chain-1 policy"
                            );
                        }
                        if expected_direct.is_some() {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                Some(server),
                                DivergenceKind::Admission,
                                "chained although a direct slot existed on {expected_direct:?}"
                            );
                        }
                        if expected_chain != Some((server, first, second)) {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                Some(server),
                                DivergenceKind::Admission,
                                "chain {:?} does not match the deterministic plan {:?}",
                                (server, first, second),
                                expected_chain
                            );
                        }
                        // The controller clears room on `first.1` before
                        // moving the first victim there; mirror the hops
                        // in the same inner-first order so each
                        // relocation's placement checks see a legal
                        // intermediate state.
                        mirror_relocation(
                            seed,
                            now,
                            &mut reference,
                            &map,
                            second.0,
                            first.1,
                            second.1,
                        )?;
                        mirror_relocation(
                            seed,
                            now,
                            &mut reference,
                            &map,
                            first.0,
                            server,
                            first.1,
                        )?;
                    }
                    Admission::Rejected => {
                        out.rejected += 1;
                        if let Some(s) = expected_direct {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                Some(s),
                                DivergenceKind::Admission,
                                "rejected although {s} had a free slot"
                            );
                        }
                        if expected_chain.is_some() {
                            diverge!(
                                seed,
                                now,
                                Some(id),
                                None,
                                DivergenceKind::Admission,
                                "rejected although the two-step chain {expected_chain:?} \
                                 was available"
                            );
                        }
                        // A turned-away viewer queues up (bounced when the
                        // queue is full); a later departure re-admits it.
                        if let Some(wl) = waitlist.as_mut() {
                            wl.expire(now);
                            if wl
                                .enqueue(id, *video, *size_mb, view, scenario.client, now)
                                .is_some()
                            {
                                out.waitlisted += 1;
                            }
                        }
                    }
                }
                if let Admission::Direct { server }
                | Admission::WithMigration { server, .. }
                | Admission::WithChain { server, .. } = admission
                {
                    reference.streams.push(RefStream::new(
                        id,
                        *video,
                        server.index(),
                        *size_mb,
                        view,
                        scenario.client,
                    ));
                }
                for sid in touched.iter() {
                    reference.reallocate(sid.index());
                }
                if admission.accepted() {
                    // The faulty arrival's own reallocation is the first
                    // to corrupt its rate, so this boundary's check sees
                    // it: a lazy engine integrates a rate only when it is
                    // next walked, which may heal it first.
                    if let Some(f) = fault.filter(|f| f.at_arrival == accepted_seen) {
                        corruption = Some((id, f.delta_mbps));
                    }
                    accepted_seen += 1;
                }
                check!(now);
            }
            TraceOp::Fail(server) => {
                let taken = engines[server.index()].fail(now);
                let taken_ids: Vec<StreamId> = taken.iter().map(|s| s.id).collect();
                let evac = controller.evacuate(taken, *server, &mut engines, &map, now);
                reference.online[server.index()] = false;
                // Mirror each victim's fate by observing where it landed.
                for vid in taken_ids {
                    let landed = engines
                        .iter()
                        .position(|e| e.streams().iter().any(|s| s.id == vid));
                    let restarted = evac.restarted.iter().any(|&(id, _)| id == vid);
                    match landed {
                        Some(target) => {
                            if restarted {
                                if !scenario.restart_on {
                                    diverge!(
                                        seed,
                                        now,
                                        Some(vid),
                                        Some(*server),
                                        DivergenceKind::Admission,
                                        "evacuation restarted a stream with the \
                                         best-effort policy off"
                                    );
                                }
                            } else if !scenario.migration_on {
                                diverge!(
                                    seed,
                                    now,
                                    Some(vid),
                                    Some(*server),
                                    DivergenceKind::Admission,
                                    "evacuation relocated a stream with migration off"
                                );
                            }
                            let Some(vi) = reference.find(vid) else {
                                diverge!(
                                    seed,
                                    now,
                                    Some(vid),
                                    Some(*server),
                                    DivergenceKind::StreamSet,
                                    "evacuated stream unknown to the reference"
                                );
                            };
                            if restarted {
                                // Best-effort restart: the client rewinds
                                // to its playback point, so the staged
                                // workahead leaves the live stream and is
                                // retransmitted by the new server. The
                                // flushed megabits stay in the conservation
                                // ledger — the dead server really did send
                                // them.
                                let r = &mut reference.streams[vi];
                                let viewed = r.played_secs * r.view_rate;
                                let flushed = (r.sent_mb - viewed).max(0.0);
                                reference.retired_mb += flushed;
                                r.sent_mb = viewed;
                                r.sent_comp = 0.0;
                                r.server = target;
                            } else {
                                reference.streams[vi].server = target;
                            }
                        }
                        None => {
                            // Dropped (or it had just finished): the viewer
                            // is gone either way.
                            reference.remove(vid);
                        }
                    }
                }
                for sid in &evac.touched {
                    reference.reallocate(sid.index());
                }
                check!(now);
            }
            TraceOp::Repair(server) => {
                engines[server.index()].repair(now);
                reference.online[server.index()] = true;
                // The repaired server came back empty — room for waiters.
                serve_waitlist!(now);
                check!(now);
            }
            TraceOp::StartCopy { video, size_mb } => {
                let launch = replication.as_mut().and_then(|m| {
                    m.maybe_replicate(
                        *video,
                        *size_mb,
                        &mut copy_next_id,
                        &mut engines,
                        &map,
                        &cluster_spec,
                        now,
                    )
                });
                match launch {
                    Some(CopyLaunch::FromServer { source, stream }) => {
                        out.copies_started += 1;
                        if !map.holds(source, *video) {
                            diverge!(
                                seed,
                                now,
                                Some(stream),
                                Some(source),
                                DivergenceKind::Admission,
                                "copy sourced from a non-holder of its video"
                            );
                        }
                        // Mirror the copy as a reference stream at the
                        // copy rate: unbounded staging, receive cap equal
                        // to the copy rate, so it rides the minimum flow
                        // with no workahead — exactly the engine's
                        // replica-copy semantics.
                        let copy_rate = scenario
                            .replication
                            .expect("launch implies a replication spec")
                            .copy_rate_mbps;
                        reference.streams.push(RefStream::new(
                            stream,
                            *video,
                            source.index(),
                            *size_mb,
                            copy_rate,
                            ClientProfile::new(f64::INFINITY, copy_rate),
                        ));
                        reference.reallocate(source.index());
                    }
                    Some(CopyLaunch::FromTertiary { .. }) => {
                        unreachable!("cluster-sourced spec asserted above")
                    }
                    // Declined (cap, cooldown, no target, or no source
                    // with spare copy bandwidth) or replication disabled.
                    None => {}
                }
                check!(now);
            }
            TraceOp::Pause(stream) | TraceOp::Resume(stream) => {
                let paused = matches!(op, TraceOp::Pause(_));
                let sid = *stream;
                let mut engine_loc = None;
                for e in engines.iter_mut() {
                    if e.set_paused(sid, paused, now) {
                        engine_loc = Some(e.id());
                        break;
                    }
                }
                match (engine_loc, reference.find(sid)) {
                    (Some(server), Some(ri)) => {
                        if reference.streams[ri].server != server.index() {
                            diverge!(
                                seed,
                                now,
                                Some(sid),
                                Some(server),
                                DivergenceKind::StreamSet,
                                "paused stream lives on server {} per the reference",
                                reference.streams[ri].server
                            );
                        }
                        reference.streams[ri].paused = paused;
                        reference.reallocate(server.index());
                        out.pauses_applied += 1;
                    }
                    // Finished, dropped, or never admitted: nothing to do
                    // on either side.
                    (None, None) => {}
                    (Some(server), None) => diverge!(
                        seed,
                        now,
                        Some(sid),
                        Some(server),
                        DivergenceKind::StreamSet,
                        "engine holds a stream unknown to the reference"
                    ),
                    (None, Some(_)) => diverge!(
                        seed,
                        now,
                        Some(sid),
                        None,
                        DivergenceKind::StreamSet,
                        "reference holds a stream the engines lost"
                    ),
                }
                check!(now);
            }
        }
    }

    // Let every remaining stream run to completion.
    let far = trace.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO) + 1.0e7;
    drain_until!(far);
    out.ref_slices = reference.slices;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scenarios_have_no_divergence() {
        for seed in 0..16 {
            let sc = OracleScenario::generate(seed);
            if let Err(d) = run_differential(&sc) {
                panic!("{d}");
            }
        }
    }

    #[test]
    fn exact_slice_stops_at_the_nearest_crossing() {
        let streams = [
            SliceState {
                rate: 3.0,
                remaining_mb: 9.0,
                paused: false,
                play_left_secs: 10.0,
            },
            // Paused with nothing to send: contributes no crossing.
            SliceState {
                rate: 0.0,
                remaining_mb: 5.0,
                paused: true,
                play_left_secs: 2.0,
            },
            SliceState {
                rate: 6.0,
                remaining_mb: 1.5,
                paused: false,
                play_left_secs: 0.5,
            },
        ];
        // Nearest boundary: stream 2 finishes transmitting at 0.25 s.
        assert_eq!(exact_slice(100.0, &streams), 0.25);
        // Never steps past the event horizon.
        assert_eq!(exact_slice(0.1, &streams), 0.1);
        // No streams: one slice to the horizon.
        assert_eq!(exact_slice(100.0, &[]), 100.0);
        // Sub-epsilon residues are treated as already crossed.
        let residue = [SliceState {
            rate: 3.0,
            remaining_mb: EPS_MB / 2.0,
            paused: false,
            play_left_secs: EPS_SECS / 2.0,
        }];
        assert_eq!(exact_slice(7.0, &residue), 7.0);
    }

    #[test]
    fn exact_and_naive_steppers_agree() {
        // Seeds ≥ 64 skip the long-drain tail, keeping the naive replay
        // affordable at Δt = 10 ms. 68 has migration + chain-2 armed.
        for seed in [64, 68, 81] {
            let sc = OracleScenario::generate(seed);
            let exact = run_differential_with_stepper(&sc, RefStepper::Exact)
                .unwrap_or_else(|d| panic!("exact: {d}"));
            let naive = run_differential_with_stepper(
                &sc,
                RefStepper::Naive {
                    dt_secs: ORACLE_DT_SECS,
                },
            )
            .unwrap_or_else(|d| panic!("naive: {d}"));
            // Everything except the slice count must match exactly: both
            // steppers apply identical closed-form updates, only sliced
            // differently.
            let mut naive_counters = naive;
            naive_counters.ref_slices = exact.ref_slices;
            assert_eq!(exact, naive_counters, "seed {seed}");
            assert!(
                exact.ref_slices < naive.ref_slices,
                "seed {seed}: exact took {} slices, naive {}",
                exact.ref_slices,
                naive.ref_slices
            );
        }
    }

    #[test]
    fn chain2_scenarios_exercise_chains() {
        // Seeds 0..32 form the chain-armed block: every migration-on
        // seed in it generates the ring topology plus pressure wave.
        let mut chained = 0;
        for seed in 0..32 {
            let sc = OracleScenario::generate(seed);
            if !sc.chain2_on {
                continue;
            }
            let out = run_differential(&sc).unwrap_or_else(|d| panic!("{d}"));
            chained += out.accepted_via_chain;
        }
        assert!(chained > 0, "no chain-2 admission across the chain block");
    }

    #[test]
    fn shrinker_reduces_an_injected_divergence() {
        let sc = OracleScenario::generate(0);
        let fault = FaultInjection {
            at_arrival: 0,
            delta_mbps: 1.5,
        };
        let (min, d) = shrink_trace(&sc, |s| run_differential_with_fault(s, Some(fault)).err())
            .expect("an injected fault must diverge");
        assert!(min.trace.len() < sc.trace.len(), "nothing was shrunk");
        assert!(
            min.trace.len() <= 3,
            "expected a near-minimal trace, got {} ops",
            min.trace.len()
        );
        // The shrunken scenario replays to the reported divergence.
        let replay = run_differential_with_fault(&min, Some(fault))
            .expect_err("shrunken scenario must still diverge");
        assert_eq!(replay.seed, d.seed);
        assert_eq!(replay.time, d.time);
        assert_eq!(replay.kind, d.kind);
    }

    #[test]
    fn shrinker_returns_none_on_clean_scenarios() {
        let sc = OracleScenario::generate(1);
        assert!(shrink_divergence(&sc).is_none());
    }

    #[test]
    fn injected_fault_is_localized() {
        let sc = OracleScenario::generate(0);
        let fault = FaultInjection {
            at_arrival: 0,
            delta_mbps: 1.5,
        };
        let d = run_differential_with_fault(&sc, Some(fault))
            .expect_err("a corrupted rate must diverge");
        assert_eq!(d.seed, sc.seed);
        assert!(d.stream.is_some(), "report must name the stream: {d}");
        assert!(
            matches!(
                d.kind,
                DivergenceKind::Rate
                    | DivergenceKind::SentMb
                    | DivergenceKind::Capacity
                    | DivergenceKind::Conservation
            ),
            "unexpected kind: {d}"
        );
    }
}
