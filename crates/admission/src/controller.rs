//! The distribution controller's admission logic.
//!
//! Decision sequence for an arriving request (§3.1–§3.3):
//!
//! 1. **Direct placement.** Among servers holding a replica of the
//!    requested video, pick one whose minimum-flow admission test passes
//!    (fewest current requests, per the paper's assignment rule).
//! 2. **Dynamic request migration.** If every holder is full, look for one
//!    active stream on a holder that (a) has another replica of *its*
//!    video on a server with a free slot, (b) has not exhausted its hop
//!    budget, and (c) has staged enough client data to mask the hand-off.
//!    Migrate it, then admit the new request into the freed slot. The
//!    migration chain length is 1: we never migrate a second stream to
//!    make room for the first.
//! 3. **Rejection** otherwise. Rejected requests leave the system
//!    ("if this fails, then the request is not accepted", §3.2).

use crate::policy::{AssignmentPolicy, EvacuationPolicy, MigrationPolicy, VictimSelection};
use crate::stats::AdmissionStats;
use sct_cluster::{ReplicaMap, ServerId};
use sct_simcore::{Rng, SimTime};
use sct_transmission::{ServerEngine, Stream, StreamId, EPS_MB};
use serde::{Deserialize, Serialize};

/// Outcome of one admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Placed directly on `server`.
    Direct {
        /// The chosen replica holder.
        server: ServerId,
    },
    /// Placed on `server` after migrating `victim` from `server` to `to`.
    WithMigration {
        /// The holder that received the new request.
        server: ServerId,
        /// The stream that was moved away to make room.
        victim: StreamId,
        /// Where the victim now runs.
        to: ServerId,
    },
    /// Placed on `server` after a two-step migration chain (extension;
    /// the paper fixes the chain length at one).
    WithChain {
        /// The holder that received the new request.
        server: ServerId,
        /// First move: (stream, new server) — the stream that vacated
        /// `server`.
        first: (StreamId, ServerId),
        /// Second move: (stream, new server) — the stream that vacated
        /// the first move's destination.
        second: (StreamId, ServerId),
    },
    /// No capacity could be found or created.
    Rejected,
}

impl Admission {
    /// `true` unless the request was rejected.
    pub fn accepted(&self) -> bool {
        !matches!(self, Admission::Rejected)
    }
}

/// The servers one admission decision re-scheduled, in first-touch
/// order: the admitting holder, then the hops' destinations — at most
/// three (a two-step chain). A fixed-capacity value, so the per-arrival
/// path allocates nothing; it derefs to the slice of touched servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TouchedServers {
    ids: [ServerId; 3],
    len: u8,
}

impl TouchedServers {
    /// No server touched (a rejection).
    pub const NONE: TouchedServers = TouchedServers {
        ids: [ServerId(0); 3],
        len: 0,
    };

    fn of<const N: usize>(ids: [ServerId; N]) -> Self {
        let mut out = Self::NONE;
        out.ids[..N].copy_from_slice(&ids);
        out.len = N as u8;
        out
    }
}

impl std::ops::Deref for TouchedServers {
    type Target = [ServerId];

    fn deref(&self) -> &[ServerId] {
        &self.ids[..self.len as usize]
    }
}

/// A feasible two-step migration chain:
/// `(freed holder, (victim 1, its destination), (victim 2, its destination))`.
pub type ChainPlan = (ServerId, (StreamId, ServerId), (StreamId, ServerId));

/// Everything one [`Controller::evacuate`] pass did after a server
/// failure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Evacuation {
    /// Servers that received streams (the caller must re-arm their
    /// wakes), in first-touch order.
    pub touched: Vec<ServerId>,
    /// Streams re-homed: `(stream, new server)`, in evacuation order.
    pub relocated: Vec<(StreamId, ServerId)>,
    /// Streams saved by the best-effort restart policy: re-homed with
    /// their staged workahead discarded, `(stream, new server)`, in
    /// evacuation order. Empty unless
    /// [`EvacuationPolicy::best_effort_restart`] is set.
    pub restarted: Vec<(StreamId, ServerId)>,
    /// Streams whose viewers lost service, in evacuation order.
    pub dropped: Vec<StreamId>,
}

/// The admission-control half of the distribution controller. Owns the
/// policies and counters; the server engines and replica map are owned by
/// the simulation and passed in per call.
#[derive(Clone, Debug)]
pub struct Controller {
    /// Assignment rule among eligible holders.
    pub assignment: AssignmentPolicy,
    /// Migration configuration.
    pub migration: MigrationPolicy,
    /// Failure-evacuation configuration.
    pub evacuation: EvacuationPolicy,
    /// Counters for the current trial.
    pub stats: AdmissionStats,
}

impl Controller {
    /// Creates a controller with the given policies and the strict
    /// (paper-faithful) evacuation policy.
    pub fn new(assignment: AssignmentPolicy, migration: MigrationPolicy) -> Self {
        Controller {
            assignment,
            migration,
            evacuation: EvacuationPolicy::default(),
            stats: AdmissionStats::default(),
        }
    }

    /// The paper's baseline: least-loaded assignment, no migration.
    pub fn paper_no_migration() -> Self {
        Self::new(AssignmentPolicy::LeastLoaded, MigrationPolicy::disabled())
    }

    /// The paper's main configuration: least-loaded assignment, migration
    /// with one hop per request.
    pub fn paper_single_hop() -> Self {
        Self::new(AssignmentPolicy::LeastLoaded, MigrationPolicy::single_hop())
    }

    /// Decides on `stream` at `now`. On acceptance the stream is handed to
    /// the chosen engine. Returns the outcome plus the servers whose
    /// schedules changed (the caller must re-arm their wake events).
    pub fn admit(
        &mut self,
        stream: Stream,
        engines: &mut [ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
        rng: &mut Rng,
    ) -> (Admission, TouchedServers) {
        self.stats.arrivals += 1;
        self.stats.requested_mb += stream.size_mb;
        let view_rate = stream.view_rate;
        let size_mb = stream.size_mb;

        // 1. Direct placement.
        let holders = map.holders(stream.video);
        if let Some(server) = self.pick_server(holders, view_rate, engines, rng) {
            engines[server.index()].admit(stream, now);
            self.stats.accepted_direct += 1;
            self.stats.accepted_mb += size_mb;
            return (Admission::Direct { server }, TouchedServers::of([server]));
        }

        // 2. Dynamic request migration (chain length 1).
        if self.migration.enabled {
            // Victim staging depends on wall time; bring holders up to date
            // before inspecting their streams.
            for &h in holders {
                engines[h.index()].advance_to(now);
            }
            if let Some((from, victim_id, to)) =
                self.find_migration(holders, engines, map, now, rng)
            {
                let mut victim = engines[from.index()]
                    .remove_stream(victim_id, now)
                    .expect("victim chosen from live stream list");
                victim.record_hop();
                engines[to.index()].admit(victim, now);
                engines[from.index()].admit(stream, now);
                self.stats.accepted_via_migration += 1;
                self.stats.accepted_mb += size_mb;
                return (
                    Admission::WithMigration {
                        server: from,
                        victim: victim_id,
                        to,
                    },
                    TouchedServers::of([from, to]),
                );
            }
        }

        // 2b. Two-step chain (extension; off at the paper's chain length 1).
        if self.migration.enabled && self.migration.max_chain_length >= 2 {
            if let Some(chain) = self.find_chain2(holders, engines, map, now) {
                let (from, (v1, t1), (v2, t2)) = chain;
                // Move the inner victim first to open the slot on t1.
                engines[t1.index()].advance_to(now);
                let mut second = engines[t1.index()]
                    .remove_stream(v2, now)
                    .expect("chain victim vanished");
                second.record_hop();
                engines[t2.index()].admit(second, now);
                let mut first = engines[from.index()]
                    .remove_stream(v1, now)
                    .expect("chain victim vanished");
                first.record_hop();
                engines[t1.index()].admit(first, now);
                engines[from.index()].admit(stream, now);
                self.stats.accepted_via_migration += 1;
                self.stats.chain2_migrations += 1;
                self.stats.accepted_mb += size_mb;
                return (
                    Admission::WithChain {
                        server: from,
                        first: (v1, t1),
                        second: (v2, t2),
                    },
                    TouchedServers::of([from, t1, t2]),
                );
            }
        }

        // 3. Rejection.
        self.stats.rejected += 1;
        (Admission::Rejected, TouchedServers::NONE)
    }

    /// Depth-2 chain search: find victims `v1` on a holder `from` and `v2`
    /// on one of v1's replica servers `t1`, such that `v2` can move to a
    /// third server `t2`, freeing t1 for v1 and `from` for the arrival.
    /// Both victims must satisfy the hop and staging feasibility rules.
    /// First feasible chain in deterministic scan order wins.
    ///
    /// The inner search (the first evictable `v2` on `t1` with a target
    /// outside `{t1, from}`) depends only on `(from, t1)`, never on `v1`,
    /// and a hit ends the whole search. So each `t1` is searched at most
    /// once per `from`: one that came up empty is remembered and skipped
    /// for every later `v1`. The plan is the one the naive three-loop
    /// scan (`find_chain2_reference`) returns.
    fn find_chain2(
        &self,
        holders: &[ServerId],
        engines: &[ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
    ) -> Option<ChainPlan> {
        // `searched[t1]`: t1 already had no inner victim for this `from`.
        let mut searched = vec![false; engines.len()];
        for &from in holders {
            searched.fill(false);
            // All holders of v1 candidates must be advanced for staging
            // reads; `admit` advanced the request's holders, but t1
            // candidates may be other servers. Use conservative feasibility
            // on un-advanced engines: staged_mb only grows between the
            // engine clock and `now` under minimum flow, so a stale read
            // can under-approximate, never over-approximate feasibility.
            for v1 in engines[from.index()].streams() {
                if v1.is_copy() || v1.is_finished() || !self.migration.allows_another_hop(v1.hops) {
                    continue;
                }
                let need1 = self.migration.required_staging_mb(v1.view_rate);
                if v1.staged_mb(now.max(engines[from.index()].clock())) + EPS_MB < need1 {
                    continue;
                }
                for &t1 in map.holders(v1.video) {
                    if t1 == from || searched[t1.index()] {
                        continue;
                    }
                    if let Some(second) = self.chain2_inner(from, t1, engines, map, now) {
                        return Some((from, (v1.id, t1), second));
                    }
                    searched[t1.index()] = true;
                }
            }
        }
        None
    }

    /// The second hop of a chain that frees `t1` for a victim from
    /// `from`: the first stream on `t1` that may hop and has staged
    /// enough, with its least-loaded target outside `{t1, from}`.
    fn chain2_inner(
        &self,
        from: ServerId,
        t1: ServerId,
        engines: &[ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
    ) -> Option<(StreamId, ServerId)> {
        let staged_at = now.max(engines[t1.index()].clock());
        engines[t1.index()].streams().iter().find_map(|v2| {
            if v2.is_copy() || v2.is_finished() || !self.migration.allows_another_hop(v2.hops) {
                return None;
            }
            let need2 = self.migration.required_staging_mb(v2.view_rate);
            if v2.staged_mb(staged_at) + EPS_MB < need2 {
                return None;
            }
            map.holders(v2.video)
                .iter()
                .copied()
                .filter(|&t| t != t1 && t != from && engines[t.index()].can_admit(v2.view_rate))
                .min_by_key(|t| (engines[t.index()].active_count(), *t))
                .map(|t2| (v2.id, t2))
        })
    }

    /// The depth-2 chain search without the memo: for every `v1`, every
    /// `t1` is rescanned from scratch. It is the reference `find_chain2`
    /// is tested against, and the plan the differential oracle expects
    /// (`chain2_plan`).
    #[cfg(any(test, feature = "differential"))]
    fn find_chain2_reference(
        &self,
        holders: &[ServerId],
        engines: &[ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
    ) -> Option<ChainPlan> {
        for &from in holders {
            for v1 in engines[from.index()].streams() {
                if v1.is_copy() || v1.is_finished() || !self.migration.allows_another_hop(v1.hops) {
                    continue;
                }
                let need1 = self.migration.required_staging_mb(v1.view_rate);
                if v1.staged_mb(now.max(engines[from.index()].clock())) + EPS_MB < need1 {
                    continue;
                }
                for &t1 in map.holders(v1.video) {
                    if t1 == from {
                        continue;
                    }
                    // t1 is full (depth-1 failed), so we need to evict v2.
                    for v2 in engines[t1.index()].streams() {
                        if v2.is_copy()
                            || v2.is_finished()
                            || !self.migration.allows_another_hop(v2.hops)
                        {
                            continue;
                        }
                        let t1_clock = engines[t1.index()].clock();
                        let need2 = self.migration.required_staging_mb(v2.view_rate);
                        if v2.staged_mb(now.max(t1_clock)) + EPS_MB < need2 {
                            continue;
                        }
                        let t2 = map
                            .holders(v2.video)
                            .iter()
                            .copied()
                            .filter(|&t| {
                                t != t1 && t != from && engines[t.index()].can_admit(v2.view_rate)
                            })
                            .min_by_key(|t| (engines[t.index()].active_count(), *t));
                        if let Some(t2) = t2 {
                            return Some((from, (v1.id, t1), (v2.id, t2)));
                        }
                    }
                }
            }
        }
        None
    }

    /// Emergency evacuation after a server failure (fault-tolerance
    /// extension of §3.1: "dynamic request migration can also be used to
    /// engineer a limited degree of fault tolerance into the server").
    ///
    /// Each stream taken off the failed server is re-homed on another
    /// *online* holder of its video with a free slot, provided migration
    /// is enabled and the client has staged enough data to mask the
    /// hand-off; otherwise the stream is dropped (the viewer loses
    /// service) — unless [`EvacuationPolicy::best_effort_restart`] is
    /// set, in which case a stream that cannot hand off seamlessly is
    /// restarted from its playback point on any capable holder (the
    /// staged workahead is discarded and retransmitted; the viewer
    /// rebuffers but keeps service). Emergency hops do not consume the
    /// per-request DRM hop budget — survival is not a scheduling
    /// optimisation.
    ///
    /// Returns the servers that received streams (the caller must re-arm
    /// their wakes) plus the per-stream fate of every evacuee.
    pub fn evacuate(
        &mut self,
        streams: Vec<Stream>,
        from: ServerId,
        engines: &mut [ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
    ) -> Evacuation {
        let mut out = Evacuation::default();
        for stream in streams {
            if stream.is_copy() || stream.is_finished() {
                // Aborted copies are the ReplicationManager's business; a
                // finished stream's client already has all its data.
                continue;
            }
            let target = if self.migration.enabled {
                let need = self.migration.required_staging_mb(stream.view_rate);
                if stream.staged_mb(now) + EPS_MB < need {
                    None
                } else {
                    map.holders(stream.video)
                        .iter()
                        .copied()
                        .filter(|&t| t != from && engines[t.index()].can_admit(stream.view_rate))
                        .min_by_key(|t| (engines[t.index()].active_count(), *t))
                }
            } else {
                None
            };
            match target {
                Some(t) => {
                    let mut s = stream;
                    let id = s.id;
                    s.record_hop();
                    engines[t.index()].admit(s, now);
                    self.stats.relocated_on_failure += 1;
                    out.relocated.push((id, t));
                    if !out.touched.contains(&t) {
                        out.touched.push(t);
                    }
                }
                None => {
                    // No seamless hand-off. Best-effort restart: any
                    // online holder with a slot can serve the stream from
                    // its playback point — the staging requirement is
                    // moot once the viewer is rebuffering anyway.
                    let fallback = if self.evacuation.best_effort_restart {
                        map.holders(stream.video)
                            .iter()
                            .copied()
                            .filter(|&t| {
                                t != from && engines[t.index()].can_admit(stream.view_rate)
                            })
                            .min_by_key(|t| (engines[t.index()].active_count(), *t))
                    } else {
                        None
                    };
                    match fallback {
                        Some(t) => {
                            let mut s = stream;
                            let id = s.id;
                            s.restart_from_playback(now);
                            s.record_hop();
                            engines[t.index()].admit(s, now);
                            self.stats.restarted_on_failure += 1;
                            out.restarted.push((id, t));
                            if !out.touched.contains(&t) {
                                out.touched.push(t);
                            }
                        }
                        None => {
                            self.stats.dropped_on_failure += 1;
                            out.dropped.push(stream.id);
                        }
                    }
                }
            }
        }
        out
    }

    /// Differential-testing hook: the eligible direct-placement set the
    /// controller would consider for `video` right now — online holders
    /// with a free minimum-flow slot, in holder order. The oracle asserts
    /// that a `Direct` outcome names a member of this set and that a
    /// non-direct outcome implies the set was empty at decision time.
    #[cfg(feature = "differential")]
    pub fn direct_candidates(
        &self,
        video: sct_media::VideoId,
        view_rate: f64,
        engines: &[ServerEngine],
        map: &ReplicaMap,
    ) -> Vec<ServerId> {
        map.holders(video)
            .iter()
            .copied()
            .filter(|&s| engines[s.index()].can_admit(view_rate))
            .collect()
    }

    /// Differential-testing hook: the two-step chain the deterministic
    /// depth-2 search should commit to for `video` right now, if any.
    /// Computed by the naive reference scan, not the memoized search
    /// `admit` runs, on the same observable state `admit` would see, so
    /// the oracle asserts a `WithChain` outcome equals this plan exactly
    /// and that a rejection under a chain-2 policy implies no plan
    /// existed.
    #[cfg(feature = "differential")]
    pub fn chain2_plan(
        &self,
        video: sct_media::VideoId,
        engines: &[ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
    ) -> Option<ChainPlan> {
        self.find_chain2_reference(map.holders(video), engines, map, now)
    }

    /// Applies the assignment policy to the eligible holder set (the
    /// holders with a free minimum-flow slot). Filters the holders
    /// inline rather than collecting the eligible set — admission is on
    /// the hot path and the eligible `Vec` was its only allocation.
    fn pick_server(
        &self,
        holders: &[ServerId],
        view_rate: f64,
        engines: &[ServerEngine],
        rng: &mut Rng,
    ) -> Option<ServerId> {
        let eligible = || {
            holders
                .iter()
                .copied()
                .filter(|&s| engines[s.index()].can_admit(view_rate))
        };
        match self.assignment {
            AssignmentPolicy::LeastLoaded => {
                eligible().min_by_key(|&s| (engines[s.index()].active_count(), s))
            }
            AssignmentPolicy::MostLoaded => eligible()
                .max_by_key(|&s| (engines[s.index()].active_count(), std::cmp::Reverse(s))),
            AssignmentPolicy::FirstFit => eligible().next(), // holder lists are sorted
            AssignmentPolicy::Random => {
                // Same RNG draw as `Rng::choose` on the collected set:
                // one `below(n)` call, indexing in holder order.
                let n = eligible().count();
                (n > 0).then(|| eligible().nth(rng.below(n)).unwrap())
            }
        }
    }

    /// Searches for a feasible (victim, target) pair on the full holders.
    /// Holders are scanned in id order; within a holder the victim
    /// preference is [`VictimSelection`]; the target is the least-loaded
    /// eligible server.
    fn find_migration(
        &self,
        holders: &[ServerId],
        engines: &[ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
        rng: &mut Rng,
    ) -> Option<(ServerId, StreamId, ServerId)> {
        let mut rng = rng.fork(0xD12A); // isolate search randomness
        for &from in holders {
            let engine = &engines[from.index()];
            // Candidate victims with their best target.
            struct Cand {
                id: StreamId,
                staged: f64,
                finish: SimTime,
                target: ServerId,
            }
            let mut cands: Vec<Cand> = Vec::new();
            for s in engine.streams() {
                if s.is_copy() || s.is_finished() {
                    // Copies are pinned; a finished-but-unreaped stream
                    // (its completion wake shares this timestamp) frees
                    // its slot in a moment anyway.
                    continue;
                }
                if !self.migration.allows_another_hop(s.hops) {
                    continue;
                }
                let need = self.migration.required_staging_mb(s.view_rate);
                let staged = s.staged_mb(now);
                if staged + EPS_MB < need {
                    continue;
                }
                let target = map
                    .holders(s.video)
                    .iter()
                    .copied()
                    .filter(|&t| t != from && engines[t.index()].can_admit(s.view_rate))
                    .min_by_key(|t| (engines[t.index()].active_count(), *t));
                if let Some(target) = target {
                    cands.push(Cand {
                        id: s.id,
                        staged,
                        finish: s.projected_finish(now),
                        target,
                    });
                }
            }
            if cands.is_empty() {
                continue;
            }
            let chosen = match self.migration.victim_selection {
                VictimSelection::MostStaged => cands
                    .iter()
                    .max_by(|a, b| a.staged.total_cmp(&b.staged).then(b.id.cmp(&a.id)))
                    .unwrap(),
                VictimSelection::EarliestFinish => cands
                    .iter()
                    .min_by(|a, b| a.finish.cmp(&b.finish).then(a.id.cmp(&b.id)))
                    .unwrap(),
                VictimSelection::FirstFeasible => &cands[0],
                VictimSelection::Random => &cands[rng.below(cands.len())],
            };
            return Some((from, chosen.id, chosen.target));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_media::{ClientProfile, VideoId};
    use sct_transmission::SchedulerKind;

    const VIEW: f64 = 3.0;

    fn mk_stream(id: u64, video: u32, size: f64, staging_cap: f64, now: SimTime) -> Stream {
        Stream::new(
            StreamId(id),
            VideoId(video),
            size,
            VIEW,
            ClientProfile::new(staging_cap, 30.0),
            now,
        )
    }

    /// Two servers, 12 Mb/s each (4 slots): v0 only on s0, v1 on both.
    fn two_server_setup() -> (Vec<ServerEngine>, ReplicaMap) {
        let engines = vec![
            ServerEngine::new(ServerId(0), 12.0, SchedulerKind::Eftf),
            ServerEngine::new(ServerId(1), 12.0, SchedulerKind::Eftf),
        ];
        let map =
            ReplicaMap::from_holders(2, vec![vec![ServerId(0)], vec![ServerId(0), ServerId(1)]]);
        (engines, map)
    }

    /// Fills s0 with four v1 streams; the earliest-admitted picked up
    /// workahead while the server still had spare bandwidth.
    fn fill_s0(engines: &mut [ServerEngine]) -> SimTime {
        let t0 = SimTime::ZERO;
        for i in 0..3 {
            engines[0].admit(mk_stream(i, 1, 3000.0, 1e6, t0), t0);
        }
        // 3 streams × 3 = 9 of 12 → 3 Mb/s of workahead accrues for 10 s.
        let t1 = SimTime::from_secs(10.0);
        engines[0].advance_to(t1);
        engines[0].reschedule(t1);
        engines[0].admit(mk_stream(3, 1, 3000.0, 1e6, t1), t1);
        assert!(!engines[0].can_admit(VIEW), "s0 must now be full");
        t1 + 1.0
    }

    #[test]
    fn direct_placement_prefers_least_loaded() {
        let (mut engines, map) = two_server_setup();
        let mut rng = Rng::new(1);
        let mut c = Controller::paper_no_migration();
        let now = SimTime::ZERO;
        // Pre-load s0 with one stream of v1.
        engines[0].admit(mk_stream(100, 1, 3000.0, 0.0, now), now);
        let (adm, touched) = c.admit(
            mk_stream(101, 1, 3000.0, 0.0, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert_eq!(
            adm,
            Admission::Direct {
                server: ServerId(1)
            }
        );
        assert_eq!(touched[..], [ServerId(1)]);
        assert_eq!(engines[1].active_count(), 1);
        c.stats.check();
        assert_eq!(c.stats.accepted_direct, 1);
    }

    #[test]
    fn rejection_without_migration_when_holders_full() {
        let (mut engines, map) = two_server_setup();
        let mut rng = Rng::new(2);
        let mut c = Controller::paper_no_migration();
        let now = fill_s0(&mut engines);
        let (adm, touched) = c.admit(
            mk_stream(50, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert_eq!(adm, Admission::Rejected);
        assert!(touched.is_empty());
        assert_eq!(c.stats.rejected, 1);
        c.stats.check();
    }

    #[test]
    fn migration_frees_a_slot() {
        let (mut engines, map) = two_server_setup();
        let mut rng = Rng::new(3);
        let mut c = Controller::paper_single_hop();
        let now = fill_s0(&mut engines);
        let (adm, touched) = c.admit(
            mk_stream(50, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        match adm {
            Admission::WithMigration { server, victim, to } => {
                assert_eq!(server, ServerId(0));
                assert_eq!(to, ServerId(1));
                // MostStaged: stream 0 monopolised the early workahead.
                assert_eq!(victim, StreamId(0));
            }
            other => panic!("expected migration, got {other:?}"),
        }
        assert_eq!(touched[..], [ServerId(0), ServerId(1)]);
        assert_eq!(engines[0].active_count(), 4, "new stream took the slot");
        assert_eq!(engines[1].active_count(), 1, "victim moved");
        assert_eq!(engines[1].streams()[0].hops, 1);
        assert_eq!(c.stats.accepted_via_migration, 1);
        c.stats.check();
    }

    #[test]
    fn source_failure_after_migration_keeps_ledgers_consistent() {
        // DRM moves a victim s0 → s1, then s0 fails. The migrated stream
        // keeps playing from s1, a stale removal handle on the dead server
        // must be a no-op (no second decrement of the already-zeroed
        // commitment ledger), and after repair s0 admits exactly its slot
        // count again.
        let (mut engines, map) = two_server_setup();
        let mut rng = Rng::new(5);
        let mut c = Controller::new(
            AssignmentPolicy::LeastLoaded,
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::single_hop()
            },
        );
        let now = fill_s0(&mut engines);
        let (adm, _) = c.admit(
            mk_stream(50, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        let victim = match adm {
            Admission::WithMigration { victim, .. } => victim,
            other => panic!("expected migration, got {other:?}"),
        };

        let t_fail = now + 5.0;
        engines[1].advance_to(t_fail);
        engines[1].reschedule(t_fail);
        let taken = engines[0].fail(t_fail);
        assert_eq!(taken.len(), 4, "three v1 streams plus the v0 arrival");
        // Stale handle to the migrated victim on the dead server: no-op.
        assert!(engines[0].remove_stream(victim, t_fail).is_none());

        let evac = c.evacuate(taken, ServerId(0), &mut engines, &map, t_fail);
        // The v1 streams relocate into s1's three free slots; the v0
        // arrival has no other holder and is dropped.
        assert_eq!(evac.touched, vec![ServerId(1)]);
        assert_eq!(evac.relocated.len(), 3);
        assert_eq!(evac.dropped.len(), 1);
        assert_eq!(c.stats.relocated_on_failure, 3);
        assert_eq!(c.stats.dropped_on_failure, 1);
        assert_eq!(engines[1].active_count(), 4);
        assert!(!engines[1].can_admit(VIEW));
        engines[1].advance_to(t_fail);
        engines[1].reschedule(t_fail);
        engines[1].check_invariants();

        let t_up = t_fail + 60.0;
        engines[0].repair(t_up);
        let mut re_admitted = 0;
        for i in 200..210 {
            if engines[0].can_admit(VIEW) {
                engines[0].admit(mk_stream(i, 1, 300.0, 0.0, t_up), t_up);
                re_admitted += 1;
            }
        }
        assert_eq!(re_admitted, 4, "ledger must not drift across fail/repair");
        engines[0].check_invariants();
        c.stats.check();
    }

    #[test]
    fn migration_requires_staged_data() {
        let (mut engines, map) = two_server_setup();
        let mut rng = Rng::new(4);
        let mut c = Controller::paper_single_hop();
        // Fill s0 with 4 zero-staging streams: no hand-off possible.
        let now = SimTime::ZERO;
        for i in 0..4 {
            engines[0].admit(mk_stream(i, 1, 3000.0, 0.0, now), now);
        }
        let (adm, _) = c.admit(
            mk_stream(50, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert_eq!(adm, Admission::Rejected);
    }

    #[test]
    fn migration_respects_hop_budget() {
        let (mut engines, map) = two_server_setup();
        let mut rng = Rng::new(5);
        let mut c = Controller::paper_single_hop();
        let now = fill_s0(&mut engines);
        // First migration consumes stream 0's hop budget.
        let (adm1, _) = c.admit(
            mk_stream(50, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert!(matches!(adm1, Admission::WithMigration { .. }));
        // Move the migrated stream's replacement context: s0 again full,
        // s1 has 3 free slots; remaining s0 streams (1, 2, new 50) —
        // streams 1 and 2 still have hop budget but little staged data
        // (stream 0 had monopolised the workahead). Give the system time
        // to stage more, then expect a second migration of a *different*
        // stream.
        let later = now + 100.0;
        engines[0].advance_to(later);
        engines[0].reschedule(later);
        engines[1].advance_to(later);
        engines[1].reschedule(later);
        let (adm2, _) = c.admit(
            mk_stream(51, 0, 3000.0, 1e6, later),
            &mut engines,
            &map,
            later,
            &mut rng,
        );
        match adm2 {
            Admission::WithMigration { victim, .. } => {
                assert_ne!(victim, StreamId(0), "hop budget must exclude stream 0");
            }
            Admission::Rejected => {} // acceptable if nothing staged enough
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unlimited_hops_can_remigrate() {
        let policy = MigrationPolicy::unlimited_hops();
        assert!(policy.allows_another_hop(3));
        let c = Controller::new(AssignmentPolicy::LeastLoaded, policy);
        assert!(c.migration.enabled);
    }

    #[test]
    fn migration_targets_least_loaded_server() {
        // Three servers; v1 replicated everywhere; v0 only on s0.
        let mut engines = vec![
            ServerEngine::new(ServerId(0), 12.0, SchedulerKind::Eftf),
            ServerEngine::new(ServerId(1), 12.0, SchedulerKind::Eftf),
            ServerEngine::new(ServerId(2), 12.0, SchedulerKind::Eftf),
        ];
        let map = ReplicaMap::from_holders(
            3,
            vec![
                vec![ServerId(0)],
                vec![ServerId(0), ServerId(1), ServerId(2)],
            ],
        );
        let now = fill_s0(&mut engines);
        // Load s1 with one stream so s2 is the least loaded.
        engines[1].admit(mk_stream(90, 1, 3000.0, 0.0, now), now);
        let mut rng = Rng::new(6);
        let mut c = Controller::paper_single_hop();
        let (adm, _) = c.admit(
            mk_stream(50, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        match adm {
            Admission::WithMigration { to, .. } => assert_eq!(to, ServerId(2)),
            other => panic!("expected migration, got {other:?}"),
        }
    }

    #[test]
    fn assignment_policy_variants_differ() {
        let (mut engines, map) = two_server_setup();
        let now = SimTime::ZERO;
        engines[0].admit(mk_stream(100, 1, 3000.0, 0.0, now), now);
        let mut rng = Rng::new(7);
        // MostLoaded should pick s0 (1 active) over s1 (0 active).
        let mut c = Controller::new(AssignmentPolicy::MostLoaded, MigrationPolicy::disabled());
        let (adm, _) = c.admit(
            mk_stream(101, 1, 3000.0, 0.0, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert_eq!(
            adm,
            Admission::Direct {
                server: ServerId(0)
            }
        );
        // FirstFit picks the lowest id among eligible.
        let mut c = Controller::new(AssignmentPolicy::FirstFit, MigrationPolicy::disabled());
        let (adm, _) = c.admit(
            mk_stream(102, 1, 3000.0, 0.0, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert_eq!(
            adm,
            Admission::Direct {
                server: ServerId(0)
            }
        );
    }

    #[test]
    fn evacuation_relocates_feasible_streams() {
        let (mut engines, map) = two_server_setup();
        let now = SimTime::ZERO;
        // Two v1 streams on s0 with staged data, one with none.
        engines[0].admit(mk_stream(1, 1, 3000.0, 1e6, now), now);
        engines[0].admit(mk_stream(2, 1, 3000.0, 1e6, now), now);
        engines[0].admit(mk_stream(3, 1, 3000.0, 0.0, now), now);
        let t = SimTime::from_secs(10.0);
        let taken = engines[0].fail(t);
        assert_eq!(taken.len(), 3);
        let mut c = Controller::paper_single_hop(); // latency 1 s
        let evac = c.evacuate(taken, ServerId(0), &mut engines, &map, t);
        assert_eq!(evac.touched, vec![ServerId(1)]);
        assert_eq!(evac.relocated, vec![(StreamId(1), ServerId(1))]);
        assert_eq!(evac.dropped, vec![StreamId(2), StreamId(3)]);
        // EFTF concentrated all spare bandwidth on stream 1 (earliest
        // projected finish by id tie-break), so only it staged data;
        // streams 2 (empty buffer) and 3 (0-capacity buffer) cannot mask
        // a 1 s hand-off and are dropped.
        assert_eq!(c.stats.relocated_on_failure, 1);
        assert_eq!(c.stats.dropped_on_failure, 2);
        assert_eq!(engines[1].active_count(), 1);
        assert!(engines[1].streams().iter().all(|s| s.hops == 1));
    }

    #[test]
    fn evacuation_without_migration_drops_everything() {
        let (mut engines, map) = two_server_setup();
        let now = SimTime::ZERO;
        engines[0].admit(mk_stream(1, 1, 3000.0, 1e6, now), now);
        let t = SimTime::from_secs(5.0);
        let taken = engines[0].fail(t);
        let mut c = Controller::paper_no_migration();
        let evac = c.evacuate(taken, ServerId(0), &mut engines, &map, t);
        assert!(evac.touched.is_empty());
        assert_eq!(evac.dropped, vec![StreamId(1)]);
        assert_eq!(c.stats.dropped_on_failure, 1);
        assert_eq!(engines[1].active_count(), 0);
    }

    #[test]
    fn evacuation_policy_strict_drops_where_best_effort_restarts() {
        // Identical setup under both policies: one v1 stream on s0 with
        // workahead staged, migration disabled — a seamless hand-off is
        // impossible, but s1 also holds v1 and has free slots.
        for best_effort in [false, true] {
            let (mut engines, map) = two_server_setup();
            let now = SimTime::ZERO;
            engines[0].admit(mk_stream(1, 1, 3000.0, 1e6, now), now);
            let t = SimTime::from_secs(5.0);
            let taken = engines[0].fail(t);
            let mut c = Controller::paper_no_migration();
            c.evacuation = if best_effort {
                EvacuationPolicy::best_effort()
            } else {
                EvacuationPolicy::strict()
            };
            let evac = c.evacuate(taken, ServerId(0), &mut engines, &map, t);
            if best_effort {
                assert_eq!(evac.restarted, vec![(StreamId(1), ServerId(1))]);
                assert!(evac.dropped.is_empty());
                assert_eq!(evac.touched, vec![ServerId(1)]);
                assert_eq!(c.stats.restarted_on_failure, 1);
                assert_eq!(c.stats.dropped_on_failure, 0);
                // The restart rewinds the data to the playback point:
                // 5 s viewed at 3 Mb/s = 15 Mb; the workahead the stream
                // had staged beyond that (it was receiving the full
                // 12 Mb/s) is flushed.
                let s = &engines[1].streams()[0];
                assert!((s.sent_mb() - 15.0).abs() < 1e-9, "{}", s.sent_mb());
                assert_eq!(s.hops, 1);
            } else {
                assert_eq!(evac.dropped, vec![StreamId(1)]);
                assert!(evac.restarted.is_empty());
                assert!(evac.touched.is_empty());
                assert_eq!(c.stats.dropped_on_failure, 1);
                assert_eq!(c.stats.restarted_on_failure, 0);
                assert_eq!(engines[1].active_count(), 0);
            }
        }
    }

    #[test]
    fn evacuation_respects_target_capacity() {
        // s1 already full: evacuated v1 streams have nowhere to go.
        let (mut engines, map) = two_server_setup();
        let now = SimTime::ZERO;
        for i in 0..4 {
            engines[1].admit(mk_stream(100 + i, 1, 3000.0, 0.0, now), now);
        }
        engines[0].admit(mk_stream(1, 1, 3000.0, 1e6, now), now);
        let t = SimTime::from_secs(10.0);
        let taken = engines[0].fail(t);
        let mut c = Controller::paper_single_hop();
        let evac = c.evacuate(taken, ServerId(0), &mut engines, &map, t);
        assert!(evac.touched.is_empty());
        assert_eq!(c.stats.dropped_on_failure, 1);
        assert_eq!(engines[1].active_count(), 4);
    }

    /// Three servers: v0 only on s0, v1 on {s0,s1}, v2 on {s1,s2}.
    /// Admitting v0 requires a two-step chain: v2 stream s1→s2, then v1
    /// stream s0→s1.
    fn chain_setup() -> (Vec<ServerEngine>, ReplicaMap, SimTime) {
        let mut engines = vec![
            ServerEngine::new(ServerId(0), 12.0, SchedulerKind::Eftf),
            ServerEngine::new(ServerId(1), 12.0, SchedulerKind::Eftf),
            ServerEngine::new(ServerId(2), 12.0, SchedulerKind::Eftf),
        ];
        let map = ReplicaMap::from_holders(
            3,
            vec![
                vec![ServerId(0)],
                vec![ServerId(0), ServerId(1)],
                vec![ServerId(1), ServerId(2)],
            ],
        );
        let t0 = SimTime::ZERO;
        for i in 0..4 {
            engines[0].admit(mk_stream(i, 1, 3000.0, 1e6, t0), t0);
            engines[1].admit(mk_stream(10 + i, 2, 3000.0, 1e6, t0), t0);
        }
        let now = SimTime::from_secs(10.0);
        for e in engines.iter_mut() {
            e.advance_to(now);
            e.reschedule(now);
        }
        (engines, map, now)
    }

    #[test]
    fn chain2_succeeds_where_chain1_fails() {
        let (mut engines, map, now) = chain_setup();
        let mut rng = Rng::new(8);
        // Chain length 1: rejected (s1 is full, no direct victim target).
        let mut c1 = Controller::new(
            AssignmentPolicy::LeastLoaded,
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::single_hop()
            },
        );
        let (adm, _) = c1.admit(
            mk_stream(50, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert_eq!(adm, Admission::Rejected);

        // Chain length 2: the two-step chain opens the slot.
        let mut c2 = Controller::new(
            AssignmentPolicy::LeastLoaded,
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::chain2()
            },
        );
        let (adm, touched) = c2.admit(
            mk_stream(51, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        match adm {
            Admission::WithChain {
                server,
                first,
                second,
            } => {
                assert_eq!(server, ServerId(0));
                assert_eq!(first.1, ServerId(1));
                assert_eq!(second.1, ServerId(2));
            }
            other => panic!("expected chain, got {other:?}"),
        }
        assert_eq!(touched[..], [ServerId(0), ServerId(1), ServerId(2)]);
        assert_eq!(engines[0].active_count(), 4);
        assert_eq!(engines[1].active_count(), 4);
        assert_eq!(engines[2].active_count(), 1);
        assert_eq!(c2.stats.chain2_migrations, 1);
        assert_eq!(c2.stats.accepted_via_migration, 1);
        c2.stats.check();
        for e in &engines {
            e.check_invariants();
        }
    }

    #[test]
    fn chain2_respects_hop_budgets() {
        let (mut engines, map, now) = chain_setup();
        // Exhaust every stream\'s hop budget up front.
        let ids: Vec<StreamId> = engines
            .iter()
            .flat_map(|e| e.streams().iter().map(|s| s.id))
            .collect();
        for e in engines.iter_mut() {
            for id in &ids {
                if let Some(mut s) = e.remove_stream(*id, now) {
                    s.record_hop();
                    e.admit(s, now);
                }
            }
        }
        let mut rng = Rng::new(9);
        let mut c = Controller::new(
            AssignmentPolicy::LeastLoaded,
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::chain2()
            },
        );
        let (adm, _) = c.admit(
            mk_stream(52, 0, 3000.0, 1e6, now),
            &mut engines,
            &map,
            now,
            &mut rng,
        );
        assert_eq!(
            adm,
            Admission::Rejected,
            "spent hop budgets must block chains"
        );
    }

    /// A random saturated cluster: 3–7 servers of 2–5 view slots, videos
    /// on 1–3 holders each, most servers full and the rest with free
    /// slots. Streams have 0 or 1 prior hops and no, some or ample
    /// staging room, and one server may carry a replica copy. Only some
    /// engines are advanced to the returned `now`.
    fn random_saturated_cluster(rng: &mut Rng) -> (Vec<ServerEngine>, ReplicaMap, SimTime) {
        let n = rng.range_usize(3, 8);
        let mut engines: Vec<ServerEngine> = (0..n)
            .map(|i| {
                let slots = rng.range_usize(2, 6) as f64;
                ServerEngine::new(ServerId(i as u16), slots * VIEW, SchedulerKind::Eftf)
            })
            .collect();
        let n_videos = rng.range_usize(3, 9);
        let mut holders: Vec<Vec<ServerId>> = (0..n_videos)
            .map(|_| {
                let copies = rng.range_usize(1, 4);
                let picked = rng.sample_indices(n, copies);
                picked.into_iter().map(|i| ServerId(i as u16)).collect()
            })
            .collect();
        for i in 0..n {
            let s = ServerId(i as u16);
            if !holders.iter().any(|hs| hs.contains(&s)) {
                holders[rng.below(n_videos)].push(s);
            }
        }
        let map = ReplicaMap::from_holders(n, holders);
        let copy_on = rng.below(n + 2);
        let mut next_id = 0u64;
        let mut latest = SimTime::ZERO;
        for (i, e) in engines.iter_mut().enumerate() {
            let videos = map.videos_on(ServerId(i as u16));
            let slots = (e.capacity_mbps() / VIEW) as usize;
            let fill = if rng.chance(0.7) {
                slots
            } else {
                rng.below(slots)
            };
            let mut t = SimTime::ZERO;
            if i == copy_on && e.can_admit(2.0 * VIEW) {
                let video = videos[rng.below(videos.len())];
                e.admit(
                    Stream::replica_copy(StreamId(next_id), video, 600.0, 2.0 * VIEW, t),
                    t,
                );
                next_id += 1;
            }
            while e.active_count() < fill && e.can_admit(VIEW) {
                t += rng.range_f64(0.0, 20.0);
                e.advance_to(t);
                e.reap_finished(t);
                e.reschedule(t);
                let staging = [0.0, rng.range_f64(1.0, 10.0), 1e6][rng.below(3)];
                let video = videos[rng.below(videos.len())];
                let size = rng.range_f64(300.0, 3000.0);
                let mut s = mk_stream(next_id, video.0, size, staging, t);
                next_id += 1;
                if rng.chance(0.3) {
                    s.record_hop();
                }
                e.admit(s, t);
            }
            latest = latest.max(t);
        }
        let now = latest + rng.range_f64(0.0, 30.0);
        for e in engines.iter_mut() {
            if rng.chance(0.5) {
                e.advance_to(now);
                e.reap_finished(now);
                e.reschedule(now);
            }
        }
        (engines, map, now)
    }

    proptest::proptest! {
        /// The memoized chain-2 search returns the naive scan's plan,
        /// `None` included, for every video's holder set.
        #[test]
        fn chain2_memo_matches_the_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Rng::new(seed);
            let (engines, map, now) = random_saturated_cluster(&mut rng);
            let c = Controller::new(
                AssignmentPolicy::LeastLoaded,
                MigrationPolicy {
                    handoff_latency_secs: [0.0, 1.0, 4.0][rng.below(3)],
                    max_hops_per_request: [Some(1), Some(2), None][rng.below(3)],
                    ..MigrationPolicy::chain2()
                },
            );
            for v in 0..map.num_videos() {
                let holders = map.holders(VideoId(v as u32));
                proptest::prop_assert_eq!(
                    c.find_chain2(holders, &engines, &map, now),
                    c.find_chain2_reference(holders, &engines, &map, now)
                );
            }
        }
    }

    #[test]
    fn accepted_flag() {
        assert!(Admission::Direct {
            server: ServerId(0)
        }
        .accepted());
        assert!(!Admission::Rejected.accepted());
    }

    #[test]
    fn touched_servers_hold_up_to_three_in_order() {
        assert!(TouchedServers::NONE.is_empty());
        let one = TouchedServers::of([ServerId(4)]);
        assert_eq!(one[..], [ServerId(4)]);
        let three = TouchedServers::of([ServerId(2), ServerId(0), ServerId(1)]);
        assert_eq!(three[..], [ServerId(2), ServerId(0), ServerId(1)]);
        assert_ne!(one, three);
    }
}
