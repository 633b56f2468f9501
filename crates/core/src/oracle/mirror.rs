//! The deliberately simple reference model: a flat stream list with an
//! independently written allocator and integrator, plus the relocation
//! mirror shared by the migration and chain paths.

use sct_cluster::{ReplicaMap, ServerId};
use sct_media::VideoId;
use sct_simcore::SimTime;
use sct_transmission::{SchedulerKind, StreamId, EPS_MB};

use sct_media::ClientProfile;

use super::legality::{diverge, Divergence, DivergenceKind};
use super::stepper::{exact_slice, RefStepper, SliceState};

// ---------------------------------------------------------------------------
// The naive reference model
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub(crate) struct RefStream {
    pub(crate) id: StreamId,
    pub(crate) video: VideoId,
    pub(crate) server: usize,
    pub(crate) size_mb: f64,
    pub(crate) view_rate: f64,
    pub(crate) sent_mb: f64,
    pub(crate) played_secs: f64,
    /// Kahan compensation terms for `sent_mb` / `played_secs`. The
    /// exact stepper takes too few slices to drift, but the naive
    /// spot-check stepper makes ~10⁶ tiny adds over a multi-hour drain
    /// — enough plain-summation round-off to trip the conservation
    /// tolerance (`ORACLE_TOL_MB`), so both accumulators compensate.
    pub(crate) sent_comp: f64,
    pub(crate) played_comp: f64,
    pub(crate) rate: f64,
    pub(crate) paused: bool,
    pub(crate) client: ClientProfile,
}

impl RefStream {
    /// A stream admitted now: nothing sent or played, no rate until its
    /// server reallocates.
    pub(crate) fn new(
        id: StreamId,
        video: VideoId,
        server: usize,
        size_mb: f64,
        view_rate: f64,
        client: ClientProfile,
    ) -> RefStream {
        RefStream {
            id,
            video,
            server,
            size_mb,
            view_rate,
            sent_mb: 0.0,
            played_secs: 0.0,
            sent_comp: 0.0,
            played_comp: 0.0,
            rate: 0.0,
            paused: false,
            client,
        }
    }

    pub(crate) fn remaining_mb(&self) -> f64 {
        (self.size_mb - self.sent_mb).max(0.0)
    }

    pub(crate) fn length_secs(&self) -> f64 {
        self.size_mb / self.view_rate
    }

    pub(crate) fn staged_mb(&self) -> f64 {
        (self.sent_mb - self.played_secs * self.view_rate).max(0.0)
    }

    pub(crate) fn buffer_full(&self) -> bool {
        !self.client.is_unbounded_staging()
            && self.staged_mb() >= self.client.staging_capacity_mb - EPS_MB
    }

    /// Projected finish offset (seconds from now) at the minimum flow —
    /// the EFTF ordering key.
    pub(crate) fn finish_offset(&self) -> f64 {
        self.remaining_mb() / self.view_rate
    }
}

/// The reference cluster: flat stream list, fixed-timestep integration,
/// and an independently written spare-bandwidth allocator.
pub(crate) struct RefCluster {
    pub(crate) scheduler: SchedulerKind,
    pub(crate) stepper: RefStepper,
    pub(crate) capacity: Vec<f64>,
    pub(crate) online: Vec<bool>,
    pub(crate) streams: Vec<RefStream>,
    pub(crate) clock: SimTime,
    /// Integration slices performed so far (one per closed-form segment
    /// in exact mode, one per Δt step in naive mode). Exposed through
    /// [`OracleOutcome::ref_slices`] so tests can assert the exact
    /// stepper's slice count is horizon-independent.
    pub(crate) slices: u64,
    /// Megabits transmitted to streams that have since left the cluster
    /// (finished or dropped). `retired_mb + Σ live sent` is the
    /// conservation ledger; summing per-slice deltas instead would
    /// accumulate float drift over millions of steps.
    pub(crate) retired_mb: f64,
}

impl RefCluster {
    pub(crate) fn new(
        n_servers: usize,
        capacity_mbps: f64,
        scheduler: SchedulerKind,
        stepper: RefStepper,
    ) -> RefCluster {
        RefCluster {
            scheduler,
            stepper,
            capacity: vec![capacity_mbps; n_servers],
            online: vec![true; n_servers],
            streams: Vec::new(),
            clock: SimTime::ZERO,
            slices: 0,
            retired_mb: 0.0,
        }
    }

    /// Total megabits ever transmitted, live plus retired.
    pub(crate) fn total_sent_mb(&self) -> f64 {
        self.retired_mb + self.streams.iter().map(|s| s.sent_mb).sum::<f64>()
    }

    /// Integrates from the internal clock to `t`. Per-slice updates are
    /// the closed forms `sent += min(rate·dt, remaining)` and
    /// `played = min(played + dt, length)`; both are exact for any `dt`
    /// that crosses no boundary, so the exact stepper takes one maximal
    /// boundary-free slice at a time while the naive stepper grinds
    /// through fixed Δt sub-steps of the very same update.
    pub(crate) fn integrate_to(&mut self, t: SimTime) {
        // Slice against a compensated local elapsed-time accumulator
        // rather than `self.clock += step`: a naive multi-hour drain
        // takes ~10⁶ steps, and plain clock accumulation drifts the
        // total integrated duration by enough that the closing
        // `self.clock = t` snap silently drops ~µs of transmission.
        let total = t - self.clock;
        let mut advanced = 0.0f64;
        let mut advanced_comp = 0.0f64;
        loop {
            let left = total - advanced;
            if left <= 0.0 {
                break;
            }
            let step = match self.stepper {
                RefStepper::Naive { dt_secs } => dt_secs.min(left),
                RefStepper::Exact => {
                    let states: Vec<SliceState> = self
                        .streams
                        .iter()
                        .map(|s| SliceState {
                            rate: s.rate,
                            remaining_mb: s.remaining_mb(),
                            paused: s.paused,
                            play_left_secs: (s.length_secs() - s.played_secs).max(0.0),
                        })
                        .collect();
                    let dt = exact_slice(left, &states);
                    // Sub-epsilon residues are excluded from the solver,
                    // so dt > 0 whenever left > 0; the fallback merely
                    // guards against a denormal-degenerate slice looping.
                    if dt > 0.0 {
                        dt
                    } else {
                        left
                    }
                }
            };
            for s in &mut self.streams {
                let delta = (s.rate * step).min(s.remaining_mb());
                let y = delta - s.sent_comp;
                let sum = s.sent_mb + y;
                s.sent_comp = (sum - s.sent_mb) - y;
                s.sent_mb = sum;
                if !s.paused {
                    let y = step - s.played_comp;
                    let sum = s.played_secs + y;
                    s.played_comp = (sum - s.played_secs) - y;
                    s.played_secs = sum;
                    if s.played_secs >= s.length_secs() {
                        s.played_secs = s.length_secs();
                        s.played_comp = 0.0;
                    }
                }
            }
            self.slices += 1;
            let y = step - advanced_comp;
            let sum = advanced + y;
            advanced_comp = (sum - advanced) - y;
            advanced = sum;
        }
        self.clock = t;
    }

    /// Independent reimplementation of the minimum-flow allocation for one
    /// server. Written *differently* from `sct_transmission::allocate` on
    /// purpose: repeated best-candidate extraction instead of a sorted
    /// sweep, and a bisected water level instead of the progressive-share
    /// fill. Agreement is therefore evidence, not tautology.
    pub(crate) fn reallocate(&mut self, server: usize) {
        let capacity = self.capacity[server];
        let members: Vec<usize> = (0..self.streams.len())
            .filter(|&i| self.streams[i].server == server)
            .collect();
        let mut used = 0.0;
        for &i in &members {
            let s = &mut self.streams[i];
            s.rate = if s.paused { 0.0 } else { s.view_rate };
            used += s.rate;
        }
        let mut spare = capacity - used;
        if spare <= EPS_MB {
            return;
        }
        let mut candidates: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| !self.streams[i].buffer_full())
            .collect();
        match self.scheduler {
            SchedulerKind::NoWorkahead => {}
            SchedulerKind::Eftf | SchedulerKind::LatestFinishFirst => {
                // Repeatedly extract the best candidate instead of sorting.
                while spare > EPS_MB && !candidates.is_empty() {
                    let mut best = 0;
                    for c in 1..candidates.len() {
                        let a = &self.streams[candidates[c]];
                        let b = &self.streams[candidates[best]];
                        let ord = a
                            .finish_offset()
                            .total_cmp(&b.finish_offset())
                            .then(a.id.cmp(&b.id));
                        let better = if self.scheduler == SchedulerKind::Eftf {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        if better {
                            best = c;
                        }
                    }
                    let i = candidates.swap_remove(best);
                    let s = &mut self.streams[i];
                    let headroom = s.client.receive_cap_mbps - s.rate;
                    let give = spare.min(headroom).max(0.0);
                    s.rate += give;
                    spare -= give;
                }
            }
            SchedulerKind::ProportionalShare => {
                let heads: Vec<(usize, f64)> = candidates
                    .iter()
                    .map(|&i| {
                        let s = &self.streams[i];
                        (i, (s.client.receive_cap_mbps - s.rate).max(0.0))
                    })
                    .collect();
                let total: f64 = heads.iter().map(|&(_, h)| h).sum();
                if total <= spare {
                    for &(i, h) in &heads {
                        self.streams[i].rate += h;
                    }
                } else {
                    // Bisect the water level L: Σ min(h_i, L) = spare.
                    // L never exceeds `spare` (with total headroom above
                    // spare, Σ min(h_i, spare) ≥ spare already), so the
                    // bracket stays finite even for unbounded receive caps.
                    let mut lo = 0.0f64;
                    let mut hi = spare;
                    for _ in 0..80 {
                        let mid = 0.5 * (lo + hi);
                        let given: f64 = heads.iter().map(|&(_, h)| h.min(mid)).sum();
                        if given < spare {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    let level = 0.5 * (lo + hi);
                    for &(i, h) in &heads {
                        self.streams[i].rate += h.min(level);
                    }
                }
            }
        }
    }

    pub(crate) fn find(&self, id: StreamId) -> Option<usize> {
        self.streams.iter().position(|s| s.id == id)
    }

    pub(crate) fn remove(&mut self, id: StreamId) -> Option<RefStream> {
        let removed = self.find(id).map(|i| self.streams.swap_remove(i));
        if let Some(r) = &removed {
            self.retired_mb += r.sent_mb;
        }
        removed
    }

    /// Per server, the seconds from the reference clock to the earliest
    /// completion or buffer fill among its streams at their current
    /// rates: the reference's own answer to the wake its engine cached.
    pub(crate) fn next_events(&self) -> Vec<Option<f64>> {
        let mut next: Vec<Option<f64>> = vec![None; self.capacity.len()];
        for s in &self.streams {
            let slot = &mut next[s.server];
            let mut consider = |dt: f64| {
                if slot.is_none_or(|t| dt < t) {
                    *slot = Some(dt);
                }
            };
            if s.rate > 0.0 {
                consider(s.remaining_mb() / s.rate);
            }
            // Playing, the buffer drains at the view rate; paused, not at
            // all.
            let growth = s.rate - if s.paused { 0.0 } else { s.view_rate };
            if !s.client.is_unbounded_staging() && growth > 0.0 {
                consider((s.client.staging_capacity_mb - s.staged_mb()).max(0.0) / growth);
            }
        }
        next
    }

    pub(crate) fn committed_mbps(&self, server: usize) -> f64 {
        self.streams
            .iter()
            .filter(|s| s.server == server)
            .map(|s| s.view_rate)
            .sum()
    }
}

/// Mirrors one migration hop in the reference: `victim` must be known,
/// must live on `from`, and `to` must hold its video; its reference
/// placement then moves to `to`. Shared by single-hop admissions and
/// chain-2 admissions (two calls, inner hop first — the order the
/// controller applies them).
pub(crate) fn mirror_relocation(
    seed: u64,
    now: SimTime,
    reference: &mut RefCluster,
    map: &ReplicaMap,
    victim: StreamId,
    from: ServerId,
    to: ServerId,
) -> Result<(), Box<Divergence>> {
    let Some(vi) = reference.find(victim) else {
        diverge!(
            seed,
            now,
            Some(victim),
            Some(from),
            DivergenceKind::StreamSet,
            "migration victim unknown to the reference"
        );
    };
    let v = &mut reference.streams[vi];
    if v.server != from.index() {
        diverge!(
            seed,
            now,
            Some(victim),
            Some(from),
            DivergenceKind::Admission,
            "victim lived on server {} per the reference",
            v.server
        );
    }
    if !map.holds(to, v.video) {
        diverge!(
            seed,
            now,
            Some(victim),
            Some(to),
            DivergenceKind::Admission,
            "victim moved to a non-holder of its video"
        );
    }
    v.server = to.index();
    Ok(())
}
