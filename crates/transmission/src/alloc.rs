//! Bandwidth allocation policies (minimum-flow family).
//!
//! All policies share the minimum-flow skeleton: every unfinished stream
//! first receives its view bandwidth; the policies differ only in how the
//! *spare* server bandwidth is distributed among streams whose staging
//! buffers still have room:
//!
//! * [`SchedulerKind::Eftf`] — the paper's Earliest Finishing Time First
//!   (Fig. 2): spare goes to the stream with the earliest projected finish,
//!   up to its client receive cap, then the next, and so on. Optimal among
//!   minimum-flow algorithms for unbounded receive caps (Theorem 1).
//! * [`SchedulerKind::LatestFinishFirst`] — the adversarial mirror image;
//!   an ablation baseline showing the ordering matters.
//! * [`SchedulerKind::ProportionalShare`] — waterfilling: spare is split
//!   evenly among candidates, respecting receive caps; a "fair" baseline.
//! * [`SchedulerKind::NoWorkahead`] — no spare is handed out at all:
//!   classic *continuous* transmission, the pre-paper state of the art.
//!
//! [`allocate`] mutates the streams' rates in place and returns the spare
//! bandwidth that could not be used (all buffers full / caps reached).
//! It is the specification. The engine runs [`allocate_incremental`]'s
//! walk, which gives the same rates bit for bit with less work, takes a
//! pre-step that brings each stream up to `now` inside the minimum-flow
//! pass, and leaves in its [`AllocScratch`] what the engine's wake fold
//! needs.

use crate::stream::{Stream, StreamId};
use crate::EPS_MB;
use sct_simcore::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Which minimum-flow allocation policy a server runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Earliest Finishing Time First (the paper's algorithm, Fig. 2).
    Eftf,
    /// Latest finishing time first — adversarial ablation.
    LatestFinishFirst,
    /// Even split of spare bandwidth among eligible streams (waterfill).
    ProportionalShare,
    /// No workahead: every stream gets exactly `b_view` (continuous
    /// transmission baseline).
    NoWorkahead,
}

impl SchedulerKind {
    /// All variants, for ablation sweeps.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Eftf,
        SchedulerKind::LatestFinishFirst,
        SchedulerKind::ProportionalShare,
        SchedulerKind::NoWorkahead,
    ];

    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Eftf => "eftf",
            SchedulerKind::LatestFinishFirst => "lff",
            SchedulerKind::ProportionalShare => "prop",
            SchedulerKind::NoWorkahead => "none",
        }
    }
}

/// Distributes `capacity_mbps` across `streams` at time `now` according to
/// `kind`, writing each stream's rate. All streams must be unfinished and
/// advanced to `now`. Returns the unused (idle) bandwidth.
///
/// ```
/// use sct_transmission::{allocate, SchedulerKind, Stream, StreamId};
/// use sct_media::{ClientProfile, VideoId};
/// use sct_simcore::SimTime;
/// let client = ClientProfile::new(1e6, 30.0);
/// let mut streams = vec![
///     Stream::new(StreamId(1), VideoId(0), 30.0, 3.0, client, SimTime::ZERO),
///     Stream::new(StreamId(2), VideoId(1), 600.0, 3.0, client, SimTime::ZERO),
/// ];
/// let idle = allocate(SchedulerKind::Eftf, 40.0, SimTime::ZERO, &mut streams);
/// // Minimum flow 3 + 3; EFTF gives the earliest finisher the spare, up
/// // to its 30 Mb/s receive cap; the rest goes to the other stream.
/// assert_eq!(streams[0].rate(), 30.0);
/// assert_eq!(streams[1].rate(), 10.0);
/// assert_eq!(idle, 0.0);
/// ```
///
/// Panics in debug builds if the minimum-flow admission invariant
/// (Σ `b_view` ≤ capacity) is violated — admission control must prevent
/// that before calling.
pub fn allocate(
    kind: SchedulerKind,
    capacity_mbps: f64,
    now: SimTime,
    streams: &mut [Stream],
) -> f64 {
    // Phase 1: minimum flow. Paused streams consume nothing, so their
    // guaranteed minimum is zero — a paused stream with a full buffer
    // cannot absorb even the view rate (interactivity extension; in the
    // paper's regime nothing is ever paused and every stream gets b_view).
    let mut used = 0.0;
    for s in streams.iter_mut() {
        debug_assert!(!s.is_finished(), "finished streams must be reaped first");
        let min = if s.is_paused() { 0.0 } else { s.view_rate };
        s.set_rate(min);
        used += min;
    }
    let mut spare = capacity_mbps - used;
    debug_assert!(
        spare >= -EPS_MB,
        "admission let through too many streams: used {used} of {capacity_mbps}"
    );
    if spare <= EPS_MB {
        return spare.max(0.0);
    }

    // Phase 2: distribute spare among streams that can absorb workahead.
    let mut candidates: Vec<usize> = (0..streams.len())
        .filter(|&i| !streams[i].buffer_full(now))
        .collect();

    match kind {
        SchedulerKind::NoWorkahead => {}
        SchedulerKind::Eftf | SchedulerKind::LatestFinishFirst => {
            candidates.sort_by(|&a, &b| {
                let fa = streams[a].projected_finish(now);
                let fb = streams[b].projected_finish(now);
                let ord = fa.cmp(&fb).then(streams[a].id.cmp(&streams[b].id));
                if kind == SchedulerKind::LatestFinishFirst {
                    ord.reverse()
                } else {
                    ord
                }
            });
            for &i in &candidates {
                if spare <= EPS_MB {
                    break;
                }
                let s = &mut streams[i];
                let headroom = s.client.receive_cap_mbps - s.rate();
                let give = spare.min(headroom).max(0.0);
                s.set_rate(s.rate() + give);
                spare -= give;
            }
        }
        SchedulerKind::ProportionalShare => {
            spare -= waterfill(spare, now, streams, &candidates);
        }
    }
    spare.max(0.0)
}

/// Reusable scratch for [`allocate_incremental`]: what the minimum-flow
/// pass gathers for the engine's wake fold, plus the spare-order cutoff
/// carried over from the previous allocation.
///
/// Each server engine owns one of these. Under EFTF and LFF the greedy
/// walk stops once the spare runs out, so only a short head of the spare
/// order decides any rate. The minimum-flow pass, which visits every
/// stream anyway, collects the candidates whose key falls at or before
/// the cutoff; those form an exact prefix of the spare order, and sorting
/// just them orders it. The cutoff tracks how deep the previous walk
/// went, so the head stays a few dozen entries on a server of a thousand
/// streams. A walk that outruns the head extends it from the candidates
/// beyond the cutoff. Any cutoff yields the same rates; it only sets how
/// much is sorted.
#[derive(Clone, Debug, Default)]
pub struct AllocScratch {
    /// Under the waterfill, this call's candidates (`!buffer_full`), by
    /// ascending index, with what the wake fold reads of them. Only they
    /// can receive workahead; every other stream stays at its minimum
    /// flow. The ordered schedulers only count theirs: their wake fold
    /// revisits the walked head, and the rare head extension reads the
    /// streams again.
    open: Vec<Open>,
    /// The earliest completion at minimum flow, `now` plus `finish_in`,
    /// over the playing streams whose events this call already knows,
    /// paired with the index of the stream that completes then. That is
    /// every stream that is not a candidate: it stays at `b_view`, where
    /// its buffer cannot grow, so completion is its only event (a paused
    /// one has none). Under EFTF and LFF it is every candidate too: the
    /// greedy walk only speeds a stream up, so its completion can only
    /// come earlier, and the wake fold revisits the walked ones.
    settled_wake: Option<(SimTime, usize)>,
    /// Under EFTF and LFF, how far the spare walk went: only
    /// `head[..walked]` left their minimum flow, so the wake fold
    /// revisits just them. `None` under the other schedulers, whose fold
    /// revisits every candidate.
    walked: Option<usize>,
    /// The head of this call's spare order, `(key, index)`: the
    /// candidates at or before `cutoff`, sorted.
    head: Vec<(Key, u32)>,
    /// Candidates beyond the head, gathered only when the walk outruns it.
    rest: Vec<(Key, u32)>,
    /// Spare-order key bounding the head, chosen from the previous walk's
    /// depth; `None` puts every candidate in the head.
    cutoff: Option<Key>,
    /// Candidate indices for the waterfill.
    indices: Vec<usize>,
}

/// A waterfill candidate, as the minimum-flow pass found it. Rates do not
/// move either value, so the wake fold reads them after allocation.
#[derive(Clone, Copy, Debug)]
struct Open {
    /// Index into the stream slice.
    index: usize,
    /// Seconds to finish at `b_view` (`remaining / view_rate`). The spare
    /// order's key is `now` plus this, and a candidate the walk leaves at
    /// `b_view` completes in exactly this long.
    finish_in: f64,
    /// Staging level, `staged_mb(now)`.
    staged: f64,
}

impl AllocScratch {
    /// When the streams the last allocation walk allocated next change
    /// state on their own: the earliest completion or buffer fill, as
    /// [`crate::ServerEngine::next_event_after`] finds it. That walk
    /// folded every stream whose events it knew; this visits the streams
    /// the spare may have moved: the walked head of the spare order, or
    /// every candidate of the waterfill. Each time comes from the same
    /// operands as the reference computes it, and the earliest of a set
    /// does not depend on the order it is scanned in, so the time is
    /// bit-identical. (A walked stream's completion at `b_view`, which
    /// the walk folded too, is never earlier than its completion at its
    /// faster rate, so it cannot move the minimum.)
    ///
    /// Also names the stream whose completion the fold picked, if the
    /// earliest event is a completion (the first one met on a tie): the
    /// finisher the engine's next wake expects. It is only a prediction;
    /// the wake checks it.
    pub(crate) fn next_wake(
        &self,
        now: SimTime,
        streams: &[Stream],
    ) -> (Option<SimTime>, Option<usize>) {
        let (mut wake, mut finisher) = match self.settled_wake {
            Some((t, i)) => (Some(t), Some(i)),
            None => (None, None),
        };
        let mut consider = |dt: Option<f64>, completes: Option<usize>| {
            if let Some(dt) = dt {
                let t = now + dt;
                if wake.is_none_or(|w| t < w) {
                    wake = Some(t);
                    finisher = completes;
                }
            }
        };
        match self.walked {
            Some(walked) => {
                for &(_, i) in &self.head[..walked] {
                    let s = &streams[i as usize];
                    consider(s.time_to_completion(), Some(i as usize));
                    consider(s.time_to_buffer_full(now), None);
                }
            }
            None => {
                for c in &self.open {
                    let s = &streams[c.index];
                    // A candidate the waterfill left at `b_view` completes
                    // in `remaining / b_view`, the quotient the allocator
                    // took.
                    let completion = if s.rate() == s.view_rate {
                        Some(c.finish_in)
                    } else {
                        s.time_to_completion()
                    };
                    consider(completion, Some(c.index));
                    consider(s.time_to_fill(|| c.staged), None);
                }
            }
        }
        (wake, finisher)
    }
}

/// A stream's place in the spare order: its projected finish, ties broken
/// by id, so keys are unique.
type Key = (SimTime, StreamId);

/// How many spare-order entries the head keeps beyond twice the previous
/// walk's depth, so the next walk, usually about as deep, stays inside it.
const HEAD_SLACK: usize = 4;

/// `kind`'s spare order on keys: EFTF ascending, LFF descending — the
/// order [`allocate`] sorts its candidates into.
#[inline]
fn spare_order(kind: SchedulerKind, a: &Key, b: &Key) -> Ordering {
    let ord = a.0.cmp(&b.0).then(a.1.cmp(&b.1));
    match kind {
        SchedulerKind::Eftf => ord,
        SchedulerKind::LatestFinishFirst => ord.reverse(),
        _ => unreachable!("only the ordered schedulers walk a spare order"),
    }
}

/// [`allocate`], reusing `scratch` across calls. Produces
/// **bit-identical** rates to the full allocator: phase 1 is the same
/// arithmetic in the same iteration order, and phase 2 walks the same
/// uniquely-sorted candidate sequence as far as the spare lasts — only
/// the part of it the walk reaches is ever sorted. Leaves in `scratch`
/// what the engine's wake fold needs. Debug builds cross-check every call
/// against [`allocate`] on a clone.
pub fn allocate_incremental(
    kind: SchedulerKind,
    capacity_mbps: f64,
    now: SimTime,
    streams: &mut [Stream],
    scratch: &mut AllocScratch,
) -> f64 {
    allocate_walk(kind, capacity_mbps, now, streams, scratch, |_, _| true)
        .expect("a walk without a pre-step runs to the end")
}

/// [`allocate_incremental`] with a pre-step: the minimum-flow pass calls
/// `pre(i, stream)` on each stream before reading it, so the engine can
/// bring the stream up to `now` in the same walk. A pre-step that
/// returns `false` abandons the walk at that stream and the call returns
/// `None`: the streams before it have had their pre-step and their
/// minimum flow, the rest are untouched, and the scratch holds no
/// result. A walk that runs to the end (the engine calls it committed)
/// must meet no finished stream; debug builds assert it.
#[inline(always)]
pub(crate) fn allocate_walk(
    kind: SchedulerKind,
    capacity_mbps: f64,
    now: SimTime,
    streams: &mut [Stream],
    scratch: &mut AllocScratch,
    pre: impl FnMut(usize, &mut Stream) -> bool,
) -> Option<f64> {
    let idle = allocate_incremental_inner(kind, capacity_mbps, now, streams, scratch, pre)?;
    #[cfg(debug_assertions)]
    {
        let mut full: Vec<Stream> = streams.to_vec();
        let idle_full = allocate(kind, capacity_mbps, now, &mut full);
        debug_assert!(
            idle.to_bits() == idle_full.to_bits(),
            "incremental allocation diverged from the full allocator: idle {idle} vs {idle_full}"
        );
        for (inc, reference) in streams.iter().zip(&full) {
            debug_assert!(
                inc.rate().to_bits() == reference.rate().to_bits(),
                "incremental allocation diverged from the full allocator on stream {:?}: {} vs {}",
                inc.id,
                inc.rate(),
                reference.rate()
            );
        }
    }
    Some(idle)
}

#[inline(always)]
fn allocate_incremental_inner(
    kind: SchedulerKind,
    capacity_mbps: f64,
    now: SimTime,
    streams: &mut [Stream],
    scratch: &mut AllocScratch,
    mut pre: impl FnMut(usize, &mut Stream) -> bool,
) -> Option<f64> {
    let AllocScratch {
        open,
        settled_wake,
        walked: walked_out,
        head,
        rest,
        cutoff,
        indices,
    } = scratch;
    // Without workahead no stream is a candidate, so staging levels are
    // never needed.
    let gather = kind != SchedulerKind::NoWorkahead;
    let ordered = matches!(kind, SchedulerKind::Eftf | SchedulerKind::LatestFinishFirst);
    let in_head = |k: &Key| cutoff.is_none_or(|c| spare_order(kind, k, &c).is_le());
    open.clear();
    head.clear();
    // Phase 1: minimum flow — identical to `allocate` — fused with the
    // caller's pre-step, the gather of the candidates (and, for the
    // ordered schedulers, of the spare order's head) and the wake fold
    // at minimum flow (see `settled_wake`).
    let mut settled: Option<(SimTime, usize)> = None;
    let mut used = 0.0;
    let mut candidates = 0;
    for (i, s) in streams.iter_mut().enumerate() {
        if !pre(i, s) {
            return None;
        }
        debug_assert!(!s.is_finished(), "finished streams must be reaped first");
        let min = if s.is_paused() { 0.0 } else { s.view_rate };
        s.set_rate(min);
        used += min;
        // `Stream::projected_finish` is `now` plus this quotient, and
        // `Stream::time_to_completion` is this quotient at `b_view`.
        let finish_in = s.remaining_mb() / s.view_rate;
        let staged = if gather { s.staged_mb(now) } else { 0.0 };
        let candidate = gather && !s.is_full_at(staged);
        if candidate {
            candidates += 1;
            if ordered {
                let k = (now + finish_in, s.id);
                if in_head(&k) {
                    head.push((k, i as u32));
                }
            } else {
                open.push(Open {
                    index: i,
                    finish_in,
                    staged,
                });
            }
        }
        if !s.is_paused() && (ordered || !candidate) {
            let t = now + finish_in;
            if settled.is_none_or(|(w, _)| t < w) {
                settled = Some((t, i));
            }
        }
    }
    *settled_wake = settled;
    *walked_out = ordered.then_some(0);
    let mut spare = capacity_mbps - used;
    debug_assert!(
        spare >= -EPS_MB,
        "admission let through too many streams: used {used} of {capacity_mbps}"
    );
    if spare <= EPS_MB {
        return Some(spare.max(0.0));
    }

    match kind {
        SchedulerKind::NoWorkahead => {}
        SchedulerKind::Eftf | SchedulerKind::LatestFinishFirst => {
            let ord = |a: &(Key, u32), b: &(Key, u32)| spare_order(kind, &a.0, &b.0);
            // The candidates up to the cutoff are a prefix of the spare
            // order, so sorting just them orders that prefix exactly.
            head.sort_unstable_by(ord);
            let mut walked = 0;
            loop {
                while walked < head.len() && spare > EPS_MB {
                    let s = &mut streams[head[walked].1 as usize];
                    let headroom = s.client.receive_cap_mbps - s.rate();
                    let give = spare.min(headroom).max(0.0);
                    s.set_rate(s.rate() + give);
                    spare -= give;
                    walked += 1;
                }
                if spare <= EPS_MB || walked == candidates {
                    break;
                }
                // The walk outran the head: extend it with the next
                // stretch of the spare order, from beyond its last key.
                // Phase 1's arithmetic gives the same candidates and keys:
                // only rates have moved since.
                if rest.is_empty() {
                    let last = head.last().map(|e| e.0);
                    rest.extend(streams.iter().enumerate().filter_map(|(i, s)| {
                        let k = (now + s.remaining_mb() / s.view_rate, s.id);
                        (!s.is_full_at(s.staged_mb(now))
                            && last.is_none_or(|l| spare_order(kind, &k, &l).is_gt()))
                        .then_some((k, i as u32))
                    }));
                }
                let take = (2 * walked + HEAD_SLACK).min(rest.len());
                if take < rest.len() {
                    rest.select_nth_unstable_by(take, ord);
                }
                rest[..take].sort_unstable_by(ord);
                head.extend(rest.drain(..take));
            }
            rest.clear();
            *walked_out = Some(walked);
            // The next head: twice this walk's depth, plus slack.
            *cutoff = head
                .get((2 * walked + HEAD_SLACK).min(head.len().saturating_sub(1)))
                .map(|e| e.0);
        }
        SchedulerKind::ProportionalShare => {
            // The waterfill sorts internally by (headroom, index) — its
            // result is independent of candidate input order, so index
            // order (what `allocate` passes) needs no ordering machinery.
            indices.clear();
            indices.extend(open.iter().map(|c| c.index));
            spare -= waterfill(spare, now, streams, indices);
        }
    }
    Some(spare.max(0.0))
}

/// Exact waterfill: finds the common extra rate `r` such that
/// `Σ min(headroom_i, r) = spare` (or hands out all headroom if spare
/// exceeds it). Returns the amount distributed.
fn waterfill(spare: f64, _now: SimTime, streams: &mut [Stream], candidates: &[usize]) -> f64 {
    if candidates.is_empty() || spare <= EPS_MB {
        return 0.0;
    }
    let mut headrooms: Vec<(usize, f64)> = candidates
        .iter()
        .map(|&i| {
            let s = &streams[i];
            (i, (s.client.receive_cap_mbps - s.rate()).max(0.0))
        })
        .collect();
    headrooms.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

    let total_headroom: f64 = headrooms.iter().map(|&(_, h)| h).sum();
    if total_headroom <= spare {
        // Everyone saturates.
        for &(i, h) in &headrooms {
            let s = &mut streams[i];
            s.set_rate(s.rate() + h);
        }
        return total_headroom;
    }

    // Find the water level. Processing in ascending headroom order: once a
    // stream's headroom is below the provisional even share, it saturates
    // and the rest re-split.
    let mut remaining = spare;
    let mut left = headrooms.len();
    let mut level = 0.0;
    for &(_, h) in &headrooms {
        let share = remaining / left as f64;
        if h <= share {
            remaining -= h;
            left -= 1;
        } else {
            level = share;
            break;
        }
    }
    let mut given = 0.0;
    for &(i, h) in &headrooms {
        // Saturated streams (h <= level) take exactly their headroom;
        // the rest take the common water level.
        let extra = h.min(level);
        let s = &mut streams[i];
        s.set_rate(s.rate() + extra);
        given += extra;
    }
    given
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Stream, StreamId};
    use sct_media::{ClientProfile, VideoId};

    const NOW: SimTime = SimTime::ZERO;

    /// A stream with `remaining` Mb left, buffer capacity `cap`, receive
    /// cap `recv`, view rate 3.
    fn mk(id: u64, size: f64, cap: f64, recv: f64) -> Stream {
        Stream::new(
            StreamId(id),
            VideoId(id as u32),
            size,
            3.0,
            ClientProfile::new(cap, recv),
            NOW,
        )
    }

    fn rates(streams: &[Stream]) -> Vec<f64> {
        streams.iter().map(|s| s.rate()).collect()
    }

    #[test]
    fn min_flow_always_granted() {
        let mut streams = vec![mk(1, 300.0, 0.0, 30.0), mk(2, 600.0, 0.0, 30.0)];
        for kind in SchedulerKind::ALL {
            let idle = allocate(kind, 100.0, NOW, &mut streams);
            assert_eq!(rates(&streams), vec![3.0, 3.0], "{kind:?}");
            assert!((idle - 94.0).abs() < 1e-9, "{kind:?}: idle {idle}");
        }
    }

    #[test]
    fn eftf_favors_earliest_finish() {
        // Stream 1 has 30 Mb left (finish in 10 s at b_view), stream 2 has
        // 600 Mb (200 s). Both have big buffers and 30 Mb/s caps.
        let mut streams = vec![mk(1, 30.0, 1e6, 30.0), mk(2, 600.0, 1e6, 30.0)];
        let idle = allocate(SchedulerKind::Eftf, 40.0, NOW, &mut streams);
        // min flow: 3+3; spare 34 → stream 1 up to 30, stream 2 gets 7.
        assert_eq!(rates(&streams), vec![30.0, 10.0]);
        assert_eq!(idle, 0.0);
    }

    #[test]
    fn lff_mirrors_eftf() {
        let mut streams = vec![mk(1, 30.0, 1e6, 30.0), mk(2, 600.0, 1e6, 30.0)];
        allocate(SchedulerKind::LatestFinishFirst, 40.0, NOW, &mut streams);
        assert_eq!(rates(&streams), vec![10.0, 30.0]);
    }

    #[test]
    fn full_buffers_get_only_view_rate() {
        // Zero staging: workahead impossible even with spare capacity.
        let mut streams = vec![mk(1, 300.0, 0.0, 30.0), mk(2, 300.0, 1e6, 30.0)];
        let idle = allocate(SchedulerKind::Eftf, 100.0, NOW, &mut streams);
        assert_eq!(streams[0].rate(), 3.0);
        assert_eq!(streams[1].rate(), 30.0);
        assert!((idle - 67.0).abs() < 1e-9);
    }

    #[test]
    fn receive_cap_limits_workahead() {
        let mut streams = vec![mk(1, 300.0, 1e6, 5.0)];
        let idle = allocate(SchedulerKind::Eftf, 100.0, NOW, &mut streams);
        assert_eq!(streams[0].rate(), 5.0);
        assert!((idle - 95.0).abs() < 1e-9);
    }

    #[test]
    fn no_workahead_ignores_spare() {
        let mut streams = vec![mk(1, 300.0, 1e6, 30.0), mk(2, 300.0, 1e6, 30.0)];
        let idle = allocate(SchedulerKind::NoWorkahead, 100.0, NOW, &mut streams);
        assert_eq!(rates(&streams), vec![3.0, 3.0]);
        assert!((idle - 94.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_share_splits_evenly() {
        let mut streams = vec![
            mk(1, 300.0, 1e6, 30.0),
            mk(2, 600.0, 1e6, 30.0),
            mk(3, 900.0, 1e6, 30.0),
        ];
        let idle = allocate(SchedulerKind::ProportionalShare, 30.0, NOW, &mut streams);
        // 9 min-flow, spare 21 → 7 extra each.
        assert_eq!(rates(&streams), vec![10.0, 10.0, 10.0]);
        assert!(idle.abs() < 1e-9);
    }

    #[test]
    fn proportional_share_respects_uneven_caps() {
        let mut streams = vec![
            mk(1, 300.0, 1e6, 5.0),  // headroom 2
            mk(2, 300.0, 1e6, 30.0), // headroom 27
            mk(3, 300.0, 1e6, 30.0), // headroom 27
        ];
        let idle = allocate(SchedulerKind::ProportionalShare, 31.0, NOW, &mut streams);
        // min-flow 9, spare 22: stream 1 saturates at +2, remaining 20
        // splits 10/10.
        assert_eq!(rates(&streams), vec![5.0, 13.0, 13.0]);
        assert!(idle.abs() < 1e-9);
    }

    #[test]
    fn proportional_share_with_excess_spare_saturates_everyone() {
        let mut streams = vec![mk(1, 300.0, 1e6, 10.0), mk(2, 300.0, 1e6, 10.0)];
        let idle = allocate(SchedulerKind::ProportionalShare, 100.0, NOW, &mut streams);
        assert_eq!(rates(&streams), vec![10.0, 10.0]);
        assert!((idle - 80.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_conserves_capacity() {
        for kind in SchedulerKind::ALL {
            let mut streams: Vec<Stream> = (0..20)
                .map(|i| mk(i, 100.0 + 37.0 * i as f64, (i % 3) as f64 * 500.0, 30.0))
                .collect();
            let idle = allocate(kind, 100.0, NOW, &mut streams);
            let total: f64 = streams.iter().map(|s| s.rate()).sum();
            assert!(
                (total + idle - 100.0).abs() < 1e-6,
                "{kind:?}: {total} + {idle} != 100"
            );
            for s in &streams {
                assert!(s.rate() >= s.view_rate - 1e-12, "{kind:?} broke min-flow");
                assert!(
                    s.rate() <= s.client.receive_cap_mbps + 1e-12,
                    "{kind:?} broke receive cap"
                );
            }
        }
    }

    #[test]
    fn empty_server_is_all_idle() {
        let mut streams: Vec<Stream> = Vec::new();
        for kind in SchedulerKind::ALL {
            assert_eq!(allocate(kind, 100.0, NOW, &mut streams), 100.0);
        }
    }

    #[test]
    fn eftf_tie_break_is_by_id() {
        // Identical projected finishes: lower id wins the spare.
        let mut streams = vec![mk(2, 300.0, 1e6, 30.0), mk(1, 300.0, 1e6, 30.0)];
        allocate(SchedulerKind::Eftf, 33.0, NOW, &mut streams);
        // spare = 27 → id 1 takes it all (up to cap).
        assert_eq!(streams[1].rate(), 30.0);
        assert_eq!(streams[0].rate(), 3.0);
    }

    #[test]
    fn scheduler_names_are_stable() {
        assert_eq!(SchedulerKind::Eftf.name(), "eftf");
        assert_eq!(SchedulerKind::NoWorkahead.name(), "none");
    }

    mod waterfill_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Conservation and cap-respect of the waterfill under random
            /// headrooms: everything handed out is accounted for
            /// (`given + idle == spare`), nobody exceeds their receive
            /// cap, and the fill is exact — `given == min(spare, Σ h_i)`.
            #[test]
            fn waterfill_conserves_and_respects_caps(
                spare in 0.0f64..200.0,
                caps in proptest::collection::vec(0.0f64..50.0, 1..12),
            ) {
                let mut streams: Vec<Stream> = caps
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| mk(i as u64, 300.0, 1e9, 3.0 + h))
                    .collect();
                // Start from the minimum flow, as `allocate` does.
                for s in &mut streams {
                    s.set_rate(s.view_rate);
                }
                let candidates: Vec<usize> = (0..streams.len()).collect();
                let given = waterfill(spare, NOW, &mut streams, &candidates);
                let total_headroom: f64 = caps.iter().sum();

                // Conservation: the distributed total matches the per-
                // stream rate increases, and given + idle == spare.
                let distributed: f64 =
                    streams.iter().map(|s| s.rate() - s.view_rate).sum();
                prop_assert!((distributed - given).abs() < 1e-9);
                let idle = spare - given;
                prop_assert!(idle >= -1e-9, "gave out more than spare");
                prop_assert!(
                    (given - spare.min(total_headroom)).abs() < 1e-6,
                    "inexact fill: given {given}, spare {spare}, \
                     headroom {total_headroom}"
                );
                for (s, &h) in streams.iter().zip(&caps) {
                    prop_assert!(
                        s.rate() <= 3.0 + h + 1e-9,
                        "receive cap violated: {} > {}",
                        s.rate(),
                        3.0 + h
                    );
                    prop_assert!(s.rate() >= 3.0 - 1e-12, "min flow violated");
                }
            }
        }
    }
}
