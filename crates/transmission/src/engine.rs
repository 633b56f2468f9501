//! Per-server stream engine.
//!
//! A [`ServerEngine`] owns the streams currently served by one data source
//! and advances them between events. The global simulation drives it with
//! four operations, each of which walks the server's streams once:
//!
//! 1. [`ServerEngine::admit`] — take a new stream and reallocate;
//! 2. [`ServerEngine::wake`] — at the server's own next event, reap the
//!    streams that finished and reallocate;
//! 3. [`ServerEngine::set_paused`] — toggle a stream's playback and
//!    reallocate;
//! 4. [`ServerEngine::advance_to`] — integrate every stream (and the
//!    transmitted-megabits meters) up to the current time without
//!    reallocating, for readers that need the state at `now`.
//!
//! The first three bring each stream up to `now` as a pre-step of the
//! allocator's minimum-flow pass, so the integration, the reap and the
//! allocation share one walk. The separate steps stay available —
//! [`advance_to`](ServerEngine::advance_to), then
//! [`reap_finished`](ServerEngine::reap_finished) or
//! [`remove_stream`](ServerEngine::remove_stream), then
//! [`reschedule`](ServerEngine::reschedule) — and give bit-identical
//! results: every stream sees the same arithmetic, and the meters add the
//! same deltas in the same order.
//!
//! The engine only reports its next wake ([`ServerEngine::last_wake`]);
//! the event loop keeps one wake slot per server and re-arms or clears
//! it after every walk, `fail` or `repair`.

use crate::alloc::{allocate_walk, AllocScratch, SchedulerKind};
use crate::stream::{Stream, StreamId};
use crate::{EPS_MB, EPS_SECS};
use sct_cluster::ServerId;
use sct_simcore::SimTime;
use std::cell::Cell;

/// The transmission state of one data server.
#[derive(Clone, Debug)]
pub struct ServerEngine {
    id: ServerId,
    capacity_mbps: f64,
    scheduler: SchedulerKind,
    streams: Vec<Stream>,
    clock: SimTime,
    meters: Meters,
    /// Transmission before this instant does not count toward utilization.
    measure_start: SimTime,
    /// Sum of admitted view rates — the minimum-flow commitment.
    committed_mbps: f64,
    /// Sum of currently allocated transmission rates, summed in stream
    /// order when first read after a mutation and cached until the next
    /// one (`None` while stale), so it is bit-identical to a fresh fold
    /// over [`ServerEngine::streams`]. Only observers read it, so only
    /// they pay for the walk. An engine that is new, failed or repaired
    /// holds `+0.0`.
    allocated_mbps: Cell<Option<f64>>,
    /// Whether the server is up. Offline servers admit nothing and hold no
    /// streams; see [`ServerEngine::fail`].
    online: bool,
    /// Incremental-allocation scratch (cached spare order + SoA columns).
    scratch: AllocScratch,
    /// The wake time computed by the last allocation walk (absolute, so
    /// it stays valid under pure time advancement). Lets re-arm sites
    /// reuse the schedule instead of re-scanning every stream.
    last_wake: Option<SimTime>,
    /// The position of the stream whose completion `last_wake` is, as the
    /// last wake fold found it: [`ServerEngine::wake`] reaps it in place.
    finisher: Option<usize>,
    /// Full walks over the streams (integration, allocation, reap scan or
    /// rate sum) since construction, and the streams they visited. Lookups
    /// by id stop at their stream and are not counted.
    walks: Cell<u64>,
    visits: Cell<u64>,
}

/// The engine's transmitted-megabits meters.
#[derive(Clone, Copy, Debug, Default)]
struct Meters {
    /// Megabits transmitted since t = 0 (includes warm-up).
    transmitted_mb: f64,
    /// Megabits transmitted since the measurement start.
    measured_mb: f64,
}

impl Meters {
    /// Meters one stream's `delta` over a step whose `fraction` lies in
    /// the measurement window.
    #[inline]
    fn add(&mut self, delta: f64, fraction: f64) {
        self.transmitted_mb += delta;
        self.measured_mb += delta * fraction;
    }
}

/// How an allocation walk brings each stream up to `now` before reading
/// it. The meters must add the deltas in stream order as it stood before
/// the walk's reap, so a delta taken out of turn is held until then.
#[derive(Clone, Copy)]
struct Step {
    now: SimTime,
    /// Share of the step inside the measurement window.
    fraction: f64,
    /// Streams below this position advance: none when the clock does not
    /// move, all but the newcomer `admit` pushed last otherwise.
    advance_below: usize,
    /// The position of a stream advanced before the walk (`usize::MAX`
    /// for none) and its delta: the delta is metered when the walk
    /// reaches that position, or after the walk if the position is just
    /// past the end (a reaped last stream).
    held_at: usize,
    held: f64,
    /// Whether the stream now at `held_at` was moved there from the end
    /// by an in-place reap: it is advanced there, and its delta waits
    /// until after the walk, its turn before the reap.
    moved: bool,
    deferred: f64,
}

impl Step {
    /// A step to `now`; `fraction` is `None` when the clock does not move.
    fn new(now: SimTime, fraction: Option<f64>) -> Step {
        Step {
            now,
            fraction: fraction.unwrap_or(0.0),
            advance_below: if fraction.is_some() { usize::MAX } else { 0 },
            held_at: usize::MAX,
            held: 0.0,
            moved: false,
            deferred: 0.0,
        }
    }

    /// Advances the stream at position `i` ahead of the walk and holds
    /// its delta for its turn; a no-op when the clock does not move.
    fn hold(&mut self, i: usize, s: &mut Stream) {
        if i < self.advance_below {
            self.held_at = i;
            self.held = s.advance_to(self.now);
        }
    }

    /// Advances the stream at position `i` and meters its delta in turn.
    #[inline(always)]
    fn advance(&mut self, i: usize, s: &mut Stream, meters: &mut Meters) {
        if i >= self.advance_below {
            return;
        }
        if i == self.held_at {
            meters.add(self.held, self.fraction);
            if self.moved {
                self.deferred = s.advance_to(self.now);
            }
        } else {
            meters.add(s.advance_to(self.now), self.fraction);
        }
    }

    /// Meters what the walk over `len` streams held back.
    fn finish(&self, len: usize, meters: &mut Meters) {
        if self.held_at == len {
            meters.add(self.held, self.fraction);
        } else if self.held_at < len && self.moved {
            meters.add(self.deferred, self.fraction);
        }
    }
}

impl ServerEngine {
    /// Creates an idle engine.
    pub fn new(id: ServerId, capacity_mbps: f64, scheduler: SchedulerKind) -> Self {
        assert!(capacity_mbps > 0.0);
        ServerEngine {
            id,
            capacity_mbps,
            scheduler,
            streams: Vec::new(),
            clock: SimTime::ZERO,
            meters: Meters::default(),
            measure_start: SimTime::ZERO,
            committed_mbps: 0.0,
            allocated_mbps: Cell::new(Some(0.0)),
            online: true,
            scratch: AllocScratch::default(),
            last_wake: None,
            finisher: None,
            walks: Cell::new(0),
            visits: Cell::new(0),
        }
    }

    /// Sets the utilization-measurement start (warm-up cutoff). Must be
    /// called before the simulation starts.
    pub fn set_measure_start(&mut self, t: SimTime) {
        assert!(self.clock == SimTime::ZERO && self.streams.is_empty());
        self.measure_start = t;
    }

    /// Server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Outbound capacity in Mb/s.
    pub fn capacity_mbps(&self) -> f64 {
        self.capacity_mbps
    }

    /// Number of unfinished streams currently assigned here.
    pub fn active_count(&self) -> usize {
        self.streams.len()
    }

    /// The streams currently assigned here (read-only; used by the
    /// migration victim search).
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// The engine's local clock (time of the last integration).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Megabits transmitted within the measurement window so far.
    pub fn measured_mb(&self) -> f64 {
        self.meters.measured_mb
    }

    /// Megabits transmitted since t = 0.
    pub fn transmitted_mb(&self) -> f64 {
        self.meters.transmitted_mb
    }

    /// Full walks over this engine's streams so far: integrations,
    /// allocation walks, reap scans and rate sums.
    pub fn walks(&self) -> u64 {
        self.walks.get()
    }

    /// Streams those walks visited.
    pub fn stream_visits(&self) -> u64 {
        self.visits.get()
    }

    /// Counts one walk over `n` streams.
    #[inline]
    fn count_walk(&self, n: usize) {
        self.walks.set(self.walks.get() + 1);
        self.visits.set(self.visits.get() + n as u64);
    }

    /// Minimum-flow admission test (§3.3): can this server take one more
    /// stream viewed at `view_rate` without breaking Σ b_view ≤ capacity?
    /// Offline servers admit nothing.
    pub fn can_admit(&self, view_rate: f64) -> bool {
        self.online && self.committed_mbps + view_rate <= self.capacity_mbps + EPS_MB
    }

    /// `true` while the server is up.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Sum of the view rates of all admitted streams — the minimum-flow
    /// commitment that [`ServerEngine::can_admit`] guards. Read by the
    /// telemetry gauges and cross-checked by the differential oracle
    /// against its own ledger.
    pub fn committed_mbps(&self) -> f64 {
        self.committed_mbps
    }

    /// Sum of the rates currently allocated to this server's streams —
    /// identical to summing [`ServerEngine::streams`] in order. The first
    /// read after a mutation sums them; later reads return the cached
    /// sum.
    pub fn allocated_mbps(&self) -> f64 {
        if let Some(sum) = self.allocated_mbps.get() {
            return sum;
        }
        self.count_walk(self.streams.len());
        let sum = self.streams.iter().map(Stream::rate).sum();
        self.allocated_mbps.set(Some(sum));
        sum
    }

    /// Test-only fault injection: silently perturbs one stream's allocated
    /// rate *without* reallocating or invalidating scheduled wakes —
    /// exactly the signature of an allocator bug. Returns `false` if the
    /// stream is not on this server. Used to prove the differential oracle
    /// catches misallocations; never call outside oracle self-tests.
    #[cfg(feature = "differential")]
    pub fn inject_rate_error(&mut self, id: StreamId, delta_mbps: f64) -> bool {
        match self.streams.iter_mut().find(|s| s.id == id) {
            Some(s) => {
                let rate = (s.rate() + delta_mbps).max(0.0);
                s.set_rate(rate);
                self.allocated_mbps.set(None);
                true
            }
            None => false,
        }
    }

    /// Fails the server at `now`: integrates state, takes every active
    /// stream off it (their transmission state intact, for possible
    /// emergency migration by the controller), and marks it offline.
    /// It has no next wake until it admits again.
    pub fn fail(&mut self, now: SimTime) -> Vec<Stream> {
        self.advance_to(now);
        self.online = false;
        self.committed_mbps = 0.0;
        self.last_wake = None;
        self.finisher = None;
        self.allocated_mbps.set(Some(0.0));
        std::mem::take(&mut self.streams)
    }

    /// Repairs the server at `now`: it comes back empty and admitting.
    pub fn repair(&mut self, now: SimTime) {
        self.advance_to(now);
        assert!(
            self.streams.is_empty(),
            "offline servers cannot hold streams"
        );
        self.online = true;
        self.last_wake = None;
    }

    /// Moves the clock to `now` for a step that integrates the streams
    /// and returns the share of the step inside the measurement window,
    /// or `None` when the clock does not move and no stream advances.
    /// Panics if time would run backwards.
    fn begin_step(&mut self, now: SimTime) -> Option<f64> {
        let dt = now - self.clock;
        assert!(dt >= -EPS_SECS, "engine {} time went backwards", self.id);
        if dt <= 0.0 {
            // A wake time computed by float arithmetic can land up to
            // EPS_SECS before the current clock; hold the clock rather
            // than stepping it backwards, so a subsequent advance to a
            // legitimate time never sees a widened negative dt.
            self.clock = self.clock.max(now);
            return None;
        }
        // Fraction of this interval inside the measurement window. Rates
        // are constant across the interval, so a linear share is exact.
        let fraction = if self.measure_start <= self.clock {
            1.0
        } else if self.measure_start >= now {
            0.0
        } else {
            (now - self.measure_start) / dt
        };
        self.clock = now;
        Some(fraction)
    }

    /// Integrates all stream states from the engine clock to `now`.
    /// Idempotent for equal times; panics if time would run backwards.
    pub fn advance_to(&mut self, now: SimTime) {
        let Some(fraction) = self.begin_step(now) else {
            return;
        };
        self.count_walk(self.streams.len());
        for s in &mut self.streams {
            self.meters.add(s.advance_to(now), fraction);
        }
    }

    /// Admits a stream (must satisfy [`ServerEngine::can_admit`]) and
    /// reallocates bandwidth, integrating the streams already here in the
    /// same walk. Returns the next wake time.
    pub fn admit(&mut self, stream: Stream, now: SimTime) -> Option<SimTime> {
        let mut step = Step::new(now, self.begin_step(now));
        assert!(
            self.can_admit(stream.view_rate),
            "admission invariant violated on {}",
            self.id
        );
        assert!(!stream.is_finished());
        self.committed_mbps += stream.view_rate;
        step.advance_below = step.advance_below.min(self.streams.len());
        self.streams.push(stream);
        self.commit(now, step)
    }

    /// A wake at `now`: integrates every stream, removes and returns the
    /// finished ones, and reallocates — what `advance_to`, then
    /// [`reap_finished`](ServerEngine::reap_finished), then
    /// [`reschedule`](ServerEngine::reschedule) do, bit for bit, in one
    /// walk. The next wake time is [`ServerEngine::last_wake`].
    ///
    /// The last wake fold named the stream whose completion this wake
    /// should be. That stream is advanced first and, if it finished,
    /// `swap_remove`d as the reap scan would, so the walk visits the
    /// post-reap order; its delta and that of the stream moved into its
    /// place are metered at their turns in the pre-reap order. A walk
    /// that meets any other finished stream stops, and the wake falls
    /// back to the separate steps: it integrates the rest, puts the
    /// predicted finisher back where it was, scans and walks again.
    pub fn wake(&mut self, now: SimTime) -> Vec<Stream> {
        let mut step = Step::new(now, self.begin_step(now));
        let committed = self.committed_mbps;
        let mut reaped = Vec::new();
        let mut reaped_at = None;
        if let Some(p) = self.finisher.take().filter(|&p| p < self.streams.len()) {
            step.hold(p, &mut self.streams[p]);
            if self.streams[p].is_finished() {
                let done = self.streams.swap_remove(p);
                self.committed_mbps -= done.view_rate;
                if self.streams.is_empty() {
                    self.committed_mbps = 0.0; // absorb float drift at idle
                }
                step.moved = p < self.streams.len();
                reaped.push(done);
                reaped_at = Some(p);
            }
        }
        let Some(stop) = self.walk(now, &mut step, true) else {
            return reaped;
        };
        // Another stream finished: integrate the rest, undo the in-place
        // reap, then scan and walk as the separate steps do.
        let len = self.streams.len();
        for i in stop + 1..len {
            step.advance(i, &mut self.streams[i], &mut self.meters);
        }
        step.finish(len, &mut self.meters);
        if let Some(p) = reaped_at {
            self.streams.extend(reaped.pop());
            self.streams.swap(p, len);
            self.committed_mbps = committed;
        }
        let reaped = self.reap_finished(now);
        self.commit(now, Step::new(now, None));
        reaped
    }

    /// Removes and returns every finished stream. Call after
    /// `advance_to(now)`; follow with [`ServerEngine::reschedule`].
    pub fn reap_finished(&mut self, now: SimTime) -> Vec<Stream> {
        debug_assert!(
            (now - self.clock).abs() <= EPS_SECS,
            "reap before advancing"
        );
        self.count_walk(self.streams.len());
        let mut finished = Vec::new();
        let mut i = 0;
        while i < self.streams.len() {
            if self.streams[i].is_finished() {
                let s = self.streams.swap_remove(i);
                self.committed_mbps -= s.view_rate;
                finished.push(s);
            } else {
                i += 1;
            }
        }
        if !finished.is_empty() {
            if self.streams.is_empty() {
                self.committed_mbps = 0.0; // absorb float drift at idle
            }
            self.allocated_mbps.set(None);
            self.finisher = None;
        }
        finished
    }

    /// Removes a specific stream (for migration to another server).
    /// The caller must `advance_to(now)` first and reallocate after.
    pub fn remove_stream(&mut self, id: StreamId, now: SimTime) -> Option<Stream> {
        debug_assert!((now - self.clock).abs() <= EPS_SECS);
        let idx = self.streams.iter().position(|s| s.id == id)?;
        let s = self.streams.swap_remove(idx);
        self.committed_mbps -= s.view_rate;
        if self.streams.is_empty() {
            self.committed_mbps = 0.0;
        }
        self.allocated_mbps.set(None);
        self.finisher = None;
        Some(s)
    }

    /// Pauses or resumes a stream's playback (interactivity extension)
    /// and reallocates, integrating every stream in the same walk.
    /// Returns `false` if the stream is not on this server (it may have
    /// completed or migrated away); the engine is then only advanced to
    /// `now`.
    pub fn set_paused(&mut self, id: StreamId, paused: bool, now: SimTime) -> bool {
        let Some(k) = self.streams.iter().position(|s| s.id == id) else {
            self.advance_to(now);
            return false;
        };
        let mut step = Step::new(now, self.begin_step(now));
        let s = &mut self.streams[k];
        step.hold(k, s);
        if paused {
            s.pause(now);
        } else {
            s.resume(now);
        }
        self.commit(now, step);
        true
    }

    /// Re-runs the allocator at `now` and returns the time of the next
    /// intrinsic event (stream completion or buffer fill), if any. The
    /// streams must already be integrated to `now`.
    pub fn reschedule(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(
            (now - self.clock).abs() <= EPS_SECS,
            "reschedule before advancing"
        );
        self.commit(now, Step::new(now, None))
    }

    /// A walk that must run to the end; returns the next wake time.
    fn commit(&mut self, now: SimTime, mut step: Step) -> Option<SimTime> {
        let stopped = self.walk(now, &mut step, false);
        debug_assert!(stopped.is_none());
        self.last_wake
    }

    /// One walk: each stream gets `step`'s pre-step, then its part of the
    /// allocator's minimum-flow pass. Only the candidates for workahead
    /// are visited again, to finish the wake fold. Both the rates and the
    /// wake are bit-identical to [`crate::allocate`] and
    /// [`ServerEngine::next_event_after`] on the integrated streams;
    /// debug builds assert them.
    ///
    /// With `stop_at_finished` the walk stops at the first finished
    /// stream and returns its position: that stream is integrated and
    /// metered, the ones before it have their minimum flow, and the rest
    /// are untouched. Otherwise, and whenever it runs to the end, it
    /// returns `None`.
    fn walk(&mut self, now: SimTime, step: &mut Step, stop_at_finished: bool) -> Option<usize> {
        self.count_walk(self.streams.len());
        // Local copies, which the inlined walk need not reload through
        // `self` after every store to a stream.
        let (mut local, mut meters) = (*step, self.meters);
        let mut stopped = None;
        let done = allocate_walk(
            self.scheduler,
            self.capacity_mbps,
            now,
            &mut self.streams,
            &mut self.scratch,
            |i, s| {
                local.advance(i, s, &mut meters);
                if stop_at_finished && s.is_finished() {
                    stopped = Some(i);
                    return false;
                }
                true
            },
        );
        (*step, self.meters) = (local, meters);
        if done.is_none() {
            return stopped;
        }
        step.finish(self.streams.len(), &mut self.meters);
        self.allocated_mbps.set(None);
        (self.last_wake, self.finisher) = self.scratch.next_wake(now, &self.streams);
        debug_assert_eq!(
            self.last_wake,
            self.next_event_after(now),
            "fused wake fold diverged on {}",
            self.id
        );
        None
    }

    /// The wake time the most recent allocation walk reported. Valid
    /// until the stream set or a rate changes — i.e. the caller may rely
    /// on it only while it has performed no engine mutation since that
    /// walk (pure `advance_to` is fine: the cached time is absolute).
    pub fn last_wake(&self) -> Option<SimTime> {
        self.last_wake
    }

    /// When this server next changes state on its own: the earliest
    /// stream completion or buffer fill at the current rates. The
    /// reference the cached wake ([`ServerEngine::last_wake`]) is checked
    /// against.
    pub fn next_event_after(&self, now: SimTime) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for s in &self.streams {
            let events = [s.time_to_completion(), s.time_to_buffer_full(now)];
            for t in events.into_iter().flatten().map(|dt| now + dt) {
                if best.is_none_or(|bt| t < bt) {
                    best = Some(t);
                }
            }
        }
        best
    }

    /// Validates engine-level invariants at the current clock. Test aid.
    pub fn check_invariants(&self) {
        let now = self.clock;
        let mut total_rate = 0.0;
        let mut committed = 0.0;
        for s in &self.streams {
            s.check_invariants(now);
            assert!(!s.is_finished(), "finished stream not reaped");
            assert!(
                s.is_paused() || s.rate() >= s.view_rate - EPS_MB,
                "min-flow violated on {}",
                self.id
            );
            total_rate += s.rate();
            committed += s.view_rate;
        }
        assert!(
            total_rate <= self.capacity_mbps + EPS_MB * self.streams.len() as f64,
            "capacity exceeded on {}: {total_rate} > {}",
            self.id,
            self.capacity_mbps
        );
        assert!(
            (committed - self.committed_mbps).abs() < EPS_MB * (1.0 + self.streams.len() as f64),
            "committed bandwidth drifted on {}",
            self.id
        );
        if let Some(cached) = self.allocated_mbps.get() {
            let sum: f64 = self.streams.iter().map(Stream::rate).sum();
            assert!(
                cached.to_bits() == sum.to_bits() || (self.streams.is_empty() && cached == 0.0),
                "cached allocated rate {cached} is not the in-order sum {sum} on {}",
                self.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_media::{ClientProfile, VideoId};

    fn mk_stream(id: u64, size: f64, cap: f64, now: SimTime) -> Stream {
        Stream::new(
            StreamId(id),
            VideoId(id as u32),
            size,
            3.0,
            ClientProfile::new(cap, 30.0),
            now,
        )
    }

    fn engine() -> ServerEngine {
        ServerEngine::new(ServerId(0), 100.0, SchedulerKind::Eftf)
    }

    #[test]
    fn admission_respects_capacity() {
        let mut e = ServerEngine::new(ServerId(0), 10.0, SchedulerKind::Eftf);
        let now = SimTime::ZERO;
        assert!(e.can_admit(3.0));
        e.admit(mk_stream(1, 300.0, 0.0, now), now);
        e.admit(mk_stream(2, 300.0, 0.0, now), now);
        e.admit(mk_stream(3, 300.0, 0.0, now), now);
        // 3 × 3 = 9; a fourth would commit 12 > 10.
        assert!(!e.can_admit(3.0));
        assert_eq!(e.active_count(), 3);
        e.check_invariants();
    }

    #[test]
    fn single_stream_completes_at_projected_time() {
        let mut e = engine();
        let now = SimTime::ZERO;
        // 300 Mb, 30 Mb/s receive cap, huge buffer: EFTF sends at 30 → 10 s.
        let wake = e.admit(mk_stream(1, 300.0, 1e9, now), now).unwrap();
        assert!((wake.as_secs() - 10.0).abs() < 1e-9);
        e.advance_to(wake);
        let done = e.reap_finished(wake);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_finished());
        assert_eq!(e.active_count(), 0);
        assert!((e.transmitted_mb() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn no_staging_stream_completes_exactly_at_deadline() {
        let mut e = engine();
        let now = SimTime::ZERO;
        let wake = e.admit(mk_stream(1, 300.0, 0.0, now), now).unwrap();
        assert!((wake.as_secs() - 100.0).abs() < 1e-9, "wake {wake}");
        e.advance_to(wake);
        assert_eq!(e.reap_finished(wake).len(), 1);
    }

    #[test]
    fn buffer_full_event_then_completion() {
        let mut e = engine();
        let now = SimTime::ZERO;
        // 300 Mb object, 54 Mb buffer, cap 30: buffer grows at 27 → full at
        // 2 s. Then rate drops to 3; remaining 240 Mb → completes at 82 s
        // (wall): sent(2s)=60, viewed grows with playback; transmission
        // finishes when sent = 300 → 2 + 240/3 = 82 s.
        let w1 = e.admit(mk_stream(1, 300.0, 54.0, now), now).unwrap();
        assert!((w1.as_secs() - 2.0).abs() < 1e-9, "w1 {w1}");
        e.advance_to(w1);
        assert!(e.reap_finished(w1).is_empty());
        let w2 = e.reschedule(w1).unwrap();
        assert!((w2.as_secs() - 82.0).abs() < 1e-9, "w2 {w2}");
        e.advance_to(w2);
        let done = e.reap_finished(w2);
        assert_eq!(done.len(), 1);
        e.check_invariants();
    }

    #[test]
    fn eftf_reassigns_spare_when_first_buffer_fills() {
        let mut e = engine();
        let now = SimTime::ZERO;
        // Stream 1 finishes earlier → gets the workahead until its buffer
        // fills; then stream 2 should inherit the spare.
        e.admit(mk_stream(1, 150.0, 27.0, now), now);
        let wake = e.admit(mk_stream(2, 600.0, 1e9, now), now).unwrap();
        // Both get min-flow 3; spare 94 goes to stream 1 first, capped at
        // receive 30 → rate 30, growth 27, headroom 27 → full at 1 s.
        // Stream 2 receives the remainder: min(94-27, 27) → rate 30 too.
        let r1 = e
            .streams()
            .iter()
            .find(|s| s.id == StreamId(1))
            .unwrap()
            .rate();
        let r2 = e
            .streams()
            .iter()
            .find(|s| s.id == StreamId(2))
            .unwrap()
            .rate();
        assert_eq!(r1, 30.0);
        assert_eq!(r2, 30.0);
        assert!((wake.as_secs() - 1.0).abs() < 1e-9);
        e.advance_to(wake);
        e.reap_finished(wake);
        e.reschedule(wake);
        let r1 = e
            .streams()
            .iter()
            .find(|s| s.id == StreamId(1))
            .unwrap()
            .rate();
        let r2 = e
            .streams()
            .iter()
            .find(|s| s.id == StreamId(2))
            .unwrap()
            .rate();
        assert_eq!(r1, 3.0, "full buffer drops to view rate");
        assert_eq!(r2, 30.0, "later stream keeps its workahead");
        e.check_invariants();
    }

    #[test]
    fn measured_window_excludes_warmup() {
        let mut e = engine();
        e.set_measure_start(SimTime::from_secs(50.0));
        let now = SimTime::ZERO;
        // No staging: constant 3 Mb/s for 100 s.
        e.admit(mk_stream(1, 300.0, 0.0, now), now);
        e.advance_to(SimTime::from_secs(100.0));
        assert!((e.transmitted_mb() - 300.0).abs() < 1e-9);
        assert!((e.measured_mb() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn measured_window_straddling_interval_is_split_exactly() {
        let mut e = engine();
        e.set_measure_start(SimTime::from_secs(30.0));
        let now = SimTime::ZERO;
        e.admit(mk_stream(1, 300.0, 0.0, now), now);
        // One single advance across the boundary.
        e.advance_to(SimTime::from_secs(40.0));
        assert!((e.measured_mb() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn remove_stream_for_migration_preserves_state() {
        let mut e = engine();
        let now = SimTime::ZERO;
        e.admit(mk_stream(1, 300.0, 1e9, now), now);
        let t = SimTime::from_secs(2.0);
        e.advance_to(t);
        let s = e.remove_stream(StreamId(1), t).unwrap();
        assert!((s.sent_mb() - 60.0).abs() < 1e-9, "sent {}", s.sent_mb());
        assert_eq!(e.active_count(), 0);
        assert!(e.can_admit(3.0));
        // Re-admission elsewhere continues from the same state.
        let mut e2 = ServerEngine::new(ServerId(1), 100.0, SchedulerKind::Eftf);
        e2.advance_to(t);
        let mut s = s;
        s.record_hop();
        e2.admit(s, t);
        assert_eq!(e2.streams()[0].hops, 1);
        assert!((e2.streams()[0].sent_mb() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn remove_missing_stream_is_none() {
        let mut e = engine();
        assert!(e.remove_stream(StreamId(9), SimTime::ZERO).is_none());
    }

    #[test]
    fn idle_engine_has_no_events() {
        let e = engine();
        assert!(e.next_event_after(SimTime::ZERO).is_none());
    }

    #[test]
    fn paused_stream_releases_bandwidth_to_others() {
        let mut e = ServerEngine::new(ServerId(0), 9.0, SchedulerKind::Eftf);
        let now = SimTime::ZERO;
        // Three streams saturate the 9 Mb/s server at min flow.
        for i in 0..3 {
            e.admit(mk_stream(i, 300.0, 1e6, now), now);
        }
        assert!(e.streams().iter().all(|s| s.rate() == 3.0));
        // Pausing one frees its minimum flow; EFTF hands it to the
        // earliest finisher among the others... including possibly the
        // paused stream itself (it still has buffer room).
        let t = SimTime::from_secs(1.0);
        assert!(e.set_paused(StreamId(1), true, t));
        e.reschedule(t);
        let total: f64 = e.streams().iter().map(|s| s.rate()).sum();
        assert!((total - 9.0).abs() < 1e-9, "capacity stays busy: {total}");
        for s in e.streams() {
            if !s.is_paused() {
                assert!(s.rate() >= 3.0 - 1e-9, "min flow for playing streams");
            }
        }
        e.check_invariants();
    }

    #[test]
    fn pause_unknown_stream_is_false() {
        let mut e = engine();
        assert!(!e.set_paused(StreamId(77), true, SimTime::ZERO));
    }

    #[test]
    fn paused_full_buffer_stream_goes_idle() {
        let mut e = ServerEngine::new(ServerId(0), 30.0, SchedulerKind::Eftf);
        let now = SimTime::ZERO;
        // 30 Mb buffer fills quickly at full rate.
        e.admit(mk_stream(1, 300.0, 30.0, now), now);
        let w = e.next_event_after(now).unwrap(); // buffer-full
        e.advance_to(w);
        e.reschedule(w);
        assert!(e.set_paused(StreamId(1), true, w));
        e.reschedule(w);
        let s = &e.streams()[0];
        assert_eq!(s.rate(), 0.0, "paused + full buffer → no feed");
        assert!(
            e.next_event_after(w).is_none(),
            "nothing can happen until resume"
        );
        e.check_invariants();
    }

    #[test]
    fn fail_takes_streams_and_blocks_admission() {
        let mut e = engine();
        let now = SimTime::ZERO;
        e.admit(mk_stream(1, 300.0, 1e9, now), now);
        e.admit(mk_stream(2, 300.0, 1e9, now), now);
        let t = SimTime::from_secs(2.0);
        let taken = e.fail(t);
        assert_eq!(taken.len(), 2);
        assert!(!e.is_online());
        assert!(!e.can_admit(3.0));
        assert_eq!(e.active_count(), 0);
        // Transmission state survived the failure (for emergency
        // migration): both streams got workahead before the crash.
        assert!(taken.iter().all(|s| s.sent_mb() > 6.0 - 1e-9));
        assert!(e.next_event_after(t).is_none());
    }

    #[test]
    fn repair_restores_admission() {
        let mut e = engine();
        let t0 = SimTime::ZERO;
        e.admit(mk_stream(1, 300.0, 0.0, t0), t0);
        let t1 = SimTime::from_secs(1.0);
        e.fail(t1);
        assert_eq!(e.last_wake(), None, "a failed server has no wake");
        let t2 = SimTime::from_secs(5.0);
        e.repair(t2);
        assert!(e.is_online());
        assert_eq!(e.last_wake(), None, "a repaired server comes back idle");
        assert!(e.can_admit(3.0));
        e.admit(mk_stream(2, 300.0, 0.0, t2), t2);
        assert_eq!(e.active_count(), 1);
        e.check_invariants();
    }

    #[test]
    fn sub_eps_stale_wake_does_not_rewind_clock() {
        let mut e = engine();
        let now = SimTime::ZERO;
        e.admit(mk_stream(1, 3000.0, 1e9, now), now);
        let t = SimTime::from_secs(10.0);
        e.advance_to(t);
        assert_eq!(e.clock(), t);
        // A wake computed by float arithmetic can land up to EPS_SECS
        // before the clock; the clamp must hold the clock, not rewind it.
        let stale = SimTime::from_secs(10.0 - 0.5e-9);
        e.advance_to(stale);
        assert_eq!(e.clock(), t, "clock stepped backwards on a stale wake");
        // Repeating the stale advance must not widen the gap either.
        e.advance_to(stale);
        assert_eq!(e.clock(), t);
        // A later legitimate advance proceeds normally.
        let later = SimTime::from_secs(11.0);
        e.advance_to(later);
        assert_eq!(e.clock(), later);
        e.check_invariants();
    }

    #[test]
    fn failed_server_remove_does_not_double_decrement() {
        // A stream "removed" from a failed server (e.g. a migration whose
        // source crashed mid-flight) must not decrement committed_mbps a
        // second time: `fail` already zeroed the commitment ledger.
        let mut e = engine();
        let now = SimTime::ZERO;
        e.admit(mk_stream(1, 300.0, 30.0, now), now);
        e.admit(mk_stream(2, 300.0, 30.0, now), now);
        let t = SimTime::from_secs(1.0);
        let taken = e.fail(t);
        assert_eq!(taken.len(), 2);
        assert!(
            e.remove_stream(StreamId(1), t).is_none(),
            "failed server holds no streams"
        );
        // can_admit must stay false (offline), and the ledger must not have
        // gone negative, which would admit 6 streams after repair.
        assert!(!e.can_admit(3.0));
        e.repair(t);
        let mut admitted = 0;
        for i in 10..60 {
            if e.can_admit(3.0) {
                e.admit(mk_stream(i, 30.0, 0.0, t), t);
                admitted += 1;
            }
        }
        assert_eq!(admitted, 33, "capacity 100 / view 3 = 33 slots");
        e.check_invariants();
    }

    #[test]
    fn many_streams_conserve_data() {
        let mut e = engine();
        let now = SimTime::ZERO;
        for i in 0..30 {
            e.admit(mk_stream(i, 90.0 + i as f64, 30.0, now), now);
        }
        // Run the engine loop manually for a while.
        let mut t = now;
        let mut total_reaped = 0.0;
        for _ in 0..500 {
            let Some(next) = e.next_event_after(t) else {
                break;
            };
            t = next;
            e.advance_to(t);
            for s in e.reap_finished(t) {
                total_reaped += s.sent_mb();
            }
            e.reschedule(t);
            e.check_invariants();
        }
        assert_eq!(e.active_count(), 0, "everything finishes");
        let expected: f64 = (0..30).map(|i| 90.0 + i as f64).sum();
        assert!((total_reaped - expected).abs() < 1e-6);
        assert!((e.transmitted_mb() - expected).abs() < 1e-6);
    }
}
