//! State of one active stream.
//!
//! A stream couples a video object with a client and tracks how much data
//! has been transmitted. Playback starts the moment the request is
//! admitted ("which also has the available resources to begin transmission
//! immediately", §2), so at wall time `t`:
//!
//! ```text
//! viewed(t) = b_view · min(t − start, length)
//! staged(t) = sent(t) − viewed(t)          ∈ [0, staging_capacity]
//! ```
//!
//! Under any minimum-flow allocation `sent` grows at ≥ `b_view` while the
//! stream is unfinished, so `staged ≥ 0` always holds (playback never
//! starves) and transmission completes no later than `start + length`.

use crate::{EPS_MB, EPS_SECS};
use sct_media::{ClientProfile, VideoId};
use sct_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Globally unique identifier of an admitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// What a stream transfers: a viewer's playback, or a server-to-server
/// replica copy (dynamic replication extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// A viewer watching a video; subject to playback semantics.
    Playback,
    /// A background copy of a video object toward another server. The
    /// "client" is the receiving server: unbounded buffer, fixed receive
    /// rate, no playback clock, never migrated by DRM.
    ReplicaCopy,
}

/// One active (or just-finished) stream on a server.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Stream {
    /// Request identifier.
    pub id: StreamId,
    /// Which video is being streamed.
    pub video: VideoId,
    /// Total object size in megabits.
    pub size_mb: f64,
    /// View bandwidth `b_view` in Mb/s.
    pub view_rate: f64,
    /// Admission time == playback start.
    pub start: SimTime,
    /// Client staging/receive constraints.
    pub client: ClientProfile,
    /// Megabits transmitted so far.
    sent_mb: f64,
    /// Currently allocated transmission rate (Mb/s); set by the allocator.
    rate: f64,
    /// Time `sent_mb` was last brought up to date.
    last_update: SimTime,
    /// How many times this stream has been migrated between servers.
    pub hops: u32,
    /// Seconds of video the client has played back (≤ length). Advances
    /// with wall time only while not paused.
    played_secs: f64,
    /// Whether playback is currently paused (interactivity extension;
    /// the paper's Theorem 1 regime has this always `false`).
    paused: bool,
    /// Playback stream or background replica copy.
    pub kind: StreamKind,
    /// Playback length in seconds, `size_mb / view_rate`, divided once at
    /// construction: every advance and staging probe reads it.
    length_secs: f64,
}

/// `f64::min` for operands that are never NaN: the same value, without
/// the NaN handling the walks would pay for at every stream.
#[inline(always)]
fn min_of(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

impl Stream {
    /// Admits a new stream at `now`. The client must be able to receive at
    /// least the view rate, otherwise playback could starve.
    pub fn new(
        id: StreamId,
        video: VideoId,
        size_mb: f64,
        view_rate: f64,
        client: ClientProfile,
        now: SimTime,
    ) -> Self {
        assert!(size_mb > 0.0 && view_rate > 0.0);
        assert!(
            client.receive_cap_mbps >= view_rate,
            "client receive cap {} below view rate {view_rate}",
            client.receive_cap_mbps
        );
        Stream {
            id,
            video,
            size_mb,
            view_rate,
            start: now,
            client,
            sent_mb: 0.0,
            rate: 0.0,
            last_update: now,
            hops: 0,
            played_secs: 0.0,
            paused: false,
            kind: StreamKind::Playback,
            length_secs: size_mb / view_rate,
        }
    }

    /// Creates a background replica-copy stream: `size_mb` of `video`
    /// pushed at exactly `copy_rate` Mb/s. Modelled as a minimum-flow
    /// stream whose view rate *is* the copy rate, so it consumes real
    /// admission capacity and real bandwidth on the source server and
    /// finishes after `size / copy_rate` seconds.
    pub fn replica_copy(
        id: StreamId,
        video: VideoId,
        size_mb: f64,
        copy_rate: f64,
        now: SimTime,
    ) -> Self {
        let mut s = Stream::new(
            id,
            video,
            size_mb,
            copy_rate,
            // The receiving server drains at the copy rate and has disk
            // for the whole object: nothing ever buffers or caps.
            ClientProfile::new(f64::INFINITY, copy_rate),
            now,
        );
        s.kind = StreamKind::ReplicaCopy;
        s
    }

    /// `true` for background replica-copy streams.
    #[inline]
    pub fn is_copy(&self) -> bool {
        self.kind == StreamKind::ReplicaCopy
    }

    /// Playback length in seconds.
    #[inline]
    pub fn length_secs(&self) -> f64 {
        self.length_secs
    }

    /// Megabits transmitted so far (up to the last `advance_to`).
    #[inline]
    pub fn sent_mb(&self) -> f64 {
        self.sent_mb
    }

    /// Seconds of video played back so far (up to the last `advance_to`).
    #[inline]
    pub fn played_secs(&self) -> f64 {
        self.played_secs
    }

    /// Megabits still to transmit.
    #[inline]
    pub fn remaining_mb(&self) -> f64 {
        (self.size_mb - self.sent_mb).max(0.0)
    }

    /// `true` once all data has been transmitted.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.size_mb - self.sent_mb <= EPS_MB
    }

    /// The currently allocated rate in Mb/s.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Sets the allocated rate. Only the allocator should call this, and
    /// only at the stream's current update point.
    #[inline]
    pub(crate) fn set_rate(&mut self, rate: f64) {
        debug_assert!(rate >= 0.0);
        self.rate = rate;
    }

    /// `true` while playback is paused.
    #[inline]
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Seconds of playback consumed by `now` (assuming the pause state has
    /// not changed since the last `advance_to`).
    #[inline]
    fn played_by(&self, now: SimTime) -> f64 {
        if self.paused || now <= self.last_update {
            // Nothing more played since the last update: exactly what the
            // general form gives, as `played_secs` never exceeds the
            // length.
            return self.played_secs;
        }
        min_of(
            self.played_secs + (now - self.last_update),
            self.length_secs,
        )
    }

    /// Megabits the client has consumed (viewed) by `now`.
    #[inline]
    pub fn viewed_mb(&self, now: SimTime) -> f64 {
        self.played_by(now) * self.view_rate
    }

    /// Megabits sitting in the client's staging buffer at `now`
    /// (transmitted but not yet viewed). Non-negative under minimum flow.
    #[inline]
    pub fn staged_mb(&self, now: SimTime) -> f64 {
        debug_assert!(now - self.last_update >= -EPS_SECS, "stream state is stale");
        (self.sent_mb - self.viewed_mb(now)).max(0.0)
    }

    /// `true` if the staging buffer has no room for workahead at `now`.
    #[inline]
    pub fn buffer_full(&self, now: SimTime) -> bool {
        self.is_full_at(self.staged_mb(now))
    }

    /// [`Stream::buffer_full`] for a staging level already read.
    #[inline]
    pub(crate) fn is_full_at(&self, staged_mb: f64) -> bool {
        staged_mb >= self.client.staging_capacity_mb - EPS_MB
    }

    /// The paper's *projected finishing time*: when transmission would end
    /// if the stream received exactly `b_view` from `now` on (§3.3).
    #[inline]
    pub fn projected_finish(&self, now: SimTime) -> SimTime {
        now + self.remaining_mb() / self.view_rate
    }

    /// Hard transmission deadline for continuous playback: the wall time
    /// at which the client's playhead would reach the end if it never
    /// pauses again. Pauses push it later.
    #[inline]
    pub fn deadline(&self) -> SimTime {
        self.last_update + (self.length_secs() - self.played_secs)
    }

    /// Pauses playback. The stream keeps its server slot; consumption
    /// stops, so a full staging buffer can no longer absorb even the view
    /// rate — the allocator drops the minimum flow of paused streams to 0.
    /// The caller must have advanced the stream to `now` and must re-run
    /// the allocator afterwards.
    pub fn pause(&mut self, now: SimTime) {
        debug_assert!(
            (now - self.last_update).abs() <= EPS_SECS,
            "pause on stale state"
        );
        self.paused = true;
    }

    /// Resumes playback (see [`Stream::pause`]).
    pub fn resume(&mut self, now: SimTime) {
        debug_assert!(
            (now - self.last_update).abs() <= EPS_SECS,
            "resume on stale state"
        );
        self.paused = false;
    }

    /// Best-effort evacuation restart: rewinds the transmission point to
    /// the playback point, discarding the workahead parked in the
    /// client's staging buffer (a failed hand-off invalidates it), and
    /// zeroes the allocated rate. Playback position and pause state are
    /// untouched; the caller re-admits the stream elsewhere and re-runs
    /// the allocator. Returns the megabits of staged workahead discarded
    /// — that data will be transmitted a second time by the new server.
    pub fn restart_from_playback(&mut self, now: SimTime) -> f64 {
        debug_assert!(
            (now - self.last_update).abs() <= EPS_SECS,
            "restart on stale state"
        );
        let viewed = self.viewed_mb(now);
        let flushed = (self.sent_mb - viewed).max(0.0);
        self.sent_mb = viewed;
        self.rate = 0.0;
        flushed
    }

    /// Integrates the current rate from `last_update` to `now`, updating
    /// `sent_mb`. Caps at the object size (the allocator schedules a
    /// completion event exactly at the crossing; the cap absorbs float
    /// drift).
    pub fn advance_to(&mut self, now: SimTime) -> f64 {
        let dt = now - self.last_update;
        debug_assert!(dt >= -EPS_SECS, "time went backwards: {dt}");
        if dt <= 0.0 {
            // Same clamp as `ServerEngine::advance_to`: a sub-EPS stale
            // timestamp must not rewind the integration anchor.
            self.last_update = self.last_update.max(now);
            return 0.0;
        }
        let delta = (self.rate * dt).min(self.remaining_mb());
        self.sent_mb += delta;
        if !self.paused {
            self.played_secs = min_of(self.played_secs + dt, self.length_secs);
        }
        self.last_update = now;
        debug_assert!(
            self.sent_mb <= self.size_mb + EPS_MB,
            "sent {} overshot size {}",
            self.sent_mb,
            self.size_mb
        );
        delta
    }

    /// Seconds from `now` until this stream finishes at its current rate,
    /// or `None` if the rate is zero.
    pub fn time_to_completion(&self) -> Option<f64> {
        if self.rate <= 0.0 {
            None
        } else {
            Some(self.remaining_mb() / self.rate)
        }
    }

    /// Seconds from `now` until the staging buffer fills at the current
    /// rate, or `None` if it never will (rate ≤ consumption, or unbounded
    /// buffer). Completion may occur first; the engine takes the minimum.
    pub fn time_to_buffer_full(&self, now: SimTime) -> Option<f64> {
        self.time_to_fill(|| self.staged_mb(now))
    }

    /// [`Stream::time_to_buffer_full`], taking the staging level from
    /// `staged_mb`, which runs only when the buffer can fill at all.
    #[inline]
    pub(crate) fn time_to_fill(&self, staged_mb: impl FnOnce() -> f64) -> Option<f64> {
        if self.client.is_unbounded_staging() {
            return None;
        }
        // While playing, the buffer grows at (rate − b_view); while
        // paused, consumption stops and it grows at the full rate.
        // Transmission always ends by the playback end, so we need not
        // consider the post-playback regime.
        let consumption = if self.paused { 0.0 } else { self.view_rate };
        let growth = self.rate - consumption;
        if growth <= 0.0 {
            return None;
        }
        let headroom = (self.client.staging_capacity_mb - staged_mb()).max(0.0);
        Some(headroom / growth)
    }

    /// Records a migration hop (server hand-off). State carries over
    /// unchanged; only the hop count moves.
    pub fn record_hop(&mut self) {
        self.hops += 1;
    }

    /// Checks internal invariants at `now`; panics with a description on
    /// violation. Debug/test aid.
    pub fn check_invariants(&self, now: SimTime) {
        assert!(self.sent_mb >= -EPS_MB && self.sent_mb <= self.size_mb + EPS_MB);
        assert!(
            self.length_secs.to_bits() == (self.size_mb / self.view_rate).to_bits(),
            "cached length {} no longer matches size {} / view rate {} (stream {})",
            self.length_secs,
            self.size_mb,
            self.view_rate,
            self.id
        );
        let staged = self.sent_mb - self.viewed_mb(now);
        assert!(
            staged >= -EPS_MB,
            "playback starved: staged {staged} at {now} (stream {})",
            self.id
        );
        assert!(
            staged <= self.client.staging_capacity_mb + self.view_rate * EPS_SECS + EPS_MB,
            "staging buffer overflow: {staged} > {}",
            self.client.staging_capacity_mb
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(cap_mb: f64, recv: f64) -> ClientProfile {
        ClientProfile::new(cap_mb, recv)
    }

    fn stream_at_zero(size: f64, cap_mb: f64) -> Stream {
        Stream::new(
            StreamId(1),
            VideoId(0),
            size,
            3.0,
            client(cap_mb, 30.0),
            SimTime::ZERO,
        )
    }

    #[test]
    fn fresh_stream_state() {
        let s = stream_at_zero(300.0, 60.0);
        assert_eq!(s.length_secs(), 100.0);
        assert_eq!(s.sent_mb(), 0.0);
        assert_eq!(s.remaining_mb(), 300.0);
        assert!(!s.is_finished());
        assert_eq!(s.deadline(), SimTime::from_secs(100.0));
        assert_eq!(s.projected_finish(SimTime::ZERO), SimTime::from_secs(100.0));
    }

    #[test]
    fn advance_at_view_rate_keeps_buffer_empty() {
        let mut s = stream_at_zero(300.0, 60.0);
        s.set_rate(3.0);
        for step in 1..=10 {
            let t = SimTime::from_secs(step as f64 * 10.0);
            s.advance_to(t);
            assert!(s.staged_mb(t).abs() < 1e-9, "buffer should stay empty");
            s.check_invariants(t);
        }
        assert!((s.sent_mb() - 300.0).abs() < 1e-9);
        assert!(s.is_finished());
    }

    #[test]
    fn workahead_fills_buffer_then_projected_finish_moves_earlier() {
        let mut s = stream_at_zero(300.0, 60.0);
        s.set_rate(9.0); // 6 Mb/s of workahead
        let t = SimTime::from_secs(5.0);
        s.advance_to(t);
        assert!((s.sent_mb() - 45.0).abs() < 1e-9);
        assert!((s.viewed_mb(t) - 15.0).abs() < 1e-9);
        assert!((s.staged_mb(t) - 30.0).abs() < 1e-9);
        // Projected finish: 255 Mb remaining at 3 Mb/s → t + 85 s.
        assert!((s.projected_finish(t) - SimTime::from_secs(90.0)).abs() < 1e-9);
        s.check_invariants(t);
    }

    #[test]
    fn time_to_buffer_full_accounts_for_consumption() {
        let mut s = stream_at_zero(300.0, 60.0);
        s.set_rate(9.0);
        // Buffer grows at 6 Mb/s; 60 Mb of headroom → 10 s.
        assert!((s.time_to_buffer_full(SimTime::ZERO).unwrap() - 10.0).abs() < 1e-9);
        let t = SimTime::from_secs(10.0);
        s.advance_to(t);
        assert!(s.buffer_full(t));
        assert_eq!(s.time_to_buffer_full(t), Some(0.0));
        // At exactly b_view the buffer stays full forever.
        s.set_rate(3.0);
        assert_eq!(s.time_to_buffer_full(t), None);
        let t2 = SimTime::from_secs(30.0);
        s.advance_to(t2);
        assert!(s.buffer_full(t2));
        s.check_invariants(t2);
    }

    #[test]
    fn zero_capacity_client_is_always_full() {
        let s = stream_at_zero(300.0, 0.0);
        assert!(s.buffer_full(SimTime::ZERO));
    }

    #[test]
    fn unbounded_client_never_fills() {
        let mut s = Stream::new(
            StreamId(2),
            VideoId(0),
            300.0,
            3.0,
            ClientProfile::unbounded(),
            SimTime::ZERO,
        );
        s.set_rate(1000.0);
        assert_eq!(s.time_to_buffer_full(SimTime::ZERO), None);
        let t = SimTime::from_secs(0.3);
        s.advance_to(t);
        assert!(s.is_finished());
        assert!(!s.buffer_full(t));
    }

    #[test]
    fn completion_time_at_rate() {
        let mut s = stream_at_zero(300.0, f64::INFINITY);
        s.set_rate(30.0);
        assert!((s.time_to_completion().unwrap() - 10.0).abs() < 1e-12);
        s.set_rate(0.0);
        assert_eq!(s.time_to_completion(), None);
    }

    #[test]
    fn advance_caps_at_size() {
        let mut s = stream_at_zero(30.0, f64::INFINITY);
        s.set_rate(30.0);
        let sent = s.advance_to(SimTime::from_secs(100.0));
        assert_eq!(sent, 30.0);
        assert!(s.is_finished());
        assert_eq!(s.remaining_mb(), 0.0);
    }

    #[test]
    fn viewed_saturates_at_length() {
        let mut s = stream_at_zero(30.0, f64::INFINITY);
        s.set_rate(30.0);
        s.advance_to(SimTime::from_secs(1.0));
        // length is 10 s; viewing stops there.
        assert_eq!(s.viewed_mb(SimTime::from_secs(20.0)), 30.0);
        assert_eq!(s.viewed_mb(SimTime::from_secs(10.0)), 30.0);
        assert_eq!(s.viewed_mb(SimTime::from_secs(5.0)), 15.0);
    }

    #[test]
    fn hop_recording() {
        let mut s = stream_at_zero(30.0, 60.0);
        assert_eq!(s.hops, 0);
        s.record_hop();
        s.record_hop();
        assert_eq!(s.hops, 2);
    }

    #[test]
    fn advance_with_zero_dt_is_noop() {
        let mut s = stream_at_zero(300.0, 60.0);
        s.set_rate(9.0);
        let t = SimTime::from_secs(2.0);
        s.advance_to(t);
        let before = s.sent_mb();
        assert_eq!(s.advance_to(t), 0.0);
        assert_eq!(s.sent_mb(), before);
    }

    #[test]
    fn pause_freezes_consumption() {
        let mut s = stream_at_zero(300.0, 60.0);
        s.set_rate(3.0);
        let t1 = SimTime::from_secs(10.0);
        s.advance_to(t1);
        assert!((s.viewed_mb(t1) - 30.0).abs() < 1e-9);
        s.pause(t1);
        s.set_rate(3.0); // allocator may keep feeding the buffer
        let t2 = SimTime::from_secs(20.0);
        s.advance_to(t2);
        // 10 more seconds of transmission, zero more seconds of playback.
        assert!((s.sent_mb() - 60.0).abs() < 1e-9);
        assert!((s.viewed_mb(t2) - 30.0).abs() < 1e-9);
        assert!((s.staged_mb(t2) - 30.0).abs() < 1e-9);
        s.check_invariants(t2);
        s.resume(t2);
        let t3 = SimTime::from_secs(30.0);
        s.set_rate(3.0);
        s.advance_to(t3);
        assert!((s.viewed_mb(t3) - 60.0).abs() < 1e-9, "playback resumed");
    }

    #[test]
    fn paused_stream_buffer_fills_at_full_rate() {
        let mut s = stream_at_zero(300.0, 60.0);
        s.set_rate(6.0);
        let t1 = SimTime::from_secs(1.0);
        s.advance_to(t1);
        s.pause(t1);
        // Growth is now the full 6 Mb/s; staged is 3 Mb, headroom 57 Mb.
        let dt = s.time_to_buffer_full(t1).unwrap();
        assert!((dt - 57.0 / 6.0).abs() < 1e-9, "dt {dt}");
        // While playing it would have been 57 / (6-3).
        s.resume(t1);
        assert!((s.time_to_buffer_full(t1).unwrap() - 19.0).abs() < 1e-9);
    }

    #[test]
    fn deadline_extends_with_pause() {
        let mut s = stream_at_zero(300.0, 60.0);
        s.set_rate(3.0);
        assert_eq!(s.deadline(), SimTime::from_secs(100.0));
        let t1 = SimTime::from_secs(10.0);
        s.advance_to(t1);
        s.pause(t1);
        let t2 = SimTime::from_secs(25.0);
        s.set_rate(0.0);
        s.advance_to(t2);
        // 90 s of playback left, so the deadline slid 15 s later.
        assert_eq!(s.deadline(), SimTime::from_secs(115.0));
    }

    #[test]
    #[should_panic(expected = "below view rate")]
    fn rejects_client_slower_than_view_rate() {
        Stream::new(
            StreamId(3),
            VideoId(0),
            30.0,
            3.0,
            ClientProfile::new(0.0, 2.0),
            SimTime::ZERO,
        );
    }
}
