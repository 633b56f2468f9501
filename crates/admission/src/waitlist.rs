//! Admission wait queue (extension).
//!
//! The paper's controller rejects a request outright when no slot can be
//! found or created ("if this fails, then the request is not accepted",
//! §3.2). Real VoD front-ends usually do better: the viewer tolerates a
//! short queueing delay before playback. This module adds that option —
//! a FIFO [`Waitlist`] with a patience bound. When a slot frees (stream
//! completion, server repair), queued requests are retried in arrival
//! order against the servers holding their video.
//!
//! Queued requests do not consume server resources; their playback clock
//! starts only when they are finally admitted.

use sct_cluster::{ReplicaMap, ServerId};
use sct_media::{ClientProfile, VideoId};
use sct_simcore::SimTime;
use sct_transmission::{ServerEngine, Stream, StreamId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Wait-queue knobs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WaitlistSpec {
    /// How long a viewer is willing to wait for playback to start.
    pub max_wait_secs: f64,
    /// Queue capacity; arrivals beyond it are rejected immediately.
    pub max_length: usize,
    /// Multicast batching (§6's "controlled multicasting" future work):
    /// when a queued request is finally served, every other waiter for the
    /// *same video* joins the same stream — one transmission, many
    /// viewers. All of them waited for the same start instant, so their
    /// playback is naturally synchronised.
    pub multicast_batching: bool,
}

impl WaitlistSpec {
    /// Creates a unicast spec; patience must be positive.
    pub fn new(max_wait_secs: f64, max_length: usize) -> Self {
        assert!(max_wait_secs > 0.0);
        assert!(max_length > 0);
        WaitlistSpec {
            max_wait_secs,
            max_length,
            multicast_batching: false,
        }
    }

    /// Same, with multicast batching on.
    pub fn batching(max_wait_secs: f64, max_length: usize) -> Self {
        WaitlistSpec {
            multicast_batching: true,
            ..Self::new(max_wait_secs, max_length)
        }
    }
}

/// A queued request (no resources held yet).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Waiter {
    /// The id the stream will carry once admitted.
    pub id: StreamId,
    /// Requested video.
    pub video: VideoId,
    /// Object size in megabits.
    pub size_mb: f64,
    /// View bandwidth.
    pub view_rate: f64,
    /// Client capabilities.
    pub client: ClientProfile,
    /// When the request arrived (wait time is measured from here).
    pub arrived: SimTime,
    /// When the viewer gives up.
    pub expires: SimTime,
}

/// Wait-queue counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WaitlistStats {
    /// Requests that entered the queue.
    pub enqueued: u64,
    /// Requests served from the queue (after a non-zero wait).
    pub served: u64,
    /// Requests that timed out waiting.
    pub expired: u64,
    /// Requests bounced because the queue was full.
    pub bounced: u64,
    /// Total seconds of (served) waiting, for the mean-wait metric.
    pub served_wait_secs: f64,
    /// Megabits of video belonging to served waiters (for acceptance
    /// reconciliation).
    pub served_mb: f64,
    /// Waiters served by joining an existing batch stream (subset of
    /// `served`; 0 without multicast batching).
    pub batched: u64,
}

impl WaitlistStats {
    /// Mean wait of requests that were eventually served, seconds.
    pub fn mean_served_wait_secs(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.served_wait_secs / self.served as f64
        }
    }
}

/// One request served out of the queue (for event reporting).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServedWaiter {
    /// The stream id the viewer now plays under.
    pub id: StreamId,
    /// The video served.
    pub video: VideoId,
    /// The server hosting the (possibly shared) stream.
    pub server: ServerId,
    /// `true` when the viewer joined an existing multicast batch instead
    /// of occupying a slot of its own.
    pub batched: bool,
    /// Queueing delay actually experienced, seconds.
    pub waited_secs: f64,
}

/// Everything one [`Waitlist::try_serve`] pass did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeOutcome {
    /// Servers whose schedules changed (the caller must re-arm their wake
    /// events), in first-touch order.
    pub touched: Vec<ServerId>,
    /// The requests served, in service order.
    pub served: Vec<ServedWaiter>,
}

/// FIFO wait queue with patience bounds.
#[derive(Clone, Debug)]
pub struct Waitlist {
    spec: WaitlistSpec,
    queue: VecDeque<Waiter>,
    /// Counters for the trial.
    pub stats: WaitlistStats,
}

impl Waitlist {
    /// Creates an empty waitlist.
    pub fn new(spec: WaitlistSpec) -> Self {
        Waitlist {
            spec,
            queue: VecDeque::new(),
            stats: WaitlistStats::default(),
        }
    }

    /// Requests currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nobody is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a request that admission just failed. Returns the waiter's
    /// expiry time (so the caller can schedule a timeout event), or `None`
    /// if the queue is full.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        &mut self,
        id: StreamId,
        video: VideoId,
        size_mb: f64,
        view_rate: f64,
        client: ClientProfile,
        now: SimTime,
    ) -> Option<SimTime> {
        if self.queue.len() >= self.spec.max_length {
            self.stats.bounced += 1;
            return None;
        }
        let expires = now + self.spec.max_wait_secs;
        self.queue.push_back(Waiter {
            id,
            video,
            size_mb,
            view_rate,
            client,
            arrived: now,
            expires,
        });
        self.stats.enqueued += 1;
        Some(expires)
    }

    /// Drops every waiter whose patience has run out by `now`. FIFO order
    /// plus a uniform patience bound means expiry happens from the front.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        while let Some(w) = self.queue.front() {
            if w.expires <= now {
                self.queue.pop_front();
                self.stats.expired += 1;
                dropped += 1;
            } else {
                break;
            }
        }
        dropped
    }

    /// Attempts to place queued requests (in arrival order) on servers
    /// with free slots. Returns the servers whose schedules changed (for
    /// wake re-arming) plus a record per served request. Waiters whose
    /// videos are still saturated stay queued — no head-of-line blocking
    /// across videos.
    pub fn try_serve(
        &mut self,
        engines: &mut [ServerEngine],
        map: &ReplicaMap,
        now: SimTime,
    ) -> ServeOutcome {
        let mut out = ServeOutcome::default();
        let mut remaining: VecDeque<Waiter> = VecDeque::with_capacity(self.queue.len());
        while let Some(w) = self.queue.pop_front() {
            debug_assert!(w.expires > now, "expired waiter not purged");
            let target = map
                .holders(w.video)
                .iter()
                .copied()
                .filter(|&s| engines[s.index()].can_admit(w.view_rate))
                .min_by_key(|s| (engines[s.index()].active_count(), *s));
            match target {
                Some(server) => {
                    // Playback starts now, not at arrival.
                    let stream = Stream::new(w.id, w.video, w.size_mb, w.view_rate, w.client, now);
                    engines[server.index()].admit(stream, now);
                    self.stats.served += 1;
                    self.stats.served_wait_secs += now - w.arrived;
                    self.stats.served_mb += w.size_mb;
                    out.served.push(ServedWaiter {
                        id: w.id,
                        video: w.video,
                        server,
                        batched: false,
                        waited_secs: now - w.arrived,
                    });
                    if !out.touched.contains(&server) {
                        out.touched.push(server);
                    }
                    if self.spec.multicast_batching {
                        self.batch_join(w.video, server, now, &mut out.served);
                    }
                }
                None => remaining.push_back(w),
            }
        }
        self.queue = remaining;
        out
    }

    /// Multicast cohort join: everyone still queued for `video` joins the
    /// stream just started on `server` — served without any additional
    /// server resources.
    fn batch_join(
        &mut self,
        video: VideoId,
        server: ServerId,
        now: SimTime,
        served: &mut Vec<ServedWaiter>,
    ) {
        let before = self.queue.len();
        self.queue.retain(|other| {
            if other.video == video {
                self.stats.served += 1;
                self.stats.batched += 1;
                self.stats.served_wait_secs += now - other.arrived;
                self.stats.served_mb += other.size_mb;
                served.push(ServedWaiter {
                    id: other.id,
                    video: other.video,
                    server,
                    batched: true,
                    waited_secs: now - other.arrived,
                });
                false
            } else {
                true
            }
        });
        debug_assert!(self.queue.len() <= before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_transmission::SchedulerKind;

    const VIEW: f64 = 3.0;

    fn client() -> ClientProfile {
        ClientProfile::new(100.0, 30.0)
    }

    fn setup() -> (Vec<ServerEngine>, ReplicaMap) {
        let engines = vec![
            ServerEngine::new(ServerId(0), 6.0, SchedulerKind::Eftf), // 2 slots
            ServerEngine::new(ServerId(1), 6.0, SchedulerKind::Eftf),
        ];
        // v0 on s0 only; v1 on both.
        let map =
            ReplicaMap::from_holders(2, vec![vec![ServerId(0)], vec![ServerId(0), ServerId(1)]]);
        (engines, map)
    }

    #[test]
    fn waiters_are_served_when_slots_free() {
        let (mut engines, map) = setup();
        let t0 = SimTime::ZERO;
        // Fill s0 with two short v0 streams.
        engines[0].admit(
            Stream::new(StreamId(1), VideoId(0), 30.0, VIEW, client(), t0),
            t0,
        );
        engines[0].admit(
            Stream::new(StreamId(2), VideoId(0), 60.0, VIEW, client(), t0),
            t0,
        );
        let mut wl = Waitlist::new(WaitlistSpec::new(300.0, 10));
        let expires = wl
            .enqueue(StreamId(3), VideoId(0), 90.0, VIEW, client(), t0)
            .expect("queue has room");
        assert_eq!(expires, SimTime::from_secs(300.0));
        // Nothing free yet.
        assert!(wl.try_serve(&mut engines, &map, t0).touched.is_empty());
        assert_eq!(wl.len(), 1);
        // First stream finishes (30 Mb at up to 30 Mb/s → quickly; walk to
        // its completion).
        let done = engines[0].next_event_after(t0).unwrap();
        engines[0].advance_to(done);
        engines[0].reap_finished(done);
        engines[0].reschedule(done);
        let outcome = wl.try_serve(&mut engines, &map, done);
        assert_eq!(outcome.touched, vec![ServerId(0)]);
        assert_eq!(outcome.served.len(), 1);
        assert_eq!(outcome.served[0].id, StreamId(3));
        assert!(!outcome.served[0].batched);
        assert!((outcome.served[0].waited_secs - (done - t0)).abs() < 1e-9);
        assert!(wl.is_empty());
        assert_eq!(wl.stats.served, 1);
        assert!((wl.stats.mean_served_wait_secs() - (done - t0)).abs() < 1e-9);
        // Playback clock restarted at service time.
        let s = engines[0]
            .streams()
            .iter()
            .find(|s| s.id == StreamId(3))
            .unwrap();
        assert_eq!(s.start, done);
    }

    #[test]
    fn no_head_of_line_blocking_across_videos() {
        let (mut engines, map) = setup();
        let t0 = SimTime::ZERO;
        // s0 full; s1 open (holds only v1).
        engines[0].admit(
            Stream::new(StreamId(1), VideoId(0), 300.0, VIEW, client(), t0),
            t0,
        );
        engines[0].admit(
            Stream::new(StreamId(2), VideoId(0), 300.0, VIEW, client(), t0),
            t0,
        );
        let mut wl = Waitlist::new(WaitlistSpec::new(300.0, 10));
        wl.enqueue(StreamId(3), VideoId(0), 90.0, VIEW, client(), t0); // stuck
        wl.enqueue(StreamId(4), VideoId(1), 90.0, VIEW, client(), t0); // s1 can take it
        let outcome = wl.try_serve(&mut engines, &map, t0);
        assert_eq!(outcome.touched, vec![ServerId(1)]);
        assert_eq!(wl.len(), 1, "v0 waiter stays queued");
        assert_eq!(wl.stats.served, 1);
    }

    #[test]
    fn expiry_is_fifo_and_counted() {
        let (_, _) = setup();
        let mut wl = Waitlist::new(WaitlistSpec::new(10.0, 10));
        wl.enqueue(StreamId(1), VideoId(0), 90.0, VIEW, client(), SimTime::ZERO);
        wl.enqueue(
            StreamId(2),
            VideoId(0),
            90.0,
            VIEW,
            client(),
            SimTime::from_secs(5.0),
        );
        assert_eq!(wl.expire(SimTime::from_secs(9.0)), 0);
        assert_eq!(wl.expire(SimTime::from_secs(10.0)), 1);
        assert_eq!(wl.len(), 1);
        assert_eq!(wl.expire(SimTime::from_secs(20.0)), 1);
        assert!(wl.is_empty());
        assert_eq!(wl.stats.expired, 2);
    }

    #[test]
    fn batching_serves_whole_cohort_with_one_slot() {
        let (mut engines, map) = setup();
        let t0 = SimTime::ZERO;
        // s0 (the only holder of v0) full with long streams.
        engines[0].admit(
            Stream::new(StreamId(1), VideoId(0), 3000.0, VIEW, client(), t0),
            t0,
        );
        engines[0].admit(
            Stream::new(StreamId(2), VideoId(0), 3000.0, VIEW, client(), t0),
            t0,
        );
        let mut wl = Waitlist::new(WaitlistSpec::batching(10_000.0, 100));
        for i in 10..15 {
            wl.enqueue(StreamId(i), VideoId(0), 600.0, VIEW, client(), t0);
        }
        assert_eq!(wl.len(), 5);
        // Free exactly one slot.
        let t1 = SimTime::from_secs(1.0);
        engines[0].advance_to(t1);
        engines[0].remove_stream(StreamId(1), t1);
        engines[0].reschedule(t1);
        let outcome = wl.try_serve(&mut engines, &map, t1);
        assert_eq!(outcome.touched, vec![ServerId(0)]);
        assert!(wl.is_empty(), "the whole cohort shares the one stream");
        assert_eq!(wl.stats.served, 5);
        assert_eq!(wl.stats.batched, 4);
        assert_eq!(outcome.served.len(), 5);
        assert_eq!(
            outcome.served.iter().filter(|s| s.batched).count(),
            4,
            "one slot-holder, four batch joiners"
        );
        assert!(outcome.served.iter().all(|s| s.server == ServerId(0)));
        // Only one actual stream occupies the server.
        assert_eq!(engines[0].active_count(), 2);
    }

    #[test]
    fn unicast_waitlist_serves_one_per_slot() {
        let (mut engines, map) = setup();
        let t0 = SimTime::ZERO;
        engines[0].admit(
            Stream::new(StreamId(1), VideoId(0), 3000.0, VIEW, client(), t0),
            t0,
        );
        engines[0].admit(
            Stream::new(StreamId(2), VideoId(0), 3000.0, VIEW, client(), t0),
            t0,
        );
        let mut wl = Waitlist::new(WaitlistSpec::new(10_000.0, 100));
        for i in 10..15 {
            wl.enqueue(StreamId(i), VideoId(0), 600.0, VIEW, client(), t0);
        }
        let t1 = SimTime::from_secs(1.0);
        engines[0].advance_to(t1);
        engines[0].remove_stream(StreamId(1), t1);
        engines[0].reschedule(t1);
        wl.try_serve(&mut engines, &map, t1);
        assert_eq!(wl.stats.served, 1, "no batching: one slot, one viewer");
        assert_eq!(wl.len(), 4);
    }

    #[test]
    fn full_queue_bounces() {
        let mut wl = Waitlist::new(WaitlistSpec::new(10.0, 1));
        assert!(wl
            .enqueue(StreamId(1), VideoId(0), 90.0, VIEW, client(), SimTime::ZERO)
            .is_some());
        assert!(wl
            .enqueue(StreamId(2), VideoId(0), 90.0, VIEW, client(), SimTime::ZERO)
            .is_none());
        assert_eq!(wl.stats.bounced, 1);
    }
}
