//! The discrete-event simulation loop.
//!
//! One trial wires together:
//!
//! ```text
//! RequestGenerator ──arrival──▶ Controller ──admit──▶ ServerEngine (×N)
//!        ▲                          │                      │
//!        └── next arrival           └── DRM among holders  └── wake events
//! ```
//!
//! The loop is event-sourced: a `SimWorld` pops queue entries and
//! dispatches each `Event` variant to its own handler method. Handlers
//! mutate world state and *narrate* what happened as typed [`SimEvent`]
//! records delivered to every attached [`Probe`]. Each record names the
//! causes its handler holds: the victims an admission displaced, the
//! failed server an evacuee left, the reaped stream or repaired server
//! whose capacity served a waiter. The handlers that emit `Completed`,
//! `ServerDown` and `Paused` also count them for the `SimOutcome`;
//! quantities that are integrals of engine state (utilization, goodput)
//! are computed by the epilogue from the engines themselves.
//!
//! Two kinds of entry dominate the queue:
//!
//! * **Arrival** — the next Poisson request. Handling it may admit a
//!   stream (possibly migrating a victim), then schedules the following
//!   arrival.
//! * **Wake** — the time at which a server's state changes on its own: a
//!   stream completes or a staging buffer fills. A wake is not an
//!   `Event` but a slot of the [`EventQueue`], one per server: every
//!   reallocation re-arms the server's slot, or clears it when the server
//!   has nothing left to wake for before the horizon, so every wake the
//!   queue pops is live. The `WakeScheduler` owns this idiom — it is the
//!   only place a slot is ever armed or cleared.
//!
//! Between events every stream's `sent` grows linearly at its allocated
//! rate, so engines integrate state exactly (no time-stepping error).
//! Each engine call the loop makes for an event — an admission, a wake
//! ([`ServerEngine::wake`]: integrate, reap, reallocate), a pause or
//! resume — is one walk over the server's streams, and it leaves the
//! server's next wake cached for the arm that follows, so no handler
//! solves a schedule twice.

use crate::config::SimConfig;
use crate::events::{AdmitPath, Probe, SimEvent};
use crate::profile::{LoopProfile, LoopProfiler, Phase};
use sct_admission::{
    Admission, AdmissionStats, Controller, CopyLaunch, ReplicationManager, ReplicationStats,
    Waitlist, WaitlistStats,
};
use sct_analysis::spans::EdgeEnd;
use sct_cluster::{ClusterSpec, ReplicaMap, ServerId};
use sct_media::{Catalog, ClientProfile};
use sct_simcore::{EventQueue, Exponential, Popped, Rng, SimTime, ZipfLike};
use sct_transmission::{ServerEngine, Stream, StreamId};
use sct_workload::{calibrated_rate, RequestGenerator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Event payloads for the global queue. Server wakes live in the queue's
/// wake slots instead (see the module docs).
#[derive(Clone, Copy, Debug)]
enum Event {
    /// The generator's next request arrives.
    Arrival,
    /// A server fails (fault-tolerance extension).
    ServerDown(u16),
    /// A failed server comes back online.
    ServerUp(u16),
    /// A client pauses playback (interactivity extension).
    PauseStream(u64),
    /// A client resumes playback.
    ResumeStream(u64),
    /// A tertiary-storage replica copy finishes (dynamic replication).
    CopyDone(u64),
    /// Check the wait queue for timed-out viewers.
    WaitlistExpiry,
}

/// Results of one trial.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Megabits sent within the measurement window divided by the maximum
    /// the cluster could send in it — the paper's utilization metric.
    pub utilization: f64,
    /// Per-server utilization over the same window.
    pub per_server_utilization: Vec<f64>,
    /// Admission counters (arrivals, acceptances, rejections, migrations).
    pub stats: AdmissionStats,
    /// Streams that finished transmission.
    pub completions: u64,
    /// Total events processed (arrivals, wakes and the rest).
    pub events_processed: u64,
    /// Length of the measurement window, hours.
    pub measured_hours: f64,
    /// Replicas the placement created.
    pub total_copies: u64,
    /// Server failures that occurred (0 without a failure model).
    pub server_failures: u64,
    /// Pauses actually applied to live streams (0 without interactivity).
    pub pauses_applied: u64,
    /// Dynamic replication activity (zeros without a replication spec).
    pub replication: ReplicationStats,
    /// Utilization net of replication traffic — the share of capacity that
    /// carried *viewer* data. Equal to `utilization` without replication.
    pub goodput: f64,
    /// Wait-queue activity (zeros without a waitlist).
    pub waitlist: WaitlistStats,
}

impl SimOutcome {
    /// Fraction of arrivals accepted.
    pub fn acceptance_ratio(&self) -> f64 {
        self.stats.acceptance_ratio()
    }
}

/// The one place wake slots are armed and cleared. Owns the event queue
/// and the horizon, and encapsulates the reschedule-then-arm idiom that
/// every handler needs after touching an engine's schedule. A server
/// left without a wake before the horizon gets its slot cleared, so a
/// wake its engine no longer predicts can never pop.
struct WakeScheduler {
    queue: EventQueue<Event>,
    end: SimTime,
    /// [`SimConfig::check_invariants`]: every arm and re-arm audits the
    /// engine it touched.
    check: bool,
}

impl WakeScheduler {
    /// Enqueues `ev` at `t` unless it falls past the horizon.
    fn push_at(&mut self, t: SimTime, ev: Event) {
        if t <= self.end {
            self.queue.push(t, ev);
        }
    }

    /// `wake` if it falls within the horizon.
    fn in_horizon(&self, wake: Option<SimTime>) -> Option<SimTime> {
        wake.filter(|&t| t <= self.end)
    }

    /// Clears a failed server's slot: it holds no streams, so it has
    /// nothing to wake for until it admits again.
    fn disarm(&mut self, server: ServerId) {
        self.queue.disarm(server.index());
    }

    /// Arms the next wake for an engine whose schedule is already current
    /// at `now`, or clears its slot when it has none before the horizon,
    /// then audits the engine when checks are on. Every engine mutation
    /// the loop makes ends in an allocation walk
    /// ([`ServerEngine::admit`], [`ServerEngine::wake`],
    /// [`ServerEngine::set_paused`]), so the arm reuses the wake time that
    /// walk computed ([`ServerEngine::last_wake`]) — re-running the
    /// (unchanged) allocation and the stream scan here would double the
    /// loop's allocator work for a bit-identical result.
    fn arm(&mut self, engine: &ServerEngine, now: SimTime, prof: &LoopProfiler) {
        debug_assert_eq!(
            engine.last_wake(),
            engine.next_event_after(now),
            "arm() without a fresh reschedule on {}",
            engine.id()
        );
        match self.in_horizon(engine.last_wake()) {
            Some(wake) => {
                let t1 = prof.stamp();
                self.queue.arm(engine.id().index(), wake);
                prof.add(Phase::Wake, t1);
            }
            None => self.queue.disarm(engine.id().index()),
        }
        if self.check {
            engine.check_invariants();
        }
    }
}

/// All mutable state of one trial. Built by [`SimWorld::new`], driven by
/// [`SimWorld::run_loop`], reduced to a [`SimOutcome`] by
/// [`SimWorld::finish`].
struct SimWorld<'a> {
    config: &'a SimConfig,
    catalog: Catalog,
    cluster: ClusterSpec,
    replica_map: ReplicaMap,
    total_copies: u64,
    replication: Option<ReplicationManager>,
    waitlist: Option<Waitlist>,
    generator: RequestGenerator,
    client: ClientProfile,
    view_rate: f64,
    engines: Vec<ServerEngine>,
    controller: Controller,
    sched: WakeScheduler,
    admission_rng: Rng,
    failure_rng: Rng,
    failure_dists: Option<(Exponential, Exponential)>,
    pause_rng: Rng,
    /// Pause/resume location hints: stream id → last known server.
    /// Maintained only when interactivity is configured (nothing reads it
    /// otherwise); entries are pruned when their stream completes or is
    /// dropped, so the map is bounded by the streams concurrently in the
    /// engines, not by total arrivals.
    loc_hint: HashMap<u64, u16>,
    next_stream_id: u64,
    events_processed: u64,
    /// Viewer streams reaped as finished (`Completed` records).
    completions: u64,
    /// Server failures (`ServerDown` records).
    server_failures: u64,
    /// Pauses that landed on a live stream (`Paused` records).
    pauses_applied: u64,
    last_time: SimTime,
    /// Wall-clock phase timers, enabled or disabled as a whole; see
    /// [`crate::profile`].
    prof: LoopProfiler,
    /// Entries the loop popped (test builds only): the work gate that
    /// every pop is a live event.
    #[cfg(test)]
    pops: u64,
}

impl<'a> SimWorld<'a> {
    /// Builds the world: catalog, cluster, placement, engines, policies,
    /// and the initial event queue (first arrival, failure phases).
    /// `profile` enables the loop's wall-clock profiler.
    fn new(config: &'a SimConfig, profile: bool) -> Self {
        // Independent randomness streams so that, e.g., changing the
        // placement cannot perturb the arrival sequence.
        let root = Rng::new(config.seed);
        let mut catalog_rng = root.fork(1);
        let mut placement_rng = root.fork(2);
        let mut cluster_rng = root.fork(3);
        let admission_rng = root.fork(4);

        let catalog = config.system.catalog(&mut catalog_rng);
        let cluster: ClusterSpec = match config.heterogeneity {
            None => config.system.cluster(),
            Some((kind, spread)) => {
                config
                    .system
                    .heterogeneous_cluster(kind, spread, &mut cluster_rng)
            }
        };
        let popularity = ZipfLike::new(catalog.len(), config.theta);
        let replica_map =
            config
                .placement
                .place(&catalog, &cluster, popularity.probs(), &mut placement_rng);
        let total_copies = replica_map.total_copies();
        let replication = config.replication.map(ReplicationManager::new);
        let waitlist = config.waitlist.map(Waitlist::new);

        let rate = calibrated_rate(cluster.total_bandwidth_mbps(), &catalog, popularity.probs());
        let generator = match config.diurnal {
            None => RequestGenerator::new(rate, &popularity, &root),
            Some(d) => RequestGenerator::new_diurnal(
                rate,
                d.amplitude,
                d.period_hours * 3600.0,
                &popularity,
                &root,
            ),
        };

        let client = config.client_profile(catalog.avg_size_mb());
        let view_rate = config.system.view_rate_mbps;

        let engines: Vec<ServerEngine> = cluster
            .ids()
            .map(|id| {
                let mut e =
                    ServerEngine::new(id, cluster.server(id).bandwidth_mbps, config.scheduler);
                e.set_measure_start(config.warmup);
                e
            })
            .collect();
        let mut controller = Controller::new(config.assignment, config.migration);
        controller.evacuation = config.evacuation;

        let mut sched = WakeScheduler {
            queue: EventQueue::with_wake_slots(engines.len()),
            end: config.duration,
            check: config.check_invariants,
        };
        sched.push_at(generator.peek_time(), Event::Arrival);

        // Failure process: each server alternates exponential up/down
        // phases, seeded independently of everything else.
        let mut failure_rng = root.fork(5);
        let failure_dists = config.failures.map(|f| {
            (
                Exponential::new(1.0 / (f.mtbf_hours * 3600.0)),
                Exponential::new(1.0 / (f.repair_hours * 3600.0)),
            )
        });
        if let Some((up_time, _)) = &failure_dists {
            for s in 0..engines.len() as u16 {
                let t = SimTime::ZERO + up_time.sample(&mut failure_rng);
                sched.push_at(t, Event::ServerDown(s));
            }
        }

        // Interactivity: pause decisions are drawn at admission from an
        // independent stream; pause/resume events carry the stream id and
        // are resolved against the location-hint map (streams move on
        // migration and vanish on completion, so a stale hint falls back
        // to a scan).
        let pause_rng = root.fork(6);

        SimWorld {
            config,
            catalog,
            cluster,
            replica_map,
            total_copies,
            replication,
            waitlist,
            generator,
            client,
            view_rate,
            engines,
            controller,
            sched,
            admission_rng,
            failure_rng,
            failure_dists,
            pause_rng,
            loc_hint: HashMap::new(),
            next_stream_id: 0,
            events_processed: 0,
            completions: 0,
            server_failures: 0,
            pauses_applied: 0,
            last_time: SimTime::ZERO,
            prof: if profile {
                LoopProfiler::new()
            } else {
                LoopProfiler::disabled()
            },
            #[cfg(test)]
            pops: 0,
        }
    }

    /// Pops and dispatches entries until the queue drains, narrating to
    /// `probes`. Every popped wake is live (the wake slots never hold a
    /// superseded one), so every pop is an event.
    fn run_loop(&mut self, probes: &mut [&mut dyn Probe]) {
        while let Some(entry) = self.sched.queue.pop_next() {
            #[cfg(test)]
            {
                self.pops += 1;
            }
            let now = entry.time;
            debug_assert!(now >= self.last_time, "event order violated");
            self.last_time = now;
            self.events_processed += 1;
            let t0 = self.prof.stamp();
            match entry.payload {
                Popped::Wake(server) => {
                    debug_assert_eq!(
                        self.engines[server].last_wake(),
                        Some(now),
                        "a superseded wake popped on server {server}"
                    );
                    self.on_wake(now, server as u16, probes)
                }
                Popped::Event(ev) => match ev {
                    Event::Arrival => self.on_arrival(now, probes),
                    Event::ServerDown(server) => self.on_server_down(now, server, probes),
                    Event::ServerUp(server) => self.on_server_up(now, server, probes),
                    Event::CopyDone(id) => self.on_copy_done(now, id, probes),
                    Event::WaitlistExpiry => self.on_waitlist_expiry(now, probes),
                    Event::PauseStream(id) => self.on_pause_resume(now, id, true, probes),
                    Event::ResumeStream(id) => self.on_pause_resume(now, id, false, probes),
                },
            }
            // The publish window ends where the dispatch window does,
            // so the two phases share the closing timestamp (one
            // clock read saved per event).
            let t1 = self.prof.stamp();
            self.publish_state(now, probes);
            let t2 = self.prof.stamp();
            self.prof.add_between(Phase::Probe, t1, t2);
            self.prof.add_between(Phase::Dispatch, t0, t2);
        }
    }

    /// The engines' walks over their streams so far, and the streams
    /// those walks visited (see [`ServerEngine::walks`]).
    fn engine_work(&self) -> (u64, u64) {
        self.engines.iter().fold((0, 0), |(walks, visits), e| {
            (walks + e.walks(), visits + e.stream_visits())
        })
    }

    /// Offers every probe a read-only view of world state at the event
    /// boundary just processed. Rates only change inside handlers, so the
    /// state between two published views is exactly linear — which is what
    /// makes the telemetry gauges exact (see `crate::metrics`). The caller
    /// charges this to [`Phase::Probe`].
    fn publish_state(&self, now: SimTime, probes: &mut [&mut dyn Probe]) {
        let view = crate::metrics::StateView::new(
            now,
            &self.engines,
            self.waitlist.as_ref().map_or(0, Waitlist::len),
        );
        for p in probes.iter_mut() {
            p.on_state(now, &view);
        }
    }

    /// One Poisson arrival: admission decision (direct / DRM / chain /
    /// reject), waitlist and replication fallbacks for rejections, pause
    /// scheduling for acceptances, wake re-arming, next arrival.
    fn on_arrival(&mut self, now: SimTime, probes: &mut [&mut dyn Probe]) {
        let req = self.generator.next_request();
        debug_assert!(req.at == now);
        let video = self.catalog.video(req.video);
        let stream = Stream::new(
            StreamId(self.next_stream_id),
            req.video,
            video.size_mb(),
            self.view_rate,
            self.client,
            now,
        );
        self.next_stream_id += 1;
        let length_secs = video.size_mb() / self.view_rate;
        let stream_id = self.next_stream_id - 1;
        let size_mb = video.size_mb();
        let (admission, touched) = self.controller.admit(
            stream,
            &mut self.engines,
            &self.replica_map,
            now,
            &mut self.admission_rng,
        );
        let track_hints = self.config.interactivity.is_some();
        let vid = req.video.index() as u32;
        match admission {
            Admission::Direct { server } => {
                if track_hints {
                    self.loc_hint.insert(stream_id, server.0);
                }
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Admitted {
                        stream: stream_id,
                        video: vid,
                        server: server.0,
                        path: AdmitPath::Direct,
                    },
                );
            }
            Admission::WithMigration { server, victim, to } => {
                if track_hints {
                    self.loc_hint.insert(stream_id, server.0);
                    self.loc_hint.insert(victim.0, to.0);
                }
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Admitted {
                        stream: stream_id,
                        video: vid,
                        server: server.0,
                        path: AdmitPath::Migrated { victim: victim.0 },
                    },
                );
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Migrated {
                        stream: victim.0,
                        from: server.0,
                        to: to.0,
                        emergency: false,
                    },
                );
            }
            Admission::WithChain {
                server,
                first,
                second,
            } => {
                if track_hints {
                    self.loc_hint.insert(stream_id, server.0);
                    self.loc_hint.insert(first.0 .0, first.1 .0);
                    self.loc_hint.insert(second.0 .0, second.1 .0);
                }
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Admitted {
                        stream: stream_id,
                        video: vid,
                        server: server.0,
                        path: AdmitPath::Chained {
                            outer: first.0 .0,
                            inner: second.0 .0,
                        },
                    },
                );
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Migrated {
                        stream: first.0 .0,
                        from: server.0,
                        to: first.1 .0,
                        emergency: false,
                    },
                );
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Migrated {
                        stream: second.0 .0,
                        from: first.1 .0,
                        to: second.1 .0,
                        emergency: false,
                    },
                );
            }
            Admission::Rejected => {
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Rejected {
                        stream: stream_id,
                        video: vid,
                    },
                );
            }
        }
        if !admission.accepted() {
            if let Some(wl) = self.waitlist.as_mut() {
                if let Some(expires) = wl.enqueue(
                    StreamId(stream_id),
                    req.video,
                    size_mb,
                    self.view_rate,
                    self.client,
                    now,
                ) {
                    self.sched.push_at(expires, Event::WaitlistExpiry);
                    crate::events::emit(
                        probes,
                        now,
                        &SimEvent::WaitlistQueued {
                            stream: stream_id,
                            video: vid,
                        },
                    );
                }
            }
            if let Some(mgr) = self.replication.as_mut() {
                match mgr.maybe_replicate(
                    req.video,
                    size_mb,
                    &mut self.next_stream_id,
                    &mut self.engines,
                    &self.replica_map,
                    &self.cluster,
                    now,
                ) {
                    Some(CopyLaunch::FromServer { source, stream }) => {
                        self.sched
                            .arm(&self.engines[source.index()], now, &self.prof);
                        crate::events::emit(
                            probes,
                            now,
                            &SimEvent::CopyStarted {
                                copy: stream.0,
                                video: vid,
                                tertiary: false,
                            },
                        );
                    }
                    Some(CopyLaunch::FromTertiary {
                        token,
                        done_in_secs,
                    }) => {
                        // Copies still in flight at the end of the run
                        // simply never materialise.
                        self.sched
                            .push_at(now + done_in_secs, Event::CopyDone(token.0));
                        crate::events::emit(
                            probes,
                            now,
                            &SimEvent::CopyStarted {
                                copy: token.0,
                                video: vid,
                                tertiary: true,
                            },
                        );
                    }
                    None => {}
                }
            }
        }
        if admission.accepted() {
            if let Some(ps) = self.config.interactivity {
                if self.pause_rng.chance(ps.probability) {
                    let at = now + self.pause_rng.range_f64(0.0, length_secs);
                    let dur = self
                        .pause_rng
                        .range_f64(ps.min_pause_secs, ps.max_pause_secs);
                    if at <= self.sched.end {
                        self.sched.push_at(at, Event::PauseStream(stream_id));
                        self.sched.push_at(at + dur, Event::ResumeStream(stream_id));
                    }
                }
            }
        }
        for &sid in touched.iter() {
            self.sched.arm(&self.engines[sid.index()], now, &self.prof);
        }
        self.sched
            .push_at(self.generator.peek_time(), Event::Arrival);
    }

    /// A live wake: integrate the server, reap finished streams and
    /// reallocate in one walk, feed the waitlist with any freed slots (the
    /// last stream reaped is their cause), and re-arm.
    fn on_wake(&mut self, now: SimTime, server: u16, probes: &mut [&mut dyn Probe]) {
        let t0 = self.prof.stamp();
        let reaped = self.engines[server as usize].wake(now);
        self.prof.add(Phase::Alloc, t0);
        let mut freed_by = None;
        for done in reaped {
            freed_by = Some(EdgeEnd::Stream { stream: done.id.0 });
            if done.is_copy() {
                let installed = self
                    .replication
                    .as_mut()
                    .and_then(|mgr| mgr.on_copy_finished(done.id, &mut self.replica_map))
                    .is_some();
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::CopyDone {
                        copy: done.id.0,
                        installed,
                    },
                );
            } else {
                self.loc_hint.remove(&done.id.0);
                self.completions += 1;
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::Completed {
                        stream: done.id.0,
                        server,
                    },
                );
            }
        }
        if let Some(cause) = freed_by {
            self.serve_from_waitlist(now, cause, probes);
        }
        self.sched
            .arm(&self.engines[server as usize], now, &self.prof);
    }

    /// Expires impatient waiters, then retries the queue against the
    /// capacity `cause` freed, re-arming every server that took a stream.
    /// Shared by the wake and repair paths.
    fn serve_from_waitlist(&mut self, now: SimTime, cause: EdgeEnd, probes: &mut [&mut dyn Probe]) {
        let Some(wl) = self.waitlist.as_mut() else {
            return;
        };
        let expired = wl.expire(now);
        if expired > 0 {
            crate::events::emit(
                probes,
                now,
                &SimEvent::WaitlistExpired {
                    count: expired as u32,
                },
            );
        }
        let outcome = wl.try_serve(&mut self.engines, &self.replica_map, now);
        for w in &outcome.served {
            crate::events::emit(
                probes,
                now,
                &SimEvent::WaitlistServed {
                    stream: w.id.0,
                    video: w.video.index() as u32,
                    server: w.server.0,
                    batched: w.batched,
                    waited_secs: w.waited_secs,
                    cause,
                },
            );
        }
        for sid in outcome.touched {
            self.sched.arm(&self.engines[sid.index()], now, &self.prof);
        }
    }

    /// A server fails: abort its copies, evacuate what DRM can save, drop
    /// the rest, and schedule the repair.
    fn on_server_down(&mut self, now: SimTime, server: u16, probes: &mut [&mut dyn Probe]) {
        let taken = self.engines[server as usize].fail(now);
        self.sched.disarm(ServerId(server));
        if let Some(mgr) = self.replication.as_mut() {
            mgr.on_server_failed(ServerId(server));
        }
        let evac = self.controller.evacuate(
            taken,
            ServerId(server),
            &mut self.engines,
            &self.replica_map,
            now,
        );
        // Best-effort restarts are relocations too (just non-seamless),
        // so they share the emergency-migration event; the stats split
        // them out via `restarted_on_failure`. The summary follows its
        // evacuations, so whatever a reader still holds on the failed
        // server when it arrives was dropped.
        for &(stream, to) in evac.relocated.iter().chain(&evac.restarted) {
            crate::events::emit(
                probes,
                now,
                &SimEvent::Migrated {
                    stream: stream.0,
                    from: server,
                    to: to.0,
                    emergency: true,
                },
            );
        }
        self.server_failures += 1;
        crate::events::emit(
            probes,
            now,
            &SimEvent::ServerDown {
                server,
                relocated: (evac.relocated.len() + evac.restarted.len()) as u32,
                dropped: evac.dropped.len() as u32,
            },
        );
        for stream in &evac.dropped {
            self.loc_hint.remove(&stream.0);
        }
        for sid in evac.touched {
            self.sched.arm(&self.engines[sid.index()], now, &self.prof);
        }
        let repair = self
            .failure_dists
            .as_ref()
            .expect("failure event without a failure model")
            .1
            .sample(&mut self.failure_rng);
        self.sched.push_at(now + repair, Event::ServerUp(server));
    }

    /// A failed server returns (empty): give the waitlist first claim on
    /// the fresh capacity and schedule the next failure.
    fn on_server_up(&mut self, now: SimTime, server: u16, probes: &mut [&mut dyn Probe]) {
        self.engines[server as usize].repair(now);
        crate::events::emit(probes, now, &SimEvent::ServerUp { server });
        self.serve_from_waitlist(now, EdgeEnd::Server { server }, probes);
        let up_time = self
            .failure_dists
            .as_ref()
            .expect("repair event without a failure model")
            .0
            .sample(&mut self.failure_rng);
        self.sched.push_at(now + up_time, Event::ServerDown(server));
    }

    /// A tertiary-sourced copy completes (the target may have failed
    /// mid-copy, in which case nothing installs).
    fn on_copy_done(&mut self, now: SimTime, id: u64, probes: &mut [&mut dyn Probe]) {
        if let Some(mgr) = self.replication.as_mut() {
            let installed = mgr
                .on_copy_finished(StreamId(id), &mut self.replica_map)
                .is_some();
            crate::events::emit(
                probes,
                now,
                &SimEvent::CopyDone {
                    copy: id,
                    installed,
                },
            );
        }
    }

    /// A waiter's patience deadline: purge the expired prefix.
    fn on_waitlist_expiry(&mut self, now: SimTime, probes: &mut [&mut dyn Probe]) {
        if let Some(wl) = self.waitlist.as_mut() {
            let expired = wl.expire(now);
            if expired > 0 {
                crate::events::emit(
                    probes,
                    now,
                    &SimEvent::WaitlistExpired {
                        count: expired as u32,
                    },
                );
            }
        }
    }

    /// A pause or resume lands: resolve the stream via the location hint
    /// (falling back to a scan — it may have migrated), apply and
    /// reallocate in one walk, re-arm. Engines the scan only passes are
    /// advanced to `now`, nothing more.
    fn on_pause_resume(
        &mut self,
        now: SimTime,
        id: u64,
        paused: bool,
        probes: &mut [&mut dyn Probe],
    ) {
        let sid = StreamId(id);
        let t0 = self.prof.stamp();
        let mut found = None;
        if let Some(&hint) = self.loc_hint.get(&id) {
            if self.engines[hint as usize].set_paused(sid, paused, now) {
                found = Some(hint);
            }
        }
        if found.is_none() {
            for e in self.engines.iter_mut() {
                let eid = e.id().0;
                if e.set_paused(sid, paused, now) {
                    self.loc_hint.insert(id, eid);
                    found = Some(eid);
                    break;
                }
            }
        }
        if let Some(server) = found {
            self.prof.add(Phase::Alloc, t0);
            let event = if paused {
                self.pauses_applied += 1;
                SimEvent::Paused { stream: id, server }
            } else {
                SimEvent::Resumed { stream: id, server }
            };
            crate::events::emit(probes, now, &event);
            self.sched
                .arm(&self.engines[server as usize], now, &self.prof);
        } else {
            // Stream finished (or was dropped) before the pause point — a
            // client-side no-op.
            self.loc_hint.remove(&id);
        }
    }

    /// Integrates the tail of every engine to the horizon and reduces the
    /// world to a [`SimOutcome`].
    fn finish(mut self) -> SimOutcome {
        let end = self.sched.end;
        for e in &mut self.engines {
            e.advance_to(end);
            if self.config.check_invariants {
                e.check_invariants();
            }
        }

        let measured_secs = end - self.config.warmup;
        let per_server_utilization: Vec<f64> = self
            .engines
            .iter()
            .map(|e| e.measured_mb() / (e.capacity_mbps() * measured_secs))
            .collect();
        let total_sent: f64 = self.engines.iter().map(|e| e.measured_mb()).sum();
        let utilization = total_sent / (self.cluster.total_bandwidth_mbps() * measured_secs);
        self.controller.stats.check();

        // Goodput nets out replication traffic that consumed *server*
        // bandwidth: completed cluster-sourced copies plus the transmitted
        // part of still-running engine copies. Tertiary-sourced copies ride
        // the tertiary drive and do not reduce goodput. A copy overlapping
        // the warm-up window is attributed entirely to the measurement
        // window — a negligible conservative bias for the durations we run.
        // Waitlist reconciliation: a request served from the queue was
        // counted as rejected at arrival; it ended up accepted.
        let wl_stats = self.waitlist.as_ref().map(|w| w.stats).unwrap_or_default();
        self.controller.stats.rejected -= wl_stats.served;
        self.controller.stats.accepted_direct += wl_stats.served;
        self.controller.stats.accepted_mb += wl_stats.served_mb;
        self.controller.stats.check();

        let rep_stats = self
            .replication
            .as_ref()
            .map(|m| m.stats)
            .unwrap_or_default();
        let mut copy_mb = rep_stats.cluster_copy_mb;
        for e in &self.engines {
            copy_mb += e
                .streams()
                .iter()
                .filter(|s| s.is_copy())
                .map(|s| s.sent_mb())
                .sum::<f64>();
        }
        let goodput = utilization - copy_mb / (self.cluster.total_bandwidth_mbps() * measured_secs);

        SimOutcome {
            utilization,
            per_server_utilization,
            stats: self.controller.stats,
            completions: self.completions,
            events_processed: self.events_processed,
            measured_hours: measured_secs / 3600.0,
            total_copies: self.total_copies,
            server_failures: self.server_failures,
            pauses_applied: self.pauses_applied,
            replication: rep_stats,
            waitlist: wl_stats,
            goodput: goodput.max(0.0),
        }
    }
}

/// Runs trials described by [`SimConfig`].
pub struct Simulation;

impl Simulation {
    /// Runs one complete trial. Deterministic in `config` (including the
    /// seed).
    pub fn run(config: &SimConfig) -> SimOutcome {
        Self::run_with_probes(config, &mut [])
    }

    /// Runs one trial with [`Probe`] observers attached. Probes see every
    /// [`SimEvent`] in simulation-time order and cannot perturb the run:
    /// the returned outcome is bit-identical to [`Simulation::run`] on the
    /// same config. The loop's profilers are disabled, so no event reads
    /// the wall clock.
    pub fn run_with_probes(config: &SimConfig, probes: &mut [&mut dyn Probe]) -> SimOutcome {
        let mut world = SimWorld::new(config, false);
        world.run_loop(probes);
        world.finish()
    }

    /// Like [`Simulation::run_with_probes`], but with the event loop's
    /// wall-clock profiler enabled (see [`crate::profile`]). Returns the
    /// outcome and the loop profile. The profiler is wall-clock-only, so
    /// the outcome — and every probe's output — is bit-identical to
    /// [`Simulation::run_with_probes`] (`tests/parallel_determinism.rs`
    /// enforces this across the golden scenarios).
    pub fn run_instrumented(
        config: &SimConfig,
        probes: &mut [&mut dyn Probe],
    ) -> (SimOutcome, LoopProfile) {
        let mut world = SimWorld::new(config, true);
        world.run_loop(probes);
        let mut profile = world.prof.report();
        (profile.engine_walks, profile.stream_visits) = world.engine_work();
        (world.finish(), profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StagingSpec;
    use crate::policies::Policy;
    use sct_admission::MigrationPolicy;
    use sct_workload::SystemSpec;

    fn quick_config(seed: u64) -> SimConfig {
        SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(3.0)
            .warmup_hours(0.25)
            .seed(seed)
            .check_invariants(true)
            .build()
    }

    #[test]
    fn outcome_is_well_formed() {
        let out = Simulation::run(&quick_config(1));
        assert!(out.utilization > 0.0 && out.utilization <= 1.0, "{out:?}");
        assert!(out.stats.arrivals > 50, "load calibration: {out:?}");
        assert!(out.completions > 0);
        assert!(out.events_processed >= out.stats.arrivals);
        assert_eq!(out.per_server_utilization.len(), 3);
        for &u in &out.per_server_utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
        assert!((out.measured_hours - 2.75).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Simulation::run(&quick_config(42));
        let b = Simulation::run(&quick_config(42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::run(&quick_config(1));
        let b = Simulation::run(&quick_config(2));
        assert_ne!(a.stats.arrivals, b.stats.arrivals);
    }

    #[test]
    fn probes_do_not_perturb_the_run() {
        // An attached observer must be invisible to the simulation: same
        // seed, same outcome, with or without extra probes.
        struct CountingProbe(u64);
        impl Probe for CountingProbe {
            fn on_event(&mut self, _now: SimTime, _event: &crate::events::SimEvent) {
                self.0 += 1;
            }
        }
        let cfg = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(3.0)
            .warmup_hours(0.25)
            .interactivity(0.5, 30.0, 300.0)
            .waitlist(120.0, 20)
            .seed(42)
            .build();
        let plain = Simulation::run(&cfg);
        let mut probe = CountingProbe(0);
        let observed = Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        assert_eq!(plain, observed);
        assert!(
            probe.0 > plain.stats.arrivals,
            "every arrival produces at least one event"
        );
    }

    #[test]
    fn profile_reconciles_with_the_event_count() {
        let cfg = quick_config(42);
        let (out, profile) = Simulation::run_instrumented(&cfg, &mut []);
        assert_eq!(out, Simulation::run(&cfg), "profiling must not perturb");
        assert_eq!(profile.events, out.events_processed);
        assert_eq!(profile.dispatch.calls, out.events_processed);
        assert!(profile.wall_secs > 0.0);
        assert!(profile.events_per_sec > 0.0);
        assert!(profile.dispatch.secs <= profile.wall_secs);
        // Sub-phases nest inside dispatch windows.
        assert!(profile.alloc.secs + profile.wake.secs + profile.probe.secs <= profile.wall_secs);
        assert!(profile.alloc.calls > 0, "every trial re-arms engines");
        assert!(profile.wake.calls > 0, "every trial schedules wakes");
        assert!(profile.probe.calls > 0, "every event is published");
    }

    /// The default entry points run the loop with a disabled profiler,
    /// so no phase is ever charged and no event reads the clock for it.
    #[test]
    fn default_path_never_profiles() {
        let cfg = quick_config(42);
        let mut world = SimWorld::new(&cfg, false);
        world.run_loop(&mut []);
        assert!(world.events_processed > 0);
        assert!(!world.prof.enabled());
        let report = world.prof.report();
        assert_eq!(report.wall_secs, 0.0);
        for s in [report.dispatch, report.alloc, report.wake, report.probe] {
            assert_eq!(s.calls, 0, "a disabled profiler was charged");
        }
    }

    /// Work gate, exact rather than timed: on a seed-fixed Small trial
    /// the loop pops exactly as many entries as it dispatches events. A
    /// reschedule overwrites its server's one wake slot, so no
    /// superseded wake is ever popped and thrown away. (A queue that
    /// kept superseded wakes and filtered them at dispatch popped 10 649
    /// entries for this trial's 7 659 events.)
    #[test]
    fn every_pop_is_a_live_event() {
        let cfg = SimConfig::builder(SystemSpec::small_paper())
            .policy(Policy::P4)
            .duration_hours(6.0)
            .warmup_hours(1.0)
            .seed(5)
            .build();
        let mut world = SimWorld::new(&cfg, false);
        world.run_loop(&mut []);
        assert!(world.events_processed > 5_000, "{}", world.events_processed);
        assert_eq!(world.pops, world.events_processed);
    }

    /// Work gate on the engines, exact rather than timed: on the same
    /// trial as `every_pop_is_a_live_event`, every event walks the
    /// streams of the server it touched once. A wake integrates, reaps
    /// and reallocates in one walk, an admission integrates and
    /// reallocates in one, and no observer asks for a rate sum: 7,987
    /// walks (1.043 per event) visit 214,743 streams. The extra 4 % are
    /// the DRM holders' integrations before a migration search, which
    /// stay walks of their own. (With separate integration, reap, rate
    /// sum and allocation walks, the trial made 30,897 walks, 4.03 per
    /// event, visiting 826,566 streams.)
    #[test]
    fn engine_walks_are_pinned() {
        let cfg = SimConfig::builder(SystemSpec::small_paper())
            .policy(Policy::P4)
            .duration_hours(6.0)
            .warmup_hours(1.0)
            .seed(5)
            .build();
        let mut world = SimWorld::new(&cfg, false);
        world.run_loop(&mut []);
        let (walks, visits) = world.engine_work();
        assert_eq!(world.events_processed, 7_659);
        assert_eq!((walks, visits), (7_987, 214_743));
    }

    /// The one-walk gate on `bench_simloop`'s eight grid cells (Small,
    /// P4, θ 0.271, 2 h, no warm-up, seed 5, every scheduler with and
    /// without one-hop migration): at most 1.1 walks per event each.
    #[test]
    fn every_grid_cell_walks_once_per_event() {
        for scheduler in sct_transmission::SchedulerKind::ALL {
            for migration in [MigrationPolicy::disabled(), MigrationPolicy::single_hop()] {
                let cfg = SimConfig::builder(SystemSpec::small_paper())
                    .policy(Policy::P4)
                    .theta(0.271)
                    .duration_hours(2.0)
                    .warmup_hours(0.0)
                    .seed(5)
                    .scheduler(scheduler)
                    .migration(migration)
                    .build();
                let mut world = SimWorld::new(&cfg, false);
                world.run_loop(&mut []);
                let (walks, _) = world.engine_work();
                let per_event = walks as f64 / world.events_processed as f64;
                assert!(
                    per_event <= 1.1,
                    "{scheduler:?}, migration {}: {per_event:.3} walks per event",
                    migration.enabled
                );
            }
        }
    }

    /// Work gate on the probes' state-view reads, exact rather than
    /// timed (the tally exists in test builds only:
    /// `crate::metrics::view_work`). The trial is `bench_simloop`'s
    /// probe cell: Small, P4, θ 0.271, 2 h, no warm-up, seed 5, EFTF with
    /// one-hop migration. `TimeSeriesProbe` reads 15 server fields per
    /// event (each server's rate and capacity, and its active-stream
    /// count) and walks the streams only for its once-per-window staged
    /// sample: 15 × 2 674 + 5 engine clocks × 8 windows = 40 150 reads,
    /// and 931 stream visits. A per-event stream walk or a doubled read
    /// moves these counts. `TelemetryProbe` walks every stream at every
    /// event (25 reads per event); its ceiling keeps that from growing
    /// until the walk is made incremental.
    #[test]
    fn probe_state_view_work_is_pinned() {
        use crate::metrics::{view_work, TelemetryProbe};
        use crate::TimeSeriesProbe;
        let cfg = SimConfig::builder(SystemSpec::small_paper())
            .policy(Policy::P4)
            .theta(0.271)
            .duration_hours(2.0)
            .warmup_hours(0.0)
            .seed(5)
            .scheduler(sct_transmission::SchedulerKind::Eftf)
            .migration(MigrationPolicy::single_hop())
            .build();
        let work = |probe: &mut dyn Probe| {
            let (reads, visits) = view_work::tally();
            let out = Simulation::run_with_probes(&cfg, &mut [probe]);
            let (r, v) = view_work::tally();
            (out.events_processed, r - reads, v - visits)
        };
        let mut ts = TimeSeriesProbe::new(&cfg, 900.0);
        assert_eq!(work(&mut ts), (2_674, 40_150, 931));
        let mut tel = TelemetryProbe::new(&cfg);
        let (events, reads, visits) = work(&mut tel);
        assert_eq!(events, 2_674);
        assert!(reads <= 66_850, "TelemetryProbe read {reads} server fields");
        assert!(visits <= 335_240, "TelemetryProbe visited {visits} streams");
    }

    #[test]
    fn loc_hint_stays_bounded_with_interactivity() {
        // The hint map must track only streams that still exist in some
        // engine (live or finished-but-unreaped), not every admission the
        // trial ever made.
        let cfg = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(6.0)
            .warmup_hours(0.25)
            .interactivity(0.8, 30.0, 300.0)
            .seed(97)
            .check_invariants(true)
            .build();
        let mut world = SimWorld::new(&cfg, false);
        world.run_loop(&mut []);
        let in_engines: std::collections::HashSet<u64> = world
            .engines
            .iter()
            .flat_map(|e| e.streams().iter().map(|s| s.id.0))
            .collect();
        assert!(
            world.controller.stats.arrivals > 200,
            "need a long trial for the bound to mean anything: {}",
            world.controller.stats.arrivals
        );
        assert!(
            world.loc_hint.len() <= in_engines.len(),
            "hint map ({}) must not outgrow the resident stream set ({})",
            world.loc_hint.len(),
            in_engines.len()
        );
        for key in world.loc_hint.keys() {
            assert!(
                in_engines.contains(key),
                "hint for stream {key} which no engine still holds"
            );
        }
    }

    #[test]
    fn loc_hint_unused_without_interactivity() {
        let cfg = quick_config(42);
        let mut world = SimWorld::new(&cfg, false);
        world.run_loop(&mut []);
        assert!(
            world.loc_hint.is_empty(),
            "no interactivity: the hint map must never be populated"
        );
        assert!(world.controller.stats.arrivals > 50);
    }

    #[test]
    fn offered_load_is_calibrated_to_capacity() {
        // Requested megabits per measured second ≈ cluster bandwidth.
        let cfg = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(6.0)
            .warmup_hours(0.0)
            .seed(3)
            .build();
        let out = Simulation::run(&cfg);
        let requested_rate = out.stats.requested_mb / (out.measured_hours * 3600.0);
        let capacity = cfg.system.total_bandwidth_mbps();
        assert!(
            (requested_rate - capacity).abs() < capacity * 0.15,
            "offered {requested_rate} vs capacity {capacity}"
        );
    }

    #[test]
    fn migration_does_not_hurt() {
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(4.0)
            .warmup_hours(0.25)
            .theta(0.0)
            .staging(StagingSpec::FractionOfAvgVideo(0.2))
            .seed(7);
        let without = Simulation::run(&base.clone().build());
        let with = Simulation::run(
            &base
                .migration(MigrationPolicy {
                    handoff_latency_secs: 0.0,
                    ..MigrationPolicy::single_hop()
                })
                .build(),
        );
        assert!(
            with.stats.accepted_via_migration > 0,
            "migration should fire"
        );
        assert!(
            with.utilization >= without.utilization - 0.02,
            "with {} vs without {}",
            with.utilization,
            without.utilization
        );
    }

    #[test]
    fn staging_does_not_hurt() {
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(4.0)
            .warmup_hours(0.25)
            .theta(0.5)
            .seed(11);
        let none = Simulation::run(&base.clone().staging_fraction(0.0).build());
        let some = Simulation::run(&base.staging_fraction(0.2).build());
        assert!(
            some.utilization >= none.utilization - 0.02,
            "staged {} vs unstaged {}",
            some.utilization,
            none.utilization
        );
    }

    #[test]
    fn policy_builder_integrates() {
        let cfg = SimConfig::builder(SystemSpec::tiny_test())
            .policy(Policy::P4)
            .duration_hours(2.0)
            .seed(5)
            .build();
        assert!(cfg.migration.enabled);
        let out = Simulation::run(&cfg);
        assert!(out.utilization > 0.3);
    }

    #[test]
    fn conservation_sent_never_exceeds_accepted() {
        let cfg = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(3.0)
            .warmup_hours(0.0)
            .seed(13)
            .build();
        let out = Simulation::run(&cfg);
        let capacity_mb = cfg.system.total_bandwidth_mbps() * out.measured_hours * 3600.0;
        let sent_mb = out.utilization * capacity_mb;
        assert!(
            sent_mb <= out.stats.accepted_mb + 1e-3,
            "sent {sent_mb} vs accepted {}",
            out.stats.accepted_mb
        );
    }

    #[test]
    fn failures_fire_and_drm_rescues_streams() {
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(8.0)
            .warmup_hours(0.5)
            .staging_fraction(0.2)
            .seed(31)
            .check_invariants(true);
        // Frequent failures: MTBF 1 h, repair 10 min.
        let without = Simulation::run(&base.clone().failures(1.0, 0.17).build());
        assert!(without.server_failures > 5, "{:?}", without.server_failures);
        assert_eq!(without.stats.relocated_on_failure, 0);
        assert!(without.stats.dropped_on_failure > 0);

        let with = Simulation::run(
            &base
                .migration(MigrationPolicy {
                    handoff_latency_secs: 0.0,
                    ..MigrationPolicy::single_hop()
                })
                .failures(1.0, 0.17)
                .build(),
        );
        assert!(
            with.stats.relocated_on_failure > 0,
            "evacuation never fired"
        );
        // At 100 % offered load on a 3-server cluster the neighbours are
        // mostly full, so only a fraction of victims find a new home — but
        // it must be a real fraction, not a fluke.
        let total_victims = with.stats.relocated_on_failure + with.stats.dropped_on_failure;
        assert!(
            with.stats.relocated_on_failure as f64 >= 0.2 * total_victims as f64,
            "DRM should rescue a meaningful share: {:?}",
            with.stats
        );
    }

    #[test]
    fn failures_reduce_utilization_but_stay_valid() {
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(6.0)
            .warmup_hours(0.5)
            .seed(37)
            .check_invariants(true);
        let healthy = Simulation::run(&base.clone().build());
        let failing = Simulation::run(&base.failures(2.0, 1.0).build());
        assert!(failing.utilization < healthy.utilization);
        assert!(failing.utilization > 0.0 && failing.utilization <= 1.0);
    }

    #[test]
    fn pauses_fire_and_hold_invariants() {
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(6.0)
            .warmup_hours(0.5)
            .staging_fraction(0.2)
            .seed(41)
            .check_invariants(true);
        let calm = Simulation::run(&base.clone().build());
        assert_eq!(calm.pauses_applied, 0);
        let jumpy = Simulation::run(&base.interactivity(0.8, 60.0, 600.0).build());
        assert!(jumpy.pauses_applied > 50, "{}", jumpy.pauses_applied);
        assert!(jumpy.utilization > 0.0 && jumpy.utilization <= 1.0 + 1e-9);
        // Paused slots lengthen effective service: acceptance can only
        // drop relative to the calm run.
        assert!(jumpy.acceptance_ratio() <= calm.acceptance_ratio() + 0.02);
    }

    #[test]
    fn staging_absorbs_pauses() {
        // With generous staging, a paused stream keeps receiving and can
        // finish during the pause, releasing its slot; with no staging the
        // slot is simply wasted for the whole pause.
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(8.0)
            .warmup_hours(0.5)
            .theta(0.5)
            .seed(43)
            .check_invariants(true);
        let unstaged = Simulation::run(
            &base
                .clone()
                .staging_fraction(0.0)
                .interactivity(1.0, 120.0, 600.0)
                .build(),
        );
        let staged = Simulation::run(
            &base
                .staging_fraction(1.0)
                .interactivity(1.0, 120.0, 600.0)
                .build(),
        );
        assert!(
            staged.utilization > unstaged.utilization + 0.02,
            "staged {} vs unstaged {}",
            staged.utilization,
            unstaged.utilization
        );
    }

    #[test]
    fn replication_creates_replicas_under_skew() {
        use sct_admission::ReplicationSpec;
        // Strong skew so the even placement starves and rejections occur.
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(10.0)
            .warmup_hours(0.5)
            .theta(-1.0)
            .seed(53)
            .check_invariants(true);
        let without = Simulation::run(&base.clone().build());
        assert!(without.stats.rejected > 0, "skew must cause rejections");
        assert_eq!(without.replication.replicas_created, 0);
        assert_eq!(without.goodput, without.utilization);

        let with = Simulation::run(
            &base
                .replication(ReplicationSpec {
                    copy_rate_mbps: 15.0,
                    max_concurrent: 2,
                    cooldown_secs: 300.0,
                    source: sct_admission::CopySource::Tertiary,
                })
                .build(),
        );
        assert!(
            with.replication.copies_started > 0,
            "replication never fired"
        );
        assert!(with.replication.replicas_created > 0);
        assert!(
            (with.goodput - with.utilization).abs() < 1e-12,
            "tertiary copies do not consume server bandwidth"
        );
        assert!(with.replication.replication_mb > 0.0);
        assert_eq!(with.replication.cluster_copy_mb, 0.0);
        assert!(
            with.goodput > without.utilization - 0.02,
            "replication should not hurt goodput: {} vs {}",
            with.goodput,
            without.utilization
        );
        // The new replicas should reduce rejections per arrival.
        assert!(
            with.acceptance_ratio() > without.acceptance_ratio(),
            "replication should raise acceptance: {} vs {}",
            with.acceptance_ratio(),
            without.acceptance_ratio()
        );
    }

    #[test]
    fn replication_and_drm_compose() {
        use sct_admission::ReplicationSpec;
        let out = Simulation::run(
            &SimConfig::builder(SystemSpec::tiny_test())
                .duration_hours(8.0)
                .warmup_hours(0.5)
                .theta(-0.5)
                .migration(MigrationPolicy {
                    handoff_latency_secs: 0.0,
                    ..MigrationPolicy::single_hop()
                })
                .replication(ReplicationSpec::default_paper_scale())
                .seed(59)
                .check_invariants(true)
                .build(),
        );
        assert!(out.utilization > 0.0 && out.utilization <= 1.0 + 1e-9);
        out.stats.check();
    }

    #[test]
    fn staging_lifts_every_utilization_quantile() {
        // The paper\'s §3 smoothing mechanism, observed in the time
        // domain: workahead lets servers sprint to full capacity when
        // demand dips below average (max window → 1.0) and the early
        // completions free slots for the above-average periods (the
        // minimum and 10th-percentile windows rise). Note the *relative*
        // variance need not shrink — the whole distribution shifts up.
        let percentiles = |fraction: f64| {
            let cfg = SimConfig::builder(SystemSpec::tiny_test())
                .duration_hours(12.0)
                .warmup_hours(1.0)
                .theta(1.0)
                .staging_fraction(fraction)
                .seed(67)
                .build();
            let mut recorder = crate::TimeSeriesProbe::new(&cfg, 900.0);
            Simulation::run_with_probes(&cfg, &mut [&mut recorder]);
            let windows = recorder.finish().windows;
            // 11 measured hours of 15-minute windows after the warm-up.
            let mut w: Vec<f64> = windows[4..].iter().map(|w| w.utilization).collect();
            assert_eq!(w.len(), 44);
            w.sort_by(f64::total_cmp);
            (w[0], w[w.len() / 10], w[w.len() - 1])
        };
        let (min0, p10_0, max0) = percentiles(0.0);
        let (min1, p10_1, max1) = percentiles(1.0);
        assert!(min1 > min0 + 0.02, "floor must rise: {min1} vs {min0}");
        assert!(p10_1 > p10_0 + 0.02, "p10 must rise: {p10_1} vs {p10_0}");
        assert!(max1 > max0, "bursts must reach higher: {max1} vs {max0}");
        assert!(max1 > 0.99, "staged servers sprint to full capacity");
    }

    #[test]
    fn waitlist_recovers_rejections() {
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(8.0)
            .warmup_hours(0.5)
            .theta(0.0)
            .staging_fraction(0.2)
            .seed(73)
            .check_invariants(true);
        let without = Simulation::run(&base.clone().build());
        assert!(without.stats.rejected > 0, "need rejections to recover");
        let with = Simulation::run(&base.waitlist(300.0, 100).build());
        assert!(with.waitlist.enqueued > 0);
        assert!(with.waitlist.served > 0, "waiters must get served");
        assert!(
            with.acceptance_ratio() > without.acceptance_ratio(),
            "waiting must raise acceptance: {} vs {}",
            with.acceptance_ratio(),
            without.acceptance_ratio()
        );
        assert!(with.waitlist.mean_served_wait_secs() > 0.0);
        assert!(with.waitlist.mean_served_wait_secs() <= 300.0 + 1e-9);
        with.stats.check();
        // Conservation: enqueued waiters either got served, expired,
        // or are still waiting at the horizon.
        assert!(with.waitlist.served + with.waitlist.expired <= with.waitlist.enqueued);
    }

    #[test]
    fn waitlist_patience_bounds_service() {
        // With near-zero patience the waitlist cannot help.
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(6.0)
            .warmup_hours(0.5)
            .theta(0.0)
            .seed(79)
            .check_invariants(true);
        let impatient = Simulation::run(&base.clone().waitlist(0.5, 100).build());
        let patient = Simulation::run(&base.waitlist(600.0, 100).build());
        assert!(
            patient.waitlist.served > impatient.waitlist.served,
            "patience must matter: {} vs {}",
            patient.waitlist.served,
            impatient.waitlist.served
        );
    }

    #[test]
    fn multicast_batching_beats_unicast_waiting() {
        use sct_admission::WaitlistSpec;
        // Strong skew: many concurrent waiters for the same hot videos —
        // exactly where batching pays.
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(8.0)
            .warmup_hours(0.5)
            .theta(-1.0)
            .staging_fraction(0.2)
            .seed(83)
            .check_invariants(true);
        let unicast = Simulation::run(
            &base
                .clone()
                .waitlist_spec(WaitlistSpec::new(600.0, 1000))
                .build(),
        );
        let batched = Simulation::run(
            &base
                .waitlist_spec(WaitlistSpec::batching(600.0, 1000))
                .build(),
        );
        assert!(batched.waitlist.batched > 0, "batching never happened");
        assert!(
            batched.acceptance_ratio() >= unicast.acceptance_ratio(),
            "batching must not serve fewer viewers: {} vs {}",
            batched.acceptance_ratio(),
            unicast.acceptance_ratio()
        );
        // A batch admits a whole cohort the moment one slot frees, so the
        // average time-to-play of queued viewers drops.
        assert!(
            batched.waitlist.mean_served_wait_secs() < unicast.waitlist.mean_served_wait_secs(),
            "batching must shorten waits: {} vs {}",
            batched.waitlist.mean_served_wait_secs(),
            unicast.waitlist.mean_served_wait_secs()
        );
        // Multicast viewers receive more data than the servers transmit.
        assert!(batched.stats.accepted_mb > unicast.stats.accepted_mb);
        batched.stats.check();
    }

    #[test]
    fn diurnal_swings_hurt_but_staging_absorbs_some() {
        let base = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(12.0)
            .warmup_hours(0.5)
            .theta(0.5)
            .seed(91)
            .check_invariants(true);
        // 3-hour "days" so several cycles fit in the run.
        let flat = Simulation::run(&base.clone().staging_fraction(0.0).build());
        let swing_raw =
            Simulation::run(&base.clone().staging_fraction(0.0).diurnal(1.0, 3.0).build());
        let swing_staged = Simulation::run(&base.staging_fraction(1.0).diurnal(1.0, 3.0).build());
        assert!(
            swing_raw.utilization < flat.utilization - 0.02,
            "full swings must hurt the naive system: {} vs {}",
            swing_raw.utilization,
            flat.utilization
        );
        assert!(
            swing_staged.utilization > swing_raw.utilization + 0.02,
            "staging must absorb part of the swing: {} vs {}",
            swing_staged.utilization,
            swing_raw.utilization
        );
    }

    #[test]
    fn zero_staging_no_migration_still_serves() {
        let cfg = SimConfig::builder(SystemSpec::tiny_test())
            .staging_fraction(0.0)
            .duration_hours(3.0)
            .seed(17)
            .build();
        let out = Simulation::run(&cfg);
        assert!(out.utilization > 0.3, "{}", out.utilization);
        assert_eq!(out.stats.accepted_via_migration, 0);
    }
}
