//! Dynamic replication (extension).
//!
//! §3.1 contrasts DRM with the heavier alternative: "more resource
//! intensive solutions perform dynamic replication of the requested object
//! on another server where resources can be made available". This module
//! implements that alternative so the two can be compared head-to-head
//! (and composed).
//!
//! Mechanics: when a request is rejected, the [`ReplicationManager`] may
//! start copying the video from a holder to a server that has disk space.
//! The copy is a real [`Stream`] (kind [`sct_transmission::StreamKind::
//! ReplicaCopy`]) admitted into the source engine at a fixed copy rate —
//! it occupies genuine slots and genuine bandwidth, which is exactly the
//! cost the paper alludes to. When the copy stream finishes, the replica
//! map gains the new holder and future requests can land there.

use crate::policy::AssignmentPolicy;
use sct_cluster::{ClusterSpec, ReplicaMap, ServerId};
use sct_media::VideoId;
use sct_simcore::SimTime;
use sct_transmission::{ServerEngine, Stream, StreamId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where replica copies stream from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CopySource {
    /// From the cluster's tertiary storage (§2: "the video server cluster
    /// includes tertiary storage"). Costs no data-server bandwidth; the
    /// tertiary drive's bandwidth is modelled by `max_concurrent ×
    /// copy_rate`. Always available — the right choice at 100 % offered
    /// load, where replica holders are saturated by definition.
    Tertiary,
    /// From a replica-holding data server, as a real minimum-flow stream:
    /// consumes genuine slots and bandwidth on the source. Only fires when
    /// some holder has spare capacity, so at full load it rarely can —
    /// which is itself an instructive data point.
    Cluster,
}

/// Dynamic replication knobs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicationSpec {
    /// Bandwidth of one copy transfer, Mb/s.
    pub copy_rate_mbps: f64,
    /// Maximum copies in flight cluster-wide.
    pub max_concurrent: usize,
    /// Per-video cooldown: after a copy of a video starts, no further copy
    /// of the *same* video may start for this many seconds (prevents
    /// replication storms while demand spikes).
    pub cooldown_secs: f64,
    /// Copy source model.
    pub source: CopySource,
}

impl ReplicationSpec {
    /// A sensible default: tertiary-sourced copies at 10× the 3 Mb/s view
    /// rate, at most two in flight, ten-minute per-video cooldown.
    pub fn default_paper_scale() -> Self {
        ReplicationSpec {
            copy_rate_mbps: 30.0,
            max_concurrent: 2,
            cooldown_secs: 600.0,
            source: CopySource::Tertiary,
        }
    }

    /// The cluster-sourced variant of [`default_paper_scale`]
    /// (bandwidth-consuming copies).
    ///
    /// [`default_paper_scale`]: ReplicationSpec::default_paper_scale
    pub fn cluster_sourced() -> Self {
        ReplicationSpec {
            source: CopySource::Cluster,
            ..Self::default_paper_scale()
        }
    }
}

/// How a copy was launched; tells the simulation what to schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CopyLaunch {
    /// A copy stream was admitted into `source`'s engine; completion
    /// arrives via the engine's reap path.
    FromServer {
        /// The data server transmitting the copy.
        source: ServerId,
        /// The copy stream's id (matches the eventual reaped stream).
        stream: StreamId,
    },
    /// A tertiary-storage copy; the simulation must schedule completion
    /// (`token`) after `done_in_secs`.
    FromTertiary {
        /// Identifier to hand back to
        /// [`ReplicationManager::on_copy_finished`].
        token: StreamId,
        /// Transfer time (size ÷ copy rate).
        done_in_secs: f64,
    },
}

/// A copy in flight.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PendingCopy {
    /// The copy stream's id (lives on `source`).
    pub stream: StreamId,
    /// Video being replicated.
    pub video: VideoId,
    /// Server transmitting the copy (`None` for tertiary-sourced copies).
    pub source: Option<ServerId>,
    /// Server that will hold the new replica.
    pub target: ServerId,
    /// Object size (charged to the target's disk on completion).
    pub size_mb: f64,
}

/// Counters for replication activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplicationStats {
    /// Copies started.
    pub copies_started: u64,
    /// Copies that completed and produced a replica.
    pub replicas_created: u64,
    /// Copies aborted by a source-server failure.
    pub copies_aborted: u64,
    /// Megabits of replication traffic transmitted (completed copies,
    /// both sources).
    pub replication_mb: f64,
    /// The subset of `replication_mb` that consumed *data-server*
    /// bandwidth (cluster-sourced copies); tertiary copies ride the
    /// tertiary drive instead.
    pub cluster_copy_mb: f64,
}

/// Orchestrates dynamic replication. Owned by the simulation next to the
/// admission [`crate::Controller`].
#[derive(Clone, Debug)]
pub struct ReplicationManager {
    spec: ReplicationSpec,
    pending: Vec<PendingCopy>,
    /// Earliest time another copy of each video may start.
    cooldown_until: HashMap<VideoId, SimTime>,
    /// Stats for the trial.
    pub stats: ReplicationStats,
}

impl ReplicationManager {
    /// Creates a manager with the given knobs.
    pub fn new(spec: ReplicationSpec) -> Self {
        assert!(spec.copy_rate_mbps > 0.0);
        assert!(spec.max_concurrent > 0);
        assert!(spec.cooldown_secs >= 0.0);
        ReplicationManager {
            spec,
            pending: Vec::new(),
            cooldown_until: HashMap::new(),
            stats: ReplicationStats::default(),
        }
    }

    /// Copies currently in flight.
    pub fn in_flight(&self) -> &[PendingCopy] {
        &self.pending
    }

    /// Reacts to a rejected request for `video`: possibly starts one
    /// replica copy. Returns how the copy was launched, or `None` if no
    /// copy started.
    ///
    /// Target: the least-loaded online non-holder with disk space. For
    /// cluster-sourced copies the source is the least-loaded holder with a
    /// spare slot for the copy stream. Gated by the concurrency cap, the
    /// per-video cooldown, and a no-duplicate rule (one copy of a video at
    /// a time).
    #[allow(clippy::too_many_arguments)]
    pub fn maybe_replicate(
        &mut self,
        video: VideoId,
        size_mb: f64,
        next_stream_id: &mut u64,
        engines: &mut [ServerEngine],
        map: &ReplicaMap,
        cluster: &ClusterSpec,
        now: SimTime,
    ) -> Option<CopyLaunch> {
        if self.pending.len() >= self.spec.max_concurrent {
            return None;
        }
        if self.pending.iter().any(|p| p.video == video) {
            return None;
        }
        if let Some(&until) = self.cooldown_until.get(&video) {
            if now < until {
                return None;
            }
        }
        // Target: an online non-holder with disk space, least loaded so the
        // new replica is immediately useful.
        let target = cluster
            .ids()
            .filter(|&t| {
                !map.holds(t, video)
                    && engines[t.index()].is_online()
                    && map.free_disk_mb(t, cluster.server(t).disk_capacity_mb) >= size_mb
            })
            .min_by_key(|&t| (engines[t.index()].active_count(), t))?;

        let launch = match self.spec.source {
            CopySource::Cluster => {
                // Source: a holder able to carve out the copy rate.
                let source = map
                    .holders(video)
                    .iter()
                    .copied()
                    .filter(|&s| engines[s.index()].can_admit(self.spec.copy_rate_mbps))
                    .min_by_key(|s| (engines[s.index()].active_count(), *s))?;
                let id = StreamId(*next_stream_id);
                *next_stream_id += 1;
                let copy = Stream::replica_copy(id, video, size_mb, self.spec.copy_rate_mbps, now);
                engines[source.index()].admit(copy, now);
                self.pending.push(PendingCopy {
                    stream: id,
                    video,
                    source: Some(source),
                    target,
                    size_mb,
                });
                CopyLaunch::FromServer { source, stream: id }
            }
            CopySource::Tertiary => {
                let id = StreamId(*next_stream_id);
                *next_stream_id += 1;
                self.pending.push(PendingCopy {
                    stream: id,
                    video,
                    source: None,
                    target,
                    size_mb,
                });
                CopyLaunch::FromTertiary {
                    token: id,
                    done_in_secs: size_mb / self.spec.copy_rate_mbps,
                }
            }
        };
        self.cooldown_until
            .insert(video, now + self.spec.cooldown_secs);
        self.stats.copies_started += 1;
        Some(launch)
    }

    /// Handles a finished copy stream: registers the new replica. Returns
    /// the completed record, or `None` if `stream` was not a known copy.
    pub fn on_copy_finished(
        &mut self,
        stream: StreamId,
        map: &mut ReplicaMap,
    ) -> Option<PendingCopy> {
        let idx = self.pending.iter().position(|p| p.stream == stream)?;
        let copy = self.pending.swap_remove(idx);
        map.add_replica(copy.video, copy.target, copy.size_mb);
        self.stats.replicas_created += 1;
        self.stats.replication_mb += copy.size_mb;
        if copy.source.is_some() {
            self.stats.cluster_copy_mb += copy.size_mb;
        }
        Some(copy)
    }

    /// Aborts copies whose source or target just failed. Returns how many
    /// were cancelled. (Tertiary-sourced copies only die with their
    /// target.)
    pub fn on_server_failed(&mut self, server: ServerId) -> usize {
        let before = self.pending.len();
        self.pending
            .retain(|p| p.source != Some(server) && p.target != server);
        let aborted = before - self.pending.len();
        self.stats.copies_aborted += aborted as u64;
        aborted
    }

    /// The assignment policy has no influence here; kept as an explicit
    /// reminder that replication targets are chosen least-loaded regardless
    /// of the request-assignment ablation in use.
    pub fn target_policy() -> AssignmentPolicy {
        AssignmentPolicy::LeastLoaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_cluster::PlacementStrategy;
    use sct_media::Catalog;
    use sct_simcore::Rng;
    use sct_transmission::SchedulerKind;

    fn setup() -> (Catalog, ClusterSpec, ReplicaMap, Vec<ServerEngine>) {
        let mut rng = Rng::new(9);
        let catalog = Catalog::uniform_lengths(10, 600.0, 601.0, 3.0, &mut rng);
        let cluster = ClusterSpec::homogeneous(3, 90.0, 100.0);
        let map = PlacementStrategy::Even { avg_copies: 1.0 }
            .place(&catalog, &cluster, &[0.1; 10], &mut rng);
        let engines = cluster
            .ids()
            .map(|id| ServerEngine::new(id, 90.0, SchedulerKind::Eftf))
            .collect();
        (catalog, cluster, map, engines)
    }

    #[test]
    fn cluster_sourced_copy_starts_and_completes() {
        let (catalog, cluster, mut map, mut engines) = setup();
        let mut mgr = ReplicationManager::new(ReplicationSpec {
            copy_rate_mbps: 30.0,
            max_concurrent: 2,
            cooldown_secs: 60.0,
            source: CopySource::Cluster,
        });
        let video = VideoId(0);
        let size = catalog.video(video).size_mb();
        let before = map.copies_of(video);
        let mut next_id = 1000;
        let now = SimTime::ZERO;
        let launch = mgr
            .maybe_replicate(video, size, &mut next_id, &mut engines, &map, &cluster, now)
            .expect("copy should start");
        let CopyLaunch::FromServer { source, stream } = launch else {
            panic!("expected a cluster-sourced copy");
        };
        assert_eq!(stream, StreamId(1000));
        assert_eq!(mgr.in_flight().len(), 1);
        assert_eq!(next_id, 1001);
        let e = &mut engines[source.index()];
        assert_eq!(e.active_count(), 1);
        assert!(e.streams()[0].is_copy());
        // Drive the copy to completion: 1800.x Mb at 30 Mb/s ≈ 60 s.
        let done_at = e.next_event_after(now).unwrap();
        assert!((done_at.as_secs() - size / 30.0).abs() < 1e-9);
        e.advance_to(done_at);
        let finished = e.reap_finished(done_at);
        assert_eq!(finished.len(), 1);
        let rec = mgr.on_copy_finished(finished[0].id, &mut map).unwrap();
        assert_eq!(rec.video, video);
        assert_eq!(map.copies_of(video), before + 1);
        assert!(map.holds(rec.target, video));
        assert_eq!(mgr.stats.replicas_created, 1);
        assert!((mgr.stats.replication_mb - size).abs() < 1e-9);
        assert!(mgr.in_flight().is_empty());
    }

    #[test]
    fn tertiary_copy_needs_no_source_capacity() {
        let (catalog, cluster, mut map, mut engines) = setup();
        // Saturate every server so no cluster source could possibly fit.
        let now = SimTime::ZERO;
        for e in engines.iter_mut() {
            let mut sid = 500 + e.id().0 as u64 * 100;
            while e.can_admit(3.0) {
                e.admit(
                    Stream::new(
                        StreamId(sid),
                        VideoId(9),
                        9000.0,
                        3.0,
                        sct_media::ClientProfile::new(0.0, 30.0),
                        now,
                    ),
                    now,
                );
                sid += 1;
            }
        }
        let mut mgr = ReplicationManager::new(ReplicationSpec::default_paper_scale());
        let video = VideoId(0);
        let size = catalog.video(video).size_mb();
        let mut next_id = 0;
        let launch = mgr
            .maybe_replicate(video, size, &mut next_id, &mut engines, &map, &cluster, now)
            .expect("tertiary copies start even under saturation");
        let CopyLaunch::FromTertiary {
            token,
            done_in_secs,
        } = launch
        else {
            panic!("expected a tertiary copy");
        };
        assert!((done_in_secs - size / 30.0).abs() < 1e-9);
        let rec = mgr.on_copy_finished(token, &mut map).unwrap();
        assert!(map.holds(rec.target, video));
        assert_eq!(mgr.stats.replicas_created, 1);
    }

    #[test]
    fn cooldown_and_duplicate_guards() {
        let (catalog, cluster, map, mut engines) = setup();
        let mut mgr = ReplicationManager::new(ReplicationSpec {
            copy_rate_mbps: 30.0,
            max_concurrent: 4,
            cooldown_secs: 600.0,
            source: CopySource::Tertiary,
        });
        let video = VideoId(1);
        let size = catalog.video(video).size_mb();
        let mut next_id = 0;
        let now = SimTime::ZERO;
        assert!(mgr
            .maybe_replicate(video, size, &mut next_id, &mut engines, &map, &cluster, now)
            .is_some());
        // Duplicate (in flight) blocked.
        assert!(mgr
            .maybe_replicate(video, size, &mut next_id, &mut engines, &map, &cluster, now)
            .is_none());
        // A different video is fine.
        assert!(mgr
            .maybe_replicate(
                VideoId(2),
                size,
                &mut next_id,
                &mut engines,
                &map,
                &cluster,
                now
            )
            .is_some());
        assert_eq!(mgr.stats.copies_started, 2);
    }

    #[test]
    fn concurrency_cap_enforced() {
        let (catalog, cluster, map, mut engines) = setup();
        let mut mgr = ReplicationManager::new(ReplicationSpec {
            copy_rate_mbps: 30.0,
            max_concurrent: 1,
            cooldown_secs: 0.0,
            source: CopySource::Tertiary,
        });
        let size = catalog.video(VideoId(0)).size_mb();
        let mut next_id = 0;
        let now = SimTime::ZERO;
        assert!(mgr
            .maybe_replicate(
                VideoId(0),
                size,
                &mut next_id,
                &mut engines,
                &map,
                &cluster,
                now
            )
            .is_some());
        assert!(mgr
            .maybe_replicate(
                VideoId(1),
                size,
                &mut next_id,
                &mut engines,
                &map,
                &cluster,
                now
            )
            .is_none());
    }

    #[test]
    fn aborts_on_source_failure() {
        let (catalog, cluster, map, mut engines) = setup();
        let mut mgr = ReplicationManager::new(ReplicationSpec::cluster_sourced());
        let video = VideoId(3);
        let size = catalog.video(video).size_mb();
        let mut next_id = 0;
        let launch = mgr
            .maybe_replicate(
                video,
                size,
                &mut next_id,
                &mut engines,
                &map,
                &cluster,
                SimTime::ZERO,
            )
            .unwrap();
        let CopyLaunch::FromServer { source, .. } = launch else {
            panic!("expected cluster-sourced copy");
        };
        assert_eq!(mgr.on_server_failed(source), 1);
        assert_eq!(mgr.stats.copies_aborted, 1);
        assert!(mgr.in_flight().is_empty());
    }

    #[test]
    fn tertiary_copy_survives_unrelated_failure_but_dies_with_target() {
        let (catalog, cluster, map, mut engines) = setup();
        let mut mgr = ReplicationManager::new(ReplicationSpec::default_paper_scale());
        let video = VideoId(4);
        let size = catalog.video(video).size_mb();
        let mut next_id = 0;
        let launch = mgr
            .maybe_replicate(
                video,
                size,
                &mut next_id,
                &mut engines,
                &map,
                &cluster,
                SimTime::ZERO,
            )
            .unwrap();
        let CopyLaunch::FromTertiary { .. } = launch else {
            panic!("expected tertiary copy");
        };
        let target = mgr.in_flight()[0].target;
        // Failing a server that holds the source replica does nothing.
        let holder = map.holders(video)[0];
        if holder != target {
            assert_eq!(mgr.on_server_failed(holder), 0);
        }
        assert_eq!(mgr.on_server_failed(target), 1);
        assert!(mgr.in_flight().is_empty());
    }

    #[test]
    fn no_target_without_disk() {
        let (catalog, _, map, mut engines) = setup();
        // A cluster whose disks are already effectively full.
        let tiny_disks = ClusterSpec::homogeneous(3, 90.0, 0.0001);
        let mut mgr = ReplicationManager::new(ReplicationSpec::default_paper_scale());
        let size = catalog.video(VideoId(0)).size_mb();
        let mut next_id = 0;
        assert!(mgr
            .maybe_replicate(
                VideoId(0),
                size,
                &mut next_id,
                &mut engines,
                &map,
                &tiny_disks,
                SimTime::ZERO
            )
            .is_none());
    }
}
