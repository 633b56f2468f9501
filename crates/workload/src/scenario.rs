//! The paper's system specifications (Fig. 3) and heterogeneous variants.
//!
//! Parts of the printed Fig. 3 table lost leading digits in the available
//! text; the reconstruction below follows the constraints the paper itself
//! states (see DESIGN.md): both systems carry ~2.2 copies per video of a
//! 100-video catalog, the Small system's copies concentrate on 5 servers
//! while the Large system's spread over 20, and disks are ample enough
//! that placement is bandwidth-bound, not storage-bound.

use sct_cluster::ClusterSpec;
use sct_media::{client::PAPER_RECEIVE_CAP_MBPS, video::PAPER_VIEW_RATE_MBPS, Catalog};
use sct_simcore::Rng;
use serde::{Deserialize, Serialize};

/// Which server resource a heterogeneity experiment perturbs (§4.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeterogeneityKind {
    /// Per-server bandwidth varies; total bandwidth fixed.
    Bandwidth,
    /// Per-server disk varies; total disk fixed.
    Storage,
}

/// A complete static description of one experimental system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Human-readable name ("small", "large", …).
    pub name: String,
    /// Number of data servers.
    pub n_servers: usize,
    /// Per-server outbound bandwidth, Mb/s.
    pub server_bandwidth_mbps: f64,
    /// Per-server disk, decimal GB.
    pub server_disk_gb: f64,
    /// Catalog size.
    pub n_videos: usize,
    /// Video length range, seconds (uniform).
    pub video_length_secs: (f64, f64),
    /// View bandwidth `b_view`, Mb/s.
    pub view_rate_mbps: f64,
    /// Client receive cap, Mb/s.
    pub client_receive_cap_mbps: f64,
    /// Average replicas per video for the placement budget.
    pub avg_copies: f64,
}

impl SystemSpec {
    /// The paper's **Small** system (Fig. 3): 5 servers × 100 Mb/s,
    /// 10–30 minute clips.
    pub fn small_paper() -> Self {
        SystemSpec {
            name: "small".into(),
            n_servers: 5,
            server_bandwidth_mbps: 100.0,
            server_disk_gb: 100.0,
            n_videos: 100,
            video_length_secs: (10.0 * 60.0, 30.0 * 60.0),
            view_rate_mbps: PAPER_VIEW_RATE_MBPS,
            client_receive_cap_mbps: PAPER_RECEIVE_CAP_MBPS,
            avg_copies: 2.2,
        }
    }

    /// The paper's **Large** system (Fig. 3): 20 servers × 300 Mb/s,
    /// 1–2 hour feature films.
    pub fn large_paper() -> Self {
        SystemSpec {
            name: "large".into(),
            n_servers: 20,
            server_bandwidth_mbps: 300.0,
            server_disk_gb: 50.0,
            n_videos: 100,
            video_length_secs: (3600.0, 7200.0),
            view_rate_mbps: PAPER_VIEW_RATE_MBPS,
            client_receive_cap_mbps: PAPER_RECEIVE_CAP_MBPS,
            avg_copies: 2.2,
        }
    }

    /// A scaled-down system for fast tests and examples: 3 servers,
    /// short clips, small catalog. Not a paper configuration.
    pub fn tiny_test() -> Self {
        SystemSpec {
            name: "tiny".into(),
            n_servers: 3,
            server_bandwidth_mbps: 30.0,
            server_disk_gb: 10.0,
            n_videos: 20,
            video_length_secs: (60.0, 180.0),
            view_rate_mbps: PAPER_VIEW_RATE_MBPS,
            client_receive_cap_mbps: PAPER_RECEIVE_CAP_MBPS,
            avg_copies: 2.2,
        }
    }

    /// A million-viewer stress system for the event loop: 256
    /// servers × 12 Gb/s gives 1 024 000 concurrent view slots at the
    /// paper's 3 Mb/s view rate — three orders of magnitude past the
    /// Large system, far beyond any cluster the paper measures. Short
    /// 10–20 minute clips keep stream turnover (and thus event rate)
    /// high, and the 1000-video catalog keeps per-video demand realistic
    /// at this scale. Not a paper configuration.
    pub fn huge() -> Self {
        SystemSpec {
            name: "huge".into(),
            n_servers: 256,
            server_bandwidth_mbps: 12_000.0,
            server_disk_gb: 100.0,
            n_videos: 1000,
            video_length_secs: (10.0 * 60.0, 20.0 * 60.0),
            view_rate_mbps: PAPER_VIEW_RATE_MBPS,
            client_receive_cap_mbps: PAPER_RECEIVE_CAP_MBPS,
            avg_copies: 2.2,
        }
    }

    /// A heterogeneity-study variant (§4.6): `n` servers sharing the same
    /// *total* bandwidth and storage as `n × (bw, disk)` of this spec.
    pub fn with_servers(&self, n: usize) -> SystemSpec {
        assert!(n > 0);
        let total_bw = self.server_bandwidth_mbps * self.n_servers as f64;
        let total_disk = self.server_disk_gb * self.n_servers as f64;
        SystemSpec {
            name: format!("{}-{}srv", self.name, n),
            n_servers: n,
            server_bandwidth_mbps: total_bw / n as f64,
            server_disk_gb: total_disk / n as f64,
            ..self.clone()
        }
    }

    /// Builds the homogeneous cluster.
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::homogeneous(
            self.n_servers,
            self.server_bandwidth_mbps,
            self.server_disk_gb,
        )
    }

    /// Builds a heterogeneous cluster with the given kind and spread,
    /// preserving this spec's totals.
    pub fn heterogeneous_cluster(
        &self,
        kind: HeterogeneityKind,
        spread: f64,
        rng: &mut Rng,
    ) -> ClusterSpec {
        match kind {
            HeterogeneityKind::Bandwidth => ClusterSpec::bandwidth_heterogeneous(
                self.n_servers,
                self.server_bandwidth_mbps,
                self.server_disk_gb,
                spread,
                rng,
            ),
            HeterogeneityKind::Storage => ClusterSpec::storage_heterogeneous(
                self.n_servers,
                self.server_bandwidth_mbps,
                self.server_disk_gb,
                spread,
                rng,
            ),
        }
    }

    /// Draws the catalog (uniform lengths).
    pub fn catalog(&self, rng: &mut Rng) -> Catalog {
        Catalog::uniform_lengths(
            self.n_videos,
            self.video_length_secs.0,
            self.video_length_secs.1,
            self.view_rate_mbps,
            rng,
        )
    }

    /// Aggregate cluster bandwidth.
    pub fn total_bandwidth_mbps(&self) -> f64 {
        self.server_bandwidth_mbps * self.n_servers as f64
    }

    /// Per-server stream slots (the SVBR).
    pub fn svbr(&self) -> usize {
        (self.server_bandwidth_mbps / self.view_rate_mbps).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_systems_match_fig3() {
        let s = SystemSpec::small_paper();
        assert_eq!(s.n_servers, 5);
        assert_eq!(s.server_bandwidth_mbps, 100.0);
        assert_eq!(s.svbr(), 33);
        assert_eq!(s.video_length_secs, (600.0, 1800.0));

        let l = SystemSpec::large_paper();
        assert_eq!(l.n_servers, 20);
        assert_eq!(l.server_bandwidth_mbps, 300.0);
        assert_eq!(l.svbr(), 100);
        assert_eq!(l.video_length_secs, (3600.0, 7200.0));
        assert_eq!(l.total_bandwidth_mbps(), 6000.0);
    }

    #[test]
    fn small_system_disks_hold_the_placement() {
        // 100 clips ≤ 30 min × 2.2 copies ≈ ≤ 1.2 TB total; 5 × 100 GB
        // disks hold an even share comfortably.
        let s = SystemSpec::small_paper();
        let mut rng = Rng::new(1);
        let catalog = s.catalog(&mut rng);
        let per_server_load = catalog.total_size_mb() * s.avg_copies / s.n_servers as f64;
        let disk = s
            .cluster()
            .server(sct_cluster::ServerId(0))
            .disk_capacity_mb;
        assert!(
            per_server_load < disk * 0.5,
            "placement should be bandwidth-bound: {per_server_load} vs {disk}"
        );
    }

    #[test]
    fn large_system_disks_hold_the_placement() {
        let l = SystemSpec::large_paper();
        let mut rng = Rng::new(2);
        let catalog = l.catalog(&mut rng);
        let per_server_load = catalog.total_size_mb() * l.avg_copies / l.n_servers as f64;
        let disk = l
            .cluster()
            .server(sct_cluster::ServerId(0))
            .disk_capacity_mb;
        assert!(per_server_load < disk, "{per_server_load} vs {disk}");
    }

    #[test]
    fn with_servers_preserves_totals() {
        let base = SystemSpec::large_paper();
        for n in [5, 10, 20] {
            let v = base.with_servers(n);
            assert_eq!(v.n_servers, n);
            assert!((v.total_bandwidth_mbps() - base.total_bandwidth_mbps()).abs() < 1e-9);
            assert!(
                (v.server_disk_gb * n as f64 - base.server_disk_gb * base.n_servers as f64).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn heterogeneous_clusters_preserve_totals() {
        let spec = SystemSpec::small_paper();
        let mut rng = Rng::new(3);
        let bw = spec.heterogeneous_cluster(HeterogeneityKind::Bandwidth, 0.5, &mut rng);
        assert!((bw.total_bandwidth_mbps() - spec.total_bandwidth_mbps()).abs() < 1e-6);
        let st = spec.heterogeneous_cluster(HeterogeneityKind::Storage, 0.5, &mut rng);
        assert!((st.total_disk_mb() - spec.cluster().total_disk_mb()).abs() < 1e-3);
    }

    #[test]
    fn huge_spec_reaches_a_million_slots() {
        let h = SystemSpec::huge();
        assert_eq!(h.svbr(), 4000);
        assert_eq!(h.n_servers * h.svbr(), 1_024_000);
        // Disks must still hold the placement (bandwidth-bound).
        let mut rng = Rng::new(5);
        let catalog = h.catalog(&mut rng);
        let per_server_load = catalog.total_size_mb() * h.avg_copies / h.n_servers as f64;
        let disk = h
            .cluster()
            .server(sct_cluster::ServerId(0))
            .disk_capacity_mb;
        assert!(
            per_server_load < disk * 0.5,
            "placement should be bandwidth-bound: {per_server_load} vs {disk}"
        );
    }

    #[test]
    fn tiny_spec_is_consistent() {
        let t = SystemSpec::tiny_test();
        assert!(t.svbr() >= 10);
        let mut rng = Rng::new(4);
        let c = t.catalog(&mut rng);
        assert_eq!(c.len(), 20);
    }
}
