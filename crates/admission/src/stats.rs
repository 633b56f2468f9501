//! Admission accounting.

use serde::{Deserialize, Serialize};

/// Counters maintained by the [`crate::Controller`] over one trial.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdmissionStats {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests placed directly on a holder with a free slot.
    pub accepted_direct: u64,
    /// Requests placed after one dynamic request migration (includes the
    /// chain-2 admissions below).
    pub accepted_via_migration: u64,
    /// The subset of `accepted_via_migration` that needed a two-step
    /// chain (extension; 0 at the paper's chain length 1).
    pub chain2_migrations: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Megabits of video requested (accepted or not).
    pub requested_mb: f64,
    /// Megabits of video accepted for service.
    pub accepted_mb: f64,
    /// Streams moved to another replica holder when their server failed
    /// (fault-tolerance extension; 0 without failures).
    pub relocated_on_failure: u64,
    /// Streams restarted from the playback point on another holder when a
    /// seamless hand-off was infeasible (best-effort evacuation policy;
    /// 0 under the strict policy).
    pub restarted_on_failure: u64,
    /// Streams lost because no replica holder could absorb them when their
    /// server failed.
    pub dropped_on_failure: u64,
}

impl AdmissionStats {
    /// All accepted requests.
    pub fn accepted(&self) -> u64 {
        self.accepted_direct + self.accepted_via_migration
    }

    /// Fraction of arrivals accepted (1.0 when no arrivals).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.accepted() as f64 / self.arrivals as f64
        }
    }

    /// Fraction of arrivals rejected.
    pub fn rejection_ratio(&self) -> f64 {
        1.0 - self.acceptance_ratio()
    }

    /// Fraction of requested megabits that were accepted — the
    /// data-weighted acceptance ratio, which (over a long run) converges
    /// to the bandwidth utilization under 100 % offered load.
    pub fn accepted_data_ratio(&self) -> f64 {
        if self.requested_mb <= 0.0 {
            1.0
        } else {
            self.accepted_mb / self.requested_mb
        }
    }

    /// Merges counters from another trial segment.
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.arrivals += other.arrivals;
        self.accepted_direct += other.accepted_direct;
        self.accepted_via_migration += other.accepted_via_migration;
        self.chain2_migrations += other.chain2_migrations;
        self.rejected += other.rejected;
        self.requested_mb += other.requested_mb;
        self.accepted_mb += other.accepted_mb;
        self.relocated_on_failure += other.relocated_on_failure;
        self.restarted_on_failure += other.restarted_on_failure;
        self.dropped_on_failure += other.dropped_on_failure;
    }

    /// Internal consistency check (counts add up).
    pub fn check(&self) {
        assert_eq!(
            self.arrivals,
            self.accepted() + self.rejected,
            "admission counters do not add up"
        );
        assert!(self.accepted_mb <= self.requested_mb + 1e-6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AdmissionStats {
        AdmissionStats {
            arrivals: 10,
            accepted_direct: 6,
            accepted_via_migration: 2,
            rejected: 2,
            requested_mb: 1000.0,
            accepted_mb: 800.0,
            ..Default::default()
        }
    }

    #[test]
    fn ratios() {
        let s = sample();
        s.check();
        assert_eq!(s.accepted(), 8);
        assert!((s.acceptance_ratio() - 0.8).abs() < 1e-12);
        assert!((s.rejection_ratio() - 0.2).abs() < 1e-12);
        assert!((s.accepted_data_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = AdmissionStats::default();
        s.check();
        assert_eq!(s.acceptance_ratio(), 1.0);
        assert_eq!(s.accepted_data_ratio(), 1.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = sample();
        a.merge(&sample());
        a.check();
        assert_eq!(a.arrivals, 20);
        assert_eq!(a.accepted(), 16);
        assert_eq!(a.requested_mb, 2000.0);
    }
}
