//! The paper's policy table (Fig. 6).
//!
//! Eight policies crossing placement knowledge (even vs perfectly
//! predictive) with dynamic request migration (off/on) and client staging
//! (0 % vs 20 % of the average video size). Fig. 7 compares all eight over
//! the Zipf θ axis; the headline result is that **P4 ≈ P8** for θ ∈ [0, 1]
//! — the popularity-oblivious placement matches perfect prediction once
//! migration and staging are on.
//!
//! Following the paper's idealised simulation, the policy-table migration
//! hand-off is instantaneous (latency 0): P3/P7 migrate even with 0 %
//! staging. A non-zero hand-off latency — our more realistic extension —
//! is exercised by the admission tests and `tests/pipeline_invariants.rs`.

use sct_admission::MigrationPolicy;
use sct_cluster::PlacementStrategy;
use serde::{Deserialize, Serialize};

/// One row of the paper's Fig. 6 policy table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Policy {
    P1,
    P2,
    P3,
    P4,
    P5,
    P6,
    P7,
    P8,
}

impl Policy {
    /// All eight policies in table order.
    pub const ALL: [Policy; 8] = [
        Policy::P1,
        Policy::P2,
        Policy::P3,
        Policy::P4,
        Policy::P5,
        Policy::P6,
        Policy::P7,
        Policy::P8,
    ];

    /// The table name ("P1" … "P8").
    pub fn name(&self) -> &'static str {
        match self {
            Policy::P1 => "P1",
            Policy::P2 => "P2",
            Policy::P3 => "P3",
            Policy::P4 => "P4",
            Policy::P5 => "P5",
            Policy::P6 => "P6",
            Policy::P7 => "P7",
            Policy::P8 => "P8",
        }
    }

    /// `true` for the predictive-placement half of the table (P5–P8).
    pub fn is_predictive(&self) -> bool {
        matches!(self, Policy::P5 | Policy::P6 | Policy::P7 | Policy::P8)
    }

    /// `true` for the migration-enabled rows (P3, P4, P7, P8).
    pub fn migrates(&self) -> bool {
        matches!(self, Policy::P3 | Policy::P4 | Policy::P7 | Policy::P8)
    }

    /// Client staging as a fraction of the average video size
    /// (0 % or 20 %).
    pub fn staging_fraction(&self) -> f64 {
        match self {
            Policy::P2 | Policy::P4 | Policy::P6 | Policy::P8 => 0.2,
            _ => 0.0,
        }
    }

    /// The placement strategy of this row.
    pub fn placement(&self) -> PlacementStrategy {
        if self.is_predictive() {
            PlacementStrategy::predictive_paper()
        } else {
            PlacementStrategy::even_paper()
        }
    }

    /// The migration policy of this row (single hop per request, as in the
    /// paper's experiments; instantaneous hand-off).
    pub fn migration(&self) -> MigrationPolicy {
        if self.migrates() {
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::single_hop()
            }
        } else {
            MigrationPolicy::disabled()
        }
    }

    /// Human-readable description matching the Fig. 6 row.
    pub fn description(&self) -> String {
        format!(
            "{} | {} | {} | {:.0}% buffer",
            self.name(),
            if self.is_predictive() {
                "Predictive"
            } else {
                "Even"
            },
            if self.migrates() { "Migr" } else { "No Migr" },
            self.staging_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_fig6() {
        // (policy, predictive?, migrates?, staging)
        let expect = [
            (Policy::P1, false, false, 0.0),
            (Policy::P2, false, false, 0.2),
            (Policy::P3, false, true, 0.0),
            (Policy::P4, false, true, 0.2),
            (Policy::P5, true, false, 0.0),
            (Policy::P6, true, false, 0.2),
            (Policy::P7, true, true, 0.0),
            (Policy::P8, true, true, 0.2),
        ];
        for (p, pred, migr, staging) in expect {
            assert_eq!(p.is_predictive(), pred, "{p:?}");
            assert_eq!(p.migrates(), migr, "{p:?}");
            assert_eq!(p.staging_fraction(), staging, "{p:?}");
            assert_eq!(p.migration().enabled, migr);
        }
    }

    #[test]
    fn all_lists_eight_in_order() {
        assert_eq!(Policy::ALL.len(), 8);
        assert_eq!(Policy::ALL[0].name(), "P1");
        assert_eq!(Policy::ALL[7].name(), "P8");
    }

    #[test]
    fn policy_migration_is_single_hop_and_instant() {
        let m = Policy::P4.migration();
        assert!(m.enabled);
        assert_eq!(m.max_hops_per_request, Some(1));
        assert_eq!(m.handoff_latency_secs, 0.0);
    }

    #[test]
    fn descriptions_render() {
        assert_eq!(Policy::P4.description(), "P4 | Even | Migr | 20% buffer");
        assert_eq!(
            Policy::P5.description(),
            "P5 | Predictive | No Migr | 0% buffer"
        );
    }
}
