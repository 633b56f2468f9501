//! Divergence reports and the invariant auditors: the standalone engine
//! audit ([`audit_engines`]) and the engines-vs-reference cross-check
//! run at every event boundary.
//!
//! Engines integrate lazily, as the event loop leaves them: a stream's
//! state is current only at its engine's clock. Both auditors read it at
//! `now` through the projection [`crate::StateView`] uses, so checking
//! an engine never advances it.

use std::fmt;

use sct_cluster::ServerId;
use sct_simcore::SimTime;
use sct_transmission::{ServerEngine, StreamId};

use super::mirror::RefCluster;
use super::stepper::{ORACLE_TOL_MB, ORACLE_TOL_MBPS};
use crate::metrics::{projected_sent_mb, projected_staged_mb};

/// Relative tolerance of the wake check: a cached wake may differ from
/// the reference's earliest event by this share of the event time.
const WAKE_REL_TOL: f64 = 1e-6;

// ---------------------------------------------------------------------------
// Divergence reports
// ---------------------------------------------------------------------------

/// What kind of disagreement was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Per-stream transmitted volume disagrees.
    SentMb,
    /// Per-stream allocated rate disagrees.
    Rate,
    /// Per-stream staging-buffer occupancy disagrees.
    StagedMb,
    /// Per-server committed bandwidth ledger disagrees or drifted.
    CommittedMbps,
    /// Per-server allocated rates exceed capacity.
    Capacity,
    /// An unpaused stream fell below the minimum flow.
    MinFlow,
    /// Global transmitted volume disagrees with the reference ledger.
    Conservation,
    /// The two sides disagree about which streams exist / where they live.
    StreamSet,
    /// An admission decision was illegal for the observable state.
    Admission,
    /// A server's cached wake is not the reference's earliest completion
    /// or buffer fill on that server.
    Wake,
}

/// The first point where the event-driven simulator and the reference
/// integrator disagree. `seed` + `time` + `stream` make the failure
/// replayable: regenerate the scenario from the seed and break at `time`.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Scenario seed ([`OracleScenario::generate`](crate::oracle::OracleScenario::generate) reproduces the run).
    pub seed: u64,
    /// Simulation time of the check that failed.
    pub time: SimTime,
    /// Offending stream, when the check is stream-scoped.
    pub stream: Option<StreamId>,
    /// Offending server, when known.
    pub server: Option<ServerId>,
    /// Check category.
    pub kind: DivergenceKind,
    /// Human-readable magnitude / expectation.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divergence[seed={} t={}", self.seed, self.time)?;
        if let Some(s) = self.stream {
            write!(f, " stream={s}")?;
        }
        if let Some(s) = self.server {
            write!(f, " server={s}")?;
        }
        write!(f, "] {:?}: {}", self.kind, self.detail)
    }
}

// ---------------------------------------------------------------------------
// The auditor
// ---------------------------------------------------------------------------

macro_rules! diverge {
    ($seed:expr, $time:expr, $stream:expr, $server:expr, $kind:expr, $($arg:tt)+) => {
        return Err(Box::new(Divergence {
            seed: $seed,
            time: $time,
            stream: $stream,
            server: $server,
            kind: $kind,
            detail: format!($($arg)+),
        }))
    };
}
pub(crate) use diverge;

/// Standalone invariant audit of live engines — the half of the oracle
/// that needs no reference replay. Checks the commitment ledger against
/// the stream list, the capacity bound, the minimum-flow guarantee, and
/// staging-buffer bounds at `now`, projecting each stream from its
/// engine's clock. Cheap enough to call at every event of any property
/// test.
pub fn audit_engines(
    seed: u64,
    now: SimTime,
    engines: &[ServerEngine],
) -> Result<(), Box<Divergence>> {
    for e in engines {
        let sid = Some(e.id());
        let mut committed = 0.0;
        let mut total_rate = 0.0;
        for s in e.streams() {
            committed += s.view_rate;
            total_rate += s.rate();
            if !s.is_paused() && !s.is_finished() && s.rate() < s.view_rate - ORACLE_TOL_MBPS {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::MinFlow,
                    "rate {} below view rate {}",
                    s.rate(),
                    s.view_rate
                );
            }
            let staged = projected_staged_mb(e, s, now);
            if staged < -ORACLE_TOL_MB {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::StagedMb,
                    "negative staging occupancy {staged}"
                );
            }
            if !s.client.is_unbounded_staging()
                && staged > s.client.staging_capacity_mb + s.view_rate * 1e-6 + ORACLE_TOL_MB
            {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::StagedMb,
                    "staging overflow: {staged} > cap {}",
                    s.client.staging_capacity_mb
                );
            }
        }
        let n = e.streams().len() as f64;
        if (committed - e.committed_mbps()).abs() > ORACLE_TOL_MBPS * (1.0 + n) {
            diverge!(
                seed,
                now,
                None,
                sid,
                DivergenceKind::CommittedMbps,
                "ledger {} vs stream sum {committed}",
                e.committed_mbps()
            );
        }
        if total_rate > e.capacity_mbps() + ORACLE_TOL_MBPS * (1.0 + n) {
            diverge!(
                seed,
                now,
                None,
                sid,
                DivergenceKind::Capacity,
                "allocated {total_rate} exceeds capacity {}",
                e.capacity_mbps()
            );
        }
        if !e.is_online() && !e.streams().is_empty() {
            diverge!(
                seed,
                now,
                None,
                sid,
                DivergenceKind::StreamSet,
                "offline server holds {} streams",
                e.streams().len()
            );
        }
    }
    Ok(())
}

/// The engines against the reference at `now`: per-stream state first,
/// so a report names its stream, then [`audit_engines`], the stream set,
/// the per-server ledgers, conservation, and every server's cached wake.
pub(crate) fn cross_check(
    seed: u64,
    now: SimTime,
    engines: &[ServerEngine],
    reference: &RefCluster,
) -> Result<(), Box<Divergence>> {
    // Σ transmitted at `now`: each engine's meter plus what its streams
    // send between its clock and `now`.
    let mut transmitted = 0.0;
    for (idx, e) in engines.iter().enumerate() {
        let sid = Some(e.id());
        let dt = (now - e.clock()).max(0.0);
        transmitted += e.transmitted_mb();
        for s in e.streams() {
            let Some(r) = reference.find(s.id).map(|i| &reference.streams[i]) else {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::StreamSet,
                    "stream unknown to the reference"
                );
            };
            if r.server != idx {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::StreamSet,
                    "reference places it on server {}",
                    r.server
                );
            }
            let sent = projected_sent_mb(s, dt);
            transmitted += sent - s.sent_mb();
            if (r.sent_mb - sent).abs() > ORACLE_TOL_MB {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::SentMb,
                    "sent {} vs reference {} (Δ={:+.3e})",
                    sent,
                    r.sent_mb,
                    sent - r.sent_mb
                );
            }
            if (r.rate - s.rate()).abs() > ORACLE_TOL_MBPS {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::Rate,
                    "rate {} vs reference {} (Δ={:+.3e})",
                    s.rate(),
                    r.rate,
                    s.rate() - r.rate
                );
            }
            let staged = projected_staged_mb(e, s, now);
            if (r.staged_mb() - staged).abs() > ORACLE_TOL_MB {
                diverge!(
                    seed,
                    now,
                    Some(s.id),
                    sid,
                    DivergenceKind::StagedMb,
                    "staged {} vs reference {}",
                    staged,
                    r.staged_mb()
                );
            }
        }
    }

    audit_engines(seed, now, engines)?;

    let live: usize = engines.iter().map(|e| e.streams().len()).sum();
    if live != reference.streams.len() {
        diverge!(
            seed,
            now,
            None,
            None,
            DivergenceKind::StreamSet,
            "engines hold {live} streams, reference holds {}",
            reference.streams.len()
        );
    }

    for (idx, e) in engines.iter().enumerate() {
        let sid = Some(e.id());
        if (reference.capacity[idx] - e.capacity_mbps()).abs() > ORACLE_TOL_MBPS {
            diverge!(
                seed,
                now,
                None,
                sid,
                DivergenceKind::Capacity,
                "capacity {} vs reference {}",
                e.capacity_mbps(),
                reference.capacity[idx]
            );
        }
        if reference.online[idx] != e.is_online() {
            diverge!(
                seed,
                now,
                None,
                sid,
                DivergenceKind::StreamSet,
                "online={} but reference says {}",
                e.is_online(),
                reference.online[idx]
            );
        }
        let ref_committed = reference.committed_mbps(idx);
        let n = e.streams().len() as f64;
        if (ref_committed - e.committed_mbps()).abs() > ORACLE_TOL_MBPS * (1.0 + n) {
            diverge!(
                seed,
                now,
                None,
                sid,
                DivergenceKind::CommittedMbps,
                "committed {} vs reference {ref_committed}",
                e.committed_mbps()
            );
        }
    }

    let ledger = reference.total_sent_mb();
    if (transmitted - ledger).abs() > ORACLE_TOL_MB {
        diverge!(
            seed,
            now,
            None,
            None,
            DivergenceKind::Conservation,
            "cluster transmitted {transmitted} vs reference ledger {ledger} (Δ={:+.3e})",
            transmitted - ledger
        );
    }

    // The event loop pops nothing but these cached wakes, so each must be
    // the earliest event the reference sees coming on its server.
    let expected = reference.next_events();
    for (e, expected) in engines.iter().zip(expected) {
        let expected = expected.map(|dt| now + dt);
        let agree = match (e.last_wake(), expected) {
            (None, None) => true,
            (Some(w), Some(x)) => {
                (w - x).abs() <= WAKE_REL_TOL * w.as_secs().abs().max(x.as_secs().abs())
            }
            _ => false,
        };
        if !agree {
            diverge!(
                seed,
                now,
                None,
                Some(e.id()),
                DivergenceKind::Wake,
                "cached wake {:?} vs the reference's earliest event {expected:?}",
                e.last_wake()
            );
        }
    }
    Ok(())
}
