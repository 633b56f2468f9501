//! The reference stepper: integration constants, the exact
//! event-boundary slicer, and the naive fixed-Δt spot-check.
//!
//! Split out of the one-file oracle; see [`super`] for the full
//! differential-testing story.

use sct_transmission::EPS_MB;

/// Reference integration step (seconds). Small enough that the slice sum
/// reproduces the engines' exact piecewise-linear integrals to well below
/// [`ORACLE_TOL_MB`]; large enough to keep replays fast.
pub const ORACLE_DT_SECS: f64 = 0.01;

/// Divergence threshold for data-volume comparisons, in megabits.
pub const ORACLE_TOL_MB: f64 = 1e-6;

/// Divergence threshold for rate comparisons, in Mb/s.
pub const ORACLE_TOL_MBPS: f64 = 1e-6;

/// Playback-time epsilon (seconds): a playout-end boundary closer than
/// this is treated as already reached by the crossing-time solver, so
/// float residue left after landing exactly on a crossing cannot spawn
/// further sub-slices.
pub const EPS_SECS: f64 = 1e-9;

// ---------------------------------------------------------------------------
// The reference stepper
// ---------------------------------------------------------------------------

/// How the reference cluster integrates between event boundaries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RefStepper {
    /// One closed-form slice per event boundary, sub-sliced at
    /// stream-finish and playout-end crossings solved from the linear
    /// dynamics. Exact, and O(#events) regardless of simulated duration.
    Exact,
    /// Fixed-timestep spot-check integrator: O(duration / Δt).
    Naive {
        /// Integration step in seconds.
        dt_secs: f64,
    },
}

/// Per-stream state the crossing-time solver needs. Between event
/// boundaries `sent` grows linearly at `rate` until `remaining_mb`
/// reaches zero, and playback consumes wall time one-for-one until
/// `play_left_secs` reaches zero (unless paused).
#[derive(Clone, Copy, Debug)]
pub struct SliceState {
    /// Allocated transmission rate, Mb/s.
    pub rate: f64,
    /// Megabits still to transmit.
    pub remaining_mb: f64,
    /// Whether playback is frozen.
    pub paused: bool,
    /// Seconds of playback left until the clip's playout end.
    pub play_left_secs: f64,
}

/// The largest step `dt ≤ left` that crosses no stream-finish or
/// playout-end boundary: the minimum over `left`, every transmitting
/// stream's finish crossing `remaining_mb / rate`, and every playing
/// stream's playout residue `play_left_secs`. Boundaries within
/// [`EPS_MB`] / [`EPS_SECS`] of the current state count as already
/// crossed, so each boundary binds at most once per integration — at
/// most `2·n_streams + 1` slices per reference integration call.
/// Capacity changes need no crossing term: they only happen at trace
/// events, which bound `left` by construction.
pub fn exact_slice(left: f64, streams: &[SliceState]) -> f64 {
    let mut dt = left;
    for s in streams {
        if s.rate > 0.0 && s.remaining_mb > EPS_MB {
            dt = dt.min(s.remaining_mb / s.rate);
        }
        if !s.paused && s.play_left_secs > EPS_SECS {
            dt = dt.min(s.play_left_secs);
        }
    }
    dt
}
