//! The semi-continuous transmission engine (the paper's core mechanism).
//!
//! In *continuous* transmission a video is streamed at exactly the view
//! bandwidth `b_view` for its whole duration. In **semi-continuous**
//! transmission (§3) the server may run *ahead* of the playback point,
//! parking data in the client's staging buffer; streams that finish early
//! free server bandwidth for later arrivals, smoothing fluctuations in the
//! Poisson arrival process.
//!
//! The paper restricts attention to **minimum-flow** algorithms: every
//! unfinished stream always receives at least `b_view`, which makes the
//! admission decision trivial (a server can hold `⌊b_server/b_view⌋`
//! unfinished streams) and guarantees starvation-free playback. Spare
//! bandwidth is distributed by **EFTF** — Earliest Finishing Time First
//! (Fig. 2) — which is optimal among minimum-flow algorithms when client
//! receive bandwidth is unbounded (Theorem 1; see the property tests in
//! `tests/` for an empirical check).
//!
//! * [`stream`] — the state of one active stream: bytes sent, playback
//!   position, staging-buffer occupancy, projected finish time.
//! * [`alloc`] — bandwidth allocation policies ([`SchedulerKind`]): EFTF
//!   plus the ablation baselines (latest-finish-first, proportional share,
//!   and no-workahead = classic continuous transmission).
//! * [`engine`] — [`ServerEngine`]: one data server advancing its streams
//!   between events, predicting its next event (completion / buffer-full),
//!   and accounting transmitted megabits for the utilization metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod engine;
pub mod stream;

pub use alloc::{allocate, allocate_incremental, AllocScratch, SchedulerKind};
pub use engine::ServerEngine;
pub use stream::{Stream, StreamId};

/// Tolerance for data-volume comparisons, in megabits (≈ one bit).
pub const EPS_MB: f64 = 1e-6;

/// Tolerance for time comparisons, in seconds.
pub const EPS_SECS: f64 = 1e-9;
