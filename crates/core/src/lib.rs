//! Full-system simulation of semi-continuous transmission for
//! cluster-based video servers (Irani & Venkatasubramanian, CLUSTER 2001).
//!
//! This crate assembles the substrates into the paper's experimental
//! apparatus:
//!
//! * [`config`] — [`config::SimConfig`]: one complete experimental setup
//!   (system, Zipf skew, placement, migration, staging, scheduler, seed).
//! * [`policies`] — the paper's policy table P1–P8 (Fig. 6) mapping onto
//!   configs.
//! * [`simulation`] — the discrete-event loop: Poisson arrivals →
//!   admission control (with DRM) → per-server EFTF transmission engines →
//!   utilization accounting.
//! * [`events`] — the typed [`events::SimEvent`] record stream the loop
//!   narrates (each record naming its causes), the [`events::Probe`]
//!   observer trait, and the JSONL trace export.
//! * [`metrics`] — the telemetry layer: mergeable log-bucketed
//!   histograms, exact time-weighted gauges, the
//!   [`metrics::TelemetryProbe`], and the [`metrics::MetricsRegistry`]
//!   it exports.
//! * [`spans`] — the [`spans::SpanProbe`]: request-lifecycle spans with
//!   causal edges (why *this* stream migrated) read from the causes the
//!   events name, exported through `sct_analysis::spans`.
//! * [`profile`] — the on-request [`profile::LoopProfiler`]: the loop's
//!   one wall-clock layer, phase timers (dispatch / allocator / wake
//!   scheduling / probe emission), enabled by
//!   `Simulation::run_instrumented` and disabled — zero clock reads per
//!   event — on `Simulation::run` and `run_with_probes`.
//! * [`timeseries`] — the flight recorder: [`timeseries::TimeSeriesProbe`]
//!   folds the event stream and state views into
//!   fixed-width virtual-time windows with online SLO evaluation,
//!   exported through `sct_analysis::timeseries`.
//! * [`runner`] — deterministic parallel multi-trial execution.
//! * [`experiments`] — one function per paper table/figure (and per
//!   tech-report extension), producing [`sct_analysis::Series`]/tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod events;
pub mod experiments;
pub mod metrics;
#[cfg(feature = "differential")]
pub mod oracle;
pub mod policies;
pub mod profile;
pub mod runner;
pub mod simulation;
pub mod spans;
pub mod timeseries;

pub use config::{ConfigError, SimConfig, SimConfigBuilder, StagingSpec};
pub use events::{AdmitPath, JsonlTraceProbe, Probe, SimEvent};
pub use metrics::{Histogram, MetricsRegistry, StateView, TelemetryProbe, TimeWeightedGauge};
pub use policies::Policy;
pub use profile::{LoopProfile, LoopProfiler, PhaseStat};
pub use runner::{run_points, run_trials, utilization_summary, TrialPlan};
pub use simulation::{SimOutcome, Simulation};
pub use spans::SpanProbe;
pub use timeseries::TimeSeriesProbe;
