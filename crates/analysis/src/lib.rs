//! Analytical models and result reporting.
//!
//! * [`erlang`] — the Erlang-B loss formula and the paper's analytical
//!   single-server utilization-vs-SVBR expression (§3.2 references an
//!   analytic curve in the tech report; for a single server with no
//!   staging and no migration the system is an M/G/k/k loss queue, whose
//!   blocking probability depends on the service distribution only through
//!   its mean — so Erlang-B applies exactly).
//! * [`fairness`] — Jain's index and load-spread metrics for per-server
//!   utilization vectors.
//! * [`series`] — experiment output as (x, curves) series of trial
//!   summaries, serialisable and alignable with the paper's figures.
//! * [`report`] — plain-text/markdown table rendering for the harness.
//! * [`snapshot`] — the serialisable [`snapshot::MetricsSnapshot`] schema
//!   the core's telemetry registry exports (`sctsim run --metrics`), with
//!   markdown and SVG-dashboard renderers (`sctsim report`).
//! * [`spans`] — request-lifecycle spans with causal edges
//!   (`sctsim run --spans`): the serialisable [`spans::SpanSet`] schema,
//!   a Chrome-trace/Perfetto exporter, and a critical-path analyzer
//!   decomposing completed-request latency into wait/serve/pause.
//! * [`slo`] — the declarative online SLO rule engine (threshold,
//!   rate-of-change, multi-window burn-rate) evaluated against windows as
//!   they close, emitting timestamped alerts into the recording.
//! * [`svg`] — dependency-free SVG line charts of any [`Series`], so the
//!   harness emits viewable figures, not just tables.
//! * [`timeseries`] — the flight-recorder schema (`sctsim run
//!   --timeseries`): fixed-width virtual-time windows of counters and
//!   gauge means, trial merging, recording diff, and the `sctsim watch`
//!   terminal dashboard.
//! * [`trace`] — reader for the JSONL event traces the simulator exports
//!   (`sctsim --trace`), parsing the wire format generically so analyses
//!   can count, filter, and reconcile events without depending on the
//!   core's event enum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod erlang;
pub mod fairness;
pub mod report;
pub mod series;
pub mod slo;
pub mod snapshot;
pub mod spans;
pub mod svg;
pub mod timeseries;
pub mod trace;

pub use erlang::{erlang_b, expected_utilization_vs_svbr};
pub use fairness::jain_index;
pub use report::Table;
pub use series::{Curve, Series};
pub use slo::{SloAlert, SloEvaluator, SloOp, SloPolicy, SloRule};
pub use snapshot::{
    BucketSnapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, LoopProfilesSnapshot,
    MetricsSnapshot, ProfilePhase, ProfileSnapshot,
};
pub use spans::{
    AdmitVia, CausalEdge, CriticalPath, EdgeEnd, EdgeKind, Segment, SegmentKind, ServerMark, Span,
    SpanKind, SpanOutcome, SpanSet,
};
pub use svg::{render_series, SvgOptions};
pub use timeseries::{
    diff, render_dashboard, DiffPoint, RecordingDiff, TimeSeriesRecording, WindowRow,
};
pub use trace::{Trace, TraceEvent};
