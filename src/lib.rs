//! # semi-continuous-vod
//!
//! A reproduction of *"Semi-Continuous Transmission for Cluster-Based
//! Video Servers"* (Irani & Venkatasubramanian, IEEE CLUSTER 2001): a
//! cluster video-on-demand server simulator featuring
//!
//! * **semi-continuous transmission** — workahead streaming into client
//!   staging buffers, scheduled by the paper's Earliest-Finishing-Time-First
//!   (EFTF) allocator;
//! * **dynamic request migration (DRM)** — admission control that frees a
//!   slot by live-migrating an active stream to another replica holder;
//! * **placement strategies** — even, predictive, and partial-predictive
//!   replica allocation;
//! * the paper's full experiment suite (Figures 3–7 plus the tech-report
//!   extensions: SVBR, heterogeneity, partial-predictive, staging sweep).
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names. Start with [`prelude`], or jump straight to
//! [`core::Simulation`](sct_core::simulation::Simulation).
//!
//! ## Quick example
//!
//! ```
//! use semi_continuous_vod::prelude::*;
//!
//! // The paper's Small system at Zipf θ = 0.271, policy P4
//! // (even placement + migration + 20 % staging), one short trial.
//! let spec = SystemSpec::small_paper();
//! let config = SimConfig::builder(spec)
//!     .theta(0.271)
//!     .policy(Policy::P4)
//!     .duration_hours(6.0)
//!     .seed(7)
//!     .build();
//! let outcome = Simulation::run(&config);
//! assert!(outcome.utilization > 0.5 && outcome.utilization <= 1.0);
//! ```

pub use sct_admission as admission;
pub use sct_analysis as analysis;
pub use sct_cluster as cluster;
pub use sct_core as core;
pub use sct_media as media;
pub use sct_simcore as simcore;
pub use sct_transmission as transmission;
pub use sct_workload as workload;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use sct_admission::{
        AssignmentPolicy, CopySource, MigrationPolicy, ReplicationSpec, VictimSelection,
        WaitlistSpec,
    };
    pub use sct_analysis::report::Table;
    pub use sct_analysis::slo::{SloAlert, SloEvaluator, SloPolicy, SloRule};
    pub use sct_analysis::snapshot::MetricsSnapshot;
    pub use sct_analysis::timeseries::{
        render_dashboard, RecordingDiff, TimeSeriesRecording, WindowRow,
    };
    pub use sct_cluster::placement::PlacementStrategy;
    pub use sct_core::config::{
        ConfigError, FailureSpec, PauseSpec, SimConfig, SimConfigBuilder, StagingSpec,
    };
    pub use sct_core::events::{AdmitPath, JsonlTraceProbe, Probe, SimEvent};
    pub use sct_core::experiments;
    pub use sct_core::metrics::{
        Histogram, MetricsRegistry, StateView, TelemetryProbe, TimeWeightedGauge,
    };
    pub use sct_core::policies::Policy;
    pub use sct_core::profile::{LoopProfile, LoopProfiler};
    pub use sct_core::runner::{run_points, run_trials, TrialPlan};
    pub use sct_core::simulation::{SimOutcome, Simulation};
    pub use sct_core::spans::SpanProbe;
    pub use sct_core::timeseries::TimeSeriesProbe;
    pub use sct_media::{Catalog, ClientProfile, Video, VideoId};
    pub use sct_simcore::{Rng, SimTime};
    pub use sct_transmission::SchedulerKind;
    pub use sct_workload::scenario::SystemSpec;
}
