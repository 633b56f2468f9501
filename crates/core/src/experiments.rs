//! Experiment drivers — one per paper table/figure (see DESIGN.md's
//! per-experiment index).
//!
//! Every driver sweeps an axis in three steps: it lists the config of
//! every point, runs all their trials in one
//! [`crate::runner::run_points`] call (one pool over the machine's cores),
//! and reduces the outcomes, point by point in list order, to a
//! [`Series`] (curves of trial summaries) or a [`Table`]. A trial depends
//! only on its config and seed, so the output is the same on any number
//! of cores. The [`ExpOptions`] presets trade fidelity for time:
//!
//! * [`ExpOptions::quick`] — CI-sized smoke runs;
//! * [`ExpOptions::standard`] — minutes-per-figure, shape-faithful;
//! * [`ExpOptions::paper`] — the paper's full 5 × 1000 h protocol.

use crate::config::{SimConfig, StagingSpec};
use crate::events::{Probe, SimEvent};
use crate::policies::Policy;
use crate::runner::{cores, run_points, run_pool, utilization_summary, TrialPlan};
use crate::simulation::{SimOutcome, Simulation};
use crate::timeseries::TimeSeriesProbe;
use sct_admission::MigrationPolicy;
use sct_analysis::erlang::expected_utilization_vs_svbr;
use sct_analysis::{Series, Table};
use sct_cluster::PlacementStrategy;
use sct_simcore::{SimTime, Summary};
use sct_transmission::SchedulerKind;
use sct_workload::{HeterogeneityKind, SystemSpec};
use serde::{Deserialize, Serialize};

/// Sweep fidelity knobs shared by all experiment drivers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExpOptions {
    /// Independent trials per data point (the paper uses 5).
    pub trials: u32,
    /// Simulated hours per trial (the paper uses 1000).
    pub duration_hours: f64,
    /// Warm-up hours excluded from metrics.
    pub warmup_hours: f64,
    /// The Zipf θ axis for figures 4, 5, and 7.
    pub thetas: Vec<f64>,
    /// Base seed for trial derivation.
    pub base_seed: u64,
}

impl ExpOptions {
    /// The θ grid the paper plots: −1.5 to 1.0.
    pub fn paper_thetas(step: f64) -> Vec<f64> {
        let mut v = Vec::new();
        let mut t: f64 = -1.5;
        while t <= 1.0 + 1e-9 {
            v.push((t * 1000.0).round() / 1000.0);
            t += step;
        }
        v
    }

    /// Smoke-test fidelity (seconds per figure).
    pub fn quick() -> Self {
        ExpOptions {
            trials: 2,
            duration_hours: 8.0,
            warmup_hours: 0.5,
            thetas: vec![-1.5, -0.5, 0.5, 1.0],
            base_seed: 0x5C7,
        }
    }

    /// Default fidelity: the qualitative shape is stable (minutes per
    /// figure).
    pub fn standard() -> Self {
        ExpOptions {
            trials: 3,
            duration_hours: 60.0,
            warmup_hours: 2.0,
            thetas: Self::paper_thetas(0.25),
            base_seed: 0x5C7,
        }
    }

    /// The paper's protocol: 5 trials × 1000 hours.
    pub fn paper() -> Self {
        ExpOptions {
            trials: 5,
            duration_hours: 1000.0,
            warmup_hours: 5.0,
            thetas: Self::paper_thetas(0.25),
            base_seed: 0x5C7,
        }
    }

    fn base(&self, system: &SystemSpec) -> crate::config::SimConfigBuilder {
        SimConfig::builder(system.clone())
            .duration_hours(self.duration_hours)
            .warmup_hours(self.warmup_hours)
    }

    /// Every trial of every config, on one pool; entry `p` holds the
    /// trials of `configs[p]` in trial order.
    fn outcomes(&self, configs: &[SimConfig]) -> Vec<Vec<SimOutcome>> {
        run_points(configs, self.plan())
    }

    /// Like [`ExpOptions::outcomes`], on the same pool, but each trial is
    /// `trial` (a run with the driver's own probe attached) instead of a
    /// plain run.
    fn probed<T: Send + Sync>(
        &self,
        configs: &[SimConfig],
        trial: impl Fn(&SimConfig) -> T + Sync,
    ) -> Vec<Vec<T>> {
        run_pool(configs, self.plan(), cores(), trial)
    }

    /// The trials every point runs, and their seeds.
    fn plan(&self) -> TrialPlan {
        TrialPlan::new(self.trials, self.base_seed)
    }

    /// Pushes one curve of utilization summaries per `(label, points)`
    /// onto `series`, in the order given, running the trials of every
    /// point of every curve in one pool.
    fn utilization_curves<L: Into<String>>(
        &self,
        mut series: Series,
        curves: impl IntoIterator<Item = (L, Vec<SimConfig>)>,
    ) -> Series {
        let mut labels = Vec::new();
        let mut configs = Vec::new();
        for (label, points) in curves {
            labels.push((label.into(), points.len()));
            configs.extend(points);
        }
        let mut summaries = self
            .outcomes(&configs)
            .into_iter()
            .map(|trials| utilization_summary(&trials));
        for (label, n) in labels {
            series.push_curve(label, summaries.by_ref().take(n).collect());
        }
        series
    }
}

/// **E1 / Fig. 3** — the two reference system parameter sets.
pub fn fig3_table() -> Table {
    let mut t = Table::new(vec!["Parameter", "Small", "Large"]);
    let s = SystemSpec::small_paper();
    let l = SystemSpec::large_paper();
    t.push_row(vec![
        "Number of Servers".to_string(),
        s.n_servers.to_string(),
        l.n_servers.to_string(),
    ]);
    t.push_row(vec![
        "Bandwidth".to_string(),
        format!("{} Mb/s", s.server_bandwidth_mbps),
        format!("{} Mb/s", l.server_bandwidth_mbps),
    ]);
    t.push_row(vec![
        "Video Length".to_string(),
        format!(
            "{:.0}-{:.0} Min",
            s.video_length_secs.0 / 60.0,
            s.video_length_secs.1 / 60.0
        ),
        format!(
            "{:.0}-{:.0} Hrs",
            l.video_length_secs.0 / 3600.0,
            l.video_length_secs.1 / 3600.0
        ),
    ]);
    t.push_row(vec![
        "Number of Videos".to_string(),
        s.n_videos.to_string(),
        l.n_videos.to_string(),
    ]);
    t.push_row(vec![
        "Average Copies Per Video".to_string(),
        format!("{}", s.avg_copies),
        format!("{}", l.avg_copies),
    ]);
    t.push_row(vec![
        "Disk Capacity".to_string(),
        format!("{} GB", s.server_disk_gb),
        format!("{} GB", l.server_disk_gb),
    ]);
    t.push_row(vec![
        "SVBR (slots/server)".to_string(),
        s.svbr().to_string(),
        l.svbr().to_string(),
    ]);
    t
}

/// **E4 / Fig. 6** — the policy table.
pub fn fig6_table() -> Table {
    let mut t = Table::new(vec![
        "Policy Number",
        "Allocation Policy",
        "Migration Policy",
        "Client Staging",
    ]);
    for p in Policy::ALL {
        t.push_row(vec![
            p.name().to_string(),
            if p.is_predictive() {
                "Predictive"
            } else {
                "Even"
            }
            .to_string(),
            if p.migrates() { "Migr" } else { "No Migr" }.to_string(),
            format!("{:.0}% Buffer", p.staging_fraction() * 100.0),
        ]);
    }
    t
}

/// **E2 / Fig. 4** — the effect of dynamic request migration.
///
/// Even placement; staging is only what migration needs (zero under the
/// paper's instantaneous hand-off); curves: no migration, one hop per
/// request, unlimited hops.
pub fn fig4(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let series = Series::new(
        format!("Fig. 4 — dynamic request migration ({})", system.name),
        "zipf theta",
        "utilization",
        opts.thetas.clone(),
    );
    let variants: [(&str, MigrationPolicy); 3] = [
        ("no migration", MigrationPolicy::disabled()),
        (
            "hops per request = 1",
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::single_hop()
            },
        ),
        (
            "unlimited hops",
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::unlimited_hops()
            },
        ),
    ];
    let curves = variants.map(|(label, migration)| {
        let points = opts
            .thetas
            .iter()
            .map(|&theta| {
                opts.base(system)
                    .theta(theta)
                    .placement(PlacementStrategy::even_paper())
                    .migration(migration)
                    .staging(StagingSpec::AbsoluteMb(0.0))
                    .build()
            })
            .collect();
        (label, points)
    });
    opts.utilization_curves(series, curves)
}

/// **E3 / Fig. 5** — the effect of client staging.
///
/// Even placement, *no* migration, client receive cap 30 Mb/s; buffer =
/// {0, 2, 20, 100} % of the average video size.
pub fn fig5(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let series = Series::new(
        format!("Fig. 5 — client staging ({})", system.name),
        "zipf theta",
        "utilization",
        opts.thetas.clone(),
    );
    let curves = [0.0, 0.02, 0.2, 1.0].map(|fraction| {
        let points = opts
            .thetas
            .iter()
            .map(|&theta| {
                opts.base(system)
                    .theta(theta)
                    .placement(PlacementStrategy::even_paper())
                    .migration(MigrationPolicy::disabled())
                    .staging_fraction(fraction)
                    .build()
            })
            .collect();
        (format!("{:.0}% buffer", fraction * 100.0), points)
    });
    opts.utilization_curves(series, curves)
}

/// **E4 / Fig. 7** — all eight policies of Fig. 6 across θ.
pub fn fig7(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let series = Series::new(
        format!("Fig. 7 — policies P1-P8 ({})", system.name),
        "zipf theta",
        "utilization",
        opts.thetas.clone(),
    );
    let curves = Policy::ALL.map(|p| {
        let points = opts
            .thetas
            .iter()
            .map(|&theta| opts.base(system).theta(theta).policy(p).build())
            .collect();
        (format!("Policy {}", p.name()), points)
    });
    opts.utilization_curves(series, curves)
}

/// **E5 / SVBR** — single-server utilization versus the server-to-view
/// bandwidth ratio, empirical (continuous transmission) against the
/// Erlang-B analytic expression.
pub fn svbr(opts: &ExpOptions) -> Series {
    let ks: Vec<f64> = vec![2.0, 5.0, 10.0, 20.0, 33.0, 50.0, 100.0];
    let series = Series::new(
        "SVBR — single-server utilization at 100% offered load",
        "SVBR (streams per server)",
        "utilization",
        ks.clone(),
    );
    let view = 3.0;
    let mut simulated = Vec::new();
    let mut analytic = Vec::new();
    for &k in &ks {
        let system = SystemSpec {
            name: format!("svbr-{k}"),
            n_servers: 1,
            server_bandwidth_mbps: k * view,
            server_disk_gb: 10_000.0,
            n_videos: 50,
            video_length_secs: (600.0, 1800.0),
            view_rate_mbps: view,
            client_receive_cap_mbps: 30.0,
            avg_copies: 1.0,
        };
        simulated.push(
            opts.base(&system)
                .theta(1.0)
                .placement(PlacementStrategy::Even { avg_copies: 1.0 })
                .migration(MigrationPolicy::disabled())
                .staging(StagingSpec::AbsoluteMb(0.0))
                .scheduler(SchedulerKind::NoWorkahead)
                .build(),
        );
        let u = expected_utilization_vs_svbr(k * view, view);
        analytic.push(Summary::of(&[u]));
    }
    let mut series = opts.utilization_curves(series, [("simulated", simulated)]);
    series.push_curve("Erlang-B analytic", analytic);
    series
}

/// **E6 / heterogeneity** — utilization as a function of resource spread,
/// for 5-, 10-, and 20-server clusters sharing the Large system's totals.
/// Staging + single-hop migration are on (the semi-continuous regime).
pub fn heterogeneity(kind: HeterogeneityKind, opts: &ExpOptions) -> Series {
    let spreads = vec![0.0, 0.2, 0.4, 0.6, 0.8];
    let series = Series::new(
        format!("Heterogeneity ({kind:?}) — fixed totals, semi-continuous"),
        "resource spread",
        "utilization",
        spreads.clone(),
    );
    let curves = [5usize, 10, 20].map(|n| {
        let system = SystemSpec::large_paper().with_servers(n);
        let points = spreads
            .iter()
            .map(|&spread| {
                let mut b = opts
                    .base(&system)
                    .theta(0.271)
                    .placement(PlacementStrategy::even_paper())
                    .migration(MigrationPolicy {
                        handoff_latency_secs: 0.0,
                        ..MigrationPolicy::single_hop()
                    })
                    .staging_fraction(0.2);
                if spread > 0.0 {
                    b = b.heterogeneity(kind, spread);
                }
                b.build()
            })
            .collect();
        (format!("{n} servers"), points)
    });
    opts.utilization_curves(series, curves)
}

/// **E7 / partial-predictive** — even vs partial-predictive vs perfectly
/// predictive placement, all with staging + migration (the paper's claim:
/// a few extra copies of the head videos recover the predictive curve).
pub fn partial_predictive(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let series = Series::new(
        format!("Partial-predictive placement ({})", system.name),
        "zipf theta",
        "utilization",
        opts.thetas.clone(),
    );
    let strategies: [(&str, PlacementStrategy); 3] = [
        ("even", PlacementStrategy::even_paper()),
        (
            "partial predictive",
            PlacementStrategy::partial_predictive_paper(),
        ),
        ("predictive", PlacementStrategy::predictive_paper()),
    ];
    let curves = strategies.map(|(label, placement)| {
        let points = opts
            .thetas
            .iter()
            .map(|&theta| {
                opts.base(system)
                    .theta(theta)
                    .placement(placement)
                    .migration(MigrationPolicy {
                        handoff_latency_secs: 0.0,
                        ..MigrationPolicy::single_hop()
                    })
                    .staging_fraction(0.2)
                    .build()
            })
            .collect();
        (label, points)
    });
    opts.utilization_curves(series, curves)
}

/// **E8 / staging sweep** — utilization versus staging-buffer fraction
/// (the abstract's "20 % is near optimal" claim). No migration, so the
/// effect is staging alone.
pub fn staging_sweep(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let fractions = vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0];
    let series = Series::new(
        format!("Staging sweep ({})", system.name),
        "staging fraction of avg video",
        "utilization",
        fractions.clone(),
    );
    let curves = [0.0, 0.5, 1.0].map(|theta| {
        let points = fractions
            .iter()
            .map(|&f| {
                opts.base(system)
                    .theta(theta)
                    .placement(PlacementStrategy::even_paper())
                    .migration(MigrationPolicy::disabled())
                    .staging_fraction(f)
                    .build()
            })
            .collect();
        (format!("theta = {theta}"), points)
    });
    opts.utilization_curves(series, curves)
}

/// **E9 / fault tolerance** (extension; §3.1 motivates DRM for node
/// failures) — utilization and stream survival versus per-server MTBF,
/// with DRM-based emergency evacuation against the drop-everything
/// baseline. Repair time is fixed at 30 minutes; utilization is measured
/// against the *nominal* (no-downtime) capacity, so the availability
/// ceiling shows up in the curves.
pub fn fault_tolerance(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let mtbfs = vec![2.0, 5.0, 10.0, 20.0, 40.0];
    let mut series = Series::new(
        format!("Fault tolerance — DRM evacuation ({})", system.name),
        "per-server MTBF (hours)",
        "ratio",
        mtbfs.clone(),
    );
    let variants: [(&str, MigrationPolicy); 2] = [
        (
            "DRM evacuation",
            MigrationPolicy {
                handoff_latency_secs: 0.0,
                ..MigrationPolicy::single_hop()
            },
        ),
        ("no migration (drop)", MigrationPolicy::disabled()),
    ];
    let mut configs = Vec::new();
    for (_, migration) in variants {
        for &mtbf in &mtbfs {
            configs.push(
                opts.base(system)
                    .theta(0.271)
                    .placement(PlacementStrategy::even_paper())
                    .migration(migration)
                    .staging_fraction(0.2)
                    .failures(mtbf, 0.5)
                    .build(),
            );
        }
    }
    let mut points = opts.outcomes(&configs).into_iter();
    for (label, _) in variants {
        let mut util_points = Vec::new();
        let mut survival_points = Vec::new();
        for outcomes in points.by_ref().take(mtbfs.len()) {
            util_points.push(utilization_summary(&outcomes));
            let survival: Vec<f64> = outcomes
                .iter()
                .map(|o| {
                    let victims = o.stats.relocated_on_failure + o.stats.dropped_on_failure;
                    if victims == 0 {
                        1.0
                    } else {
                        o.stats.relocated_on_failure as f64 / victims as f64
                    }
                })
                .collect();
            survival_points.push(Summary::of(&survival));
        }
        series.push_curve(format!("utilization ({label})"), util_points);
        series.push_curve(format!("survival ({label})"), survival_points);
    }
    series
}

/// **E10 / interactivity** (extension; §6 lists "interactivity in
/// semi-continuous transmission" as future work) — utilization versus the
/// probability that a viewer pauses (for 1–10 minutes) once during
/// playback. Paused streams hold their slots; staging lets transmission
/// finish *during* the pause and release the slot early, so the staged
/// curves should degrade far more slowly.
pub fn interactivity(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let probs = vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let series = Series::new(
        format!("Interactivity — pause tolerance ({})", system.name),
        "pause probability",
        "utilization",
        probs.clone(),
    );
    let curves = [0.0, 0.2, 1.0].map(|fraction| {
        let points = probs
            .iter()
            .map(|&p| {
                let mut b = opts
                    .base(system)
                    .theta(0.271)
                    .placement(PlacementStrategy::even_paper())
                    .migration(MigrationPolicy::disabled())
                    .staging_fraction(fraction);
                if p > 0.0 {
                    b = b.interactivity(p, 60.0, 600.0);
                }
                b.build()
            })
            .collect();
        (format!("{:.0}% buffer", fraction * 100.0), points)
    });
    opts.utilization_curves(series, curves)
}

/// **E11 / replication vs DRM** (extension; §3.1 contrasts DRM with the
/// "more resource intensive" dynamic replication) — utilization across θ
/// for the four combinations of single-hop DRM and tertiary-sourced
/// dynamic replication, all with even placement and 20 % staging. The
/// interesting region is negative θ, where the even placement lacks
/// copies of the head videos and only replication can create them.
pub fn replication_vs_drm(system: &SystemSpec, opts: &ExpOptions) -> Series {
    use sct_admission::ReplicationSpec;
    let series = Series::new(
        format!("Dynamic replication vs DRM ({})", system.name),
        "zipf theta",
        "utilization",
        opts.thetas.clone(),
    );
    let drm = MigrationPolicy {
        handoff_latency_secs: 0.0,
        ..MigrationPolicy::single_hop()
    };
    let variants: [(&str, MigrationPolicy, Option<ReplicationSpec>); 4] = [
        ("neither", MigrationPolicy::disabled(), None),
        ("DRM only", drm, None),
        (
            "replication only",
            MigrationPolicy::disabled(),
            Some(ReplicationSpec::default_paper_scale()),
        ),
        (
            "DRM + replication",
            drm,
            Some(ReplicationSpec::default_paper_scale()),
        ),
    ];
    let curves = variants.map(|(label, migration, replication)| {
        let points = opts
            .thetas
            .iter()
            .map(|&theta| {
                let mut b = opts
                    .base(system)
                    .theta(theta)
                    .placement(PlacementStrategy::even_paper())
                    .migration(migration)
                    .staging_fraction(0.2);
                if let Some(spec) = replication {
                    b = b.replication(spec);
                }
                b.build()
            })
            .collect();
        (label, points)
    });
    opts.utilization_curves(series, curves)
}

/// The utilization window [`smoothing`] reads from the flight recorder.
/// Its runs need at least one whole window after the warm-up.
pub const SMOOTHING_WINDOW_SECS: f64 = 900.0;

/// The staging fractions [`smoothing`] sweeps.
const SMOOTHING_FRACTIONS: [f64; 6] = [0.0, 0.02, 0.1, 0.2, 0.5, 1.0];

/// **E12 / time-domain smoothing** (analysis of the §3 mechanism) —
/// quantiles of the windowed (15 min) cluster utilization versus staging
/// fraction. Workahead lifts the whole distribution: dips are filled by
/// sprinting ahead, and early completions leave slots for the bursts.
pub fn smoothing(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let mut series = Series::new(
        format!(
            "Windowed-utilization quantiles vs staging ({})",
            system.name
        ),
        "staging fraction of avg video",
        "window utilization",
        SMOOTHING_FRACTIONS.to_vec(),
    );
    // Collect (min, p10, mean, max) per staging level, each summarised
    // over trials.
    let mut mins = Vec::new();
    let mut p10s = Vec::new();
    let mut means = Vec::new();
    let mut maxs = Vec::new();
    for trials in opts.probed(&smoothing_configs(system, opts), smoothing_windows) {
        let mut per_trial = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for mut w in trials {
            assert!(!w.is_empty(), "no whole window after the warm-up");
            w.sort_by(f64::total_cmp);
            per_trial.0.push(w[0]);
            per_trial.1.push(w[w.len() / 10]);
            per_trial.2.push(w.iter().sum::<f64>() / w.len() as f64);
            per_trial.3.push(w[w.len() - 1]);
        }
        mins.push(Summary::of(&per_trial.0));
        p10s.push(Summary::of(&per_trial.1));
        means.push(Summary::of(&per_trial.2));
        maxs.push(Summary::of(&per_trial.3));
    }
    series.push_curve("min window", mins);
    series.push_curve("p10 window", p10s);
    series.push_curve("mean", means);
    series.push_curve("max window", maxs);
    series
}

/// E12's points, one per staging fraction.
fn smoothing_configs(system: &SystemSpec, opts: &ExpOptions) -> Vec<SimConfig> {
    SMOOTHING_FRACTIONS
        .iter()
        .map(|&f| {
            opts.base(system)
                .theta(1.0)
                .placement(PlacementStrategy::even_paper())
                .migration(MigrationPolicy::disabled())
                .staging_fraction(f)
                .build()
        })
        .collect()
}

/// One E12 trial: the utilization of each of the flight recorder's
/// windows that lies wholly in the measurement interval. Every preset's
/// warm-up is a whole number of windows, so these tile the interval.
fn smoothing_windows(cfg: &SimConfig) -> Vec<f64> {
    let mut recorder = TimeSeriesProbe::new(cfg, SMOOTHING_WINDOW_SECS);
    Simulation::run_with_probes(cfg, &mut [&mut recorder]);
    let windows = recorder.finish().windows;
    let full = windows
        .iter()
        .filter(|w| w.measured_secs == SMOOTHING_WINDOW_SECS);
    full.map(|w| w.utilization).collect()
}

/// **E13 / rejection profile** (analysis) — *which* videos get rejected,
/// by popularity-rank bucket, for even vs predictive placement across
/// demand skews. The even placement starves the head under skew; the
/// predictive one spreads rejections thinly across the tail.
pub fn rejection_profile(system: &SystemSpec, opts: &ExpOptions) -> Table {
    let mut table = Table::new(vec![
        "theta",
        "placement",
        "head (top 10%) rej%",
        "middle (10-50%) rej%",
        "tail (50-100%) rej%",
        "overall rej%",
    ]);
    let (rows, configs): (Vec<_>, Vec<_>) = rejection_points(system, opts).into_iter().unzip();
    for ((theta, name), trials) in rows.into_iter().zip(opts.probed(&configs, video_counts)) {
        let n = system.n_videos;
        let mut arr = vec![0u64; n];
        let mut rej = vec![0u64; n];
        for counts in &trials {
            for (i, [a, r]) in counts.iter().enumerate() {
                arr[i] += a;
                rej[i] += r;
            }
        }
        let bucket = |range: std::ops::Range<usize>| -> f64 {
            let a: u64 = range.clone().map(|i| arr[i]).sum();
            let r: u64 = range.map(|i| rej[i]).sum();
            if a == 0 {
                0.0
            } else {
                100.0 * r as f64 / a as f64
            }
        };
        let overall = {
            let a: u64 = arr.iter().sum();
            let r: u64 = rej.iter().sum();
            100.0 * r as f64 / a.max(1) as f64
        };
        table.push_row(vec![
            format!("{theta:+.1}"),
            name.to_string(),
            format!("{:.2}", bucket(0..n / 10)),
            format!("{:.2}", bucket(n / 10..n / 2)),
            format!("{:.2}", bucket(n / 2..n)),
            format!("{overall:.2}"),
        ]);
    }
    table
}

/// E13's points in table order: each θ with each placement.
fn rejection_points(
    system: &SystemSpec,
    opts: &ExpOptions,
) -> Vec<((f64, &'static str), SimConfig)> {
    let mut points = Vec::new();
    for &theta in &[-1.0, 0.0, 1.0] {
        for (name, placement) in [
            ("even", PlacementStrategy::even_paper()),
            ("predictive", PlacementStrategy::predictive_paper()),
        ] {
            let config = opts
                .base(system)
                .theta(theta)
                .placement(placement)
                .migration(MigrationPolicy::disabled())
                .staging_fraction(0.2)
                .build();
            points.push(((theta, name), config));
        }
    }
    points
}

/// E13's probe: `[arrivals, rejections]` per video index, counted at
/// arrival. E13 runs without a waitlist, so a rejection is final.
struct VideoCounts(Vec<[u64; 2]>);

impl Probe for VideoCounts {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent) {
        match *event {
            SimEvent::Admitted { video, .. } => self.0[video as usize][0] += 1,
            SimEvent::Rejected { video, .. } => {
                let [arrivals, rejections] = &mut self.0[video as usize];
                *arrivals += 1;
                *rejections += 1;
            }
            _ => {}
        }
    }

    fn uses_state(&self) -> bool {
        false
    }
}

/// One E13 trial: its per-video `[arrivals, rejections]`.
fn video_counts(cfg: &SimConfig) -> Vec<[u64; 2]> {
    let mut counts = VideoCounts(vec![[0; 2]; cfg.system.n_videos]);
    Simulation::run_with_probes(cfg, &mut [&mut counts]);
    counts.0
}

/// **E14 / waitlist** (extension) — acceptance ratio and utilization as a
/// function of viewer patience. The paper's controller drops requests the
/// instant no slot is available; this measures how much of that loss a
/// short wait recovers (and what it costs in start-up delay).
pub fn waitlist(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let waits_mins = vec![0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0];
    let mut series = Series::new(
        format!("Admission waitlist — viewer patience ({})", system.name),
        "max wait (minutes)",
        "ratio",
        waits_mins.clone(),
    );
    let configs: Vec<SimConfig> = waits_mins
        .iter()
        .map(|&mins| {
            let mut b = opts
                .base(system)
                .theta(0.0)
                .placement(PlacementStrategy::even_paper())
                .migration(MigrationPolicy::disabled())
                .staging_fraction(0.2);
            if mins > 0.0 {
                b = b.waitlist(mins * 60.0, 10_000);
            }
            b.build()
        })
        .collect();
    let mut acceptance = Vec::new();
    let mut utilization = Vec::new();
    let mut mean_wait_frac = Vec::new();
    for (&mins, outcomes) in waits_mins.iter().zip(opts.outcomes(&configs)) {
        acceptance.push(Summary::of(
            &outcomes
                .iter()
                .map(|o| o.acceptance_ratio())
                .collect::<Vec<_>>(),
        ));
        utilization.push(utilization_summary(&outcomes));
        mean_wait_frac.push(Summary::of(
            &outcomes
                .iter()
                .map(|o| {
                    if mins == 0.0 {
                        0.0
                    } else {
                        o.waitlist.mean_served_wait_secs() / (mins * 60.0)
                    }
                })
                .collect::<Vec<_>>(),
        ));
    }
    series.push_curve("acceptance ratio", acceptance);
    series.push_curve("utilization", utilization);
    series.push_curve("mean served wait / patience", mean_wait_frac);
    series
}

/// **E15 / diurnal load** (extension) — utilization and acceptance under
/// a sinusoidal day/night demand cycle (24 h period, mean load 100 %),
/// versus swing amplitude. Curves contrast the naive baseline with the
/// full semi-continuous stack: workahead banks the quiet hours against
/// the peaks, which is the paper\'s smoothing argument played out at
/// macro scale.
pub fn diurnal(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let amplitudes = vec![0.0, 0.25, 0.5, 0.75, 1.0];
    let series = Series::new(
        format!("Diurnal load — day/night swings ({})", system.name),
        "swing amplitude",
        "utilization",
        amplitudes.clone(),
    );
    let drm = MigrationPolicy {
        handoff_latency_secs: 0.0,
        ..MigrationPolicy::single_hop()
    };
    let variants: [(&str, f64, MigrationPolicy); 2] = [
        ("no staging, no DRM", 0.0, MigrationPolicy::disabled()),
        ("20% staging + DRM", 0.2, drm),
    ];
    let curves = variants.map(|(label, staging, migration)| {
        let points = amplitudes
            .iter()
            .map(|&a| {
                let mut b = opts
                    .base(system)
                    .theta(0.271)
                    .placement(PlacementStrategy::even_paper())
                    .migration(migration)
                    .staging_fraction(staging);
                if a > 0.0 {
                    b = b.diurnal(a, 24.0);
                }
                b.build()
            })
            .collect();
        (label, points)
    });
    opts.utilization_curves(series, curves)
}

/// **A3 / migration-depth ablation** (extension) — does a two-step
/// migration chain buy anything over the paper\'s chain length 1? Same
/// setup as Fig. 4 (even placement, minimal staging), curves: no
/// migration, chain 1, chain 2.
pub fn migration_depth(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let series = Series::new(
        format!("Migration chain-depth ablation ({})", system.name),
        "zipf theta",
        "utilization",
        opts.thetas.clone(),
    );
    let chain1 = MigrationPolicy {
        handoff_latency_secs: 0.0,
        ..MigrationPolicy::single_hop()
    };
    let chain2 = MigrationPolicy {
        handoff_latency_secs: 0.0,
        ..MigrationPolicy::chain2()
    };
    let variants: [(&str, MigrationPolicy); 3] = [
        ("no migration", MigrationPolicy::disabled()),
        ("chain length 1", chain1),
        ("chain length 2", chain2),
    ];
    let curves = variants.map(|(label, migration)| {
        let points = opts
            .thetas
            .iter()
            .map(|&theta| {
                opts.base(system)
                    .theta(theta)
                    .placement(PlacementStrategy::even_paper())
                    .migration(migration)
                    .staging(StagingSpec::AbsoluteMb(0.0))
                    .build()
            })
            .collect();
        (label, points)
    });
    opts.utilization_curves(series, curves)
}

/// **A2 / scheduler ablation** — EFTF against the other minimum-flow
/// spare-bandwidth policies, staging on, no migration.
pub fn scheduler_ablation(system: &SystemSpec, opts: &ExpOptions) -> Series {
    let series = Series::new(
        format!("Scheduler ablation ({})", system.name),
        "zipf theta",
        "utilization",
        opts.thetas.clone(),
    );
    let curves = SchedulerKind::ALL.map(|kind| {
        let points = opts
            .thetas
            .iter()
            .map(|&theta| {
                opts.base(system)
                    .theta(theta)
                    .placement(PlacementStrategy::even_paper())
                    .migration(MigrationPolicy::disabled())
                    .staging_fraction(0.2)
                    .scheduler(kind)
                    .build()
            })
            .collect();
        (kind.name(), points)
    });
    opts.utilization_curves(series, curves)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions {
            trials: 2,
            duration_hours: 2.0,
            warmup_hours: 0.25,
            thetas: vec![-1.0, 0.5],
            base_seed: 1,
        }
    }

    #[test]
    fn fig3_table_lists_both_systems() {
        let t = fig3_table();
        assert_eq!(t.headers, vec!["Parameter", "Small", "Large"]);
        assert!(t.len() >= 6);
        let md = t.to_markdown();
        assert!(md.contains("300 Mb/s"));
        assert!(md.contains("10-30 Min"));
    }

    #[test]
    fn fig6_table_has_eight_rows() {
        let t = fig6_table();
        assert_eq!(t.len(), 8);
        assert!(t
            .to_markdown()
            .contains("| P4 | Even | Migr | 20% Buffer |"));
    }

    #[test]
    fn paper_thetas_span_range() {
        let t = ExpOptions::paper_thetas(0.25);
        assert_eq!(t.first(), Some(&-1.5));
        assert_eq!(t.last(), Some(&1.0));
        assert_eq!(t.len(), 11);
    }

    #[test]
    fn fig4_smoke() {
        let s = fig4(&SystemSpec::tiny_test(), &tiny_opts());
        assert_eq!(s.curves.len(), 3);
        assert_eq!(s.x.len(), 2);
        for c in &s.curves {
            for p in &c.points {
                assert!(p.mean > 0.0 && p.mean <= 1.0);
                assert_eq!(p.n, 2);
            }
        }
    }

    #[test]
    fn fig5_smoke() {
        let s = fig5(&SystemSpec::tiny_test(), &tiny_opts());
        assert_eq!(s.curves.len(), 4);
        assert!(s.curve("20% buffer").is_some());
    }

    #[test]
    fn svbr_analytic_curve_monotone() {
        let mut o = tiny_opts();
        o.trials = 1;
        o.duration_hours = 4.0;
        let s = svbr(&o);
        let analytic = s.curve("Erlang-B analytic").unwrap().means();
        for w in analytic.windows(2) {
            assert!(w[1] > w[0], "analytic utilization must grow with SVBR");
        }
        let sim = s.curve("simulated").unwrap().means();
        // Empirical within a few points of analytic at every k.
        for (i, (&a, &b)) in analytic.iter().zip(&sim).enumerate() {
            assert!((a - b).abs() < 0.08, "k index {i}: analytic {a} vs sim {b}");
        }
    }

    /// The pooled driver must equal the same trials run one after
    /// another and reduced by hand, per-trial failure stats included.
    #[test]
    fn fault_tolerance_equals_a_sequential_reference() {
        use crate::simulation::Simulation;
        let system = SystemSpec::tiny_test();
        let opts = tiny_opts();
        let plan = TrialPlan::new(opts.trials, opts.base_seed);
        let drm = MigrationPolicy {
            handoff_latency_secs: 0.0,
            ..MigrationPolicy::single_hop()
        };
        let mut want = Vec::new();
        let mut victims = 0;
        for (label, migration) in [
            ("DRM evacuation", drm),
            ("no migration (drop)", MigrationPolicy::disabled()),
        ] {
            let (mut util, mut survival) = (Vec::new(), Vec::new());
            for mtbf in [2.0, 5.0, 10.0, 20.0, 40.0] {
                let trials: Vec<SimOutcome> = (0..plan.trials)
                    .map(|i| {
                        let mut cfg = opts
                            .base(&system)
                            .theta(0.271)
                            .placement(PlacementStrategy::even_paper())
                            .migration(migration)
                            .staging_fraction(0.2)
                            .failures(mtbf, 0.5)
                            .build();
                        cfg.seed = plan.seed(i);
                        Simulation::run(&cfg)
                    })
                    .collect();
                util.push(utilization_summary(&trials));
                let per_trial: Vec<f64> = trials
                    .iter()
                    .map(|o| {
                        let v = o.stats.relocated_on_failure + o.stats.dropped_on_failure;
                        victims += v;
                        if v == 0 {
                            1.0
                        } else {
                            o.stats.relocated_on_failure as f64 / v as f64
                        }
                    })
                    .collect();
                survival.push(Summary::of(&per_trial));
            }
            want.push((format!("utilization ({label})"), util));
            want.push((format!("survival ({label})"), survival));
        }
        assert!(victims > 0, "no failure hit a stream: survival is vacuous");
        let got: Vec<_> = fault_tolerance(&system, &opts)
            .curves
            .into_iter()
            .map(|c| (c.label, c.points))
            .collect();
        assert_eq!(got, want);
    }

    /// E12 reads the flight recorder: a trial's windows are the
    /// recorder's full windows, which tile the measured interval after a
    /// whole-window warm-up and average to the outcome's utilization.
    #[test]
    fn smoothing_windows_are_the_recorders_full_windows() {
        let cfg = tiny_opts()
            .base(&SystemSpec::tiny_test())
            .theta(1.0)
            .seed(67)
            .build();
        let mut recorder = TimeSeriesProbe::new(&cfg, SMOOTHING_WINDOW_SECS);
        let out = Simulation::run_with_probes(&cfg, &mut [&mut recorder]);
        // The 15-minute warm-up is window 0; the other 7 are measured.
        let rows = recorder.finish().windows;
        assert!(rows[1..]
            .iter()
            .all(|w| w.measured_secs == SMOOTHING_WINDOW_SECS));
        let windows = smoothing_windows(&cfg);
        let want: Vec<f64> = rows[1..].iter().map(|w| w.utilization).collect();
        assert_eq!(windows, want);
        assert!(windows.iter().all(|w| (0.0..=1.0 + 1e-9).contains(w)));
        let mean = windows.iter().sum::<f64>() / windows.len() as f64;
        assert!(
            (mean - out.utilization).abs() < 1e-9,
            "windows {mean} vs total {}",
            out.utilization
        );
    }

    /// E13's probe counts every arrival once, by video: its sums are the
    /// outcome's arrivals and (without a waitlist) rejections.
    #[test]
    fn video_counts_sum_to_the_arrivals() {
        let cfg = SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(4.0)
            .theta(-0.5)
            .seed(71)
            .build();
        let counts = video_counts(&cfg);
        let out = Simulation::run(&cfg);
        let sum = |k: usize| counts.iter().map(|c| c[k]).sum::<u64>();
        assert_eq!(sum(0), out.stats.arrivals);
        assert_eq!(sum(1), out.stats.rejected);
        assert!(out.stats.rejected > 0, "no rejection to attribute");
        // Skewed demand: the head video sees the most arrivals.
        let (head, tail) = (counts[0][0], counts[counts.len() - 1][0]);
        assert!(head > tail, "head {head} vs tail {tail}");
    }

    /// Both probed drivers run their trials on the pool; each trial must
    /// equal the same trial run alone.
    #[test]
    fn probed_drivers_equal_their_trials_run_alone() {
        fn alone<T>(
            opts: &ExpOptions,
            configs: &[SimConfig],
            trial: fn(&SimConfig) -> T,
        ) -> Vec<Vec<T>> {
            let plan = opts.plan();
            let seeded = |cfg: &SimConfig, i| SimConfig {
                seed: plan.seed(i),
                ..cfg.clone()
            };
            configs
                .iter()
                .map(|cfg| (0..plan.trials).map(|i| trial(&seeded(cfg, i))).collect())
                .collect()
        }
        let (system, opts) = (SystemSpec::tiny_test(), tiny_opts());
        let configs = smoothing_configs(&system, &opts);
        let want = alone(&opts, &configs, smoothing_windows);
        assert_eq!(opts.probed(&configs, smoothing_windows), want);
        let (_, configs): (Vec<_>, Vec<_>) = rejection_points(&system, &opts).into_iter().unzip();
        let want = alone(&opts, &configs, video_counts);
        assert_eq!(opts.probed(&configs, video_counts), want);
    }

    #[test]
    fn scheduler_ablation_lists_all_kinds() {
        let s = scheduler_ablation(&SystemSpec::tiny_test(), &tiny_opts());
        assert_eq!(s.curves.len(), 4);
        assert!(s.curve("eftf").is_some());
        assert!(s.curve("none").is_some());
    }
}
