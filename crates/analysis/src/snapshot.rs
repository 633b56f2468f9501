//! Serialisable telemetry snapshots and their report renderers.
//!
//! A [`MetricsSnapshot`] is the wire form of the core's metrics registry
//! (`sct-core::metrics`): named counters, time-weighted gauges, and
//! log-bucketed histograms, flattened into plain vectors so the schema
//! stays stable and self-describing. This crate sits *below* sct-core, so
//! the snapshot carries everything a report needs — quantiles are
//! precomputed by the exporter, bucket keys are opaque integers.
//!
//! Renderers: [`MetricsSnapshot::to_markdown`] produces the three metric
//! tables; [`MetricsSnapshot::to_svg`] charts the per-server utilization
//! distribution via the [`crate::svg`] module.

use crate::report::Table;
use crate::series::Series;
use crate::svg::{render_series, SvgOptions};
use sct_simcore::Summary;
use serde::{Deserialize, Serialize};

/// One named monotone counter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name, e.g. `admitted_direct`.
    pub name: String,
    /// Final count.
    pub value: u64,
}

/// One time-weighted gauge: an exact integral of a piecewise-linear
/// quantity over the measurement window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name, e.g. `cluster_utilization` or `server_utilization/3`.
    pub name: String,
    /// Time-weighted mean (`integral / span_secs`).
    pub mean: f64,
    /// Smallest value the gauge took inside the window.
    pub min: f64,
    /// Largest value the gauge took inside the window.
    pub max: f64,
    /// `∫ value dt` over the window (value-seconds).
    pub integral: f64,
    /// Total measured seconds (summed across merged trials).
    pub span_secs: f64,
}

/// One histogram bucket: `key` encodes the deterministic log-scale bucket
/// (octave × 8 + sub-octave), `count` the samples that landed in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSnapshot {
    /// Bucket key; buckets merge across trials by key.
    pub key: i64,
    /// Samples in the bucket.
    pub count: u64,
}

/// One streaming histogram with precomputed quantiles.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name, e.g. `waitlist_wait_secs`.
    pub name: String,
    /// Total recorded samples (including non-positive ones).
    pub count: u64,
    /// Samples ≤ 0, kept outside the log buckets.
    pub nonpositive: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// The non-empty log buckets, in key order.
    pub buckets: Vec<BucketSnapshot>,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One timed phase of the event loop's self-profile.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfilePhase {
    /// Phase name (`dispatch`, `alloc`, `wake`, `probe`).
    pub name: String,
    /// Wall seconds attributed to the phase.
    pub secs: f64,
    /// Timed intervals folded into `secs`.
    pub calls: u64,
}

/// Wire form of one `LoopProfile` (the core's event-loop self-profile).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileSnapshot {
    /// Total wall seconds inside the loop.
    pub wall_secs: f64,
    /// Events dispatched.
    pub events: u64,
    /// Throughput (`events / wall_secs`).
    pub events_per_sec: f64,
    /// The timed phases, in canonical order.
    pub phases: Vec<ProfilePhase>,
}

/// The loop self-profile attached to a metrics export. (Snapshots
/// written while the loop could be sharded also carry a `per_shard`
/// array; the reader ignores it.)
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoopProfilesSnapshot {
    /// The exported trials' profiles summed: phase seconds, calls and
    /// wall seconds add.
    pub merged: ProfileSnapshot,
}

/// A complete exported telemetry snapshot: one trial, or several trials
/// merged exactly (counters add, buckets add keywise, gauge integrals and
/// spans add).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// How many trials were merged into this snapshot.
    pub trials: u32,
    /// Per-trial measurement window length, seconds.
    pub measured_secs: f64,
    /// Named counters, in name order.
    pub counters: Vec<CounterSnapshot>,
    /// Named gauges, in name order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Named histograms, in name order.
    pub histograms: Vec<HistogramSnapshot>,
    /// The event loop's self-profile, when the exporter captured it.
    /// Serialised as `null` otherwise.
    pub profile: Option<LoopProfilesSnapshot>,
}

impl MetricsSnapshot {
    /// Parses a snapshot from its JSON export.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid metrics snapshot: {e}"))
    }

    /// Serialises the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialises")
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as three markdown tables (counters, gauges,
    /// histograms), preceded by a one-line header.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "# Metrics snapshot ({} trial{}, {:.0} measured seconds each)\n\n",
            self.trials,
            if self.trials == 1 { "" } else { "s" },
            self.measured_secs
        );
        if !self.counters.is_empty() {
            let mut t = Table::new(vec!["counter", "value"]);
            for c in &self.counters {
                t.push_row(vec![c.name.clone(), c.value.to_string()]);
            }
            out.push_str("## Counters\n\n");
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.gauges.is_empty() {
            let mut t = Table::new(vec!["gauge", "mean", "min", "max", "span (s)"]);
            for g in &self.gauges {
                t.push_row(vec![
                    g.name.clone(),
                    format!("{:.4}", g.mean),
                    format!("{:.4}", g.min),
                    format!("{:.4}", g.max),
                    format!("{:.0}", g.span_secs),
                ]);
            }
            out.push_str("## Time-weighted gauges\n\n");
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            let mut t = Table::new(vec![
                "histogram",
                "count",
                "mean",
                "p50",
                "p90",
                "p99",
                "min",
                "max",
            ]);
            for h in &self.histograms {
                t.push_row(vec![
                    h.name.clone(),
                    h.count.to_string(),
                    format!("{:.4}", h.mean()),
                    format!("{:.4}", h.p50),
                    format!("{:.4}", h.p90),
                    format!("{:.4}", h.p99),
                    format!("{:.4}", h.min),
                    format!("{:.4}", h.max),
                ]);
            }
            out.push_str("## Histograms\n\n");
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if let Some(profile) = &self.profile {
            out.push_str("## Loop profile\n\n");
            let p = &profile.merged;
            let mut t = Table::new(vec!["profile", "wall (s)", "events", "events/s"]);
            t.push_row(vec![
                "merged".to_string(),
                format!("{:.4}", p.wall_secs),
                p.events.to_string(),
                format!("{:.0}", p.events_per_sec),
            ]);
            out.push_str(&t.to_markdown());
            out.push('\n');
            let mut t = Table::new(vec!["phase (s)", "merged"]);
            for phase in &p.phases {
                t.push_row(vec![phase.name.clone(), format!("{:.4}", phase.secs)]);
            }
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        out
    }

    /// Renders the per-server dashboard chart: mean utilization and mean
    /// committed share per server, from the `server_utilization/<i>` and
    /// `server_committed_share/<i>` gauge families. Returns `Err` when the
    /// snapshot carries no per-server utilization gauges.
    pub fn to_svg(&self) -> Result<String, String> {
        let util = self.gauge_family("server_utilization/");
        if util.is_empty() {
            return Err("snapshot has no server_utilization/<i> gauges".to_string());
        }
        let committed = self.gauge_family("server_committed_share/");
        let x: Vec<f64> = (0..util.len()).map(|i| i as f64).collect();
        let mut series = Series::new(
            "Per-server utilization (time-weighted means)",
            "server",
            "share of capacity",
            x,
        );
        series.push_curve(
            "utilization",
            util.iter().map(|g| Summary::of(&[g.mean])).collect(),
        );
        if committed.len() == util.len() {
            series.push_curve(
                "committed share",
                committed.iter().map(|g| Summary::of(&[g.mean])).collect(),
            );
        }
        Ok(render_series(
            &series,
            &SvgOptions {
                y_range: Some((0.0, 1.0)),
                ..SvgOptions::default()
            },
        ))
    }

    /// The gauges whose names start with `prefix` followed by an index,
    /// sorted by that index.
    fn gauge_family(&self, prefix: &str) -> Vec<&GaugeSnapshot> {
        let mut fam: Vec<(usize, &GaugeSnapshot)> = self
            .gauges
            .iter()
            .filter_map(|g| {
                let idx: usize = g.name.strip_prefix(prefix)?.parse().ok()?;
                Some((idx, g))
            })
            .collect();
        fam.sort_by_key(|&(idx, _)| idx);
        fam.into_iter().map(|(_, g)| g).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            trials: 2,
            measured_secs: 9000.0,
            counters: vec![
                CounterSnapshot {
                    name: "admitted_direct".into(),
                    value: 120,
                },
                CounterSnapshot {
                    name: "rejected".into(),
                    value: 7,
                },
            ],
            gauges: vec![
                GaugeSnapshot {
                    name: "server_utilization/0".into(),
                    mean: 0.91,
                    min: 0.2,
                    max: 1.0,
                    integral: 16380.0,
                    span_secs: 18000.0,
                },
                GaugeSnapshot {
                    name: "server_utilization/1".into(),
                    mean: 0.88,
                    min: 0.1,
                    max: 1.0,
                    integral: 15840.0,
                    span_secs: 18000.0,
                },
                GaugeSnapshot {
                    name: "server_committed_share/0".into(),
                    mean: 0.8,
                    min: 0.0,
                    max: 1.0,
                    integral: 14400.0,
                    span_secs: 18000.0,
                },
                GaugeSnapshot {
                    name: "server_committed_share/1".into(),
                    mean: 0.75,
                    min: 0.0,
                    max: 1.0,
                    integral: 13500.0,
                    span_secs: 18000.0,
                },
            ],
            histograms: vec![HistogramSnapshot {
                name: "waitlist_wait_secs".into(),
                count: 5,
                nonpositive: 0,
                sum: 61.0,
                min: 2.0,
                max: 30.0,
                p50: 9.0,
                p90: 28.0,
                p99: 30.0,
                buckets: vec![
                    BucketSnapshot { key: 8, count: 2 },
                    BucketSnapshot { key: 26, count: 3 },
                ],
            }],
            profile: None,
        }
    }

    fn sample_profile() -> LoopProfilesSnapshot {
        let phases = |scale: f64| {
            ["dispatch", "alloc", "wake", "probe"]
                .iter()
                .enumerate()
                .map(|(i, name)| ProfilePhase {
                    name: (*name).to_string(),
                    secs: scale * (i + 1) as f64,
                    calls: 10 * (i as u64 + 1),
                })
                .collect()
        };
        LoopProfilesSnapshot {
            merged: ProfileSnapshot {
                wall_secs: 2.0,
                events: 1000,
                events_per_sec: 500.0,
                phases: phases(0.2),
            },
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn bad_json_names_the_problem() {
        let err = MetricsSnapshot::from_json("{not json").unwrap_err();
        assert!(err.contains("invalid metrics snapshot"), "{err}");
    }

    #[test]
    fn lookups_find_metrics_by_name() {
        let snap = sample();
        assert_eq!(snap.counter("rejected"), Some(7));
        assert!(snap.counter("nope").is_none());
        assert_eq!(snap.gauge("server_utilization/1").unwrap().mean, 0.88);
        let h = snap.histogram("waitlist_wait_secs").unwrap();
        assert_eq!(h.count, 5);
        assert!((h.mean() - 12.2).abs() < 1e-12);
    }

    #[test]
    fn markdown_has_all_three_tables() {
        let md = sample().to_markdown();
        assert!(md.contains("## Counters"));
        assert!(md.contains("## Time-weighted gauges"));
        assert!(md.contains("## Histograms"));
        assert!(md.contains("| admitted_direct | 120 |"));
        assert!(md.contains("waitlist_wait_secs"));
        assert!(md.contains("2 trials"));
        assert!(
            !md.contains("## Loop profile"),
            "no profile section without profiles"
        );
    }

    #[test]
    fn markdown_profile_section_lists_the_phases() {
        let mut snap = sample();
        snap.profile = Some(sample_profile());
        let md = snap.to_markdown();
        assert!(md.contains("## Loop profile"));
        assert!(md.contains("| merged |"));
        assert!(md.contains("| wake |"));
        assert!(!md.contains("shard"), "{md}");
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap, "profile must survive the JSON round trip");
    }

    #[test]
    fn svg_dashboard_charts_the_server_families() {
        let svg = sample().to_svg().unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("utilization"));
        assert!(svg.contains("committed share"));
        assert_eq!(svg.matches("<polyline").count(), 2);
    }

    #[test]
    fn svg_requires_per_server_gauges() {
        let mut snap = sample();
        snap.gauges.clear();
        assert!(snap.to_svg().unwrap_err().contains("server_utilization"));
    }
}
