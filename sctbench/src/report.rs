//! Report format, provenance, and the `compare` verdicts.

use crate::spans::Span;
use crate::stats::Spread;
use crate::{Better, EndToEnd, END_TO_END};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One end-to-end metric of one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name (see [`END_TO_END`]).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and count of the metric's per-pass values.
    pub spread: Spread,
}

impl MetricValue {
    /// The reported value: the median over passes.
    pub fn value(&self) -> f64 {
        self.spread.median
    }
}

/// One per-layer (or extra) measurement of a traced run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerValue {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
}

/// Everything one workload run measured and checked.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Untraced passes measured.
    pub passes: usize,
    /// Trials (and experiment artifacts) attempted, all passes.
    pub attempted: u64,
    /// Of those, the ones that panicked or failed a check.
    pub failed: u64,
    /// What failed, one line each.
    pub errors: Vec<String>,
    /// Host speed over the untraced passes: the calibration kernel's
    /// nominal time ÷ its measured time, one value per kernel run. Host
    /// seconds are reference seconds ÷ speed.
    pub host_speed: Spread,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<MetricValue>,
    /// Per-layer metrics (traced runs only), in [`crate::per_layer`] order.
    pub per_layer: Vec<LayerValue>,
    /// Workload-specific extras of a traced run (per-experiment times).
    pub extras: Vec<LayerValue>,
    /// Coarse wall-clock spans of a traced run.
    pub spans: Vec<Span>,
}

impl WorkloadReport {
    /// Whether every attempted trial passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The end-to-end metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// The one-line result: `{"correct", "attempted", "failed",
    /// "metrics"}` with every end-to-end metric's value, or every
    /// per-layer one when `traced`.
    pub fn result_line(&self, traced: bool) -> String {
        use serde::Value;
        let entry = |value: f64, unit: &str| {
            Value::Map(vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(unit.into())),
            ])
        };
        let metrics: Vec<(String, Value)> = if traced {
            self.per_layer
                .iter()
                .map(|m| (m.name.clone(), entry(m.value, &m.unit)))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.clone(), entry(m.value(), &m.unit)))
                .collect()
        };
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted.into())),
            ("failed".into(), Value::Int(self.failed.into())),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        struct Raw(Value);
        impl serde::Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        serde_json::to_string(&Raw(line)).expect("result line serializes")
    }

    /// Human-readable table of the end-to-end (and, when present,
    /// per-layer) metrics.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## {} (seed {}, {} passes, {}/{} failed; host speed {:.3}, q1 {:.3}, q3 {:.3})",
            self.workload,
            self.seed,
            self.passes,
            self.failed,
            self.attempted,
            self.host_speed.median,
            self.host_speed.q1,
            self.host_speed.q3
        );
        let _ = writeln!(
            out,
            "{:<15} {:>5} {:>6} {:>5} {:>14} {:>14} {:>14} {:>5} {:>3}",
            "metric", "unit", "better", "bound", "median", "q1", "q3", "iqr", "n"
        );
        for m in &self.end_to_end {
            let def = END_TO_END.iter().find(|d| d.name == m.name);
            let _ = writeln!(
                out,
                "{:<15} {:>5} {:>6} {:>4.0}% {:>14.6} {:>14.6} {:>14.6} {:>4.1}% {:>3}",
                m.name,
                m.unit,
                def.map_or("", |d| d.better.as_str()),
                def.map_or(0.0, |d| d.bound * 100.0),
                m.spread.median,
                m.spread.q1,
                m.spread.q3,
                m.spread.rel_iqr() * 100.0,
                m.spread.n
            );
        }
        for m in self.per_layer.iter().chain(&self.extras) {
            let _ = writeln!(
                out,
                "{:<44} {:>6} {:>16.4} (n = {})",
                m.name, m.unit, m.value, m.n
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "FAILED: {e}");
        }
        out
    }
}

/// Where and how a run was made.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown`.
    pub git_rev: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per workload (untraced passes).
    pub seconds: f64,
    /// Cargo build profile of the benchmark binary.
    pub build_profile: String,
    /// Whether the run was traced.
    pub traced: bool,
}

impl Provenance {
    /// Provenance of a run made now by this binary.
    pub fn current(seed: u64, seconds: f64, traced: bool) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git_rev,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            seconds,
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            traced,
        }
    }
}

/// A full `sctbench run` report: provenance plus one entry per workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Where the numbers came from.
    pub provenance: Provenance,
    /// One report per workload, in run order.
    pub workloads: Vec<WorkloadReport>,
}

impl RunReport {
    /// Parses a report written by `sctbench run`.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes") + "\n"
    }
}

/// The outcome of comparing one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Changed by no more than the bound either way.
    WithinBound,
    /// Worsened by more than the bound.
    Worse,
    /// A side's median is too uncertain to tell: the spread it would show
    /// over repeated runs, estimated from its passes, exceeds the bound.
    Unresolved,
    /// Both runs come from the same commit, yet they differ by more than
    /// the bound in either direction: the benchmark did not repeat itself.
    Unrepeatable,
}

impl Verdict {
    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unrepeatable => "unrepeatable",
        }
    }

    /// Whether the pair passes the comparison.
    pub fn passes(self) -> bool {
        matches!(self, Verdict::Better | Verdict::WithinBound)
    }
}

/// Judges `b` against the baseline `a` for metric `def`. `same_rev` says
/// both runs were made from the same commit.
///
/// The test is symmetric: values are turned into costs (the value, or its
/// reciprocal for a higher-is-better metric), and a pair moved when the
/// costlier side exceeds the cheaper one by more than the allowance of the
/// cheaper one. So `verdict(a, b)` is better exactly when `verdict(b, a)`
/// is worse, whichever run is passed first.
pub fn verdict(a: &MetricValue, b: &MetricValue, def: &EndToEnd, same_rev: bool) -> Verdict {
    let cost = |m: &MetricValue| match def.better {
        Better::Lower => m.value(),
        Better::Higher => 1.0 / m.value(),
    };
    let (ca, cb) = (cost(a), cost(b));
    let worse = cb - ca > def.allowance(ca);
    let better = ca - cb > def.allowance(cb);
    let noisy = |m: &MetricValue| m.spread.median_iqr() > def.allowance(m.value());
    if same_rev && (worse || better) {
        Verdict::Unrepeatable
    } else if worse {
        Verdict::Worse
    } else if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if better {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Compares run report `b` with the baseline `a`, workload by workload and
/// metric by metric. Returns the printed table and whether `b` passes:
/// every pair better or within bound, every workload and metric of `a`
/// present in `b`, and every check of `b` passed.
pub fn compare(a: &RunReport, b: &RunReport) -> (String, bool) {
    let (pa, pb) = (&a.provenance, &b.provenance);
    let same_rev = pa.git_rev == pb.git_rev && pa.git_rev != "unknown";
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A: {} ({} cpus, seed {})  B: {} ({} cpus, seed {}){}",
        pa.git_rev,
        pa.available_parallelism,
        pa.seed,
        pb.git_rev,
        pb.available_parallelism,
        pb.seed,
        if same_rev {
            "  same commit: a change past a bound in either direction fails"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "{:<15} {:<15} {:>14} {:>14} {:>8} {:>10}  verdict",
        "workload", "metric", "median A", "median B", "delta", "allowed"
    );
    let mut passes = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            let _ = writeln!(out, "{:<15} missing from B", wa.workload);
            passes = false;
            continue;
        };
        if !wb.correct() {
            let first = wb.errors.first().map_or("", String::as_str);
            let _ = writeln!(
                out,
                "{:<15} B failed {} of {} checked items: {first}",
                wb.workload, wb.failed, wb.attempted
            );
            passes = false;
        }
        for def in &END_TO_END {
            let Some(ma) = wa.metric(def.name) else {
                continue;
            };
            let Some(mb) = wb.metric(def.name) else {
                let _ = writeln!(out, "{:<15} {:<15} missing from B", wa.workload, def.name);
                passes = false;
                continue;
            };
            let v = verdict(ma, mb, def, same_rev);
            passes &= v.passes();
            let delta = (mb.value() - ma.value()) / ma.value().abs() * 100.0;
            let allowed = if def.allowance(ma.value()) > def.bound * ma.value().abs() {
                format!("{} {}", def.floor, def.unit)
            } else {
                format!("{:.0}%", def.bound * 100.0)
            };
            let _ = writeln!(
                out,
                "{:<15} {:<15} {:>14.6} {:>14.6} {:>+7.2}% {:>10}  {}",
                wa.workload,
                def.name,
                ma.value(),
                mb.value(),
                delta,
                allowed,
                v.as_str()
            );
        }
    }
    for wb in &b.workloads {
        if !a.workloads.iter().any(|w| w.workload == wb.workload) {
            let _ = writeln!(out, "{:<15} new in B (no baseline)", wb.workload);
        }
    }
    let _ = writeln!(out, "{}", if passes { "PASS" } else { "FAIL" });
    (out, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    /// A metric whose passes have median `value` and an inter-quartile
    /// range of `iqr` times the median.
    fn metric(name: &str, value: f64, iqr: f64) -> MetricValue {
        MetricValue {
            name: name.into(),
            unit: def(name).unit.into(),
            spread: Spread {
                median: value,
                q1: value * (1.0 - iqr / 2.0),
                q3: value * (1.0 + iqr / 2.0),
                n: 5,
            },
        }
    }

    fn workload(name: &str, values: &[(&str, f64)]) -> WorkloadReport {
        WorkloadReport {
            workload: name.into(),
            seed: 5,
            passes: 5,
            attempted: 10,
            failed: 0,
            errors: vec![],
            host_speed: Spread::of(&[1.0]),
            end_to_end: values.iter().map(|&(m, v)| metric(m, v, 0.02)).collect(),
            per_layer: vec![],
            extras: vec![],
            spans: vec![],
        }
    }

    fn run(rev: &str, workloads: Vec<WorkloadReport>) -> RunReport {
        RunReport {
            provenance: Provenance {
                git_rev: rev.into(),
                available_parallelism: 2,
                seed: 5,
                seconds: 20.0,
                build_profile: "release".into(),
                traced: false,
            },
            workloads,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = def("wall_s");
        let a = metric("wall_s", 100.0, 0.02);
        let v = |b: f64, iqr: f64| verdict(&a, &metric("wall_s", b, iqr), wall, false);
        assert_eq!(v(105.0, 0.02), Verdict::WithinBound);
        assert_eq!(v(111.0, 0.02), Verdict::Worse);
        assert_eq!(v(85.0, 0.02), Verdict::Better);
        // Passes spread 15 %, past the bound, but the median of five is
        // pinned to 8 %; at 30 % it is not.
        assert_eq!(v(100.0, 0.15), Verdict::WithinBound);
        assert_eq!(v(100.0, 0.3), Verdict::Unresolved);
        assert_eq!(
            v(150.0, 0.3),
            Verdict::Worse,
            "noise does not hide a regression"
        );

        let rps = def("requests_per_s");
        let a = metric("requests_per_s", 100.0, 0.02);
        let v = |b: f64| verdict(&a, &metric("requests_per_s", b, 0.02), rps, false);
        assert_eq!(v(85.0), Verdict::Worse);
        assert_eq!(v(115.0), Verdict::Better);
        assert_eq!(v(95.0), Verdict::WithinBound);
    }

    #[test]
    fn floors_keep_tiny_values_from_reading_as_regressions() {
        let setup = def("setup_s");
        let a = metric("setup_s", 0.0005, 0.1);
        let v = |b: f64| verdict(&a, &metric("setup_s", b, 0.1), setup, false);
        assert_eq!(
            v(0.003),
            Verdict::WithinBound,
            "6x, but 2.5 ms under the 5 ms floor"
        );
        assert_eq!(v(0.006), Verdict::Worse);
        let rss = def("peak_rss_mb");
        let a = metric("peak_rss_mb", 4.0, 0.0);
        assert_eq!(
            verdict(&a, &metric("peak_rss_mb", 7.5, 0.0), rss, false),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&a, &metric("peak_rss_mb", 8.5, 0.0), rss, false),
            Verdict::Worse
        );
    }

    /// Whatever the argument order, a pair further apart than the
    /// allowance cannot pass both ways.
    #[test]
    fn compare_cannot_pass_both_ways_past_the_bound() {
        for d in &END_TO_END {
            let base = if d.floor > 0.0 { 10.0 * d.floor } else { 1.0 };
            for step in 0..=60 {
                let ratio = 0.7 + 0.01 * step as f64;
                let (x, y) = (base, base * ratio);
                let ra = run("r1", vec![workload("w", &[(d.name, x)])]);
                let rb = run("r2", vec![workload("w", &[(d.name, y)])]);
                let forward = compare(&ra, &rb).1;
                let backward = compare(&rb, &ra).1;
                if (y - x).abs() > d.allowance(x) {
                    assert!(!(forward && backward), "{} at ratio {ratio}", d.name);
                }
                let (va, vb) = (metric(d.name, x, 0.0), metric(d.name, y, 0.0));
                let there = verdict(&va, &vb, d, false);
                let back = verdict(&vb, &va, d, false);
                assert_eq!(there == Verdict::Better, back == Verdict::Worse);
                assert_eq!(there == Verdict::Worse, back == Verdict::Better);
            }
        }
    }

    #[test]
    fn a_same_commit_drift_fails_in_either_direction() {
        let a = run("abc", vec![workload("w", &[("wall_s", 2.0)])]);
        let faster = run("abc", vec![workload("w", &[("wall_s", 1.75)])]);
        let (table, passes) = compare(&a, &faster);
        assert!(!passes, "{table}");
        assert!(table.contains("unrepeatable"));
        assert!(!compare(&faster, &a).1);
        let close = run("abc", vec![workload("w", &[("wall_s", 2.1)])]);
        assert!(compare(&a, &close).1);
        assert!(compare(&close, &a).1);
        // A faster commit is a gain, not drift.
        let other = run("def", vec![workload("w", &[("wall_s", 1.75)])]);
        assert!(compare(&a, &other).1);
    }

    #[test]
    fn a_failed_or_missing_workload_or_metric_fails_the_comparison() {
        let values = [("wall_s", 2.0), ("setup_s", 0.001)];
        let a = run("r1", vec![workload("w", &values), workload("v", &values)]);
        assert!(compare(&a, &a.clone()).1);

        let mut failed = a.clone();
        failed.workloads[0].failed = 1;
        failed.workloads[0]
            .errors
            .push("trial 3: output differs".into());
        let (table, passes) = compare(&a, &failed);
        assert!(!passes && table.contains("B failed 1 of 10"), "{table}");

        let mut crashed = a.clone();
        crashed.workloads[1].end_to_end.clear();
        assert!(!compare(&a, &crashed).1);

        let mut missing_metric = a.clone();
        missing_metric.workloads[0].end_to_end.remove(1);
        let (table, passes) = compare(&a, &missing_metric);
        assert!(
            !passes && table.contains("setup_s         missing from B"),
            "{table}"
        );

        let mut missing_workload = a.clone();
        missing_workload.workloads.remove(1);
        let (table, passes) = compare(&a, &missing_workload);
        assert!(!passes && table.contains("missing from B"), "{table}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = WorkloadReport {
            end_to_end: vec![MetricValue {
                name: "wall_s".into(),
                unit: "s".into(),
                spread: Spread::of(&[1.25, 1.5, 1.375]),
            }],
            attempted: 2,
            ..workload("dense", &[])
        };
        assert_eq!(
            r.result_line(false),
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":1.375,\"unit\":\"s\"}}}"
        );
    }
}
