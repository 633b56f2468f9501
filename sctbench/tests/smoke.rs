//! Smoke tests of the benchmark itself: every workload and drill runs
//! scaled down with every check on, the reference check is not vacuous,
//! and `BENCHMARK.json` matches the metric tables in the code.

use sctbench::workloads::{
    reference_values, run_workload, Reference, RunOptions, Workload, MIN_PASSES,
};
use sctbench::{per_layer, END_TO_END};
use serde::Deserialize;
use std::path::PathBuf;

const SCALE: f64 = 0.02;

/// `figures_serial` does not shrink: `figures` keeps quick's half-hour
/// warm-up, and its smoothing experiment needs at least one 900 s window
/// after it. Its 1 h trials are already 1/8 of `ExpOptions::quick()`'s.
fn scale_of(w: Workload) -> f64 {
    if w == Workload::FiguresSerial {
        1.0
    } else {
        SCALE
    }
}

fn options(w: Workload, seed: u64, traced: bool, tag: &str) -> RunOptions {
    let scratch = std::env::temp_dir().join(format!(
        "sctbench-test-{tag}-{}-{}",
        w.name(),
        std::process::id()
    ));
    RunOptions {
        seed,
        seconds: 0.0,
        traced,
        scale: scale_of(w),
        scratch,
        figures: PathBuf::from(env!("CARGO_BIN_EXE_figures")),
    }
}

#[test]
fn every_workload_and_drill_runs_scaled_down_with_all_checks() {
    for w in Workload::ALL {
        let opts = options(w, 7, true, "run");
        let report = run_workload(w, &opts);
        assert!(report.correct(), "{}", report.to_text());
        assert_eq!(report.passes, MIN_PASSES);
        assert_eq!(report.end_to_end.len(), END_TO_END.len(), "{}", w.name());
        for m in &report.end_to_end {
            assert!(
                m.value().is_finite() && m.value() > 0.0,
                "{}: {m:?}",
                w.name()
            );
        }
        let known = per_layer();
        assert!(!report.per_layer.is_empty());
        for m in &report.per_layer {
            assert!(known.iter().any(|d| d.name == m.name), "{}", m.name);
            assert!(m.value.is_finite(), "{}: {m:?}", w.name());
        }
        assert!(!report.spans.is_empty());
        assert!(!opts.scratch.exists(), "scratch directory left behind");
        let line = report.result_line(false);
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
    }
}

#[test]
fn a_perturbed_reference_value_fails_the_check() {
    for w in [Workload::PaperSmall, Workload::FiguresSerial] {
        let observed = reference_values(w, &options(w, 3, false, "reference"));
        assert!(!observed.trials.is_empty());
        assert!(observed.check(&observed).is_empty());

        let mut arrivals = observed.clone();
        arrivals.trials[0].summary.arrivals += 1;
        assert_eq!(arrivals.check(&observed).len(), 1);

        let mut within = observed.clone();
        within.trials[0].summary.utilization += 5e-5;
        assert!(within.check(&observed).is_empty(), "inside the tolerance");

        let mut utilization = observed.clone();
        utilization.trials[0].summary.utilization += 2e-4;
        assert_eq!(utilization.check(&observed).len(), 1);

        let mut acceptance = observed.clone();
        acceptance.trials[0].summary.acceptance -= 2e-4;
        assert_eq!(acceptance.check(&observed).len(), 1);

        if w == Workload::FiguresSerial {
            assert!(!observed.series.is_empty());
            let mut series = observed.clone();
            series.series[0].means[0] += 2e-4;
            assert_eq!(series.check(&observed).len(), 1);
        }
    }
}

#[test]
fn the_bundled_reference_covers_every_workload_with_the_labels_a_run_produces() {
    let reference = Reference::bundled();
    assert_eq!(reference.seed, 5);
    for w in Workload::ALL {
        let entry = reference
            .workload(w)
            .expect("every workload has reference values");
        let observed = reference_values(w, &options(w, 5, false, "labels"));
        let labels = |r: &sctbench::workloads::RefWorkload| {
            let mut l: Vec<String> = r.trials.iter().map(|t| t.label.clone()).collect();
            l.extend(r.series.iter().map(|s| s.label.clone()));
            l
        };
        assert_eq!(labels(entry), labels(&observed), "{}", w.name());
    }
}

#[derive(Deserialize)]
struct BenchmarkFile {
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<EndToEndEntry>,
    per_layer: Vec<PerLayerEntry>,
}

#[derive(Deserialize)]
struct WorkloadEntry {
    why: String,
}

#[derive(Deserialize)]
struct EndToEndEntry {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayerEntry {
    unit: String,
    better: String,
}

/// `BENCHMARK.json` as the code's tables describe it; printed on a
/// mismatch so the file can be regenerated after a metric changes.
fn expected_benchmark_json(run_seconds: u64) -> String {
    let q = |s: &str| serde_json::to_string(s).expect("strings serialize");
    let mut out = String::from("{\n  \"command\": [");
    out += &expected_command()
        .iter()
        .map(|s| q(s))
        .collect::<Vec<_>>()
        .join(", ");
    out += "],\n  \"paths\": [\"sctbench\"],\n";
    out += &format!("  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name()), q(w.why())))
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(&m.name),
                q(m.unit),
                q(m.better.as_str())
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

fn expected_command() -> Vec<&'static str> {
    vec!["bash", "sctbench/run.sh"]
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file: BenchmarkFile = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let expected = expected_benchmark_json(file.run_seconds);
    assert!(
        text == expected,
        "regenerate BENCHMARK.json as:\n{expected}"
    );
    // Limits on the file's shape and bounds.
    assert!((1..=60).contains(&file.run_seconds));
    assert!((2..=8).contains(&file.workloads.len()));
    assert!(file.workloads.iter().all(|w| w.why.len() <= 200));
    assert!(file.end_to_end.iter().all(|m| m.bound <= 0.25));
    let setup = file
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(file.end_to_end.iter().all(|m| m.bound <= setup.bound));
    assert!(file.per_layer.len() <= 128);
    assert!(file
        .per_layer
        .iter()
        .all(|m| m.unit.len() <= 16 && !m.better.is_empty()));
}
