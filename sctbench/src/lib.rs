//! `sctbench`: the benchmark of the semi-continuous transmission simulator.
//!
//! Four workloads run at steady state ([`workloads`]), each checked for
//! correctness while it is timed. End-to-end metrics come from untraced
//! passes; a traced run adds per-layer metrics measured from outside the
//! program, through each layer's public functions ([`drills`], and the
//! per-event stamps of [`probe::RequestProbe`]). [`report`] holds the
//! report format and the `compare` verdicts. End-to-end times are scaled
//! to reference seconds by a calibration kernel run around every timed
//! unit ([`calib`]). See README.md for the workloads, metrics and bounds.

#![forbid(unsafe_code)]

pub mod calib;
pub mod drills;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use serde::{Deserialize, Serialize};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator waits on or pays.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline value by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Smallest allowed change, in the metric's unit, for a metric whose
    /// value is so small that its share would sit inside the clock's
    /// noise. Only lower-is-better metrics have one.
    pub floor: f64,
}

impl EndToEnd {
    /// How far a value may move from `base` and still be the same
    /// measurement: the bound's share of `base`, or the floor if larger.
    pub fn allowance(&self, base: f64) -> f64 {
        (self.bound * base.abs()).max(self.floor)
    }
}

/// The end-to-end metrics, reported for every workload. Names, units,
/// directions and bounds must agree with `BENCHMARK.json` at the
/// repository root (a test checks this); the floors are applied by
/// `sctbench compare` only, because `BENCHMARK.json` bounds are shares.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        floor: 0.0,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        floor: 4.0,
    },
];

/// A per-layer metric of the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct PerLayer {
    /// Metric name, `layer.…`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// Streams per server of the transmission drill: the Small, Large,
/// `dense` and `huge` layouts.
pub const ENGINE_SIZES: [usize; 4] = [33, 100, 1000, 4000];
/// Pending depths of the event-queue hold drill: the Small, Large and
/// `huge` layouts.
pub const QUEUE_DEPTHS: [usize; 3] = [5, 20, 256];

/// Every per-layer metric a traced run of any workload reports, in report
/// order. Must agree with `BENCHMARK.json` (a test checks this).
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut push = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better })
    };
    for s in ENGINE_SIZES {
        for op in ["advance", "reap", "admit", "reschedule"] {
            for p in ["p50", "p99"] {
                push(
                    format!("transmission.s{s}.{op}_ns.{p}"),
                    "ns",
                    Better::Lower,
                );
            }
        }
        push(
            format!("transmission.s{s}.wake_ns.p50"),
            "ns",
            Better::Lower,
        );
    }
    for k in ["lff", "prop", "none"] {
        push(
            format!("transmission.s100.{k}.wake_ns.p50"),
            "ns",
            Better::Lower,
        );
    }
    push(
        "transmission.wake_growth_4000_vs_33".into(),
        "ratio",
        Better::Lower,
    );
    for d in QUEUE_DEPTHS {
        for p in ["p50", "p99"] {
            push(
                format!("simcore.queue.d{d}.hold_ns.{p}"),
                "ns",
                Better::Lower,
            );
        }
    }
    for p in ["p50", "p99"] {
        push(format!("workload.next_request_ns.{p}"), "ns", Better::Lower);
    }
    for path in ["direct", "migrated", "rejected"] {
        for p in ["p50", "p99"] {
            push(
                format!("admission.admit_ns.{path}.{p}"),
                "ns",
                Better::Lower,
            );
        }
    }
    push("admission.migration_yield".into(), "ratio", Better::Higher);
    push("cluster.place_ms".into(), "ms", Better::Lower);
    push("media.catalog_ms".into(), "ms", Better::Lower);
    push("core.events_per_s".into(), "1/s", Better::Higher);
    push("core.events_per_request".into(), "count", Better::Lower);
    for g in ["arrival", "completed", "other"] {
        for p in ["p50", "p99"] {
            push(format!("core.gap_ns.{g}.{p}"), "ns", Better::Lower);
        }
    }
    push("core.probe_overhead_pct".into(), "%", Better::Lower);
    push("core.trace_overhead_pct".into(), "%", Better::Lower);
    push("analysis.spans_perfetto_s".into(), "s", Better::Lower);
    push("analysis.spans_perfetto_mb".into(), "MB", Better::Lower);
    push("analysis.timeseries_json_s".into(), "s", Better::Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_apply_to_lower_is_better_metrics_only() {
        for m in END_TO_END {
            assert!(m.floor >= 0.0);
            assert!(m.better == Better::Lower || m.floor == 0.0, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.allowance(0.0005), 0.005);
        assert_eq!(setup.allowance(0.1), 0.025);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let defs = per_layer();
        assert!(defs.len() <= 128);
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len());
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
