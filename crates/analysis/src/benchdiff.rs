//! Structured comparator for benchmark result files.
//!
//! `sctsim bench-diff OLD.json NEW.json [--gate PCT]` compares two
//! bench reports (`results/BENCH_sim.json`, or anything with the same
//! shape: nested maps and arrays of cell maps with numeric leaves) and
//! names the worst-moved cell, replacing
//! eyeballed ratchet failures with an attributed report.
//!
//! The comparator is schema-free: both files are flattened to
//! `path → number` leaves. Array elements that carry identifying
//! fields (`scheduler`/`migration` for the grid) are labelled by those
//! ids rather than by index, so a reordered array still lines up. Each leaf is classified by its
//! name — throughput-like leaves (`events_per_sec`, `speedup`,
//! `floor`) regress when they *drop*, cost-like leaves (`wall_secs`,
//! `overhead_pct`) regress when they *rise*, anything else is
//! informational — and the regression is expressed as a percentage of
//! the old value. [`BenchDiff::gate`] returns the leaves whose
//! regression exceeds a threshold.

use serde::{DeError, Deserialize, Value};
use std::fmt::Write as _;

/// Which direction of movement counts as a regression for a leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a drop is a regression.
    HigherBetter,
    /// Cost-like: a rise is a regression.
    LowerBetter,
    /// Informational: never gated.
    Info,
}

/// One numeric leaf present in either file.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDelta {
    /// Flattened path, e.g. `huge.rows[4s].events_per_sec`.
    pub path: String,
    /// Value in the old file.
    pub old: f64,
    /// Value in the new file.
    pub new: f64,
    /// Leaf classification.
    pub direction: Direction,
    /// Signed regression as a percentage of `old`: positive means the
    /// leaf moved in the bad direction. Always 0 for [`Direction::Info`].
    pub regression_pct: f64,
}

/// The full comparison of two bench reports.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDiff {
    /// Leaves present in both files, worst movement first.
    pub cells: Vec<CellDelta>,
    /// Leaf paths only in the new file.
    pub added: Vec<String>,
    /// Leaf paths only in the old file.
    pub removed: Vec<String>,
}

/// Raw-tree wrapper so `serde_json::from_str` hands back the parsed
/// [`Value`] without a schema.
struct RawValue(Value);

impl Deserialize for RawValue {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(RawValue(v.clone()))
    }
}

fn classify(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf.contains("events_per_sec") || leaf.contains("speedup") || leaf.contains("floor") {
        Direction::HigherBetter
    } else if leaf.contains("wall_secs") || leaf.contains("overhead_pct") {
        Direction::LowerBetter
    } else {
        Direction::Info
    }
}

/// Label for an array element: identifying fields when present, else
/// the element index.
fn element_label(v: &Value, index: usize) -> String {
    if let Some(map) = v.as_map() {
        let get = |key: &str| -> Option<String> {
            map.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
                Value::Str(s) => s.clone(),
                Value::Int(i) => i.to_string(),
                Value::Num(n) => format!("{n}"),
                Value::Bool(b) => b.to_string(),
                _ => String::new(),
            })
        };
        if let (Some(s), Some(m)) = (get("scheduler"), get("migration")) {
            return format!("[{s},{m}]");
        }
    }
    format!("[{index}]")
}

fn flatten(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Int(i) => out.push((prefix.to_string(), *i as f64)),
        Value::Num(n) => out.push((prefix.to_string(), *n)),
        Value::Map(entries) => {
            for (k, child) in entries {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, child, out);
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                let path = format!("{prefix}{}", element_label(child, i));
                flatten(&path, child, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Flattens one bench report to its numeric leaves.
fn leaves(text: &str, which: &str) -> Result<Vec<(String, f64)>, String> {
    let raw: RawValue =
        serde_json::from_str(text).map_err(|e| format!("invalid {which} bench file: {e}"))?;
    let mut out = Vec::new();
    flatten("", &raw.0, &mut out);
    Ok(out)
}

/// Compares two bench report texts.
pub fn diff(old_text: &str, new_text: &str) -> Result<BenchDiff, String> {
    let old = leaves(old_text, "old")?;
    let new = leaves(new_text, "new")?;
    let mut cells = Vec::new();
    let mut removed = Vec::new();
    for (path, o) in &old {
        match new.iter().find(|(p, _)| p == path) {
            Some((_, n)) => {
                let direction = classify(path);
                let regression_pct = if *o != 0.0 {
                    match direction {
                        Direction::HigherBetter => (o - n) / o.abs() * 100.0,
                        Direction::LowerBetter => (n - o) / o.abs() * 100.0,
                        Direction::Info => 0.0,
                    }
                } else {
                    0.0
                };
                cells.push(CellDelta {
                    path: path.clone(),
                    old: *o,
                    new: *n,
                    direction,
                    regression_pct,
                });
            }
            None => removed.push(path.clone()),
        }
    }
    let added = new
        .iter()
        .filter(|(p, _)| !old.iter().any(|(q, _)| q == p))
        .map(|(p, _)| p.clone())
        .collect();
    cells.sort_by(|a, b| {
        b.regression_pct
            .partial_cmp(&a.regression_pct)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    Ok(BenchDiff {
        cells,
        added,
        removed,
    })
}

impl BenchDiff {
    /// The worst-moved gated leaf, if any leaf is gated at all.
    pub fn worst(&self) -> Option<&CellDelta> {
        self.cells.iter().find(|c| c.direction != Direction::Info)
    }

    /// Gated leaves whose regression exceeds `pct`.
    pub fn gate(&self, pct: f64) -> Vec<&CellDelta> {
        self.cells
            .iter()
            .filter(|c| c.direction != Direction::Info && c.regression_pct > pct)
            .collect()
    }

    /// Renders the comparison table, worst movement first.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# Bench diff");
        let _ = writeln!(
            s,
            "{:<44} {:>14} {:>14} {:>9}  dir",
            "cell", "old", "new", "moved%"
        );
        for c in &self.cells {
            let dir = match c.direction {
                Direction::HigherBetter => "higher-better",
                Direction::LowerBetter => "lower-better",
                Direction::Info => "info",
            };
            let moved = if c.direction == Direction::Info {
                // Show raw relative movement for context, unsigned by
                // goodness.
                if c.old != 0.0 {
                    (c.new - c.old) / c.old.abs() * 100.0
                } else {
                    0.0
                }
            } else {
                c.regression_pct
            };
            let _ = writeln!(
                s,
                "{:<44} {:>14.4} {:>14.4} {:>+9.2}  {dir}",
                c.path, c.old, c.new, moved
            );
        }
        for p in &self.added {
            let _ = writeln!(s, "added:   {p}");
        }
        for p in &self.removed {
            let _ = writeln!(s, "removed: {p}");
        }
        match self.worst() {
            Some(w) if w.regression_pct > 0.0 => {
                let _ = writeln!(
                    s,
                    "worst-moved cell: {} ({:+.2}% regression, {:.4} -> {:.4})",
                    w.path, w.regression_pct, w.old, w.new
                );
            }
            _ => {
                let _ = writeln!(s, "worst-moved cell: none regressed");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
      "grid": [
        {"scheduler": "eftf", "migration": "single_hop", "events_per_sec": 1000.0, "events": 500},
        {"scheduler": "fcfs", "migration": "none", "events_per_sec": 900.0, "events": 500}
      ],
      "huge": {"events_per_sec": 61845.1, "wall_secs": 2.0},
      "probe_overhead": {"overhead_pct": 3.26},
      "floor": 883006.0
    }"#;

    const NEW: &str = r#"{
      "grid": [
        {"scheduler": "fcfs", "migration": "none", "events_per_sec": 950.0, "events": 500},
        {"scheduler": "eftf", "migration": "single_hop", "events_per_sec": 800.0, "events": 500}
      ],
      "huge": {"events_per_sec": 70000.0, "wall_secs": 1.8},
      "probe_overhead": {"overhead_pct": 4.0},
      "floor": 883006.0,
      "trace_overhead": {"overhead_pct": 1.1}
    }"#;

    #[test]
    fn labels_cells_by_ids_and_survives_reordering() {
        let d = diff(OLD, NEW).unwrap();
        let eftf = d
            .cells
            .iter()
            .find(|c| c.path == "grid[eftf,single_hop].events_per_sec")
            .expect("labelled by scheduler+migration despite reorder");
        assert_eq!(eftf.old, 1000.0);
        assert_eq!(eftf.new, 800.0);
        assert!((eftf.regression_pct - 20.0).abs() < 1e-9);
        let huge = d
            .cells
            .iter()
            .find(|c| c.path == "huge.events_per_sec")
            .expect("nested map leaves are paths");
        assert!(
            huge.regression_pct < 0.0,
            "improvement is negative regression"
        );
    }

    #[test]
    fn directions_classify_throughput_cost_and_info() {
        let d = diff(OLD, NEW).unwrap();
        let by = |p: &str| d.cells.iter().find(|c| c.path == p).unwrap();
        assert_eq!(by("huge.events_per_sec").direction, Direction::HigherBetter);
        assert_eq!(by("huge.wall_secs").direction, Direction::LowerBetter);
        assert_eq!(
            by("probe_overhead.overhead_pct").direction,
            Direction::LowerBetter
        );
        assert_eq!(by("floor").direction, Direction::HigherBetter);
        assert_eq!(by("grid[fcfs,none].events").direction, Direction::Info);
        // wall_secs dropped 10%: an improvement for a lower-better leaf.
        assert!(by("huge.wall_secs").regression_pct < 0.0);
    }

    #[test]
    fn gate_names_the_worst_moved_cell() {
        let d = diff(OLD, NEW).unwrap();
        // Worst mover overall is the 20% eftf drop (overhead_pct rose
        // 22.7% — check ordering handles both).
        let worst = d.worst().unwrap();
        assert_eq!(worst.path, "probe_overhead.overhead_pct");
        assert!(
            (worst.regression_pct - 22.699).abs() < 0.01,
            "{}",
            worst.regression_pct
        );
        let gated = d.gate(15.0);
        assert_eq!(gated.len(), 2);
        assert!(d.gate(25.0).is_empty());
        let text = d.to_text();
        assert!(
            text.contains("worst-moved cell: probe_overhead.overhead_pct"),
            "{text}"
        );
    }

    #[test]
    fn added_and_removed_leaves_are_reported() {
        let d = diff(OLD, NEW).unwrap();
        assert!(
            d.added.iter().any(|p| p == "trace_overhead.overhead_pct"),
            "{:?}",
            d.added
        );
        assert!(d.removed.is_empty());
        let back = diff(NEW, OLD).unwrap();
        assert!(back
            .removed
            .iter()
            .any(|p| p == "trace_overhead.overhead_pct"));
    }

    #[test]
    fn invalid_json_is_an_error_not_a_panic() {
        assert!(diff("{nope", "{}").is_err());
        assert!(diff("{}", "[1,").is_err());
        let empty = diff("{}", "{}").unwrap();
        assert!(empty.cells.is_empty());
        assert!(empty.to_text().contains("none regressed"));
    }
}
