//! The flight-recorder wire schema: fixed-width virtual-time windows.
//!
//! A [`TimeSeriesRecording`] is what `sctsim run --timeseries FILE`
//! exports: the event stream and state-view boundary publications folded
//! into fixed-width windows of virtual time ([`WindowRow`]), plus the
//! alerts an online [`crate::slo`] policy fired while the windows closed.
//! Both are a pure fold of the event stream and state views, hence
//! bit-identical across repeated runs of one configuration. (Recordings
//! written while the loop could be sharded also carry a `shards` array;
//! the reader ignores it.)
//!
//! [`TimeSeriesRecording::merge`] folds trials together the way
//! `MetricsSnapshot` does (counters add, means average), [`diff`] aligns
//! two recordings window-by-window to localize when and where runs
//! diverge, and [`render_dashboard`] draws the terminal dashboard
//! `sctsim watch` displays.

use crate::slo::SloAlert;
use serde::{Deserialize, Serialize};

/// One closed window: event counts over `[start, start+span)` and
/// time-weighted gauge means over the same interval.
///
/// Counters count *every* event from virtual time zero (warm-up
/// included), so summing a counter over all windows reproduces the
/// run-level `MetricsSnapshot` counter exactly. Utilization instead
/// honours the measurement convention: it integrates only over the
/// window's overlap with `[warmup, duration]` (`measured_secs`), so the
/// measured-seconds-weighted mean over all windows reproduces
/// `SimOutcome.utilization`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowRow {
    /// Zero-based window index.
    pub index: u32,
    /// Window start, virtual seconds.
    pub start_secs: f64,
    /// Window width, seconds (the last window may be truncated).
    pub span_secs: f64,
    /// Overlap of the window with the measurement interval
    /// `[warmup, duration]`, seconds.
    pub measured_secs: f64,
    /// Requests that arrived (admitted + rejected).
    pub arrivals: u64,
    /// Requests admitted with a free slot.
    pub admitted: u64,
    /// Requests admitted via single-victim migration (DRM).
    pub admitted_drm: u64,
    /// Requests admitted via a two-step migration chain.
    pub admitted_chained: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Viewer streams that finished.
    pub completions: u64,
    /// Planned stream relocations (DRM hand-offs).
    pub migrations: u64,
    /// Emergency relocations off failed servers.
    pub evacuations: u64,
    /// Server failures.
    pub failures: u64,
    /// Server repairs.
    pub repairs: u64,
    /// Streams dropped by failures.
    pub dropped: u64,
    /// Viewer pauses.
    pub pauses: u64,
    /// Viewer resumes.
    pub resumes: u64,
    /// Replication copies started.
    pub copies_started: u64,
    /// Replication copies finished (installed or aborted).
    pub copies_done: u64,
    /// Requests that entered the waitlist.
    pub waitlist_queued: u64,
    /// Waitlisted requests finally served.
    pub waitlist_served: u64,
    /// Waiters that gave up.
    pub waitlist_expired: u64,
    /// Time-weighted mean waitlist depth over the window.
    pub waitlist_depth: f64,
    /// Time-weighted mean active streams over the window.
    pub active_streams: f64,
    /// Staged megabits across all client buffers, sampled at the
    /// window's first event boundary (carried forward through windows
    /// with no events). A sample, not a mean: the aggregate walks every
    /// stream, so the recorder reads it once per window.
    pub staged_mb: f64,
    /// Cluster utilization over the window's measured overlap (0 when
    /// the window lies entirely inside the warm-up).
    pub utilization: f64,
    /// Per-server utilization over the measured overlap, by server.
    pub server_utilization: Vec<f64>,
}

impl WindowRow {
    /// The window metrics [`WindowRow::metric`] resolves, in diff order:
    /// the raw counters, then the gauges (derived rates resolve too but
    /// are redundant for diffing).
    pub const METRICS: [&'static str; 22] = [
        "arrivals",
        "admitted",
        "admitted_drm",
        "admitted_chained",
        "rejected",
        "completions",
        "migrations",
        "evacuations",
        "failures",
        "repairs",
        "dropped",
        "pauses",
        "resumes",
        "copies_started",
        "copies_done",
        "waitlist_queued",
        "waitlist_served",
        "waitlist_expired",
        "waitlist_depth",
        "active_streams",
        "staged_mb",
        "utilization",
    ];

    /// An all-zero window covering `[start_secs, start_secs+span_secs)`.
    pub fn empty(
        index: u32,
        start_secs: f64,
        span_secs: f64,
        measured_secs: f64,
        n_servers: usize,
    ) -> WindowRow {
        WindowRow {
            index,
            start_secs,
            span_secs,
            measured_secs,
            arrivals: 0,
            admitted: 0,
            admitted_drm: 0,
            admitted_chained: 0,
            rejected: 0,
            completions: 0,
            migrations: 0,
            evacuations: 0,
            failures: 0,
            repairs: 0,
            dropped: 0,
            pauses: 0,
            resumes: 0,
            copies_started: 0,
            copies_done: 0,
            waitlist_queued: 0,
            waitlist_served: 0,
            waitlist_expired: 0,
            waitlist_depth: 0.0,
            active_streams: 0.0,
            staged_mb: 0.0,
            utilization: 0.0,
            server_utilization: vec![0.0; n_servers],
        }
    }

    /// Resolves a metric by name: every [`WindowRow::METRICS`] entry,
    /// `server_utilization/<i>`, and the derived per-second rates
    /// (`arrival_rate`, `rejection_rate`, `migration_rate`, `drm_rate`,
    /// `chain2_rate`, `evacuation_rate`, `completion_rate`) plus the
    /// dimensionless `rejection_ratio` (`rejected / arrivals`, 0 when
    /// idle). Unknown names return `None`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        if let Some(idx) = name.strip_prefix("server_utilization/") {
            let idx: usize = idx.parse().ok()?;
            return self.server_utilization.get(idx).copied();
        }
        let per_sec = |count: u64| count as f64 / self.span_secs;
        Some(match name {
            "arrivals" => self.arrivals as f64,
            "admitted" => self.admitted as f64,
            "admitted_drm" => self.admitted_drm as f64,
            "admitted_chained" => self.admitted_chained as f64,
            "rejected" => self.rejected as f64,
            "completions" => self.completions as f64,
            "migrations" => self.migrations as f64,
            "evacuations" => self.evacuations as f64,
            "failures" => self.failures as f64,
            "repairs" => self.repairs as f64,
            "dropped" => self.dropped as f64,
            "pauses" => self.pauses as f64,
            "resumes" => self.resumes as f64,
            "copies_started" => self.copies_started as f64,
            "copies_done" => self.copies_done as f64,
            "waitlist_queued" => self.waitlist_queued as f64,
            "waitlist_served" => self.waitlist_served as f64,
            "waitlist_expired" => self.waitlist_expired as f64,
            "waitlist_depth" => self.waitlist_depth,
            "active_streams" => self.active_streams,
            "staged_mb" => self.staged_mb,
            "utilization" => self.utilization,
            "arrival_rate" => per_sec(self.arrivals),
            "rejection_rate" => per_sec(self.rejected),
            "migration_rate" => per_sec(self.migrations),
            "drm_rate" => per_sec(self.admitted_drm),
            "chain2_rate" => per_sec(self.admitted_chained),
            "evacuation_rate" => per_sec(self.evacuations),
            "completion_rate" => per_sec(self.completions),
            "rejection_ratio" => {
                if self.arrivals == 0 {
                    0.0
                } else {
                    self.rejected as f64 / self.arrivals as f64
                }
            }
            _ => return None,
        })
    }
}

/// A complete flight-recorder export (see the module docs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesRecording {
    /// Schema version (1).
    pub version: u32,
    /// Trials merged into this recording.
    pub trials: u32,
    /// Window width, seconds.
    pub window_secs: f64,
    /// Warm-up length, seconds (utilization measurement starts here).
    pub warmup_secs: f64,
    /// Run duration, seconds.
    pub duration_secs: f64,
    /// Servers in the cluster.
    pub n_servers: u32,
    /// The windowed series, in window order.
    pub windows: Vec<WindowRow>,
    /// Alerts the online SLO policy fired, in window order (then trial
    /// order after a merge).
    pub alerts: Vec<SloAlert>,
}

impl TimeSeriesRecording {
    /// Parses a recording from its JSON export.
    pub fn from_json(text: &str) -> Result<TimeSeriesRecording, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid time-series recording: {e}"))
    }

    /// Serialises the recording as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("recording serialises")
    }

    /// Tags every alert with the trial that produced it (call before
    /// merging per-trial recordings).
    pub fn set_trial(&mut self, trial: u32) {
        for a in &mut self.alerts {
            a.trial = trial;
        }
    }

    /// Merges another trial of the *same configuration* into this
    /// recording: counters add, gauge means average
    /// weighted by trial count, alerts concatenate. Errs when the window
    /// grids or cluster shapes disagree.
    pub fn merge(&mut self, other: &TimeSeriesRecording) -> Result<(), String> {
        if self.window_secs != other.window_secs
            || self.windows.len() != other.windows.len()
            || self.n_servers != other.n_servers
            || self.warmup_secs != other.warmup_secs
            || self.duration_secs != other.duration_secs
        {
            return Err(format!(
                "incompatible recordings: {}x{}s windows over {} servers vs {}x{}s over {}",
                self.windows.len(),
                self.window_secs,
                self.n_servers,
                other.windows.len(),
                other.window_secs,
                other.n_servers,
            ));
        }
        let (wa, wb) = (self.trials as f64, other.trials as f64);
        let avg = |a: f64, b: f64| (a * wa + b * wb) / (wa + wb);
        for (w, o) in self.windows.iter_mut().zip(&other.windows) {
            w.arrivals += o.arrivals;
            w.admitted += o.admitted;
            w.admitted_drm += o.admitted_drm;
            w.admitted_chained += o.admitted_chained;
            w.rejected += o.rejected;
            w.completions += o.completions;
            w.migrations += o.migrations;
            w.evacuations += o.evacuations;
            w.failures += o.failures;
            w.repairs += o.repairs;
            w.dropped += o.dropped;
            w.pauses += o.pauses;
            w.resumes += o.resumes;
            w.copies_started += o.copies_started;
            w.copies_done += o.copies_done;
            w.waitlist_queued += o.waitlist_queued;
            w.waitlist_served += o.waitlist_served;
            w.waitlist_expired += o.waitlist_expired;
            w.waitlist_depth = avg(w.waitlist_depth, o.waitlist_depth);
            w.active_streams = avg(w.active_streams, o.active_streams);
            w.staged_mb = avg(w.staged_mb, o.staged_mb);
            w.utilization = avg(w.utilization, o.utilization);
            for (s, os) in w.server_utilization.iter_mut().zip(&o.server_utilization) {
                *s = avg(*s, *os);
            }
        }
        self.alerts.extend(other.alerts.iter().cloned());
        self.trials += other.trials;
        Ok(())
    }
}

/// The first window/metric where two recordings part ways.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffPoint {
    /// Window index.
    pub window: u32,
    /// Window start, virtual seconds.
    pub start_secs: f64,
    /// The diverging metric.
    pub metric: String,
    /// Value in recording A.
    pub a: f64,
    /// Value in recording B.
    pub b: f64,
}

/// Result of aligning two recordings window-by-window.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordingDiff {
    /// Windows compared.
    pub windows: u32,
    /// The earliest divergence (window-major, then metric order), or
    /// `None` when the series agree within tolerance everywhere.
    pub first: Option<DiffPoint>,
    /// `(metric, divergent window count)` for every metric that diverged
    /// anywhere, in metric order.
    pub per_metric: Vec<(String, u32)>,
}

impl RecordingDiff {
    /// Human-readable report: the triage summary `sctsim diff` prints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        match &self.first {
            None => {
                out.push_str(&format!(
                    "recordings agree: {} windows, no metric diverged\n",
                    self.windows
                ));
            }
            Some(p) => {
                out.push_str(&format!(
                    "first divergence: window {} (t = {:.0}s) metric {} (a = {}, b = {})\n",
                    p.window, p.start_secs, p.metric, p.a, p.b
                ));
                out.push_str(&format!(
                    "divergent metrics ({} windows compared):\n",
                    self.windows
                ));
                for (name, count) in &self.per_metric {
                    out.push_str(&format!("  {name}: {count} window(s)\n"));
                }
            }
        }
        out
    }
}

/// Aligns two recordings window-by-window and reports where they
/// diverge: every [`WindowRow::METRICS`] entry and per-server
/// utilization. Floats compare with absolute tolerance `tol`. Errs when the window
/// grids are incomparable.
pub fn diff(
    a: &TimeSeriesRecording,
    b: &TimeSeriesRecording,
    tol: f64,
) -> Result<RecordingDiff, String> {
    if a.window_secs != b.window_secs || a.windows.len() != b.windows.len() {
        return Err(format!(
            "recordings are not comparable: {} windows of {}s vs {} of {}s",
            a.windows.len(),
            a.window_secs,
            b.windows.len(),
            b.window_secs
        ));
    }
    if a.n_servers != b.n_servers {
        return Err(format!(
            "recordings are not comparable: {} servers vs {}",
            a.n_servers, b.n_servers
        ));
    }
    let mut metrics: Vec<String> = WindowRow::METRICS.iter().map(|m| m.to_string()).collect();
    for i in 0..a.n_servers {
        metrics.push(format!("server_utilization/{i}"));
    }
    let mut first: Option<DiffPoint> = None;
    let mut counts: Vec<u32> = vec![0; metrics.len()];
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        for (mi, name) in metrics.iter().enumerate() {
            let (va, vb) = (
                wa.metric(name).expect("known metric"),
                wb.metric(name).expect("known metric"),
            );
            if (va - vb).abs() > tol {
                counts[mi] += 1;
                if first.is_none() {
                    first = Some(DiffPoint {
                        window: wa.index,
                        start_secs: wa.start_secs,
                        metric: name.clone(),
                        a: va,
                        b: vb,
                    });
                }
            }
        }
    }
    let per_metric = metrics
        .into_iter()
        .zip(counts)
        .filter(|(_, n)| *n > 0)
        .collect();
    Ok(RecordingDiff {
        windows: a.windows.len() as u32,
        first,
        per_metric,
    })
}

/// Scales a series onto the eight-level block ramp, `cols` characters
/// wide (series longer than `cols` average down into buckets). A flat
/// series renders as the lowest block.
fn sparkline(values: &[f64], cols: usize) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || cols == 0 {
        return String::new();
    }
    let buckets: Vec<f64> = if values.len() <= cols {
        values.to_vec()
    } else {
        (0..cols)
            .map(|c| {
                let lo = c * values.len() / cols;
                let hi = ((c + 1) * values.len() / cols).max(lo + 1);
                values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    };
    let lo = buckets.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = buckets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    buckets
        .iter()
        .map(|&v| {
            if hi <= lo {
                RAMP[0]
            } else {
                let level = ((v - lo) / (hi - lo) * 7.0).round() as usize;
                RAMP[level.min(7)]
            }
        })
        .collect()
}

/// Renders the terminal dashboard `sctsim watch` shows: a header, a
/// sparkline per headline metric and the alert tail. Pure text,
/// deterministic.
pub fn render_dashboard(rec: &TimeSeriesRecording, cols: usize) -> String {
    let cols = cols.clamp(10, 200);
    let mut out = format!(
        "Time-series recording: {} windows x {:.0}s, {} trial{}, {} servers\n\n",
        rec.windows.len(),
        rec.window_secs,
        rec.trials,
        if rec.trials == 1 { "" } else { "s" },
        rec.n_servers,
    );
    let rows: [(&str, &str); 7] = [
        ("utilization", "utilization"),
        ("arrival_rate", "arrivals/s"),
        ("rejection_ratio", "rejection ratio"),
        ("active_streams", "active streams"),
        ("waitlist_depth", "waitlist depth"),
        ("staged_mb", "staged Mb"),
        ("migration_rate", "migrations/s"),
    ];
    for (metric, label) in &rows {
        let series: Vec<f64> = rec
            .windows
            .iter()
            .map(|w| w.metric(metric).unwrap_or(0.0))
            .collect();
        let last = series.last().copied().unwrap_or(0.0);
        let mean = if series.is_empty() {
            0.0
        } else {
            series.iter().sum::<f64>() / series.len() as f64
        };
        out.push_str(&format!(
            "{label:>16}  last {last:>9.3}  mean {mean:>9.3}  {}\n",
            sparkline(&series, cols)
        ));
    }
    out.push('\n');
    if rec.alerts.is_empty() {
        out.push_str("alerts: none\n");
    } else {
        out.push_str(&format!("alerts ({}):\n", rec.alerts.len()));
        for a in &rec.alerts {
            out.push_str(&format!(
                "  [trial {} window {} @ {:.0}s] {}: {} = {:.4} vs {:.4}\n",
                a.trial, a.window, a.time_secs, a.rule, a.metric, a.value, a.threshold
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording(seed: u64) -> TimeSeriesRecording {
        let mut windows = Vec::new();
        for i in 0..4u32 {
            let mut w = WindowRow::empty(i, i as f64 * 100.0, 100.0, 100.0, 2);
            w.arrivals = 10 + i as u64 + seed;
            w.admitted = 8 + i as u64;
            w.rejected = 2 + seed;
            w.utilization = 0.5 + 0.1 * i as f64;
            w.server_utilization = vec![0.4, 0.6];
            windows.push(w);
        }
        TimeSeriesRecording {
            version: 1,
            trials: 1,
            window_secs: 100.0,
            warmup_secs: 0.0,
            duration_secs: 400.0,
            n_servers: 2,
            windows,
            alerts: vec![SloAlert {
                trial: 0,
                window: 2,
                time_secs: 300.0,
                rule: "r".into(),
                metric: "utilization".into(),
                value: 0.7,
                threshold: 0.6,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let rec = recording(0);
        let back = TimeSeriesRecording::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        assert!(TimeSeriesRecording::from_json("nope").is_err());
    }

    #[test]
    fn metric_resolves_rates_and_per_server() {
        let rec = recording(0);
        let w = &rec.windows[1];
        assert_eq!(w.metric("arrivals"), Some(11.0));
        assert_eq!(w.metric("arrival_rate"), Some(0.11));
        assert_eq!(w.metric("server_utilization/1"), Some(0.6));
        assert_eq!(w.metric("server_utilization/9"), None);
        assert_eq!(w.metric("made_up"), None);
        let ratio = w.metric("rejection_ratio").unwrap();
        assert!((ratio - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters_and_averages_gauges() {
        let mut a = recording(0);
        let b = recording(0);
        a.merge(&b).unwrap();
        assert_eq!(a.trials, 2);
        assert_eq!(a.windows[0].arrivals, 20);
        assert!((a.windows[0].utilization - 0.5).abs() < 1e-12);
        assert_eq!(a.alerts.len(), 2);
        // Weighted average: merging a third trial with weight 1 vs 2.
        let mut c = recording(0);
        c.windows[0].utilization = 0.8;
        a.merge(&c).unwrap();
        assert!((a.windows[0].utilization - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_rejects_incompatible_grids() {
        let mut a = recording(0);
        let mut b = recording(0);
        b.window_secs = 50.0;
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn diff_finds_first_divergent_window_and_metric() {
        let a = recording(0);
        let mut b = recording(0);
        b.windows[2].admitted += 1;
        b.windows[3].utilization += 0.5;
        let d = diff(&a, &b, 1e-9).unwrap();
        let first = d.first.unwrap();
        assert_eq!(first.window, 2);
        assert_eq!(first.metric, "admitted");
        assert_eq!((first.a, first.b), (10.0, 11.0));
        assert_eq!(d.per_metric.len(), 2);
        let text = diff(&a, &b, 1e-9).unwrap().to_text();
        assert!(text.contains("first divergence: window 2"), "{text}");
        assert!(text.contains("admitted"), "{text}");
    }

    #[test]
    fn diff_tolerance_and_identity() {
        let a = recording(0);
        let mut b = recording(0);
        b.windows[1].staged_mb += 1e-12;
        assert!(diff(&a, &b, 1e-9).unwrap().first.is_none());
        let d = diff(&a, &a, 0.0).unwrap();
        assert!(d.first.is_none());
        assert!(d.to_text().contains("recordings agree"));
        let mut c = recording(0);
        c.windows.pop();
        assert!(diff(&a, &c, 1e-9).is_err());
    }

    #[test]
    fn dashboard_renders_headlines_and_alerts() {
        let text = render_dashboard(&recording(0), 60);
        assert!(text.contains("4 windows x 100s"));
        assert!(text.contains("utilization"));
        assert!(text.contains("arrivals/s"));
        assert!(text.contains("alerts (1):"));
        assert!(text.contains('▁'), "sparkline missing:\n{text}");
        let mut quiet = recording(0);
        quiet.alerts.clear();
        let text = render_dashboard(&quiet, 60);
        assert!(text.contains("alerts: none"));
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0], 10), "▁▁▁");
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
        // Downsampling: 100 points into 10 columns, monotone ramp.
        let long: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = sparkline(&long, 10);
        assert_eq!(s.chars().count(), 10);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
    }
}
