//! The flight recorder: folds a trial into fixed-width virtual-time
//! windows, online.
//!
//! [`TimeSeriesProbe`] is a pure observer (attach it and outcomes stay
//! bit-identical — the golden snapshots prove it) that accumulates two
//! kinds of series while the simulation runs:
//!
//! * **Event counters** per window — arrivals, admissions by path,
//!   rejections, completions, migrations vs evacuations, failures,
//!   copies, waitlist traffic. Every event from virtual time zero
//!   counts, so window sums reproduce the run-level `MetricsSnapshot`
//!   counters exactly.
//! * **Gauge integrals** per window — cluster and per-server utilization
//!   (integrated only over the window's overlap with the measurement
//!   interval `[warmup, end]`, so the measured-seconds-weighted window
//!   mean reproduces `SimOutcome.utilization` to ~1e-9), plus
//!   waitlist depth and active streams as plain window means. State
//!   views are published at every event boundary and these quantities
//!   are piecewise-constant in between, so each window's integral is
//!   exact — the same argument that makes
//!   [`crate::metrics::TimeWeightedGauge`] exact, applied per window.
//!   Staged megabits are the exception: computing the aggregate walks
//!   every stream, so the recorder samples it once per window (at the
//!   window's first state view) instead of integrating it per event,
//!   keeping the per-event cost O(servers).
//!
//! As each window closes, an [`SloEvaluator`] judges it against the
//! declarative policy and any alerts are appended to the recording —
//! alerting is part of the deterministic fold, not a post-process.
//!
//! Windows partition `[0, duration)` into `ceil(duration / width)`
//! spans; an event exactly on a boundary belongs to the later window,
//! and events at `duration` land in the last window.

use crate::config::SimConfig;
use crate::events::{AdmitPath, Probe, SimEvent};
use crate::metrics::StateView;
use sct_analysis::slo::{SloAlert, SloEvaluator, SloPolicy};
use sct_analysis::timeseries::{TimeSeriesRecording, WindowRow};
use sct_simcore::SimTime;

/// Per-window event counts (the counter half of a [`WindowRow`]).
#[derive(Clone, Default)]
struct Counts {
    arrivals: u64,
    admitted: u64,
    admitted_drm: u64,
    admitted_chained: u64,
    rejected: u64,
    completions: u64,
    migrations: u64,
    evacuations: u64,
    failures: u64,
    repairs: u64,
    dropped: u64,
    pauses: u64,
    resumes: u64,
    copies_started: u64,
    copies_done: u64,
    waitlist_queued: u64,
    waitlist_served: u64,
    waitlist_expired: u64,
}

/// The piecewise-constant state carried between event boundaries:
/// values as of [`TimeSeriesProbe::last_t`]. Starts at zero, which
/// integrates to nothing until the first state view arrives.
struct Cur {
    cluster_util: f64,
    server_util: Vec<f64>,
    waitlist: f64,
    active: f64,
}

/// The flight-recorder probe. Build with [`TimeSeriesProbe::new`] (or
/// [`TimeSeriesProbe::with_policy`] for a custom SLO policy), attach via
/// `Simulation::run_with_probes`, then call
/// [`TimeSeriesProbe::finish`] for the recording.
pub struct TimeSeriesProbe {
    width: f64,
    n_windows: usize,
    warmup_secs: f64,
    end_secs: f64,
    n_servers: usize,
    /// Virtual time integrated so far (clamped to `end_secs`).
    last_t: f64,
    /// The window `last_t` lies in; windows below it are closed.
    cur_win: usize,
    cur: Cur,
    counts: Vec<Counts>,
    util_int: Vec<f64>,
    server_util_int: Vec<Vec<f64>>,
    waitlist_int: Vec<f64>,
    active_int: Vec<f64>,
    /// Staged megabits sampled at each window's first state view (the
    /// last observed value is carried into view-less windows).
    staged_sample: Vec<f64>,
    /// `true` until the current window takes its staged sample.
    staged_pending: bool,
    last_staged: f64,
    /// Rows closed so far, in order; the SLO evaluator has seen each.
    rows: Vec<WindowRow>,
    evaluator: SloEvaluator,
    alerts: Vec<SloAlert>,
}

impl TimeSeriesProbe {
    /// Creates the probe for one trial of `config` with `window_secs`
    /// windows and the default SLO policy.
    pub fn new(config: &SimConfig, window_secs: f64) -> Self {
        Self::with_policy(config, window_secs, SloPolicy::default_policy())
    }

    /// Creates the probe with an explicit SLO policy.
    pub fn with_policy(config: &SimConfig, window_secs: f64, policy: SloPolicy) -> Self {
        assert!(
            window_secs > 0.0 && window_secs.is_finite(),
            "window width must be positive and finite"
        );
        let end_secs = config.duration.as_secs();
        let n_windows = ((end_secs / window_secs).ceil() as usize).max(1);
        let n_servers = config.system.n_servers;
        TimeSeriesProbe {
            width: window_secs,
            n_windows,
            warmup_secs: config.warmup.as_secs(),
            end_secs,
            n_servers,
            last_t: 0.0,
            cur_win: 0,
            cur: Cur {
                cluster_util: 0.0,
                server_util: vec![0.0; n_servers],
                waitlist: 0.0,
                active: 0.0,
            },
            counts: vec![Counts::default(); n_windows],
            util_int: vec![0.0; n_windows],
            server_util_int: vec![vec![0.0; n_windows]; n_servers],
            waitlist_int: vec![0.0; n_windows],
            active_int: vec![0.0; n_windows],
            staged_sample: vec![0.0; n_windows],
            staged_pending: true,
            last_staged: 0.0,
            rows: Vec::new(),
            evaluator: SloEvaluator::new(policy),
            alerts: Vec::new(),
        }
    }

    /// Integrates the pending linear segment up to `now` (clamped to the
    /// horizon), closing every window the segment crosses.
    fn advance(&mut self, now: f64) {
        let t1 = now.min(self.end_secs);
        while self.last_t < t1 {
            let bound = (((self.cur_win + 1) as f64) * self.width).min(self.end_secs);
            let seg_end = bound.min(t1);
            let dt = seg_end - self.last_t;
            if dt > 0.0 {
                let cur = &self.cur;
                let w = self.cur_win;
                self.waitlist_int[w] += cur.waitlist * dt;
                self.active_int[w] += cur.active * dt;
                // Utilization integrates only inside [warmup, end].
                let a = self.last_t.max(self.warmup_secs);
                if seg_end > a {
                    let mdt = seg_end - a;
                    self.util_int[w] += cur.cluster_util * mdt;
                    for (i, &u) in cur.server_util.iter().enumerate() {
                        self.server_util_int[i][w] += u * mdt;
                    }
                }
            }
            self.last_t = seg_end;
            if seg_end >= bound {
                if self.cur_win + 1 < self.n_windows {
                    self.close_window(self.cur_win);
                    self.cur_win += 1;
                } else {
                    break;
                }
            }
        }
    }

    /// Builds the final row for window `w` from the accumulators.
    fn build_row(&self, w: usize) -> WindowRow {
        let start = w as f64 * self.width;
        let bound = (((w + 1) as f64) * self.width).min(self.end_secs);
        let span = bound - start;
        let measured = (bound - start.max(self.warmup_secs)).max(0.0);
        let mut row = WindowRow::empty(w as u32, start, span, measured, self.n_servers);
        let c = &self.counts[w];
        row.arrivals = c.arrivals;
        row.admitted = c.admitted;
        row.admitted_drm = c.admitted_drm;
        row.admitted_chained = c.admitted_chained;
        row.rejected = c.rejected;
        row.completions = c.completions;
        row.migrations = c.migrations;
        row.evacuations = c.evacuations;
        row.failures = c.failures;
        row.repairs = c.repairs;
        row.dropped = c.dropped;
        row.pauses = c.pauses;
        row.resumes = c.resumes;
        row.copies_started = c.copies_started;
        row.copies_done = c.copies_done;
        row.waitlist_queued = c.waitlist_queued;
        row.waitlist_served = c.waitlist_served;
        row.waitlist_expired = c.waitlist_expired;
        row.waitlist_depth = self.waitlist_int[w] / span;
        row.active_streams = self.active_int[w] / span;
        row.staged_mb = self.staged_sample[w];
        row.utilization = if measured > 0.0 {
            self.util_int[w] / measured
        } else {
            0.0
        };
        for (i, s) in row.server_utilization.iter_mut().enumerate() {
            *s = if measured > 0.0 {
                self.server_util_int[i][w] / measured
            } else {
                0.0
            };
        }
        row
    }

    /// Closes window `w`: builds its row and lets the SLO evaluator
    /// judge it. Windows close in index order, exactly once.
    fn close_window(&mut self, w: usize) {
        debug_assert_eq!(self.rows.len(), w, "windows must close in order");
        // A window that saw no state view (no events landed in it)
        // carries the last observed staged occupancy forward.
        if self.staged_pending {
            self.staged_sample[w] = self.last_staged;
        }
        self.staged_pending = true;
        let row = self.build_row(w);
        self.alerts.extend(self.evaluator.on_window(&row));
        self.rows.push(row);
    }

    /// Finalizes the fold: integrates to the horizon, closes the
    /// remaining windows (feeding each to the SLO evaluator), and
    /// assembles the recording.
    pub fn finish(mut self) -> TimeSeriesRecording {
        self.advance(self.end_secs);
        for w in self.rows.len()..self.n_windows {
            self.close_window(w);
        }
        TimeSeriesRecording {
            version: 1,
            trials: 1,
            window_secs: self.width,
            warmup_secs: self.warmup_secs,
            duration_secs: self.end_secs,
            n_servers: self.n_servers as u32,
            windows: self.rows,
            alerts: self.alerts,
        }
    }
}

impl Probe for TimeSeriesProbe {
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        self.advance(now.as_secs());
        let c = &mut self.counts[self.cur_win];
        match *event {
            SimEvent::Admitted { path, .. } => {
                c.arrivals += 1;
                match path {
                    AdmitPath::Direct => c.admitted += 1,
                    AdmitPath::Migrated { .. } => c.admitted_drm += 1,
                    AdmitPath::Chained { .. } => c.admitted_chained += 1,
                }
            }
            SimEvent::Rejected { .. } => {
                c.arrivals += 1;
                c.rejected += 1;
            }
            SimEvent::Completed { .. } => c.completions += 1,
            SimEvent::Migrated { emergency, .. } => {
                if emergency {
                    c.evacuations += 1;
                } else {
                    c.migrations += 1;
                }
            }
            SimEvent::ServerDown { dropped, .. } => {
                c.failures += 1;
                c.dropped += dropped as u64;
            }
            SimEvent::ServerUp { .. } => c.repairs += 1,
            SimEvent::Paused { .. } => c.pauses += 1,
            SimEvent::Resumed { .. } => c.resumes += 1,
            SimEvent::CopyStarted { .. } => c.copies_started += 1,
            SimEvent::CopyDone { .. } => c.copies_done += 1,
            SimEvent::WaitlistQueued { .. } => c.waitlist_queued += 1,
            SimEvent::WaitlistServed { .. } => c.waitlist_served += 1,
            SimEvent::WaitlistExpired { count } => c.waitlist_expired += count as u64,
        }
    }

    fn on_state(&mut self, now: SimTime, view: &StateView) {
        self.advance(now.as_secs());
        // Everything read here is O(1) per server (the engines maintain
        // their allocated-rate aggregates) — this runs after every event.
        let mut total_alloc = 0.0;
        let mut total_cap = 0.0;
        for (i, u) in self.cur.server_util.iter_mut().enumerate() {
            let alloc = view.allocated_mbps(i);
            let cap = view.capacity_mbps(i);
            total_alloc += alloc;
            total_cap += cap;
            *u = alloc / cap;
        }
        self.cur.cluster_util = total_alloc / total_cap;
        self.cur.waitlist = view.waitlist_depth() as f64;
        self.cur.active = view.total_active_streams() as f64;
        // Staged occupancy walks every stream; sample it once per
        // window rather than paying that on every event.
        if self.staged_pending {
            let (staged, _slope) = view.staged_totals();
            self.staged_sample[self.cur_win] = staged;
            self.last_staged = staged;
            self.staged_pending = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::Simulation;
    use sct_workload::scenario::SystemSpec;

    fn quick_config(seed: u64) -> SimConfig {
        SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(2.0)
            .warmup_hours(0.25)
            .seed(seed)
            .build()
    }

    #[test]
    fn window_grid_covers_the_run() {
        let cfg = quick_config(11);
        let mut probe = TimeSeriesProbe::new(&cfg, 900.0);
        let out = Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        let rec = probe.finish();
        assert_eq!(rec.windows.len(), 8, "2 h / 900 s");
        assert_eq!(rec.n_servers, 3);
        for (i, w) in rec.windows.iter().enumerate() {
            assert_eq!(w.index as usize, i);
            assert_eq!(w.start_secs, i as f64 * 900.0);
            assert_eq!(w.span_secs, 900.0);
            assert_eq!(w.server_utilization.len(), 3);
        }
        // Warm-up = 900 s: window 0 has no measured overlap.
        assert_eq!(rec.windows[0].measured_secs, 0.0);
        assert_eq!(rec.windows[0].utilization, 0.0);
        assert_eq!(rec.windows[1].measured_secs, 900.0);
        assert!(out.utilization > 0.0);
    }

    #[test]
    fn uneven_window_truncates_the_tail() {
        let cfg = quick_config(11);
        let probe = TimeSeriesProbe::new(&cfg, 1000.0);
        let rec = {
            let mut p = probe;
            Simulation::run_with_probes(&cfg, &mut [&mut p]);
            p.finish()
        };
        assert_eq!(rec.windows.len(), 8, "ceil(7200 / 1000)");
        let last = rec.windows.last().unwrap();
        assert_eq!(last.start_secs, 7000.0);
        assert_eq!(last.span_secs, 200.0);
    }

    #[test]
    fn probe_is_invisible_and_deterministic() {
        let cfg = quick_config(12);
        let bare = Simulation::run(&cfg);
        let mut probe = TimeSeriesProbe::new(&cfg, 600.0);
        let probed = Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        assert_eq!(bare, probed, "TimeSeriesProbe perturbed the outcome");
        let rec = probe.finish();
        let mut probe2 = TimeSeriesProbe::new(&cfg, 600.0);
        Simulation::run_with_probes(&cfg, &mut [&mut probe2]);
        let rec2 = probe2.finish();
        assert_eq!(
            rec.to_json(),
            rec2.to_json(),
            "same config, different recording"
        );
    }

    #[test]
    fn counters_and_utilization_reconcile() {
        let cfg = quick_config(13);
        let mut ts = TimeSeriesProbe::new(&cfg, 700.0);
        let mut tel = crate::metrics::TelemetryProbe::new(&cfg);
        let out = Simulation::run_with_probes(&cfg, &mut [&mut ts, &mut tel]);
        let rec = ts.finish();
        let reg = tel.finish();
        let sum = |f: fn(&WindowRow) -> u64| rec.windows.iter().map(f).sum::<u64>();
        assert_eq!(sum(|w| w.admitted), reg.counter("admitted_direct"));
        assert_eq!(sum(|w| w.admitted_drm), reg.counter("admitted_drm"));
        assert_eq!(sum(|w| w.admitted_chained), reg.counter("admitted_chained"));
        assert_eq!(sum(|w| w.rejected), reg.counter("rejected"));
        assert_eq!(sum(|w| w.completions), reg.counter("completions"));
        let measured: f64 = rec.windows.iter().map(|w| w.measured_secs).sum();
        assert!((measured - (cfg.duration - cfg.warmup)).abs() < 1e-9);
        let integral: f64 = rec
            .windows
            .iter()
            .map(|w| w.utilization * w.measured_secs)
            .sum();
        assert!(
            (integral / measured - out.utilization).abs() < 1e-9,
            "windowed utilization does not integrate to the outcome: {} vs {}",
            integral / measured,
            out.utilization
        );
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_width_panics() {
        let cfg = quick_config(1);
        let _ = TimeSeriesProbe::new(&cfg, 0.0);
    }
}
