//! Online SLO rule engine for windowed time-series recordings.
//!
//! An [`SloPolicy`] is a declarative list of rules evaluated against
//! [`crate::timeseries::WindowRow`]s *as each window closes* — the
//! engine is streaming, holding only the bounded metric history each
//! rule needs. Three rule shapes cover the classic alerting repertoire:
//!
//! * [`SloRule::Threshold`] — a metric stays above/below a bound for
//!   `for_windows` consecutive windows (debounced level alert);
//! * [`SloRule::RateOfChange`] — the metric moved more than `max_delta`
//!   between consecutive windows (spike/cliff detector);
//! * [`SloRule::BurnRate`] — the SRE multi-window burn-rate pattern: a
//!   short-window average *and* a long-window average of an error ratio
//!   both exceed `factor ×` / `1 ×` the objective, catching fast budget
//!   burn without paging on noise.
//!
//! Evaluation is pure arithmetic over the rows, so alerts are exactly as
//! deterministic as the recording itself: same windows in, same alerts
//! out, independent of wall clock. Threshold and
//! burn-rate rules fire once on *entering* violation and re-arm when the
//! condition clears; rate-of-change fires per offending window.

use crate::timeseries::WindowRow;
use serde::{Deserialize, Serialize};

/// Comparison direction for [`SloRule::Threshold`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloOp {
    /// Violated while `metric > threshold`.
    Above,
    /// Violated while `metric < threshold`.
    Below,
}

/// One declarative SLO rule. `name` labels the alerts it emits; `metric`
/// is any name [`WindowRow::metric`] resolves (unknown names never
/// fire — the recording carries the rule verbatim so the gap is
/// auditable).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SloRule {
    /// Debounced level alert: fires when the condition has held for
    /// `for_windows` consecutive windows.
    Threshold {
        /// Alert label.
        name: String,
        /// Metric name resolved via [`WindowRow::metric`].
        metric: String,
        /// Comparison direction.
        op: SloOp,
        /// The bound compared against.
        threshold: f64,
        /// Consecutive violating windows required before firing (≥ 1).
        for_windows: u32,
    },
    /// Spike detector: fires whenever `|metric - previous| > max_delta`.
    RateOfChange {
        /// Alert label.
        name: String,
        /// Metric name resolved via [`WindowRow::metric`].
        metric: String,
        /// Largest tolerated window-to-window move.
        max_delta: f64,
    },
    /// Multi-window burn rate: fires when the mean of the last
    /// `short_windows` exceeds `objective × factor` *and* the mean of the
    /// last `long_windows` exceeds `objective` (both windows full).
    BurnRate {
        /// Alert label.
        name: String,
        /// Metric name resolved via [`WindowRow::metric`] — typically an
        /// error ratio like `rejection_ratio`.
        metric: String,
        /// The error-budget objective for the metric.
        objective: f64,
        /// Fast-burn window length, in closed windows (≥ 1).
        short_windows: u32,
        /// Slow confirmation window length (≥ `short_windows`).
        long_windows: u32,
        /// Burn-rate multiplier the short window must exceed.
        factor: f64,
    },
}

impl SloRule {
    /// The rule's alert label.
    pub fn name(&self) -> &str {
        match self {
            SloRule::Threshold { name, .. }
            | SloRule::RateOfChange { name, .. }
            | SloRule::BurnRate { name, .. } => name,
        }
    }

    /// The metric the rule watches.
    pub fn metric(&self) -> &str {
        match self {
            SloRule::Threshold { metric, .. }
            | SloRule::RateOfChange { metric, .. }
            | SloRule::BurnRate { metric, .. } => metric,
        }
    }
}

/// A declarative list of SLO rules, serialisable so policies can be
/// loaded from a file (`sctsim run --slo FILE`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// The rules, evaluated independently against every closed window.
    pub rules: Vec<SloRule>,
}

impl SloPolicy {
    /// The default watchdog policy: saturation level, rejection spike,
    /// and rejection burn-rate rules over metrics every recording has.
    pub fn default_policy() -> Self {
        SloPolicy {
            rules: vec![
                SloRule::Threshold {
                    name: "saturated".to_string(),
                    metric: "utilization".to_string(),
                    op: SloOp::Above,
                    threshold: 0.98,
                    for_windows: 3,
                },
                SloRule::RateOfChange {
                    name: "arrival_spike".to_string(),
                    metric: "arrival_rate".to_string(),
                    max_delta: 0.5,
                },
                SloRule::BurnRate {
                    name: "rejection_burn".to_string(),
                    metric: "rejection_ratio".to_string(),
                    objective: 0.02,
                    short_windows: 3,
                    long_windows: 12,
                    factor: 4.0,
                },
            ],
        }
    }

    /// Parses a policy from its JSON form.
    pub fn from_json(text: &str) -> Result<SloPolicy, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid SLO policy: {e}"))
    }

    /// Serialises the policy as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("policy serialises")
    }
}

/// One timestamped alert, recorded into the time-series file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloAlert {
    /// Trial that produced the alert (0-based; set by the merger).
    pub trial: u32,
    /// Index of the window that closed the violation.
    pub window: u32,
    /// Virtual time at the end of that window, seconds.
    pub time_secs: f64,
    /// The firing rule's label.
    pub rule: String,
    /// The watched metric.
    pub metric: String,
    /// The value that violated (short-window mean for burn rates,
    /// window-to-window delta for rate-of-change).
    pub value: f64,
    /// The effective bound it violated (`objective × factor` for burn
    /// rates).
    pub threshold: f64,
}

/// Per-rule streaming state.
enum RuleState {
    Threshold { streak: u32 },
    RateOfChange { prev: Option<f64> },
    BurnRate { history: Vec<f64>, firing: bool },
}

/// The streaming evaluator: feed it closed windows in order via
/// [`SloEvaluator::on_window`]; it returns the alerts each close fired.
pub struct SloEvaluator {
    policy: SloPolicy,
    states: Vec<RuleState>,
}

impl SloEvaluator {
    /// Builds an evaluator over `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        let states = policy
            .rules
            .iter()
            .map(|rule| match rule {
                SloRule::Threshold { .. } => RuleState::Threshold { streak: 0 },
                SloRule::RateOfChange { .. } => RuleState::RateOfChange { prev: None },
                SloRule::BurnRate { .. } => RuleState::BurnRate {
                    history: Vec::new(),
                    firing: false,
                },
            })
            .collect();
        SloEvaluator { policy, states }
    }

    /// The policy being evaluated.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Evaluates every rule against a freshly closed window. Windows must
    /// arrive in index order.
    pub fn on_window(&mut self, row: &WindowRow) -> Vec<SloAlert> {
        let mut alerts = Vec::new();
        let end_secs = row.start_secs + row.span_secs;
        for (rule, state) in self.policy.rules.iter().zip(&mut self.states) {
            let Some(value) = row.metric(rule.metric()) else {
                continue;
            };
            match (rule, state) {
                (
                    SloRule::Threshold {
                        name,
                        metric,
                        op,
                        threshold,
                        for_windows,
                    },
                    RuleState::Threshold { streak },
                ) => {
                    let violated = match op {
                        SloOp::Above => value > *threshold,
                        SloOp::Below => value < *threshold,
                    };
                    *streak = if violated { *streak + 1 } else { 0 };
                    // Fire once on entering; re-arm only after clearing.
                    if *streak == (*for_windows).max(1) {
                        alerts.push(SloAlert {
                            trial: 0,
                            window: row.index,
                            time_secs: end_secs,
                            rule: name.clone(),
                            metric: metric.clone(),
                            value,
                            threshold: *threshold,
                        });
                    }
                }
                (
                    SloRule::RateOfChange {
                        name,
                        metric,
                        max_delta,
                    },
                    RuleState::RateOfChange { prev },
                ) => {
                    if let Some(p) = *prev {
                        let delta = value - p;
                        if delta.abs() > *max_delta {
                            alerts.push(SloAlert {
                                trial: 0,
                                window: row.index,
                                time_secs: end_secs,
                                rule: name.clone(),
                                metric: metric.clone(),
                                value: delta,
                                threshold: *max_delta,
                            });
                        }
                    }
                    *prev = Some(value);
                }
                (
                    SloRule::BurnRate {
                        name,
                        metric,
                        objective,
                        short_windows,
                        long_windows,
                        factor,
                    },
                    RuleState::BurnRate { history, firing },
                ) => {
                    let long = (*long_windows).max(1) as usize;
                    let short = (*short_windows).max(1) as usize;
                    history.push(value);
                    if history.len() > long {
                        history.remove(0);
                    }
                    if history.len() < long {
                        continue;
                    }
                    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
                    let short_mean = mean(&history[history.len() - short.min(history.len())..]);
                    let long_mean = mean(history);
                    let violated = short_mean > *objective * *factor && long_mean > *objective;
                    if violated && !*firing {
                        alerts.push(SloAlert {
                            trial: 0,
                            window: row.index,
                            time_secs: end_secs,
                            rule: name.clone(),
                            metric: metric.clone(),
                            value: short_mean,
                            threshold: *objective * *factor,
                        });
                    }
                    *firing = violated;
                }
                _ => unreachable!("rule/state vectors are built in lockstep"),
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::WindowRow;

    /// A minimal window with everything zero except what a test sets.
    fn window(index: u32, utilization: f64, arrivals: u64, rejected: u64) -> WindowRow {
        let mut w = WindowRow::empty(index, index as f64 * 100.0, 100.0, 100.0, 2);
        w.utilization = utilization;
        w.arrivals = arrivals;
        w.rejected = rejected;
        w
    }

    #[test]
    fn threshold_debounces_and_rearms() {
        let policy = SloPolicy {
            rules: vec![SloRule::Threshold {
                name: "hot".into(),
                metric: "utilization".into(),
                op: SloOp::Above,
                threshold: 0.9,
                for_windows: 2,
            }],
        };
        let mut ev = SloEvaluator::new(policy);
        assert!(ev.on_window(&window(0, 0.95, 0, 0)).is_empty(), "streak 1");
        let fired = ev.on_window(&window(1, 0.96, 0, 0));
        assert_eq!(fired.len(), 1, "streak 2 fires");
        assert_eq!(fired[0].rule, "hot");
        assert_eq!(fired[0].window, 1);
        assert_eq!(fired[0].time_secs, 200.0);
        assert!(
            ev.on_window(&window(2, 0.97, 0, 0)).is_empty(),
            "stays firing, no re-alert"
        );
        assert!(ev.on_window(&window(3, 0.5, 0, 0)).is_empty(), "cleared");
        assert!(ev.on_window(&window(4, 0.95, 0, 0)).is_empty());
        assert_eq!(
            ev.on_window(&window(5, 0.95, 0, 0)).len(),
            1,
            "re-armed after clearing"
        );
    }

    #[test]
    fn rate_of_change_fires_per_spike() {
        let policy = SloPolicy {
            rules: vec![SloRule::RateOfChange {
                name: "util_jump".into(),
                metric: "utilization".into(),
                max_delta: 0.3,
            }],
        };
        let mut ev = SloEvaluator::new(policy);
        assert!(ev.on_window(&window(0, 0.1, 0, 0)).is_empty(), "no prev");
        assert!(ev.on_window(&window(1, 0.3, 0, 0)).is_empty(), "small move");
        let fired = ev.on_window(&window(2, 0.8, 0, 0));
        assert_eq!(fired.len(), 1);
        assert!((fired[0].value - 0.5).abs() < 1e-12, "{}", fired[0].value);
        let fired = ev.on_window(&window(3, 0.1, 0, 0));
        assert_eq!(fired.len(), 1, "cliffs count too");
        assert!((fired[0].value + 0.7).abs() < 1e-12);
    }

    #[test]
    fn burn_rate_needs_short_and_long_budgets_burnt() {
        let policy = SloPolicy {
            rules: vec![SloRule::BurnRate {
                name: "reject_burn".into(),
                metric: "rejection_ratio".into(),
                objective: 0.1,
                short_windows: 1,
                long_windows: 3,
                factor: 2.0,
            }],
        };
        let mut ev = SloEvaluator::new(policy);
        // ratios: 0, 0, 0.5 → long mean ≈ 0.167 > 0.1, short 0.5 > 0.2.
        assert!(ev.on_window(&window(0, 0.0, 10, 0)).is_empty());
        assert!(ev.on_window(&window(1, 0.0, 10, 0)).is_empty());
        let fired = ev.on_window(&window(2, 0.0, 10, 5));
        assert_eq!(fired.len(), 1, "short and long both burnt");
        assert!((fired[0].value - 0.5).abs() < 1e-12);
        assert!((fired[0].threshold - 0.2).abs() < 1e-12);
        // Still violating → no duplicate alert.
        assert!(ev.on_window(&window(3, 0.0, 10, 5)).is_empty());
        // Recovery drains the long window, then a fresh burn re-fires.
        assert!(ev.on_window(&window(4, 0.0, 10, 0)).is_empty());
        assert!(ev.on_window(&window(5, 0.0, 10, 0)).is_empty());
        assert!(ev.on_window(&window(6, 0.0, 10, 0)).is_empty());
        let fired = ev.on_window(&window(7, 0.0, 10, 8));
        assert_eq!(fired.len(), 1, "re-fires after recovery");
    }

    #[test]
    fn unknown_metric_never_fires() {
        let policy = SloPolicy {
            rules: vec![SloRule::Threshold {
                name: "ghost".into(),
                metric: "no_such_metric".into(),
                op: SloOp::Above,
                threshold: 0.0,
                for_windows: 1,
            }],
        };
        let mut ev = SloEvaluator::new(policy);
        assert!(ev.on_window(&window(0, 1.0, 1, 1)).is_empty());
    }

    #[test]
    fn policy_round_trips_through_json() {
        let policy = SloPolicy::default_policy();
        let back = SloPolicy::from_json(&policy.to_json()).unwrap();
        assert_eq!(back, policy);
        assert!(SloPolicy::from_json("{oops").is_err());
    }

    /// Zero-denominator windows must not poison a burn rate:
    /// `rejection_ratio` is defined as 0.0 when a window saw no
    /// arrivals, so idle windows count as zero burn — and a later real
    /// burn still fires with the idle windows diluting the long mean.
    #[test]
    fn burn_rate_survives_zero_denominator_windows() {
        let policy = SloPolicy {
            rules: vec![SloRule::BurnRate {
                name: "reject_burn".into(),
                metric: "rejection_ratio".into(),
                objective: 0.1,
                short_windows: 1,
                long_windows: 3,
                factor: 2.0,
            }],
        };
        let mut ev = SloEvaluator::new(policy);
        // Three arrival-free windows: ratio is 0.0 (not 0/0), so the
        // full long window holds finite zeros and nothing fires.
        for i in 0..3 {
            assert!(
                ev.on_window(&window(i, 0.0, 0, 0)).is_empty(),
                "idle window {i}"
            );
        }
        // A real burn after the idle stretch: short mean 1.0 > 0.2 and
        // long mean (0 + 0 + 1)/3 ≈ 0.33 > 0.1 — fires exactly once,
        // with a finite value.
        let fired = ev.on_window(&window(3, 0.0, 4, 4));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].value.is_finite());
        assert!((fired[0].value - 1.0).abs() < 1e-12);
    }

    /// A zero-span window makes per-second rates 0/0 = NaN. NaN
    /// comparisons are false, so the rule must treat the window as
    /// non-violating (never fire, never panic) rather than propagate.
    #[test]
    fn burn_rate_treats_nan_rates_as_non_violating() {
        let policy = SloPolicy {
            rules: vec![SloRule::BurnRate {
                name: "spike_burn".into(),
                metric: "arrival_rate".into(),
                objective: 0.001,
                short_windows: 1,
                long_windows: 2,
                factor: 1.0,
            }],
        };
        let mut ev = SloEvaluator::new(policy);
        let zero_span = |index: u32| WindowRow::empty(index, index as f64 * 100.0, 0.0, 0.0, 2);
        assert!(ev.on_window(&zero_span(0)).is_empty());
        assert!(
            ev.on_window(&zero_span(1)).is_empty(),
            "NaN means must not satisfy the burn condition"
        );
    }

    /// A recording's last window is usually truncated (the run ends mid
    /// width). A threshold streak that completes exactly on that partial
    /// window must still fire, and the alert must be stamped with the
    /// window's *actual* end — start plus its real span, not the nominal
    /// width.
    #[test]
    fn threshold_streak_straddles_the_final_partial_window() {
        let policy = SloPolicy {
            rules: vec![SloRule::Threshold {
                name: "hot".into(),
                metric: "utilization".into(),
                op: SloOp::Above,
                threshold: 0.9,
                for_windows: 3,
            }],
        };
        let mut ev = SloEvaluator::new(policy);
        assert!(ev.on_window(&window(0, 0.95, 0, 0)).is_empty(), "streak 1");
        assert!(ev.on_window(&window(1, 0.95, 0, 0)).is_empty(), "streak 2");
        // The final window closes after 37.5 of its nominal 100 s.
        let mut partial = WindowRow::empty(2, 200.0, 37.5, 37.5, 2);
        partial.utilization = 0.95;
        let fired = ev.on_window(&partial);
        assert_eq!(fired.len(), 1, "streak completes on the partial window");
        assert_eq!(fired[0].window, 2);
        assert!(
            (fired[0].time_secs - 237.5).abs() < 1e-12,
            "alert must end at the truncated window's real end, got {}",
            fired[0].time_secs
        );
    }

    /// The default policy over an empty recording: no windows ever
    /// close, so evaluation is a no-op — no alerts, no panics, and the
    /// evaluator still carries the policy for the recording header.
    #[test]
    fn default_policy_over_an_empty_recording_is_a_no_op() {
        let recording = crate::timeseries::TimeSeriesRecording {
            version: 1,
            trials: 1,
            window_secs: 900.0,
            warmup_secs: 0.0,
            duration_secs: 0.0,
            n_servers: 2,
            windows: Vec::new(),
            alerts: Vec::new(),
        };
        assert!(recording.windows.is_empty());
        let mut ev = SloEvaluator::new(SloPolicy::default_policy());
        let alerts: Vec<SloAlert> = recording
            .windows
            .iter()
            .flat_map(|w| ev.on_window(w))
            .collect();
        assert!(alerts.is_empty());
        assert_eq!(ev.policy(), &SloPolicy::default_policy());
    }
}
