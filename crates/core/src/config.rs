//! Simulation configuration.
//!
//! A [`SimConfig`] pins down *everything* a trial depends on; two runs with
//! equal configs (including the seed) produce bit-identical outcomes. The
//! builder starts from the paper's defaults and lets experiments override
//! the axis they sweep.

use sct_admission::{
    AssignmentPolicy, EvacuationPolicy, MigrationPolicy, ReplicationSpec, WaitlistSpec,
};
use sct_cluster::PlacementStrategy;
use sct_media::ClientProfile;
use sct_simcore::SimTime;
use sct_transmission::SchedulerKind;
use sct_workload::{HeterogeneityKind, SystemSpec};
use serde::{Deserialize, Serialize};

/// How much client staging buffer each request gets.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum StagingSpec {
    /// A fraction of the catalog's average video size (the paper's §4.3
    /// parameterisation; 0.0 disables staging entirely).
    FractionOfAvgVideo(f64),
    /// An absolute buffer in megabits.
    AbsoluteMb(f64),
    /// Unlimited client storage (Theorem 1 regime).
    Unbounded,
}

impl StagingSpec {
    /// Resolves to a concrete buffer size given the catalog's average
    /// video size.
    pub fn capacity_mb(&self, avg_video_size_mb: f64) -> f64 {
        match *self {
            StagingSpec::FractionOfAvgVideo(f) => f * avg_video_size_mb,
            StagingSpec::AbsoluteMb(mb) => mb,
            StagingSpec::Unbounded => f64::INFINITY,
        }
    }
}

/// Server failure model (fault-tolerance extension): every server
/// independently alternates exponential up-times (mean `mtbf_hours`) and
/// exponential down-times (mean `repair_hours`). On failure its active
/// streams are emergency-evacuated via DRM (or dropped).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureSpec {
    /// Mean time between failures per server, hours.
    pub mtbf_hours: f64,
    /// Mean repair time per server, hours.
    pub repair_hours: f64,
}

impl FailureSpec {
    /// Creates a failure model; both means must be positive.
    pub fn new(mtbf_hours: f64, repair_hours: f64) -> Self {
        assert!(mtbf_hours > 0.0 && repair_hours > 0.0);
        FailureSpec {
            mtbf_hours,
            repair_hours,
        }
    }

    /// Steady-state fraction of time a server is up.
    pub fn availability(&self) -> f64 {
        self.mtbf_hours / (self.mtbf_hours + self.repair_hours)
    }
}

/// Client interactivity model (extension; §6 lists "interactivity in
/// semi-continuous transmission" as future work): each accepted request
/// independently pauses playback at most once, at a uniformly random point
/// of its video, for a uniformly random duration.
///
/// Paused streams keep their server slot but stop consuming; with staging,
/// transmission keeps filling the client buffer and can even complete
/// during the pause, releasing the slot early — the semi-continuous
/// answer to VCR functions.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PauseSpec {
    /// Probability that a request pauses once during playback.
    pub probability: f64,
    /// Minimum pause duration, seconds.
    pub min_pause_secs: f64,
    /// Maximum pause duration, seconds.
    pub max_pause_secs: f64,
}

impl PauseSpec {
    /// Creates a pause model; requires `0 ≤ probability ≤ 1` and a valid
    /// positive duration range.
    pub fn new(probability: f64, min_pause_secs: f64, max_pause_secs: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        assert!(0.0 < min_pause_secs && min_pause_secs <= max_pause_secs);
        PauseSpec {
            probability,
            min_pause_secs,
            max_pause_secs,
        }
    }
}

/// Diurnal load model (extension): the Poisson arrival rate swings
/// sinusoidally around its calibrated mean —
/// `λ(t) = λ̄ (1 + amplitude · sin(2π t / period))` — a stylised day/night
/// demand cycle. The mean offered load stays at 100 %.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiurnalSpec {
    /// Swing amplitude in [0, 1] (1 ⇒ load varies 0–200 % of mean).
    pub amplitude: f64,
    /// Cycle length in hours (24 for a literal day).
    pub period_hours: f64,
}

impl DiurnalSpec {
    /// Creates the model; `amplitude ∈ [0, 1]`, positive period.
    pub fn new(amplitude: f64, period_hours: f64) -> Self {
        assert!((0.0..=1.0).contains(&amplitude));
        assert!(period_hours > 0.0);
        DiurnalSpec {
            amplitude,
            period_hours,
        }
    }
}

/// One complete experimental setup.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// System parameters (servers, catalog shape, rates).
    pub system: SystemSpec,
    /// Zipf demand-uniformity parameter θ (1 = uniform, negative = very
    /// skewed).
    pub theta: f64,
    /// Replica placement strategy.
    pub placement: PlacementStrategy,
    /// Assignment rule among eligible holders.
    pub assignment: AssignmentPolicy,
    /// Dynamic-request-migration policy.
    pub migration: MigrationPolicy,
    /// Failure-evacuation policy (strict drop vs best-effort restart).
    pub evacuation: EvacuationPolicy,
    /// Spare-bandwidth scheduler on every server.
    pub scheduler: SchedulerKind,
    /// Client staging buffer size.
    pub staging: StagingSpec,
    /// Client receive cap in Mb/s (`f64::INFINITY` to lift it).
    pub receive_cap_mbps: f64,
    /// Simulated duration.
    pub duration: SimTime,
    /// Initial warm-up excluded from the utilization metric.
    pub warmup: SimTime,
    /// Optional cluster heterogeneity (kind, spread ∈ [0, 1)).
    pub heterogeneity: Option<(HeterogeneityKind, f64)>,
    /// Optional server failure/repair process.
    pub failures: Option<FailureSpec>,
    /// Optional client pause/resume behaviour.
    pub interactivity: Option<PauseSpec>,
    /// Optional diurnal (sinusoidal) arrival-rate modulation.
    pub diurnal: Option<DiurnalSpec>,
    /// Optional dynamic replication on rejection.
    pub replication: Option<ReplicationSpec>,
    /// Optional admission wait queue (viewers tolerate a short delay).
    pub waitlist: Option<WaitlistSpec>,
    /// Root seed for all randomness in the trial.
    pub seed: u64,
    /// Run (expensive) invariant checks while simulating.
    pub check_invariants: bool,
}

impl SimConfig {
    /// Starts a builder from paper defaults for `system`.
    pub fn builder(system: SystemSpec) -> SimConfigBuilder {
        SimConfigBuilder::new(system)
    }

    /// The client profile this config gives every request, resolved
    /// against the catalog's average video size.
    pub fn client_profile(&self, avg_video_size_mb: f64) -> ClientProfile {
        ClientProfile::new(
            self.staging.capacity_mb(avg_video_size_mb),
            self.receive_cap_mbps,
        )
    }
}

/// Builder for [`SimConfig`]. Defaults: θ = 0.271 (the literature's usual
/// skew), even placement (2.2 copies), least-loaded assignment, no
/// migration, EFTF, 20 % staging, the system's receive cap, 50 simulated
/// hours, 1 hour warm-up, homogeneous cluster, seed 0, no invariant
/// checks.
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
    /// Duration and warm-up overrides in raw hours, held back until
    /// [`SimConfigBuilder::try_build`] has checked them: a NaN must
    /// never reach [`SimTime`], whose constructors assert against it.
    duration_hours: Option<f64>,
    warmup_hours: Option<f64>,
}

impl SimConfigBuilder {
    /// Creates the builder with paper defaults.
    pub fn new(system: SystemSpec) -> Self {
        let receive_cap = system.client_receive_cap_mbps;
        SimConfigBuilder {
            cfg: SimConfig {
                system,
                theta: 0.271,
                placement: PlacementStrategy::even_paper(),
                assignment: AssignmentPolicy::LeastLoaded,
                migration: MigrationPolicy::disabled(),
                evacuation: EvacuationPolicy::default(),
                scheduler: SchedulerKind::Eftf,
                staging: StagingSpec::FractionOfAvgVideo(0.2),
                receive_cap_mbps: receive_cap,
                duration: SimTime::from_hours(50.0),
                warmup: SimTime::from_hours(1.0),
                heterogeneity: None,
                failures: None,
                interactivity: None,
                diurnal: None,
                replication: None,
                waitlist: None,
                seed: 0,
                check_invariants: false,
            },
            duration_hours: None,
            warmup_hours: None,
        }
    }

    /// Sets the Zipf θ.
    pub fn theta(mut self, theta: f64) -> Self {
        self.cfg.theta = theta;
        self
    }

    /// Sets the placement strategy.
    pub fn placement(mut self, p: PlacementStrategy) -> Self {
        self.cfg.placement = p;
        self
    }

    /// Sets the assignment policy.
    pub fn assignment(mut self, a: AssignmentPolicy) -> Self {
        self.cfg.assignment = a;
        self
    }

    /// Sets the migration policy.
    pub fn migration(mut self, m: MigrationPolicy) -> Self {
        self.cfg.migration = m;
        self
    }

    /// Enables (or disables) the best-effort evacuation restart: streams
    /// that cannot hand off seamlessly when their server fails are
    /// restarted from the playback point on another capable holder
    /// instead of being dropped. Off by default (paper-faithful).
    pub fn evacuation_restart(mut self, on: bool) -> Self {
        self.cfg.evacuation = if on {
            EvacuationPolicy::best_effort()
        } else {
            EvacuationPolicy::strict()
        };
        self
    }

    /// Sets the spare-bandwidth scheduler.
    pub fn scheduler(mut self, s: SchedulerKind) -> Self {
        self.cfg.scheduler = s;
        self
    }

    /// Sets the staging buffer as a fraction of the average video size.
    pub fn staging_fraction(mut self, f: f64) -> Self {
        self.cfg.staging = StagingSpec::FractionOfAvgVideo(f);
        self
    }

    /// Sets the staging spec directly.
    pub fn staging(mut self, s: StagingSpec) -> Self {
        self.cfg.staging = s;
        self
    }

    /// Sets the client receive cap (Mb/s).
    pub fn receive_cap(mut self, mbps: f64) -> Self {
        self.cfg.receive_cap_mbps = mbps;
        self
    }

    /// Sets the simulated duration in hours.
    pub fn duration_hours(mut self, h: f64) -> Self {
        self.duration_hours = Some(h);
        self
    }

    /// Sets the warm-up (excluded from metrics) in hours.
    pub fn warmup_hours(mut self, h: f64) -> Self {
        self.warmup_hours = Some(h);
        self
    }

    /// Makes the cluster heterogeneous.
    pub fn heterogeneity(mut self, kind: HeterogeneityKind, spread: f64) -> Self {
        self.cfg.heterogeneity = Some((kind, spread));
        self
    }

    /// Enables the server failure/repair process (checked by
    /// [`SimConfigBuilder::try_build`]).
    pub fn failures(mut self, mtbf_hours: f64, repair_hours: f64) -> Self {
        self.cfg.failures = Some(FailureSpec {
            mtbf_hours,
            repair_hours,
        });
        self
    }

    /// Enables client pause/resume behaviour (checked by
    /// [`SimConfigBuilder::try_build`]).
    pub fn interactivity(
        mut self,
        probability: f64,
        min_pause_secs: f64,
        max_pause_secs: f64,
    ) -> Self {
        self.cfg.interactivity = Some(PauseSpec {
            probability,
            min_pause_secs,
            max_pause_secs,
        });
        self
    }

    /// Enables diurnal arrival-rate modulation (checked by
    /// [`SimConfigBuilder::try_build`]).
    pub fn diurnal(mut self, amplitude: f64, period_hours: f64) -> Self {
        self.cfg.diurnal = Some(DiurnalSpec {
            amplitude,
            period_hours,
        });
        self
    }

    /// Enables dynamic replication on rejection.
    pub fn replication(mut self, spec: ReplicationSpec) -> Self {
        self.cfg.replication = Some(spec);
        self
    }

    /// Queues rejected requests for up to `max_wait_secs` (capacity
    /// `max_length`) instead of dropping them (checked by
    /// [`SimConfigBuilder::try_build`]).
    pub fn waitlist(mut self, max_wait_secs: f64, max_length: usize) -> Self {
        self.cfg.waitlist = Some(WaitlistSpec {
            max_wait_secs,
            max_length,
            multicast_batching: false,
        });
        self
    }

    /// Sets a fully custom waitlist spec (e.g. with multicast batching).
    pub fn waitlist_spec(mut self, spec: WaitlistSpec) -> Self {
        self.cfg.waitlist = Some(spec);
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Applies a Fig. 6 policy (placement + migration + staging).
    pub fn policy(mut self, p: crate::policies::Policy) -> Self {
        self.cfg.placement = p.placement();
        self.cfg.migration = p.migration();
        self.cfg.staging = StagingSpec::FractionOfAvgVideo(p.staging_fraction());
        self
    }

    /// Enables expensive invariant checking (tests).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.cfg.check_invariants = on;
        self
    }

    /// Finalises the config, or says which knob is invalid: θ must be
    /// finite, the duration positive and finite, the warm-up
    /// non-negative and shorter than the run, the receive cap at least
    /// the view rate, the staging buffer non-negative, the heterogeneity
    /// spread in `[0, 1)`. The optional specs
    /// follow the rules their constructors assert: positive failure and
    /// repair means, a pause probability in `[0, 1]` with
    /// `0 < min ≤ max` pause, a diurnal amplitude in `[0, 1]` with a
    /// positive period, a positive waitlist patience and length, and a
    /// positive copy rate and copy limit with a non-negative cooldown for
    /// replication. Front ends that take user input (flags or a
    /// `--config` file) use this and report the error instead of
    /// panicking.
    pub fn try_build(mut self) -> Result<SimConfig, ConfigError> {
        let fail = |msg: String| Err(ConfigError(msg));
        if !self.cfg.theta.is_finite() {
            return fail(format!("theta must be finite, got {}", self.cfg.theta));
        }
        let hours = self
            .duration_hours
            .unwrap_or_else(|| self.cfg.duration.as_hours());
        if !hours.is_finite() || hours <= 0.0 {
            return fail(format!(
                "duration must be positive and finite, got {hours} h"
            ));
        }
        let warmup = self
            .warmup_hours
            .unwrap_or_else(|| self.cfg.warmup.as_hours());
        if warmup.is_nan() || warmup < 0.0 {
            return fail(format!("warm-up must not be negative, got {warmup} h"));
        }
        if let Some(h) = self.duration_hours {
            self.cfg.duration = SimTime::from_hours(h);
        }
        if let Some(h) = self.warmup_hours {
            self.cfg.warmup = SimTime::from_hours(h);
        }
        let c = &self.cfg;
        if c.warmup >= c.duration {
            return fail(format!(
                "warm-up must end before the run does, got {warmup} h of {hours} h"
            ));
        }
        if c.receive_cap_mbps.is_nan() || c.receive_cap_mbps < c.system.view_rate_mbps {
            return fail(format!(
                "clients must receive at least the view rate ({} Mb/s), got {} Mb/s",
                c.system.view_rate_mbps, c.receive_cap_mbps
            ));
        }
        let staging = match c.staging {
            StagingSpec::FractionOfAvgVideo(x) | StagingSpec::AbsoluteMb(x) => x,
            StagingSpec::Unbounded => 0.0,
        };
        if staging.is_nan() || staging < 0.0 {
            return fail(format!("staging must not be negative, got {:?}", c.staging));
        }
        if let Some((_, spread)) = c.heterogeneity {
            if !(0.0..1.0).contains(&spread) {
                return fail(format!("spread must be in [0,1), got {spread}"));
            }
        }
        // False for NaN as well as for zero and below.
        let positive = |x: f64| x > 0.0;
        if let Some(f) = c.failures {
            if !(positive(f.mtbf_hours) && positive(f.repair_hours)) {
                return fail(format!(
                    "failure and repair means must be positive, got mtbf_hours {} and repair_hours {}",
                    f.mtbf_hours, f.repair_hours
                ));
            }
        }
        if let Some(p) = c.interactivity {
            if !(0.0..=1.0).contains(&p.probability) {
                return fail(format!(
                    "pause probability must be in [0,1], got {}",
                    p.probability
                ));
            }
            if !(positive(p.min_pause_secs) && p.min_pause_secs <= p.max_pause_secs) {
                return fail(format!(
                    "pauses must satisfy 0 < min_pause_secs <= max_pause_secs, got {} and {}",
                    p.min_pause_secs, p.max_pause_secs
                ));
            }
        }
        if let Some(d) = c.diurnal {
            if !(0.0..=1.0).contains(&d.amplitude) {
                return fail(format!(
                    "diurnal amplitude must be in [0,1], got {}",
                    d.amplitude
                ));
            }
            if !positive(d.period_hours) {
                return fail(format!(
                    "diurnal period must be positive, got {} h",
                    d.period_hours
                ));
            }
        }
        if let Some(w) = c.waitlist {
            if !positive(w.max_wait_secs) {
                return fail(format!(
                    "waitlist max_wait_secs must be positive, got {}",
                    w.max_wait_secs
                ));
            }
            if w.max_length == 0 {
                return fail("waitlist max_length must be at least 1, got 0".to_string());
            }
        }
        if let Some(r) = c.replication {
            if !(positive(r.copy_rate_mbps) && r.max_concurrent > 0 && r.cooldown_secs >= 0.0) {
                return fail(format!(
                    "replication needs a positive copy_rate_mbps and max_concurrent and a non-negative cooldown_secs, got {}, {} and {}",
                    r.copy_rate_mbps, r.max_concurrent, r.cooldown_secs
                ));
            }
        }
        Ok(self.cfg)
    }

    /// Finalises the config.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message when a knob is invalid;
    /// use [`SimConfigBuilder::try_build`] on user input.
    pub fn build(self) -> SimConfig {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl From<SimConfig> for SimConfigBuilder {
    /// Starts from an existing config (e.g. one read from a file), so
    /// builder knobs can override it before [`SimConfigBuilder::try_build`]
    /// re-validates the result.
    fn from(cfg: SimConfig) -> Self {
        SimConfigBuilder {
            cfg,
            duration_hours: None,
            warmup_hours: None,
        }
    }
}

/// Why a [`SimConfig`] is invalid: one human-readable sentence naming the
/// knob and the offending value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_paper_like() {
        let c = SimConfig::builder(SystemSpec::small_paper()).build();
        assert_eq!(c.theta, 0.271);
        assert_eq!(c.scheduler, SchedulerKind::Eftf);
        assert!(!c.migration.enabled);
        assert_eq!(c.receive_cap_mbps, 30.0);
        assert_eq!(c.staging, StagingSpec::FractionOfAvgVideo(0.2));
    }

    #[test]
    fn staging_resolution() {
        assert_eq!(
            StagingSpec::FractionOfAvgVideo(0.2).capacity_mb(5400.0),
            1080.0
        );
        assert_eq!(StagingSpec::AbsoluteMb(99.0).capacity_mb(5400.0), 99.0);
        assert!(StagingSpec::Unbounded.capacity_mb(1.0).is_infinite());
    }

    #[test]
    fn client_profile_combines_staging_and_cap() {
        let c = SimConfig::builder(SystemSpec::small_paper())
            .staging_fraction(0.5)
            .receive_cap(12.0)
            .build();
        let p = c.client_profile(1000.0);
        assert_eq!(p.staging_capacity_mb, 500.0);
        assert_eq!(p.receive_cap_mbps, 12.0);
    }

    #[test]
    fn equal_configs_compare_equal() {
        let a = SimConfig::builder(SystemSpec::small_paper())
            .seed(7)
            .build();
        let b = SimConfig::builder(SystemSpec::small_paper())
            .seed(7)
            .build();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "warm-up must end before")]
    fn warmup_longer_than_run_rejected() {
        SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(1.0)
            .warmup_hours(2.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "at least the view rate")]
    fn receive_cap_below_view_rate_rejected() {
        SimConfig::builder(SystemSpec::tiny_test())
            .receive_cap(1.0)
            .build();
    }

    #[test]
    fn try_build_reports_each_bad_knob_without_panicking() {
        let b = || SimConfig::builder(SystemSpec::tiny_test());
        let cases = [
            (b().theta(f64::NAN), "theta must be finite"),
            (b().duration_hours(-1.0), "duration must be positive"),
            (
                b().duration_hours(f64::INFINITY),
                "duration must be positive",
            ),
            (b().duration_hours(f64::NAN), "duration must be positive"),
            (b().warmup_hours(-0.5), "warm-up must not be negative"),
            (
                b().duration_hours(1.0).warmup_hours(f64::NAN),
                "warm-up must not be negative",
            ),
            (
                b().duration_hours(1.0).warmup_hours(2.0),
                "warm-up must end before",
            ),
            (b().receive_cap(1.0), "at least the view rate"),
            (
                b().heterogeneity(HeterogeneityKind::Bandwidth, 1.5),
                "spread must be in [0,1)",
            ),
            (
                b().staging(StagingSpec::AbsoluteMb(f64::NAN)),
                "staging must not be negative",
            ),
            (b().staging_fraction(-0.5), "staging must not be negative"),
            (b().failures(-1.0, 0.5), "failure and repair means"),
            (b().failures(48.0, f64::NAN), "failure and repair means"),
            (b().interactivity(2.0, 60.0, 300.0), "pause probability"),
            (b().interactivity(0.5, 60.0, 30.0), "min_pause_secs"),
            (b().interactivity(0.5, 0.0, 30.0), "min_pause_secs"),
            (b().diurnal(3.0, 24.0), "diurnal amplitude"),
            (b().diurnal(0.5, 0.0), "diurnal period"),
            (b().waitlist(-1.0, 10), "max_wait_secs must be positive"),
            (b().waitlist(60.0, 0), "max_length must be at least 1"),
            (
                b().replication(ReplicationSpec {
                    copy_rate_mbps: 0.0,
                    ..ReplicationSpec::default_paper_scale()
                }),
                "replication needs a positive copy_rate_mbps",
            ),
            (
                b().replication(ReplicationSpec {
                    cooldown_secs: f64::NAN,
                    ..ReplicationSpec::default_paper_scale()
                }),
                "replication needs a positive copy_rate_mbps",
            ),
        ];
        for (builder, expected) in cases {
            let err = builder.try_build().unwrap_err().to_string();
            assert!(err.contains(expected), "{err:?} lacks {expected:?}");
        }
        let ok = b().seed(3).try_build().expect("defaults are valid");
        assert_eq!(ok, b().seed(3).build());
        // A config read back from a file round-trips through the builder.
        let again = SimConfigBuilder::from(ok.clone()).seed(9).try_build();
        assert_eq!(again.map(|c| c.seed), Ok(9));
        assert!(SimConfigBuilder::from(ok)
            .theta(f64::NAN)
            .try_build()
            .is_err());
    }
}
