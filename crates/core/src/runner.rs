//! Deterministic parallel trial execution.
//!
//! Each paper data point averages several independent trials (5 in the
//! paper). A trial depends only on its config and its derived seed, so
//! every trial of every point is an independent job. [`run_points`] runs
//! all of them on one pool of scoped threads, the calling thread among
//! them: each worker takes the next (point, trial) job from a shared
//! counter and writes its outcome into that job's own slot. Results come
//! back per point in trial order however the jobs were scheduled, so a
//! parallel run is bit-identical to a sequential one. [`run_trials`] is
//! its one-point case.

use crate::config::SimConfig;
use crate::simulation::{SimOutcome, Simulation};
use sct_simcore::rng::splitmix64;
use sct_simcore::Summary;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many trials to run and how to derive their seeds.
///
/// ```
/// use sct_core::runner::TrialPlan;
/// let plan = TrialPlan::paper(42);
/// assert_eq!(plan.trials, 5);                   // the paper's 5 trials
/// assert_ne!(plan.seed(0), plan.seed(1));       // independent trial seeds
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialPlan {
    /// Number of independent trials.
    pub trials: u32,
    /// Base seed; trial `i` runs with `derive_seed(base_seed, i)`.
    pub base_seed: u64,
}

impl TrialPlan {
    /// A plan with the given trial count and base seed.
    pub fn new(trials: u32, base_seed: u64) -> Self {
        assert!(trials > 0, "at least one trial");
        TrialPlan { trials, base_seed }
    }

    /// The paper's setup: 5 trials.
    pub fn paper(base_seed: u64) -> Self {
        Self::new(5, base_seed)
    }

    /// The seed of trial `i`.
    pub fn seed(&self, i: u32) -> u64 {
        derive_seed(self.base_seed, i)
    }
}

/// Mixes a base seed and trial index into an independent trial seed.
pub fn derive_seed(base_seed: u64, trial: u32) -> u64 {
    let mut s = base_seed ^ 0x7261_6E64_5F76_6F64; // "rand_vod"
    let a = splitmix64(&mut s);
    let mut s2 = a ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s2)
}

/// Runs `plan.trials` independent trials of `config` (the config's own
/// seed is replaced by each trial's derived seed), in parallel across the
/// machine's cores. Results are returned in trial order.
pub fn run_trials(config: &SimConfig, plan: TrialPlan) -> Vec<SimOutcome> {
    run_points(std::slice::from_ref(config), plan)
        .pop()
        .expect("one point")
}

/// Runs `plan.trials` independent trials of every config (trial `i` of
/// each runs with `plan.seed(i)`), all on one pool across the machine's
/// cores. Entry `p` holds the outcomes of `configs[p]` in trial order.
pub fn run_points(configs: &[SimConfig], plan: TrialPlan) -> Vec<Vec<SimOutcome>> {
    run_pool(configs, plan, cores(), Simulation::run)
}

/// The pool width [`run_points`] uses: the machine's available
/// parallelism.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `trial` on every (point, trial) job of the plan on `workers`
/// threads: [`run_points`] with `trial` in place of
/// [`Simulation::run`], for drivers that attach probes. Job
/// `p * trials + i` is trial `i` of point `p`: its config and seed follow
/// from its index alone.
pub(crate) fn run_pool<T: Send + Sync>(
    configs: &[SimConfig],
    plan: TrialPlan,
    workers: usize,
    trial: impl Fn(&SimConfig) -> T + Sync,
) -> Vec<Vec<T>> {
    let trials = plan.trials as usize;
    let mut outcomes = pool(configs.len() * trials, workers, |job| {
        let mut cfg = configs[job / trials].clone();
        cfg.seed = plan.seed((job % trials) as u32);
        trial(&cfg)
    })
    .into_iter();
    configs
        .iter()
        .map(|_| outcomes.by_ref().take(trials).collect())
        .collect()
}

/// Runs `job(0)`, …, `job(jobs - 1)` on `min(workers, jobs)` threads, the
/// calling thread among them, and returns the results in job order. Jobs
/// start in index order; each writes only its own slot, so the result
/// does not depend on which job finished first.
fn pool<T: Send + Sync>(jobs: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        // Relaxed: the counter only hands out distinct indices. Each
        // result is published by its slot and by the scope's join.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs {
            break;
        }
        let first = slots[i].set(job(i));
        debug_assert!(first.is_ok(), "job {i} ran twice");
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(jobs) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran"))
        .collect()
}

/// Summarises the utilization of a set of trial outcomes.
pub fn utilization_summary(outcomes: &[SimOutcome]) -> Summary {
    Summary::of(&outcomes.iter().map(|o| o.utilization).collect::<Vec<f64>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_workload::SystemSpec;

    fn quick() -> SimConfig {
        SimConfig::builder(SystemSpec::tiny_test())
            .duration_hours(2.0)
            .warmup_hours(0.25)
            .build()
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let plan = TrialPlan::new(16, 99);
        let mut seeds: Vec<u64> = (0..16).map(|i| plan.seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
        // And differ across base seeds.
        assert_ne!(TrialPlan::new(1, 1).seed(0), TrialPlan::new(1, 2).seed(0));
    }

    #[test]
    fn parallel_equals_sequential() {
        let cfg = quick();
        let plan = TrialPlan::new(4, 7);
        let par = run_trials(&cfg, plan);
        // Sequential reference.
        let seq: Vec<_> = (0..4)
            .map(|i| {
                let mut c = cfg.clone();
                c.seed = plan.seed(i);
                Simulation::run(&c)
            })
            .collect();
        assert_eq!(par, seq);
    }

    /// Job 0 cannot finish before job 1 has: job 1 records its finish and
    /// only then signals job 0. The result must still list job 0 first.
    #[test]
    fn pool_returns_results_in_job_order_whatever_finishes_first() {
        use std::sync::{mpsc, Mutex};
        for workers in [2, 8] {
            let (done, wait) = mpsc::sync_channel(1);
            let wait = Mutex::new(wait);
            let finished = Mutex::new(Vec::new());
            let results = pool(4, workers, |job| {
                if job == 0 {
                    wait.lock()
                        .expect("no job panicked")
                        .recv()
                        .expect("job 1 signals");
                }
                finished.lock().expect("no job panicked").push(job);
                if job == 1 {
                    done.send(()).expect("job 0 waits");
                }
                job * 10
            });
            assert_eq!(results, [0, 10, 20, 30], "at {workers} workers");
            let finished = finished.into_inner().expect("no job panicked");
            let pos = |job| finished.iter().position(|&j| j == job);
            assert!(pos(1) < pos(0), "job 0 finished first: {finished:?}");
        }
    }

    /// Jobs of very different lengths finish out of list order on any
    /// pool of two or more workers: the Large point's last trial starts
    /// while its first two run, and the tiny jobs behind it finish
    /// first. Every slot must still hold its own point's trial, equal to
    /// that trial run alone, at every worker count.
    #[test]
    fn pool_slots_are_independent_of_worker_count() {
        let short = |system: SystemSpec| {
            SimConfig::builder(system)
                .duration_hours(0.5)
                .warmup_hours(0.1)
                .build()
        };
        let configs = [
            short(SystemSpec::large_paper()),
            short(SystemSpec::tiny_test()),
            short(SystemSpec::small_paper()),
            short(SystemSpec::tiny_test()),
        ];
        let plan = TrialPlan::new(3, 11);
        let alone: Vec<Vec<SimOutcome>> = configs
            .iter()
            .map(|cfg| {
                (0..plan.trials)
                    .map(|i| {
                        let mut trial = cfg.clone();
                        trial.seed = plan.seed(i);
                        Simulation::run(&trial)
                    })
                    .collect()
            })
            .collect();
        for workers in [1, 2, 8] {
            let pooled = run_pool(&configs, plan, workers, Simulation::run);
            assert_eq!(pooled.len(), configs.len());
            for (p, (got, want)) in pooled.iter().zip(&alone).enumerate() {
                assert_eq!(got, want, "point {p} at {workers} workers");
            }
        }
        assert_eq!(run_points(&configs, plan), alone);
        assert!(run_points(&[], plan).is_empty());
    }

    #[test]
    fn summary_aggregates_all_trials() {
        let out = run_trials(&quick(), TrialPlan::new(3, 5));
        let s = utilization_summary(&out);
        assert_eq!(s.n, 3);
        assert!(s.mean > 0.0 && s.mean <= 1.0);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn paper_plan_is_five_trials() {
        assert_eq!(TrialPlan::paper(0).trials, 5);
    }
}
