//! Self-profiling of the event loop's wall-clock time, on request.
//!
//! The [`LoopProfiler`] is a set of phase timers the loop charges as it
//! works, so a trial can say *where* its wall time went:
//!
//! * **dispatch** — one window per popped event, covering its handler
//!   and the state publication (everything below nests inside it);
//! * **alloc** — the engine walks the loop times on their own: a wake's
//!   integrate-reap-reallocate walk (`ServerEngine::wake`), and a pause
//!   or resume's lookup and reallocation (`ServerEngine::set_paused`),
//!   one window each (an admission's walk runs inside the controller's
//!   pick and is not split out);
//! * **wake** — arming a server's wake slot in the event queue;
//! * **probe** — the per-event [`crate::metrics::StateView`]
//!   publication (the `SimEvent` fan-out rides inside dispatch: timing
//!   each emission cost more than the fan-out itself).
//!
//! Profiling runs on request. `Simulation::run_instrumented` (behind
//! `sctsim run --profile` and `--metrics`, and the `bench_simloop`
//! bench) builds an enabled profiler; `Simulation::run` and
//! `run_with_probes` build a [`LoopProfiler::disabled`] one, whose [`LoopProfiler::stamp`] is
//! `None` and whose [`LoopProfiler::add`] /
//! [`LoopProfiler::add_between`] do nothing. The loop takes every
//! timestamp through [`LoopProfiler::stamp`], so the default path reads
//! the clock zero times per event. That matters: an [`Instant`] read
//! costs about 45 ns on a 2-vCPU x86-64 VM, and an enabled profiler
//! takes 5 of them per admitted arrival and 8 per wake — a fifth of the
//! Small grid's per-event cost. One runtime flag, checked once per
//! site, keeps a single loop instantiation.
//!
//! When enabled, timers use [`Instant`], which Linux services from the
//! vDSO — a monotonic clock read without a syscall — so the hot path
//! stays allocation- and syscall-free (the profiler is a fixed array of
//! [`Cell`] counters; interior mutability keeps `&self` access usable
//! alongside the loop's `&mut` engine borrows). The profiler observes
//! wall time only and feeds nothing back: simulated outcomes are
//! bit-identical whether it is enabled or not.
//!
//! This is the loop's only wall-clock layer. Surfaced as `sctsim run --profile` and recorded per scheduler ×
//! migration by the `bench_simloop` bench into `results/BENCH_sim.json`.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::time::Instant;

/// The loop phases the profiler distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Whole-event handler window (parent of the rest).
    Dispatch,
    /// Engine walks: a wake's, or a pause's or resume's.
    Alloc,
    /// Wake-slot arms.
    Wake,
    /// Per-event state publication to the attached probes.
    Probe,
}

const N_PHASES: usize = 4;

#[derive(Default)]
struct PhaseCell {
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

/// Monotonic phase counters for one trial's event loop. Create with
/// [`LoopProfiler::new`] (enabled) or [`LoopProfiler::disabled`] when
/// the loop starts; reduce with [`LoopProfiler::report`].
pub struct LoopProfiler {
    /// Loop start; `None` marks a disabled profiler (the runtime flag
    /// every stamp checks).
    start: Option<Instant>,
    phases: [PhaseCell; N_PHASES],
}

impl Default for LoopProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl LoopProfiler {
    /// An enabled profiler; starts the wall clock.
    pub fn new() -> Self {
        LoopProfiler {
            start: Some(Instant::now()),
            phases: Default::default(),
        }
    }

    /// A disabled profiler: it never reads the clock, hands out no
    /// stamps, and reports zero phases and zero wall time.
    pub fn disabled() -> Self {
        LoopProfiler {
            start: None,
            phases: Default::default(),
        }
    }

    /// Whether this profiler times anything.
    pub fn enabled(&self) -> bool {
        self.start.is_some()
    }

    /// A phase-boundary timestamp (vDSO read, no syscall on Linux), or
    /// `None` without reading the clock when the profiler is disabled.
    #[inline]
    pub fn stamp(&self) -> Option<Instant> {
        self.start.map(|_| Instant::now())
    }

    /// Charges the time since `since` to `phase`; a no-op for a `None`
    /// stamp, so a disabled profiler's charges cost one branch.
    #[inline]
    pub fn add(&self, phase: Phase, since: Option<Instant>) {
        if let Some(since) = since {
            self.charge(phase, since.elapsed());
        }
    }

    /// Charges the window `[start, end]` to `phase`. Lets adjacent phases
    /// share one boundary timestamp instead of each reading the clock
    /// twice — the hot loop's windows meet end-to-start, so every shared
    /// boundary saves a clock read per event. A no-op for `None` stamps.
    #[inline]
    pub fn add_between(&self, phase: Phase, start: Option<Instant>, end: Option<Instant>) {
        if let (Some(start), Some(end)) = (start, end) {
            self.charge(phase, end.duration_since(start));
        }
    }

    #[inline]
    fn charge(&self, phase: Phase, d: std::time::Duration) {
        let cell = &self.phases[phase as usize];
        cell.nanos.set(cell.nanos.get() + d.as_nanos() as u64);
        cell.calls.set(cell.calls.get() + 1);
    }

    /// Reduces the counters to a serialisable report. The event count is
    /// the number of dispatch windows (one per live event); a disabled
    /// profiler reports all zeros. The engine counts are left at zero for
    /// the loop to fill in from its engines.
    pub fn report(&self) -> LoopProfile {
        let wall_secs = self.start.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let stat = |p: Phase| {
            let cell = &self.phases[p as usize];
            PhaseStat {
                secs: cell.nanos.get() as f64 * 1e-9,
                calls: cell.calls.get(),
            }
        };
        let dispatch = stat(Phase::Dispatch);
        let events = dispatch.calls;
        LoopProfile {
            wall_secs,
            events,
            events_per_sec: if wall_secs > 0.0 {
                events as f64 / wall_secs
            } else {
                0.0
            },
            dispatch,
            alloc: stat(Phase::Alloc),
            wake: stat(Phase::Wake),
            probe: stat(Phase::Probe),
            engine_walks: 0,
            stream_visits: 0,
        }
    }
}

/// One phase's accumulated wall time and entry count.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Total seconds spent in the phase.
    pub secs: f64,
    /// Times the phase was entered.
    pub calls: u64,
}

/// A trial's wall-clock decomposition (see module docs for the phases).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoopProfile {
    /// Wall time from loop start to report, seconds.
    pub wall_secs: f64,
    /// Live events dispatched.
    pub events: u64,
    /// Throughput: `events / wall_secs`.
    pub events_per_sec: f64,
    /// Whole-handler windows (alloc/wake/probe nest inside).
    pub dispatch: PhaseStat,
    /// Engine walks: a wake's, or a pause's or resume's.
    pub alloc: PhaseStat,
    /// Wake-slot arms.
    pub wake: PhaseStat,
    /// Per-event state publication to the attached probes.
    pub probe: PhaseStat,
    /// Full walks the engines made over their streams during the loop
    /// (`ServerEngine::walks`): an exact count of engine work, read from
    /// the engines rather than the clock.
    pub engine_walks: u64,
    /// Streams those walks visited (`ServerEngine::stream_visits`).
    pub stream_visits: u64,
}

impl LoopProfile {
    /// Handler time not explained by the instrumented sub-phases: pure
    /// dispatch logic (event decode, counters, branch selection).
    pub fn self_secs(&self) -> f64 {
        (self.dispatch.secs - self.alloc.secs - self.wake.secs - self.probe.secs).max(0.0)
    }

    /// The profile of trials run one after another: phase seconds,
    /// calls, events and wall seconds add.
    pub fn total(trials: &[LoopProfile]) -> LoopProfile {
        let add = |f: fn(&LoopProfile) -> PhaseStat| PhaseStat {
            secs: trials.iter().map(|p| f(p).secs).sum(),
            calls: trials.iter().map(|p| f(p).calls).sum(),
        };
        let wall_secs: f64 = trials.iter().map(|p| p.wall_secs).sum();
        let events: u64 = trials.iter().map(|p| p.events).sum();
        LoopProfile {
            wall_secs,
            events,
            events_per_sec: if wall_secs > 0.0 {
                events as f64 / wall_secs
            } else {
                0.0
            },
            dispatch: add(|p| p.dispatch),
            alloc: add(|p| p.alloc),
            wake: add(|p| p.wake),
            probe: add(|p| p.probe),
            engine_walks: trials.iter().map(|p| p.engine_walks).sum(),
            stream_visits: trials.iter().map(|p| p.stream_visits).sum(),
        }
    }

    /// Engine walks per live event (0 without events).
    pub fn walks_per_event(&self) -> f64 {
        per_event(self.engine_walks, self.events)
    }

    /// Streams visited per live event (0 without events).
    pub fn visits_per_event(&self) -> f64 {
        per_event(self.stream_visits, self.events)
    }

    /// Converts to the `sct-analysis` wire form, for attaching to a
    /// [`sct_analysis::MetricsSnapshot`] (`sctsim report` renders it).
    pub fn snapshot(&self) -> sct_analysis::snapshot::ProfileSnapshot {
        let phase = |name: &str, s: &PhaseStat| sct_analysis::snapshot::ProfilePhase {
            name: name.to_string(),
            secs: s.secs,
            calls: s.calls,
        };
        sct_analysis::snapshot::ProfileSnapshot {
            wall_secs: self.wall_secs,
            events: self.events,
            events_per_sec: self.events_per_sec,
            phases: vec![
                phase("dispatch", &self.dispatch),
                phase("alloc", &self.alloc),
                phase("wake", &self.wake),
                phase("probe", &self.probe),
            ],
        }
    }

    /// A fixed-width text rendering for terminal output.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "loop profile: {} events in {:.3} s ({:.0} events/s)\n",
            self.events, self.wall_secs, self.events_per_sec
        );
        let row = |name: &str, s: &PhaseStat| {
            format!("  {name:<10} {:>10.6} s  {:>9} calls\n", s.secs, s.calls)
        };
        out.push_str(&row("dispatch", &self.dispatch));
        out.push_str(&row("alloc", &self.alloc));
        out.push_str(&row("wake", &self.wake));
        out.push_str(&row("probe", &self.probe));
        out.push_str(&format!("  {:<10} {:>10.6} s\n", "self", self.self_secs()));
        out.push_str(&format!(
            "  engine     {} walks, {} stream visits ({:.3} walks, {:.1} visits per event)\n",
            self.engine_walks,
            self.stream_visits,
            self.walks_per_event(),
            self.visits_per_event()
        ));
        out
    }
}

fn per_event(count: u64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        count as f64 / events as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_time_and_calls() {
        let prof = LoopProfiler::new();
        assert!(prof.enabled());
        for _ in 0..3 {
            let t0 = prof.stamp();
            assert!(t0.is_some());
            std::hint::black_box(4u64 + 4);
            prof.add(Phase::Dispatch, t0);
        }
        let (t0, t1) = (prof.stamp(), prof.stamp());
        prof.add_between(Phase::Alloc, t0, t1);
        let report = prof.report();
        assert_eq!(report.events, 3);
        assert_eq!(report.dispatch.calls, 3);
        assert_eq!(report.alloc.calls, 1);
        assert_eq!(report.wake.calls, 0);
        assert!(report.wall_secs >= report.dispatch.secs);
        assert!(report.events_per_sec > 0.0);
    }

    #[test]
    fn disabled_profiler_hands_out_no_stamps_and_reports_nothing() {
        let prof = LoopProfiler::disabled();
        assert!(!prof.enabled());
        for _ in 0..3 {
            let t0 = prof.stamp();
            assert_eq!(t0, None, "a disabled profiler must not read the clock");
            prof.add(Phase::Dispatch, t0);
            prof.add_between(Phase::Probe, t0, prof.stamp());
        }
        let report = prof.report();
        assert_eq!(report.wall_secs, 0.0);
        assert_eq!(report.events, 0);
        assert_eq!(report.events_per_sec, 0.0);
        for s in [report.dispatch, report.alloc, report.wake, report.probe] {
            assert_eq!(s.calls, 0);
            assert_eq!(s.secs, 0.0);
        }
    }

    #[test]
    fn self_time_never_goes_negative() {
        let profile = LoopProfile {
            wall_secs: 1.0,
            events: 10,
            events_per_sec: 10.0,
            dispatch: PhaseStat {
                secs: 0.1,
                calls: 10,
            },
            alloc: PhaseStat {
                secs: 0.2,
                calls: 10,
            },
            wake: PhaseStat {
                secs: 0.0,
                calls: 0,
            },
            probe: PhaseStat {
                secs: 0.0,
                calls: 0,
            },
            engine_walks: 0,
            stream_visits: 0,
        };
        assert_eq!(profile.self_secs(), 0.0);
    }

    #[test]
    fn total_adds_trials_run_one_after_another() {
        let stat = |secs: f64, calls: u64| PhaseStat { secs, calls };
        let a = LoopProfile {
            wall_secs: 2.0,
            events: 10,
            events_per_sec: 5.0,
            dispatch: stat(0.5, 10),
            alloc: stat(0.2, 10),
            wake: stat(0.1, 10),
            probe: stat(0.05, 10),
            engine_walks: 11,
            stream_visits: 300,
        };
        let b = LoopProfile {
            wall_secs: 1.5,
            events: 6,
            events_per_sec: 4.0,
            dispatch: stat(0.25, 6),
            alloc: stat(0.1, 6),
            wake: stat(0.05, 6),
            probe: stat(0.02, 6),
            engine_walks: 6,
            stream_visits: 200,
        };
        let t = LoopProfile::total(&[a, b]);
        assert_eq!(t.wall_secs, 3.5);
        assert_eq!(t.events, 16);
        assert_eq!(t.events_per_sec, 16.0 / 3.5);
        assert_eq!(t.dispatch.calls, 16);
        assert!((t.dispatch.secs - 0.75).abs() < 1e-12);
        assert_eq!((t.engine_walks, t.stream_visits), (17, 500));
        assert_eq!(t.walks_per_event(), 17.0 / 16.0);
        assert_eq!(t.visits_per_event(), 500.0 / 16.0);
        assert_eq!(LoopProfile::total(&[a]), a, "one trial is its own total");
        let none = LoopProfile::total(&[]);
        assert_eq!(
            (none.wall_secs, none.events, none.events_per_sec),
            (0.0, 0, 0.0)
        );
        assert_eq!(none.walks_per_event(), 0.0);
    }

    #[test]
    fn snapshot_carries_every_phase_in_order() {
        let stat = |secs: f64, calls: u64| PhaseStat { secs, calls };
        let p = LoopProfile {
            wall_secs: 1.0,
            events: 4,
            events_per_sec: 4.0,
            dispatch: stat(0.4, 4),
            alloc: stat(0.3, 4),
            wake: stat(0.2, 4),
            probe: stat(0.1, 4),
            engine_walks: 4,
            stream_visits: 40,
        };
        let snap = p.snapshot();
        assert_eq!(snap.wall_secs, 1.0);
        assert_eq!(snap.events, 4);
        let names: Vec<&str> = snap.phases.iter().map(|ph| ph.name.as_str()).collect();
        assert_eq!(names, ["dispatch", "alloc", "wake", "probe"]);
        assert_eq!(snap.phases[3].calls, 4);
        assert_eq!(snap.phases[0].secs, 0.4);
    }

    #[test]
    fn report_round_trips_and_renders() {
        let prof = LoopProfiler::new();
        prof.add(Phase::Probe, prof.stamp());
        let report = prof.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: LoopProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let text = report.to_text();
        assert!(text.contains("events/s"), "{text}");
        assert!(text.contains("dispatch"), "{text}");
        assert!(text.contains("probe"), "{text}");
        assert!(text.contains("walks"), "{text}");
    }
}
