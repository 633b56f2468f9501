//! The benchmark's own observer of a trial.
//!
//! [`RequestProbe`] is an event-only probe (`uses_state() = false`) that
//! stamps host time at the first callback (end of set-up) and at the first
//! event at or after the warm-up. It counts arrival resolutions
//! (`Admitted` + `Rejected`) so throughput is measured in requests, not
//! loop events. In traced mode it also stamps every event boundary and
//! charges the host time since the previous one to the event that closes
//! the gap.

use sct_core::{Probe, SimEvent, StateView};
use sct_simcore::SimTime;
use std::time::Instant;

/// What closed a host-time gap between two event boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapKind {
    /// An arrival (admitted or rejected).
    Arrival,
    /// A wake that completed at least one stream.
    Completed,
    /// Any other event (buffer-full wakes, failures, pauses, samples…).
    Other,
}

/// Per-event host-time gaps after the warm-up, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Gaps {
    /// Gaps closed by arrivals.
    pub arrival: Vec<f64>,
    /// Gaps closed by completing wakes.
    pub completed: Vec<f64>,
    /// Gaps closed by every other event.
    pub other: Vec<f64>,
}

impl Gaps {
    /// Appends another trial's gaps.
    pub fn extend(&mut self, other: Gaps) {
        self.arrival.extend(other.arrival);
        self.completed.extend(other.completed);
        self.other.extend(other.other);
    }
}

/// Counts requests and stamps the end of set-up and of warm-up of one
/// trial; optionally records per-event gaps.
pub struct RequestProbe {
    warmup: SimTime,
    /// Host time of the first callback of any kind.
    pub first_callback: Option<Instant>,
    /// Host time of the first event at or after the warm-up.
    pub warm_at: Option<Instant>,
    /// Arrival resolutions over the whole run.
    pub requests: u64,
    /// Arrival resolutions at or after the warm-up.
    pub measured_requests: u64,
    /// Event boundaries (loop events dispatched) at or after the warm-up.
    pub measured_events: u64,
    gaps: Option<Gaps>,
    last_boundary: Option<Instant>,
    pending: GapKind,
}

impl RequestProbe {
    /// A probe for a trial measured from `warmup` on; `traced` turns on
    /// per-event gap stamps.
    pub fn new(warmup: SimTime, traced: bool) -> Self {
        RequestProbe {
            warmup,
            first_callback: None,
            warm_at: None,
            requests: 0,
            measured_requests: 0,
            measured_events: 0,
            gaps: traced.then(Gaps::default),
            last_boundary: None,
            pending: GapKind::Other,
        }
    }

    /// The recorded gaps (empty unless traced).
    pub fn take_gaps(&mut self) -> Gaps {
        self.gaps.take().unwrap_or_default()
    }

    fn stamp(&mut self, now: SimTime) {
        if self.first_callback.is_none() {
            self.first_callback = Some(Instant::now());
        }
        if self.warm_at.is_none() && now >= self.warmup {
            self.warm_at = Some(Instant::now());
        }
    }
}

impl Probe for RequestProbe {
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        self.stamp(now);
        let kind = match event {
            SimEvent::Admitted { .. } | SimEvent::Rejected { .. } => {
                self.requests += 1;
                if self.warm_at.is_some() {
                    self.measured_requests += 1;
                }
                GapKind::Arrival
            }
            SimEvent::Completed { .. } => GapKind::Completed,
            _ => GapKind::Other,
        };
        if self.pending == GapKind::Other || kind == GapKind::Arrival {
            self.pending = kind;
        }
    }

    /// Called once after every dispatched loop event, so it marks event
    /// boundaries even for wakes that narrate nothing. The view itself is
    /// never read, which is why `uses_state` stays `false`.
    fn on_state(&mut self, now: SimTime, _view: &StateView) {
        self.stamp(now);
        let kind = std::mem::replace(&mut self.pending, GapKind::Other);
        if self.warm_at.is_none() {
            return;
        }
        self.measured_events += 1;
        if let Some(gaps) = self.gaps.as_mut() {
            let t = Instant::now();
            if let Some(last) = self.last_boundary {
                let ns = (t - last).as_nanos() as f64;
                match kind {
                    GapKind::Arrival => gaps.arrival.push(ns),
                    GapKind::Completed => gaps.completed.push(ns),
                    GapKind::Other => gaps.other.push(ns),
                }
            }
            self.last_boundary = Some(t);
        }
    }

    fn uses_state(&self) -> bool {
        false
    }
}
