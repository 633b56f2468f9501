//! Typed simulation events and the probe (observer) layer.
//!
//! The event loop in [`crate::simulation`] narrates everything observable
//! that happens during a trial as a stream of [`SimEvent`] records. A
//! [`Probe`] subscribes to that stream; [`JsonlTraceProbe`] exports it as
//! a replayable JSONL trace (one `{"t": seconds, "event": {...}}` object
//! per line, externally-tagged variant encoding) for post-hoc analysis
//! with the `sct-analysis` trace reader.
//!
//! Each record names the causes the loop held when it emitted it: a
//! migrated or chained [`SimEvent::Admitted`] names the victims it
//! displaced, an emergency [`SimEvent::Migrated`] names the failed server
//! it left, and [`SimEvent::WaitlistServed`] names the completion, copy
//! or repair that freed its capacity. A reader links an effect to its
//! cause from the record alone, without relying on the order of records
//! within one instant.
//!
//! Probes observe; they never steer. The simulation's behaviour is
//! bit-identical with any set of probes attached, including none.

use sct_analysis::spans::EdgeEnd;
use sct_simcore::SimTime;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// How an accepted request obtained its slot, naming the streams its
/// admission displaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitPath {
    /// A replica holder had a free slot.
    Direct,
    /// A single victim migration freed the slot (DRM).
    Migrated {
        /// The stream moved off the admitting server.
        victim: u64,
    },
    /// A two-step migration chain freed the slot.
    Chained {
        /// The stream moved off the admitting server.
        outer: u64,
        /// The stream moved off the outer victim's target to make room
        /// for it.
        inner: u64,
    },
}

/// One observable simulation occurrence, stamped by the loop with the
/// simulation time at which it happened.
///
/// Ids are raw integers (stream id, video index, server index) so the
/// record is self-contained on the wire; the JSONL encoding is the
/// externally-tagged form `{"Admitted": {...}}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// A request was accepted and its stream started.
    Admitted {
        /// The new stream's id.
        stream: u64,
        /// Requested video index.
        video: u32,
        /// Server transmitting the stream.
        server: u16,
        /// How the slot was obtained.
        path: AdmitPath,
    },
    /// A request was turned away (it may still enter the waitlist).
    Rejected {
        /// The id the stream would have carried.
        stream: u64,
        /// Requested video index.
        video: u32,
    },
    /// A viewer stream finished transmission.
    Completed {
        /// The finished stream.
        stream: u64,
        /// Server it finished on.
        server: u16,
    },
    /// An active stream moved between servers: a DRM victim hand-off
    /// (named by the `Admitted` record that displaced it, at the same
    /// instant) or an emergency evacuation (caused by the failure of
    /// `from`, whose `ServerDown` record follows its evacuations).
    Migrated {
        /// The relocated stream.
        stream: u64,
        /// Previous host server.
        from: u16,
        /// New host server.
        to: u16,
        /// `true` when the move was a failure evacuation rather than an
        /// admission-time DRM hand-off.
        emergency: bool,
    },
    /// A server failed; its streams were evacuated (each one narrated by
    /// an emergency `Migrated` record before this one) or dropped.
    ServerDown {
        /// The failed server.
        server: u16,
        /// Streams re-homed on other servers.
        relocated: u32,
        /// Streams whose viewers lost service.
        dropped: u32,
    },
    /// A failed server came back online (empty).
    ServerUp {
        /// The repaired server.
        server: u16,
    },
    /// A viewer paused playback.
    Paused {
        /// The paused stream.
        stream: u64,
        /// Server currently hosting it.
        server: u16,
    },
    /// A paused viewer resumed playback.
    Resumed {
        /// The resumed stream.
        stream: u64,
        /// Server currently hosting it.
        server: u16,
    },
    /// A dynamic-replication copy started.
    CopyStarted {
        /// The copy stream's id (also the completion token).
        copy: u64,
        /// Video being replicated.
        video: u32,
        /// `true` for tertiary-sourced copies (no data-server bandwidth).
        tertiary: bool,
    },
    /// A replication copy finished.
    CopyDone {
        /// The copy stream's id.
        copy: u64,
        /// `true` if the replica was installed (`false` when the copy was
        /// aborted by a failure before completion).
        installed: bool,
    },
    /// A rejected request entered the wait queue.
    WaitlistQueued {
        /// The waiting request's stream id.
        stream: u64,
        /// Requested video index.
        video: u32,
    },
    /// A queued request was finally served.
    WaitlistServed {
        /// The served request's stream id.
        stream: u64,
        /// Requested video index.
        video: u32,
        /// Server that took the stream.
        server: u16,
        /// `true` when the viewer joined an existing multicast batch.
        batched: bool,
        /// How long the viewer waited, seconds.
        waited_secs: f64,
        /// What freed the capacity at this instant: the last stream the
        /// server reaped (a `Completed` viewer or a `CopyDone` copy), or
        /// the repaired server (`ServerUp`).
        cause: EdgeEnd,
    },
    /// Waiters ran out of patience and left the queue.
    WaitlistExpired {
        /// How many gave up at this instant.
        count: u32,
    },
}

impl SimEvent {
    /// Every variant tag, in declaration order. Kept next to
    /// [`SimEvent::kind`] so both fail to compile when a variant is
    /// added without updating them; `tests/probe_coverage.rs` asserts
    /// every probe accounts for every entry.
    pub const KINDS: [&'static str; 13] = [
        "Admitted",
        "Rejected",
        "Completed",
        "Migrated",
        "ServerDown",
        "ServerUp",
        "Paused",
        "Resumed",
        "CopyStarted",
        "CopyDone",
        "WaitlistQueued",
        "WaitlistServed",
        "WaitlistExpired",
    ];

    /// The variant name as it appears on the wire (the JSONL tag).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::Admitted { .. } => "Admitted",
            SimEvent::Rejected { .. } => "Rejected",
            SimEvent::Completed { .. } => "Completed",
            SimEvent::Migrated { .. } => "Migrated",
            SimEvent::ServerDown { .. } => "ServerDown",
            SimEvent::ServerUp { .. } => "ServerUp",
            SimEvent::Paused { .. } => "Paused",
            SimEvent::Resumed { .. } => "Resumed",
            SimEvent::CopyStarted { .. } => "CopyStarted",
            SimEvent::CopyDone { .. } => "CopyDone",
            SimEvent::WaitlistQueued { .. } => "WaitlistQueued",
            SimEvent::WaitlistServed { .. } => "WaitlistServed",
            SimEvent::WaitlistExpired { .. } => "WaitlistExpired",
        }
    }
}

/// An observer of the simulation's event stream.
///
/// Probes receive every [`SimEvent`] in simulation-time order, stamped
/// with its time. They must not assume anything about wall-clock
/// interleaving and cannot influence the run.
pub trait Probe {
    /// Called once per event, in order.
    fn on_event(&mut self, now: SimTime, event: &SimEvent);

    /// Called after each event's handler with a read-only view of world
    /// state at the event boundary. Default: ignore (event-only probes
    /// need no state).
    fn on_state(&mut self, _now: SimTime, _view: &crate::metrics::StateView) {}

    /// Whether this probe consumes [`Probe::on_state`] views. Purely
    /// descriptive: the loop no longer reads it, and publishes state to
    /// every probe after every event either way. Defaults to `true`;
    /// event-only probes override it to say they ignore the views.
    fn uses_state(&self) -> bool {
        true
    }
}

/// Fans one event out to every attached probe, in order.
pub(crate) fn emit(probes: &mut [&mut dyn Probe], now: SimTime, event: &SimEvent) {
    for p in probes.iter_mut() {
        p.on_event(now, event);
    }
}

/// Streams the event record to a file as JSON Lines: one
/// `{"t": <secs>, "event": {"<Kind>": {...}}}` object per line.
///
/// I/O errors are deferred: the probe keeps a sticky first error and
/// [`JsonlTraceProbe::finish`] surfaces it, so the simulation loop stays
/// infallible.
pub struct JsonlTraceProbe {
    out: std::io::BufWriter<std::fs::File>,
    lines: u64,
    error: Option<std::io::Error>,
}

impl JsonlTraceProbe {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlTraceProbe {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
            lines: 0,
            error: None,
        })
    }

    /// Flushes the writer and returns the number of lines written, or the
    /// first I/O error encountered while streaming.
    pub fn finish(mut self) -> std::io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.lines)
    }
}

impl Drop for JsonlTraceProbe {
    /// Flushes buffered lines so the trace on disk is complete even when
    /// the probe is dropped without [`JsonlTraceProbe::finish`] (e.g. an
    /// early return or panic unwinding past the caller). Errors here are
    /// unreportable and dropped; call `finish` to observe them.
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

impl Probe for JsonlTraceProbe {
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let body = serde_json::to_string(event).expect("SimEvent serialises");
        // f64 Display is shortest-exact and never exponential: valid JSON.
        let line = format!("{{\"t\":{},\"event\":{}}}\n", now.as_secs(), body);
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        } else {
            self.lines += 1;
        }
    }

    fn uses_state(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_event_round_trips_through_json() {
        let events = [
            SimEvent::Admitted {
                stream: 7,
                video: 3,
                server: 1,
                path: AdmitPath::Chained { outer: 5, inner: 2 },
            },
            SimEvent::Admitted {
                stream: 8,
                video: 3,
                server: 1,
                path: AdmitPath::Migrated { victim: 6 },
            },
            SimEvent::Admitted {
                stream: 9,
                video: 0,
                server: 0,
                path: AdmitPath::Direct,
            },
            SimEvent::Migrated {
                stream: 2,
                from: 0,
                to: 1,
                emergency: true,
            },
            SimEvent::WaitlistServed {
                stream: 4,
                video: 1,
                server: 0,
                batched: true,
                waited_secs: 0.8734561234,
                cause: EdgeEnd::Stream { stream: 3 },
            },
            SimEvent::WaitlistServed {
                stream: 9,
                video: 0,
                server: 2,
                batched: false,
                waited_secs: 12.5,
                cause: EdgeEnd::Server { server: 2 },
            },
        ];
        assert_eq!(
            serde_json::to_string(&events[0]).unwrap(),
            "{\"Admitted\":{\"stream\":7,\"video\":3,\"server\":1,\
             \"path\":{\"Chained\":{\"outer\":5,\"inner\":2}}}}"
        );
        for ev in &events {
            let json = serde_json::to_string(ev).unwrap();
            assert!(json.contains(ev.kind()), "{json}");
            let back: SimEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn jsonl_probe_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("sct-events-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.jsonl");
        let mut probe = JsonlTraceProbe::create(&path).unwrap();
        probe.on_event(SimTime::from_secs(1.25), &SimEvent::ServerUp { server: 3 });
        probe.on_event(
            SimTime::from_secs(2.5),
            &SimEvent::WaitlistExpired { count: 2 },
        );
        assert_eq!(probe.finish().unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":1.25,\"event\":{\"ServerUp\":{\"server\":3}}}"
        );
        assert!(lines[1].starts_with("{\"t\":2.5,"));
    }

    #[test]
    fn jsonl_probe_dropped_without_finish_still_flushes() {
        let dir = std::env::temp_dir().join("sct-events-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dropped.jsonl");
        {
            let mut probe = JsonlTraceProbe::create(&path).unwrap();
            for i in 0..100 {
                probe.on_event(
                    SimTime::from_secs(i as f64),
                    &SimEvent::ServerUp { server: i },
                );
            }
            // No finish(): the Drop impl must flush the BufWriter.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = sct_analysis::Trace::parse(&text).expect("dropped trace parses fully");
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.count("ServerUp"), 100);
        for (i, ev) in trace.events.iter().enumerate() {
            assert_eq!(ev.t, i as f64);
            assert_eq!(ev.num_field("server"), Some(i as f64));
        }
    }
}
