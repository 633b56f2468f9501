//! Request-lifecycle spans, causal edges, and their exporters.
//!
//! A [`SpanSet`] is the wire form of the core's span probe
//! (`sct-core::spans`, exported by `sctsim run --spans FILE`): one
//! [`Span`] per request (and per replication copy) covering its whole
//! life — arrival, waitlist wait, admission, migration hops,
//! completion — plus the [`CausalEdge`]s that explain *why* individual
//! streams moved (a DRM victim was displaced by an admission, a chain-2
//! inner hop served an outer hop, an evacuation was forced by a server
//! failure, a waitlist serve rode a freed slot).
//!
//! This crate sits *below* sct-core, so the schema is self-contained:
//! stream/server ids are raw integers and times are seconds. Exporters:
//!
//! * [`SpanSet::to_perfetto`] — Chrome-trace/Perfetto JSON (`ph:"X"`
//!   duration events per span and segment, `ph:"s"/"f"` flow events per
//!   causal edge, `ph:"i"` instants for server failures) loadable in
//!   `ui.perfetto.dev` or `chrome://tracing`.
//! * [`SpanSet::critical_path`] / [`SpanSet::critical_path_report`] —
//!   for any completed request, the dominant-latency component: queue
//!   wait vs transmission (staging workahead) vs paused time. Migration
//!   hops are counted but contribute no latency component of their own:
//!   per the paper's §4 hand-off rule a victim is only feasible when its
//!   staging buffer covers the hand-off latency, so hops are jitter-free
//!   by construction.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// What kind of stream a span narrates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// A viewer request (the unit of admission control).
    Viewer,
    /// A dynamic-replication copy stream.
    Copy,
}

/// How a span's life ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanOutcome {
    /// Transmission finished (for copies: the replica installed).
    Completed,
    /// Turned away at arrival and never queued.
    Rejected,
    /// Queued, then ran out of patience.
    Expired,
    /// Lost service (failure drop, or a copy aborted mid-flight).
    Dropped,
    /// Still alive when the simulation horizon closed.
    Open,
}

/// How an accepted request obtained its slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitVia {
    /// A replica holder had a free slot at arrival.
    Direct,
    /// A single DRM victim hand-off freed the slot.
    Migrated,
    /// A two-step migration chain freed the slot.
    Chained,
    /// Served from the admission wait queue.
    Waitlist,
}

/// What a span was doing during one segment of its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Queued in the waitlist (no resources held).
    Wait,
    /// Being transmitted by a server.
    Serve,
    /// Playback paused (slot still held; staging may keep filling).
    Pause,
}

/// One contiguous phase of a span's life.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// What the request was doing.
    pub kind: SegmentKind,
    /// Hosting server for `Serve`/`Pause` segments; `None` while waiting.
    pub server: Option<u16>,
    /// Segment start, seconds.
    pub start_secs: f64,
    /// Segment end, seconds; `None` when still open at the horizon.
    pub end_secs: Option<f64>,
}

impl Segment {
    /// The segment's duration against `horizon` when still open.
    pub fn duration_secs(&self, horizon: f64) -> f64 {
        (self.end_secs.unwrap_or(horizon) - self.start_secs).max(0.0)
    }
}

/// One request's (or copy's) whole observable life.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// The stream id (unique per trial; copies share the id space).
    pub stream: u64,
    /// Requested video index.
    pub video: u32,
    /// Viewer request or replication copy.
    pub kind: SpanKind,
    /// Arrival (or copy launch) time, seconds.
    pub start_secs: f64,
    /// Terminal time, seconds; `None` when open at the horizon.
    pub end_secs: Option<f64>,
    /// How the life ended.
    pub outcome: SpanOutcome,
    /// How the slot was obtained; `None` for rejections and copies.
    pub admit_via: Option<AdmitVia>,
    /// Migration hops the stream survived.
    pub hops: u32,
    /// Life phases, in time order.
    pub segments: Vec<Segment>,
}

impl Span {
    /// Span duration against `horizon` when still open.
    pub fn duration_secs(&self, horizon: f64) -> f64 {
        (self.end_secs.unwrap_or(horizon) - self.start_secs).max(0.0)
    }
}

/// One endpoint of a causal edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeEnd {
    /// A stream's span.
    Stream {
        /// The stream id.
        stream: u64,
    },
    /// A server instant (failure/repair), not a span.
    Server {
        /// The server id.
        server: u16,
    },
}

/// Why one span's event happened — the paper's mechanisms are causal
/// chains, and these are the links.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// A DRM victim hand-off: `cause` is the admitted arrival, `effect`
    /// the stream its admission displaced.
    Displaced,
    /// A chain-2 inner hop: `cause` is the outer victim whose landing
    /// required the move, `effect` the inner victim.
    ChainInner,
    /// An emergency evacuation: `cause` is the failed server, `effect`
    /// the relocated stream.
    Evacuated,
    /// A waitlist serve: `cause` is the completion/repair/copy-finish
    /// that freed the capacity, `effect` the served waiter.
    FreedSlot,
}

/// One causal link between two spans (or a server instant and a span).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CausalEdge {
    /// The mechanism that links the endpoints.
    pub kind: EdgeKind,
    /// When the effect happened, seconds.
    pub at_secs: f64,
    /// The triggering end.
    pub cause: EdgeEnd,
    /// The affected end (always a stream).
    pub effect: EdgeEnd,
}

/// A server availability instant (for the failure timeline).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServerMark {
    /// The server.
    pub server: u16,
    /// When, seconds.
    pub at_secs: f64,
    /// `true` for a failure, `false` for a repair.
    pub down: bool,
    /// Streams rescued by evacuation (failures only).
    pub relocated: u32,
    /// Streams whose viewers lost service (failures only).
    pub dropped: u32,
}

/// A complete span export: one trial's request lifecycles, causal edges,
/// and server availability marks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanSet {
    /// Simulation horizon, seconds (closes open spans in exports).
    pub horizon_secs: f64,
    /// One span per stream, in stream-id order.
    pub spans: Vec<Span>,
    /// Causal edges, in emission order.
    pub edges: Vec<CausalEdge>,
    /// Server failure/repair instants, in time order.
    pub marks: Vec<ServerMark>,
}

/// Latency decomposition of one completed request — which phase of its
/// life dominated the time from arrival to completion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CriticalPath {
    /// The stream this decomposes.
    pub stream: u64,
    /// Arrival-to-terminal time, seconds.
    pub total_secs: f64,
    /// Seconds spent queued in the waitlist.
    pub wait_secs: f64,
    /// Seconds being transmitted (staging workahead + playback).
    pub serve_secs: f64,
    /// Seconds paused by the viewer.
    pub pause_secs: f64,
    /// Migration hops survived (jitter-free: staged data covers the
    /// hand-off latency by admission rule, so hops add no segment time).
    pub hops: u32,
    /// The dominant component: `"wait"`, `"serve"`, or `"pause"`.
    pub dominant: &'static str,
}

impl SpanSet {
    /// Parses a span set from its JSON export.
    pub fn from_json(text: &str) -> Result<SpanSet, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid span set: {e}"))
    }

    /// Serialises the span set as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("span set serialises")
    }

    /// Looks up a span by stream id.
    pub fn span(&self, stream: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.stream == stream)
    }

    /// Edges of one kind, in emission order.
    pub fn edges_of(&self, kind: EdgeKind) -> impl Iterator<Item = &CausalEdge> + '_ {
        self.edges.iter().filter(move |e| e.kind == kind)
    }

    /// Spans with one outcome, in stream order.
    pub fn with_outcome(&self, outcome: SpanOutcome) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.outcome == outcome)
    }

    /// The latency decomposition of one span (`None` for spans without
    /// segments, i.e. immediate rejections).
    pub fn critical_path(&self, span: &Span) -> Option<CriticalPath> {
        if span.segments.is_empty() {
            return None;
        }
        let mut wait = 0.0;
        let mut serve = 0.0;
        let mut pause = 0.0;
        for seg in &span.segments {
            let d = seg.duration_secs(self.horizon_secs);
            match seg.kind {
                SegmentKind::Wait => wait += d,
                SegmentKind::Serve => serve += d,
                SegmentKind::Pause => pause += d,
            }
        }
        let dominant = if wait >= serve && wait >= pause {
            "wait"
        } else if serve >= pause {
            "serve"
        } else {
            "pause"
        };
        Some(CriticalPath {
            stream: span.stream,
            total_secs: span.duration_secs(self.horizon_secs),
            wait_secs: wait,
            serve_secs: serve,
            pause_secs: pause,
            hops: span.hops,
            dominant,
        })
    }

    /// A one-screen markdown summary: spans by outcome, edges by kind,
    /// and the failure-mark count.
    pub fn summary_markdown(&self) -> String {
        let mut out = format!(
            "# Span set ({} spans, {} causal edges, horizon {:.0} s)\n\n",
            self.spans.len(),
            self.edges.len(),
            self.horizon_secs
        );
        let mut t = crate::report::Table::new(vec!["outcome", "viewers", "copies"]);
        for (name, outcome) in [
            ("completed", SpanOutcome::Completed),
            ("rejected", SpanOutcome::Rejected),
            ("expired", SpanOutcome::Expired),
            ("dropped", SpanOutcome::Dropped),
            ("open", SpanOutcome::Open),
        ] {
            let viewers = self
                .with_outcome(outcome)
                .filter(|s| s.kind == SpanKind::Viewer)
                .count();
            let copies = self
                .with_outcome(outcome)
                .filter(|s| s.kind == SpanKind::Copy)
                .count();
            t.push_row(vec![
                name.to_string(),
                viewers.to_string(),
                copies.to_string(),
            ]);
        }
        out.push_str("## Spans\n\n");
        out.push_str(&t.to_markdown());
        out.push('\n');
        let mut t = crate::report::Table::new(vec!["edge", "count"]);
        for (name, kind) in [
            ("displaced (DRM victim ← admission)", EdgeKind::Displaced),
            ("chain inner hop ← outer hop", EdgeKind::ChainInner),
            ("evacuated ← server failure", EdgeKind::Evacuated),
            ("waitlist serve ← freed slot", EdgeKind::FreedSlot),
        ] {
            t.push_row(vec![
                name.to_string(),
                self.edges_of(kind).count().to_string(),
            ]);
        }
        out.push_str("## Causal edges\n\n");
        out.push_str(&t.to_markdown());
        out.push('\n');
        let downs = self.marks.iter().filter(|m| m.down).count();
        out.push_str(&format!(
            "{} server failures, {} repairs\n",
            downs,
            self.marks.len() - downs
        ));
        out
    }

    /// The critical-path report: aggregate latency decomposition over
    /// completed viewer requests plus the `top` longest lifecycles.
    pub fn critical_path_report(&self, top: usize) -> String {
        let mut paths: Vec<CriticalPath> = self
            .with_outcome(SpanOutcome::Completed)
            .filter(|s| s.kind == SpanKind::Viewer)
            .filter_map(|s| self.critical_path(s))
            .collect();
        if paths.is_empty() {
            return "no completed viewer spans\n".to_string();
        }
        let n = paths.len() as f64;
        let mean = |f: fn(&CriticalPath) -> f64| paths.iter().map(f).sum::<f64>() / n;
        let dominated = |k: &str| paths.iter().filter(|p| p.dominant == k).count();
        let mut out = format!(
            "# Critical path over {} completed requests\n\n",
            paths.len()
        );
        let mut t =
            crate::report::Table::new(vec!["component", "mean (s)", "max (s)", "dominates"]);
        for (name, f) in [
            (
                "queue wait",
                (|p: &CriticalPath| p.wait_secs) as fn(&CriticalPath) -> f64,
            ),
            ("serve (staging + playback)", |p: &CriticalPath| {
                p.serve_secs
            }),
            ("paused", |p: &CriticalPath| p.pause_secs),
        ] {
            let key = name.split_whitespace().next().unwrap();
            let key = if key == "queue" { "wait" } else { key };
            t.push_row(vec![
                name.to_string(),
                format!("{:.2}", mean(f)),
                format!("{:.2}", paths.iter().map(f).fold(0.0, f64::max)),
                format!("{}", dominated(key)),
            ]);
        }
        out.push_str(&t.to_markdown());
        let total_hops: u32 = paths.iter().map(|p| p.hops).sum();
        out.push_str(&format!(
            "\n{total_hops} migration hops across completed requests \
             (jitter-free: staged data covers each hand-off)\n\n"
        ));
        paths.sort_by(|a, b| {
            b.total_secs
                .total_cmp(&a.total_secs)
                .then(a.stream.cmp(&b.stream))
        });
        let mut t = crate::report::Table::new(vec![
            "stream",
            "total (s)",
            "wait (s)",
            "serve (s)",
            "paused (s)",
            "hops",
            "dominant",
        ]);
        for p in paths.iter().take(top) {
            t.push_row(vec![
                p.stream.to_string(),
                format!("{:.2}", p.total_secs),
                format!("{:.2}", p.wait_secs),
                format!("{:.2}", p.serve_secs),
                format!("{:.2}", p.pause_secs),
                p.hops.to_string(),
                p.dominant.to_string(),
            ]);
        }
        out.push_str(&format!(
            "## {} longest lifecycles\n\n",
            top.min(paths.len())
        ));
        out.push_str(&t.to_markdown());
        out
    }

    /// Exports the span set in the Chrome trace event format (loadable in
    /// Perfetto / `chrome://tracing`): requests are process 1 with one
    /// thread (track) per stream, servers are process 2 with one track
    /// per server. Every span and segment becomes a `ph:"X"` duration
    /// event (`ts`/`dur` in microseconds); causal edges become `s`/`f`
    /// flow events; failures/repairs become `ph:"i"` instants. Open spans
    /// are clamped to the horizon.
    pub fn to_perfetto(&self) -> String {
        let us = |secs: f64| secs * 1e6;
        // Events are written straight into the output, each after a ",\n"
        // separator; the two process-name records come first.
        let mut out = String::from(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"requests\"}},\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"servers\"}}",
        );
        for span in &self.spans {
            let kind = match span.kind {
                SpanKind::Viewer => "request",
                SpanKind::Copy => "copy",
            };
            let via = match span.admit_via {
                Some(AdmitVia::Direct) => "Direct",
                Some(AdmitVia::Migrated) => "Migrated",
                Some(AdmitVia::Chained) => "Chained",
                Some(AdmitVia::Waitlist) => "Waitlist",
                None => "-",
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{kind} {} (video {})\",\"cat\":\"{kind}\",\"ph\":\"X\",\
                 \"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"outcome\":\"{:?}\",\"admit_via\":\"{via}\",\"hops\":{}}}}}",
                span.stream,
                span.video,
                span.stream,
                us(span.start_secs),
                us(span.duration_secs(self.horizon_secs)),
                span.outcome,
                span.hops,
            );
            for seg in &span.segments {
                // A segment's name is its category, plus its server when
                // it holds one.
                let cat = match seg.kind {
                    SegmentKind::Wait => "wait",
                    SegmentKind::Serve => "serve",
                    SegmentKind::Pause => "pause",
                };
                let _ = write!(out, ",\n{{\"name\":\"{cat}");
                if !matches!(seg.kind, SegmentKind::Wait) {
                    let _ = write!(out, "@s{}", seg.server.unwrap_or(u16::MAX));
                }
                let _ = write!(
                    out,
                    "\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                     \"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                    span.stream,
                    us(seg.start_secs),
                    us(seg.duration_secs(self.horizon_secs)),
                );
            }
        }
        for (i, edge) in self.edges.iter().enumerate() {
            let name = match edge.kind {
                EdgeKind::Displaced => "displaced-by-admission",
                EdgeKind::ChainInner => "chain-inner-hop",
                EdgeKind::Evacuated => "evacuated-by-failure",
                EdgeKind::FreedSlot => "served-by-freed-slot",
            };
            let anchor = |end: &EdgeEnd| match *end {
                EdgeEnd::Stream { stream } => (1u32, stream),
                EdgeEnd::Server { server } => (2u32, server as u64),
            };
            let (cpid, ctid) = anchor(&edge.cause);
            let (epid, etid) = anchor(&edge.effect);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":{i},\
                 \"pid\":{cpid},\"tid\":{ctid},\"ts\":{}}}",
                us(edge.at_secs),
            );
            let _ = write!(
                out,
                ",\n{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{i},\"pid\":{epid},\"tid\":{etid},\"ts\":{}}}",
                us(edge.at_secs),
            );
        }
        for mark in &self.marks {
            let name = if mark.down { "ServerDown" } else { "ServerUp" };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{name}\",\"cat\":\"availability\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":2,\"tid\":{},\"ts\":{},\
                 \"args\":{{\"relocated\":{},\"dropped\":{}}}}}",
                mark.server,
                us(mark.at_secs),
                mark.relocated,
                mark.dropped,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpanSet {
        SpanSet {
            horizon_secs: 100.0,
            spans: vec![
                Span {
                    stream: 0,
                    video: 2,
                    kind: SpanKind::Viewer,
                    start_secs: 0.0,
                    end_secs: Some(40.0),
                    outcome: SpanOutcome::Completed,
                    admit_via: Some(AdmitVia::Direct),
                    hops: 1,
                    segments: vec![
                        Segment {
                            kind: SegmentKind::Serve,
                            server: Some(0),
                            start_secs: 0.0,
                            end_secs: Some(10.0),
                        },
                        Segment {
                            kind: SegmentKind::Serve,
                            server: Some(1),
                            start_secs: 10.0,
                            end_secs: Some(40.0),
                        },
                    ],
                },
                Span {
                    stream: 1,
                    video: 0,
                    kind: SpanKind::Viewer,
                    start_secs: 5.0,
                    end_secs: Some(70.0),
                    outcome: SpanOutcome::Completed,
                    admit_via: Some(AdmitVia::Waitlist),
                    hops: 0,
                    segments: vec![
                        Segment {
                            kind: SegmentKind::Wait,
                            server: None,
                            start_secs: 5.0,
                            end_secs: Some(40.0),
                        },
                        Segment {
                            kind: SegmentKind::Serve,
                            server: Some(1),
                            start_secs: 40.0,
                            end_secs: Some(70.0),
                        },
                    ],
                },
                Span {
                    stream: 2,
                    video: 1,
                    kind: SpanKind::Viewer,
                    start_secs: 50.0,
                    end_secs: None,
                    outcome: SpanOutcome::Open,
                    admit_via: Some(AdmitVia::Migrated),
                    hops: 0,
                    segments: vec![Segment {
                        kind: SegmentKind::Serve,
                        server: Some(0),
                        start_secs: 50.0,
                        end_secs: None,
                    }],
                },
            ],
            edges: vec![
                CausalEdge {
                    kind: EdgeKind::Displaced,
                    at_secs: 10.0,
                    cause: EdgeEnd::Stream { stream: 2 },
                    effect: EdgeEnd::Stream { stream: 0 },
                },
                CausalEdge {
                    kind: EdgeKind::FreedSlot,
                    at_secs: 40.0,
                    cause: EdgeEnd::Stream { stream: 0 },
                    effect: EdgeEnd::Stream { stream: 1 },
                },
                CausalEdge {
                    kind: EdgeKind::Evacuated,
                    at_secs: 90.0,
                    cause: EdgeEnd::Server { server: 1 },
                    effect: EdgeEnd::Stream { stream: 2 },
                },
            ],
            marks: vec![ServerMark {
                server: 1,
                at_secs: 90.0,
                down: true,
                relocated: 1,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let set = sample();
        let back = SpanSet::from_json(&set.to_json()).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn bad_json_names_the_problem() {
        let err = SpanSet::from_json("{oops").unwrap_err();
        assert!(err.contains("invalid span set"), "{err}");
    }

    #[test]
    fn critical_path_decomposes_and_picks_dominant() {
        let set = sample();
        let cp = set.critical_path(set.span(1).unwrap()).unwrap();
        assert_eq!(cp.total_secs, 65.0);
        assert_eq!(cp.wait_secs, 35.0);
        assert_eq!(cp.serve_secs, 30.0);
        assert_eq!(cp.pause_secs, 0.0);
        assert_eq!(cp.dominant, "wait");
        let cp0 = set.critical_path(set.span(0).unwrap()).unwrap();
        assert_eq!(cp0.dominant, "serve");
        assert_eq!(cp0.hops, 1);
    }

    #[test]
    fn critical_path_clamps_open_spans_to_horizon() {
        let set = sample();
        let cp = set.critical_path(set.span(2).unwrap()).unwrap();
        assert_eq!(cp.total_secs, 50.0);
        assert_eq!(cp.serve_secs, 50.0);
    }

    #[test]
    fn reports_render_markdown() {
        let set = sample();
        let summary = set.summary_markdown();
        assert!(summary.contains("3 spans"), "{summary}");
        assert!(summary.contains("| completed | 2 | 0 |"), "{summary}");
        assert!(summary.contains("1 server failures"), "{summary}");
        let report = set.critical_path_report(10);
        assert!(report.contains("2 completed requests"), "{report}");
        assert!(report.contains("queue wait"), "{report}");
        assert!(report.contains("1 migration hops"), "{report}");
    }

    /// Wrapper so the vendored parser can hand back an untyped tree.
    struct RawValue(serde::Value);

    impl serde::Deserialize for RawValue {
        fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
            Ok(RawValue(v.clone()))
        }
    }

    #[test]
    fn perfetto_export_has_required_fields_and_nests() {
        let set = sample();
        let text = set.to_perfetto();
        // Self-check with the vendored parser: it is valid JSON.
        let RawValue(parsed) = serde_json::from_str(&text).unwrap();
        let map = parsed.as_map().unwrap();
        let events = map
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_seq())
            .unwrap();
        // 3 spans + 5 segments + 2 metadata + 3×2 flows + 1 instant.
        assert_eq!(events.len(), 17);
        let field = |ev: &serde::Value, name: &str| -> Option<f64> {
            match ev.as_map()?.iter().find(|(k, _)| k == name)? {
                (_, serde::Value::Num(x)) => Some(*x),
                (_, serde::Value::Int(i)) => Some(*i as f64),
                _ => None,
            }
        };
        let phase = |ev: &serde::Value| -> String {
            match ev.as_map().unwrap().iter().find(|(k, _)| k == "ph") {
                Some((_, serde::Value::Str(s))) => s.clone(),
                _ => panic!("event without ph"),
            }
        };
        let mut durations = 0;
        for ev in events {
            assert!(field(ev, "pid").is_some(), "{ev:?}");
            assert!(field(ev, "tid").is_some(), "{ev:?}");
            if phase(ev) == "X" {
                durations += 1;
                assert!(field(ev, "ts").is_some(), "{ev:?}");
                assert!(field(ev, "dur").is_some(), "{ev:?}");
            }
        }
        assert_eq!(durations, 8);
        // Segments nest inside their request span on the same track: for
        // stream 1, the wait and serve segments tile [5 s, 70 s].
        let on_track_1: Vec<(f64, f64)> = events
            .iter()
            .filter(|ev| phase(ev) == "X" && field(ev, "tid") == Some(1.0))
            .map(|ev| (field(ev, "ts").unwrap(), field(ev, "dur").unwrap()))
            .collect();
        assert_eq!(on_track_1.len(), 3);
        let (outer_ts, outer_dur) = on_track_1[0];
        for &(ts, dur) in &on_track_1[1..] {
            assert!(ts >= outer_ts && ts + dur <= outer_ts + outer_dur + 1e-6);
        }
    }
}
