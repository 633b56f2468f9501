//! Request-lifecycle span capture: the [`SpanProbe`].
//!
//! The paper's headline mechanisms are *causal chains* — a DRM victim
//! moved because an arrival was admitted, a chain-2 inner hop moved so
//! the outer victim could land, an evacuation happened because a server
//! failed, a waiter was served because a completion freed a slot. The
//! aggregate counters ([`crate::simulation::SimOutcome`]) and histograms
//! ([`crate::metrics::TelemetryProbe`]) can say *how many* of each
//! happened, never *why this one*. The [`SpanProbe`] closes that gap: it
//! folds the [`SimEvent`] stream into one [`Span`] per request (and per
//! replication copy) — arrival → waitlist wait → admission → migration
//! hops → completion/drop — and records a [`CausalEdge`] for every link
//! the loop narrates.
//!
//! Like every probe it observes and never steers: golden snapshots in
//! `tests/golden_outcomes.rs` prove a run with the probe attached is
//! bit-identical to a bare run.
//!
//! ## Causal attribution rules
//!
//! Every edge comes from the one record that names both of its ends:
//!
//! * `Admitted { path: Migrated { victim } }` → a [`EdgeKind::Displaced`]
//!   edge, admission → victim.
//! * `Admitted { path: Chained { outer, inner } }` → a `Displaced` edge,
//!   admission → outer victim, and an [`EdgeKind::ChainInner`] edge,
//!   outer victim → inner victim.
//! * An emergency `Migrated { from, .. }` → an [`EdgeKind::Evacuated`]
//!   edge, failed server → rescued stream. The loop narrates a failure's
//!   evacuations before its `ServerDown`, so viewer spans still on the
//!   failed server at `ServerDown` lost service and close as
//!   [`SpanOutcome::Dropped`]. (A stream that finished at the exact
//!   failure instant but was not yet reaped would be misclassified as
//!   dropped; completions are reaped by a same-instant wake, so this
//!   needs an exact float tie between the finish time and the failure
//!   draw.)
//! * `WaitlistServed { cause, .. }` → an [`EdgeKind::FreedSlot`] edge,
//!   cause → served waiter, where the cause is the stream whose reaping
//!   freed the capacity or the repaired server.
//! * `WaitlistExpired` carries only a count; `Waitlist::expire` pops the
//!   FIFO prefix whose patience ran out, so the probe attributes the
//!   expiry to the `count` longest-waiting spans still queued.
//!
//! ## Model caveats
//!
//! * Multicast-batched waiters ride the leader's stream and never
//!   complete on their own; their spans stay open to the horizon.
//! * Cluster-sourced copies aborted by a failure are never narrated
//!   again (the engine drops them without an event), so their spans
//!   also stay open; tertiary copies always get a terminal `CopyDone`.
//! * Copy spans carry no server (the event doesn't), so a failure
//!   cannot close them as dropped.

use crate::config::SimConfig;
use crate::events::{AdmitPath, Probe, SimEvent};
use crate::simulation::{SimOutcome, Simulation};
use sct_analysis::spans::{
    AdmitVia, CausalEdge, EdgeEnd, EdgeKind, Segment, SegmentKind, ServerMark, Span, SpanKind,
    SpanOutcome, SpanSet,
};
use sct_simcore::SimTime;
use std::collections::VecDeque;

/// Fold-time form of a [`Span`]: the scalar fields plus an intrusive
/// segment chain into the probe's arena. Materialised into the wire
/// [`Span`] (with its owned `segments` vector) only by
/// [`SpanProbe::finish`] — per-span vectors would cost one heap
/// allocation per request on the per-event hot path, which
/// `tests/probe_allocations.rs` counts and bounds.
struct FoldSpan {
    stream: u64,
    video: u32,
    kind: SpanKind,
    start_secs: f64,
    end_secs: Option<f64>,
    outcome: SpanOutcome,
    admit_via: Option<AdmitVia>,
    hops: u32,
    /// First segment in the arena chain (`NO_SEG` = none yet).
    seg_head: u32,
    /// Last segment in the arena chain (`NO_SEG` = none yet).
    seg_tail: u32,
}

/// One arena slot: a segment plus the index of its span's next segment.
struct SegNode {
    seg: Segment,
    next: u32,
}

/// Sentinel for "no segment" in [`FoldSpan`] chains.
const NO_SEG: u32 = u32::MAX;

/// A pure [`Probe`] that folds the event stream into per-request
/// lifecycle [`Span`]s with [`CausalEdge`]s. Reduce with
/// [`SpanProbe::finish`] after the run.
pub struct SpanProbe {
    spans: Vec<FoldSpan>,
    /// Shared segment storage; spans chain through [`SegNode::next`].
    segs: Vec<SegNode>,
    /// Span index per stream id (`NO_SPAN` = none). The loop hands out
    /// ids from one dense counter, so a flat vector beats hashing on
    /// the per-event hot path.
    by_stream: Vec<usize>,
    /// Queued waiters in waitlist order (expiry attribution).
    waiting: VecDeque<u64>,
    edges: Vec<CausalEdge>,
    marks: Vec<ServerMark>,
}

/// Sentinel in [`SpanProbe::by_stream`] for "no span yet".
const NO_SPAN: usize = usize::MAX;

impl Default for SpanProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProbe {
    /// An empty probe, ready to attach to `Simulation::run_with_probes`.
    pub fn new() -> Self {
        // Seed capacities large enough for a typical trial so the first
        // thousand requests never pay a growth-reallocation memcpy.
        SpanProbe {
            spans: Vec::with_capacity(1024),
            segs: Vec::with_capacity(2048),
            by_stream: Vec::with_capacity(2048),
            waiting: VecDeque::new(),
            edges: Vec::with_capacity(256),
            marks: Vec::new(),
        }
    }

    /// Reduces the fold to its wire form. `horizon_secs` (the trial
    /// duration) closes open spans in exports.
    pub fn finish(mut self, horizon_secs: f64) -> SpanSet {
        self.spans.sort_by_key(|s| s.stream);
        let spans = self
            .spans
            .iter()
            .map(|f| {
                let mut segments = Vec::new();
                let mut at = f.seg_head;
                while at != NO_SEG {
                    let node = &self.segs[at as usize];
                    segments.push(node.seg);
                    at = node.next;
                }
                Span {
                    stream: f.stream,
                    video: f.video,
                    kind: f.kind,
                    start_secs: f.start_secs,
                    end_secs: f.end_secs,
                    outcome: f.outcome,
                    admit_via: f.admit_via,
                    hops: f.hops,
                    segments,
                }
            })
            .collect();
        SpanSet {
            horizon_secs,
            spans,
            edges: self.edges,
            marks: self.marks,
        }
    }

    /// The open-or-closed span of `stream`, if one was ever started.
    #[inline]
    fn span_of(&self, stream: u64) -> Option<usize> {
        self.by_stream
            .get(stream as usize)
            .copied()
            .filter(|&idx| idx != NO_SPAN)
    }

    fn open_span(&mut self, stream: u64, video: u32, kind: SpanKind, t: f64) -> usize {
        let idx = self.spans.len();
        self.spans.push(FoldSpan {
            stream,
            video,
            kind,
            start_secs: t,
            end_secs: None,
            outcome: SpanOutcome::Open,
            admit_via: None,
            hops: 0,
            seg_head: NO_SEG,
            seg_tail: NO_SEG,
        });
        let slot = stream as usize;
        if slot >= self.by_stream.len() {
            self.by_stream.resize(slot + 1, NO_SPAN);
        }
        self.by_stream[slot] = idx;
        idx
    }

    /// The span's most recent segment, if any.
    fn last_segment(&self, idx: usize) -> Option<&Segment> {
        let tail = self.spans[idx].seg_tail;
        (tail != NO_SEG).then(|| &self.segs[tail as usize].seg)
    }

    fn end_segment(&mut self, idx: usize, t: f64) {
        let tail = self.spans[idx].seg_tail;
        if tail != NO_SEG {
            let seg = &mut self.segs[tail as usize].seg;
            if seg.end_secs.is_none() {
                seg.end_secs = Some(t);
            }
        }
    }

    fn start_segment(&mut self, idx: usize, kind: SegmentKind, server: Option<u16>, t: f64) {
        let at = self.segs.len() as u32;
        self.segs.push(SegNode {
            seg: Segment {
                kind,
                server,
                start_secs: t,
                end_secs: None,
            },
            next: NO_SEG,
        });
        let span = &mut self.spans[idx];
        if span.seg_tail == NO_SEG {
            span.seg_head = at;
        } else {
            self.segs[span.seg_tail as usize].next = at;
        }
        self.spans[idx].seg_tail = at;
    }

    fn close_span(&mut self, idx: usize, t: f64, outcome: SpanOutcome) {
        self.end_segment(idx, t);
        self.spans[idx].end_secs = Some(t);
        self.spans[idx].outcome = outcome;
    }

    /// Closes every viewer span still on `server` as dropped (the loop
    /// never narrates them again after a failure).
    fn drop_streams_on(&mut self, server: u16, t: f64) {
        for idx in 0..self.spans.len() {
            let span = &self.spans[idx];
            let on_server = span.end_secs.is_none()
                && span.kind == SpanKind::Viewer
                && self
                    .last_segment(idx)
                    .is_some_and(|seg| seg.end_secs.is_none() && seg.server == Some(server));
            if on_server {
                self.close_span(idx, t, SpanOutcome::Dropped);
            }
        }
    }

    /// Records that `cause` made `effect` happen at `t`.
    fn link(&mut self, kind: EdgeKind, t: f64, cause: EdgeEnd, effect: u64) {
        self.edges.push(CausalEdge {
            kind,
            at_secs: t,
            cause,
            effect: EdgeEnd::Stream { stream: effect },
        });
    }
}

impl Probe for SpanProbe {
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        let t = now.as_secs();
        // Exhaustive on purpose: a new `SimEvent` variant must decide its
        // span semantics here (see `tests/probe_coverage.rs`).
        match *event {
            SimEvent::Admitted {
                stream,
                video,
                server,
                path,
            } => {
                let idx = self.open_span(stream, video, SpanKind::Viewer, t);
                let admitted = EdgeEnd::Stream { stream };
                self.spans[idx].admit_via = Some(match path {
                    AdmitPath::Direct => AdmitVia::Direct,
                    AdmitPath::Migrated { victim } => {
                        self.link(EdgeKind::Displaced, t, admitted, victim);
                        AdmitVia::Migrated
                    }
                    AdmitPath::Chained { outer, inner } => {
                        self.link(EdgeKind::Displaced, t, admitted, outer);
                        let outer = EdgeEnd::Stream { stream: outer };
                        self.link(EdgeKind::ChainInner, t, outer, inner);
                        AdmitVia::Chained
                    }
                });
                self.start_segment(idx, SegmentKind::Serve, Some(server), t);
            }
            SimEvent::Rejected { stream, video } => {
                let idx = self.open_span(stream, video, SpanKind::Viewer, t);
                self.close_span(idx, t, SpanOutcome::Rejected);
            }
            SimEvent::Completed { stream, .. } => {
                if let Some(idx) = self.span_of(stream) {
                    self.close_span(idx, t, SpanOutcome::Completed);
                }
            }
            SimEvent::Migrated {
                stream,
                from,
                to,
                emergency,
            } => {
                if emergency {
                    let failed = EdgeEnd::Server { server: from };
                    self.link(EdgeKind::Evacuated, t, failed, stream);
                }
                if let Some(idx) = self.span_of(stream) {
                    let kind = self
                        .last_segment(idx)
                        .filter(|seg| seg.end_secs.is_none())
                        .map_or(SegmentKind::Serve, |seg| seg.kind);
                    self.end_segment(idx, t);
                    self.start_segment(idx, kind, Some(to), t);
                    self.spans[idx].hops += 1;
                }
            }
            SimEvent::ServerDown {
                server,
                relocated,
                dropped,
            } => {
                self.marks.push(ServerMark {
                    server,
                    at_secs: t,
                    down: true,
                    relocated,
                    dropped,
                });
                self.drop_streams_on(server, t);
            }
            SimEvent::ServerUp { server } => {
                self.marks.push(ServerMark {
                    server,
                    at_secs: t,
                    down: false,
                    relocated: 0,
                    dropped: 0,
                });
            }
            SimEvent::Paused { stream, server } => {
                if let Some(idx) = self.span_of(stream) {
                    self.end_segment(idx, t);
                    self.start_segment(idx, SegmentKind::Pause, Some(server), t);
                }
            }
            SimEvent::Resumed { stream, server } => {
                if let Some(idx) = self.span_of(stream) {
                    self.end_segment(idx, t);
                    self.start_segment(idx, SegmentKind::Serve, Some(server), t);
                }
            }
            SimEvent::CopyStarted { copy, video, .. } => {
                let idx = self.open_span(copy, video, SpanKind::Copy, t);
                self.start_segment(idx, SegmentKind::Serve, None, t);
            }
            SimEvent::CopyDone { copy, installed } => {
                if let Some(idx) = self.span_of(copy) {
                    let outcome = if installed {
                        SpanOutcome::Completed
                    } else {
                        SpanOutcome::Dropped
                    };
                    self.close_span(idx, t, outcome);
                }
            }
            SimEvent::WaitlistQueued { stream, video } => {
                let idx = match self.span_of(stream) {
                    Some(idx) => {
                        // Reopen the just-rejected span: the viewer is
                        // waiting, not gone.
                        self.spans[idx].end_secs = None;
                        self.spans[idx].outcome = SpanOutcome::Open;
                        idx
                    }
                    None => self.open_span(stream, video, SpanKind::Viewer, t),
                };
                self.start_segment(idx, SegmentKind::Wait, None, t);
                self.waiting.push_back(stream);
            }
            SimEvent::WaitlistServed {
                stream,
                server,
                cause,
                ..
            } => {
                if let Some(pos) = self.waiting.iter().position(|&s| s == stream) {
                    self.waiting.remove(pos);
                }
                if let Some(idx) = self.span_of(stream) {
                    self.end_segment(idx, t);
                    self.spans[idx].admit_via = Some(AdmitVia::Waitlist);
                    self.start_segment(idx, SegmentKind::Serve, Some(server), t);
                }
                self.link(EdgeKind::FreedSlot, t, cause, stream);
            }
            SimEvent::WaitlistExpired { count } => {
                for _ in 0..count {
                    let Some(stream) = self.waiting.pop_front() else {
                        break;
                    };
                    if let Some(idx) = self.span_of(stream) {
                        self.close_span(idx, t, SpanOutcome::Expired);
                    }
                }
            }
        }
    }

    fn uses_state(&self) -> bool {
        false
    }
}

/// Runs one trial with a [`SpanProbe`] attached and returns the outcome
/// together with the captured span set. The outcome is bit-identical to
/// [`Simulation::run`] on the same config.
pub fn capture(config: &SimConfig) -> (SimOutcome, SpanSet) {
    let mut probe = SpanProbe::new();
    let outcome = Simulation::run_with_probes(config, &mut [&mut probe]);
    (outcome, probe.finish(config.duration.as_secs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(events: &[(f64, SimEvent)]) -> SpanProbe {
        let mut probe = SpanProbe::new();
        for (t, ev) in events {
            probe.on_event(SimTime::from_secs(*t), ev);
        }
        probe
    }

    #[test]
    fn admission_and_completion_make_one_closed_span() {
        let set = feed(&[
            (
                1.0,
                SimEvent::Admitted {
                    stream: 0,
                    video: 3,
                    server: 2,
                    path: AdmitPath::Direct,
                },
            ),
            (
                61.0,
                SimEvent::Completed {
                    stream: 0,
                    server: 2,
                },
            ),
        ])
        .finish(100.0);
        assert_eq!(set.spans.len(), 1);
        let span = &set.spans[0];
        assert_eq!(span.outcome, SpanOutcome::Completed);
        assert_eq!(span.admit_via, Some(AdmitVia::Direct));
        assert_eq!(span.end_secs, Some(61.0));
        assert_eq!(span.segments.len(), 1);
        assert_eq!(span.segments[0].server, Some(2));
        assert!(set.edges.is_empty());
    }

    #[test]
    fn drm_victim_gets_displaced_edge_and_hop() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::Admitted {
                    stream: 5,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Direct,
                },
            ),
            (
                2.0,
                SimEvent::Admitted {
                    stream: 9,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Migrated { victim: 5 },
                },
            ),
            (
                2.0,
                SimEvent::Migrated {
                    stream: 5,
                    from: 0,
                    to: 1,
                    emergency: false,
                },
            ),
        ]);
        let set = probe.finish(10.0);
        assert_eq!(set.edges.len(), 1);
        assert_eq!(set.edges[0].kind, EdgeKind::Displaced);
        assert_eq!(set.edges[0].cause, EdgeEnd::Stream { stream: 9 });
        assert_eq!(set.edges[0].effect, EdgeEnd::Stream { stream: 5 });
        let victim = set.span(5).unwrap();
        assert_eq!(victim.hops, 1);
        assert_eq!(victim.segments.len(), 2);
        assert_eq!(victim.segments[1].server, Some(1));
    }

    #[test]
    fn chain2_links_inner_hop_to_outer_victim() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::Admitted {
                    stream: 1,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Direct,
                },
            ),
            (
                0.0,
                SimEvent::Admitted {
                    stream: 2,
                    video: 0,
                    server: 1,
                    path: AdmitPath::Direct,
                },
            ),
            (
                5.0,
                SimEvent::Admitted {
                    stream: 3,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Chained { outer: 1, inner: 2 },
                },
            ),
            (
                5.0,
                SimEvent::Migrated {
                    stream: 1,
                    from: 0,
                    to: 1,
                    emergency: false,
                },
            ),
            (
                5.0,
                SimEvent::Migrated {
                    stream: 2,
                    from: 1,
                    to: 2,
                    emergency: false,
                },
            ),
        ]);
        let set = probe.finish(10.0);
        assert_eq!(set.edges.len(), 2);
        assert_eq!(set.edges[0].kind, EdgeKind::Displaced);
        assert_eq!(set.edges[0].cause, EdgeEnd::Stream { stream: 3 });
        assert_eq!(set.edges[0].effect, EdgeEnd::Stream { stream: 1 });
        assert_eq!(set.edges[1].kind, EdgeKind::ChainInner);
        assert_eq!(set.edges[1].cause, EdgeEnd::Stream { stream: 1 });
        assert_eq!(set.edges[1].effect, EdgeEnd::Stream { stream: 2 });
        assert_eq!(set.span(3).unwrap().admit_via, Some(AdmitVia::Chained));
    }

    #[test]
    fn failure_evacuates_some_and_drops_the_rest() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::Admitted {
                    stream: 1,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Direct,
                },
            ),
            (
                0.0,
                SimEvent::Admitted {
                    stream: 2,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Direct,
                },
            ),
            (
                0.0,
                SimEvent::Admitted {
                    stream: 3,
                    video: 0,
                    server: 1,
                    path: AdmitPath::Direct,
                },
            ),
            (
                7.0,
                SimEvent::Migrated {
                    stream: 1,
                    from: 0,
                    to: 1,
                    emergency: true,
                },
            ),
            (
                7.0,
                SimEvent::ServerDown {
                    server: 0,
                    relocated: 1,
                    dropped: 1,
                },
            ),
        ]);
        let set = probe.finish(10.0);
        assert_eq!(set.edges.len(), 1);
        assert_eq!(set.edges[0].kind, EdgeKind::Evacuated);
        assert_eq!(set.edges[0].cause, EdgeEnd::Server { server: 0 });
        assert_eq!(set.edges[0].effect, EdgeEnd::Stream { stream: 1 });
        // Stream 1 was rescued, stream 2 dropped, stream 3 untouched.
        assert_eq!(set.span(1).unwrap().outcome, SpanOutcome::Open);
        assert_eq!(set.span(1).unwrap().hops, 1);
        let dropped = set.span(2).unwrap();
        assert_eq!(dropped.outcome, SpanOutcome::Dropped);
        assert_eq!(dropped.end_secs, Some(7.0));
        assert_eq!(set.span(3).unwrap().outcome, SpanOutcome::Open);
        assert_eq!(set.marks.len(), 1);
        assert!(set.marks[0].down);
    }

    #[test]
    fn failure_with_no_rescues_drops_immediately() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::Admitted {
                    stream: 1,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Direct,
                },
            ),
            (
                3.0,
                SimEvent::ServerDown {
                    server: 0,
                    relocated: 0,
                    dropped: 1,
                },
            ),
        ]);
        let set = probe.finish(10.0);
        assert_eq!(set.span(1).unwrap().outcome, SpanOutcome::Dropped);
        assert!(set.edges.is_empty());
    }

    #[test]
    fn waitlist_wait_serve_links_to_the_freeing_completion() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::Admitted {
                    stream: 0,
                    video: 1,
                    server: 0,
                    path: AdmitPath::Direct,
                },
            ),
            (
                1.0,
                SimEvent::Rejected {
                    stream: 1,
                    video: 1,
                },
            ),
            (
                1.0,
                SimEvent::WaitlistQueued {
                    stream: 1,
                    video: 1,
                },
            ),
            (
                20.0,
                SimEvent::Completed {
                    stream: 0,
                    server: 0,
                },
            ),
            (
                20.0,
                SimEvent::WaitlistServed {
                    stream: 1,
                    video: 1,
                    server: 0,
                    batched: false,
                    waited_secs: 19.0,
                    cause: EdgeEnd::Stream { stream: 0 },
                },
            ),
        ]);
        let set = probe.finish(60.0);
        let served = set.span(1).unwrap();
        assert_eq!(served.admit_via, Some(AdmitVia::Waitlist));
        assert_eq!(served.outcome, SpanOutcome::Open);
        assert_eq!(served.segments.len(), 2);
        assert_eq!(served.segments[0].kind, SegmentKind::Wait);
        assert_eq!(served.segments[0].end_secs, Some(20.0));
        assert_eq!(served.segments[1].kind, SegmentKind::Serve);
        assert_eq!(set.edges.len(), 1);
        assert_eq!(set.edges[0].kind, EdgeKind::FreedSlot);
        assert_eq!(set.edges[0].cause, EdgeEnd::Stream { stream: 0 });
        assert_eq!(set.edges[0].effect, EdgeEnd::Stream { stream: 1 });
    }

    #[test]
    fn expiry_closes_the_longest_waiting_spans_first() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::Rejected {
                    stream: 1,
                    video: 0,
                },
            ),
            (
                0.0,
                SimEvent::WaitlistQueued {
                    stream: 1,
                    video: 0,
                },
            ),
            (
                2.0,
                SimEvent::Rejected {
                    stream: 2,
                    video: 0,
                },
            ),
            (
                2.0,
                SimEvent::WaitlistQueued {
                    stream: 2,
                    video: 0,
                },
            ),
            (30.0, SimEvent::WaitlistExpired { count: 1 }),
        ]);
        let set = probe.finish(60.0);
        assert_eq!(set.span(1).unwrap().outcome, SpanOutcome::Expired);
        assert_eq!(set.span(1).unwrap().end_secs, Some(30.0));
        assert_eq!(set.span(2).unwrap().outcome, SpanOutcome::Open);
    }

    #[test]
    fn pause_resume_toggles_segments() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::Admitted {
                    stream: 4,
                    video: 0,
                    server: 1,
                    path: AdmitPath::Direct,
                },
            ),
            (
                10.0,
                SimEvent::Paused {
                    stream: 4,
                    server: 1,
                },
            ),
            (
                25.0,
                SimEvent::Resumed {
                    stream: 4,
                    server: 1,
                },
            ),
        ]);
        let set = probe.finish(60.0);
        let span = set.span(4).unwrap();
        let kinds: Vec<SegmentKind> = span.segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SegmentKind::Serve, SegmentKind::Pause, SegmentKind::Serve]
        );
        assert_eq!(span.segments[1].start_secs, 10.0);
        assert_eq!(span.segments[1].end_secs, Some(25.0));
    }

    #[test]
    fn copy_lifecycle_closes_copy_spans() {
        let probe = feed(&[
            (
                0.0,
                SimEvent::CopyStarted {
                    copy: 10,
                    video: 2,
                    tertiary: true,
                },
            ),
            (
                5.0,
                SimEvent::CopyStarted {
                    copy: 11,
                    video: 3,
                    tertiary: false,
                },
            ),
            (
                50.0,
                SimEvent::CopyDone {
                    copy: 10,
                    installed: true,
                },
            ),
            (
                60.0,
                SimEvent::CopyDone {
                    copy: 11,
                    installed: false,
                },
            ),
        ]);
        let set = probe.finish(100.0);
        assert_eq!(set.span(10).unwrap().kind, SpanKind::Copy);
        assert_eq!(set.span(10).unwrap().outcome, SpanOutcome::Completed);
        assert_eq!(set.span(11).unwrap().outcome, SpanOutcome::Dropped);
    }

    #[test]
    fn capture_is_deterministic_and_reconciles_with_outcome() {
        let config = SimConfig::builder(sct_workload::SystemSpec::tiny_test())
            .duration_hours(3.0)
            .warmup_hours(0.25)
            .waitlist(120.0, 20)
            .seed(42)
            .build();
        let (out, set) = capture(&config);
        let (out2, set2) = capture(&config);
        assert_eq!(out, out2);
        assert_eq!(set, set2);
        let completed = set
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Viewer && s.outcome == SpanOutcome::Completed)
            .count() as u64;
        assert_eq!(completed, out.completions);
        let viewers = set
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Viewer)
            .count() as u64;
        assert_eq!(viewers, out.stats.arrivals);
        let expired = set
            .spans
            .iter()
            .filter(|s| s.outcome == SpanOutcome::Expired)
            .count() as u64;
        assert_eq!(expired, out.waitlist.expired);
        let freed = set.edges_of(EdgeKind::FreedSlot).count() as u64;
        assert_eq!(freed, out.waitlist.served);
    }
}
