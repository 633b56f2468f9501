//! Exhaustiveness guard: every [`SimEvent`] variant must decide its
//! span semantics.
//!
//! The [`SpanProbe`] (request-lifecycle spans) consumes a specific
//! subset of the event stream. Nothing in the type system forces a new
//! variant through that decision: a probe that simply ignores an event
//! compiles fine. This test closes the gap with a wildcard-free `match`:
//! adding a variant to `SimEvent` fails compilation here until someone
//! states, in [`coverage`], whether the span probe folds it (or that
//! ignoring it is deliberate), and extends [`sample`] so the runtime
//! check exercises the new arm.

use sct_analysis::spans::EdgeEnd;
use sct_simcore::SimTime;
use semi_continuous_vod::prelude::*;

/// What the span probe does with one event variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Coverage {
    kind: &'static str,
    /// `SpanProbe` folds it into a span, segment, edge, or mark.
    spans: bool,
}

/// The decision table. NO WILDCARD ARM — that is the point: a new
/// `SimEvent` variant must be classified here before this file
/// compiles.
fn coverage(event: &SimEvent) -> Coverage {
    match event {
        SimEvent::Admitted { .. } => Coverage {
            kind: "Admitted",
            spans: true, // opens the viewer span + DRM edges
        },
        SimEvent::Rejected { .. } => Coverage {
            kind: "Rejected",
            spans: true,
        },
        SimEvent::Completed { .. } => Coverage {
            kind: "Completed",
            spans: true,
        },
        SimEvent::Migrated { .. } => Coverage {
            kind: "Migrated",
            spans: true, // hop segment (+ evacuation edge)
        },
        SimEvent::ServerDown { .. } => Coverage {
            kind: "ServerDown",
            spans: true, // mark + drops the spans left on the server
        },
        SimEvent::ServerUp { .. } => Coverage {
            kind: "ServerUp",
            spans: true, // mark
        },
        SimEvent::Paused { .. } => Coverage {
            kind: "Paused",
            spans: true,
        },
        SimEvent::Resumed { .. } => Coverage {
            kind: "Resumed",
            spans: true,
        },
        SimEvent::CopyStarted { .. } => Coverage {
            kind: "CopyStarted",
            spans: true, // opens the copy span
        },
        SimEvent::CopyDone { .. } => Coverage {
            kind: "CopyDone",
            spans: true,
        },
        SimEvent::WaitlistQueued { .. } => Coverage {
            kind: "WaitlistQueued",
            spans: true, // wait segment
        },
        SimEvent::WaitlistServed { .. } => Coverage {
            kind: "WaitlistServed",
            spans: true, // serve segment + FreedSlot edge
        },
        SimEvent::WaitlistExpired { .. } => Coverage {
            kind: "WaitlistExpired",
            spans: true, // closes the longest-waiting spans
        },
    }
}

/// One concrete event per variant, in declaration order.
fn sample() -> Vec<SimEvent> {
    vec![
        SimEvent::Admitted {
            stream: 0,
            video: 0,
            server: 0,
            path: AdmitPath::Direct,
        },
        SimEvent::Rejected {
            stream: 1,
            video: 0,
        },
        SimEvent::Completed {
            stream: 0,
            server: 0,
        },
        SimEvent::Migrated {
            stream: 0,
            from: 0,
            to: 1,
            emergency: false,
        },
        SimEvent::ServerDown {
            server: 0,
            relocated: 0,
            dropped: 0,
        },
        SimEvent::ServerUp { server: 0 },
        SimEvent::Paused {
            stream: 0,
            server: 1,
        },
        SimEvent::Resumed {
            stream: 0,
            server: 1,
        },
        SimEvent::CopyStarted {
            copy: 2,
            video: 1,
            tertiary: false,
        },
        SimEvent::CopyDone {
            copy: 2,
            installed: true,
        },
        SimEvent::WaitlistQueued {
            stream: 3,
            video: 0,
        },
        SimEvent::WaitlistServed {
            stream: 3,
            video: 0,
            server: 0,
            batched: false,
            waited_secs: 5.0,
            cause: EdgeEnd::Server { server: 1 },
        },
        SimEvent::WaitlistExpired { count: 1 },
    ]
}

#[test]
fn sample_covers_every_event_kind_exactly_once() {
    let kinds: Vec<&str> = sample().iter().map(|e| e.kind()).collect();
    assert_eq!(
        kinds,
        SimEvent::KINDS.to_vec(),
        "sample() must list one event per SimEvent variant, in order"
    );
    // The decision table agrees with the canonical kind strings.
    for event in &sample() {
        assert_eq!(coverage(event).kind, event.kind());
    }
}

#[test]
fn span_probe_folds_exactly_the_variants_it_claims() {
    for event in &sample() {
        // Feed enough preamble that the event under test has a span to
        // act on, then check whether it changed the fold's output.
        let preamble = |probe: &mut SpanProbe| {
            probe.on_event(
                SimTime::from_secs(0.0),
                &SimEvent::Admitted {
                    stream: 0,
                    video: 0,
                    server: 0,
                    path: AdmitPath::Direct,
                },
            );
            probe.on_event(
                SimTime::from_secs(0.0),
                &SimEvent::CopyStarted {
                    copy: 2,
                    video: 1,
                    tertiary: false,
                },
            );
            probe.on_event(
                SimTime::from_secs(0.0),
                &SimEvent::WaitlistQueued {
                    stream: 3,
                    video: 0,
                },
            );
        };
        let mut bare = SpanProbe::new();
        preamble(&mut bare);
        let mut probe = SpanProbe::new();
        preamble(&mut probe);
        probe.on_event(SimTime::from_secs(1.0), event);
        let changed = probe.finish(10.0) != bare.finish(10.0);
        assert_eq!(
            changed,
            coverage(event).spans,
            "{}: SpanProbe fold disagrees with the coverage table",
            event.kind()
        );
    }
}
