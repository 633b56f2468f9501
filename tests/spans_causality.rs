//! Span/edge causality on a mechanism-rich fixed-seed scenario.
//!
//! One configuration turns on every causal mechanism at once — DRM with
//! two-step chains, a failure/repair process, and a waitlist — and the
//! [`SpanProbe`]'s causal edges are then reconciled span-by-span against
//! the loop's own aggregate counters. Each edge kind has an exact
//! counterpart in [`SimOutcome`]:
//!
//! * `Displaced` edges ↔ `stats.accepted_via_migration` (every migrated
//!   or chained admission displaces exactly one victim),
//! * `ChainInner` edges ↔ `stats.chain2_migrations`,
//! * `Evacuated` edges ↔ `stats.relocated_on_failure`,
//! * `FreedSlot` edges ↔ `waitlist.served`.

use sct_analysis::spans::{AdmitVia, EdgeEnd, EdgeKind, SegmentKind, SpanKind, SpanSet};
use semi_continuous_vod::prelude::*;

fn rich_scenario() -> SimConfig {
    SimConfig::builder(SystemSpec::small_paper())
        .theta(0.0)
        .migration(MigrationPolicy::chain2())
        .failures(6.0, 0.4)
        .waitlist(180.0, 50)
        .duration_hours(3.0)
        .warmup_hours(0.5)
        .seed(99)
        .build()
}

fn capture() -> (SimOutcome, SpanSet) {
    let cfg = rich_scenario();
    let mut probe = SpanProbe::new();
    let outcome = Simulation::run_with_probes(&cfg, &mut [&mut probe]);
    (outcome, probe.finish(cfg.duration.as_secs()))
}

#[test]
fn every_edge_kind_reconciles_with_the_aggregate_counters() {
    let (out, set) = capture();
    // The scenario must actually exercise all four mechanisms.
    assert!(out.stats.accepted_via_migration > 0, "no DRM admissions");
    assert!(out.stats.chain2_migrations > 0, "no chain-2 admissions");
    assert!(out.stats.relocated_on_failure > 0, "no evacuations");
    assert!(out.waitlist.served > 0, "no waitlist service");

    assert_eq!(
        set.edges_of(EdgeKind::Displaced).count() as u64,
        out.stats.accepted_via_migration,
        "one Displaced edge per migrated/chained admission"
    );
    assert_eq!(
        set.edges_of(EdgeKind::ChainInner).count() as u64,
        out.stats.chain2_migrations,
        "one ChainInner edge per chain-2 admission"
    );
    assert_eq!(
        set.edges_of(EdgeKind::Evacuated).count() as u64,
        out.stats.relocated_on_failure,
        "one Evacuated edge per rescued stream"
    );
    assert_eq!(
        set.edges_of(EdgeKind::FreedSlot).count() as u64,
        out.waitlist.served,
        "one FreedSlot edge per served waiter"
    );
}

#[test]
fn displaced_edges_point_from_drm_admissions_to_moved_victims() {
    let (_, set) = capture();
    for edge in set.edges_of(EdgeKind::Displaced) {
        let EdgeEnd::Stream { stream: cause } = edge.cause else {
            panic!("Displaced cause must be a stream: {edge:?}");
        };
        let EdgeEnd::Stream { stream: effect } = edge.effect else {
            panic!("Displaced effect must be a stream: {edge:?}");
        };
        let admitted = set.span(cause).expect("cause span exists");
        assert!(
            matches!(
                admitted.admit_via,
                Some(AdmitVia::Migrated) | Some(AdmitVia::Chained)
            ),
            "displacing admission {cause} must be migrated/chained: {admitted:?}"
        );
        assert_eq!(
            admitted.start_secs, edge.at_secs,
            "the victim moves at the admission instant"
        );
        let victim = set.span(effect).expect("victim span exists");
        assert!(victim.hops >= 1, "victim {effect} never hopped: {victim:?}");
        // The victim's segment chain changes servers at the edge time.
        assert!(
            victim
                .segments
                .iter()
                .any(|seg| seg.start_secs == edge.at_secs && seg.server.is_some()),
            "victim {effect} has no segment starting at the hand-off: {victim:?}"
        );
    }
}

#[test]
fn chain_inner_edges_link_two_victims_of_one_admission() {
    let (_, set) = capture();
    let displaced: Vec<_> = set.edges_of(EdgeKind::Displaced).collect();
    for edge in set.edges_of(EdgeKind::ChainInner) {
        let EdgeEnd::Stream { stream: outer } = edge.cause else {
            panic!("ChainInner cause must be a stream: {edge:?}");
        };
        let EdgeEnd::Stream { stream: inner } = edge.effect else {
            panic!("ChainInner effect must be a stream: {edge:?}");
        };
        // The outer victim was itself displaced, at the same instant, by
        // a chained admission.
        let parent = displaced
            .iter()
            .find(|d| d.at_secs == edge.at_secs && d.effect == EdgeEnd::Stream { stream: outer })
            .unwrap_or_else(|| panic!("no Displaced edge feeds ChainInner {edge:?}"));
        let EdgeEnd::Stream { stream: admitted } = parent.cause else {
            unreachable!("checked above");
        };
        assert_eq!(
            set.span(admitted).unwrap().admit_via,
            Some(AdmitVia::Chained),
            "chain parent admission must be Chained"
        );
        let inner_span = set.span(inner).expect("inner victim span exists");
        assert!(inner_span.hops >= 1, "inner victim never hopped");
    }
}

#[test]
fn evacuated_edges_come_from_marked_failures() {
    let (out, set) = capture();
    for edge in set.edges_of(EdgeKind::Evacuated) {
        let EdgeEnd::Server { server } = edge.cause else {
            panic!("Evacuated cause must be a server: {edge:?}");
        };
        assert!(
            set.marks
                .iter()
                .any(|m| m.server == server && m.down && m.at_secs == edge.at_secs),
            "no ServerDown mark backs evacuation {edge:?}"
        );
        let EdgeEnd::Stream { stream } = edge.effect else {
            panic!("Evacuated effect must be a stream: {edge:?}");
        };
        let rescued = set.span(stream).expect("rescued span exists");
        assert!(rescued.hops >= 1, "rescued stream never hopped");
        assert_ne!(
            rescued.end_secs,
            Some(edge.at_secs),
            "rescued stream {stream} closed at its own evacuation: {rescued:?}"
        );
    }
    // Mark payloads agree with the aggregate failure accounting.
    let relocated: u32 = set
        .marks
        .iter()
        .filter(|m| m.down)
        .map(|m| m.relocated)
        .sum();
    let dropped: u32 = set.marks.iter().filter(|m| m.down).map(|m| m.dropped).sum();
    assert_eq!(u64::from(relocated), out.stats.relocated_on_failure);
    assert_eq!(u64::from(dropped), out.stats.dropped_on_failure);
}

#[test]
fn freed_slot_edges_serve_waiters_at_the_freeing_instant() {
    let (_, set) = capture();
    for edge in set.edges_of(EdgeKind::FreedSlot) {
        let EdgeEnd::Stream { stream } = edge.effect else {
            panic!("FreedSlot effect must be a stream: {edge:?}");
        };
        let served = set.span(stream).expect("served span exists");
        assert_eq!(
            served.admit_via,
            Some(AdmitVia::Waitlist),
            "FreedSlot must serve a waitlisted span: {served:?}"
        );
        // The wait segment ends exactly when the capacity appeared.
        assert!(
            served
                .segments
                .iter()
                .any(|seg| { seg.kind == SegmentKind::Wait && seg.end_secs == Some(edge.at_secs) }),
            "served span's wait does not end at the edge: {served:?}"
        );
        match edge.cause {
            EdgeEnd::Stream { stream: freer } => {
                // The freeing stream (completion or reaped copy) ended
                // at that instant.
                let cause = set.span(freer).expect("freeing span exists");
                assert_eq!(
                    cause.end_secs,
                    Some(edge.at_secs),
                    "freeing span did not end at the edge: {cause:?}"
                );
            }
            EdgeEnd::Server { server } => {
                // A repair brought the capacity back.
                assert!(
                    set.marks
                        .iter()
                        .any(|m| m.server == server && !m.down && m.at_secs == edge.at_secs),
                    "no ServerUp mark backs {edge:?}"
                );
            }
        }
    }
}

#[test]
fn spans_partition_arrivals_and_stay_inside_the_horizon() {
    let (out, set) = capture();
    let viewers: Vec<_> = set
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Viewer)
        .collect();
    assert_eq!(viewers.len() as u64, out.stats.arrivals);
    for span in &set.spans {
        assert!(span.start_secs >= 0.0);
        if let Some(end) = span.end_secs {
            assert!(end >= span.start_secs, "negative span: {span:?}");
            assert!(end <= set.horizon_secs, "span past horizon: {span:?}");
        }
        // Segments tile the span without overlap in time order.
        let mut prev_end = span.start_secs;
        for seg in &span.segments {
            assert!(seg.start_secs >= prev_end, "overlapping segments: {span:?}");
            prev_end = seg.end_secs.unwrap_or(f64::INFINITY);
        }
    }
}
