//! Allocation gate on the probes' hot path, exact rather than timed.
//!
//! `SpanProbe` keeps its segments in one arena and `TimeSeriesProbe`
//! folds into per-window rows, so neither should allocate per span or
//! per event while a run is going. A per-thread counting allocator
//! counts the heap allocations a run makes with and without each probe
//! attached; the difference is what attaching the probe costs. Each
//! ceiling is twice today's count (4 where it is 0): room for a few more
//! buffer growths, far below one allocation per span or per event.

use sct_admission::MigrationPolicy;
use sct_core::config::SimConfig;
use sct_core::policies::Policy;
use sct_core::simulation::Simulation;
use sct_core::{Probe, SpanProbe, TimeSeriesProbe};
use sct_transmission::SchedulerKind;
use sct_workload::SystemSpec;
use std::cell::Cell;

/// Counts the allocations each thread makes, so a test can count one
/// run's allocations while other tests run beside it.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a thread-local `Cell` with no destructor, which allocates
// nothing itself.
unsafe impl std::alloc::GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed on as is.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations one run of `cfg` makes on this thread with `probes`
/// attached. The probes are built before and finished after, so only
/// the run itself is counted.
fn allocations(cfg: &SimConfig, probes: &mut [&mut dyn Probe]) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    Simulation::run_with_probes(cfg, probes);
    ALLOCATIONS.with(Cell::get) - before
}

/// The allocations attaching a `SpanProbe` and, separately, a
/// `TimeSeriesProbe` (900 s windows) add to a run of `cfg`, with the
/// number of spans and windows each folded.
fn added_allocations(cfg: &SimConfig) -> [(u64, usize); 2] {
    let bare = allocations(cfg, &mut []);
    assert_eq!(allocations(cfg, &mut []), bare, "a bare run's count moved");
    let mut spans = SpanProbe::new();
    let with_spans = allocations(cfg, &mut [&mut spans]);
    let mut ts = TimeSeriesProbe::new(cfg, 900.0);
    let with_ts = allocations(cfg, &mut [&mut ts]);
    [
        (
            with_spans - bare,
            spans.finish(cfg.duration.as_secs()).spans.len(),
        ),
        (with_ts - bare, ts.finish().windows.len()),
    ]
}

/// `bench_simloop`'s probe cell: Small, P4, θ 0.271, 2 h, no warm-up,
/// seed 5, EFTF with one-hop migration; 2 674 events and 967 spans.
/// `SpanProbe::new` reserves room for this many spans, so attaching it
/// adds no allocation; `TimeSeriesProbe` adds 15, about one per window.
/// One allocation per span or per event would add hundreds.
#[test]
fn probes_allocate_nothing_per_event_on_the_probe_cell() {
    let cfg = SimConfig::builder(SystemSpec::small_paper())
        .policy(Policy::P4)
        .theta(0.271)
        .duration_hours(2.0)
        .warmup_hours(0.0)
        .seed(5)
        .scheduler(SchedulerKind::Eftf)
        .migration(MigrationPolicy::single_hop())
        .build();
    let [(spans_added, spans), (ts_added, windows)] = added_allocations(&cfg);
    assert_eq!((spans, windows), (967, 8));
    assert!(
        spans_added <= 4,
        "SpanProbe added {spans_added} allocations"
    );
    assert!(
        ts_added <= 30,
        "TimeSeriesProbe added {ts_added} allocations"
    );
}

/// One trial shaped like sctbench's `observed_large`: Large, P4, θ 0.271,
/// 4 h warm-up of 7.125 h, failures, pauses and a waitlist, seed 5;
/// 9 435 spans over 29 windows. The spans outgrow the probe's reserve
/// and the waitlist and failures fill its other buffers, so attaching
/// it adds 21 allocations, all buffer growth; `TimeSeriesProbe` adds 39.
#[test]
fn probes_allocate_nothing_per_event_on_an_observed_large_trial() {
    let cfg = SimConfig::builder(SystemSpec::large_paper())
        .policy(Policy::P4)
        .theta(0.271)
        .warmup_hours(4.0)
        .duration_hours(7.125)
        .failures(48.0, 0.5)
        .interactivity(0.3, 60.0, 300.0)
        .waitlist(300.0, 10_000)
        .seed(5)
        .build();
    let [(spans_added, spans), (ts_added, windows)] = added_allocations(&cfg);
    assert_eq!((spans, windows), (9_435, 29));
    assert!(
        spans_added <= 42,
        "SpanProbe added {spans_added} allocations"
    );
    assert!(
        ts_added <= 78,
        "TimeSeriesProbe added {ts_added} allocations"
    );
}
