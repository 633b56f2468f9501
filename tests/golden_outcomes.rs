//! Golden fixed-seed `SimOutcome` snapshots.
//!
//! These fixtures were generated from the pre-refactor event loop
//! (`UPDATE_GOLDEN=1 cargo test --test golden_outcomes`) and lock the
//! simulation's observable behaviour bit-for-bit: every float in
//! `SimOutcome` must round-trip exactly (the vendored serde_json always
//! uses shortest-exact float formatting). Any change to event ordering,
//! RNG draw order, or the per-engine integration step sequence shows up
//! here as a diff, not as a silent drift. `small_no_migration` was
//! re-baselined once, when windowed sampling left the loop: its 10
//! sample events had split the engines' integration steps, so its
//! utilization moved in the last bits and its event count fell by 10.
//!
//! The first four configs cover both paper systems, migration on and
//! off, and between them exercise every event kind the loop handles:
//! failures, pause/resume, replication copies and waitlist service. They
//! hold at most 100 streams per server, so a fifth, `dense`, pins the
//! engine's per-stream arithmetic at 1000 slots per server.

use semi_continuous_vod::prelude::*;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check_golden(name: &str, config: &SimConfig) {
    let outcome = Simulation::run(config);

    // Attaching the full telemetry probe must not perturb the run: the
    // outcome stays bit-identical, and because the telemetry gauges
    // integrate the same piecewise-linear quantities the epilogue measures,
    // their time-weighted means reproduce the utilization figures exactly.
    let mut telemetry = TelemetryProbe::new(config);
    let with_probe = Simulation::run_with_probes(config, &mut [&mut telemetry]);
    assert_eq!(
        with_probe, outcome,
        "{name}: attaching TelemetryProbe perturbed the outcome"
    );
    let registry = telemetry.finish();
    let cluster = registry
        .gauge("cluster_utilization")
        .expect("cluster gauge present");
    assert!(
        (cluster.mean() - outcome.utilization).abs() < 1e-9,
        "{name}: cluster gauge mean {} vs epilogue utilization {}",
        cluster.mean(),
        outcome.utilization
    );
    for (i, &per_server) in outcome.per_server_utilization.iter().enumerate() {
        let gauge = registry
            .gauge(&format!("server_utilization/{i}"))
            .expect("per-server gauge present");
        assert!(
            (gauge.mean() - per_server).abs() < 1e-9,
            "{name}: server {i} gauge mean {} vs epilogue {}",
            gauge.mean(),
            per_server
        );
    }

    // The flight recorder must be equally invisible, and its windows
    // must reconcile with the other observability layers: the
    // measured-seconds-weighted mean of per-window utilization is the
    // epilogue's utilization (same piecewise-linear integrand, split at
    // window boundaries), and window-summed admission/rejection counts
    // equal the telemetry registry's counters exactly.
    let mut ts_probe = TimeSeriesProbe::new(config, 600.0);
    let with_ts = Simulation::run_with_probes(config, &mut [&mut ts_probe]);
    assert_eq!(
        with_ts, outcome,
        "{name}: attaching TimeSeriesProbe perturbed the outcome"
    );
    let recording = ts_probe.finish();
    let measured: f64 = recording.windows.iter().map(|w| w.measured_secs).sum();
    assert!(measured > 0.0, "{name}: no measured window time");
    let util = recording
        .windows
        .iter()
        .map(|w| w.utilization * w.measured_secs)
        .sum::<f64>()
        / measured;
    assert!(
        (util - outcome.utilization).abs() < 1e-9,
        "{name}: window-integrated utilization {util} vs epilogue {}",
        outcome.utilization
    );
    for (i, &per_server) in outcome.per_server_utilization.iter().enumerate() {
        let util_i = recording
            .windows
            .iter()
            .map(|w| w.server_utilization[i] * w.measured_secs)
            .sum::<f64>()
            / measured;
        assert!(
            (util_i - per_server).abs() < 1e-9,
            "{name}: server {i} window-integrated utilization {util_i} vs epilogue {per_server}"
        );
    }
    let sum = |f: fn(&WindowRow) -> u64| recording.windows.iter().map(f).sum::<u64>();
    assert_eq!(
        sum(|w| w.arrivals),
        registry.counter("admitted_direct")
            + registry.counter("admitted_drm")
            + registry.counter("admitted_chained")
            + registry.counter("rejected"),
        "{name}: arrivals must decompose into admission paths + rejections"
    );
    assert_eq!(
        sum(|w| w.admitted),
        registry.counter("admitted_direct"),
        "{name}"
    );
    assert_eq!(
        sum(|w| w.admitted_drm),
        registry.counter("admitted_drm"),
        "{name}"
    );
    assert_eq!(
        sum(|w| w.admitted_chained),
        registry.counter("admitted_chained"),
        "{name}"
    );
    assert_eq!(sum(|w| w.rejected), registry.counter("rejected"), "{name}");
    assert_eq!(
        sum(|w| w.completions),
        registry.counter("completions"),
        "{name}"
    );

    // The span probe must be equally invisible, while still folding the
    // stream into at least one lifecycle span on every golden config.
    let mut span_probe = SpanProbe::new();
    let with_spans = Simulation::run_with_probes(config, &mut [&mut span_probe]);
    assert_eq!(
        with_spans, outcome,
        "{name}: attaching SpanProbe perturbed the outcome"
    );
    let span_set = span_probe.finish(config.duration.as_secs());
    assert!(
        !span_set.spans.is_empty(),
        "{name}: golden config produced no spans"
    );

    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&outcome).expect("outcome serialises");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: SimOutcome = serde_json::from_str(text.trim()).expect("fixture parses");
    assert_eq!(
        outcome, expected,
        "{name}: SimOutcome diverged from the golden fixture; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Small system, no migration — the paper's baseline configuration.
#[test]
fn golden_small_no_migration() {
    let cfg = SimConfig::builder(SystemSpec::small_paper())
        .duration_hours(3.0)
        .warmup_hours(0.5)
        .seed(1001)
        .build();
    check_golden("small_no_migration", &cfg);
}

/// Small system with DRM plus the interactivity and waitlist extensions —
/// exercises pause/resume events and waitlist reconciliation.
#[test]
fn golden_small_migration_interactive() {
    let cfg = SimConfig::builder(SystemSpec::small_paper())
        .theta(0.0)
        .migration(MigrationPolicy::single_hop())
        .interactivity(0.3, 60.0, 600.0)
        .waitlist(120.0, 50)
        .seed(1002)
        .duration_hours(3.0)
        .warmup_hours(0.5)
        .build();
    check_golden("small_migration_interactive", &cfg);
}

/// Large system, no migration, skewed demand with tertiary-sourced
/// dynamic replication — exercises CopyDone scheduling.
#[test]
fn golden_large_no_migration_replication() {
    let cfg = SimConfig::builder(SystemSpec::large_paper())
        .theta(-0.5)
        .replication(ReplicationSpec::default_paper_scale())
        .seed(1003)
        .duration_hours(2.0)
        .warmup_hours(0.5)
        .build();
    check_golden("large_no_migration_replication", &cfg);
}

/// Large system with DRM under a failure/repair process — exercises
/// ServerDown/ServerUp and emergency evacuation.
#[test]
fn golden_large_migration_failures() {
    let cfg = SimConfig::builder(SystemSpec::large_paper())
        .migration(MigrationPolicy::single_hop())
        .failures(4.0, 0.5)
        .seed(1004)
        .duration_hours(2.0)
        .warmup_hours(0.5)
        .build();
    check_golden("large_migration_failures", &cfg);
}

/// The benchmark's `dense` shape: 4 servers of 3000 Mb/s (1000 view
/// slots each) and 200 videos of 5–10 minutes, under P4 at θ 0.271.
/// Every event walks a server of hundreds of streams, so this locks the
/// engine's fused advance, reap and allocation at that depth. A short
/// warm-up and 0.1 h measured keep the debug build within seconds.
#[test]
fn golden_dense() {
    let system = SystemSpec {
        name: "dense".into(),
        n_servers: 4,
        server_bandwidth_mbps: 3000.0,
        server_disk_gb: 100.0,
        n_videos: 200,
        video_length_secs: (300.0, 600.0),
        view_rate_mbps: 3.0,
        client_receive_cap_mbps: 30.0,
        avg_copies: 2.2,
    };
    let cfg = SimConfig::builder(system)
        .policy(Policy::P4)
        .theta(0.271)
        .seed(5)
        .duration_hours(0.15)
        .warmup_hours(0.05)
        .build();
    check_golden("dense", &cfg);
}
