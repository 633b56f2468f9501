//! Inputs written while the event loop could be sharded.
//!
//! The loop runs on one queue now, but configs and flight recordings
//! saved while it could be partitioned still carry the old shard
//! fields: a config's `"shards"` count and a recording's per-shard
//! `"shards"` series. Neither ever changed an outcome, so both must
//! read back exactly as the same input without them, for any count the
//! old loop accepted, more shards than servers included. The CLI pins
//! one such file per subcommand in `tests/cli.rs`; these tests pin the
//! library path across the old shard matrix.

use semi_continuous_vod::prelude::*;

const SHARD_MATRIX: [usize; 3] = [1, 2, 4];

/// `config` as a file written by the sharded loop: its JSON export with
/// a top-level `"shards": n` key, read back the way `sctsim run
/// --config` reads it.
fn with_legacy_shards(config: &SimConfig, shards: usize) -> SimConfig {
    let text = serde_json::to_string_pretty(config).unwrap();
    let old = text.replacen('{', &format!("{{\n  \"shards\": {shards},"), 1);
    assert!(old.contains(&format!("\"shards\": {shards},")), "{old}");
    let parsed: SimConfig = serde_json::from_str(&old)
        .unwrap_or_else(|e| panic!("shards = {shards}: old config rejected: {e}"));
    SimConfigBuilder::from(parsed)
        .try_build()
        .unwrap_or_else(|e| panic!("shards = {shards}: old config invalid: {e}"))
}

/// The old shard map clamped a count above the server count; the key is
/// ignored now, so every count, oversharded included, reads back as the
/// config without it and runs to the same outcome.
#[test]
fn shard_matrix_overshard_clamps() {
    let config = SimConfig::builder(SystemSpec::tiny_test())
        .duration_hours(2.0)
        .warmup_hours(0.25)
        .seed(7)
        .build();
    let base = Simulation::run(&config);
    // tiny_test has 3 servers; 64 used to clamp to 3.
    for shards in SHARD_MATRIX.into_iter().chain([64]) {
        let old = with_legacy_shards(&config, shards);
        assert_eq!(old, config, "shards = {shards}: config changed on read");
        assert_eq!(
            Simulation::run(&old),
            base,
            "shards = {shards}: outcome diverged"
        );
    }
}

/// A recording is a pure fold of the event stream, so a config carrying
/// an old shard count records the same windows and alerts as the plain
/// config, run over run and with the loop profilers on; and a recording
/// that still carries the old per-shard barrier series reads back as
/// the recording without them.
#[test]
fn timeseries_recording_is_deterministic_across_the_shard_matrix() {
    let config = SimConfig::builder(SystemSpec::small_paper())
        .theta(0.0)
        .migration(MigrationPolicy::single_hop())
        .seed(1002)
        .duration_hours(2.0)
        .warmup_hours(0.5)
        .build();
    let record = |cfg: &SimConfig, profiled: bool| {
        let mut probe = TimeSeriesProbe::new(cfg, 600.0);
        if profiled {
            Simulation::run_instrumented(cfg, &mut [&mut probe]);
        } else {
            Simulation::run_with_probes(cfg, &mut [&mut probe]);
        }
        probe.finish()
    };
    let base = record(&config, false);
    assert!(!base.windows.is_empty());
    assert_eq!(
        record(&config, false).to_json(),
        base.to_json(),
        "recording not reproducible"
    );
    for &shards in &SHARD_MATRIX {
        let old = with_legacy_shards(&config, shards);
        for profiled in [false, true] {
            assert_eq!(
                record(&old, profiled).to_json(),
                base.to_json(),
                "recording diverged at shards = {shards} (profiled: {profiled})"
            );
        }
    }

    // The per-shard section as the sharded loop wrote it: one series
    // per shard, one entry per window.
    let n = base.windows.len();
    let series = |shard: usize| {
        let counts = format!("[{}]", vec!["1"; n].join(", "));
        let slack = format!("[{}]", vec!["0.5"; n].join(", "));
        format!(
            "{{\"shard\": {shard}, \"runs\": {counts}, \"stalled_runs\": {counts}, \
             \"bounded_runs\": {counts}, \"slack_secs\": {slack}, \"events\": {counts}, \
             \"cross_edges_out\": {counts}}}"
        )
    };
    let shards = (0..4).map(series).collect::<Vec<_>>().join(", ");
    let text = base.to_json();
    let old = text.replacen(
        "\"alerts\"",
        &format!("\"shards\": [{shards}],\n  \"alerts\""),
        1,
    );
    assert!(old.contains("\"cross_edges_out\""), "{old}");
    let read = TimeSeriesRecording::from_json(&old).expect("old recording parses");
    assert_eq!(read, base, "the per-shard section changed the recording");
}
