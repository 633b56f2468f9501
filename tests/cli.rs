//! Integration tests for the `sctsim` command-line interface.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn sctsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sctsim"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs `sctsim` like [`sctsim`], but kills it and fails the test if it
/// has not exited after `deadline`, so a command that loops forever
/// fails instead of hanging the suite.
fn sctsim_within(args: &[&str], deadline: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sctsim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = Instant::now();
    while child.try_wait().expect("try_wait").is_none() {
        if start.elapsed() > deadline {
            child.kill().expect("kill sctsim");
            let out = child.wait_with_output().expect("reap sctsim");
            panic!(
                "{args:?} still running after {deadline:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn erlang_subcommand_prints_analytics() {
    let out = sctsim(&["erlang", "--svbr", "33"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SVBR"));
    assert!(
        text.contains("0.873156"),
        "expected utilization for k=33: {text}"
    );
}

#[test]
fn scenario_round_trips_through_run() {
    let out = sctsim(&[
        "scenario", "--system", "tiny", "--policy", "P4", "--theta", "0.5",
    ]);
    assert!(out.status.success());
    let config_json = String::from_utf8(out.stdout).unwrap();
    assert!(config_json.contains("\"theta\": 0.5"));

    // Feed the emitted config back through `run --config`.
    let dir = std::env::temp_dir().join("sctsim-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("config.json");
    std::fs::write(&cfg_path, &config_json).unwrap();
    let out_path = dir.join("outcome.json");
    let run = sctsim(&[
        "run",
        "--config",
        cfg_path.to_str().unwrap(),
        "--trials",
        "1",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let outcome = std::fs::read_to_string(&out_path).unwrap();
    assert!(outcome.contains("utilization"));
}

/// A `--config` file's `"seed"` is the run's base seed when `--seed` is
/// absent: a config with `"seed": 99` writes what the seed-0 config writes
/// under `--seed 99`, and not what the seed-0 config writes alone.
#[test]
fn config_file_seed_is_the_base_seed_without_the_flag() {
    let dir = std::env::temp_dir().join(format!("sctsim-config-seed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = sctsim(&["scenario", "--system", "tiny", "--hours", "1"]);
    assert!(scenario.status.success());
    let seed0 = String::from_utf8(scenario.stdout).unwrap();
    assert!(seed0.contains("\"seed\": 0"), "{seed0}");
    let seed99 = seed0.replacen("\"seed\": 0", "\"seed\": 99", 1);
    let run = |config: &str, extra: &[&str], name: &str| {
        let cfg_path = dir.join(format!("{name}.json"));
        std::fs::write(&cfg_path, config).unwrap();
        let out_path = dir.join(format!("{name}-out.json"));
        let mut args = vec![
            "run",
            "--config",
            cfg_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let out = sctsim(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&out_path).unwrap()
    };
    let from_file = run(&seed99, &[], "file99");
    let from_flag = run(&seed0, &["--seed", "99"], "flag99");
    let unseeded = run(&seed0, &[], "file0");
    assert_eq!(from_file, from_flag);
    assert_ne!(from_file, unseeded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_is_deterministic_across_invocations() {
    let args = [
        "run", "--system", "tiny", "--hours", "1", "--trials", "1", "--seed", "5",
    ];
    let a = sctsim(&args);
    let b = sctsim(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "same seed must print identical outcomes"
    );
    // The summary line reports the configured duration unrounded.
    let short = sctsim(&["run", "--system", "tiny", "--hours", "0.05", "--seed", "5"]);
    let err = String::from_utf8(short.stderr).unwrap();
    assert!(short.status.success(), "{err}");
    assert!(err.contains(" hours=0.05\n"), "{err}");
}

#[test]
fn trace_emits_valid_json() {
    let out = sctsim(&[
        "trace", "--system", "tiny", "--hours", "0.2", "--theta", "0.0",
    ]);
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    let trace = sct_workload::Trace::from_json(json.trim()).expect("valid trace JSON");
    assert!(!trace.is_empty());
}

#[test]
fn run_trace_exports_parseable_jsonl_without_perturbing_the_outcome() {
    let dir = std::env::temp_dir().join("sctsim-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("events.jsonl");
    let base = [
        "run", "--system", "tiny", "--hours", "1", "--trials", "1", "--seed", "5",
    ];
    let plain = sctsim(&base);
    let mut traced_args: Vec<&str> = base.to_vec();
    traced_args.extend(["--trace", trace_path.to_str().unwrap()]);
    let traced = sctsim(&traced_args);
    assert!(
        plain.status.success() && traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    // The probe must be invisible: identical outcome JSON on stdout.
    assert_eq!(plain.stdout, traced.stdout);
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = sct_analysis::Trace::parse(&text).expect("valid JSONL trace");
    assert!(!trace.is_empty());
    let stderr = String::from_utf8(traced.stderr).unwrap();
    assert!(
        stderr.contains(&format!("traced {} events", trace.len())),
        "{stderr}"
    );
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = sctsim(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage"));
}

/// Invalid knobs get one diagnostic line and exit 2 — never a panic
/// backtrace (exit 101), never a silent clamp and never the usage text.
#[test]
fn invalid_run_knobs_exit_2_with_one_diagnostic() {
    let cases: [(&[&str], &str); 18] = [
        (&["--theta", "nan"], "theta must be finite"),
        (&["--hours", "-1"], "duration must be positive"),
        (&["--hours", "nan"], "duration must be positive"),
        (
            &["--hours", "1", "--warmup", "nan"],
            "warm-up must not be negative",
        ),
        (&["--seed", "nan"], "--seed expects a whole number"),
        (&["--seed", "-7"], "--seed expects a whole number"),
        (&["--seed", "1.5"], "--seed expects a whole number"),
        (&["--seed", "1e30"], "--seed expects a whole number"),
        (
            &["--seed", "18446744073709551616"],
            "--seed expects a whole number",
        ),
        (&["--trials", "2.7"], "--trials expects a whole number"),
        (&["--trials", "0"], "--trials expects a whole number"),
        (&["--trials", "-4"], "--trials expects a whole number"),
        (&["--trials", "nan"], "--trials expects a whole number"),
        (&["--hours", "abc"], "--hours expects a number, got abc"),
        (&["--system", "bogus"], "unknown system bogus"),
        (&["--policy", "P9"], "unknown policy P9"),
        (&["--hours"], "missing value for --hours"),
        (&["stray"], "unexpected argument stray"),
    ];
    for (flags, expected) in cases {
        let mut args = vec!["run"];
        if !flags.contains(&"--system") {
            args.extend(["--system", "tiny"]);
        }
        args.extend_from_slice(flags);
        let out = sctsim(&args);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {err}");
        assert!(out.stdout.is_empty(), "{flags:?} still ran");
        assert_eq!(err.lines().count(), 1, "{flags:?}: {err}");
        assert!(err.contains(expected), "{flags:?}: {err}");
        assert!(!err.contains("panicked"), "{flags:?}: {err}");
    }
}

/// `--seed` is read as a whole `u64`, not through an `f64`: 2^53 and
/// 2^53 + 1 round to the same double but are different seeds.
#[test]
fn seeds_past_two_to_the_53_stay_distinct() {
    let run = |seed: &str| {
        let out = sctsim(&["run", "--system", "tiny", "--hours", "1", "--seed", seed]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_ne!(run("9007199254740992"), run("9007199254740993"));
}

/// The `--config` path validates too: a file with a bad knob exits 2
/// with a diagnostic.
#[test]
fn invalid_config_file_exits_2_with_one_diagnostic() {
    let out = sctsim(&["scenario", "--system", "tiny"]);
    assert!(out.status.success());
    let good = String::from_utf8(out.stdout).unwrap();
    let bad = good.replacen("\"receive_cap_mbps\": 30", "\"receive_cap_mbps\": 1", 1);
    assert_ne!(bad, good, "scenario output lacks a receive cap");
    let dir = std::env::temp_dir().join(format!("sctsim-badcfg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, &bad).unwrap();
    let args = ["run", "--config", bad_path.to_str().unwrap()];
    let out = sctsim(&args);
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    assert!(err.contains("at least the view rate"), "{args:?}: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A config file written by an older build may carry a key the config
/// no longer has: `"shards"`, from when the loop could be sharded, or
/// one of the two observation knobs, for windowed utilization and
/// per-video counts, which are probes now. None of them is part of what
/// is simulated, so each such file parses and runs exactly like the same
/// file without the key.
#[test]
fn config_file_with_a_shards_key_runs_unchanged() {
    let out = sctsim(&[
        "scenario", "--system", "tiny", "--hours", "2", "--seed", "7",
    ]);
    assert!(out.status.success());
    let plain = String::from_utf8(out.stdout).unwrap();
    let dir = std::env::temp_dir().join(format!("sctsim-oldcfg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = sctsim(&["run", "--config", path.to_str().unwrap(), "--trials", "2"]);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let want = run("plain.json", &plain);
    assert!(!want.is_empty());
    for retired in [
        "\"shards\": 4",
        "\"sample_interval_secs\": 900",
        "\"track_per_video\": true",
    ] {
        let old = plain.replacen("\"seed\"", &format!("{retired},\n  \"seed\""), 1);
        assert!(old.contains(retired), "{old}");
        assert_eq!(
            run("old.json", &old),
            want,
            "the retired key {retired} changed the outcome"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Recordings and snapshots written while the loop could be sharded
/// carry a `"shards"` array (time series) or a `"per_shard"` array
/// (metrics). `diff`, `watch` and `report` still read them.
#[test]
fn old_recordings_and_snapshots_with_shard_sections_still_read() {
    let dir = std::env::temp_dir().join(format!("sctsim-oldexports-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ts_path = dir.join("ts.json");
    let metrics_path = dir.join("m.json");
    let run = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "1",
        "--seed",
        "5",
        "--timeseries",
        ts_path.to_str().unwrap(),
        "--window",
        "600",
        "--metrics",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let ts = std::fs::read_to_string(&ts_path).unwrap();
    let old_ts = ts.replacen("\"alerts\"", "\"shards\": [],\n  \"alerts\"", 1);
    assert!(old_ts.contains("\"shards\": []"), "{old_ts}");
    let old_ts_path = dir.join("old-ts.json");
    std::fs::write(&old_ts_path, &old_ts).unwrap();
    let d = sctsim(&[
        "diff",
        old_ts_path.to_str().unwrap(),
        ts_path.to_str().unwrap(),
    ]);
    assert!(d.status.success(), "{}", String::from_utf8_lossy(&d.stderr));
    assert!(String::from_utf8(d.stdout)
        .unwrap()
        .contains("recordings agree"));
    let w = sctsim(&["watch", old_ts_path.to_str().unwrap(), "--once"]);
    assert!(w.status.success(), "{}", String::from_utf8_lossy(&w.stderr));
    assert!(String::from_utf8(w.stdout)
        .unwrap()
        .contains("Time-series recording"));

    let m = std::fs::read_to_string(&metrics_path).unwrap();
    let merged_at = m.find("\"merged\"").expect("profile attached");
    let old_m = format!(
        "{}\"per_shard\": [],\n    {}",
        &m[..merged_at],
        &m[merged_at..]
    );
    let old_m_path = dir.join("old-m.json");
    std::fs::write(&old_m_path, &old_m).unwrap();
    let report = sctsim(&["report", old_m_path.to_str().unwrap()]);
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    assert!(String::from_utf8(report.stdout)
        .unwrap()
        .contains("## Loop profile"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The optional specs a `--config` file carries are checked like the
/// flags are: each bad one gives one `invalid configuration:` line and
/// exit 2. Before, some panicked and a bad pause model or waitlist ran
/// to an outcome.
#[test]
fn invalid_nested_specs_in_a_config_file_exit_2_with_one_line() {
    let out = sctsim(&["scenario", "--system", "tiny", "--hours", "1"]);
    assert!(out.status.success());
    let good = String::from_utf8(out.stdout).unwrap();
    let staging = "\"staging\": {\n    \"FractionOfAvgVideo\": 0.2\n  }";
    let cases = [
        (
            "\"failures\": null",
            "\"failures\": {\"mtbf_hours\": -1, \"repair_hours\": 1}",
            "failure and repair means must be positive",
        ),
        (
            "\"interactivity\": null",
            "\"interactivity\": {\"probability\": 2, \"min_pause_secs\": 60, \"max_pause_secs\": 30}",
            "pause probability must be in [0,1]",
        ),
        (
            "\"diurnal\": null",
            "\"diurnal\": {\"amplitude\": 3, \"period_hours\": 24}",
            "diurnal amplitude must be in [0,1]",
        ),
        (
            "\"waitlist\": null",
            "\"waitlist\": {\"max_wait_secs\": -1, \"max_length\": 10, \"multicast_batching\": false}",
            "waitlist max_wait_secs must be positive",
        ),
        (
            staging,
            "\"staging\": {\"FractionOfAvgVideo\": -0.5}",
            "staging must not be negative",
        ),
        (
            "\"replication\": null",
            "\"replication\": {\"copy_rate_mbps\": 0, \"max_concurrent\": 2, \"cooldown_secs\": 600, \"source\": \"Tertiary\"}",
            "replication needs a positive copy_rate_mbps",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("sctsim-badspec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (field, bad_field, expected)) in cases.into_iter().enumerate() {
        let bad = good.replacen(field, bad_field, 1);
        assert_ne!(bad, good, "scenario output lacks {field}");
        let path = dir.join(format!("bad{i}.json"));
        std::fs::write(&path, &bad).unwrap();
        let out = sctsim(&["run", "--config", path.to_str().unwrap()]);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad_field}: {err}");
        assert!(out.stdout.is_empty(), "{bad_field} still ran");
        assert_eq!(err.lines().count(), 1, "{bad_field}: {err}");
        assert!(err.starts_with("invalid configuration: "), "{err}");
        assert!(err.contains(expected), "{bad_field}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag the subcommand does not take is refused, not silently
/// ignored: one line naming it, exit 2, nothing run.
#[test]
fn unknown_flags_exit_2_with_one_line() {
    let cases: [(&[&str], &str); 7] = [
        (&["run", "--threads", "2"], "--threads"),
        (&["run", "--exec-trace", "x.json"], "--exec-trace"),
        (&["run", "--shard", "4"], "--shard"),
        (&["run", "--shards", "4"], "--shards"),
        (&["scenario", "--shards", "1"], "--shards"),
        (&["run", "--bogus", "3"], "--bogus"),
        (&["erlang", "--svbr", "33", "--hours", "1"], "--hours"),
    ];
    for (args, flag) in cases {
        let out = sctsim(args);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        let expected = format!("unknown flag {flag} for sctsim {}", args[0]);
        assert!(err.contains(&expected), "{args:?}: {err}");
    }
}

/// `erlang` and `trace` check their numbers before computing anything:
/// one diagnostic line and exit 2, never a panic or an empty result.
#[test]
fn erlang_and_trace_reject_bad_numbers() {
    let cases: [&[&str]; 10] = [
        &["erlang", "--svbr", "0"],
        &["erlang", "--svbr", "-3"],
        &["erlang", "--svbr", "x"],
        &["erlang", "--svbr", "33", "--view-rate", "0"],
        &["erlang", "--svbr", "33", "--view-rate", "nan"],
        &["trace", "--system", "tiny", "--hours", "-1"],
        &["trace", "--system", "tiny", "--hours", "inf"],
        &["trace", "--system", "tiny", "--theta", "nan"],
        &["trace", "--system", "tiny", "--seed", "nan"],
        &["trace", "--system", "tiny", "--hours", "x"],
    ];
    for args in cases {
        let out = sctsim(args);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains(args[args.len() - 2]), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    // A missing `--svbr` is one line naming it, not the whole usage.
    let out = sctsim(&["erlang"]);
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "erlang ran without --svbr");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("--svbr"), "{err}");
}

#[test]
fn run_spans_exports_and_spans_subcommand_analyses_them() {
    let dir = std::env::temp_dir().join("sctsim-test-spans");
    std::fs::create_dir_all(&dir).unwrap();
    let spans_path = dir.join("spans.json");
    let base = [
        "run", "--system", "tiny", "--hours", "1", "--trials", "1", "--seed", "5",
    ];
    let plain = sctsim(&base);
    let mut span_args: Vec<&str> = base.to_vec();
    span_args.extend(["--spans", spans_path.to_str().unwrap()]);
    let spanned = sctsim(&span_args);
    assert!(
        plain.status.success() && spanned.status.success(),
        "{}",
        String::from_utf8_lossy(&spanned.stderr)
    );
    // The probe must be invisible: identical outcome JSON on stdout.
    assert_eq!(plain.stdout, spanned.stdout);
    let stderr = String::from_utf8(spanned.stderr).unwrap();
    assert!(stderr.contains("wrote"), "{stderr}");

    let summary = sctsim(&["spans", spans_path.to_str().unwrap(), "--critical-path"]);
    assert!(
        summary.status.success(),
        "{}",
        String::from_utf8_lossy(&summary.stderr)
    );
    let text = String::from_utf8(summary.stdout).unwrap();
    assert!(text.contains("## Spans"), "{text}");
    assert!(text.contains("## Causal edges"), "{text}");
    assert!(text.contains("Critical path"), "{text}");

    let perfetto_path = dir.join("trace.perfetto.json");
    let export = sctsim(&[
        "spans",
        spans_path.to_str().unwrap(),
        "--perfetto",
        perfetto_path.to_str().unwrap(),
    ]);
    assert!(
        export.status.success(),
        "{}",
        String::from_utf8_lossy(&export.stderr)
    );
    let trace = std::fs::read_to_string(&perfetto_path).unwrap();
    assert!(trace.contains("\"traceEvents\""), "not a trace: {trace}");
}

#[test]
fn spans_flag_conflicts_with_multiple_trials() {
    let out = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "1",
        "--trials",
        "2",
        "--spans",
        "/tmp/x.json",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--spans") && err.contains("--trials 2"),
        "{err}"
    );
}

#[test]
fn trace_flag_conflicts_with_multiple_trials() {
    let out = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "1",
        "--trials",
        "3",
        "--trace",
        "/tmp/x.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--trace") && err.contains("--trials 3"),
        "{err}"
    );
}

#[test]
fn spans_subcommand_rejects_a_missing_file() {
    let out = sctsim(&["spans", "/nonexistent/never/spans.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("spans.json"), "{err}");
}

#[test]
fn spans_subcommand_rejects_garbage_json() {
    let dir = std::env::temp_dir().join("sctsim-test-spans");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.json");
    std::fs::write(&path, "{not json at all").unwrap();
    let out = sctsim(&["spans", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!out.stderr.is_empty());
}

/// The subcommands that read files take them before their flags. A
/// missing file, or a flag where a file belongs, is one line and exit 2.
/// Each child runs under a deadline: a `watch` that takes `--once` as
/// its file retries reading it forever.
#[test]
fn file_subcommands_need_their_file_arguments() {
    let cases: [&[&str]; 10] = [
        &["report"],
        &["report", "--svg", "m.svg"],
        &["spans"],
        &["spans", "--critical-path"],
        &["watch"],
        &["watch", "--once"],
        &["diff"],
        &["diff", "a.json"],
        &["diff", "--tolerance", "0"],
        &["diff", "a.json", "--tolerance", "0"],
    ];
    for args in cases {
        let out = sctsim_within(args, Duration::from_secs(10));
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.starts_with(&format!("{} needs ", args[0])), "{err}");
    }
}

#[test]
fn unwritable_spans_path_fails_with_a_diagnostic() {
    let out = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "0.2",
        "--trials",
        "1",
        "--spans",
        "/nonexistent/never/spans.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("spans.json"), "{err}");
}

#[test]
fn metrics_snapshot_carries_the_loop_profile_and_report_renders_it() {
    let dir = std::env::temp_dir().join("sctsim-test-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("m.json");
    let run = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "1",
        "--trials",
        "2",
        "--seed",
        "5",
        "--metrics",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let snapshot = sct_analysis::MetricsSnapshot::from_json(&text).expect("valid metrics snapshot");
    let profile = snapshot.profile.as_ref().expect("profile attached");
    assert!(profile.merged.events > 0);
    let phases: Vec<&str> = profile
        .merged
        .phases
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    assert_eq!(phases, ["dispatch", "alloc", "wake", "probe"]);

    let report = sctsim(&["report", metrics_path.to_str().unwrap()]);
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let md = String::from_utf8(report.stdout).unwrap();
    assert!(md.contains("## Loop profile"), "{md}");
    assert!(md.contains("| wake |"), "{md}");
}

#[test]
fn run_timeseries_exports_a_recording_without_perturbing_the_outcome() {
    let dir = std::env::temp_dir().join("sctsim-test-ts");
    std::fs::create_dir_all(&dir).unwrap();
    let ts_path = dir.join("recording.json");
    let base = [
        "run", "--system", "tiny", "--hours", "2", "--trials", "1", "--seed", "5",
    ];
    let plain = sctsim(&base);
    let mut ts_args: Vec<&str> = base.to_vec();
    ts_args.extend(["--timeseries", ts_path.to_str().unwrap(), "--window", "900"]);
    let recorded = sctsim(&ts_args);
    assert!(
        plain.status.success() && recorded.status.success(),
        "{}",
        String::from_utf8_lossy(&recorded.stderr)
    );
    // The probe must be invisible: identical outcome JSON on stdout.
    assert_eq!(plain.stdout, recorded.stdout);
    let text = std::fs::read_to_string(&ts_path).unwrap();
    let rec = sct_analysis::timeseries::TimeSeriesRecording::from_json(&text)
        .expect("valid recording JSON");
    // 2 h at 900 s windows → 8 windows on the fixed grid.
    assert_eq!(rec.windows.len(), 8);
    assert_eq!(rec.trials, 1);
    let stderr = String::from_utf8(recorded.stderr).unwrap();
    assert!(stderr.contains("wrote time-series recording"), "{stderr}");
}

#[test]
fn timeseries_flag_merges_across_trials() {
    let dir = std::env::temp_dir().join("sctsim-test-ts");
    std::fs::create_dir_all(&dir).unwrap();
    let ts_path = dir.join("merged.json");
    let out = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "1",
        "--trials",
        "2",
        "--seed",
        "5",
        "--timeseries",
        ts_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&ts_path).unwrap();
    let rec = sct_analysis::timeseries::TimeSeriesRecording::from_json(&text)
        .expect("valid recording JSON");
    assert_eq!(rec.trials, 2, "recording must merge both trials");
}

#[test]
fn unwritable_timeseries_path_fails_with_a_diagnostic() {
    let out = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "0.2",
        "--trials",
        "1",
        "--timeseries",
        "/nonexistent/never/recording.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("recording.json"), "{err}");
}

#[test]
fn window_flag_requires_timeseries() {
    let out = sctsim(&[
        "run", "--system", "tiny", "--hours", "0.2", "--window", "600",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--timeseries"), "{err}");
}

#[test]
fn watch_once_renders_a_dashboard() {
    let dir = std::env::temp_dir().join("sctsim-test-ts");
    std::fs::create_dir_all(&dir).unwrap();
    let ts_path = dir.join("watch.json");
    let run = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "2",
        "--seed",
        "5",
        "--timeseries",
        ts_path.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let out = sctsim(&["watch", ts_path.to_str().unwrap(), "--once"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Time-series recording"), "{text}");
    assert!(text.contains("utilization"), "{text}");
}

#[test]
fn watch_rejects_a_missing_file() {
    let out = sctsim(&["watch", "/nonexistent/never/rec.json", "--once"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("rec.json"), "{err}");
}

#[test]
fn diff_subcommand_localizes_seed_divergence() {
    let dir = std::env::temp_dir().join("sctsim-test-ts");
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("seed5.json");
    let path_b = dir.join("seed6.json");
    for (seed, path) in [("5", &path_a), ("6", &path_b)] {
        let run = sctsim(&[
            "run",
            "--system",
            "tiny",
            "--hours",
            "2",
            "--seed",
            seed,
            "--timeseries",
            path.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let out = sctsim(&["diff", path_a.to_str().unwrap(), path_b.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("first divergence: window"), "{text}");

    // Self-diff agrees, and still exits 0.
    let same = sctsim(&["diff", path_a.to_str().unwrap(), path_a.to_str().unwrap()]);
    assert!(same.status.success());
    let text = String::from_utf8(same.stdout).unwrap();
    assert!(text.contains("recordings agree"), "{text}");
}

/// A NaN tolerance would let any two recordings agree and a negative one
/// would make a recording diverge from itself, so both are usage errors,
/// as is an infinite one: one line, exit 2.
#[test]
fn diff_rejects_a_non_finite_or_negative_tolerance() {
    let dir = std::env::temp_dir().join(format!("sctsim-test-tol-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rec.json");
    let p = path.to_str().unwrap();
    let run = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "1",
        "--seed",
        "5",
        "--timeseries",
        p,
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    for tol in ["nan", "-1", "inf"] {
        let out = sctsim(&["diff", p, p, "--tolerance", tol]);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{tol}: {err}");
        assert_eq!(err.lines().count(), 1, "{tol}: {err}");
        assert!(err.contains("--tolerance"), "{tol}: {err}");
        assert!(out.stdout.is_empty(), "{tol}");
    }
    // Zero is a tolerance: a recording agrees with itself exactly.
    let out = sctsim(&["diff", p, p, "--tolerance", "0"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recordings agree"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A file of deeply nested brackets is malformed input like any other:
/// every reader prints one diagnostic and exits 1 instead of overflowing
/// its stack.
#[test]
fn deeply_nested_json_is_a_parse_error_not_a_crash() {
    let dir = std::env::temp_dir().join(format!("sctsim-test-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let p = path.to_str().unwrap();
    let commands: [&[&str]; 5] = [
        &["run", "--config", p],
        &["report", p],
        &["spans", p],
        &["diff", p, p],
        &["watch", p, "--once"],
    ];
    for args in commands {
        let out = sctsim(args);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains("recursion limit"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_rejects_garbage_input() {
    let dir = std::env::temp_dir().join("sctsim-test-ts");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage-rec.json");
    std::fs::write(&path, "{not a recording").unwrap();
    let out = sctsim(&["diff", path.to_str().unwrap(), path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!out.stderr.is_empty());
}

#[test]
fn unwritable_metrics_path_fails_with_a_diagnostic() {
    let out = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "0.2",
        "--trials",
        "1",
        "--metrics",
        "/nonexistent/never/metrics.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("metrics.json"), "{err}");
}

/// `--profile` prints one loop-profile table per trial without
/// changing the outcome.
#[test]
fn profile_prints_the_loop_table() {
    let base = ["run", "--system", "tiny", "--hours", "1", "--seed", "5"];
    let plain = sctsim(&base);
    let mut profiled_args: Vec<&str> = base.to_vec();
    profiled_args.push("--profile");
    let profiled = sctsim(&profiled_args);
    assert!(
        plain.status.success() && profiled.status.success(),
        "{}",
        String::from_utf8_lossy(&profiled.stderr)
    );
    assert_eq!(
        plain.stdout, profiled.stdout,
        "profiling changed the outcome"
    );
    let err = String::from_utf8(profiled.stderr).unwrap();
    assert!(err.contains("trial 0: loop profile:"), "{err}");
    assert!(err.contains("wake"), "{err}");
}

#[test]
fn watch_tolerates_a_mid_write_recording_and_recovers() {
    use std::io::Read;

    let dir = std::env::temp_dir().join("sctsim-test-watch-midwrite");
    std::fs::create_dir_all(&dir).unwrap();
    let rec_path = dir.join("rec.json");
    // Start with a truncated document, as if a writer were mid-flush.
    std::fs::write(&rec_path, "{\"version\": 1, \"trials\":").unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_sctsim"))
        .args([
            "watch",
            rec_path.to_str().unwrap(),
            "--interval-secs",
            "0.2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("watch spawns");

    // Let it chew on the partial file for a couple of ticks...
    std::thread::sleep(std::time::Duration::from_millis(600));
    assert!(
        child.try_wait().expect("try_wait").is_none(),
        "watch must keep retrying on a partial file, not exit"
    );

    // ...then complete the write and give it time to recover.
    let run = sctsim(&[
        "run",
        "--system",
        "tiny",
        "--hours",
        "2",
        "--seed",
        "5",
        "--timeseries",
        rec_path.to_str().unwrap(),
    ]);
    assert!(run.status.success());
    std::thread::sleep(std::time::Duration::from_millis(600));

    child.kill().expect("kill watch");
    child.wait().expect("reap watch");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .ok();
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .ok();
    assert!(
        stderr.contains("unreadable mid-write"),
        "expected a retry note on stderr: {stderr}"
    );
    assert!(
        stdout.contains("Time-series recording"),
        "watch never rendered the completed recording: {stdout}"
    );
}
