//! The `figures` command line: every argument is checked before anything
//! runs, a bad one exits 2 with one `figures: …` line and writes no file,
//! overrides win over the fidelity preset wherever they stand, and an
//! experiment named twice runs once.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, not yet existing output directory for one test.
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("figures-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn figures(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("figures runs")
}

/// `args` must exit 2 with exactly one stderr line that starts with
/// `figures:` and contains `needle`, print nothing and write no file.
fn assert_rejected(tag: &str, args: &[&str], needle: &str) {
    let out = out_dir(tag);
    let run = figures(args, &out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
    assert!(lines[0].starts_with("figures: "), "{args:?}: {stderr}");
    assert!(lines[0].contains(needle), "{args:?}: {stderr}");
    assert!(run.stdout.is_empty(), "{args:?} printed before rejecting");
    assert!(!out.exists(), "{args:?} wrote {}", out.display());
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected("bogus", &["fig3", "--bogus"], "unknown flag --bogus");
}

#[test]
fn unparsable_trials_are_rejected() {
    assert_rejected("trials-x", &["fig3", "--trials", "x"], "--trials");
}

#[test]
fn zero_trials_are_rejected() {
    assert_rejected("trials-0", &["fig3", "--trials", "0"], "--trials");
}

#[test]
fn non_finite_hours_are_rejected() {
    assert_rejected("hours-nan", &["fig3", "--hours", "nan"], "--hours");
}

#[test]
fn negative_hours_are_rejected() {
    assert_rejected("hours-neg", &["fig3", "--hours", "-3"], "--hours");
}

#[test]
fn hours_within_the_warm_up_are_rejected() {
    assert_rejected(
        "hours-short",
        &["fig3", "--quick", "--hours", "0.25"],
        "quick warm-up of 0.5 h",
    );
}

#[test]
fn hours_without_a_smoothing_window_are_rejected() {
    assert_rejected(
        "smoothing-short",
        &["smoothing", "--quick", "--hours", "0.6"],
        "smoothing needs --hours of at least 0.75",
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    assert_rejected("fig99", &["fig3", "fig99"], "unknown experiment fig99");
}

#[test]
fn missing_value_is_rejected() {
    // Not through `figures()`, which appends `--out DIR`: the flag that
    // needs a value must come last.
    let out = out_dir("missing");
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig3", "--out", out.to_str().unwrap(), "--hours"])
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.trim_end(), "figures: --hours needs a value");
    assert!(!out.exists());
}

#[test]
fn overrides_win_over_a_later_fidelity_flag() {
    let out = out_dir("override");
    let run = figures(&["fig3", "--trials", "1", "--hours", "1", "--quick"], &out);
    assert!(run.status.success(), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.starts_with(
            "# Semi-continuous transmission — figure regeneration (quick: 1 trials × 1 h)"
        ),
        "{stdout}"
    );
    assert!(out.join("fig3.md").exists());
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn an_experiment_named_twice_runs_once() {
    let out = out_dir("dedup");
    let run = figures(&["fig3", "fig6", "fig3", "fig6", "--quick"], &out);
    assert!(run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    let done: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix('[')?.split_once(" done in "))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(done, ["fig3", "fig6"], "{stderr}");
    std::fs::remove_dir_all(&out).unwrap();
}
