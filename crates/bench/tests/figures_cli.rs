//! The `figures` command line: every argument is checked before anything
//! runs, a bad one exits 2 with one `figures: …` line and writes no file,
//! overrides win over the fidelity preset wherever they stand, and an
//! experiment named twice runs once. A file that cannot be read or
//! written exits 1 with one `figures: …` line, and an output directory
//! that cannot be made fails before anything is simulated.

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

/// `args` must exit 1, and the last stderr line must start with
/// `figures: ` and contain `needle`; returns the run.
fn assert_io_failure(args: &[&str], out: &Path, needle: &str) -> Output {
    let run = figures(args, out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with("figures: "), "{args:?}: {stderr}");
    assert!(last.contains(needle), "{args:?}: {stderr}");
    run
}

/// An `--out` that names a file, or lies under one, cannot become a
/// directory: one line, exit 1, before any experiment runs.
#[test]
fn an_out_path_that_cannot_be_a_directory_fails_before_simulating() {
    let dir = out_dir("out-file");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("taken");
    std::fs::write(&file, "").unwrap();
    let cases = [
        (
            vec!["svbr", "--quick", "--trials", "1", "--hours", "1"],
            file.clone(),
        ),
        (vec!["fig3"], PathBuf::from("/dev/null/x")),
    ];
    for (args, out) in cases {
        let run = assert_io_failure(&args, &out, "cannot create");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} ran before failing");
    }
    assert_eq!(std::fs::read(&file).unwrap(), b"");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file of the output that cannot be written ends the run with one
/// line and exit 1.
#[test]
fn an_unwritable_output_file_fails_cleanly() {
    let out = out_dir("unwritable");
    std::fs::create_dir_all(out.join("fig3.md")).unwrap();
    assert_io_failure(&["fig3"], &out, "cannot write");
    std::fs::create_dir_all(out.join("svbr.json")).unwrap();
    assert_io_failure(
        &["svbr", "--quick", "--trials", "1", "--hours", "1"],
        &out,
        "cannot save",
    );
    std::fs::remove_dir_all(&out).unwrap();
}

/// `render` only reads its directory: a missing one is an error, and it
/// is not created.
#[test]
fn render_of_a_missing_directory_fails_cleanly() {
    let out = out_dir("render-missing");
    assert_io_failure(&["render"], &out, "cannot read");
    assert!(!out.exists());
}
