//! `sctbench` command line.
//!
//! ```text
//! sctbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! sctbench run [--seed N] [--seconds S] [--out FILE] [--traced FILE]
//! sctbench compare A.json B.json
//! sctbench reference
//! ```
//!
//! The first form runs one workload in this process and ends with the
//! one-line JSON result. `run` runs every workload, each in its own child
//! process (so its peak RSS is its own), prints every metric with its
//! spread, and writes the report; `--traced FILE` adds the per-layer
//! drills, writes the traced report to FILE and its spans to
//! FILE's `.perfetto.json` sibling. `compare` judges report B against
//! baseline A and exits 1 unless every pair is better or within bound.
//! `reference` prints the reference values for
//! `reference/seed5.json`.

use sctbench::report::{compare, Provenance, RunReport, WorkloadReport};
use sctbench::spans::to_perfetto;
use sctbench::stats::Spread;
use sctbench::workloads::{
    reference_values, run_workload, Reference, RunOptions, Workload, REFERENCE_SEED,
};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

/// Seconds of untraced passes per workload when none are given.
const DEFAULT_SECONDS: f64 = 25.0;
/// Where `figures_serial` saves its artifacts while it runs.
const SCRATCH_DIR: &str = ".sctbench_tmp";

const USAGE: &str = "usage:\n  \
    sctbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n  \
    sctbench run [--seed N] [--seconds S] [--out FILE] [--traced FILE]\n  \
    sctbench compare A.json B.json\n  \
    sctbench reference\n\
    workloads: paper_small dense observed_large figures_serial";

fn usage_error(msg: &str) -> ! {
    eprintln!("sctbench: {msg}\n{USAGE}");
    exit(2)
}

/// Parsed `--flag value` pairs; positional arguments kept in order.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Args {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args;
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let Some(v) = it.next() else {
                    usage_error(&format!("--{name} needs a value"));
                };
                flags.push((name.to_string(), v));
            } else {
                positional.push(a);
            }
        }
        Args { flags, positional }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn reject_unknown(&self, known: &[&str]) {
        if let Some((k, _)) = self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            usage_error(&format!("unknown flag --{k}"));
        }
    }

    fn seed(&self) -> u64 {
        self.get("seed").map_or(REFERENCE_SEED, |s| {
            s.parse()
                .unwrap_or_else(|_| usage_error("--seed must be an unsigned integer"))
        })
    }

    fn seconds(&self) -> f64 {
        let secs = self.get("seconds").map_or(DEFAULT_SECONDS, |s| {
            s.parse()
                .unwrap_or_else(|_| usage_error("--seconds must be a number"))
        });
        if !(secs.is_finite() && secs >= 0.0) {
            usage_error("--seconds must be a non-negative number");
        }
        secs
    }

    fn trace(&self) -> bool {
        match self.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => usage_error("--trace must be 0 or 1"),
        }
    }

    fn workload(&self, name: Option<&str>) -> Workload {
        let name = name.unwrap_or_else(|| usage_error("missing workload name"));
        Workload::from_name(name)
            .unwrap_or_else(|| usage_error(&format!("unknown workload {name}")))
    }
}

fn scratch_for(w: Workload) -> PathBuf {
    Path::new(SCRATCH_DIR).join(format!("{}-{}", w.name(), std::process::id()))
}

/// The `figures` executable, built next to this one (`run.sh` builds
/// both).
fn figures_exe() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("sctbench: cannot locate own executable: {e}");
        exit(1)
    });
    exe.with_file_name(format!("figures{}", std::env::consts::EXE_SUFFIX))
}

fn options(args: &Args, w: Workload) -> RunOptions {
    RunOptions {
        seed: args.seed(),
        seconds: args.seconds(),
        traced: args.trace(),
        scale: 1.0,
        scratch: scratch_for(w),
        figures: figures_exe(),
    }
}

/// Runs one workload in this process.
fn run_one(w: Workload, opts: &RunOptions) -> WorkloadReport {
    let report = run_workload(w, opts);
    // Removes the scratch root unless another run still has a directory in
    // it (`remove_dir` refuses a non-empty directory).
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(argv.into_iter());
    if args.get("workload").is_some() {
        args.reject_unknown(&["workload", "seed", "seconds", "trace"]);
        if !args.positional.is_empty() {
            usage_error("unexpected positional argument");
        }
        let w = args.workload(args.get("workload"));
        let opts = options(&args, w);
        let report = run_one(w, &opts);
        print!("{}", report.to_text());
        println!("{}", report.result_line(opts.traced));
        exit(if report.correct() { 0 } else { 1 });
    }
    match args.positional.first().map(String::as_str) {
        Some("run") => run_all(&args),
        Some("child") => {
            args.reject_unknown(&["seed", "seconds", "trace"]);
            let w = args.workload(args.positional.get(1).map(String::as_str));
            let report = run_one(w, &options(&args, w));
            println!(
                "{}",
                serde_json::to_string(&report).expect("report serializes")
            );
        }
        Some("compare") => {
            args.reject_unknown(&[]);
            let [_, a, b] = &args.positional[..] else {
                usage_error("compare needs two report files");
            };
            let load = |path: &str| {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("sctbench: cannot read {path}: {e}");
                    exit(2)
                });
                RunReport::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("sctbench: {path} is not an sctbench report: {e}");
                    exit(2)
                })
            };
            let (table, passes) = compare(&load(a), &load(b));
            print!("{table}");
            exit(if passes { 0 } else { 1 });
        }
        Some("reference") => {
            args.reject_unknown(&[]);
            let reference = Reference {
                seed: REFERENCE_SEED,
                workloads: Workload::ALL
                    .iter()
                    .map(|&w| {
                        let opts = RunOptions {
                            seed: REFERENCE_SEED,
                            seconds: 0.0,
                            traced: false,
                            scale: 1.0,
                            scratch: scratch_for(w),
                            figures: figures_exe(),
                        };
                        reference_values(w, &opts)
                    })
                    .collect(),
            };
            let _ = std::fs::remove_dir(SCRATCH_DIR);
            println!(
                "{}",
                serde_json::to_string_pretty(&reference).expect("reference serializes")
            );
        }
        _ => usage_error("missing command"),
    }
}

/// `run`: every workload in its own child process, one at a time.
fn run_all(args: &Args) {
    args.reject_unknown(&["seed", "seconds", "out", "traced"]);
    let seed = args.seed();
    let seconds = args.seconds();
    let traced_path = args.get("traced");
    let provenance = Provenance::current(seed, seconds, traced_path.is_some());
    println!(
        "# sctbench @ {} — {} cpus, seed {seed}, {seconds} s per workload, {} build{}\n",
        provenance.git_rev,
        provenance.available_parallelism,
        provenance.build_profile,
        if traced_path.is_some() {
            ", traced"
        } else {
            ""
        }
    );
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("sctbench: cannot locate own executable: {e}");
        exit(1)
    });
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let report = run_child(&exe, w, seed, seconds, traced_path.is_some());
        println!("{}", report.to_text());
        workloads.push(report);
    }
    let all_correct = workloads.iter().all(WorkloadReport::correct);
    let report = RunReport {
        provenance,
        workloads,
    };
    let write = |path: &Path, text: String| {
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("sctbench: cannot write {}: {e}", path.display());
            exit(1)
        });
        eprintln!("wrote {}", path.display());
    };
    if let Some(path) = args.get("out") {
        write(Path::new(path), report.to_json());
    }
    if let Some(path) = traced_path {
        write(Path::new(path), report.to_json());
        let lanes: Vec<(String, Vec<_>)> = report
            .workloads
            .iter()
            .map(|w| (w.workload.clone(), w.spans.clone()))
            .collect();
        write(
            &Path::new(path).with_extension("perfetto.json"),
            to_perfetto(&lanes),
        );
    }
    exit(if all_correct { 0 } else { 1 });
}

/// Runs one workload in a child process and reads back its report.
fn run_child(exe: &Path, w: Workload, seed: u64, seconds: f64, traced: bool) -> WorkloadReport {
    let output = Command::new(exe)
        .args(["child", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output();
    let parsed = output.as_ref().map_err(|e| e.to_string()).and_then(|o| {
        let stdout = String::from_utf8_lossy(&o.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        serde_json::from_str::<WorkloadReport>(last)
            .map_err(|e| format!("exited with {}, unreadable report: {e}", o.status))
    });
    parsed.unwrap_or_else(|e| WorkloadReport {
        workload: w.name().to_string(),
        seed,
        passes: 0,
        attempted: 1,
        failed: 1,
        errors: vec![format!("child process: {e}")],
        host_speed: Spread::of(&[0.0]),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        extras: Vec::new(),
        spans: Vec::new(),
    })
}
