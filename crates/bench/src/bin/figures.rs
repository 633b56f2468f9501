//! Regenerates every table and figure of the paper (plus the tech-report
//! extensions) and writes markdown + JSON into `results/`.
//!
//! ```text
//! cargo run --release -p sct-bench --bin figures -- all --standard
//! cargo run --release -p sct-bench --bin figures -- fig4 fig5 --quick
//! cargo run --release -p sct-bench --bin figures -- fig7 --paper   # 5 × 1000 h
//! ```
//!
//! Experiments, in the order `all` runs them: fig3 fig4 fig5 fig6 fig7
//! svbr het partial sweep ablation faults pauses repl smoothing
//! rejections waitlist chains diurnal. `render` re-renders the SVGs of
//! every saved series in `--out` without simulating.
//!
//! Every argument is checked before anything runs. The fidelity preset
//! (`--quick`, `--standard`, `--paper`) applies first and `--trials` and
//! `--hours` override it, wherever they stand on the command line. An
//! experiment named twice runs once. A bad argument prints one
//! `figures: …` line and exits 2.
//!
//! The output directory is made before any experiment runs (`render`
//! alone only reads it), so an unusable `--out` costs no simulation. A
//! file that cannot be read or written prints one `figures: …` line and
//! exits 1.

use sct_analysis::Series;
use sct_bench::{save_series, sparkline};
use sct_core::experiments::{self, ExpOptions};
use sct_workload::{HeterogeneityKind, SystemSpec};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The experiments `all` stands for, in the order it runs them.
const ALL: [&str; 18] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "svbr",
    "het",
    "partial",
    "sweep",
    "ablation",
    "faults",
    "pauses",
    "repl",
    "smoothing",
    "rejections",
    "waitlist",
    "chains",
    "diurnal",
];

/// A checked command line.
struct Args {
    opts: ExpOptions,
    fidelity: &'static str,
    wanted: Vec<&'static str>,
    out_dir: PathBuf,
}

/// Parses the whole command line, or says what is wrong with it.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut preset: (&'static str, fn() -> ExpOptions) = ("standard", ExpOptions::standard);
    let mut trials: Option<u32> = None;
    let mut hours: Option<f64> = None;
    let mut wanted: Vec<&'static str> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--quick" => preset = ("quick", ExpOptions::quick),
            "--standard" => preset = ("standard", ExpOptions::standard),
            "--paper" => preset = ("paper", ExpOptions::paper),
            "--out" => out_dir = PathBuf::from(value()?),
            "--trials" => {
                let v = value()?;
                match v.parse::<u32>() {
                    Ok(n) if n >= 1 => trials = Some(n),
                    _ => {
                        return Err(format!(
                            "--trials must be a whole number of at least 1, got {v:?}"
                        ))
                    }
                }
            }
            "--hours" => {
                let v = value()?;
                let h = v
                    .parse::<f64>()
                    .map_err(|_| format!("--hours must be a number, got {v:?}"))?;
                hours = Some(h);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => {
                let names: &[&'static str] = match other {
                    "all" => &ALL,
                    "render" => &["render"],
                    _ => match ALL.iter().position(|&n| n == other) {
                        Some(i) => &ALL[i..=i],
                        None => return Err(format!("unknown experiment {other}")),
                    },
                };
                for &name in names {
                    if !wanted.contains(&name) {
                        wanted.push(name);
                    }
                }
            }
        }
    }
    let (fidelity, preset) = preset;
    let mut opts = preset();
    if let Some(n) = trials {
        opts.trials = n;
    }
    if let Some(h) = hours {
        if !h.is_finite() || h <= opts.warmup_hours {
            return Err(format!(
                "--hours must be finite and exceed the {fidelity} warm-up of {} h, got {h}",
                opts.warmup_hours
            ));
        }
        opts.duration_hours = h;
    }
    let window_hours = experiments::SMOOTHING_WINDOW_SECS / 3600.0;
    if wanted.contains(&"smoothing") && opts.duration_hours - opts.warmup_hours < window_hours {
        return Err(format!(
            "smoothing needs --hours of at least {} (one {} s window after the {fidelity} warm-up)",
            opts.warmup_hours + window_hours,
            experiments::SMOOTHING_WINDOW_SECS
        ));
    }
    Ok(Args {
        opts,
        fidelity,
        wanted,
        out_dir,
    })
}

/// Prints one `figures: …` line and exits 1.
fn fail(e: impl Display) -> ! {
    eprintln!("figures: {e}");
    std::process::exit(1)
}

/// Writes `contents` to `path`, or fails.
fn write(path: &Path, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", path.display())));
}

/// Saves `series` as `<dir>/<stem>.{md,json,svg}` and prints its
/// markdown and a sparkline of its means over `[lo, hi]`.
fn publish(dir: &Path, stem: &str, series: &Series, lo: f64, hi: f64) {
    let md = save_series(dir, stem, series).unwrap_or_else(|e| {
        fail(format_args!(
            "cannot save {}: {e}",
            dir.join(stem).display()
        ))
    });
    println!("{md}");
    println!("{}", sparkline(series, lo, hi));
}

/// Fails with the read error `e` of `path`.
fn cannot_read(path: &Path, e: std::io::Error) -> ! {
    fail(format_args!("cannot read {}: {e}", path.display()))
}

/// Re-renders the SVG of every saved series JSON in `dir`, without
/// simulating, and returns how many it rendered.
fn render(dir: &Path) -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| cannot_read(dir, e)) {
        let path = entry.unwrap_or_else(|e| cannot_read(dir, e)).path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| cannot_read(&path, e));
            if let Ok(series) = Series::from_json(&text) {
                let svg = sct_analysis::svg::render_series(
                    &series,
                    &sct_analysis::svg::SvgOptions::default(),
                );
                write(&path.with_extension("svg"), svg);
                n += 1;
            }
        }
    }
    n
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        opts,
        fidelity,
        wanted,
        out_dir,
    } = parse(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2);
    });
    if wanted.is_empty() {
        eprintln!(
            "usage: figures [all|fig3|fig4|fig5|fig6|fig7|svbr|het|partial|sweep|ablation]... \
             [--quick|--standard|--paper] [--trials N] [--hours H] [--out DIR]\n\
             (also: faults pauses repl smoothing rejections waitlist chains diurnal render)"
        );
        std::process::exit(2);
    }
    if wanted.iter().any(|&exp| exp != "render") {
        std::fs::create_dir_all(&out_dir)
            .unwrap_or_else(|e| fail(format_args!("cannot create {}: {e}", out_dir.display())));
    }

    println!(
        "# Semi-continuous transmission — figure regeneration ({fidelity}: {} trials × {} h)\n",
        opts.trials, opts.duration_hours
    );
    let small = SystemSpec::small_paper();
    let large = SystemSpec::large_paper();
    let out = out_dir.as_path();

    for exp in wanted {
        let t0 = Instant::now();
        match exp {
            "fig3" => {
                let t = experiments::fig3_table();
                write(&out.join("fig3.md"), t.to_markdown());
                println!("## Fig. 3 — system parameters\n\n{}", t.to_text());
            }
            "fig6" => {
                let t = experiments::fig6_table();
                write(&out.join("fig6.md"), t.to_markdown());
                println!("## Fig. 6 — policies evaluated\n\n{}", t.to_text());
            }
            "fig4" => {
                for (sys, tag) in [(&large, "large"), (&small, "small")] {
                    let s = experiments::fig4(sys, &opts);
                    publish(out, &format!("fig4_{tag}"), &s, 0.5, 1.0);
                }
            }
            "fig5" => {
                for (sys, tag) in [(&large, "large"), (&small, "small")] {
                    let s = experiments::fig5(sys, &opts);
                    publish(out, &format!("fig5_{tag}"), &s, 0.5, 1.0);
                }
            }
            "fig7" => {
                for (sys, tag) in [(&large, "large"), (&small, "small")] {
                    let s = experiments::fig7(sys, &opts);
                    publish(out, &format!("fig7_{tag}"), &s, 0.5, 1.0);
                }
            }
            "svbr" => publish(out, "svbr", &experiments::svbr(&opts), 0.5, 1.0),
            "het" => {
                for kind in [HeterogeneityKind::Bandwidth, HeterogeneityKind::Storage] {
                    let s = experiments::heterogeneity(kind, &opts);
                    let tag = format!("het_{kind:?}").to_lowercase();
                    publish(out, &tag, &s, 0.5, 1.0);
                }
            }
            "partial" => {
                for (sys, tag) in [(&large, "large"), (&small, "small")] {
                    let s = experiments::partial_predictive(sys, &opts);
                    publish(out, &format!("partial_{tag}"), &s, 0.5, 1.0);
                }
            }
            "sweep" => {
                for (sys, tag) in [(&large, "large"), (&small, "small")] {
                    let s = experiments::staging_sweep(sys, &opts);
                    publish(out, &format!("sweep_{tag}"), &s, 0.5, 1.0);
                }
            }
            "faults" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let s = experiments::fault_tolerance(sys, &opts);
                    publish(out, &format!("faults_{tag}"), &s, 0.0, 1.0);
                }
            }
            "pauses" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let s = experiments::interactivity(sys, &opts);
                    publish(out, &format!("pauses_{tag}"), &s, 0.5, 1.0);
                }
            }
            "repl" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let s = experiments::replication_vs_drm(sys, &opts);
                    publish(out, &format!("repl_{tag}"), &s, 0.3, 1.0);
                }
            }
            "smoothing" => {
                let s = experiments::smoothing(&small, &opts);
                publish(out, "smoothing_small", &s, 0.5, 1.0);
            }
            "rejections" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let t = experiments::rejection_profile(sys, &opts);
                    write(&out.join(format!("rejections_{tag}.md")), t.to_markdown());
                    println!("## Rejection profile ({tag})\n\n{}", t.to_text());
                }
            }
            "waitlist" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let s = experiments::waitlist(sys, &opts);
                    publish(out, &format!("waitlist_{tag}"), &s, 0.0, 1.0);
                }
            }
            "chains" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let s = experiments::migration_depth(sys, &opts);
                    publish(out, &format!("chains_{tag}"), &s, 0.5, 1.0);
                }
            }
            "diurnal" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let s = experiments::diurnal(sys, &opts);
                    publish(out, &format!("diurnal_{tag}"), &s, 0.5, 1.0);
                }
            }
            "render" => {
                let n = render(out);
                println!("rendered {n} SVGs in {}", out.display());
            }
            "ablation" => {
                for (sys, tag) in [(&small, "small"), (&large, "large")] {
                    let s = experiments::scheduler_ablation(sys, &opts);
                    publish(out, &format!("ablation_{tag}"), &s, 0.5, 1.0);
                }
            }
            other => unreachable!("parse admits no experiment {other}"),
        }
        eprintln!("[{exp} done in {:.1?}]", t0.elapsed());
    }
}
