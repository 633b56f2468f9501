//! `sctsim` — command-line front end for the cluster-VoD simulator.
//!
//! ```text
//! sctsim run --system small --policy P4 --theta 0.271 --hours 24 --trials 3
//! sctsim run --config my_config.json --out outcome.json
//! sctsim scenario --system large              # dump a SimConfig as JSON
//! sctsim erlang --svbr 33                     # analytic single-server numbers
//! sctsim trace --system small --hours 1 --theta 0.0 > trace.json
//! ```
//!
//! All subcommands are deterministic given `--seed`.

use semi_continuous_vod::analysis::erlang::{erlang_b, expected_utilization_vs_svbr};
use semi_continuous_vod::analysis::slo::SloPolicy;
use semi_continuous_vod::analysis::snapshot::LoopProfilesSnapshot;
use semi_continuous_vod::analysis::timeseries::{diff, render_dashboard, TimeSeriesRecording};
use semi_continuous_vod::analysis::{MetricsSnapshot, SpanSet};
use semi_continuous_vod::core::config::{SimConfig, SimConfigBuilder};
use semi_continuous_vod::core::policies::Policy;
use semi_continuous_vod::core::runner::{run_trials, utilization_summary, TrialPlan};
use semi_continuous_vod::core::simulation::Simulation;
use semi_continuous_vod::core::{
    JsonlTraceProbe, LoopProfile, MetricsRegistry, Probe, SpanProbe, TelemetryProbe,
    TimeSeriesProbe,
};
use semi_continuous_vod::simcore::{Rng, SimTime, ZipfLike};
use semi_continuous_vod::workload::{calibrated_rate, SystemSpec, Trace};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  sctsim run [--config FILE | --system small|large|tiny|huge] [--policy P1..P8]\n\
         \x20          [--theta T] [--hours H] [--warmup H] [--trials N] [--seed S] [--out FILE]\n\
         \x20          [--trace FILE]  (export a JSONL event trace; single trial only)\n\
         \x20          [--metrics FILE]  (export a telemetry snapshot, merged across trials)\n\
         \x20          [--spans FILE]  (export request-lifecycle spans; single trial only)\n\
         \x20          [--profile]  (print the event loop's wall-clock phase profile)\n\
         \x20          [--timeseries FILE]  (export a windowed time-series recording,\n\
         \x20                                merged across trials)\n\
         \x20          [--window SECS]  (time-series window width, default 900)\n\
         \x20          [--slo FILE]  (SLO rule policy JSON for the recording's alerts)\n\
         \x20 sctsim report FILE [--svg FILE]  (render a metrics snapshot as markdown + SVG)\n\
         \x20 sctsim spans FILE [--critical-path] [--perfetto OUT]  (analyse a span export)\n\
         \x20 sctsim watch FILE [--once] [--interval-secs S]  (live terminal dashboard\n\
         \x20                                                  over a recording file)\n\
         \x20 sctsim diff A B [--tolerance T]  (align two recordings window-by-window\n\
         \x20                                   and localize the first divergence)\n\
         \x20 sctsim scenario --system small|large|tiny|huge [--policy P..] [--theta T]\n\
         \x20 sctsim erlang --svbr K [--view-rate MBPS]\n\
         \x20 sctsim trace --system small|large|tiny|huge [--theta T] [--hours H] [--seed S]"
    );
    exit(2)
}

struct Args {
    map: Vec<(String, String)>,
}

/// Flags that take no value.
const BOOL_FLAGS: [&str; 3] = ["profile", "critical-path", "once"];

/// The flags `sctsim <cmd>` accepts; [`Args::parse`] rejects any other.
fn flags_of(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "run" => &[
            "config",
            "system",
            "policy",
            "theta",
            "hours",
            "warmup",
            "seed",
            "trials",
            "out",
            "trace",
            "metrics",
            "spans",
            "profile",
            "timeseries",
            "window",
            "slo",
        ],
        "scenario" => &[
            "config", "system", "policy", "theta", "hours", "warmup", "seed",
        ],
        "erlang" => &["svbr", "view-rate"],
        "trace" => &["system", "theta", "hours", "seed"],
        "report" => &["svg"],
        "spans" => &["critical-path", "perfetto"],
        "watch" => &["once", "interval-secs"],
        "diff" => &["tolerance"],
        _ => &[],
    }
}

impl Args {
    /// Parses `--flag value` pairs (and the value-less [`BOOL_FLAGS`])
    /// for `sctsim <cmd>`. A flag that command does not accept is an
    /// error, not a silent no-op; it, a flag without its value and a stray
    /// argument each print one line and exit 2.
    fn parse(cmd: &str, args: &[String]) -> Args {
        let accepted = flags_of(cmd);
        let mut map = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !accepted.contains(&key) {
                    eprintln!("unknown flag --{key} for sctsim {cmd}");
                    exit(2)
                }
                if BOOL_FLAGS.contains(&key) {
                    map.push((key.to_string(), "true".to_string()));
                    continue;
                }
                let val = it.next().unwrap_or_else(|| {
                    eprintln!("missing value for --{key}");
                    exit(2)
                });
                map.push((key.to_string(), val.clone()));
            } else {
                eprintln!("unexpected argument {a}");
                exit(2)
            }
        }
        Args { map }
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} expects a number, got {v}");
                exit(2)
            })
        })
    }

    /// `--seed` as a decimal `u64` (0 when absent); anything else is one
    /// line and exit 2.
    fn seed(&self) -> u64 {
        self.get("seed").map_or(0, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!(
                    "--seed expects a whole number from 0 to {}, got {v:?}",
                    u64::MAX
                );
                exit(2)
            })
        })
    }

    /// `--trials` as a whole number of at least 1 (1 when absent);
    /// anything else is one line and exit 2.
    fn trials(&self) -> u32 {
        self.get("trials").map_or(1, |v| match v.parse::<u32>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--trials expects a whole number of at least 1, got {v:?}");
                exit(2)
            }
        })
    }
}

fn system_by_name(name: &str) -> SystemSpec {
    match name {
        "small" => SystemSpec::small_paper(),
        "large" => SystemSpec::large_paper(),
        "tiny" => SystemSpec::tiny_test(),
        "huge" => SystemSpec::huge(),
        other => {
            eprintln!("unknown system {other} (expected small|large|tiny|huge)");
            exit(2)
        }
    }
}

fn policy_by_name(name: &str) -> Policy {
    Policy::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown policy {name} (expected P1..P8)");
            exit(2)
        })
}

fn build_config(args: &Args) -> SimConfig {
    let b = if let Some(path) = args.get("config") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        let config: SimConfig = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(1)
        });
        SimConfigBuilder::from(config)
    } else {
        let system = system_by_name(args.get("system").unwrap_or("small"));
        let mut b = SimConfig::builder(system);
        if let Some(p) = args.get("policy") {
            b = b.policy(policy_by_name(p));
        }
        if let Some(t) = args.get_f64("theta") {
            b = b.theta(t);
        }
        if let Some(h) = args.get_f64("hours") {
            b = b.duration_hours(h);
            // Keep the default warm-up sensible for short runs.
            if args.get("warmup").is_none() {
                b = b.warmup_hours((h * 0.1).min(1.0));
            }
        }
        if let Some(w) = args.get_f64("warmup") {
            b = b.warmup_hours(w);
        }
        if args.has("seed") {
            b = b.seed(args.seed());
        }
        b
    };
    b.try_build().unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        exit(2)
    })
}

fn cmd_run(args: &Args) {
    let config = build_config(args);
    let trials = args.trials();
    // The plan's base seed: `--seed`, else the config's own (a `--config`
    // file's `"seed"`, or 0 on the flag path).
    let seed = if args.has("seed") {
        args.seed()
    } else {
        config.seed
    };
    let trace_path = args.get("trace");
    let metrics_path = args.get("metrics");
    let spans_path = args.get("spans");
    let timeseries_path = args.get("timeseries");
    let profile = args.has("profile");
    // A trace or span export narrates exactly one trial; silently
    // dropping the other trials would misrepresent what ran.
    if trials > 1 {
        if trace_path.is_some() {
            eprintln!("--trace exports a single trial; it conflicts with --trials {trials}");
            exit(2)
        }
        if spans_path.is_some() {
            eprintln!("--spans exports a single trial; it conflicts with --trials {trials}");
            exit(2)
        }
    }
    let window_secs = args.get_f64("window").unwrap_or(900.0);
    if timeseries_path.is_some() && !(window_secs > 0.0 && window_secs.is_finite()) {
        eprintln!("--window expects a positive number of seconds, got {window_secs}");
        exit(2)
    }
    // `--window`/`--slo` only shape a time-series recording.
    if timeseries_path.is_none() && (args.has("window") || args.has("slo")) {
        eprintln!("--window and --slo require --timeseries");
        exit(2)
    }
    let slo_policy = match args.get("slo") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1)
            });
            SloPolicy::from_json(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                exit(1)
            })
        }
        None => SloPolicy::default_policy(),
    };
    let outcomes = if trace_path.is_some()
        || metrics_path.is_some()
        || spans_path.is_some()
        || timeseries_path.is_some()
        || profile
    {
        // Probes attached: run the plan's trials sequentially so each trial
        // gets its own telemetry probe, then merge the registries (the
        // merge is exact — see sct-core::metrics). Probes cannot perturb
        // outcomes, so this matches `run_trials` on the same plan bit for
        // bit.
        let plan = TrialPlan::new(trials, seed);
        let mut trace_probe = trace_path.map(|path| {
            JsonlTraceProbe::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                exit(1)
            })
        });
        let mut registry: Option<MetricsRegistry> = None;
        let mut recording: Option<TimeSeriesRecording> = None;
        // Per-trial loop profiles, kept so a `--metrics` snapshot can
        // carry the summed wall-clock decomposition.
        let mut profiles: Vec<LoopProfile> = Vec::new();
        let mut outs = Vec::with_capacity(trials as usize);
        for i in 0..trials {
            let mut cfg = config.clone();
            cfg.seed = plan.seed(i);
            let mut telemetry = metrics_path.map(|_| TelemetryProbe::new(&cfg));
            let mut span_probe = spans_path.map(|_| SpanProbe::new());
            let mut ts_probe = timeseries_path
                .map(|_| TimeSeriesProbe::with_policy(&cfg, window_secs, slo_policy.clone()));
            let mut hub: Vec<&mut dyn Probe> = Vec::new();
            if let Some(t) = telemetry.as_mut() {
                hub.push(t);
            }
            if let Some(t) = trace_probe.as_mut() {
                hub.push(t);
            }
            if let Some(s) = span_probe.as_mut() {
                hub.push(s);
            }
            if let Some(t) = ts_probe.as_mut() {
                hub.push(t);
            }
            // Only `--profile` and `--metrics` report the loop profile;
            // the other exports run without reading the clock per event.
            if profile || metrics_path.is_some() {
                let (outcome, loop_profile) = Simulation::run_instrumented(&cfg, &mut hub);
                if profile {
                    eprint!("trial {i}: {}", loop_profile.to_text());
                }
                profiles.push(loop_profile);
                outs.push(outcome);
            } else {
                outs.push(Simulation::run_with_probes(&cfg, &mut hub));
            }
            if let Some(t) = telemetry {
                let trial_registry = t.finish();
                match registry.as_mut() {
                    Some(r) => r.merge(trial_registry),
                    None => registry = Some(trial_registry),
                }
            }
            if let Some(t) = ts_probe {
                let mut rec = t.finish();
                rec.set_trial(i);
                match recording.as_mut() {
                    Some(r) => r.merge(&rec).unwrap_or_else(|e| {
                        eprintln!("cannot merge trial {i} recording: {e}");
                        exit(1)
                    }),
                    None => recording = Some(rec),
                }
            }
            if let (Some(path), Some(probe)) = (spans_path, span_probe) {
                let set = probe.finish(cfg.duration.as_secs());
                std::fs::write(path, set.to_json() + "\n").unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1)
                });
                eprintln!(
                    "wrote {} spans / {} causal edges to {path}",
                    set.spans.len(),
                    set.edges.len()
                );
            }
        }
        if let (Some(path), Some(probe)) = (trace_path, trace_probe) {
            let lines = probe.finish().unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            eprintln!("traced {lines} events to {path}");
        }
        if let (Some(path), Some(registry)) = (metrics_path, registry) {
            let mut snapshot = registry.snapshot();
            // Carry the loop's own wall-clock decomposition alongside
            // the simulated metrics, summed over the trials.
            snapshot.profile = Some(LoopProfilesSnapshot {
                merged: LoopProfile::total(&profiles).snapshot(),
            });
            std::fs::write(path, snapshot.to_json() + "\n").unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            eprintln!(
                "wrote metrics snapshot ({} trial{}) to {path}",
                snapshot.trials,
                if snapshot.trials == 1 { "" } else { "s" }
            );
        }
        if let (Some(path), Some(recording)) = (timeseries_path, recording) {
            std::fs::write(path, recording.to_json() + "\n").unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            eprintln!(
                "wrote time-series recording ({} windows x {}s, {} trial{}, {} alert{}) to {path}",
                recording.windows.len(),
                recording.window_secs,
                recording.trials,
                if recording.trials == 1 { "" } else { "s" },
                recording.alerts.len(),
                if recording.alerts.len() == 1 { "" } else { "s" },
            );
        }
        outs
    } else {
        run_trials(&config, TrialPlan::new(trials, seed))
    };
    let summary = utilization_summary(&outcomes);
    eprintln!(
        "system={} theta={} trials={} hours={}",
        config.system.name,
        config.theta,
        outcomes.len(),
        config.duration.as_hours()
    );
    eprintln!(
        "utilization = {:.4} ± {:.4}   acceptance = {:.4}   migrations = {}",
        summary.mean,
        summary.ci95,
        outcomes.iter().map(|o| o.acceptance_ratio()).sum::<f64>() / outcomes.len() as f64,
        outcomes
            .iter()
            .map(|o| o.stats.accepted_via_migration)
            .sum::<u64>(),
    );
    let json = serde_json::to_string_pretty(&outcomes).expect("outcomes serialise");
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

fn cmd_report(file: &str, args: &Args) {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1)
    });
    let snapshot = MetricsSnapshot::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        exit(1)
    });
    print!("{}", snapshot.to_markdown());
    let svg_path = match args.get("svg") {
        Some(p) => p.to_string(),
        None => {
            // m.json → m.svg (or append .svg when there is no extension).
            let mut p = std::path::PathBuf::from(file);
            p.set_extension("svg");
            p.to_string_lossy().into_owned()
        }
    };
    match snapshot.to_svg() {
        Ok(svg) => {
            std::fs::write(&svg_path, svg).unwrap_or_else(|e| {
                eprintln!("cannot write {svg_path}: {e}");
                exit(1)
            });
            eprintln!("wrote dashboard to {svg_path}");
        }
        // A snapshot without per-server gauges still renders as markdown.
        Err(e) => eprintln!("skipping SVG dashboard: {e}"),
    }
}

fn cmd_spans(file: &str, args: &Args) {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1)
    });
    let set = SpanSet::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        exit(1)
    });
    print!("{}", set.summary_markdown());
    if args.has("critical-path") {
        println!();
        print!("{}", set.critical_path_report(10));
    }
    if let Some(path) = args.get("perfetto") {
        std::fs::write(path, set.to_perfetto()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        eprintln!("wrote Perfetto trace to {path} (open in ui.perfetto.dev)");
    }
}

fn read_recording(file: &str) -> TimeSeriesRecording {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1)
    });
    TimeSeriesRecording::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        exit(1)
    })
}

fn cmd_watch(file: &str, args: &Args) {
    let cols = 72;
    if args.has("once") {
        print!("{}", render_dashboard(&read_recording(file), cols));
        return;
    }
    let interval = args.get_f64("interval-secs").unwrap_or(2.0);
    if !(interval > 0.0 && interval.is_finite()) {
        eprintln!("--interval-secs expects a positive number, got {interval}");
        exit(2)
    }
    loop {
        // Re-read every tick: a concurrent `sctsim run --timeseries`
        // rewrites the file when it finishes. A missing file or
        // partially-written JSON keeps the previous frame on screen and
        // notes the retry — never a hard exit, since the writer may be
        // mid-flush.
        let frame = match std::fs::read_to_string(file) {
            Ok(text) => match TimeSeriesRecording::from_json(&text) {
                Ok(rec) => Some(rec),
                Err(e) => {
                    eprintln!("watch: {file} unreadable mid-write ({e}); retrying in {interval}s");
                    None
                }
            },
            Err(e) => {
                eprintln!("watch: cannot read {file} ({e}); retrying in {interval}s");
                None
            }
        };
        if let Some(rec) = frame {
            // ANSI clear + home, then the dashboard.
            print!("\x1b[2J\x1b[H{}", render_dashboard(&rec, cols));
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

fn cmd_diff(file_a: &str, file_b: &str, args: &Args) {
    let tol = args.get_f64("tolerance").unwrap_or(1e-9);
    // A NaN tolerance would let every window agree, a negative one none.
    if !(tol >= 0.0 && tol.is_finite()) {
        eprintln!("--tolerance expects a non-negative number, got {tol}");
        exit(2)
    }
    let a = read_recording(file_a);
    let b = read_recording(file_b);
    match diff(&a, &b, tol) {
        Ok(report) => print!("{}", report.to_text()),
        Err(e) => {
            eprintln!("cannot diff {file_a} vs {file_b}: {e}");
            exit(1)
        }
    }
}

fn cmd_scenario(args: &Args) {
    let config = build_config(args);
    println!(
        "{}",
        serde_json::to_string_pretty(&config).expect("config serialises")
    );
}

fn cmd_erlang(args: &Args) {
    let svbr = args.get_f64("svbr").unwrap_or_else(|| {
        eprintln!("--svbr is required");
        exit(2)
    });
    if !(svbr >= 1.0 && svbr.is_finite()) {
        eprintln!("--svbr expects a number of at least 1, got {svbr}");
        exit(2)
    }
    let k = svbr as usize;
    let view = args.get_f64("view-rate").unwrap_or(3.0);
    if !(view > 0.0 && view.is_finite()) {
        eprintln!("--view-rate expects a positive number of Mb/s, got {view}");
        exit(2)
    }
    let bw = k as f64 * view;
    println!("SVBR                      {k}");
    println!("server bandwidth          {bw} Mb/s at view rate {view} Mb/s");
    println!("blocking B(k,k)           {:.6}", erlang_b(k, k as f64));
    println!(
        "expected utilization      {:.6}",
        expected_utilization_vs_svbr(bw, view)
    );
}

fn cmd_trace(args: &Args) {
    let system = system_by_name(args.get("system").unwrap_or("small"));
    let theta = args.get_f64("theta").unwrap_or(0.271);
    if !theta.is_finite() {
        eprintln!("--theta expects a finite number, got {theta}");
        exit(2)
    }
    let hours = args.get_f64("hours").unwrap_or(1.0);
    if !(hours > 0.0 && hours.is_finite()) {
        eprintln!("--hours expects a positive number, got {hours}");
        exit(2)
    }
    let seed = args.seed();
    let mut rng = Rng::new(seed).fork(1);
    let catalog = system.catalog(&mut rng);
    let pops = ZipfLike::new(catalog.len(), theta);
    let rate = calibrated_rate(system.total_bandwidth_mbps(), &catalog, pops.probs());
    let trace = Trace::generate(rate, &pops, SimTime::from_hours(hours), &Rng::new(seed));
    println!("{}", trace.to_json());
    eprintln!("{} requests over {hours} h (rate {rate:.4}/s)", trace.len());
}

/// The `n` files `sctsim <cmd>` takes before its flags, and the parsed
/// flags. A missing file, or a flag where a file belongs (`watch
/// --once`), is one line and exit 2.
fn files_and_flags<'a>(
    cmd: &str,
    rest: &'a [String],
    n: usize,
    what: &str,
) -> (&'a [String], Args) {
    match rest.get(..n) {
        Some(files) if !files.iter().any(|f| f.starts_with("--")) => {
            (files, Args::parse(cmd, &rest[n..]))
        }
        _ => {
            eprintln!("{cmd} needs {what}");
            exit(2)
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "run" => cmd_run(&Args::parse(cmd, rest)),
        "scenario" => cmd_scenario(&Args::parse(cmd, rest)),
        "erlang" => cmd_erlang(&Args::parse(cmd, rest)),
        "trace" => cmd_trace(&Args::parse(cmd, rest)),
        "report" => {
            let (files, args) = files_and_flags(cmd, rest, 1, "a snapshot file");
            cmd_report(&files[0], &args)
        }
        "spans" => {
            let (files, args) = files_and_flags(cmd, rest, 1, "a span-set file");
            cmd_spans(&files[0], &args)
        }
        "watch" => {
            let (files, args) = files_and_flags(cmd, rest, 1, "a recording file");
            cmd_watch(&files[0], &args)
        }
        "diff" => {
            let (files, args) = files_and_flags(cmd, rest, 2, "two recording files");
            cmd_diff(&files[0], &files[1], &args)
        }
        _ => usage(),
    }
}
