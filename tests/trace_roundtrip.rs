//! End-to-end check of the event-trace pipeline: run a trial with the
//! JSONL probe attached, parse the file with the sct-analysis reader, and
//! reconcile the event counts against the trial's own `SimOutcome` — the
//! trace and the summary are two views of one run and must agree exactly.
//! The records also name their causes, so the last test links every
//! effect to its cause from the file alone.

use sct_analysis::spans::EdgeEnd;
use sct_analysis::Trace;
use sct_workload::SystemSpec;
use semi_continuous_vod::core::config::SimConfig;
use semi_continuous_vod::core::simulation::Simulation;
use semi_continuous_vod::core::{AdmitPath, JsonlTraceProbe, SimEvent};

fn traced_run(cfg: &SimConfig, name: &str) -> (semi_continuous_vod::core::SimOutcome, Trace) {
    let dir = std::env::temp_dir().join("sct-trace-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut probe = JsonlTraceProbe::create(&path).unwrap();
    let outcome = Simulation::run_with_probes(cfg, &mut [&mut probe]);
    let lines = probe.finish().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let trace = Trace::parse(&text).unwrap();
    assert_eq!(trace.len() as u64, lines, "probe line count disagrees");
    (outcome, trace)
}

#[test]
fn trace_reconciles_with_outcome_on_a_plain_run() {
    let cfg = SimConfig::builder(SystemSpec::tiny_test())
        .duration_hours(2.0)
        .warmup_hours(0.25)
        .seed(11)
        .build();
    let (out, trace) = traced_run(&cfg, "plain.jsonl");
    assert_eq!(
        out.stats.arrivals,
        trace.count("Admitted") + trace.count("Rejected"),
        "every arrival is admitted or rejected: {:?}",
        trace.counts_by_kind()
    );
    assert_eq!(out.stats.rejected, trace.count("Rejected"));
    assert_eq!(out.completions, trace.count("Completed"));
    assert_eq!(out.server_failures, trace.count("ServerDown"));
    assert_eq!(out.pauses_applied, trace.count("Paused"));
    // The outcome the probe observed is the outcome a plain run computes.
    assert_eq!(out, Simulation::run(&cfg));
}

#[test]
fn trace_reconciles_waitlist_migration_and_interactivity() {
    let cfg = SimConfig::builder(SystemSpec::tiny_test())
        .duration_hours(4.0)
        .warmup_hours(0.25)
        .theta(0.0)
        .policy(semi_continuous_vod::core::policies::Policy::P4)
        .interactivity(0.5, 30.0, 300.0)
        .waitlist(300.0, 100)
        .seed(13)
        .build();
    let (out, trace) = traced_run(&cfg, "busy.jsonl");
    assert_eq!(
        out.stats.arrivals,
        trace.count("Admitted") + trace.count("Rejected")
    );
    // Waitlist reconciliation: a served waiter was first recorded as a
    // rejection, then recovered — the outcome's final rejection count is
    // the raw rejections minus the recoveries.
    assert!(out.waitlist.served > 0, "waitlist must fire in this config");
    assert_eq!(out.waitlist.enqueued, trace.count("WaitlistQueued"));
    assert_eq!(out.waitlist.served, trace.count("WaitlistServed"));
    assert_eq!(
        out.stats.rejected,
        trace.count("Rejected") - trace.count("WaitlistServed")
    );
    let expired: u64 = trace
        .of_kind("WaitlistExpired")
        .map(|e| e.num_field("count").unwrap() as u64)
        .sum();
    assert_eq!(out.waitlist.expired, expired);
    // Migration admissions narrate one Migrated record per hop.
    assert!(out.stats.accepted_via_migration > 0, "migration must fire");
    let migrated_path = trace
        .of_kind("Admitted")
        .filter(|e| {
            e.payload
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "path"))
                .map(|(_, v)| *v != serde::Value::Str("Direct".into()))
                .unwrap_or(false)
        })
        .count() as u64;
    assert_eq!(out.stats.accepted_via_migration, migrated_path);
    assert!(
        trace.count("Migrated") >= migrated_path,
        "each non-direct admission migrates at least one victim"
    );
    assert_eq!(out.pauses_applied, trace.count("Paused"));
    assert!(
        trace.count("Resumed") <= trace.count("Paused"),
        "a resume only lands on a stream that actually paused"
    );
    assert_eq!(out.completions, trace.count("Completed"));
}

#[test]
fn trace_reconciles_failures_and_replication() {
    use semi_continuous_vod::prelude::{MigrationPolicy, ReplicationSpec};
    let cfg = SimConfig::builder(SystemSpec::tiny_test())
        .duration_hours(6.0)
        .warmup_hours(0.5)
        .theta(-0.5)
        .migration(MigrationPolicy::single_hop())
        .replication(ReplicationSpec::default_paper_scale())
        .failures(2.0, 0.5)
        .seed(17)
        .build();
    let (out, trace) = traced_run(&cfg, "faulty.jsonl");
    assert!(out.server_failures > 0, "failures must fire in this config");
    assert_eq!(out.server_failures, trace.count("ServerDown"));
    assert!(trace.count("ServerUp") <= trace.count("ServerDown"));
    let relocated: u64 = trace
        .of_kind("ServerDown")
        .map(|e| e.num_field("relocated").unwrap() as u64)
        .sum();
    let dropped: u64 = trace
        .of_kind("ServerDown")
        .map(|e| e.num_field("dropped").unwrap() as u64)
        .sum();
    assert_eq!(out.stats.relocated_on_failure, relocated);
    assert_eq!(out.stats.dropped_on_failure, dropped);
    // Every emergency relocation is narrated individually too.
    let emergency = trace
        .of_kind("Migrated")
        .filter(|e| {
            e.payload
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "emergency"))
                .map(|(_, v)| *v == serde::Value::Bool(true))
                .unwrap_or(false)
        })
        .count() as u64;
    assert_eq!(emergency, relocated);
    assert_eq!(out.replication.copies_started, trace.count("CopyStarted"));
    assert!(
        trace.count("CopyDone") <= trace.count("CopyStarted"),
        "copies finish at most once"
    );
}

/// One trace line, read back as the typed record it was written from.
#[derive(serde::Deserialize)]
struct Line {
    t: f64,
    event: SimEvent,
}

#[test]
fn trace_records_name_their_causes() {
    use semi_continuous_vod::prelude::MigrationPolicy;
    let cfg = SimConfig::builder(SystemSpec::small_paper())
        .theta(0.0)
        .migration(MigrationPolicy::chain2())
        .failures(6.0, 0.4)
        .waitlist(180.0, 50)
        .duration_hours(6.0)
        .warmup_hours(0.5)
        .seed(99)
        .build();
    let dir = std::env::temp_dir().join("sct-trace-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("causes.jsonl");
    let mut probe = JsonlTraceProbe::create(&path).unwrap();
    let out = Simulation::run_with_probes(&cfg, &mut [&mut probe]);
    probe.finish().unwrap();
    let lines: Vec<Line> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("a trace line parses as a SimEvent"))
        .collect();
    // The run exercises every named cause.
    assert!(out.stats.chain2_migrations > 0, "no chain-2 admissions");
    assert!(out.stats.relocated_on_failure > 0, "no evacuations");
    assert!(out.waitlist.served > 0, "no waitlist service");

    let (mut victims, mut evacuations, mut served, mut after_repair) = (0, 0, 0, 0);
    for (i, line) in lines.iter().enumerate() {
        // The records of this instant just before and just after it.
        let before = || lines[..i].iter().rev().take_while(|l| l.t == line.t);
        let after = || lines[i + 1..].iter().take_while(|l| l.t == line.t);
        match line.event {
            SimEvent::Admitted { path, .. } => {
                let named = match path {
                    AdmitPath::Direct => vec![],
                    AdmitPath::Migrated { victim } => vec![victim],
                    AdmitPath::Chained { outer, inner } => vec![outer, inner],
                };
                for victim in named {
                    victims += 1;
                    assert!(
                        after().any(|l| matches!(
                            l.event,
                            SimEvent::Migrated { stream, emergency: false, .. } if stream == victim
                        )),
                        "victim {victim} of {:?} at t={} never migrated",
                        line.event,
                        line.t
                    );
                }
            }
            SimEvent::ServerDown {
                server, relocated, ..
            } => {
                let evacuated = before()
                    .take_while(|l| {
                        matches!(
                            l.event,
                            SimEvent::Migrated { from, emergency: true, .. } if from == server
                        )
                    })
                    .count();
                assert_eq!(
                    evacuated, relocated as usize,
                    "ServerDown of {server} at t={} follows {evacuated} evacuations",
                    line.t
                );
                evacuations += evacuated;
            }
            SimEvent::WaitlistServed { cause, .. } => {
                served += 1;
                after_repair += u64::from(matches!(cause, EdgeEnd::Server { .. }));
                let freed = |l: &Line| match (cause, &l.event) {
                    (EdgeEnd::Stream { stream }, SimEvent::Completed { stream: s, .. }) => {
                        *s == stream
                    }
                    (EdgeEnd::Stream { stream }, SimEvent::CopyDone { copy, .. }) => {
                        *copy == stream
                    }
                    (EdgeEnd::Server { server }, SimEvent::ServerUp { server: s }) => *s == server,
                    _ => false,
                };
                assert!(
                    before().any(freed),
                    "{cause:?} served a waiter at t={} but freed nothing then",
                    line.t
                );
            }
            _ => {}
        }
    }
    assert_eq!(
        victims,
        out.stats.accepted_via_migration + out.stats.chain2_migrations
    );
    assert_eq!(
        evacuations as u64,
        out.stats.relocated_on_failure + out.stats.restarted_on_failure
    );
    assert_eq!(served, out.waitlist.served);
    assert!(after_repair > 0, "no waiter was served by a repair");
}
