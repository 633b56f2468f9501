//! End-to-end check of the event-trace pipeline: run a trial with the
//! JSONL probe attached, parse the file with the sct-analysis reader, and
//! reconcile the event counts against the trial's own `SimOutcome` — the
//! trace and the summary are two views of one run and must agree exactly.

use sct_analysis::Trace;
use sct_workload::SystemSpec;
use semi_continuous_vod::core::config::SimConfig;
use semi_continuous_vod::core::simulation::Simulation;
use semi_continuous_vod::core::JsonlTraceProbe;

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
