//! End-to-end audit pipeline: record a real recommendation into an
//! on-disk decision log, reopen the log cold (as a separate CLI
//! invocation or a restarted server would), and verify the record
//! re-derives the decision bit-identically at any thread count — then
//! prove the accuracy gate is live by injecting a cost-model fault and
//! watching the threshold catch it.

use std::path::PathBuf;

use dblayout_audit::{
    record_budgeted, record_recommendation, replay, DecisionKind, DecisionLog, DecisionRecord,
    RecordInputs, ReplayConfig,
};
use dblayout_catalog::resolve_catalog;
use dblayout_core::access_graph::build_access_graph;
use dblayout_core::advisor::{Advisor, AdvisorConfig};
use dblayout_core::costmodel::decompose_workload;
use dblayout_core::tsgreedy::TsGreedyConfig;
use dblayout_disksim::{uniform_disks, Layout};
use dblayout_relayout::{recommend_budgeted, BudgetConfig};
use dblayout_sql::{parse_workload_file, Statement};

const CATALOG_SPEC: &str = "tpch:0.05";
const WORKLOAD: &str = "-- weight: 10\n\
     SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;\n\
     -- weight: 3\n\
     SELECT COUNT(*) FROM partsupp, part WHERE ps_partkey = p_partkey;\n\
     SELECT COUNT(*) FROM customer;";

/// A per-test scratch directory that is removed on drop even when the
/// test body panics.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dblayout_audit_e2e_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a real advisor recommendation and captures it as a decision
/// record, exactly as `dblayout recommend --audit-dir` does.
fn make_recommend_record(threads: usize) -> DecisionRecord {
    let catalog = resolve_catalog(CATALOG_SPEC).expect("catalog");
    let disks = uniform_disks(4, 400_000, 9.0, 20.0);
    let advisor = Advisor::new(&catalog, &disks);
    let cfg = AdvisorConfig {
        search: TsGreedyConfig {
            k: 6,
            threads,
            ..TsGreedyConfig::default()
        },
        ..AdvisorConfig::default()
    };
    let rec = advisor.recommend_sql(WORKLOAD, &cfg).expect("recommend");
    record_recommendation(
        &RecordInputs {
            source: "e2e.recommend",
            catalog_spec: CATALOG_SPEC,
            workload_sql: WORKLOAD,
            constraints_text: None,
            disks: &disks,
            k: 6,
            threads,
            ts_unix_ms: None,
        },
        &rec,
        &[],
        &rec.work,
    )
}

#[test]
fn recorded_decision_survives_the_log_and_replays_at_any_thread_count() {
    let scratch = ScratchDir::new("log_roundtrip");

    // Record the decision and persist it, then drop the log handle: the
    // replay below must work from the on-disk bytes alone, the way a
    // later `dblayout audit replay` invocation (a fresh process) does.
    let mut record = make_recommend_record(1);
    let id = {
        let mut log = DecisionLog::open(&scratch.0).expect("open log");
        log.append(&mut record).expect("append")
    };
    assert!(id >= 1, "append must assign a positive id");

    let log = DecisionLog::open(&scratch.0).expect("reopen log");
    let loaded = log.get(id).expect("load record");
    assert_eq!(
        loaded, record,
        "the log must round-trip the record bit-exactly"
    );
    assert_eq!(
        log.next_id(),
        id + 1,
        "ids must stay monotone across a reopen"
    );

    // The determinism contract: the recorded decision re-derives
    // bit-identically no matter how many worker threads the replaying
    // host happens to use — including thread counts the original
    // decision never ran with.
    for threads in [1, 2, 4] {
        let report = replay(
            &loaded,
            &ReplayConfig {
                threads: Some(threads),
                ..ReplayConfig::default()
            },
        )
        .expect("replay");
        assert!(report.graph_digest_ok, "record corrupted in storage");
        assert!(
            report.layout_matches,
            "{} fraction cells diverged at {threads} threads",
            report.mismatched_cells
        );
        assert_eq!(report.threads, threads);
        assert!(report.simulated_ms > 0.0, "simulator produced no work");
        assert!(report.relative_error_pct.is_finite());
        assert!(report.passed());
    }
}

#[test]
fn injected_perturbation_is_caught_by_the_error_threshold() {
    let scratch = ScratchDir::new("perturb");
    let mut record = make_recommend_record(1);
    let id = DecisionLog::open(&scratch.0)
        .expect("open log")
        .append(&mut record)
        .expect("append");
    let loaded = DecisionLog::open(&scratch.0)
        .expect("reopen")
        .get(id)
        .expect("load");

    // Pick a threshold the honest replay clears with room to spare, so
    // the perturbed failure below is attributable to the fault and not
    // to a threshold that was already borderline.
    let honest = replay(&loaded, &ReplayConfig::default()).expect("honest replay");
    assert!(honest.layout_matches && honest.graph_digest_ok);
    let threshold_pct = honest.relative_error_pct * 2.0 + 10.0;
    let gated = replay(
        &loaded,
        &ReplayConfig {
            error_threshold_pct: threshold_pct,
            ..ReplayConfig::default()
        },
    )
    .expect("gated replay");
    assert!(gated.within_threshold && gated.passed());

    // A 10x cost-model fault must blow that same threshold: the layout
    // still reproduces (the search is untouched), but the accuracy gate
    // fails — exactly the failure CI's perturbation step asserts on.
    let perturbed = replay(
        &loaded,
        &ReplayConfig {
            error_threshold_pct: threshold_pct,
            predicted_scale: 10.0,
            ..ReplayConfig::default()
        },
    )
    .expect("perturbed replay");
    assert!(
        perturbed.layout_matches,
        "perturbation must not touch the search"
    );
    assert!(
        perturbed.relative_error_pct > threshold_pct,
        "10x fault produced only {:.2}% error against a {:.2}% threshold",
        perturbed.relative_error_pct,
        threshold_pct
    );
    assert!(!perturbed.within_threshold);
    assert!(
        !perturbed.passed(),
        "a dead gate would deploy a cost model that is 10x wrong"
    );
}

#[test]
fn budgeted_decisions_record_and_replay_through_the_same_log() {
    let scratch = ScratchDir::new("budgeted");
    let catalog = resolve_catalog(CATALOG_SPEC).expect("catalog");
    let disks = uniform_disks(4, 400_000, 9.0, 20.0);
    let advisor = Advisor::new(&catalog, &disks);
    let entries = parse_workload_file(WORKLOAD).expect("workload");
    let statements: Vec<(Statement, f64)> = entries
        .into_iter()
        .map(|e| (e.statement, e.weight))
        .collect();
    let plans = advisor.plan_workload(&statements).expect("plan");
    let subplans = decompose_workload(&plans);
    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let graph = build_access_graph(sizes.len(), &plans);
    let current = Layout::full_striping(sizes.clone(), &disks);
    let bcfg = BudgetConfig {
        budget_blocks: None,
        min_improvement_pct: 0.0,
        search: TsGreedyConfig {
            k: 6,
            threads: 1,
            ..TsGreedyConfig::default()
        },
    };
    let outcome =
        recommend_budgeted(&sizes, &graph, &subplans, &disks, &current, &bcfg).expect("budgeted");
    let mut record = record_budgeted(
        &RecordInputs {
            source: "e2e.migrate",
            catalog_spec: CATALOG_SPEC,
            workload_sql: WORKLOAD,
            constraints_text: None,
            disks: &disks,
            k: 6,
            threads: 1,
            ts_unix_ms: None,
        },
        &outcome,
        &current,
        &graph,
        &subplans,
        0.0,
        &[],
        &outcome.work,
    );

    // Interleave with a recommend record to prove the log keeps kinds
    // apart and ids strictly ordered.
    let mut first = make_recommend_record(1);
    let mut log = DecisionLog::open(&scratch.0).expect("open log");
    let first_id = log.append(&mut first).expect("append recommend");
    let budgeted_id = log.append(&mut record).expect("append budgeted");
    assert!(budgeted_id > first_id);

    let log = DecisionLog::open(&scratch.0).expect("reopen");
    let summaries = log.list().expect("list");
    assert_eq!(summaries.len(), 2);

    let loaded = log.get(budgeted_id).expect("load budgeted");
    assert_eq!(loaded.kind, DecisionKind::Budgeted);
    assert_eq!(
        loaded.config.deployed.as_ref().map(Vec::len),
        Some(sizes.len()),
        "budgeted record must embed the full deployed matrix"
    );
    for threads in [1, 4] {
        let report = replay(
            &loaded,
            &ReplayConfig {
                threads: Some(threads),
                ..ReplayConfig::default()
            },
        )
        .expect("replay budgeted");
        assert!(report.graph_digest_ok);
        assert!(
            report.layout_matches,
            "budgeted replay diverged at {threads} threads ({} cells)",
            report.mismatched_cells
        );
    }
}
