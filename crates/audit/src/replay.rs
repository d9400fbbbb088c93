//! The verification pass: re-derive a decision from its record alone.
//!
//! Replay does two independent checks:
//!
//! 1. **Reproducibility.** The recorded inputs (catalog spec, workload
//!    SQL, graph snapshot, search settings) are fed back through the
//!    exact advisor pipeline the decision came from. The reproduced
//!    layout must match the recorded fraction matrix *bit for bit* —
//!    TS-GREEDY is deterministic at any thread count, so any divergence
//!    means the code changed behavior since the decision (or the record
//!    was corrupted; the graph digest distinguishes the two).
//! 2. **Accuracy.** The recorded layout is run through the
//!    `dblayout-disksim` event simulator and the cost model's prediction
//!    is compared against the simulated elapsed time. The relative error
//!    is the observatory's headline number: it quantifies how much the
//!    what-if loop's estimates can be trusted, record by record.
//!
//! [`ReplayConfig::predicted_scale`] is a fault-injection hook: scaling
//! the prediction by 10× must blow past any sane error threshold, which
//! is how the e2e suite proves the threshold check actually bites.

use dblayout_catalog::resolve_catalog;
use dblayout_core::advisor::{Advisor, AdvisorConfig};
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_core::tsgreedy::TsGreedyConfig;
use dblayout_disksim::{DiskSpec, Layout, SimConfig, Simulator};
use dblayout_relayout::{graph_bytes, recommend_budgeted, BudgetConfig};
use dblayout_sql::{parse_workload_file, Statement};
use serde_json::Value;

use crate::record::{DecisionKind, DecisionRecord};
use crate::{digest_hex, AuditError};

/// Replay knobs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Search threads for the re-run; `None` re-uses the recorded count.
    /// Byte-identity must hold for any value — that is the determinism
    /// contract being verified.
    pub threads: Option<usize>,
    /// Relative error (percent) at or below which the replay counts as
    /// within threshold. Default: infinity (report, never fail).
    pub error_threshold_pct: f64,
    /// Multiplier applied to the recomputed prediction before the error
    /// comparison. 1.0 in production; a test hook for proving the
    /// threshold catches a perturbed cost model.
    pub predicted_scale: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            threads: None,
            error_threshold_pct: f64::INFINITY,
            predicted_scale: 1.0,
        }
    }
}

/// What replay found.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The replayed decision id.
    pub id: u64,
    /// `recommend` / `recommend_budgeted`.
    pub kind: String,
    /// Whether the re-run reproduced the recorded fraction matrix
    /// bit-for-bit.
    pub layout_matches: bool,
    /// Fraction cells that differ (0 when `layout_matches`).
    pub mismatched_cells: usize,
    /// Whether the stored graph snapshot still hashes to the recorded
    /// graph digest (false ⇒ the record itself was corrupted).
    pub graph_digest_ok: bool,
    /// The prediction stored in the record (ms).
    pub recorded_cost_ms: f64,
    /// The prediction recomputed now, after `predicted_scale` (ms).
    pub predicted_cost_ms: f64,
    /// Simulated workload time of the recorded layout (ms).
    pub simulated_ms: f64,
    /// `100 · |predicted − simulated| / simulated`.
    pub relative_error_pct: f64,
    /// The threshold the report was judged against (percent).
    pub error_threshold_pct: f64,
    /// `relative_error_pct <= error_threshold_pct`.
    pub within_threshold: bool,
    /// Threads the re-run searched with.
    pub threads: usize,
}

impl ReplayReport {
    /// A replay passes when the layout reproduced exactly, the record
    /// was intact, and the error is within threshold.
    pub fn passed(&self) -> bool {
        self.layout_matches && self.graph_digest_ok && self.within_threshold
    }

    /// Ordered JSON rendering for artifacts and the `audit_get` op.
    pub fn to_json(&self) -> Value {
        Value::Map(vec![
            ("id".into(), Value::U64(self.id)),
            ("kind".into(), Value::Str(self.kind.clone())),
            ("layout_matches".into(), Value::Bool(self.layout_matches)),
            (
                "mismatched_cells".into(),
                Value::U64(self.mismatched_cells as u64),
            ),
            ("graph_digest_ok".into(), Value::Bool(self.graph_digest_ok)),
            ("recorded_cost_ms".into(), Value::F64(self.recorded_cost_ms)),
            (
                "predicted_cost_ms".into(),
                Value::F64(self.predicted_cost_ms),
            ),
            ("simulated_ms".into(), Value::F64(self.simulated_ms)),
            (
                "relative_error_pct".into(),
                Value::F64(self.relative_error_pct),
            ),
            (
                "error_threshold_pct".into(),
                Value::F64(self.error_threshold_pct),
            ),
            (
                "within_threshold".into(),
                Value::Bool(self.within_threshold),
            ),
            ("passed".into(), Value::Bool(self.passed())),
            ("threads".into(), Value::U64(self.threads as u64)),
        ])
    }
}

/// Replays `record` from nothing but its own contents and reports
/// reproduction fidelity plus predicted-vs-simulated error.
pub fn replay(record: &DecisionRecord, cfg: &ReplayConfig) -> Result<ReplayReport, AuditError> {
    if record.constraints_text.is_some() {
        return Err(AuditError::Replay(
            "record was advised under placement constraints; constrained replay is not \
             supported yet — re-run the original invocation with its constraints file"
                .into(),
        ));
    }

    // Rebuild every input from the record.
    let catalog = resolve_catalog(&record.catalog_spec)
        .map_err(|e| AuditError::Replay(format!("catalog spec `{}`: {e}", record.catalog_spec)))?;
    let disks: Vec<DiskSpec> = record
        .disks
        .iter()
        .map(|d| d.to_spec())
        .collect::<Result<_, _>>()?;
    let entries = parse_workload_file(&record.workload_sql)
        .map_err(|e| AuditError::Replay(format!("recorded workload failed to parse: {e}")))?;
    let statements: Vec<(Statement, f64)> = entries
        .into_iter()
        .map(|e| (e.statement, e.weight))
        .collect();
    let advisor = Advisor::new(&catalog, &disks);
    let plans = advisor
        .plan_workload(&statements)
        .map_err(|e| AuditError::Replay(format!("recorded workload failed to plan: {e}")))?;
    let subplans = decompose_workload(&plans);
    let graph = record.graph.to_graph()?;
    let graph_digest_ok = digest_hex(&graph_bytes(&graph)) == record.digests.graph;

    let threads = cfg.threads.unwrap_or(record.config.threads).max(1);
    let search = TsGreedyConfig {
        k: record.config.k,
        threads,
        ..TsGreedyConfig::default()
    };

    // Re-run the decision's own entry point.
    let replayed: Layout = match record.kind {
        DecisionKind::Recommend => {
            let acfg = AdvisorConfig {
                search,
                ..AdvisorConfig::default()
            };
            advisor
                .recommend_prepared(plans.clone(), graph.clone(), &subplans, &acfg)
                .map_err(|e| AuditError::Replay(format!("re-recommendation failed: {e}")))?
                .layout
        }
        DecisionKind::Budgeted => {
            let deployed = record.config.deployed.as_ref().ok_or_else(|| {
                AuditError::Replay("budgeted record lacks the deployed layout matrix".into())
            })?;
            let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
            let current = Layout::from_fractions(sizes.clone(), deployed.clone())
                .map_err(|e| AuditError::Replay(format!("recorded deployed layout: {e}")))?;
            let bcfg = BudgetConfig {
                budget_blocks: record.config.budget_blocks,
                min_improvement_pct: record.config.min_improvement_pct.unwrap_or(0.0),
                search,
            };
            recommend_budgeted(&sizes, &graph, &subplans, &disks, &current, &bcfg)
                .map_err(|e| AuditError::Replay(format!("re-recommendation failed: {e}")))?
                .layout
        }
    };

    // Bit-compare the reproduced layout against the record.
    let recorded = &record.outcome.fractions;
    let mut mismatched_cells = 0usize;
    let shape_ok = replayed.object_count() == recorded.len()
        && recorded
            .iter()
            .enumerate()
            .all(|(i, row)| row.len() == replayed.fractions_of(i).len());
    if shape_ok {
        for (i, row) in recorded.iter().enumerate() {
            for (a, b) in row.iter().zip(replayed.fractions_of(i)) {
                if a.to_bits() != b.to_bits() {
                    mismatched_cells += 1;
                }
            }
        }
    } else {
        mismatched_cells = recorded.iter().map(Vec::len).sum();
        mismatched_cells = mismatched_cells.max(1);
    }
    let layout_matches = shape_ok && mismatched_cells == 0;

    // Accuracy: predicted vs simulated on the *recorded* layout (the
    // advice that would actually have been deployed).
    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let recorded_layout = Layout::from_fractions(sizes, recorded.clone())
        .map_err(|e| AuditError::Replay(format!("recorded layout: {e}")))?;
    let predicted_cost_ms = cfg.predicted_scale
        * CostModel::default().workload_cost_subplans(&subplans, &recorded_layout, &disks);
    let mut sim = Simulator::new(&disks, &recorded_layout, SimConfig::default())
        .map_err(|e| AuditError::Replay(format!("recorded layout is not simulable: {e}")))?;
    let simulated_ms = sim.execute_workload(&plans).total_elapsed_ms;
    // dblayout::allow(R3, reason = "0/0 error case: both sides exactly zero means a perfectly reproduced empty cost, not a precision artifact")
    let prediction_is_empty = predicted_cost_ms == 0.0;
    let relative_error_pct = if simulated_ms > 0.0 {
        100.0 * (predicted_cost_ms - simulated_ms).abs() / simulated_ms
    } else if prediction_is_empty {
        0.0
    } else {
        f64::INFINITY
    };

    Ok(ReplayReport {
        id: record.id,
        kind: record.kind.as_str().to_string(),
        layout_matches,
        mismatched_cells,
        graph_digest_ok,
        recorded_cost_ms: record.outcome.predicted_cost_ms,
        predicted_cost_ms,
        simulated_ms,
        relative_error_pct,
        error_threshold_pct: cfg.error_threshold_pct,
        within_threshold: relative_error_pct <= cfg.error_threshold_pct,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record_budgeted, record_recommendation, RecordInputs};
    use dblayout_core::access_graph::build_access_graph;
    use dblayout_disksim::uniform_disks;

    const WORKLOAD: &str = "-- weight: 10\nSELECT COUNT(*) FROM lineitem, orders WHERE \
                            l_orderkey = o_orderkey;\n-- weight: 3\nSELECT COUNT(*) FROM \
                            partsupp, part WHERE ps_partkey = p_partkey;\nSELECT COUNT(*) \
                            FROM customer;";

    fn recommend_record() -> DecisionRecord {
        let catalog = dblayout_catalog::resolve_catalog("tpch:0.05").expect("catalog");
        let disks = uniform_disks(4, 400_000, 9.0, 20.0);
        let advisor = Advisor::new(&catalog, &disks);
        let cfg = AdvisorConfig {
            search: TsGreedyConfig {
                k: 6,
                threads: 1,
                ..TsGreedyConfig::default()
            },
            ..AdvisorConfig::default()
        };
        let rec = advisor.recommend_sql(WORKLOAD, &cfg).expect("recommend");
        record_recommendation(
            &RecordInputs {
                source: "test.replay",
                catalog_spec: "tpch:0.05",
                workload_sql: WORKLOAD,
                constraints_text: None,
                disks: &disks,
                k: 6,
                threads: 1,
                ts_unix_ms: None,
            },
            &rec,
            &[],
            &rec.work,
        )
    }

    #[test]
    fn replay_reproduces_a_recommend_decision_bit_identically() {
        let record = recommend_record();
        // Round-trip through JSONL first: replay must work from the
        // serialized form alone.
        let line = record.to_jsonl().expect("serialize");
        let record = DecisionRecord::from_jsonl(&line).expect("parse");
        let report = replay(&record, &ReplayConfig::default()).expect("replay");
        assert!(report.graph_digest_ok);
        assert!(
            report.layout_matches,
            "{} cells diverged",
            report.mismatched_cells
        );
        assert!(report.simulated_ms > 0.0);
        assert!(report.relative_error_pct.is_finite());
        assert!(report.passed());
    }

    #[test]
    fn replay_is_thread_count_invariant() {
        let record = recommend_record();
        for threads in [1, 4] {
            let report = replay(
                &record,
                &ReplayConfig {
                    threads: Some(threads),
                    ..ReplayConfig::default()
                },
            )
            .expect("replay");
            assert!(report.layout_matches, "diverged at {threads} threads");
            assert_eq!(report.threads, threads);
        }
    }

    #[test]
    fn perturbed_cost_model_is_caught_by_the_threshold() {
        let record = recommend_record();
        let honest = replay(
            &record,
            &ReplayConfig {
                error_threshold_pct: 50.0,
                ..ReplayConfig::default()
            },
        )
        .expect("replay");
        // A 10× perturbation must blow any threshold the honest model
        // meets.
        let perturbed = replay(
            &record,
            &ReplayConfig {
                error_threshold_pct: 50.0,
                predicted_scale: 10.0,
                ..ReplayConfig::default()
            },
        )
        .expect("replay");
        assert!(perturbed.relative_error_pct > honest.relative_error_pct);
        assert!(!perturbed.within_threshold);
        assert!(!perturbed.passed());
    }

    #[test]
    fn budgeted_records_replay_through_the_budgeted_path() {
        let catalog = dblayout_catalog::resolve_catalog("tpch:0.05").expect("catalog");
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
        let outcome = recommend_budgeted(&sizes, &graph, &subplans, &disks, &current, &bcfg)
            .expect("budgeted");
        let record = record_budgeted(
            &RecordInputs {
                source: "test.budgeted",
                catalog_spec: "tpch:0.05",
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
        let line = record.to_jsonl().expect("serialize");
        let record = DecisionRecord::from_jsonl(&line).expect("parse");
        assert_eq!(record.kind, DecisionKind::Budgeted);
        let report = replay(&record, &ReplayConfig::default()).expect("replay");
        assert!(
            report.layout_matches,
            "{} cells diverged",
            report.mismatched_cells
        );
        assert!(report.graph_digest_ok);
    }

    #[test]
    fn constrained_records_refuse_replay_with_a_clear_error() {
        let mut record = recommend_record();
        record.constraints_text = Some("separate lineitem orders".into());
        let err = replay(&record, &ReplayConfig::default()).expect_err("must refuse");
        assert!(format!("{err}").contains("constraints"), "{err}");
    }

    #[test]
    fn corrupted_graph_is_reported_via_digest_mismatch() {
        let mut record = recommend_record();
        // Flip a node weight: the decision replays against a different
        // graph, and the digest check attributes the divergence to record
        // corruption rather than code drift.
        if let Some(w) = record.graph.node_weights.first_mut() {
            *w += 1.0;
        }
        let report = replay(&record, &ReplayConfig::default()).expect("replay");
        assert!(!report.graph_digest_ok);
        assert!(!report.passed());
    }
}
