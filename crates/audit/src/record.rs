//! The decision record: one recommendation, fully re-derivable.
//!
//! A [`DecisionRecord`] captures everything the advisor saw and chose —
//! inputs verbatim (catalog spec, workload SQL, disk specs, search
//! settings), content digests of each, the advised-time access-graph
//! snapshot, and the outcome (layout fractions, costs, per-statement and
//! per-disk predicted breakdown, counters, phase timings, strategy).
//! Serialization is one ordered JSON object per record, derived: keys in
//! field order, nested structs as objects, tuples as arrays. The vendored
//! `serde_json` prints `f64`s in shortest-round-trip form, so fraction
//! and weight bits survive a write/read cycle exactly — the property
//! [`crate::replay`]'s bit-identity check rests on.

use dblayout_core::advisor::Recommendation;
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_disksim::{Availability, DiskSpec, Layout};
use dblayout_obs::counters::CounterSnapshot;
use dblayout_obs::prof::PhaseRow;
use dblayout_obs::Collector;
use dblayout_partition::Graph;
use dblayout_planner::Subplan;
use dblayout_relayout::{graph_bytes, BudgetedOutcome};
use serde::{Content, DeError, Deserialize, Serialize};

use crate::{digest_hex, AuditError};

/// Which advisor entry point produced the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Unconstrained-from-scratch recommendation (`recommend`).
    Recommend,
    /// Movement-budgeted recommendation seeded from a deployed layout
    /// (`recommend_budgeted` / `migrate`).
    Budgeted,
}

impl DecisionKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Recommend => "recommend",
            DecisionKind::Budgeted => "recommend_budgeted",
        }
    }
}

/// A disk spec as recorded — value-complete, so replay needs no live
/// `--disks` argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskSpecRecord {
    /// Drive name.
    pub name: String,
    /// Capacity in blocks.
    pub capacity_blocks: u64,
    /// Average seek+rotate time (ms).
    pub avg_seek_ms: f64,
    /// Sequential read rate (MB/s).
    pub read_mb_s: f64,
    /// Sequential write rate (MB/s).
    pub write_mb_s: f64,
    /// Availability mode: `none`, `parity`, or `mirroring`.
    pub avail: String,
}

impl DiskSpecRecord {
    /// Captures a live spec.
    pub fn of(spec: &DiskSpec) -> Self {
        let avail = match spec.avail {
            Availability::None => "none",
            Availability::Parity => "parity",
            Availability::Mirroring => "mirroring",
        };
        Self {
            name: spec.name.clone(),
            capacity_blocks: spec.capacity_blocks,
            avg_seek_ms: spec.avg_seek_ms,
            read_mb_s: spec.read_mb_s,
            write_mb_s: spec.write_mb_s,
            avail: avail.to_string(),
        }
    }

    /// Rebuilds the live spec for replay.
    pub fn to_spec(&self) -> Result<DiskSpec, AuditError> {
        let avail = match self.avail.as_str() {
            "none" => Availability::None,
            "parity" => Availability::Parity,
            "mirroring" => Availability::Mirroring,
            other => {
                return Err(AuditError::Parse(format!(
                    "unknown availability mode `{other}`"
                )))
            }
        };
        Ok(DiskSpec::new(
            &self.name,
            self.capacity_blocks,
            self.avg_seek_ms,
            self.read_mb_s,
            self.write_mb_s,
        )
        .with_avail(avail))
    }
}

/// The search settings the decision ran under — enough to re-run the
/// exact same search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSettings {
    /// TS-GREEDY `k` (heaviest-edge groups in step 1).
    pub k: usize,
    /// Worker threads the search ran with (the search is byte-identical
    /// at any thread count; recorded for faithful re-execution anyway).
    pub threads: usize,
    /// Movement budget in blocks (budgeted decisions only).
    pub budget_blocks: Option<u64>,
    /// Requested improvement threshold in percent (budgeted only).
    pub min_improvement_pct: Option<f64>,
    /// The deployed layout's fraction matrix the budgeted search was
    /// seeded from (budgeted only), bit-exact.
    pub deployed: Option<Vec<Vec<f64>>>,
}

/// The advised-time access graph, value-complete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSnapshot {
    /// Node weights by object index (length = object count).
    pub node_weights: Vec<f64>,
    /// Co-access edges `(u, v, weight)` with `u < v`, sorted.
    pub edges: Vec<(usize, usize, f64)>,
}

impl GraphSnapshot {
    /// Captures a live graph.
    pub fn of(g: &Graph) -> Self {
        Self {
            node_weights: (0..g.len()).map(|u| g.node_weight(u)).collect(),
            edges: g.edges(),
        }
    }

    /// Rebuilds the live graph, bit-exact: node and edge weights are
    /// accumulated once onto zero, which preserves every bit.
    pub fn to_graph(&self) -> Result<Graph, AuditError> {
        let n = self.node_weights.len();
        let mut g = Graph::new(n);
        for (u, &w) in self.node_weights.iter().enumerate() {
            if !w.is_finite() {
                return Err(AuditError::Parse(format!("non-finite node weight at {u}")));
            }
            // dblayout::allow(R3, reason = "exact-zero sentinel: the snapshot stores only nonzero weights, so bit-exact zero means 'absent', never a computed near-zero")
            if w != 0.0 {
                g.add_node_weight(u, w);
            }
        }
        for &(u, v, w) in &self.edges {
            if u >= v || v >= n || !w.is_finite() {
                return Err(AuditError::Parse(format!("bad graph edge ({u}, {v}, {w})")));
            }
            g.add_edge(u, v, w);
        }
        Ok(g)
    }
}

/// Content digests of every replay-relevant input, plus the graph. A
/// digest mismatch between two records explains *why* their decisions
/// differ; a graph-digest mismatch at replay time means the record was
/// corrupted in storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Digests {
    /// FNV-1a of the catalog spec string.
    pub catalog: String,
    /// FNV-1a of the workload SQL text.
    pub workload: String,
    /// FNV-1a of the canonical disk-spec encoding.
    pub disks: String,
    /// FNV-1a of the canonical search-settings encoding.
    pub config: String,
    /// FNV-1a of the canonical graph bytes (`graph_bytes`).
    pub graph: String,
}

/// Predicted cost of one weighted statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatementCost {
    /// Statement weight `w_Q`.
    pub weight: f64,
    /// Unweighted predicted I/O response time (ms).
    pub cost_ms: f64,
}

/// Weighted predicted work landing on one disk across the workload.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DiskCost {
    /// Transfer milliseconds (weighted sum over statements).
    pub transfer_ms: f64,
    /// Seek milliseconds (weighted sum over statements).
    pub seek_ms: f64,
}

/// One phase-timer row as recorded (`dblayout-prof`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase name (`analyze`, `build-graph`, `search`, `cost`, ...).
    pub name: String,
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall-clock microseconds attributed.
    pub total_us: u64,
}

impl PhaseRecord {
    fn of(row: &PhaseRow) -> Self {
        Self {
            name: row.name.clone(),
            calls: row.calls,
            total_us: row.total_us,
        }
    }
}

/// What the advisor chose and what it predicted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionOutcome {
    /// Strategy attribution: `search`, `full_striping` (fallback won), or
    /// a budgeted strategy (`identity` / `seeded_search` /
    /// `ideal_fits_budget`).
    pub strategy: String,
    /// The chosen layout's full fraction matrix, bit-exact.
    pub fractions: Vec<Vec<f64>>,
    /// Predicted workload cost of the chosen layout (ms).
    pub predicted_cost_ms: f64,
    /// Predicted cost of the comparison baseline (full striping for
    /// `recommend`; the deployed layout for budgeted decisions).
    pub baseline_cost_ms: f64,
    /// Improvement over the baseline (percent).
    pub improvement_pct: f64,
    /// Greedy iterations adopted.
    pub iterations: u64,
    /// Cost-model invocations.
    pub cost_evaluations: u64,
    /// Per-statement predicted cost breakdown, workload order.
    pub per_statement: Vec<StatementCost>,
    /// Per-disk predicted transfer/seek breakdown, disk order.
    pub per_disk: Vec<DiskCost>,
    /// The decision's own phase timings.
    pub phases: Vec<PhaseRecord>,
    /// The decision's own deterministic work counts (name, count).
    pub counters: Vec<(String, u64)>,
}

/// One fully self-contained, replayable decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Monotone decision id, assigned by [`crate::DecisionLog::append`]
    /// (0 until appended).
    pub id: u64,
    /// Caller-supplied wall-clock milliseconds since the Unix epoch
    /// (`None` in deterministic contexts — this crate never reads a
    /// clock itself).
    pub ts_unix_ms: Option<u64>,
    /// Which advisor entry point ran.
    pub kind: DecisionKind,
    /// Where the decision came from (`cli.recommend`, `server.recommend`,
    /// ...).
    pub source: String,
    /// Git revision of the deciding build (`DBLAYOUT_GIT_REV`).
    pub git_rev: String,
    /// Crate version of the deciding build.
    pub version: String,
    /// The catalog spec string (`tpch:0.1`, `sales`, ...) — replay
    /// re-resolves it; resolution is deterministic.
    pub catalog_spec: String,
    /// The full workload SQL text, weights embedded as `-- weight:`
    /// comments.
    pub workload_sql: String,
    /// Raw constraints file text when the decision ran under placement
    /// constraints. Recorded for provenance; constrained records are not
    /// currently replayable (the constraint compiler lives above this
    /// crate) and [`crate::replay`] says so explicitly.
    pub constraints_text: Option<String>,
    /// Value-complete disk specs.
    pub disks: Vec<DiskSpecRecord>,
    /// Search settings.
    pub config: SearchSettings,
    /// Content digests of all of the above.
    pub digests: Digests,
    /// Advised-time access graph.
    pub graph: GraphSnapshot,
    /// The decision itself.
    pub outcome: DecisionOutcome,
}

/// Canonical byte encoding of the disk list for digesting.
fn disks_bytes(disks: &[DiskSpecRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for d in disks {
        out.extend_from_slice(d.name.as_bytes());
        out.push(0);
        out.extend_from_slice(&d.capacity_blocks.to_le_bytes());
        out.extend_from_slice(&d.avg_seek_ms.to_bits().to_le_bytes());
        out.extend_from_slice(&d.read_mb_s.to_bits().to_le_bytes());
        out.extend_from_slice(&d.write_mb_s.to_bits().to_le_bytes());
        out.extend_from_slice(d.avail.as_bytes());
        out.push(0);
    }
    out
}

/// Canonical byte encoding of the search settings for digesting.
fn config_bytes(cfg: &SearchSettings) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(cfg.k as u64).to_le_bytes());
    out.extend_from_slice(&(cfg.threads as u64).to_le_bytes());
    match cfg.budget_blocks {
        Some(b) => {
            out.push(1);
            out.extend_from_slice(&b.to_le_bytes());
        }
        None => out.push(0),
    }
    match cfg.min_improvement_pct {
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
    match &cfg.deployed {
        Some(rows) => {
            out.push(1);
            out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            for row in rows {
                out.extend_from_slice(&(row.len() as u64).to_le_bytes());
                for f in row {
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
            }
        }
        None => out.push(0),
    }
    out
}

/// Computes the digest block for a record's inputs and graph.
pub fn compute_digests(
    catalog_spec: &str,
    workload_sql: &str,
    disks: &[DiskSpecRecord],
    config: &SearchSettings,
    graph: &Graph,
) -> Digests {
    Digests {
        catalog: digest_hex(catalog_spec.as_bytes()),
        workload: digest_hex(workload_sql.as_bytes()),
        disks: digest_hex(&disks_bytes(disks)),
        config: digest_hex(&config_bytes(config)),
        graph: digest_hex(&graph_bytes(graph)),
    }
}

/// The shared inputs of both record builders.
#[derive(Debug, Clone, Copy)]
pub struct RecordInputs<'a> {
    /// Origin label (`cli.recommend`, `server.recommend_budgeted`, ...).
    pub source: &'a str,
    /// Catalog spec string as the caller resolved it.
    pub catalog_spec: &'a str,
    /// Full workload SQL text (with `-- weight:` directives).
    pub workload_sql: &'a str,
    /// Raw constraints text, when any.
    pub constraints_text: Option<&'a str>,
    /// Live disk specs.
    pub disks: &'a [DiskSpec],
    /// TS-GREEDY `k`.
    pub k: usize,
    /// Search threads.
    pub threads: usize,
    /// Caller-supplied timestamp (Unix ms); `None` keeps the record
    /// deterministic.
    pub ts_unix_ms: Option<u64>,
}

/// Bitwise fraction-matrix equality (the workspace's determinism
/// currency — `==` on floats would also be fine here, but bits say what
/// we mean).
fn layouts_bit_equal(a: &Layout, b: &Layout) -> bool {
    if a.object_count() != b.object_count() || a.disk_count() != b.disk_count() {
        return false;
    }
    (0..a.object_count()).all(|i| {
        a.fractions_of(i)
            .iter()
            .zip(b.fractions_of(i))
            .all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

fn fractions_of_layout(layout: &Layout) -> Vec<Vec<f64>> {
    (0..layout.object_count())
        .map(|i| layout.fractions_of(i).to_vec())
        .collect()
}

/// Per-statement and per-disk predicted cost breakdown of `layout` under
/// the default cost model, from one costing walk: each statement's cost,
/// and every drive term (of the drives holding an accessed object) folded
/// into weighted per-disk transfer/seek totals.
pub fn predicted_breakdown(
    workload: &[(Vec<Subplan>, f64)],
    layout: &Layout,
    disks: &[DiskSpec],
) -> (Vec<StatementCost>, Vec<DiskCost>) {
    let mut per_disk = vec![DiskCost::default(); disks.len()];
    let costs = CostModel::default().trace(workload, layout, disks, &Collector::disabled(), |t| {
        let weight = workload[t.statement].1;
        if let Some(slot) = per_disk.get_mut(t.disk) {
            slot.transfer_ms += weight * t.transfer_ms;
            slot.seek_ms += weight * t.seek_ms;
        }
    });
    let per_statement = workload
        .iter()
        .zip(costs)
        .map(|((_, weight), cost_ms)| StatementCost {
            weight: *weight,
            cost_ms,
        })
        .collect();
    (per_statement, per_disk)
}

fn counter_pairs(work: &CounterSnapshot) -> Vec<(String, u64)> {
    work.deterministic_pairs()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

/// Builds the record for an unconstrained `recommend` decision. The
/// decomposed workload and breakdowns are derived from the
/// recommendation's own plans, so the record is consistent with the
/// advice by construction. `phases` and `work` are the decision's own
/// phase rows and work tally (usually `rec.work`).
pub fn record_recommendation(
    inputs: &RecordInputs<'_>,
    rec: &Recommendation,
    phases: &[PhaseRow],
    work: &CounterSnapshot,
) -> DecisionRecord {
    let workload = decompose_workload(&rec.plans);
    let (per_statement, per_disk) = predicted_breakdown(&workload, &rec.layout, inputs.disks);
    let strategy = if layouts_bit_equal(&rec.layout, &rec.full_striping) {
        "full_striping"
    } else {
        "search"
    };
    let disks: Vec<DiskSpecRecord> = inputs.disks.iter().map(DiskSpecRecord::of).collect();
    let config = SearchSettings {
        k: inputs.k,
        threads: inputs.threads,
        budget_blocks: None,
        min_improvement_pct: None,
        deployed: None,
    };
    let digests = compute_digests(
        inputs.catalog_spec,
        inputs.workload_sql,
        &disks,
        &config,
        &rec.access_graph,
    );
    DecisionRecord {
        id: 0,
        ts_unix_ms: inputs.ts_unix_ms,
        kind: DecisionKind::Recommend,
        source: inputs.source.to_string(),
        git_rev: crate::git_rev(),
        version: crate::build_version().to_string(),
        catalog_spec: inputs.catalog_spec.to_string(),
        workload_sql: inputs.workload_sql.to_string(),
        constraints_text: inputs.constraints_text.map(str::to_string),
        disks,
        config,
        digests,
        graph: GraphSnapshot::of(&rec.access_graph),
        outcome: DecisionOutcome {
            strategy: strategy.to_string(),
            fractions: fractions_of_layout(&rec.layout),
            predicted_cost_ms: rec.recommended_cost_ms,
            baseline_cost_ms: rec.full_striping_cost_ms,
            improvement_pct: rec.estimated_improvement_pct,
            iterations: rec.search.iterations as u64,
            cost_evaluations: rec.search.cost_evaluations as u64,
            per_statement,
            per_disk,
            phases: phases.iter().map(PhaseRecord::of).collect(),
            counters: counter_pairs(work),
        },
    }
}

/// Builds the record for a budgeted (`migrate` / `recommend_budgeted`)
/// decision. `current` is the deployed layout the search was seeded from;
/// its fraction matrix is embedded bit-exact so replay can reconstruct
/// the identical seed. `phases` and `work` are the decision's own phase
/// rows and work tally (usually `outcome.work`).
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per recorded input of a budgeted decision"
)]
pub fn record_budgeted(
    inputs: &RecordInputs<'_>,
    outcome: &BudgetedOutcome,
    current: &Layout,
    graph: &Graph,
    workload: &[(Vec<Subplan>, f64)],
    min_improvement_pct: f64,
    phases: &[PhaseRow],
    work: &CounterSnapshot,
) -> DecisionRecord {
    let (per_statement, per_disk) = predicted_breakdown(workload, &outcome.layout, inputs.disks);
    let disks: Vec<DiskSpecRecord> = inputs.disks.iter().map(DiskSpecRecord::of).collect();
    let config = SearchSettings {
        k: inputs.k,
        threads: inputs.threads,
        budget_blocks: outcome.budget_blocks,
        min_improvement_pct: Some(min_improvement_pct),
        deployed: Some(fractions_of_layout(current)),
    };
    let digests = compute_digests(
        inputs.catalog_spec,
        inputs.workload_sql,
        &disks,
        &config,
        graph,
    );
    DecisionRecord {
        id: 0,
        ts_unix_ms: inputs.ts_unix_ms,
        kind: DecisionKind::Budgeted,
        source: inputs.source.to_string(),
        git_rev: crate::git_rev(),
        version: crate::build_version().to_string(),
        catalog_spec: inputs.catalog_spec.to_string(),
        workload_sql: inputs.workload_sql.to_string(),
        constraints_text: inputs.constraints_text.map(str::to_string),
        disks,
        config,
        digests,
        graph: GraphSnapshot::of(graph),
        outcome: DecisionOutcome {
            strategy: outcome.strategy.as_str().to_string(),
            fractions: fractions_of_layout(&outcome.layout),
            predicted_cost_ms: outcome.new_cost_ms,
            baseline_cost_ms: outcome.current_cost_ms,
            improvement_pct: outcome.improvement_pct,
            iterations: outcome.iterations as u64,
            cost_evaluations: outcome.cost_evaluations as u64,
            per_statement,
            per_disk,
            phases: phases.iter().map(PhaseRecord::of).collect(),
            counters: counter_pairs(work),
        },
    }
}

// ---- JSON ----

impl Serialize for DecisionKind {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for DecisionKind {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match String::from_content(content)?.as_str() {
            "recommend" => Ok(DecisionKind::Recommend),
            "recommend_budgeted" => Ok(DecisionKind::Budgeted),
            other => Err(DeError(format!("unknown decision kind `{other}`"))),
        }
    }
}

impl DecisionRecord {
    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> Result<String, AuditError> {
        serde_json::to_string(self).map_err(|e| AuditError::Parse(format!("serialize: {e}")))
    }

    /// Parses one JSONL line back into a record (exact inverse of
    /// [`DecisionRecord::to_jsonl`]). Every key must be present, integers
    /// must be JSON integers, and unknown keys are ignored.
    pub fn from_jsonl(line: &str) -> Result<Self, AuditError> {
        serde_json::from_str(line).map_err(|e| AuditError::Parse(format!("invalid record: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_core::advisor::{Advisor, AdvisorConfig};
    use dblayout_core::tsgreedy::TsGreedyConfig;
    use dblayout_disksim::uniform_disks;

    fn sample_record() -> DecisionRecord {
        let catalog = dblayout_catalog::resolve_catalog("tpch:0.01").expect("catalog");
        let disks = uniform_disks(4, 200_000, 9.0, 20.0);
        let workload_sql = "-- weight: 2.5\nSELECT COUNT(*) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey;\nSELECT COUNT(*) FROM customer;";
        let advisor = Advisor::new(&catalog, &disks);
        let cfg = AdvisorConfig {
            search: TsGreedyConfig {
                k: 6,
                threads: 1,
                ..TsGreedyConfig::default()
            },
            ..AdvisorConfig::default()
        };
        let rec = advisor
            .recommend_sql(workload_sql, &cfg)
            .expect("recommend");
        let inputs = RecordInputs {
            source: "test.recommend",
            catalog_spec: "tpch:0.01",
            workload_sql,
            constraints_text: None,
            disks: &disks,
            k: 6,
            threads: 1,
            ts_unix_ms: Some(1_700_000_000_000),
        };
        record_recommendation(&inputs, &rec, &[], &rec.work)
    }

    #[test]
    fn record_round_trips_bit_exactly_through_jsonl() {
        let record = sample_record();
        let line = record.to_jsonl().expect("serialize");
        let back = DecisionRecord::from_jsonl(&line).expect("parse");
        assert_eq!(back, record);
        // Specifically: every fraction bit survives.
        for (a, b) in record
            .outcome
            .fractions
            .iter()
            .flatten()
            .zip(back.outcome.fractions.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And serialization is deterministic.
        assert_eq!(line, back.to_jsonl().expect("serialize"));
    }

    #[test]
    fn graph_snapshot_round_trips_bit_exactly() {
        let record = sample_record();
        let g = record.graph.to_graph().expect("graph");
        let snap2 = GraphSnapshot::of(&g);
        assert_eq!(snap2, record.graph);
        // The canonical graph digest matches what was recorded.
        assert_eq!(crate::digest_hex(&graph_bytes(&g)), record.digests.graph);
    }

    #[test]
    fn digests_distinguish_different_inputs() {
        let record = sample_record();
        assert_eq!(record.digests.workload.len(), 16);
        let other = crate::digest_hex(b"SELECT 1;");
        assert_ne!(record.digests.workload, other);
    }

    #[test]
    fn record_carries_cost_breakdowns() {
        let record = sample_record();
        assert_eq!(record.outcome.per_statement.len(), 2);
        assert!((record.outcome.per_statement[0].weight - 2.5).abs() < 1e-12);
        assert!(record.outcome.per_statement.iter().all(|s| s.cost_ms > 0.0));
        assert_eq!(record.outcome.per_disk.len(), 4);
        let total_transfer: f64 = record.outcome.per_disk.iter().map(|d| d.transfer_ms).sum();
        assert!(total_transfer > 0.0, "per-disk breakdown is empty");
        assert_eq!(record.kind, DecisionKind::Recommend);
        assert_eq!(record.outcome.strategy, "search");
    }

    #[test]
    fn malformed_records_fail_closed() {
        assert!(DecisionRecord::from_jsonl("{not json").is_err());
        assert!(DecisionRecord::from_jsonl("{}").is_err());
        let record = sample_record();
        let line = record.to_jsonl().expect("serialize");
        // Corrupt the kind.
        let bad = line.replace("\"recommend\"", "\"warp\"");
        assert!(DecisionRecord::from_jsonl(&bad).is_err());
    }

    #[test]
    fn disk_spec_round_trips_including_availability() {
        let spec = DiskSpec::new("d0", 98_304, 9.0, 20.0, 18.0).with_avail(Availability::Parity);
        let rec = DiskSpecRecord::of(&spec);
        assert_eq!(rec.avail, "parity");
        let back = rec.to_spec().expect("spec");
        assert_eq!(back.name, "d0");
        assert_eq!(back.avail, Availability::Parity);
        let mut bad = rec.clone();
        bad.avail = "raid60".into();
        assert!(bad.to_spec().is_err());
    }
}
