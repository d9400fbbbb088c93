//! Concurrency-aware workload analysis — the paper's stated future work.
//!
//! §2.2: "Since we model the workload as a *set* of statements, we do not
//! take into account the impact on database layout by statements that
//! execute concurrently with one another. In particular, this has the
//! effect of underestimating the amount of co-access between objects."
//! §9 names "extending the cost model to capture effect of concurrent
//! execution" as the important open problem.
//!
//! This module implements the workload-model half: given *overlap
//! information* — groups of statements known to execute concurrently (from
//! profiler timestamps or a declared multiprogramming mix) — it augments
//! the Figure-6 access graph with **cross-statement co-access edges**:
//! objects read by two concurrently-running pipelines contend on any disk
//! they share exactly like objects co-accessed within one pipeline, scaled
//! by an overlap factor (1.0 = the statements fully overlap in time).
//!
//! The augmented graph drives TS-GREEDY's step-1 separation; the validation
//! side lives in `dblayout_disksim::Simulator::execute_concurrent`, which
//! interleaves the statements' block streams for real.

use dblayout_partition::Graph;
use dblayout_planner::PhysicalPlan;

use crate::access_graph::build_access_graph;

/// A workload annotated with concurrency groups.
#[derive(Debug, Clone)]
pub struct ConcurrentWorkload {
    /// The statements with weights, as usual.
    pub statements: Vec<(PhysicalPlan, f64)>,
    /// Indices of statements that overlap in time. A statement may appear
    /// in several groups; singleton groups add nothing.
    pub groups: Vec<Vec<usize>>,
    /// Fraction of each statement's execution assumed to overlap with its
    /// group peers (`0.0..=1.0`).
    pub overlap_factor: f64,
}

impl ConcurrentWorkload {
    /// A workload where every statement runs alone (degenerates to the
    /// paper's set model).
    pub fn sequential(statements: Vec<(PhysicalPlan, f64)>) -> Self {
        Self {
            statements,
            groups: Vec::new(),
            overlap_factor: 0.0,
        }
    }

    /// A workload where all statements run concurrently (a steady-state
    /// multiprogramming mix).
    pub fn fully_concurrent(statements: Vec<(PhysicalPlan, f64)>, overlap_factor: f64) -> Self {
        let group: Vec<usize> = (0..statements.len()).collect();
        Self {
            statements,
            groups: vec![group],
            overlap_factor,
        }
    }
}

/// Builds the concurrency-augmented access graph over `n_objects`: the
/// plain Figure-6 graph plus, for every pair of distinct statements in a
/// group, edges between each object of one statement's sub-plans and each
/// object of the other's, weighted by the co-accessed blocks scaled by the
/// overlap factor and both statements' weights (geometric mean).
pub fn build_concurrent_access_graph(n_objects: usize, workload: &ConcurrentWorkload) -> Graph {
    let mut g = build_access_graph(n_objects, &workload.statements);
    if workload.overlap_factor <= 0.0 {
        return g;
    }
    for group in &workload.groups {
        for (pos, &s) in group.iter().enumerate() {
            for &t in &group[pos + 1..] {
                if s == t {
                    continue;
                }
                let (ps, ws) = &workload.statements[s];
                let (pt, wt) = &workload.statements[t];
                let w = workload.overlap_factor * (ws * wt).sqrt();
                for sub_s in ps.subplans() {
                    for sub_t in pt.subplans() {
                        for &u in &sub_s.objects() {
                            for &v in &sub_t.objects() {
                                if u == v {
                                    continue;
                                }
                                let bu = sub_s.blocks_of(u);
                                let bv = sub_t.blocks_of(v);
                                g.add_edge(u.index(), v.index(), w * (bu + bv) as f64);
                            }
                        }
                    }
                }
            }
        }
    }
    g
}

/// Compiles a concurrent workload into the cost-model form the search
/// consumes — the §9 "extend the cost model" half of the extension.
///
/// Each concurrency group becomes **one synthetic statement** whose single
/// sub-plan merges every member statement's accesses: objects read by
/// overlapping pipelines contend like intra-statement co-access, so the
/// Figure-7 seek term applies across statements. Blocks contributed by a
/// group member are scaled by its weight and by the overlap factor (the
/// non-overlapping remainder is charged as the member's ordinary
/// sequential cost). Ungrouped statements pass through unchanged.
pub fn concurrent_cost_workload(
    workload: &ConcurrentWorkload,
) -> Vec<(Vec<dblayout_planner::Subplan>, f64)> {
    use dblayout_planner::{ObjectAccess, Subplan};
    let overlap = workload.overlap_factor.clamp(0.0, 1.0);
    let mut grouped = vec![false; workload.statements.len()];
    let mut out: Vec<(Vec<Subplan>, f64)> = Vec::new();

    for group in &workload.groups {
        // dblayout::allow(R3, reason = "overlap is clamped to [0, 1] above; 0.0 is the exact sentinel for no-overlap, not a computed value")
        if group.len() < 2 || overlap == 0.0 {
            continue;
        }
        let mut merged = Subplan::default();
        for &s in group {
            grouped[s] = true;
            let (plan, w) = &workload.statements[s];
            for sub in plan.subplans() {
                merged.temp_write_blocks += sub.temp_write_blocks;
                merged.temp_read_blocks += sub.temp_read_blocks;
                for a in &sub.accesses {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "blocks·w·overlap is a non-negative block count (w ≥ 0, overlap in [0, 1]); rounding is the merge, and `as` saturates"
                    )]
                    let blocks = ((a.blocks as f64) * w * overlap).round() as u64;
                    merged.add(ObjectAccess {
                        object: a.object,
                        blocks,
                        rows: a.rows,
                        kind: a.kind,
                    });
                }
            }
        }
        out.push((vec![merged], 1.0));
        // The non-overlapping remainder of each member runs sequentially.
        if overlap < 1.0 {
            for &s in group {
                let (plan, w) = &workload.statements[s];
                out.push((plan.subplans(), w * (1.0 - overlap)));
            }
        }
    }
    for (s, (plan, w)) in workload.statements.iter().enumerate() {
        if !grouped[s] {
            out.push((plan.subplans(), *w));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::ObjectId;
    use dblayout_planner::PlanNode;

    fn scan(obj: u32, blocks: u64) -> PhysicalPlan {
        PhysicalPlan::new(PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64,
        })
    }

    #[test]
    fn sequential_matches_plain_graph() {
        let stmts = vec![(scan(0, 100), 1.0), (scan(1, 200), 1.0)];
        let w = ConcurrentWorkload::sequential(stmts.clone());
        let g = build_concurrent_access_graph(2, &w);
        let plain = build_access_graph(2, &stmts);
        assert_eq!(g.edge_weight(0, 1), plain.edge_weight(0, 1));
        assert_eq!(g.edge_weight(0, 1), 0.0);
    }

    #[test]
    fn concurrent_scans_gain_cross_edges() {
        let stmts = vec![(scan(0, 100), 1.0), (scan(1, 200), 1.0)];
        let w = ConcurrentWorkload::fully_concurrent(stmts, 1.0);
        let g = build_concurrent_access_graph(2, &w);
        assert_eq!(g.edge_weight(0, 1), 300.0);
    }

    #[test]
    fn overlap_factor_scales_cross_edges() {
        let stmts = vec![(scan(0, 100), 1.0), (scan(1, 200), 1.0)];
        let half = ConcurrentWorkload::fully_concurrent(stmts, 0.5);
        let g = build_concurrent_access_graph(2, &half);
        assert_eq!(g.edge_weight(0, 1), 150.0);
    }

    #[test]
    fn weights_combine_geometrically() {
        let stmts = vec![(scan(0, 100), 4.0), (scan(1, 200), 1.0)];
        let w = ConcurrentWorkload::fully_concurrent(stmts, 1.0);
        let g = build_concurrent_access_graph(2, &w);
        // sqrt(4*1) = 2 → 2 × 300.
        assert_eq!(g.edge_weight(0, 1), 600.0);
        // Node weights still use plain statement weights.
        assert_eq!(g.node_weight(0), 400.0);
    }

    #[test]
    fn groups_restrict_cross_edges() {
        let stmts = vec![
            (scan(0, 100), 1.0),
            (scan(1, 100), 1.0),
            (scan(2, 100), 1.0),
        ];
        let w = ConcurrentWorkload {
            statements: stmts,
            groups: vec![vec![0, 1]],
            overlap_factor: 1.0,
        };
        let g = build_concurrent_access_graph(3, &w);
        assert!(g.edge_weight(0, 1) > 0.0);
        assert_eq!(g.edge_weight(0, 2), 0.0);
        assert_eq!(g.edge_weight(1, 2), 0.0);
    }

    #[test]
    fn within_statement_edges_still_present() {
        let join = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "k".into(),
            rows: 1.0,
            left: Box::new(PlanNode::TableScan {
                object: ObjectId(0),
                name: "a".into(),
                blocks: 50,
                rows: 50.0,
            }),
            right: Box::new(PlanNode::TableScan {
                object: ObjectId(1),
                name: "b".into(),
                blocks: 70,
                rows: 70.0,
            }),
        });
        let stmts = vec![(join, 1.0), (scan(2, 30), 1.0)];
        let w = ConcurrentWorkload::fully_concurrent(stmts, 1.0);
        let g = build_concurrent_access_graph(3, &w);
        assert_eq!(g.edge_weight(0, 1), 120.0); // within-statement
        assert_eq!(g.edge_weight(0, 2), 80.0); // cross-statement 50+30
        assert_eq!(g.edge_weight(1, 2), 100.0); // cross-statement 70+30
    }

    #[test]
    fn cost_workload_merges_groups_into_one_subplan() {
        let stmts = vec![(scan(0, 100), 1.0), (scan(1, 200), 1.0)];
        let w = ConcurrentWorkload::fully_concurrent(stmts, 1.0);
        let cw = concurrent_cost_workload(&w);
        assert_eq!(cw.len(), 1);
        let (subs, weight) = &cw[0];
        assert_eq!(*weight, 1.0);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].objects().len(), 2);
        assert_eq!(subs[0].blocks_of(ObjectId(0)), 100);
        assert_eq!(subs[0].blocks_of(ObjectId(1)), 200);
    }

    #[test]
    fn cost_workload_partial_overlap_splits_sequential_remainder() {
        let stmts = vec![(scan(0, 100), 1.0), (scan(1, 200), 1.0)];
        let w = ConcurrentWorkload::fully_concurrent(stmts, 0.25);
        let cw = concurrent_cost_workload(&w);
        // merged group + two sequential remainders at weight 0.75.
        assert_eq!(cw.len(), 3);
        assert_eq!(cw[0].0[0].blocks_of(ObjectId(0)), 25);
        assert!((cw[1].1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn cost_workload_sequential_passthrough() {
        let stmts = vec![(scan(0, 100), 2.0)];
        let w = ConcurrentWorkload::sequential(stmts);
        let cw = concurrent_cost_workload(&w);
        assert_eq!(cw.len(), 1);
        assert!((cw[0].1 - 2.0).abs() < 1e-9);
    }
}
