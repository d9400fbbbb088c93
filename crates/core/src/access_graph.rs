//! Analyze Workload: the access graph (paper §4, Figure 6).
//!
//! Nodes are database objects; a node's weight is the total number of blocks
//! of that object referenced across the workload. An edge `(u, v)` exists
//! when some statement co-accesses `u` and `v` inside one *non-blocking
//! sub-plan*; its weight accumulates, per such sub-plan, the sum of the
//! blocks of both objects (weighted by the statement's `w_Q`).
//!
//! The graph keeps only pairwise co-access information — the paper's §4.1
//! simplification, validated by its experiments (and by this reproduction's
//! A4 ablation).

use dblayout_obs::counters::{Counter, CounterSnapshot};
use dblayout_obs::{f, Collector};
use dblayout_partition::Graph;
use dblayout_planner::{PhysicalPlan, Subplan};

/// Builds the access graph over `n_objects` catalog objects from the
/// workload's execution plans and weights.
///
/// This is exactly Figure 6: node values accumulate each object's total
/// blocks per plan (step 3); for each non-blocking sub-plan, every pair of
/// distinct objects it accesses gains edge weight equal to the sum of both
/// objects' block counts in that sub-plan (steps 4-5). Statement weights
/// `w_Q` scale both node and edge contributions.
pub fn build_access_graph(n_objects: usize, plans: &[(PhysicalPlan, f64)]) -> Graph {
    let mut g = Graph::new(n_objects);
    extend_access_graph(&mut g, plans);
    g
}

/// Builds the access graph directly from pre-decomposed sub-plans — the
/// entry point for synthetic workloads (the `wkmega` mega-scale family)
/// whose statements are generated as sub-plan sets without a SQL text or
/// a plan tree. Each statement goes through the same Figure-6 fold as
/// [`build_access_graph`]'s, so the weights match it bit for bit.
pub fn build_access_graph_subplans(n_objects: usize, workload: &[(Vec<Subplan>, f64)]) -> Graph {
    let mut g = Graph::new(n_objects);
    let mut work = CounterSnapshot::default();
    for (subplans, weight) in workload {
        count_folds(&mut work, fold_statement(&mut g, subplans, *weight));
    }
    g
}

/// Folds additional weighted plans into an existing access graph.
///
/// Node and edge weights only ever accumulate (`+=`), so extending a graph
/// statement-by-statement in arrival order produces bit-identical weights to
/// [`build_access_graph`] over the concatenated workload — the invariant the
/// server's incremental sessions rely on.
pub fn extend_access_graph(g: &mut Graph, plans: &[(PhysicalPlan, f64)]) {
    extend_access_graph_traced(g, plans, &Collector::default());
}

/// [`extend_access_graph`] with Figure-6 accumulation tracing: one
/// `graph.extend` span covering the batch, and per plan a `graph.plan`
/// event recording how many node-weight and edge-weight updates it
/// contributed. A disabled `collector` makes this identical to
/// [`extend_access_graph`]. Returns the tally of those updates.
pub fn extend_access_graph_traced(
    g: &mut Graph,
    plans: &[(PhysicalPlan, f64)],
    collector: &Collector,
) -> CounterSnapshot {
    let span = collector.span(
        "graph.extend",
        if collector.enabled() {
            vec![f("plans", plans.len()), f("objects", g.len())]
        } else {
            Vec::new()
        },
    );
    let mut work = CounterSnapshot::default();
    for (plan_idx, (plan, weight)) in plans.iter().enumerate() {
        let subplans = plan.subplans();
        let (node_updates, edge_updates) = fold_statement(g, &subplans, *weight);
        count_folds(&mut work, (node_updates, edge_updates));
        if span.enabled() {
            span.event(
                "graph.plan",
                vec![
                    f("plan", plan_idx),
                    f("weight", *weight),
                    f("subplans", subplans.len()),
                    f("node_updates", node_updates),
                    f("edge_updates", edge_updates),
                ],
            );
        }
    }
    span.end_with(if collector.enabled() {
        vec![
            f("edges", g.edge_count()),
            f("total_edge_weight", g.total_edge_weight()),
        ]
    } else {
        Vec::new()
    });
    work
}

/// Figure 6 for one statement of weight `w_Q`: every access adds its
/// blocks to its object's node (step 3), then every pair of distinct
/// objects within one non-blocking sub-plan gains the sum of both
/// objects' blocks there (steps 4-5). Returns the node-weight and
/// edge-weight updates made.
fn fold_statement(g: &mut Graph, subplans: &[Subplan], weight: f64) -> (usize, usize) {
    let mut node_updates = 0usize;
    let mut edge_updates = 0usize;
    for sub in subplans {
        for access in &sub.accesses {
            g.add_node_weight(access.object.index(), weight * access.blocks as f64);
            node_updates += 1;
        }
    }
    for sub in subplans {
        let objects = sub.objects();
        for (a_pos, &u) in objects.iter().enumerate() {
            for &v in &objects[a_pos + 1..] {
                let bu = sub.blocks_of(u);
                let bv = sub.blocks_of(v);
                g.add_edge(u.index(), v.index(), weight * (bu + bv) as f64);
                edge_updates += 1;
            }
        }
    }
    (node_updates, edge_updates)
}

/// Counts one statement's folds (deterministic class: they depend only on
/// the plans, never on tracing or thread count).
fn count_folds(work: &mut CounterSnapshot, (nodes, edges): (usize, usize)) {
    work.add(Counter::GraphNodeUpdates, nodes as u64);
    work.add(Counter::GraphEdgeUpdates, edges as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::ObjectId;
    use dblayout_planner::PlanNode;

    fn scan(obj: u32, blocks: u64) -> PlanNode {
        PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64,
        }
    }

    /// Paper Example 2: Q1 co-accesses R1=500, R2=700, R3=300; Q2
    /// co-accesses R2=600, R3=100, R4=200. Per the Figure-6 algorithm text
    /// ("increment the weight of the edge by the sum of the number of
    /// blocks of the two objects"), edge (R2,R3) = (700+300) + (600+100) =
    /// 1700. (The paper's Figure 5 shows 1300 — it counts only one
    /// endpoint per query, inconsistent with its own algorithm text; we
    /// follow the text. Orderings are unaffected.)
    #[test]
    fn example2_arithmetic_follows_figure6_text() {
        let q1 = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "x".into(),
            rows: 1.0,
            left: Box::new(PlanNode::MergeJoin {
                on: "y".into(),
                rows: 1.0,
                left: Box::new(scan(1, 500)),
                right: Box::new(scan(2, 700)),
            }),
            right: Box::new(scan(3, 300)),
        });
        let q2 = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "x".into(),
            rows: 1.0,
            left: Box::new(PlanNode::MergeJoin {
                on: "y".into(),
                rows: 1.0,
                left: Box::new(scan(2, 600)),
                right: Box::new(scan(3, 100)),
            }),
            right: Box::new(scan(4, 200)),
        });
        let plans = [(q1, 1.0), (q2, 1.0)];
        let g = build_access_graph(5, &plans);
        // Each query folds three node weights and three edges, and the
        // traced build returns exactly those counts.
        let work = extend_access_graph_traced(&mut Graph::new(5), &plans, &Collector::default());
        assert_eq!(work.get(Counter::GraphNodeUpdates), 6);
        assert_eq!(work.get(Counter::GraphEdgeUpdates), 6);
        // Node weights: R2 = 700 + 600.
        assert_eq!(g.node_weight(2), 1300.0);
        assert_eq!(g.node_weight(1), 500.0);
        assert_eq!(g.node_weight(4), 200.0);
        // Edge (R2,R3) = (700+300) + (600+100).
        assert_eq!(g.edge_weight(2, 3), 1700.0);
        // Edge (R1,R4): never co-accessed.
        assert_eq!(g.edge_weight(1, 4), 0.0);
    }

    #[test]
    fn blocking_cut_prevents_edges() {
        // HashJoin: build side scan(0) is NOT co-accessed with probe scan(1).
        let plan = PhysicalPlan::new(PlanNode::HashJoin {
            on: "x".into(),
            rows: 1.0,
            build: Box::new(scan(0, 100)),
            probe: Box::new(scan(1, 200)),
            spill_blocks: 0,
        });
        let g = build_access_graph(2, &[(plan, 1.0)]);
        assert_eq!(g.edge_weight(0, 1), 0.0);
        assert_eq!(g.node_weight(0), 100.0);
        assert_eq!(g.node_weight(1), 200.0);
    }

    #[test]
    fn statement_weights_scale_contributions() {
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "x".into(),
            rows: 1.0,
            left: Box::new(scan(0, 100)),
            right: Box::new(scan(1, 50)),
        });
        let g = build_access_graph(2, &[(plan, 2.5)]);
        assert_eq!(g.node_weight(0), 250.0);
        assert_eq!(g.edge_weight(0, 1), 2.5 * 150.0);
    }

    #[test]
    fn edges_accumulate_across_statements() {
        let mk = || {
            PhysicalPlan::new(PlanNode::MergeJoin {
                on: "x".into(),
                rows: 1.0,
                left: Box::new(scan(0, 10)),
                right: Box::new(scan(1, 20)),
            })
        };
        let g = build_access_graph(2, &[(mk(), 1.0), (mk(), 1.0)]);
        assert_eq!(g.edge_weight(0, 1), 60.0);
    }

    #[test]
    fn three_way_coaccess_creates_clique() {
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "x".into(),
            rows: 1.0,
            left: Box::new(PlanNode::NestedLoops {
                on: "y".into(),
                rows: 1.0,
                outer: Box::new(scan(0, 10)),
                inner: Box::new(scan(1, 20)),
            }),
            right: Box::new(scan(2, 30)),
        });
        let g = build_access_graph(3, &[(plan, 1.0)]);
        assert!(g.edge_weight(0, 1) > 0.0);
        assert!(g.edge_weight(0, 2) > 0.0);
        assert!(g.edge_weight(1, 2) > 0.0);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn incremental_extension_matches_batch_build() {
        let mk = |a: u32, b: u32, ba: u64, bb: u64| {
            PhysicalPlan::new(PlanNode::MergeJoin {
                on: "x".into(),
                rows: 1.0,
                left: Box::new(scan(a, ba)),
                right: Box::new(scan(b, bb)),
            })
        };
        let plans = vec![
            (mk(0, 1, 137, 251), 1.25),
            (mk(1, 2, 89, 17), 0.75),
            (mk(0, 2, 41, 333), 3.0),
        ];
        let batch = build_access_graph(4, &plans);
        let mut incremental = Graph::new(4);
        for p in &plans {
            extend_access_graph(&mut incremental, std::slice::from_ref(p));
        }
        for u in 0..4 {
            assert_eq!(
                batch.node_weight(u).to_bits(),
                incremental.node_weight(u).to_bits()
            );
            for v in u + 1..4 {
                assert_eq!(
                    batch.edge_weight(u, v).to_bits(),
                    incremental.edge_weight(u, v).to_bits()
                );
            }
        }
    }

    #[test]
    fn traced_extension_matches_untraced_and_records_accumulation() {
        use dblayout_obs::{Collector, RecordKind, RingSink};
        use std::sync::Arc;
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "x".into(),
            rows: 1.0,
            left: Box::new(scan(0, 100)),
            right: Box::new(scan(1, 50)),
        });
        let plans = vec![(plan, 2.0)];
        let plain = build_access_graph(2, &plans);
        let ring = Arc::new(RingSink::new(64));
        let collector = Collector::deterministic(ring.clone());
        let mut traced = Graph::new(2);
        extend_access_graph_traced(&mut traced, &plans, &collector);
        for u in 0..2 {
            assert_eq!(
                plain.node_weight(u).to_bits(),
                traced.node_weight(u).to_bits()
            );
        }
        assert_eq!(
            plain.edge_weight(0, 1).to_bits(),
            traced.edge_weight(0, 1).to_bits()
        );
        let records = ring.drain();
        let plan_event = records.iter().find(|r| r.name == "graph.plan").unwrap();
        assert_eq!(plan_event.field_u64("node_updates"), Some(2));
        assert_eq!(plan_event.field_u64("edge_updates"), Some(1));
        let end = records
            .iter()
            .find(|r| r.kind == RecordKind::SpanEnd)
            .unwrap();
        assert_eq!(end.field_u64("edges"), Some(1));
    }

    #[test]
    fn subplan_builder_matches_plan_builder_bit_for_bit() {
        let mk = |a: u32, b: u32, ba: u64, bb: u64| {
            PhysicalPlan::new(PlanNode::MergeJoin {
                on: "x".into(),
                rows: 1.0,
                left: Box::new(scan(a, ba)),
                right: Box::new(scan(b, bb)),
            })
        };
        let plans = vec![
            (mk(0, 1, 137, 251), 1.25),
            (mk(1, 2, 89, 17), 0.75),
            (mk(0, 2, 41, 333), 3.0),
        ];
        let via_plans = build_access_graph(4, &plans);
        let workload: Vec<(Vec<_>, f64)> = plans.iter().map(|(p, w)| (p.subplans(), *w)).collect();
        let via_subplans = build_access_graph_subplans(4, &workload);
        for u in 0..4 {
            assert_eq!(
                via_plans.node_weight(u).to_bits(),
                via_subplans.node_weight(u).to_bits()
            );
            for v in u + 1..4 {
                assert_eq!(
                    via_plans.edge_weight(u, v).to_bits(),
                    via_subplans.edge_weight(u, v).to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_workload_graph_is_silent() {
        let g = build_access_graph(4, &[]);
        assert_eq!(g.total_edge_weight(), 0.0);
        assert_eq!(g.node_weight(0), 0.0);
    }
}
