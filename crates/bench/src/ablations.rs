//! Ablations for the design choices DESIGN.md calls out.
//!
//! * **A1** — TS-GREEDY's `k` (drives added per greedy move): the paper
//!   claims `k = 1` already matches exhaustive enumeration in most cases.
//! * **A2** — TS-GREEDY vs. exhaustive enumeration on small instances:
//!   the optimality gap.
//! * **A3** — step contributions: step-1-only (pure clustering, cf. the
//!   Livny et al. \[12\] comparison in §8) vs. full TS-GREEDY vs. FULL
//!   STRIPING.
//! * **A4** — value of co-access information: the real access graph vs. an
//!   edgeless graph vs. a label-scrambled graph driving step 1.
//! * **A5** — the 0→1 co-location cost cliff behind TS-GREEDY's potential
//!   local minima (§6.2 discussion).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use serde::Serialize;

use dblayout_catalog::tpch::tpch_catalog;
use dblayout_catalog::ObjectId;
use dblayout_core::access_graph::build_access_graph;
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_core::exhaustive::exhaustive_search;
use dblayout_core::tsgreedy::{ts_greedy, TsGreedyConfig};
use dblayout_disksim::{paper_disks, uniform_disks, Layout};
use dblayout_partition::Graph;
use dblayout_planner::{PhysicalPlan, PlanNode};
use dblayout_workloads::tpch22::tpch22;

use crate::common::{object_sizes, plan_sql_workload};

fn scan(obj: u32, blocks: u64) -> PlanNode {
    PlanNode::TableScan {
        object: ObjectId(obj),
        name: format!("t{obj}"),
        blocks,
        rows: blocks as f64,
    }
}

fn merge_join(a: u32, ab: u64, b: u32, bb: u64) -> PhysicalPlan {
    PhysicalPlan::new(PlanNode::MergeJoin {
        on: "k".into(),
        rows: 1.0,
        left: Box::new(scan(a, ab)),
        right: Box::new(scan(b, bb)),
    })
}

// ---------------------------------------------------------------------
// A1: k sweep
// ---------------------------------------------------------------------

/// One row of the A1 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct A1Row {
    /// Greedy step width `k`.
    pub k: usize,
    /// Final estimated workload cost (ms).
    pub final_cost_ms: f64,
    /// Wall time of the search (ms).
    pub runtime_ms: f64,
    /// Cost evaluations performed.
    pub cost_evaluations: usize,
}

/// A1: TPCH-22 on the paper disks with k = 1, 2, 3.
pub fn run_a1() -> Vec<A1Row> {
    let catalog = tpch_catalog(1.0);
    let disks = paper_disks();
    let plans = plan_sql_workload(&catalog, &tpch22());
    let sizes = object_sizes(&catalog);
    let graph = build_access_graph(sizes.len(), &plans);
    let workload = decompose_workload(&plans);

    (1..=3)
        .map(|k| {
            let start = Instant::now();
            let r = ts_greedy(
                &sizes,
                &graph,
                &workload,
                &disks,
                &TsGreedyConfig {
                    k,
                    ..Default::default()
                },
            )
            .expect("search succeeds");
            A1Row {
                k,
                final_cost_ms: r.final_cost,
                runtime_ms: start.elapsed().as_secs_f64() * 1e3,
                cost_evaluations: r.cost_evaluations,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A2: vs exhaustive
// ---------------------------------------------------------------------

/// One randomized small instance.
#[derive(Debug, Clone, Serialize)]
pub struct A2Row {
    /// Trial seed.
    pub seed: u64,
    /// TS-GREEDY final cost.
    pub greedy_cost_ms: f64,
    /// Exhaustive optimum cost.
    pub optimal_cost_ms: f64,
    /// `greedy / optimal` (1.0 = optimal).
    pub gap_ratio: f64,
}

/// A2: random 4-object / 3-disk instances with co-access structure.
pub fn run_a2(trials: usize) -> Vec<A2Row> {
    let disks = uniform_disks(3, 100_000, 10.0, 20.0);
    (0..trials as u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let sizes: Vec<u64> = (0..4).map(|_| rng.gen_range(50..400)).collect();
            // Two co-accessed pairs plus one solo scan, randomized sizes.
            let plans = vec![
                (
                    merge_join(0, sizes[0], 1, sizes[1]),
                    rng.gen_range(1.0..3.0),
                ),
                (
                    merge_join(2, sizes[2], 3, sizes[3]),
                    rng.gen_range(1.0..3.0),
                ),
                (PhysicalPlan::new(scan(0, sizes[0])), 1.0),
            ];
            let graph = build_access_graph(4, &plans);
            let workload = decompose_workload(&plans);
            let greedy = ts_greedy(
                &sizes,
                &graph,
                &workload,
                &disks,
                &TsGreedyConfig::default(),
            )
            .expect("search succeeds");
            let (_, optimal) = exhaustive_search(&sizes, &workload, &disks, &CostModel::default());
            A2Row {
                seed,
                greedy_cost_ms: greedy.final_cost,
                optimal_cost_ms: optimal,
                gap_ratio: greedy.final_cost / optimal,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A3: step contributions
// ---------------------------------------------------------------------

/// Costs of the strategy variants on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct A3Row {
    /// Strategy label.
    pub strategy: String,
    /// Estimated workload cost (ms).
    pub cost_ms: f64,
}

/// A3: FULL STRIPING vs. step-1-only vs. full TS-GREEDY on TPCH-22.
pub fn run_a3() -> Vec<A3Row> {
    let catalog = tpch_catalog(1.0);
    let disks = paper_disks();
    let plans = plan_sql_workload(&catalog, &tpch22());
    let sizes = object_sizes(&catalog);
    let graph = build_access_graph(sizes.len(), &plans);
    let workload = decompose_workload(&plans);
    let model = CostModel::default();

    let fs = Layout::full_striping(sizes.clone(), &disks);
    let fs_cost = model.workload_cost_subplans(&workload, &fs, &disks);
    let r = ts_greedy(
        &sizes,
        &graph,
        &workload,
        &disks,
        &TsGreedyConfig::default(),
    )
    .expect("search succeeds");

    vec![
        A3Row {
            strategy: "FULL-STRIPING".into(),
            cost_ms: fs_cost,
        },
        A3Row {
            strategy: "STEP1-ONLY (clustering)".into(),
            cost_ms: r.initial_cost,
        },
        A3Row {
            strategy: "TS-GREEDY (both steps)".into(),
            cost_ms: r.final_cost,
        },
    ]
}

// ---------------------------------------------------------------------
// A4: value of co-access information
// ---------------------------------------------------------------------

/// Costs of graph variants on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct A4Row {
    /// Graph variant label.
    pub graph_variant: String,
    /// Final TS-GREEDY cost using that graph for step 1 (ms).
    pub cost_ms: f64,
}

/// Returns a copy of `g` with node labels randomly permuted on its edges —
/// same weight mass, wrong co-access structure.
fn scrambled_graph(g: &Graph, seed: u64) -> Graph {
    let n = g.len();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut out = Graph::new(n);
    for i in 0..n {
        out.add_node_weight(i, g.node_weight(i));
    }
    for (u, v, w) in g.edges() {
        out.add_edge(perm[u], perm[v], w);
    }
    out
}

/// A4: TS-GREEDY on TPCH-22 with the real access graph vs. an edgeless
/// graph vs. a label-scrambled graph.
pub fn run_a4() -> Vec<A4Row> {
    let catalog = tpch_catalog(1.0);
    let disks = paper_disks();
    let plans = plan_sql_workload(&catalog, &tpch22());
    let sizes = object_sizes(&catalog);
    let real = build_access_graph(sizes.len(), &plans);
    let workload = decompose_workload(&plans);

    let mut edgeless = Graph::new(sizes.len());
    for i in 0..sizes.len() {
        edgeless.add_node_weight(i, real.node_weight(i));
    }
    let scrambled = scrambled_graph(&real, 13);

    [
        ("real access graph", &real),
        ("edgeless (no co-access info)", &edgeless),
        ("scrambled edges", &scrambled),
    ]
    .into_iter()
    .map(|(label, graph)| {
        let r = ts_greedy(&sizes, graph, &workload, &disks, &TsGreedyConfig::default())
            .expect("search succeeds");
        A4Row {
            graph_variant: label.to_string(),
            cost_ms: r.final_cost,
        }
    })
    .collect()
}

// ---------------------------------------------------------------------
// A5: the 0→1 overlap cliff
// ---------------------------------------------------------------------

/// Cost at one overlap degree.
#[derive(Debug, Clone, Serialize)]
pub struct A5Row {
    /// Disks shared between the two co-accessed objects.
    pub overlap_disks: usize,
    /// Estimated query cost (ms).
    pub cost_ms: f64,
}

/// A5: a large A (2800 blocks) and a small B (200) co-accessed by a merge
/// join on 8 uniform drives. Sweep `d = 0..4`: A occupies disks
/// `[0, 4+d)`, B occupies `[4-d, 8)`, so they share `2d` drives and each
/// widens as the overlap grows — `d = 0` is full separation, `d = 4` full
/// striping. The paper's §6.2 prediction: cost jumps sharply from `d = 0`
/// to the first overlap (the cliff TS-GREEDY's greedy moves cannot cross),
/// declines as overlap grows, and with skewed sizes can end up *below* the
/// no-overlap cost — the local-minimum trap.
pub fn run_a5() -> Vec<A5Row> {
    let disks = uniform_disks(8, 100_000, 10.0, 20.0);
    let sizes = vec![2800u64, 200];
    let plans = vec![(merge_join(0, 2800, 1, 200), 1.0)];
    let workload = decompose_workload(&plans);
    let model = CostModel::default();

    (0..=4usize)
        .map(|d| {
            let mut layout = Layout::empty(sizes.clone(), 8);
            let a: Vec<usize> = (0..(4 + d)).collect();
            let b: Vec<usize> = ((4 - d)..8).collect();
            layout.place_proportional(0, &a, &disks);
            layout.place_proportional(1, &b, &disks);
            A5Row {
                overlap_disks: 2 * d,
                cost_ms: model.workload_cost_subplans(&workload, &layout, &disks),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_greedy_close_to_optimal() {
        for row in run_a2(10) {
            assert!(
                row.gap_ratio < 1.15,
                "seed {} gap {}",
                row.seed,
                row.gap_ratio
            );
            assert!(row.gap_ratio >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn a5_exhibits_the_cliff() {
        let rows = run_a5();
        assert_eq!(rows.len(), 5);
        // The first overlap jumps well above full separation (the cliff)...
        assert!(rows[1].cost_ms > rows[0].cost_ms * 1.2, "{rows:?}");
        // ...then declines as overlap widens...
        assert!(rows[4].cost_ms < rows[1].cost_ms, "{rows:?}");
        // ...and with skewed sizes full striping beats full separation —
        // the valley greedy search cannot reach across the cliff.
        assert!(rows[4].cost_ms < rows[0].cost_ms, "{rows:?}");
    }

    #[test]
    fn scrambled_graph_preserves_weight_mass() {
        let catalog = tpch_catalog(0.05);
        let plans = plan_sql_workload(&catalog, &tpch22()[..5]);
        let g = build_access_graph(catalog.object_count(), &plans);
        let s = scrambled_graph(&g, 5);
        assert!((g.total_edge_weight() - s.total_edge_weight()).abs() < 1e-6);
    }
}
