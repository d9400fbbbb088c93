//! Microbenchmarks for the advisor's hot paths: cost-model evaluation
//! (invoked thousands of times per search), access-graph construction,
//! graph partitioning, and the end-to-end TS-GREEDY run. Each runs a
//! fixed number of iterations ([`dblayout_bench::timer`]).

use dblayout_bench::common::{object_sizes, plan_sql_workload};
use dblayout_bench::timer::{bench, test_mode};
use dblayout_catalog::tpch::tpch_catalog;
use dblayout_core::access_graph::build_access_graph;
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_core::tsgreedy::{ts_greedy, TsGreedyConfig};
use dblayout_disksim::{paper_disks, uniform_disks, Layout};
use dblayout_partition::{max_cut_partition, Graph};
use dblayout_workloads::tpch22::tpch22;

fn bench_cost_model() {
    let catalog = tpch_catalog(1.0);
    let disks = paper_disks();
    let plans = plan_sql_workload(&catalog, &tpch22());
    let workload = decompose_workload(&plans);
    let layout = Layout::full_striping(object_sizes(&catalog), &disks);
    let model = CostModel::default();
    bench("cost_model/tpch22_full_striping", 40_000, || {
        model.workload_cost_subplans(&workload, &layout, &disks)
    });
}

fn bench_access_graph() {
    let catalog = tpch_catalog(1.0);
    let plans = plan_sql_workload(&catalog, &tpch22());
    bench("access_graph/tpch22", 30_000, || {
        build_access_graph(catalog.object_count(), &plans)
    });
}

fn bench_partitioning() {
    for (n, iterations) in [(16usize, 25_000), (64, 2_000), (128, 600)] {
        // Ring + chords graph with deterministic weights.
        let mut g = Graph::new(n);
        for u in 0..n {
            g.add_node_weight(u, (u + 1) as f64);
            g.add_edge(u, (u + 1) % n, ((u * 7) % 50 + 1) as f64);
            if u + 5 < n {
                g.add_edge(u, u + 5, ((u * 13) % 30 + 1) as f64);
            }
        }
        bench(&format!("max_cut_partition/{n}"), iterations, || {
            max_cut_partition(&g, 8)
        });
    }
}

fn bench_ts_greedy() {
    let catalog = tpch_catalog(0.1);
    let plans = plan_sql_workload(&catalog, &tpch22());
    let sizes = object_sizes(&catalog);
    let graph = build_access_graph(sizes.len(), &plans);
    let workload = decompose_workload(&plans);
    let disks = uniform_disks(8, 200_000, 10.0, 20.0);
    let cfg = TsGreedyConfig::default();
    bench("ts_greedy/tpch22_sf0.1_8disks", 500, || {
        ts_greedy(&sizes, &graph, &workload, &disks, &cfg).unwrap()
    });
}

/// The instrumented paths against their untraced twins above:
/// `cost_model/tpch22_full_striping` costs without a trace and
/// `ts_greedy/tpch22_sf0.1_8disks` runs with the default (disabled)
/// collector; these `_traced` variants bound what tracing costs (the
/// costing walk, and a traced search, emitting into a bounded ring that
/// drops oldest).
fn bench_obs_overhead() {
    use dblayout_obs::{Collector, RingSink};
    use std::sync::Arc;

    let catalog = tpch_catalog(1.0);
    let disks = paper_disks();
    let plans = plan_sql_workload(&catalog, &tpch22());
    let workload = decompose_workload(&plans);
    let layout = Layout::full_striping(object_sizes(&catalog), &disks);
    let model = CostModel::default();
    let collector = Collector::deterministic(Arc::new(RingSink::new(4096)));
    bench("cost_model/tpch22_full_striping_traced", 2_000, || {
        model.trace(&workload, &layout, &disks, &collector, |_| {})
    });

    let catalog = tpch_catalog(0.1);
    let plans = plan_sql_workload(&catalog, &tpch22());
    let sizes = object_sizes(&catalog);
    let graph = build_access_graph(sizes.len(), &plans);
    let workload = decompose_workload(&plans);
    let disks8 = uniform_disks(8, 200_000, 10.0, 20.0);
    let cfg = TsGreedyConfig {
        collector: Collector::deterministic(Arc::new(RingSink::new(4096))),
        ..TsGreedyConfig::default()
    };
    bench("ts_greedy/tpch22_sf0.1_8disks_traced", 150, || {
        ts_greedy(&sizes, &graph, &workload, &disks8, &cfg).unwrap()
    });
}

fn bench_planner() {
    let catalog = tpch_catalog(1.0);
    let queries = tpch22();
    bench("planner/tpch22_all_queries", 100, || {
        plan_sql_workload(&catalog, &queries)
    });
}

fn main() {
    if test_mode("micro") {
        return;
    }
    bench_cost_model();
    bench_access_graph();
    bench_partitioning();
    bench_ts_greedy();
    bench_obs_overhead();
    bench_planner();
}
