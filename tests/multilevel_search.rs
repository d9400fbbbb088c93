//! Multilevel-vs-direct search quality: on a mid-size WK-MEGA instance,
//! running TS-GREEDY with the multilevel step-1 partitioner under the
//! *same* greedy iteration budget as the direct KL partitioner must
//! produce an advised layout within a stated bound of the direct path's
//! cost. The bound is deliberately loose: at this scale both engines
//! reach the same (saturated) cut and multilevel is the better-balanced
//! of the two, but step-2 greedy widening is path-dependent in its
//! starting layout, so equal-quality partitions converge to local optima
//! that measured up to ~15% apart in either direction (DESIGN.md §11,
//! EXPERIMENTS.md). The bound guards against *regressions past* that
//! measured envelope, not against path dependence itself. Both paths
//! must also stay valid and deterministic.

use dblayout_core::costmodel::CostModel;
use dblayout_core::{build_access_graph_subplans, ts_greedy, Partitioner, TsGreedyConfig};
use dblayout_workloads::wkmega::{generate, MegaConfig};

/// Advised-layout cost bound under the identical iteration budget.
/// Measured converged ratios across the family sit between 0.99 and
/// 1.17 (see EXPERIMENTS.md); 1.25 is that envelope plus headroom, and a
/// breach means a real partition-quality regression, not path noise.
/// (Multilevel is allowed to be *better* — balance-aware coarsened
/// partitions sometimes are.)
const COST_RATIO_BOUND: f64 = 1.25;

/// Direct KL at any graph size.
const DIRECT: Partitioner = Partitioner::Auto {
    threshold: usize::MAX,
};
/// The multilevel V-cycle at any graph size.
const MULTILEVEL: Partitioner = Partitioner::Auto { threshold: 0 };

#[test]
fn multilevel_step1_matches_direct_search_quality_within_bound() {
    let instance = generate(&MegaConfig::scaled(300, 16, 7));
    let graph = build_access_graph_subplans(instance.sizes.len(), &instance.workload);
    // Identical budget for both engines: pruned widening plus an
    // iteration cap of two adopted moves per disk (the megascale bench
    // uses the same rule; a fully converged widening is minutes per run
    // at mega scale, which a tier-1 test cannot afford).
    let run = |partitioner: Partitioner| {
        let cfg = TsGreedyConfig {
            partitioner,
            prune_width: 8,
            max_iterations: 2 * instance.disks.len(),
            ..Default::default()
        };
        ts_greedy(
            &instance.sizes,
            &graph,
            &instance.workload,
            &instance.disks,
            &cfg,
        )
        .expect("mega search succeeds")
    };

    let direct = run(DIRECT);
    let multilevel = run(MULTILEVEL);

    direct
        .layout
        .validate(&instance.disks)
        .expect("direct layout is valid");
    multilevel
        .layout
        .validate(&instance.disks)
        .expect("multilevel layout is valid");

    // The recorded final cost is the real workload cost, for both.
    let model = CostModel::default();
    for r in [&direct, &multilevel] {
        let recomputed =
            model.workload_cost_subplans(&instance.workload, &r.layout, &instance.disks);
        assert_eq!(recomputed.to_bits(), r.final_cost.to_bits());
    }

    let ratio = multilevel.final_cost / direct.final_cost;
    assert!(
        ratio <= COST_RATIO_BOUND,
        "multilevel advice degraded: {} vs {} (ratio {ratio})",
        multilevel.final_cost,
        direct.final_cost
    );

    // Determinism: the multilevel path reproduces itself bit for bit.
    let again = run(MULTILEVEL);
    assert_eq!(again.final_cost.to_bits(), multilevel.final_cost.to_bits());
    assert_eq!(again.iterations, multilevel.iterations);
}

/// `Partitioner::Auto` is the shipped default: at or below its threshold it
/// must be bit-identical to direct KL; above, to the multilevel path. The
/// default threshold sends this 260-node graph to the multilevel path.
#[test]
fn auto_partitioner_threshold_routes_both_ways() {
    let instance = generate(&MegaConfig::scaled(260, 12, 3));
    let graph = build_access_graph_subplans(instance.sizes.len(), &instance.workload);
    let run = |partitioner: Partitioner| {
        let cfg = TsGreedyConfig {
            partitioner,
            prune_width: 8,
            max_iterations: instance.disks.len(),
            ..Default::default()
        };
        ts_greedy(
            &instance.sizes,
            &graph,
            &instance.workload,
            &instance.disks,
            &cfg,
        )
        .expect("mega search succeeds")
    };
    let direct = run(DIRECT);
    let auto_high = run(Partitioner::Auto { threshold: 100_000 });
    assert_eq!(
        auto_high.final_cost.to_bits(),
        direct.final_cost.to_bits(),
        "Auto above threshold must be the direct path bit for bit"
    );
    let multilevel = run(MULTILEVEL);
    let auto_default = run(Partitioner::default());
    assert_eq!(
        auto_default.final_cost.to_bits(),
        multilevel.final_cost.to_bits(),
        "Auto below threshold must be the multilevel path bit for bit"
    );
}
