//! Exhaustive layout enumeration for small instances.
//!
//! The database layout problem is NP-complete (paper §6.1, reduction from
//! Partition), so exhaustive search only works at toy scale — which is
//! exactly how the paper uses it: as the quality yardstick TS-GREEDY is
//! "comparable to ... in most cases" (§6.2). Placement follows the same
//! convention as the rest of the system: each object goes on a non-empty
//! subset of drives with transfer-rate-proportional fractions.

use dblayout_disksim::{DiskSpec, Layout};
use dblayout_planner::Subplan;

use crate::costmodel::CostModel;

/// Enumerates every assignment of each object to a non-empty disk subset
/// (rate-proportional fill) and returns the valid layout with the lowest
/// workload cost, along with that cost.
///
/// # Panics
/// Panics when the search space `(2^m − 1)^n` exceeds ~4·10⁶ states, or if
/// no valid layout exists (all layouts violate capacity).
pub fn exhaustive_search(
    sizes: &[u64],
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    model: &CostModel,
) -> (Layout, f64) {
    let n = sizes.len();
    let m = disks.len();
    assert!(
        (1..20).contains(&m),
        "disk count out of range for exhaustive search"
    );
    let subsets_per_object = (1u64 << m) - 1;
    let states = i32::try_from(n).map_or(f64::INFINITY, |n| (subsets_per_object as f64).powi(n));
    assert!(
        states <= 4e6,
        "search space {states:.0} too large for exhaustive enumeration"
    );

    let mut best: Option<(Layout, f64)> = None;
    // Odometer over per-object subset masks (1..=2^m-1 each).
    let mut masks = vec![1u64; n];
    loop {
        let mut layout = Layout::empty(sizes.to_vec(), m);
        for (i, &mask) in masks.iter().enumerate() {
            let set: Vec<usize> = (0..m).filter(|j| (mask >> j) & 1 == 1).collect();
            layout.place_proportional(i, &set, disks);
        }
        if layout.validate(disks).is_ok() {
            let cost = model.workload_cost_subplans(workload, &layout, disks);
            if best.as_ref().is_none_or(|(_, bc)| cost < *bc) {
                best = Some((layout, cost));
            }
        }
        // Increment the odometer.
        let mut i = 0;
        loop {
            if i >= n {
                #[expect(
                    clippy::expect_used,
                    reason = "documented panic: a capacity-infeasible instance has no layout to return"
                )]
                return best.expect("at least one valid layout (e.g. full striping)");
            }
            masks[i] += 1;
            if masks[i] <= subsets_per_object {
                break;
            }
            masks[i] = 1;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_graph::build_access_graph;
    use crate::costmodel::decompose_workload;
    use crate::tsgreedy::{ts_greedy, TsGreedyConfig};
    use dblayout_catalog::ObjectId;
    use dblayout_disksim::uniform_disks;
    use dblayout_planner::{PhysicalPlan, PlanNode};

    fn scan(obj: u32, blocks: u64) -> PlanNode {
        PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64,
        }
    }

    #[test]
    fn finds_example5_optimum() {
        let disks = uniform_disks(3, 100_000, 10.0, 20.0);
        let sizes = vec![300u64, 150];
        let plans = vec![(
            PhysicalPlan::new(PlanNode::MergeJoin {
                on: "k".into(),
                rows: 1.0,
                left: Box::new(scan(0, 300)),
                right: Box::new(scan(1, 150)),
            }),
            1.0,
        )];
        let workload = decompose_workload(&plans);
        let (layout, cost) = exhaustive_search(&sizes, &workload, &disks, &CostModel::default());
        // The optimum separates the objects; cost = 150 blocks / T on the
        // A side (2 disks × 150) — i.e. Example 5's L3 family.
        let d0 = layout.disks_of(0);
        let d1 = layout.disks_of(1);
        assert!(d0.iter().all(|j| !d1.contains(j)));
        assert!(cost > 0.0);
    }

    #[test]
    fn ts_greedy_matches_exhaustive_on_small_instances() {
        let disks = uniform_disks(3, 100_000, 10.0, 20.0);
        let sizes = vec![240u64, 120, 60];
        let plans = vec![
            (
                PhysicalPlan::new(PlanNode::MergeJoin {
                    on: "k".into(),
                    rows: 1.0,
                    left: Box::new(scan(0, 240)),
                    right: Box::new(scan(1, 120)),
                }),
                1.0,
            ),
            (PhysicalPlan::new(scan(2, 60)), 1.0),
        ];
        let graph = build_access_graph(3, &plans);
        let workload = decompose_workload(&plans);
        let (_, opt_cost) = exhaustive_search(&sizes, &workload, &disks, &CostModel::default());
        let r = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        // Paper's claim: TS-GREEDY with k=1 is comparable to exhaustive.
        assert!(
            r.final_cost <= opt_cost * 1.1 + 1e-9,
            "greedy {} vs optimal {}",
            r.final_cost,
            opt_cost
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn refuses_huge_spaces() {
        let disks = uniform_disks(8, 100_000, 10.0, 20.0);
        let sizes = vec![10u64; 10];
        exhaustive_search(&sizes, &[], &disks, &CostModel::default());
    }

    #[test]
    fn single_object_single_disk() {
        let disks = uniform_disks(1, 1_000, 10.0, 20.0);
        let sizes = vec![100u64];
        let plans = vec![(PhysicalPlan::new(scan(0, 100)), 1.0)];
        let workload = decompose_workload(&plans);
        let (layout, _) = exhaustive_search(&sizes, &workload, &disks, &CostModel::default());
        assert_eq!(layout.disks_of(0), vec![0]);
    }
}
