//! Property-based tests over the core invariants, driven by proptest.

use proptest::prelude::*;

use dblayout_catalog::ObjectId;
use dblayout_core::costmodel::{CostModel, EvalScratch};
use dblayout_disksim::{apportion, uniform_disks, AllocationMap, Layout};
use dblayout_partition::{max_cut_partition, Graph};
use dblayout_planner::{ObjectAccess, PhysicalPlan, PlanNode, Subplan};

fn scan(obj: u32, blocks: u64) -> PlanNode {
    PlanNode::TableScan {
        object: ObjectId(obj),
        name: format!("t{obj}"),
        blocks,
        rows: blocks as f64,
    }
}

proptest! {
    /// Largest-remainder apportionment always conserves the total.
    #[test]
    fn apportion_conserves_total(
        size in 0u64..100_000,
        weights in proptest::collection::vec(0.0f64..100.0, 1..10),
    ) {
        let shares = apportion(size, &weights);
        prop_assert_eq!(shares.len(), weights.len());
        if weights.iter().sum::<f64>() > 0.0 {
            prop_assert_eq!(shares.iter().sum::<u64>(), size);
        } else {
            prop_assert!(shares.iter().all(|&s| s == 0));
        }
    }

    /// Every layout built via place() is valid and maps every block of
    /// every object to exactly one disk address, with no two objects
    /// sharing an address on a disk.
    #[test]
    fn allocation_is_injective(
        sizes in proptest::collection::vec(1u64..500, 1..6),
        split in 1usize..4,
    ) {
        let m = 4usize;
        let disks = uniform_disks(m, 1_000_000, 10.0, 20.0);
        let mut layout = Layout::empty(sizes.clone(), m);
        for (i, _) in sizes.iter().enumerate() {
            let set: Vec<usize> = (0..((i % split) + 1)).map(|j| (i + j) % m).collect();
            layout.place_proportional(i, &set, &disks);
        }
        prop_assert!(layout.validate(&disks).is_ok());
        let alloc = AllocationMap::build(&layout);
        let mut seen = std::collections::HashSet::new();
        for (i, &size) in sizes.iter().enumerate() {
            for k in 0..size {
                let loc = alloc.locate(i, k);
                prop_assert!(seen.insert((loc.disk, loc.addr)), "address reused");
            }
        }
    }

    /// Figure-7 cost is monotone: removing a disk from a lone object's
    /// placement never decreases a scan's cost (less parallelism).
    #[test]
    fn narrower_placement_never_cheaper(width in 2usize..8) {
        let m = 8usize;
        let disks = uniform_disks(m, 100_000, 10.0, 20.0);
        let blocks = 4000u64;
        let plan = PhysicalPlan::new(scan(0, blocks));
        let plans = [(plan, 1.0f64)];
        let model = CostModel::default();
        let mut wide = Layout::empty(vec![blocks], m);
        wide.place_proportional(0, &(0..width).collect::<Vec<_>>(), &disks);
        let mut narrow = Layout::empty(vec![blocks], m);
        narrow.place_proportional(0, &(0..width - 1).collect::<Vec<_>>(), &disks);
        let cw = model.workload_cost(&plans, &wide, &disks);
        let cn = model.workload_cost(&plans, &narrow, &disks);
        prop_assert!(cn >= cw - 1e-9, "narrow {cn} < wide {cw}");
    }

    /// The cost model is insensitive to where *untouched* objects live.
    #[test]
    fn untouched_objects_do_not_affect_cost(shift in 0usize..4) {
        let m = 4usize;
        let disks = uniform_disks(m, 100_000, 10.0, 20.0);
        let sizes = vec![1000u64, 800];
        let plan = PhysicalPlan::new(scan(0, 1000));
        let plans = [(plan, 1.0f64)];
        let model = CostModel::default();
        let mut a = Layout::full_striping(sizes.clone(), &disks);
        let mut b = Layout::full_striping(sizes, &disks);
        a.place_proportional(1, &[shift % m], &disks);
        b.place_proportional(1, &[(shift + 1) % m], &disks);
        let ca = model.workload_cost(&plans, &a, &disks);
        let cb = model.workload_cost(&plans, &b, &disks);
        prop_assert!((ca - cb).abs() < 1e-9);
    }

    /// Max-cut refinement output always labels within range, and its cut is
    /// at least half the total edge weight on bipartitions (the classic
    /// greedy max-cut guarantee).
    #[test]
    fn bipartition_cut_at_least_half(
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1.0f64..50.0), 1..20),
    ) {
        let mut g = Graph::new(8);
        for (u, v, w) in edges {
            if u != v {
                g.add_edge(u, v, w);
            }
        }
        let assignment = max_cut_partition(&g, 2);
        prop_assert!(assignment.iter().all(|&p| p < 2));
        prop_assert!(g.cut_weight(&assignment) >= g.total_edge_weight() / 2.0 - 1e-9);
    }

    /// dblayout-par: after a random single-object move on a randomized
    /// fractional layout, the ledger's fold of the re-costed sub-plans, and
    /// its total once the move is adopted, equal a full Figure-7
    /// re-evaluation within 0 ULPs (`total_cmp` equality) — the identity
    /// that lets the search score moves incrementally.
    #[test]
    fn incremental_delta_matches_full_reevaluation_to_the_bit(
        base_w in proptest::collection::vec(proptest::collection::vec(0.1f64..10.0, 4..5), 3..4),
        move_w in proptest::collection::vec(0.1f64..10.0, 4..5),
        moved in 0usize..3,
    ) {
        use dblayout_planner::AccessKind;
        let disks = uniform_disks(4, 100_000, 10.0, 20.0);
        let sizes = vec![900u64, 600, 300];
        let model = CostModel::default();
        // A join reading objects 0 and 1, plus a scan of object 2, so the
        // move either touches a multi-access sub-plan or leaves one alone.
        let mut join = Subplan::default();
        for (obj, blocks) in [(0u32, 900u64), (1, 600)] {
            join.add(ObjectAccess {
                object: ObjectId(obj),
                blocks,
                rows: 1.0,
                kind: AccessKind::SequentialRead,
            });
        }
        let mut scan2 = Subplan::default();
        scan2.add(ObjectAccess {
            object: ObjectId(2),
            blocks: 300,
            rows: 1.0,
            kind: AccessKind::SequentialRead,
        });
        let workload = vec![(vec![join], 3.0), (vec![scan2], 1.0)];

        let mut base = Layout::empty(sizes, 4);
        for (i, w) in base_w.iter().enumerate() {
            let weights: Vec<(usize, f64)> = w.iter().copied().enumerate().collect();
            base.place(i, &weights);
        }
        let mut eval = model.delta_evaluator(&workload, &base, &disks);
        let base_full = model.workload_cost_subplans(&workload, &base, &disks);
        prop_assert_eq!(eval.total().total_cmp(&base_full), std::cmp::Ordering::Equal);

        let mut trial = base.clone();
        let weights: Vec<(usize, f64)> = move_w.iter().copied().enumerate().collect();
        trial.place(moved, &weights);
        let (mut touched, mut values) = (Vec::new(), Vec::new());
        eval.touched(&[moved], &mut touched);
        eval.recost_into(&trial, &touched, &mut values, &mut EvalScratch::new());
        let incremental = eval.fold(&touched, &values);
        let full = model.workload_cost_subplans(&workload, &trial, &disks);
        prop_assert!(
            incremental.total_cmp(&full) == std::cmp::Ordering::Equal,
            "incremental {} != full {}", incremental, full
        );
        eval.adopt(&touched, &values);
        prop_assert_eq!(eval.total().total_cmp(&full), std::cmp::Ordering::Equal);
    }

    /// Sub-plan cost is superadditive in accesses: adding a co-accessed
    /// object to a sub-plan never lowers the bottleneck cost.
    #[test]
    fn adding_coaccess_never_cheaper(extra_blocks in 1u64..2000) {
        let m = 4usize;
        let disks = uniform_disks(m, 100_000, 10.0, 20.0);
        let sizes = vec![2000u64, 2000];
        let layout = Layout::full_striping(sizes, &disks);
        let model = CostModel::default();
        let mut small = Subplan::default();
        small.add(ObjectAccess {
            object: ObjectId(0),
            blocks: 2000,
            rows: 1.0,
            kind: dblayout_planner::AccessKind::SequentialRead,
        });
        let mut big = small.clone();
        big.add(ObjectAccess {
            object: ObjectId(1),
            blocks: extra_blocks,
            rows: 1.0,
            kind: dblayout_planner::AccessKind::SequentialRead,
        });
        let cost = |sub: Subplan| model.workload_cost_subplans(&[(vec![sub], 1.0)], &layout, &disks);
        let (cs, cb) = (cost(small), cost(big));
        prop_assert!(cb >= cs - 1e-9);
    }
}
