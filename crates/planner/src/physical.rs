//! Physical plan representation, blocking classification, and the
//! decomposition into non-blocking sub-plans (paper §4.2).
//!
//! Blocking semantics follow the paper's definition: a blocking operator
//! "ensures that access to one object does not begin until another object is
//! completely accessed". Concretely:
//!
//! * `Sort` and `HashAggregate` consume their entire input before emitting —
//!   the input subtree is a separate pipeline from everything above;
//! * `HashJoin` consumes its entire **build** side before the probe side
//!   starts — the build subtree is a separate pipeline, the probe side is
//!   pipelined with the join's consumer;
//! * `MergeJoin` and `NestedLoops` interleave both inputs — co-access;
//! * `Filter`, `StreamAggregate`, `Top`, RID lookups and DML writes are
//!   pipelined.

use dblayout_catalog::ObjectId;

use crate::access::{AccessKind, ObjectAccess, Subplan};

/// A node of the physical execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Full sequential scan of a table, materialized view, or covering
    /// index-leaf scan.
    TableScan {
        /// Scanned object.
        object: ObjectId,
        /// Object name (for explain output).
        name: String,
        /// Blocks read.
        blocks: u64,
        /// Rows produced.
        rows: f64,
    },
    /// Sequential scan of a contiguous clustered-key range (a fraction of
    /// the table).
    ClusteredRangeScan {
        /// Scanned table.
        object: ObjectId,
        /// Table name.
        name: String,
        /// Blocks read (≤ table size).
        blocks: u64,
        /// Rows produced.
        rows: f64,
    },
    /// Repeated random point/range access into an object, driven once per
    /// outer row of a nested-loops join. Blocks are the *distinct* blocks
    /// touched (Cardenas estimate); access is random.
    Seek {
        /// The probed object (table clustered on the join key, or an index).
        object: ObjectId,
        /// Object name.
        name: String,
        /// Distinct blocks touched across all probes.
        blocks: u64,
        /// Total matching rows produced.
        rows: f64,
    },
    /// Nonclustered index seek: reads the matching leaf range.
    IndexSeek {
        /// The index object.
        object: ObjectId,
        /// Index name.
        name: String,
        /// Index leaf blocks read.
        blocks: u64,
        /// Matching entries.
        rows: f64,
    },
    /// Fetch of base-table rows for the locators produced by `child`
    /// (paper Example 4): random reads into the table.
    RidLookup {
        /// The base table.
        object: ObjectId,
        /// Table name.
        name: String,
        /// Distinct table blocks touched (Cardenas estimate).
        blocks: u64,
        /// Rows fetched.
        rows: f64,
        /// The index access producing locators.
        child: Box<PlanNode>,
    },
    /// Row filter (residual predicate); pipelined.
    Filter {
        /// Rendered predicate, for explain.
        predicate: String,
        /// Rows surviving.
        rows: f64,
        /// Input.
        child: Box<PlanNode>,
    },
    /// Nested-loops join; both inputs pipelined (inner re-iterated).
    NestedLoops {
        /// Join predicate rendering.
        on: String,
        /// Output rows.
        rows: f64,
        /// Outer input.
        outer: Box<PlanNode>,
        /// Inner input (typically an index seek / RID lookup).
        inner: Box<PlanNode>,
    },
    /// Merge join of two sorted inputs; both pipelined (co-access!).
    MergeJoin {
        /// Join keys rendering.
        on: String,
        /// Output rows.
        rows: f64,
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
    },
    /// Hash join: `build` fully consumed first (blocking edge), then `probe`
    /// streams.
    HashJoin {
        /// Join keys rendering.
        on: String,
        /// Output rows.
        rows: f64,
        /// Build input (smaller side).
        build: Box<PlanNode>,
        /// Probe input.
        probe: Box<PlanNode>,
        /// Blocks spilled to tempdb when the build side exceeds the memory
        /// grant (0 = in-memory).
        spill_blocks: u64,
    },
    /// Full sort; blocking.
    Sort {
        /// Sort keys rendering.
        by: String,
        /// Rows sorted.
        rows: f64,
        /// Blocks spilled to tempdb for external sort (0 = in-memory).
        spill_blocks: u64,
        /// Input.
        child: Box<PlanNode>,
    },
    /// Aggregate over sorted input; pipelined.
    StreamAggregate {
        /// Output rows (groups).
        rows: f64,
        /// Input.
        child: Box<PlanNode>,
    },
    /// Hash aggregate; blocking.
    HashAggregate {
        /// Output rows (groups).
        rows: f64,
        /// Blocks spilled to tempdb (0 = in-memory).
        spill_blocks: u64,
        /// Input.
        child: Box<PlanNode>,
    },
    /// Row-count limiter; pipelined.
    Top {
        /// Limit.
        n: u64,
        /// Rows out.
        rows: f64,
        /// Input.
        child: Box<PlanNode>,
    },
    /// A subquery whose full result is needed before the main plan runs
    /// (scalar subquery / uncorrelated IN): blocking on the `sub` side.
    Apply {
        /// Rows out of the main side.
        rows: f64,
        /// The subquery plan (separate pipeline).
        sub: Box<PlanNode>,
        /// The main plan consuming the subquery's result.
        main: Box<PlanNode>,
    },
    /// Write produced rows into a table; pipelined with its input.
    Insert {
        /// Target table.
        object: ObjectId,
        /// Table name.
        name: String,
        /// Blocks dirtied.
        write_blocks: u64,
        /// Rows written.
        rows: f64,
        /// Row source (`None` for `VALUES`).
        child: Option<Box<PlanNode>>,
    },
    /// Update matched rows in place; pipelined with the locating child.
    Update {
        /// Target table.
        object: ObjectId,
        /// Table name.
        name: String,
        /// Blocks dirtied.
        write_blocks: u64,
        /// Rows updated.
        rows: f64,
        /// Access plan locating the rows.
        child: Box<PlanNode>,
    },
    /// Delete matched rows; pipelined with the locating child.
    Delete {
        /// Target table.
        object: ObjectId,
        /// Table name.
        name: String,
        /// Blocks dirtied.
        write_blocks: u64,
        /// Rows deleted.
        rows: f64,
        /// Access plan locating the rows.
        child: Box<PlanNode>,
    },
}

impl PlanNode {
    /// Estimated output rows.
    pub fn rows(&self) -> f64 {
        match self {
            PlanNode::TableScan { rows, .. }
            | PlanNode::ClusteredRangeScan { rows, .. }
            | PlanNode::Seek { rows, .. }
            | PlanNode::IndexSeek { rows, .. }
            | PlanNode::RidLookup { rows, .. }
            | PlanNode::Filter { rows, .. }
            | PlanNode::NestedLoops { rows, .. }
            | PlanNode::MergeJoin { rows, .. }
            | PlanNode::HashJoin { rows, .. }
            | PlanNode::Sort { rows, .. }
            | PlanNode::StreamAggregate { rows, .. }
            | PlanNode::HashAggregate { rows, .. }
            | PlanNode::Top { rows, .. }
            | PlanNode::Apply { rows, .. }
            | PlanNode::Insert { rows, .. }
            | PlanNode::Update { rows, .. }
            | PlanNode::Delete { rows, .. } => *rows,
        }
    }

    /// Immediate children, in (outer/build/left first) order.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::TableScan { .. }
            | PlanNode::ClusteredRangeScan { .. }
            | PlanNode::Seek { .. }
            | PlanNode::IndexSeek { .. } => vec![],
            PlanNode::RidLookup { child, .. }
            | PlanNode::Filter { child, .. }
            | PlanNode::Sort { child, .. }
            | PlanNode::StreamAggregate { child, .. }
            | PlanNode::HashAggregate { child, .. }
            | PlanNode::Top { child, .. }
            | PlanNode::Update { child, .. }
            | PlanNode::Delete { child, .. } => vec![child],
            PlanNode::NestedLoops { outer, inner, .. } => vec![outer, inner],
            PlanNode::MergeJoin { left, right, .. } => vec![left, right],
            PlanNode::HashJoin { build, probe, .. } => vec![build, probe],
            PlanNode::Apply { sub, main, .. } => vec![sub, main],
            PlanNode::Insert { child, .. } => child.iter().map(|c| c.as_ref()).collect(),
        }
    }
}

/// A complete physical plan for one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Root operator.
    pub root: PlanNode,
}

impl PhysicalPlan {
    /// Wraps a root node.
    pub fn new(root: PlanNode) -> Self {
        Self { root }
    }

    /// Decomposes the plan into its non-blocking sub-plans — the maximal
    /// pipelined regions obtained by cutting at every blocking operator
    /// (paper §4.2 / Figure 6 step 4). Region 0 is the root pipeline;
    /// regions are ordered by discovery (pre-order). Empty regions (no
    /// object or temp I/O) are dropped.
    pub fn subplans(&self) -> Vec<Subplan> {
        let mut regions: Vec<Subplan> = vec![Subplan::default()];
        walk(&self.root, 0, &mut regions);
        regions.retain(|s| !s.is_empty());
        regions
    }

    /// Total blocks of `object` accessed anywhere in the plan (Figure 6
    /// step 3's node-weight increment).
    pub fn total_blocks_of(&self, object: ObjectId) -> u64 {
        self.subplans().iter().map(|s| s.blocks_of(object)).sum()
    }

    /// Distinct objects accessed anywhere in the plan.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.subplans().iter().flat_map(|s| s.objects()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Total blocks read + written across all objects and temp I/O.
    pub fn total_io_blocks(&self) -> u64 {
        self.subplans()
            .iter()
            .map(|s| {
                s.accesses.iter().map(|a| a.blocks).sum::<u64>()
                    + s.temp_read_blocks
                    + s.temp_write_blocks
            })
            .sum()
    }
}

fn region_add(regions: &mut Vec<Subplan>, region: usize, access: ObjectAccess) {
    while regions.len() <= region {
        regions.push(Subplan::default());
    }
    regions[region].add(access);
}

fn new_region(regions: &mut Vec<Subplan>) -> usize {
    regions.push(Subplan::default());
    regions.len() - 1
}

fn add_temp(regions: &mut [Subplan], region: usize, write: u64, read: u64) {
    regions[region].temp_write_blocks += write;
    regions[region].temp_read_blocks += read;
}

fn walk(node: &PlanNode, region: usize, regions: &mut Vec<Subplan>) {
    match node {
        PlanNode::TableScan {
            object,
            blocks,
            rows,
            ..
        }
        | PlanNode::ClusteredRangeScan {
            object,
            blocks,
            rows,
            ..
        }
        | PlanNode::IndexSeek {
            object,
            blocks,
            rows,
            ..
        } => {
            region_add(
                regions,
                region,
                ObjectAccess {
                    object: *object,
                    blocks: *blocks,
                    rows: *rows,
                    kind: AccessKind::SequentialRead,
                },
            );
        }
        PlanNode::Seek {
            object,
            blocks,
            rows,
            ..
        } => {
            region_add(
                regions,
                region,
                ObjectAccess {
                    object: *object,
                    blocks: *blocks,
                    rows: *rows,
                    kind: AccessKind::RandomRead,
                },
            );
        }
        PlanNode::RidLookup {
            object,
            blocks,
            rows,
            child,
            ..
        } => {
            walk(child, region, regions);
            region_add(
                regions,
                region,
                ObjectAccess {
                    object: *object,
                    blocks: *blocks,
                    rows: *rows,
                    kind: AccessKind::RandomRead,
                },
            );
        }
        PlanNode::Filter { child, .. }
        | PlanNode::StreamAggregate { child, .. }
        | PlanNode::Top { child, .. } => walk(child, region, regions),
        PlanNode::NestedLoops { outer, inner, .. } => {
            walk(outer, region, regions);
            walk(inner, region, regions);
        }
        PlanNode::MergeJoin { left, right, .. } => {
            walk(left, region, regions);
            walk(right, region, regions);
        }
        PlanNode::HashJoin {
            build,
            probe,
            spill_blocks,
            ..
        } => {
            let build_region = new_region(regions);
            walk(build, build_region, regions);
            if *spill_blocks > 0 {
                // Runs written while consuming the build side, read back
                // while probing.
                add_temp(regions, build_region, *spill_blocks, 0);
                add_temp(regions, region, 0, *spill_blocks);
            }
            walk(probe, region, regions);
        }
        PlanNode::Sort {
            child,
            spill_blocks,
            ..
        } => {
            let child_region = new_region(regions);
            walk(child, child_region, regions);
            if *spill_blocks > 0 {
                add_temp(regions, child_region, *spill_blocks, 0);
                add_temp(regions, region, 0, *spill_blocks);
            }
        }
        PlanNode::HashAggregate {
            child,
            spill_blocks,
            ..
        } => {
            let child_region = new_region(regions);
            walk(child, child_region, regions);
            if *spill_blocks > 0 {
                add_temp(regions, child_region, *spill_blocks, 0);
                add_temp(regions, region, 0, *spill_blocks);
            }
        }
        PlanNode::Apply { sub, main, .. } => {
            let sub_region = new_region(regions);
            walk(sub, sub_region, regions);
            walk(main, region, regions);
        }
        PlanNode::Insert {
            object,
            write_blocks,
            rows,
            child,
            ..
        } => {
            if let Some(c) = child {
                walk(c, region, regions);
            }
            region_add(
                regions,
                region,
                ObjectAccess {
                    object: *object,
                    blocks: *write_blocks,
                    rows: *rows,
                    kind: AccessKind::Write,
                },
            );
        }
        PlanNode::Update {
            object,
            write_blocks,
            rows,
            child,
            ..
        }
        | PlanNode::Delete {
            object,
            write_blocks,
            rows,
            child,
            ..
        } => {
            walk(child, region, regions);
            region_add(
                regions,
                region,
                ObjectAccess {
                    object: *object,
                    blocks: *write_blocks,
                    rows: *rows,
                    kind: AccessKind::Write,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(obj: u32, blocks: u64) -> PlanNode {
        PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64 * 50.0,
        }
    }

    #[test]
    fn merge_join_co_accesses_both_inputs() {
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "a=b".into(),
            rows: 100.0,
            left: Box::new(scan(0, 300)),
            right: Box::new(scan(1, 150)),
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].objects(), vec![ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn hash_join_cuts_build_side() {
        let plan = PhysicalPlan::new(PlanNode::HashJoin {
            on: "a=b".into(),
            rows: 100.0,
            build: Box::new(scan(0, 300)),
            probe: Box::new(scan(1, 150)),
            spill_blocks: 0,
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 2);
        // Root region holds the probe, the new region holds the build.
        assert_eq!(subs[0].objects(), vec![ObjectId(1)]);
        assert_eq!(subs[1].objects(), vec![ObjectId(0)]);
    }

    #[test]
    fn sort_cuts_pipeline_like_paper_example3() {
        // Shape of TPC-H Q5: hash-joined dims, sort, then merge join with
        // lineitem+supplier — {0,1} must not co-access {2,3}.
        let dims = PlanNode::HashJoin {
            on: "x".into(),
            rows: 1000.0,
            build: Box::new(scan(0, 50)),
            probe: Box::new(scan(1, 500)),
            spill_blocks: 0,
        };
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "y".into(),
            rows: 5000.0,
            left: Box::new(PlanNode::Sort {
                by: "k".into(),
                rows: 1000.0,
                spill_blocks: 0,
                child: Box::new(dims),
            }),
            right: Box::new(PlanNode::NestedLoops {
                on: "z".into(),
                rows: 5000.0,
                outer: Box::new(scan(2, 10_000)),
                inner: Box::new(scan(3, 100)),
            }),
        });
        let subs = plan.subplans();
        // Region holding 2,3 (root), region holding 1 (sort child pipeline
        // = probe of the hash join), region holding 0 (hash build).
        assert_eq!(subs.len(), 3);
        let with = |o: u32| {
            subs.iter()
                .position(|s| s.objects().contains(&ObjectId(o)))
                .unwrap()
        };
        assert_eq!(with(2), with(3));
        assert_ne!(with(0), with(2));
        assert_ne!(with(1), with(2));
        assert_ne!(with(0), with(1)); // hash build cut separates dims too
    }

    #[test]
    fn rid_lookup_random_access_same_region_as_seek() {
        let plan = PhysicalPlan::new(PlanNode::RidLookup {
            object: ObjectId(1),
            name: "orders".into(),
            blocks: 80,
            rows: 100.0,
            child: Box::new(PlanNode::IndexSeek {
                object: ObjectId(2),
                name: "idx".into(),
                blocks: 3,
                rows: 100.0,
            }),
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].objects(), vec![ObjectId(1), ObjectId(2)]);
        let table = subs[0]
            .accesses
            .iter()
            .find(|a| a.object == ObjectId(1))
            .unwrap();
        assert_eq!(table.kind, AccessKind::RandomRead);
    }

    #[test]
    fn sort_spill_splits_temp_io_across_regions() {
        let plan = PhysicalPlan::new(PlanNode::Sort {
            by: "k".into(),
            rows: 1e6,
            spill_blocks: 500,
            child: Box::new(scan(0, 1000)),
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 2);
        // Root region reads the runs back; child region wrote them.
        assert_eq!(subs[0].temp_read_blocks, 500);
        assert_eq!(subs[0].temp_write_blocks, 0);
        assert_eq!(subs[1].temp_write_blocks, 500);
    }

    #[test]
    fn in_memory_sort_has_no_temp_io_but_still_cuts() {
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "k".into(),
            rows: 10.0,
            left: Box::new(PlanNode::Sort {
                by: "k".into(),
                rows: 100.0,
                spill_blocks: 0,
                child: Box::new(scan(0, 10)),
            }),
            right: Box::new(scan(1, 10)),
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 2);
        // Object 1 in root region, object 0 below the sort.
        assert_eq!(subs[0].objects(), vec![ObjectId(1)]);
        assert_eq!(subs[1].objects(), vec![ObjectId(0)]);
    }

    #[test]
    fn update_write_same_region_as_locating_scan() {
        let plan = PhysicalPlan::new(PlanNode::Update {
            object: ObjectId(0),
            name: "t0".into(),
            write_blocks: 40,
            rows: 2000.0,
            child: Box::new(scan(0, 300)),
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].blocks_of(ObjectId(0)), 340);
        assert!(subs[0]
            .accesses
            .iter()
            .any(|a| a.kind == AccessKind::Write && a.blocks == 40));
    }

    #[test]
    fn total_blocks_of_sums_regions() {
        let plan = PhysicalPlan::new(PlanNode::HashJoin {
            on: "a".into(),
            rows: 1.0,
            build: Box::new(scan(0, 100)),
            probe: Box::new(scan(0, 100)), // self-join: same object both sides
            spill_blocks: 0,
        });
        assert_eq!(plan.total_blocks_of(ObjectId(0)), 200);
        assert_eq!(plan.objects(), vec![ObjectId(0)]);
    }

    #[test]
    fn values_insert_has_single_write_region() {
        let plan = PhysicalPlan::new(PlanNode::Insert {
            object: ObjectId(0),
            name: "t".into(),
            write_blocks: 1,
            rows: 1.0,
            child: None,
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].accesses[0].kind, AccessKind::Write);
    }

    #[test]
    fn apply_separates_scalar_subquery() {
        let plan = PhysicalPlan::new(PlanNode::Apply {
            rows: 10.0,
            sub: Box::new(scan(0, 50)),
            main: Box::new(scan(1, 500)),
        });
        let subs = plan.subplans();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].objects(), vec![ObjectId(1)]);
        assert_eq!(subs[1].objects(), vec![ObjectId(0)]);
    }

    #[test]
    fn total_io_includes_temp() {
        let plan = PhysicalPlan::new(PlanNode::Sort {
            by: "k".into(),
            rows: 1e6,
            spill_blocks: 500,
            child: Box::new(scan(0, 1000)),
        });
        assert_eq!(plan.total_io_blocks(), 1000 + 500 + 500);
    }
}
