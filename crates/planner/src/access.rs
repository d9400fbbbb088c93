//! Object accesses and non-blocking sub-plans.
//!
//! These are the artifacts the advisor and the disk simulator consume: for
//! each *non-blocking sub-plan* (maximal pipelined region of the execution
//! plan, paper §4.2), which catalog objects are touched, how many blocks of
//! each, and whether sequentially or randomly, reading or writing.

use dblayout_catalog::ObjectId;

/// How an object is accessed within a sub-plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Sequential read (scan, clustered range scan, merge-join input).
    SequentialRead,
    /// Random-ish read (RID lookups, nested-loops index probes).
    RandomRead,
    /// Write (INSERT/UPDATE/DELETE block dirtying).
    Write,
}

impl AccessKind {
    /// True for either read kind.
    pub fn is_read(self) -> bool {
        !matches!(self, AccessKind::Write)
    }
}

/// One object touched by one sub-plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectAccess {
    /// The catalog object.
    pub object: ObjectId,
    /// Estimated blocks of the object accessed in this sub-plan —
    /// the paper's `B(|R_i|, P)`.
    pub blocks: u64,
    /// Estimated rows flowing from this access (for diagnostics).
    pub rows: f64,
    /// Sequential / random / write.
    pub kind: AccessKind,
}

/// A maximal pipelined region of the plan: every object here is
/// *co-accessed* with every other (paper §4: "non-blocking subplan").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Subplan {
    /// Object accesses in this region. An object may appear once per access
    /// style; accesses of the same object and kind are merged.
    pub accesses: Vec<ObjectAccess>,
    /// Blocks written to tempdb by blocking operators that spill while
    /// *consuming* this region's output (sort runs, hash partitions).
    pub temp_write_blocks: u64,
    /// Blocks read back from tempdb at the start of this region (reading
    /// sorted runs / spilled partitions produced by an earlier region).
    pub temp_read_blocks: u64,
}

impl Subplan {
    /// Adds an access, merging with an existing entry for the same object
    /// and kind (Figure 6 accumulates block counts per object).
    pub fn add(&mut self, access: ObjectAccess) {
        if access.blocks == 0 {
            return;
        }
        if let Some(existing) = self
            .accesses
            .iter_mut()
            .find(|a| a.object == access.object && a.kind == access.kind)
        {
            existing.blocks += access.blocks;
            existing.rows += access.rows;
        } else {
            self.accesses.push(access);
        }
    }

    /// Distinct objects touched.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.accesses.iter().map(|a| a.object).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Total blocks accessed of `object` in this sub-plan (over all kinds).
    pub fn blocks_of(&self, object: ObjectId) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.object == object)
            .map(|a| a.blocks)
            .sum()
    }

    /// True when no object or temp I/O happens here.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty() && self.temp_write_blocks == 0 && self.temp_read_blocks == 0
    }
}

/// Estimated number of distinct blocks touched by `k` random row fetches
/// into an object of `blocks` blocks (Cardenas' formula
/// `B·(1 − (1 − 1/B)^k)`), saturating at `blocks`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "Cardenas estimate: touched is in [0, blocks] by construction and clamped right here"
)]
pub fn cardenas_blocks(k: f64, blocks: u64) -> u64 {
    if blocks == 0 || k <= 0.0 {
        return 0;
    }
    let b = blocks as f64;
    let touched = b * (1.0 - (1.0 - 1.0 / b).powf(k));
    (touched.ceil() as u64).clamp(1, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(obj: u32, blocks: u64, kind: AccessKind) -> ObjectAccess {
        ObjectAccess {
            object: ObjectId(obj),
            blocks,
            rows: blocks as f64,
            kind,
        }
    }

    #[test]
    fn add_merges_same_object_and_kind() {
        let mut s = Subplan::default();
        s.add(acc(1, 10, AccessKind::SequentialRead));
        s.add(acc(1, 5, AccessKind::SequentialRead));
        assert_eq!(s.accesses.len(), 1);
        assert_eq!(s.accesses[0].blocks, 15);
    }

    #[test]
    fn add_keeps_kinds_separate() {
        let mut s = Subplan::default();
        s.add(acc(1, 10, AccessKind::SequentialRead));
        s.add(acc(1, 5, AccessKind::RandomRead));
        assert_eq!(s.accesses.len(), 2);
        assert_eq!(s.blocks_of(ObjectId(1)), 15);
    }

    #[test]
    fn zero_block_accesses_dropped() {
        let mut s = Subplan::default();
        s.add(acc(1, 0, AccessKind::SequentialRead));
        assert!(s.is_empty());
    }

    #[test]
    fn objects_deduped_sorted() {
        let mut s = Subplan::default();
        s.add(acc(3, 1, AccessKind::SequentialRead));
        s.add(acc(1, 1, AccessKind::SequentialRead));
        s.add(acc(3, 1, AccessKind::RandomRead));
        assert_eq!(s.objects(), vec![ObjectId(1), ObjectId(3)]);
    }

    #[test]
    fn cardenas_small_k_about_k() {
        // Few random fetches into a huge object touch ~k blocks.
        assert_eq!(cardenas_blocks(10.0, 1_000_000), 10);
    }

    #[test]
    fn cardenas_saturates_at_blocks() {
        assert_eq!(cardenas_blocks(1e9, 100), 100);
    }

    #[test]
    fn cardenas_edge_cases() {
        assert_eq!(cardenas_blocks(0.0, 100), 0);
        assert_eq!(cardenas_blocks(5.0, 0), 0);
        assert_eq!(cardenas_blocks(0.5, 100), 1);
    }

    #[test]
    fn cardenas_monotone_in_k() {
        let mut prev = 0;
        for k in [1.0, 10.0, 100.0, 1000.0, 10_000.0] {
            let b = cardenas_blocks(k, 500);
            assert!(b >= prev);
            prev = b;
        }
    }
}
