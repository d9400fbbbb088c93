//! Block-granularity allocation of objects onto disks.
//!
//! Paper §2.1: "the storage engine component … distributes the pages of the
//! object in a particular manner (e.g., round robin fashion) across the disk
//! drives. The allocation is done not at the granularity of a page, but at
//! the granularity of a block". We reproduce SQL Server's proportional-fill
//! round robin: logical block `k` of an object goes to the eligible disk
//! with the largest accumulated deficit (a Bresenham walk over the fraction
//! row), and an object's blocks on a given disk occupy a contiguous address
//! run within that disk's file.

use crate::layout::Layout;

/// Where one logical object block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLocation {
    /// Disk index.
    pub disk: u16,
    /// Block address within the disk.
    pub addr: u64,
}

/// Materialized mapping from `(object, logical block)` to disk addresses.
#[derive(Debug, Clone)]
pub struct AllocationMap {
    /// `map[i][k]` = location of logical block `k` of object `i`.
    map: Vec<Vec<BlockLocation>>,
    /// Blocks used per disk.
    disk_used: Vec<u64>,
}

impl AllocationMap {
    /// Allocates every object of `layout` onto its disks.
    ///
    /// Objects are placed in object-id order; per disk, each object's blocks
    /// form one contiguous run starting at the disk's current fill point.
    /// Within an object, logical block order round-robins across its disks
    /// proportionally to the fractions, so a parallel scan reads
    /// sequentially on every disk.
    pub fn build(layout: &Layout) -> Self {
        let m = layout.disk_count();
        let mut disk_used = vec![0u64; m];
        let mut map = Vec::with_capacity(layout.object_count());

        for i in 0..layout.object_count() {
            let size = layout.object_size(i);
            let per_disk = layout.blocks_on(i);
            // Run start for this object on each disk.
            let run_start: Vec<u64> = (0..m).map(|j| disk_used[j]).collect();
            let mut next_in_run = vec![0u64; m];
            // Bresenham proportional fill: accumulate fraction credit, pick
            // the disk with the largest credit that still has quota left.
            let fracs = layout.fractions_of(i);
            let mut credit = vec![0.0f64; m];
            let mut locations = Vec::with_capacity(usize::try_from(size).unwrap_or(0));
            #[expect(
                clippy::cast_possible_truncation,
                reason = "j indexes the layout's drives; the simulator models tens of drives, far below u16::MAX"
            )]
            for _k in 0..size {
                for j in 0..m {
                    credit[j] += fracs[j];
                }
                let mut pick = None;
                let mut best = f64::NEG_INFINITY;
                for j in 0..m {
                    if next_in_run[j] < per_disk[j] && credit[j] > best {
                        best = credit[j];
                        pick = Some(j);
                    }
                }
                let j = pick.expect("apportioned quotas cover the object");
                credit[j] -= 1.0;
                locations.push(BlockLocation {
                    disk: j as u16,
                    addr: run_start[j] + next_in_run[j],
                });
                next_in_run[j] += 1;
            }
            for j in 0..m {
                disk_used[j] += per_disk[j];
            }
            map.push(locations);
        }
        Self { map, disk_used }
    }

    /// Location of logical block `k` of object `i`.
    pub fn locate(&self, object: usize, block: u64) -> BlockLocation {
        self.map[object][usize::try_from(block).unwrap_or(usize::MAX)]
    }

    /// Number of blocks allocated on each disk.
    pub fn disk_used(&self) -> &[u64] {
        &self.disk_used
    }

    /// Number of objects mapped.
    pub fn object_count(&self) -> usize {
        self.map.len()
    }

    /// Size (blocks) of an object.
    pub fn object_size(&self, object: usize) -> u64 {
        self.map[object].len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::uniform_disks;
    use crate::layout::Layout;

    #[test]
    fn every_block_mapped_runs_contiguous() {
        let disks = uniform_disks(3, 10_000, 10.0, 20.0);
        let layout = Layout::full_striping(vec![300, 150], &disks);
        let alloc = AllocationMap::build(&layout);
        assert_eq!(alloc.object_size(0), 300);
        assert_eq!(alloc.object_size(1), 150);
        // Per-disk addresses of object 0 form a contiguous increasing run.
        for disk in 0..3u16 {
            let addrs: Vec<u64> = (0..300)
                .map(|k| alloc.locate(0, k))
                .filter(|l| l.disk == disk)
                .map(|l| l.addr)
                .collect();
            assert_eq!(addrs.len(), 100);
            for (i, w) in addrs.windows(2).enumerate() {
                assert_eq!(w[1], w[0] + 1, "gap at {i}");
            }
        }
    }

    #[test]
    fn round_robin_interleaves_logical_order() {
        let disks = uniform_disks(2, 10_000, 10.0, 20.0);
        let layout = Layout::full_striping(vec![10], &disks);
        let alloc = AllocationMap::build(&layout);
        // Equal fractions: logical blocks alternate between the two disks.
        let pattern: Vec<u16> = (0..10).map(|k| alloc.locate(0, k).disk).collect();
        let d0 = pattern.iter().filter(|&&d| d == 0).count();
        assert_eq!(d0, 5);
        // No disk gets two consecutive logical blocks under a 50/50 split.
        assert!(pattern.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn objects_stack_on_disks() {
        let disks = uniform_disks(2, 10_000, 10.0, 20.0);
        let layout = Layout::full_striping(vec![10, 10], &disks);
        let alloc = AllocationMap::build(&layout);
        // Object 1's run on disk 0 starts after object 0's.
        let o0_max = (0..10)
            .map(|k| alloc.locate(0, k))
            .filter(|l| l.disk == 0)
            .map(|l| l.addr)
            .max()
            .unwrap();
        let o1_min = (0..10)
            .map(|k| alloc.locate(1, k))
            .filter(|l| l.disk == 0)
            .map(|l| l.addr)
            .min()
            .unwrap();
        assert!(o1_min > o0_max);
        assert_eq!(alloc.disk_used(), &[10, 10]);
    }

    #[test]
    fn single_disk_placement_is_fully_sequential() {
        let _disks = uniform_disks(2, 10_000, 10.0, 20.0);
        let mut layout = Layout::empty(vec![50], 2);
        layout.place(0, &[(1, 1.0)]);
        let alloc = AllocationMap::build(&layout);
        for k in 0..50 {
            let l = alloc.locate(0, k);
            assert_eq!(l.disk, 1);
            assert_eq!(l.addr, k);
        }
    }

    #[test]
    fn proportional_fill_skews_toward_weight() {
        let _disks = uniform_disks(2, 100_000, 10.0, 20.0);
        let mut layout = Layout::empty(vec![100], 2);
        layout.place(0, &[(0, 3.0), (1, 1.0)]);
        let alloc = AllocationMap::build(&layout);
        let d0 = (0..100).filter(|&k| alloc.locate(0, k).disk == 0).count();
        assert_eq!(d0, 75);
    }
}
