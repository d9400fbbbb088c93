//! LRU buffer pool over `(object, block)` pages.
//!
//! The paper's machine had 256 MB of RAM; within-query re-reads (e.g. the
//! multiple `lineitem` accesses of TPC-H Q21) hit the cache in the real
//! system, which is exactly the effect the paper blames for its worst
//! cost-model error (§7.2: "reflects the shortcoming of the cost model in
//! capturing effects of buffering"). The simulator models it so that the
//! reproduction exhibits the same estimated-vs-actual gap.

use std::collections::BTreeMap;

/// A fixed-capacity LRU cache of 64 KB blocks keyed by `(object, block)`.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// key -> LRU tick of last touch
    resident: BTreeMap<(u32, u64), u64>,
    tick: u64,
}

impl BufferPool {
    /// Creates a pool holding `capacity_blocks` blocks (0 disables caching).
    pub fn new(capacity_blocks: usize) -> Self {
        Self {
            capacity: capacity_blocks,
            resident: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Touches a block: returns `true` on a hit (no disk I/O needed) and
    /// `false` on a miss (the block is fetched and cached, evicting LRU).
    pub fn access(&mut self, object: u32, block: u64) -> bool {
        self.tick += 1;
        if self.capacity == 0 {
            return false;
        }
        let key = (object, block);
        if let Some(t) = self.resident.get_mut(&key) {
            *t = self.tick;
            return true;
        }
        if self.resident.len() >= self.capacity {
            // Evict the least recently used entry. A linear scan keeps the
            // structure simple; pool sizes are a few thousand entries and
            // eviction only happens once the pool is full.
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &t)| t) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(key, self.tick);
        false
    }

    /// Drops all cached blocks (a "cold run" boundary).
    pub fn clear(&mut self) {
        self.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut p = BufferPool::new(10);
        assert!(!p.access(1, 5));
        assert!(p.access(1, 5));
    }

    #[test]
    fn capacity_zero_never_hits() {
        let mut p = BufferPool::new(0);
        assert!(!p.access(1, 5));
        assert!(!p.access(1, 5));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut p = BufferPool::new(2);
        p.access(0, 0);
        p.access(0, 1);
        p.access(0, 0); // refresh block 0
        p.access(0, 2); // evicts block 1
        assert!(
            p.access(0, 0),
            "block 0 was refreshed, must still be resident"
        );
        assert!(!p.access(0, 1), "block 1 was LRU, must be gone");
    }

    #[test]
    fn clear_empties_pool() {
        let mut p = BufferPool::new(10);
        p.access(1, 1);
        p.clear();
        assert!(!p.access(1, 1));
    }

    #[test]
    fn distinct_objects_do_not_collide() {
        let mut p = BufferPool::new(10);
        p.access(1, 7);
        assert!(!p.access(2, 7));
        assert!(p.access(1, 7));
    }
}
