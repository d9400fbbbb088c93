//! I/O trace generation from non-blocking sub-plans.
//!
//! Within one sub-plan every object access is pipelined with every other
//! (merge joins, nested loops, RID lookups), so their block streams
//! *interleave* — this interleaving is precisely what creates the random
//! I/O the paper's layout advisor optimizes away. Streams are merged
//! proportionally to their block counts (the same assumption as the paper's
//! cost model, §5: "objects that are co-accessed on a disk drive … are
//! accessed at a rate proportional to the number of blocks accessed of each
//! object"), in turns of `chunk` blocks to model read-ahead.

use dblayout_planner::{AccessKind, Subplan};

/// One block-sized I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequest {
    /// Catalog object id.
    pub object: u32,
    /// Logical block within the object.
    pub block: u64,
    /// Write (vs. read).
    pub write: bool,
}

/// Logical block sequence for one access of `blocks` blocks into an object
/// of `size` blocks.
fn access_pattern(kind: AccessKind, blocks: u64, size: u64, seed: u64) -> Vec<u64> {
    if size == 0 {
        return Vec::new();
    }
    // More blocks accessed than the object holds means re-reads (e.g. the
    // multiple lineitem accesses of TPC-H Q21 merged into one sub-plan
    // entry): patterns wrap around, so the buffer pool sees true re-reads.
    match kind {
        AccessKind::SequentialRead => (0..blocks).map(|k| k % size).collect(),
        AccessKind::RandomRead => scattered(blocks, size, seed),
        AccessKind::Write => {
            // Full-object writes (bulk loads, full-table updates) stream
            // sequentially; partial writes scatter like the updates they are.
            if blocks * 2 >= size {
                (0..blocks).map(|k| k % size).collect()
            } else {
                scattered(blocks, size, seed)
            }
        }
    }
}

/// `count` pseudo-random block indices in `[0, size)`: a strided walk with
/// a stride coprime to `size`, so indices only repeat after a full cycle
/// (`count > size` wraps — re-reads). Deterministic for a given seed.
fn scattered(count: u64, size: u64, seed: u64) -> Vec<u64> {
    if size == 0 {
        return Vec::new();
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "golden-ratio stride seed: value is in [0, size], any nearby integer works"
    )]
    let mut stride = (size as f64 * 0.618_034).round() as u64 % size;
    stride = stride.max(1);
    while gcd(stride, size) != 1 {
        stride += 1;
        if stride >= size {
            stride = 1;
            break;
        }
    }
    let start = seed % size;
    (0..count).map(|k| (start + k * stride) % size).collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Builds the interleaved request trace of one sub-plan.
///
/// * `object_sizes[id]` gives each catalog object's size in blocks;
/// * `chunk` is the read-ahead unit: each stream emits up to `chunk`
///   consecutive requests per turn before another stream takes over;
/// * `seed` makes scattered patterns deterministic per statement.
///
/// A sub-plan with a single access degenerates to that access's pattern —
/// fully sequential for a scan, which is the I/O-parallel best case.
pub fn subplan_trace(
    subplan: &Subplan,
    object_sizes: &[u64],
    chunk: u64,
    seed: u64,
) -> Vec<BlockRequest> {
    let chunk = chunk.max(1);
    struct Stream {
        object: u32,
        write: bool,
        pattern: Vec<u64>,
        emitted: usize,
    }
    let mut streams: Vec<Stream> = subplan
        .accesses
        .iter()
        .enumerate()
        .filter(|(_, a)| a.blocks > 0)
        .map(|(i, a)| {
            let size = object_sizes[a.object.index()];
            Stream {
                object: a.object.0,
                write: a.kind == AccessKind::Write,
                pattern: access_pattern(a.kind, a.blocks, size, seed.wrapping_add(i as u64 * 7919)),
                emitted: 0,
            }
        })
        .collect();

    let total: usize = streams.iter().map(|s| s.pattern.len()).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        // Pick the stream that is proportionally furthest behind.
        let mut pick = usize::MAX;
        let mut best = f64::INFINITY;
        for (i, s) in streams.iter().enumerate() {
            if s.emitted >= s.pattern.len() {
                continue;
            }
            let progress = s.emitted as f64 / s.pattern.len() as f64;
            if progress < best {
                best = progress;
                pick = i;
            }
        }
        let s = &mut streams[pick];
        let take = chunk.min((s.pattern.len() - s.emitted) as u64);
        for _ in 0..take {
            out.push(BlockRequest {
                object: s.object,
                block: s.pattern[s.emitted],
                write: s.write,
            });
            s.emitted += 1;
        }
    }
    out
}

/// Merges several request streams into one, proportionally to their
/// lengths (the same progress rule as sub-plan interleaving): used by the
/// simulator's concurrent-execution mode, where whole statements' traces
/// time-share the disks.
pub fn merge_proportional(streams: Vec<Vec<BlockRequest>>) -> Vec<BlockRequest> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut emitted = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut pick = usize::MAX;
        let mut best = f64::INFINITY;
        for (i, s) in streams.iter().enumerate() {
            if emitted[i] >= s.len() {
                continue;
            }
            let progress = emitted[i] as f64 / s.len() as f64;
            if progress < best {
                best = progress;
                pick = i;
            }
        }
        out.push(streams[pick][emitted[pick]]);
        emitted[pick] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::ObjectId;
    use dblayout_planner::ObjectAccess;

    fn sub(accesses: Vec<(u32, u64, AccessKind)>) -> Subplan {
        let mut s = Subplan::default();
        for (o, b, k) in accesses {
            s.add(ObjectAccess {
                object: ObjectId(o),
                blocks: b,
                rows: b as f64,
                kind: k,
            });
        }
        s
    }

    #[test]
    fn single_sequential_stream_is_in_order() {
        let s = sub(vec![(0, 10, AccessKind::SequentialRead)]);
        let t = subplan_trace(&s, &[100], 4, 1);
        assert_eq!(t.len(), 10);
        for (k, r) in t.iter().enumerate() {
            assert_eq!(r.block, k as u64);
            assert!(!r.write);
        }
    }

    #[test]
    fn two_streams_interleave_proportionally() {
        let s = sub(vec![
            (0, 80, AccessKind::SequentialRead),
            (1, 20, AccessKind::SequentialRead),
        ]);
        let t = subplan_trace(&s, &[100, 100], 1, 1);
        assert_eq!(t.len(), 100);
        // In every prefix, stream 0 leads by roughly its 4:1 share.
        let halfway: Vec<_> = t.iter().take(50).collect();
        let o0 = halfway.iter().filter(|r| r.object == 0).count();
        assert!((35..=45).contains(&o0), "got {o0}");
        // Interleaved, not concatenated: both objects appear early.
        assert!(t.iter().take(10).any(|r| r.object == 1));
    }

    #[test]
    fn chunking_groups_consecutive_requests() {
        let s = sub(vec![
            (0, 40, AccessKind::SequentialRead),
            (1, 40, AccessKind::SequentialRead),
        ]);
        let t = subplan_trace(&s, &[100, 100], 8, 1);
        // Runs of the same object should be 8 long.
        let mut run = 1;
        let mut min_run = usize::MAX;
        for w in t.windows(2) {
            if w[0].object == w[1].object {
                run += 1;
            } else {
                min_run = min_run.min(run);
                run = 1;
            }
        }
        assert!(min_run >= 8, "min run {min_run}");
    }

    #[test]
    fn scattered_indices_distinct_and_in_range() {
        let idx = scattered(50, 1000, 42);
        assert_eq!(idx.len(), 50);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        assert!(idx.iter().all(|&i| i < 1000));
    }

    #[test]
    fn scattered_requests_more_than_size_wrap() {
        let idx = scattered(500, 100, 7);
        assert_eq!(idx.len(), 500);
        // Exactly 5 full cycles over the 100 blocks.
        assert_eq!(idx.iter().filter(|&&i| i == idx[0]).count(), 5);
    }

    #[test]
    fn random_read_access_is_scattered() {
        let s = sub(vec![(0, 20, AccessKind::RandomRead)]);
        let t = subplan_trace(&s, &[10_000], 1, 3);
        // Not the sequential prefix.
        assert!(t.iter().any(|r| r.block >= 20));
    }

    #[test]
    fn full_object_write_is_sequential() {
        let s = sub(vec![(0, 100, AccessKind::Write)]);
        let t = subplan_trace(&s, &[100], 1, 3);
        assert!(t.iter().all(|r| r.write));
        assert_eq!(t[0].block, 0);
        assert_eq!(t[99].block, 99);
    }

    #[test]
    fn trace_is_deterministic() {
        let s = sub(vec![
            (0, 30, AccessKind::RandomRead),
            (1, 10, AccessKind::SequentialRead),
        ]);
        let a = subplan_trace(&s, &[500, 500], 2, 9);
        let b = subplan_trace(&s, &[500, 500], 2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn rereads_wrap_around_object() {
        let s = sub(vec![(0, 100, AccessKind::SequentialRead)]);
        let t = subplan_trace(&s, &[30], 1, 1);
        assert_eq!(t.len(), 100);
        assert_eq!(t[30].block, 0, "second pass restarts at block 0");
    }
}
