//! `dblayout-par` — a std-only scoped-thread evaluation pool with a
//! deterministic reduction contract.
//!
//! TS-GREEDY's step-2 loop scores hundreds of candidate moves per
//! iteration through the Figure-7 cost model — the dominant hot path.
//! [`with_pool`] fans that scoring across a persistent worker pool while
//! keeping the search's output **byte-identical at any thread count**:
//!
//! * Work is split into *contiguous* chunks ([`chunk_range`], or
//!   [`weighted_bounds`] when items cost unequal work), so worker `w`
//!   always owns the same candidate indices for the same inputs — no work
//!   stealing, no racy assignment.
//! * Workers only *score*; they never adopt. The caller reduces the
//!   per-worker results in worker order, which is candidate-enumeration
//!   order, so tie-breaking ("earliest strictly-better candidate wins")
//!   matches a sequential scan exactly.
//! * Floating-point arithmetic happens per candidate against an immutable
//!   snapshot; no cross-candidate accumulation order depends on thread
//!   interleaving.
//!
//! The pool lives for one search (not one iteration) inside
//! [`std::thread::scope`]: the calling thread scores chunk 0 itself and up
//! to `threads − 1` helpers score the rest, so per-iteration dispatch costs
//! two channel hops per helper rather than a thread spawn, and no thread
//! idles while the others work. A helper starts at the first dispatch
//! that engages it, so a search whose iterations all score inline starts
//! no thread at all. A helper that dies mid-iteration (a panic
//! in the scoring closure) is tolerated: its chunk is recomputed inline by
//! the dispatcher, so a transient worker failure degrades throughput,
//! never correctness. See DESIGN.md §7 for the full determinism argument.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use dblayout_obs::counters::{self, Counter};

/// Worker threads the host offers, with a floor of 1 (the CLI's
/// `--threads` default; [`std::thread::available_parallelism`] can fail in
/// restricted environments, in which case parallelism is unavailable
/// anyway).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Adaptive chunking: how many of `threads` workers to actually engage for
/// `items` units of work.
///
/// At small scale a helper's hand-off costs more than the work it takes
/// over, so dispatch width scales with the work: one worker per
/// `min_chunk` items, clamped to
/// `[1, threads]`. `min_chunk == 0` disables adaptation and always engages
/// every worker (the escape hatch for tests that exercise the full fan-out
/// on small fixtures). Deterministic: a pure function of its inputs, so a
/// given instance sees the same dispatch widths at every thread count —
/// and a 1-thread run is unaffected entirely.
pub fn effective_workers(items: usize, threads: usize, min_chunk: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    if min_chunk == 0 {
        return threads;
    }
    (items / min_chunk).clamp(1, threads)
}

/// The contiguous slice of `0..len` owned by worker `w` of `workers`.
///
/// Balanced to within one item, deterministic in its inputs, and covering:
/// concatenating the ranges for `w = 0..workers` yields exactly `0..len`
/// in order — the property the in-order reduction relies on.
pub fn chunk_range(len: usize, workers: usize, w: usize) -> Range<usize> {
    let workers = workers.max(1);
    if w >= workers {
        return len..len;
    }
    let base = len / workers;
    let rem = len % workers;
    let start = w * base + w.min(rem);
    let size = base + usize::from(w < rem);
    start..(start + size).min(len)
}

/// Chunk boundaries for items of unequal work: worker `w` of `workers`
/// owns items `bounds[w]..bounds[w + 1]`, where `work[i]` is item `i`'s
/// cost. Item `i` goes to the worker whose [`chunk_range`] of the
/// `Σ work` units holds the work before it, so chunks carry near-equal
/// work, are deterministic in their inputs, and concatenate to
/// `0..work.len()` in order. Returns `workers + 1` entries.
pub fn weighted_bounds(work: &[usize], workers: usize) -> Vec<usize> {
    let workers = workers.max(1);
    let total: usize = work.iter().sum();
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0);
    let (mut before, mut i) = (0usize, 0usize);
    for w in 1..workers {
        let start = chunk_range(total, workers, w).start;
        while i < work.len() && before < start {
            before += work[i];
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(work.len());
    bounds
}

/// One helper's channel pair: jobs in, results out. A dedicated result
/// lane per helper (rather than one shared channel) means a dead helper is
/// detected by its closed channel instead of a hung `recv`.
struct Lane<J, O> {
    job_tx: Sender<Arc<J>>,
    result_rx: Receiver<O>,
}

/// Handle to a running evaluation pool; see [`with_pool`].
pub struct Pool<'scope, 'env: 'scope, J, O> {
    threads: usize,
    process: &'env (dyn Fn(usize, &J) -> O + Sync),
    scope: &'scope Scope<'scope, 'env>,
    /// `lanes[h]` is the helper that scores chunk `h + 1`; chunk 0 is the
    /// caller's. A helper starts at the first dispatch that engages it, so
    /// a pool that only ever dispatches one worker has none.
    lanes: RefCell<Vec<Lane<J, O>>>,
}

impl<'scope, 'env, J, O> Pool<'scope, 'env, J, O>
where
    J: Send + Sync + 'scope,
    O: Send + 'scope,
{
    /// The pool's worker count (at least 1; 1 means inline execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Helper threads started so far (at most `threads() − 1`).
    pub fn helpers(&self) -> usize {
        self.lanes.borrow().len()
    }

    /// Ships one job snapshot to the first `workers` lanes and collects
    /// their outputs in worker order (`outputs[w]` is worker `w`'s result)
    /// — the adaptive-chunking entry point (see [`effective_workers`]).
    ///
    /// The calling thread scores worker 0's chunk while the helpers score
    /// the others; helpers not yet running are started here. If a helper
    /// died (its scoring closure panicked on an earlier job), its chunk is
    /// recomputed inline here with the same `(w, job)` arguments, so the
    /// returned vector always has `workers` entries with identical content
    /// to an all-healthy run.
    ///
    /// `workers` is clamped to `[1, threads()]`. With `workers == 1` the
    /// closure runs inline as worker 0 with zero channel hops, and starts
    /// no helper — small iterations fall back to exactly the serial path.
    /// The returned vector has `workers` entries; the caller's `process`
    /// must derive chunk ownership from the job (which therefore carries
    /// the engaged-worker count, not the pool width).
    pub fn dispatch_to(&self, job: Arc<J>, workers: usize) -> Vec<O> {
        let workers = workers.clamp(1, self.threads);
        self.start_helpers(workers - 1);
        let lanes = self.lanes.borrow();
        let helpers = &lanes[..workers - 1];
        let delivered: Vec<bool> = helpers
            .iter()
            .map(|lane| lane.job_tx.send(job.clone()).is_ok())
            .collect();
        let mut outputs = Vec::with_capacity(workers);
        outputs.push((self.process)(0, &job));
        for (h, lane) in helpers.iter().enumerate() {
            let out = if delivered[h] {
                lane.result_rx.recv().ok()
            } else {
                None
            };
            outputs.push(out.unwrap_or_else(|| {
                // Scheduling-class accounting: fallbacks vary with timing
                // and never enter the deterministic fingerprint.
                counters::incr(Counter::ParPoolFallbacks);
                (self.process)(h + 1, &job)
            }));
        }
        outputs
    }

    /// Starts helpers until `count` are running.
    fn start_helpers(&self, count: usize) {
        let mut lanes = self.lanes.borrow_mut();
        while lanes.len() < count {
            let w = lanes.len() + 1;
            let process = self.process;
            let (job_tx, job_rx) = channel::<Arc<J>>();
            let (result_tx, result_rx) = channel::<O>();
            self.scope.spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    // A panicking scorer must not unwind through the scope
                    // (that would re-raise at join and kill the search the
                    // dispatcher just rescued): catch it, drop this
                    // worker's lanes, and let `dispatch_to` recompute the
                    // chunk inline. The job snapshot is immutable, so a
                    // mid-score panic leaves no partial state behind.
                    let out =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process(w, &job)));
                    drop(job); // release the snapshot before handing back
                    match out {
                        Ok(out) => {
                            if result_tx.send(out).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            });
            lanes.push(Lane { job_tx, result_rx });
        }
    }
}

/// Runs `body` with a pool of `threads` workers — the calling thread and
/// up to `threads − 1` helpers, each started at the first dispatch that
/// engages it — each applying `process` to its chunk of every dispatched
/// job; tears the pool down (joining every started helper) before
/// returning `body`'s result.
///
/// `process(w, &job)` must derive worker `w`'s share of the work from the
/// job itself (conventionally via [`chunk_range`]) and must not mutate
/// shared state — the determinism contract is that `process` is a pure
/// function of `(w, job)`. A pool whose dispatches never engage more than
/// one worker (always so at `threads <= 1`) starts no thread and evaluates
/// inline.
pub fn with_pool<J, O, R>(
    threads: usize,
    process: &(impl Fn(usize, &J) -> O + Sync),
    body: impl FnOnce(&Pool<'_, '_, J, O>) -> R,
) -> R
where
    J: Send + Sync,
    O: Send,
{
    std::thread::scope(|scope| {
        let pool = Pool {
            threads: threads.max(1),
            process,
            scope,
            lanes: RefCell::new(Vec::new()),
        };
        let out = body(&pool);
        // Dropping the pool closes every job channel; helpers drain and
        // exit, and the scope joins them.
        drop(pool);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn chunk_ranges_partition_the_input() {
        for len in [0usize, 1, 2, 7, 8, 9, 100] {
            for workers in [1usize, 2, 3, 4, 8, 13] {
                let mut covered = Vec::new();
                for w in 0..workers {
                    let r = chunk_range(len, workers, w);
                    assert!(r.start <= r.end);
                    covered.extend(r);
                }
                let expected: Vec<usize> = (0..len).collect();
                assert_eq!(covered, expected, "len={len} workers={workers}");
                // Balanced to within one item.
                let sizes: Vec<usize> = (0..workers)
                    .map(|w| chunk_range(len, workers, w).len())
                    .collect();
                let (min, max) = (sizes.iter().min(), sizes.iter().max());
                assert!(max.unwrap_or(&0) - min.unwrap_or(&0) <= 1);
            }
        }
        // Out-of-range workers own nothing.
        assert!(chunk_range(10, 4, 4).is_empty());
    }

    #[test]
    fn weighted_bounds_partition_the_input_by_work() {
        let mut seed = 0x9E37_79B9u64;
        for len in [0usize, 1, 2, 7, 64, 200] {
            let work: Vec<usize> = (0..len)
                .map(|_| {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    if seed >> 62 == 0 {
                        50 + (seed >> 40) as usize % 50
                    } else {
                        1
                    }
                })
                .collect();
            let total: usize = work.iter().sum();
            let heaviest = work.iter().copied().max().unwrap_or(0);
            for workers in [1usize, 2, 3, 4, 8] {
                let bounds = weighted_bounds(&work, workers);
                assert_eq!(bounds.len(), workers + 1);
                assert_eq!((bounds[0], bounds[workers]), (0, len));
                for w in 0..workers {
                    assert!(bounds[w] <= bounds[w + 1], "len={len} workers={workers}");
                    let chunk: usize = work[bounds[w]..bounds[w + 1]].iter().sum();
                    assert!(
                        chunk <= total.div_ceil(workers) + heaviest,
                        "len={len} workers={workers} w={w}: {chunk} of {total}"
                    );
                }
            }
            // Unit work reproduces the count-balanced split.
            let ones = vec![1usize; len];
            for workers in [1usize, 2, 3, 4, 8] {
                let bounds = weighted_bounds(&ones, workers);
                for w in 0..workers {
                    assert_eq!(bounds[w]..bounds[w + 1], chunk_range(len, workers, w));
                }
            }
        }
    }

    #[test]
    fn dispatch_outputs_are_identical_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let score = |w: usize, job: &Vec<u64>| -> Vec<u64> {
            chunk_range(job.len(), 4, w)
                .map(|i| job[i] * 3 + 1)
                .collect()
        };
        // Reference: 4 "workers" inline.
        let reference: Vec<u64> = (0..4).flat_map(|w| score(w, &items)).collect();
        for threads in [1usize, 2, 4, 8] {
            let score_t = |w: usize, job: &Vec<u64>| -> Vec<u64> {
                chunk_range(job.len(), threads, w)
                    .map(|i| job[i] * 3 + 1)
                    .collect()
            };
            let flat: Vec<u64> = with_pool(threads, &score_t, |pool| {
                assert_eq!(pool.threads(), threads.max(1));
                pool.dispatch_to(Arc::new(items.clone()), pool.threads())
                    .into_iter()
                    .flatten()
                    .collect()
            });
            assert_eq!(flat, reference, "threads={threads}");
        }
    }

    #[test]
    fn pool_survives_repeated_dispatch() {
        let sum = |w: usize, job: &Vec<u64>| -> u64 {
            chunk_range(job.len(), 3, w).map(|i| job[i]).sum()
        };
        with_pool(3, &sum, |pool| {
            for round in 0..10u64 {
                let items: Vec<u64> = (0..round * 10).collect();
                let total: u64 = pool
                    .dispatch_to(Arc::new(items.clone()), pool.threads())
                    .into_iter()
                    .sum();
                assert_eq!(total, items.iter().sum::<u64>());
            }
        });
    }

    #[test]
    fn dead_worker_chunk_is_recomputed_inline() {
        // Worker 1 panics on its first job only; the dispatcher must
        // recover its chunk inline and later dispatches must keep working.
        static TRIPPED: AtomicBool = AtomicBool::new(false);
        TRIPPED.store(false, Ordering::SeqCst);
        let score = |w: usize, job: &Vec<u64>| -> u64 {
            if w == 1 && !TRIPPED.swap(true, Ordering::SeqCst) {
                panic!("induced worker failure");
            }
            chunk_range(job.len(), 3, w).map(|i| job[i]).sum()
        };
        with_pool(3, &score, |pool| {
            let items: Vec<u64> = (0..30).collect();
            let expected: u64 = items.iter().sum();
            let first: u64 = pool
                .dispatch_to(Arc::new(items.clone()), pool.threads())
                .into_iter()
                .sum();
            assert_eq!(first, expected);
            // Worker 1 is gone; its chunk keeps being served inline.
            let second: u64 = pool
                .dispatch_to(Arc::new(items), pool.threads())
                .into_iter()
                .sum();
            assert_eq!(second, expected);
        });
    }

    #[test]
    fn effective_workers_scales_with_work() {
        assert_eq!(effective_workers(0, 4, 256), 1);
        assert_eq!(effective_workers(255, 4, 256), 1);
        assert_eq!(effective_workers(512, 4, 256), 2);
        assert_eq!(effective_workers(10_000, 4, 256), 4);
        // 0 disables adaptation; 1 thread is always inline.
        assert_eq!(effective_workers(1, 4, 0), 4);
        assert_eq!(effective_workers(1_000_000, 1, 256), 1);
    }

    #[test]
    fn dispatch_to_engages_only_requested_lanes() {
        type Job = (Vec<u64>, usize);
        let sum = |w: usize, job: &Job| -> u64 {
            chunk_range(job.0.len(), job.1, w).map(|i| job.0[i]).sum()
        };
        with_pool(4, &sum, |pool| {
            let items: Vec<u64> = (0..41).collect();
            let expected: u64 = items.iter().sum();
            for workers in [1usize, 2, 3, 4, 9] {
                let eff = workers.clamp(1, 4);
                let outs = pool.dispatch_to(Arc::new((items.clone(), eff)), workers);
                assert_eq!(outs.len(), eff, "workers={workers}");
                assert_eq!(outs.iter().sum::<u64>(), expected, "workers={workers}");
            }
        });
    }

    #[test]
    fn the_caller_scores_chunk_zero() {
        let caller = std::thread::current().id();
        let on_caller = move |_w: usize, _job: &()| std::thread::current().id() == caller;
        with_pool(3, &on_caller, |pool| {
            for workers in [1usize, 2, 3] {
                let outs = pool.dispatch_to(Arc::new(()), workers);
                assert!(outs[0], "workers={workers}");
                assert!(outs[1..].iter().all(|&here| !here), "workers={workers}");
            }
        });
    }

    #[test]
    fn helpers_start_only_when_a_dispatch_engages_them() {
        let caller = std::thread::current().id();
        let on_caller = move |_w: usize, _job: &()| std::thread::current().id() == caller;
        with_pool(4, &on_caller, |pool| {
            for _ in 0..5 {
                assert_eq!(pool.dispatch_to(Arc::new(()), 1), vec![true]);
            }
            assert_eq!(pool.helpers(), 0, "a 1-worker dispatch started a helper");
            assert_eq!(pool.dispatch_to(Arc::new(()), 3), vec![true, false, false]);
            assert_eq!(pool.helpers(), 2);
            // Started helpers stay; a narrower dispatch starts none.
            assert_eq!(pool.dispatch_to(Arc::new(()), 2), vec![true, false]);
            assert_eq!(pool.helpers(), 2);
            assert_eq!(pool.dispatch_to(Arc::new(()), 9).len(), 4);
            assert_eq!(pool.helpers(), 3);
        });
    }

    #[test]
    fn single_thread_runs_inline_without_workers() {
        let tid = std::thread::current().id();
        let check = move |_w: usize, _job: &()| -> bool { std::thread::current().id() == tid };
        let inline = with_pool(1, &check, |pool| {
            pool.dispatch_to(Arc::new(()), pool.threads())
        });
        assert_eq!(inline, vec![true]);
        // threads == 0 is clamped to 1.
        let clamped = with_pool(0, &check, |pool| {
            pool.dispatch_to(Arc::new(()), pool.threads())
        });
        assert_eq!(clamped, vec![true]);
    }
}
