//! The fixed-iteration timer behind `benches/micro.rs` and
//! `benches/server.rs`.
//!
//! Each bench runs its routine a fixed number of times, a constant at the
//! call site sized to a few tenths of a second on the 2-core reference
//! host. Two runs of a bench therefore do the same work, so the work
//! counters a bench history row records are exact and `dblayout benchdiff`
//! gates them like any other row's.

use std::hint::black_box;
use std::time::Instant;

/// Batches a measurement is split into; the fastest batch's mean is the
/// reported minimum.
const BATCHES: u64 = 10;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench id (`group/function`).
    pub id: String,
    /// Mean wall time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// The fastest batch's mean wall time per iteration, in nanoseconds.
    pub min_ns: f64,
    /// Iterations timed.
    pub iterations: u64,
}

/// Runs `routine` once untimed, then `iterations` times (rounded up to a
/// whole number of batches), prints a one-line summary to stderr and
/// returns the measurement.
pub fn bench<O>(id: &str, iterations: u64, mut routine: impl FnMut() -> O) -> BenchResult {
    black_box(routine());
    let per_batch = iterations.div_ceil(BATCHES).max(1);
    let (mut total_ns, mut min_ns) = (0.0, f64::INFINITY);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(routine());
        }
        let batch_ns = start.elapsed().as_nanos() as f64;
        total_ns += batch_ns;
        min_ns = min_ns.min(batch_ns / per_batch as f64);
    }
    let iterations = per_batch * BATCHES;
    let result = BenchResult {
        id: id.to_string(),
        mean_ns: total_ns / iterations as f64,
        min_ns,
        iterations,
    };
    eprintln!(
        "bench {:<48} mean {:>12} min {:>12} ({} iters)",
        result.id,
        fmt_ns(result.mean_ns),
        fmt_ns(result.min_ns),
        result.iterations
    );
    result
}

/// Whether the bench binary was started in test mode (`cargo test` passes
/// `--test`), where it should skip its timed run. Prints why it skips.
pub fn test_mode(name: &str) -> bool {
    let skip = std::env::args().any(|a| a == "--test");
    if skip {
        eprintln!("({name} bench: skipping in test mode)");
    }
    skip
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_whole_batches_and_reports_the_fastest() {
        let mut calls = 0u64;
        let r = bench("timer/count", 25, || calls += 1);
        assert_eq!(r.id, "timer/count");
        assert_eq!(r.iterations, 30, "25 rounds up to 10 batches of 3");
        assert_eq!(calls, 31, "one untimed warm-up call");
        assert!(r.min_ns <= r.mean_ns);
    }
}
