//! # dblayout-obs — structured tracing for the layout advisor
//!
//! A std-only tracing subsystem: hierarchical [`Span`]s with monotonic
//! ids, typed key/value events ([`FieldValue`]), and one thread-safe
//! sink, a bounded in-memory ring ([`RingSink`]); a disabled
//! [`Collector`] emits nowhere. [`Record::to_jsonl`] and [`parse_trace`]
//! are the JSONL serialization of a drained ring.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero-cost when disabled.** A `Collector` is `Option`-cheap: the
//!    hot path pays one `is_some()` branch, and callers guard field
//!    construction behind [`Collector::enabled`]. Benchmarks hold the
//!    disabled advisor path within 2% of the uninstrumented baseline.
//! 2. **Total emit paths.** Nothing in this crate panics or propagates
//!    I/O errors into traced code; lint rule R1 covers `crates/obs/src`.
//! 3. **Reproducible artifacts.** [`Collector::deterministic`] omits
//!    wall-clock durations, so a single-threaded trace of deterministic
//!    work (TS-GREEDY is deterministic) is byte-identical across runs —
//!    the property `dblayout explain` artifacts rely on.
//!
//! ## Record model
//!
//! A trace is a sequence of [`Record`]s, one JSON object per line:
//!
//! ```text
//! {"seq":0,"kind":"span_start","span":1,"name":"tsgreedy.search","fields":{"groups":9}}
//! {"seq":1,"kind":"event","span":1,"name":"tsgreedy.adopt","fields":{"iter":1,"cost":81.25}}
//! {"seq":2,"kind":"span_end","span":1,"name":"tsgreedy.search","fields":{}}
//! ```
//!
//! `seq` is unique per collector and increases in each thread's program
//! order; sort by it to recover a single logical timeline. `span` ties
//! events to their innermost enclosing span; `parent` (on `span_start`)
//! encodes nesting. [`parse_trace`] inverts the serialization exactly.
//!
//! ## Performance accounting (`dblayout-prof`)
//!
//! Two always-available companions to the opt-in collector:
//!
//! * [`counters`] — a fixed, lock-free registry of monotonic work
//!   counters (relaxed atomics, no collector branch), cheap enough for
//!   the disabled-tracing search path's 2% overhead budget. The
//!   deterministic subset is thread-count-invariant and serves as the
//!   regression fingerprint for `dblayout benchdiff`.
//! * [`prof`] — scoped wall-clock phase attribution
//!   ([`prof::PhaseTimer`]): analyze / build-graph / search / cost /
//!   serialize totals for explain output, the server `profile` op, and
//!   bench history entries.
//! * [`hist`] — an HDR-style log-linear latency histogram (lock-free
//!   atomic counts, ≤12.5% relative error per bucket, mergeable
//!   snapshots) backing both the server's stage/latency metrics and the
//!   `dblayout-loadgen` client-side recorders.
//!
//! All of them live under lint rule R1's no-panic zone like the rest of
//! this crate.

// R1: no panic shortcuts outside tests (DESIGN.md §5).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod counters;
pub mod hist;
pub mod prof;

mod collector;
mod record;
mod sink;

pub use collector::{Collector, Span};
pub use record::{f, parse_trace, FieldValue, Record, RecordKind, TraceParseError};
pub use sink::RingSink;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the guard when a panicking holder poisoned it.
///
/// Every mutex in the workspace guards state that stays consistent across
/// a panic: trace writers and record rings, monotonic profile rows, and the
/// server's sessions and connections (request execution runs under
/// `catch_unwind`, and handlers validate and stage before they mutate).
/// Recovering with `into_inner` keeps one panic from wedging every later
/// thread that touches the same lock. `clippy.toml` disallows a bare
/// `Mutex::lock` everywhere else, so every acquisition goes through here.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned Mutex::lock: it recovers poisoning, which is the rule"
)]
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    /// Under concurrent emitters the collector must preserve: unique
    /// sequence numbers, unique span ids, and — per span — start before
    /// every event before end (spans here are used by single threads, as
    /// in the server's per-request spans).
    #[test]
    fn span_invariants_hold_under_concurrent_emitters() {
        const THREADS: usize = 8;
        const SPANS_PER_THREAD: usize = 25;
        let ring = Arc::new(RingSink::new(usize::MAX));
        let collector = Collector::new(ring.clone());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let c = collector.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    let span = c.span("work", vec![f("thread", t), f("i", i)]);
                    span.event("step", vec![f("phase", 0u64)]);
                    let child = span.child("inner", Vec::new());
                    child.event("deep", Vec::new());
                    child.end();
                    span.event("step", vec![f("phase", 1u64)]);
                    span.end();
                }
            }));
        }
        for h in handles {
            h.join().expect("emitter thread panicked");
        }

        let mut records = ring.drain();
        // Per iteration: root start/end + child start/end + 3 events = 7.
        let expected = THREADS * SPANS_PER_THREAD * 7;
        assert_eq!(records.len(), expected);

        // seq is a permutation of 0..n.
        let seqs: HashSet<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), records.len());
        assert_eq!(*seqs.iter().max().unwrap(), records.len() as u64 - 1);

        // Sorting by seq yields, for every span: exactly one start, then
        // its events, then exactly one end; children start after their
        // parent starts.
        records.sort_by_key(|r| r.seq);
        let mut open: HashMap<u64, u64> = HashMap::new(); // span -> start seq
        let mut closed: HashSet<u64> = HashSet::new();
        let mut parent_of: HashMap<u64, u64> = HashMap::new();
        for r in &records {
            match r.kind {
                RecordKind::SpanStart => {
                    assert!(!open.contains_key(&r.span) && !closed.contains(&r.span));
                    open.insert(r.span, r.seq);
                    if let Some(p) = r.parent {
                        assert!(open.contains_key(&p), "child started before parent");
                        parent_of.insert(r.span, p);
                    }
                }
                RecordKind::Event => {
                    assert!(open.contains_key(&r.span), "event outside open span");
                }
                RecordKind::SpanEnd => {
                    assert!(open.remove(&r.span).is_some(), "end without start");
                    assert!(closed.insert(r.span));
                }
            }
        }
        assert!(open.is_empty(), "unclosed spans: {open:?}");
        assert_eq!(closed.len(), THREADS * SPANS_PER_THREAD * 2);
        // Every child's parent was a distinct span.
        for (child, parent) in parent_of {
            assert_ne!(child, parent);
        }
    }

    /// Full pipeline: concurrent emit into a ring, write the drained ring
    /// as JSONL (as `--trace-out` does), parse it back, and check the
    /// parse sees every record.
    #[test]
    fn concurrent_jsonl_round_trip() {
        let ring = Arc::new(RingSink::new(usize::MAX));
        let collector = Collector::new(ring.clone());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = collector.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    c.event("tick", vec![f("thread", t), f("i", i)]);
                }
            }));
        }
        for h in handles {
            h.join().expect("emitter thread panicked");
        }
        drop(collector);
        let text: String = ring.drain().iter().map(|r| r.to_jsonl() + "\n").collect();
        let records = parse_trace(&text).unwrap();
        assert_eq!(records.len(), 200);
        let seqs: HashSet<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), 200);
    }
}
