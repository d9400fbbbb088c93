//! The sink: where emitted records go.
//!
//! The sink must be cheap, thread-safe, and total — the emit path never
//! panics and never blocks on anything slower than a short mutex hold.
//! [`RingSink`] keeps the newest N records in memory (the server's
//! `trace` request drains it, and the CLI's `--trace-out` writes a drained
//! ring as JSONL); a disabled [`crate::Collector`] emits nowhere.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock_unpoisoned;
use crate::record::Record;

/// Bounded in-memory buffer keeping the most recent records; older records
/// are dropped (and counted) once capacity is reached.
pub struct RingSink {
    buf: Mutex<VecDeque<Record>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring holding at most `capacity` records (capacity 0 drops
    /// everything).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative count of records evicted (or rejected at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.buf).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns all buffered records, oldest first. The dropped
    /// counter is cumulative and survives the drain.
    pub fn drain(&self) -> Vec<Record> {
        lock_unpoisoned(&self.buf).drain(..).collect()
    }

    /// Copies the buffered records without removing them, oldest first.
    pub fn snapshot(&self) -> Vec<Record> {
        lock_unpoisoned(&self.buf).iter().cloned().collect()
    }

    /// Atomically drains the buffer and reads the cumulative dropped
    /// count as **one consistent cut**: both happen under a single buffer
    /// lock acquisition, so concurrent emitters are either entirely
    /// before the cut (their record is returned, their evictions counted)
    /// or entirely after it (their record is retained for the next
    /// `take`). No record can be both returned and retained, and the
    /// dropped count can never run ahead of the drain it is reported
    /// with. This is what the server's `trace` op uses.
    pub fn take(&self) -> (Vec<Record>, u64) {
        let mut buf = lock_unpoisoned(&self.buf);
        let records = buf.drain(..).collect();
        // Still under the lock: evictions are counted while holding it
        // (capacity-0 rings bypass the lock, but those retain nothing).
        let dropped = self.dropped.load(Ordering::Relaxed);
        (records, dropped)
    }

    /// Accepts one record, evicting (and counting) the oldest at capacity.
    /// Safe under concurrent calls and never panics — tracing must never
    /// take down the traced program.
    pub fn emit(&self, record: Record) {
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut buf = lock_unpoisoned(&self.buf);
        while buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    fn rec(seq: u64) -> Record {
        Record {
            seq,
            kind: RecordKind::Event,
            span: 0,
            parent: None,
            name: format!("e{seq}"),
            fields: Vec::new(),
            elapsed_us: None,
        }
    }

    #[test]
    fn ring_sink_keeps_newest_and_counts_drops() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.emit(rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let drained = ring.drain();
        let seqs: Vec<u64> = drained.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drain does not reset the counter");
    }

    #[test]
    fn ring_sink_capacity_zero_drops_everything() {
        let ring = RingSink::new(0);
        ring.emit(rec(0));
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn snapshot_leaves_buffer_intact() {
        let ring = RingSink::new(4);
        ring.emit(rec(0));
        ring.emit(rec(1));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn take_returns_records_and_dropped_in_one_cut() {
        let ring = RingSink::new(2);
        for i in 0..5 {
            ring.emit(rec(i));
        }
        let (records, dropped) = ring.take();
        assert_eq!(records.len(), 2);
        assert_eq!(dropped, 3);
        assert!(ring.is_empty());
        let (records, dropped) = ring.take();
        assert!(records.is_empty());
        assert_eq!(dropped, 3, "dropped is cumulative across takes");
    }

    /// Satellite: concurrent writers vs. a concurrent drainer. Every
    /// emitted record must end up in exactly one place — returned by
    /// exactly one `take`, or still buffered at the end — never both,
    /// never neither (the ring is unbounded here so nothing is evicted).
    #[test]
    fn concurrent_take_never_duplicates_or_loses_records() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2_000;
        let ring = Arc::new(RingSink::new(usize::MAX));
        let done = Arc::new(AtomicBool::new(false));

        let drainer = {
            let ring = ring.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut taken: Vec<Record> = Vec::new();
                while !done.load(Ordering::Acquire) {
                    let (records, dropped) = ring.take();
                    assert_eq!(dropped, 0, "unbounded ring must never evict");
                    taken.extend(records);
                }
                taken
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        ring.emit(rec(w * PER_WRITER + i));
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().expect("writer panicked");
        }
        done.store(true, Ordering::Release);
        let mut taken = drainer.join().expect("drainer panicked");
        let (rest, dropped) = ring.take();
        assert_eq!(dropped, 0);
        taken.extend(rest);

        // Conservation + exclusivity: every seq exactly once.
        assert_eq!(taken.len() as u64, WRITERS * PER_WRITER);
        let mut seqs: Vec<u64> = taken.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len() as u64,
            WRITERS * PER_WRITER,
            "a record was returned twice or lost"
        );
    }
}
