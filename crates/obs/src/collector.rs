//! The [`Collector`] handle and its span guard.
//!
//! A `Collector` is the value instrumented code holds. It is a newtype over
//! `Option<Arc<..>>`: a disabled collector is `None`, so the hot-path cost
//! of instrumentation is one pointer-sized branch (`enabled()`), and
//! cloning one is free. Callers guard any non-trivial field construction
//! behind `enabled()`:
//!
//! ```
//! use dblayout_obs::{f, Collector};
//! let collector = Collector::default(); // disabled
//! if collector.enabled() {
//!     collector.event("expensive", vec![f("detail", "never built")]);
//! }
//! ```
//!
//! Spans are RAII guards: [`Collector::span`] emits `span_start` and the
//! returned [`Span`] emits `span_end` when dropped (or explicitly
//! [`Span::end`]ed). Events and child spans hang off the guard, which is
//! how nesting is expressed — there is no thread-local ambient span, so
//! the structure is explicit and deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::record::{FieldValue, Record, RecordKind};
use crate::sink::RingSink;

struct CollectorInner {
    sink: Arc<RingSink>,
    /// Next record sequence number. Unique per record; each thread's own
    /// records carry increasing values.
    seq: AtomicU64,
    /// Next span id. Span 0 means "outside any span", so ids start at 1.
    next_span: AtomicU64,
    /// When false, `span_end` records omit `elapsed_us` so a
    /// single-threaded trace is byte-for-byte reproducible.
    timing: bool,
}

/// Cheap, cloneable handle to a trace sink; `Default` is disabled.
#[derive(Clone, Default)]
pub struct Collector(Option<Arc<CollectorInner>>);

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => f
                .debug_struct("Collector")
                .field("enabled", &true)
                .field("timing", &inner.timing)
                .finish(),
            None => f
                .debug_struct("Collector")
                .field("enabled", &false)
                .finish(),
        }
    }
}

impl Collector {
    /// A collector that records nothing; all operations are no-ops.
    pub fn disabled() -> Self {
        Collector(None)
    }

    /// A collector writing to `sink`, recording span durations.
    pub fn new(sink: Arc<RingSink>) -> Self {
        Collector(Some(Arc::new(CollectorInner {
            sink,
            seq: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            timing: true,
        })))
    }

    /// A collector writing to `sink` with timing off: no `elapsed_us` on
    /// span ends, so identical work yields identical traces. Used by
    /// `dblayout explain`.
    pub fn deterministic(sink: Arc<RingSink>) -> Self {
        Collector(Some(Arc::new(CollectorInner {
            sink,
            seq: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            timing: false,
        })))
    }

    /// Whether records will actually be emitted. Guard expensive field
    /// construction behind this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether this collector records wall-clock/timing-dependent detail
    /// (true for [`Collector::new`], false for
    /// [`Collector::deterministic`] and [`Collector::disabled`]). Guard
    /// run-to-run-variable fields — e.g. per-worker scheduling detail —
    /// behind this so deterministic traces stay byte-identical.
    #[inline]
    pub fn timed(&self) -> bool {
        self.0.as_ref().is_some_and(|inner| inner.timing)
    }

    /// Emits a point event outside any span (span id 0).
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.emit_event(0, name, fields);
    }

    /// Opens a root span. The returned guard emits `span_end` on drop.
    pub fn span(&self, name: &str, fields: Vec<(String, FieldValue)>) -> Span {
        self.open_span(None, name, fields)
    }

    fn open_span(
        &self,
        parent: Option<u64>,
        name: &str,
        fields: Vec<(String, FieldValue)>,
    ) -> Span {
        let Some(inner) = &self.0 else {
            return Span {
                collector: Collector(None),
                id: 0,
                name: String::new(),
                started: None,
                ended: true,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let started = inner.timing.then(Instant::now); // dblayout::allow(R6, reason = "span timestamps are observability-only and gated off on deterministic collectors; they never feed layout decisions")
        self.emit(Record {
            seq: 0, // assigned in emit
            kind: RecordKind::SpanStart,
            span: id,
            parent,
            name: name.to_string(),
            fields,
            elapsed_us: None,
        });
        Span {
            collector: self.clone(),
            id,
            name: name.to_string(),
            started,
            ended: false,
        }
    }

    fn emit_event(&self, span: u64, name: &str, fields: Vec<(String, FieldValue)>) {
        if self.0.is_none() {
            return;
        }
        self.emit(Record {
            seq: 0,
            kind: RecordKind::Event,
            span,
            parent: None,
            name: name.to_string(),
            fields,
            elapsed_us: None,
        });
    }

    fn emit(&self, mut record: Record) {
        if let Some(inner) = &self.0 {
            record.seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            inner.sink.emit(record);
        }
    }
}

/// RAII guard for an open span. Dropping it (or calling [`Span::end`])
/// emits the matching `span_end` record.
pub struct Span {
    collector: Collector,
    id: u64,
    name: String,
    started: Option<Instant>,
    ended: bool,
}

impl Span {
    /// This span's id (0 when the collector is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether records emitted through this span reach a sink.
    pub fn enabled(&self) -> bool {
        self.collector.enabled()
    }

    /// Emits a point event inside this span.
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.collector.emit_event(self.id, name, fields);
    }

    /// Opens a nested span whose `parent` is this span.
    pub fn child(&self, name: &str, fields: Vec<(String, FieldValue)>) -> Span {
        if self.collector.enabled() {
            self.collector.open_span(Some(self.id), name, fields)
        } else {
            self.collector.open_span(None, name, fields)
        }
    }

    /// Closes the span now, attaching extra fields to the `span_end`
    /// record (e.g. a result summary).
    pub fn end_with(mut self, fields: Vec<(String, FieldValue)>) {
        self.finish(fields);
    }

    /// Closes the span now.
    pub fn end(mut self) {
        self.finish(Vec::new());
    }

    fn finish(&mut self, fields: Vec<(String, FieldValue)>) {
        if self.ended {
            return;
        }
        self.ended = true;
        let elapsed_us = self
            .started
            .map(|t| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
        self.collector.emit(Record {
            seq: 0,
            kind: RecordKind::SpanEnd,
            span: self.id,
            parent: None,
            name: std::mem::take(&mut self.name),
            fields,
            elapsed_us,
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{f, RecordKind};

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::default();
        assert!(!c.enabled());
        c.event("nothing", vec![f("x", 1u64)]);
        let span = c.span("root", Vec::new());
        assert_eq!(span.id(), 0);
        assert!(!span.enabled());
        let child = span.child("inner", Vec::new());
        child.event("still nothing", Vec::new());
        drop(child);
        drop(span);
        // No sink to observe; the assertions above plus "did not panic" are
        // the contract.
        assert_eq!(format!("{c:?}"), "Collector { enabled: false }");
    }

    #[test]
    fn span_lifecycle_emits_start_events_end_in_order() {
        let ring = Arc::new(RingSink::new(64));
        let c = Collector::deterministic(ring.clone());
        {
            let root = c.span("root", vec![f("k", 1u64)]);
            root.event("note", vec![f("v", 2u64)]);
            let child = root.child("inner", Vec::new());
            child.event("deep", Vec::new());
            child.end();
            root.end_with(vec![f("result", "ok")]);
        }
        let records = ring.drain();
        let kinds: Vec<RecordKind> = records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecordKind::SpanStart,
                RecordKind::Event,
                RecordKind::SpanStart,
                RecordKind::Event,
                RecordKind::SpanEnd,
                RecordKind::SpanEnd,
            ]
        );
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        // Nesting: the child span's parent is the root span.
        assert_eq!(records[2].parent, Some(records[0].span));
        assert_eq!(records[3].span, records[2].span);
        // Deterministic collector records no durations.
        assert!(records.iter().all(|r| r.elapsed_us.is_none()));
        // end_with fields landed on the final span_end.
        assert_eq!(records[5].field_str("result"), Some("ok"));
    }

    #[test]
    fn timed_collector_records_elapsed_on_span_end() {
        let ring = Arc::new(RingSink::new(8));
        let c = Collector::new(ring.clone());
        c.span("timed", Vec::new()).end();
        let records = ring.drain();
        assert_eq!(records.len(), 2);
        assert!(records[1].elapsed_us.is_some());
    }

    #[test]
    fn dropping_a_span_ends_it_exactly_once() {
        let ring = Arc::new(RingSink::new(8));
        let c = Collector::deterministic(ring.clone());
        let span = c.span("root", Vec::new());
        drop(span);
        let records = ring.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].kind, RecordKind::SpanEnd);
    }
}
