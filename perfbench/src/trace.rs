//! In-memory spans recorded around the benchmark's calls into each layer's
//! public functions. Spans carry a name, start, end and parent; they stay
//! in memory while the run measures and are written out as JSON lines when
//! it ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open children.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking benchmark thread")
            .push(SpanRecord {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Durations (ms) of every span named `name`, in completion order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking benchmark thread")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking benchmark thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let t = Tracer::new();
        let inner = t.span("outer", ROOT, |id| t.span("inner", id, |id| id));
        assert_eq!(t.durations_ms("inner").len(), 1);
        assert_eq!(t.durations_ms("outer").len(), 1);
        let spans = t.spans.lock().unwrap();
        let inner_rec = spans.iter().find(|s| s.id == inner).unwrap();
        let outer_rec = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner_rec.parent, outer_rec.id);
        assert!(outer_rec.start_ns <= inner_rec.start_ns && inner_rec.end_ns <= outer_rec.end_ns);
    }
}
