//! Scoped wall-time phase profiling (`dblayout-prof`).
//!
//! A [`PhaseTimer`] attributes wall-clock time to coarse named phases —
//! the advisor pipeline uses `analyze` / `build-graph` / `search` /
//! `cost`, the server adds `serialize` — and aggregates per phase into a
//! profile table: calls and total microseconds, in first-seen order.
//!
//! Like the [`Collector`](crate::Collector), a timer is a cheap cloneable
//! handle around an optional shared core: `PhaseTimer::default()` is
//! disabled and every operation on it is a no-op costing one branch, so
//! it can live inside `AdvisorConfig` without perturbing untimed runs.
//! Phases nest — each scope accounts its own full wall time
//! independently, so a parent's total *includes* its children's (the
//! table is an attribution profile, not a flat decomposition).
//!
//! Phase totals are wall-clock and therefore **not** deterministic: they
//! never appear in deterministic traces or in the counter fingerprint,
//! only in profile sections and bench history entries.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::lock_unpoisoned;

/// One aggregated phase row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name, as passed to [`PhaseTimer::phase`].
    pub name: String,
    /// Number of completed scopes for this phase.
    pub calls: u64,
    /// Total wall time across those scopes, in microseconds.
    pub total_us: u64,
}

#[derive(Debug, Default)]
struct ProfInner {
    /// Aggregated rows in first-seen order (phases are few; linear scan).
    rows: Mutex<Vec<PhaseRow>>,
}

/// A phase-profiling handle. Cloning shares the aggregate; the default
/// value is disabled and free.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer(Option<Arc<ProfInner>>);

impl PhaseTimer {
    /// An enabled timer with an empty profile.
    pub fn new() -> Self {
        PhaseTimer(Some(Arc::new(ProfInner::default())))
    }

    /// A disabled timer: every operation is a no-op.
    pub fn disabled() -> Self {
        PhaseTimer(None)
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a phase scope. Wall time from now until the returned guard
    /// drops (or [`PhaseGuard::finish`] is called) is added to `name`'s
    /// row. On a disabled timer the guard is inert.
    pub fn phase(&self, name: &'static str) -> PhaseGuard {
        PhaseGuard {
            inner: self.0.clone(),
            name,
            started: Instant::now(), // dblayout::allow(R6, reason = "wall time feeds only profiling rows, which are documented as non-deterministic and excluded from every fingerprint; it never influences search results")
            done: self.0.is_none(),
        }
    }

    /// The aggregated profile, in first-seen order.
    pub fn rows(&self) -> Vec<PhaseRow> {
        match &self.0 {
            Some(inner) => lock_unpoisoned(&inner.rows).clone(),
            None => Vec::new(),
        }
    }

    /// Renders the profile as an aligned text table (empty string when
    /// nothing was recorded).
    pub fn render_table(&self) -> String {
        let rows = self.rows();
        if rows.is_empty() {
            return String::new();
        }
        let name_width = rows
            .iter()
            .map(|r| r.name.len())
            .chain(std::iter::once("phase".len()))
            .max()
            .unwrap_or(5);
        let mut out = format!(
            "{:<name_width$}  {:>7}  {:>12}\n",
            "phase", "calls", "total_ms"
        );
        for r in &rows {
            out.push_str(&format!(
                "{:<name_width$}  {:>7}  {:>12.3}\n",
                r.name,
                r.calls,
                r.total_us as f64 / 1000.0
            ));
        }
        out
    }

    fn record(&self, name: &'static str, elapsed_us: u64) {
        if let Some(inner) = &self.0 {
            let mut rows = lock_unpoisoned(&inner.rows);
            match rows.iter_mut().find(|r| r.name == name) {
                Some(row) => {
                    row.calls += 1;
                    row.total_us += elapsed_us;
                }
                None => rows.push(PhaseRow {
                    name: name.to_string(),
                    calls: 1,
                    total_us: elapsed_us,
                }),
            }
        }
    }
}

/// RAII scope for one phase; records on drop.
#[derive(Debug)]
pub struct PhaseGuard {
    inner: Option<Arc<ProfInner>>,
    name: &'static str,
    started: Instant,
    done: bool,
}

impl PhaseGuard {
    /// Ends the scope now instead of at drop.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let elapsed = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        PhaseTimer(self.inner.take()).record(self.name, elapsed);
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let t = PhaseTimer::default();
        assert!(!t.enabled());
        {
            let _g = t.phase("search");
        }
        assert!(t.rows().is_empty());
        assert_eq!(t.render_table(), "");
    }

    #[test]
    fn aggregates_calls_in_first_seen_order() {
        let t = PhaseTimer::new();
        {
            let _a = t.phase("analyze");
        }
        {
            let _s = t.phase("search");
        }
        {
            let _a = t.phase("analyze");
        }
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "analyze");
        assert_eq!(rows[0].calls, 2);
        assert_eq!(rows[1].name, "search");
        assert_eq!(rows[1].calls, 1);
        let table = t.render_table();
        assert!(table.starts_with("phase"), "{table}");
        assert!(table.contains("analyze"), "{table}");
    }

    #[test]
    fn nested_phases_account_independently() {
        let t = PhaseTimer::new();
        {
            let _outer = t.phase("search");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = t.phase("cost");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let rows = t.rows();
        let total = |n: &str| rows.iter().find(|r| r.name == n).map(|r| r.total_us);
        let outer = total("search").unwrap();
        let inner = total("cost").unwrap();
        assert!(outer >= inner, "parent includes child: {outer} < {inner}");
        assert!(inner >= 1_000, "inner phase slept 2ms, got {inner}us");
    }

    #[test]
    fn clones_share_the_aggregate_and_finish_is_idempotent() {
        let t = PhaseTimer::new();
        let other = t.clone();
        let g = other.phase("serialize");
        g.finish();
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows()[0].calls, 1);
    }
}
