//! Always-on, lock-free performance accounting: a fixed registry of
//! monotonic `u64` counters for the workspace's hot-path work units
//! (`dblayout-prof`).
//!
//! Unlike the [`Collector`](crate::Collector) — which is opt-in, branchy,
//! and can drop records under pressure — counters are *always on*: plain
//! relaxed atomic adds with no collector branch, no allocation, and no
//! locks on either the write or the snapshot path. That keeps the
//! disabled-tracing search path inside the 2% overhead budget established
//! in EXPERIMENTS.md while still accounting for every unit of work.
//!
//! The registry is deliberately **fixed**: every counter is a variant of
//! [`Counter`] with a static name, backed by one slot of a static atomic
//! array. There is no runtime registration, so snapshots are a loop of
//! relaxed loads — wait-free, allocation-free, callable from signal-ish
//! contexts like the Prometheus `metrics` op.
//!
//! Counters come in two classes (see DESIGN.md §8):
//!
//! * **deterministic** — counts that depend only on the inputs and the
//!   sequential candidate order (candidates enumerated/scored/adopted,
//!   validity re-checks, delta vs. full re-costs, access-graph node/edge
//!   folds, server cache hits/misses). These are byte-identical at any
//!   thread count and form the regression fingerprint `dblayout benchdiff`
//!   hard-fails on.
//! * **scheduling** — counts that describe *how* the work was distributed
//!   (per-worker chunk items, dead-worker dispatch fallbacks). These vary
//!   with thread count and timing and are compared only loosely.
//!
//! Counters are process-global and monotonic. Code that needs a per-run
//! figure takes a [`snapshot`] before and after and subtracts with
//! [`CounterSnapshot::delta`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Every counter in the registry. The discriminant is the slot index of
/// the backing atomic; `ALL` iterates in declaration order, which is also
/// the exposition order everywhere counters are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// TS-GREEDY candidate moves enumerated (before validity/constraint
    /// filtering) across all iterations.
    TsgreedyCandidatesEnumerated = 0,
    /// Candidates that survived validity + constraint checks and were
    /// cost-scored.
    TsgreedyCandidatesScored = 1,
    /// Candidates adopted (one per improving iteration).
    TsgreedyCandidatesAdopted = 2,
    /// Definition-2 validity re-checks (one per enumerated candidate,
    /// whether incremental or full-scan).
    TsgreedyValidityChecks = 3,
    /// Incremental (delta) re-costs: one per candidate the search scores
    /// on its ledger (`DeltaEvaluator::fold`), plus one per adopted move
    /// (`DeltaEvaluator::adopt`).
    CostmodelDeltaRecosts = 4,
    /// Full costings: one per ledger build (`CostModel::delta_evaluator`,
    /// the search's initial costing) and one per whole-workload costing
    /// outside a search (what-if costing, baselines such as the advisor's
    /// FULL STRIPING).
    CostmodelFullRecosts = 5,
    /// Access-graph node-weight folds accumulated (one per object touched
    /// per plan).
    GraphNodeUpdates = 6,
    /// Access-graph edge-weight folds accumulated (one per co-access pair
    /// per plan).
    GraphEdgeUpdates = 7,
    /// Server what-if cost-cache hits.
    ServerCacheHits = 8,
    /// Server what-if cost-cache misses.
    ServerCacheMisses = 9,
    /// Items handed to pool workers, summed over per-worker chunks
    /// (scheduling class: varies with thread count).
    ParChunkItems = 10,
    /// Dispatches that fell back to inline scoring because a worker lane
    /// was dead (scheduling class).
    ParPoolFallbacks = 11,
    /// Decayed access-graph epoch advances (`dblayout-relayout`): one per
    /// ingestion batch when decay < 1.0, zero on the bit-identical
    /// decay = 1.0 path.
    RelayoutEpochAdvances = 12,
    /// Drift-detector evaluations (`drift` op / `dblayout drift`).
    RelayoutDriftChecks = 13,
    /// Migration-plan steps emitted by the planner.
    MigrationStepsPlanned = 14,
    /// Blocks relocated across all planned migration steps.
    MigrationBlocksPlanned = 15,
    /// Decision records appended to the audit log (`dblayout-audit`).
    AuditRecordsWritten = 16,
    /// Malformed/truncated JSONL lines skipped by the lenient trace
    /// parser (`parse_trace_lenient`).
    TraceParseErrors = 17,
    /// Sub-plans TS-GREEDY's candidate scoring re-costs through the
    /// Figure-7 kernel (memoized candidates re-cost none).
    CostmodelSubplanRecosts = 18,
    /// Figure-7 drive terms TS-GREEDY's candidate scoring evaluates (one
    /// per drive the kernel visits for a re-costed sub-plan).
    CostmodelDriveTerms = 19,
}

/// Number of registered counters (slots in the backing array).
pub const COUNT: usize = 20;

impl Counter {
    /// Every counter, in declaration (= exposition) order.
    pub const ALL: [Counter; COUNT] = [
        Counter::TsgreedyCandidatesEnumerated,
        Counter::TsgreedyCandidatesScored,
        Counter::TsgreedyCandidatesAdopted,
        Counter::TsgreedyValidityChecks,
        Counter::CostmodelDeltaRecosts,
        Counter::CostmodelFullRecosts,
        Counter::GraphNodeUpdates,
        Counter::GraphEdgeUpdates,
        Counter::ServerCacheHits,
        Counter::ServerCacheMisses,
        Counter::ParChunkItems,
        Counter::ParPoolFallbacks,
        Counter::RelayoutEpochAdvances,
        Counter::RelayoutDriftChecks,
        Counter::MigrationStepsPlanned,
        Counter::MigrationBlocksPlanned,
        Counter::AuditRecordsWritten,
        Counter::TraceParseErrors,
        Counter::CostmodelSubplanRecosts,
        Counter::CostmodelDriveTerms,
    ];

    /// Static snake_case name. Renderers add their own affixes (the
    /// Prometheus exposition emits `dblayout_<name>_total`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TsgreedyCandidatesEnumerated => "tsgreedy_candidates_enumerated",
            Counter::TsgreedyCandidatesScored => "tsgreedy_candidates_scored",
            Counter::TsgreedyCandidatesAdopted => "tsgreedy_candidates_adopted",
            Counter::TsgreedyValidityChecks => "tsgreedy_validity_checks",
            Counter::CostmodelDeltaRecosts => "costmodel_delta_recosts",
            Counter::CostmodelFullRecosts => "costmodel_full_recosts",
            Counter::GraphNodeUpdates => "graph_node_updates",
            Counter::GraphEdgeUpdates => "graph_edge_updates",
            Counter::ServerCacheHits => "server_cache_hits",
            Counter::ServerCacheMisses => "server_cache_misses",
            Counter::ParChunkItems => "par_chunk_items",
            Counter::ParPoolFallbacks => "par_pool_fallbacks",
            Counter::RelayoutEpochAdvances => "relayout_epoch_advances",
            Counter::RelayoutDriftChecks => "relayout_drift_checks",
            Counter::MigrationStepsPlanned => "migration_steps_planned",
            Counter::MigrationBlocksPlanned => "migration_blocks_planned",
            Counter::AuditRecordsWritten => "audit_records_written",
            Counter::TraceParseErrors => "trace_parse_errors",
            Counter::CostmodelSubplanRecosts => "costmodel_subplan_recosts",
            Counter::CostmodelDriveTerms => "costmodel_drive_terms",
        }
    }

    /// Whether the counter is in the deterministic class: its per-run
    /// delta depends only on the inputs, never on thread count or timing.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, Counter::ParChunkItems | Counter::ParPoolFallbacks)
    }
}

/// The backing slots. `AtomicU64` is not `Copy`, so the array is built
/// from a `const` item (each use re-evaluates the initializer).
#[allow(
    clippy::declare_interior_mutable_const,
    reason = "ZERO only seeds SLOTS; every use is meant to be a fresh atomic"
)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static SLOTS: [AtomicU64; COUNT] = [ZERO; COUNT];

fn slot(counter: Counter) -> &'static AtomicU64 {
    // `Counter`'s discriminants are the slot indices by construction;
    // `.get()` keeps the accessor panic-free even so.
    SLOTS.get(counter as usize).unwrap_or(&SLOTS[0])
}

/// Adds `n` to a counter (relaxed; wait-free).
#[inline]
pub fn add(counter: Counter, n: u64) {
    slot(counter).fetch_add(n, Ordering::Relaxed);
}

/// Adds 1 to a counter (relaxed; wait-free).
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Current value of one counter (relaxed load).
#[inline]
pub fn get(counter: Counter) -> u64 {
    slot(counter).load(Ordering::Relaxed)
}

/// Snapshots every counter without locks. Each slot is one relaxed load;
/// the snapshot is not a cross-counter atomic cut, which is fine for
/// monotonic counters (each reading is a valid point on that counter's
/// own timeline).
pub fn snapshot() -> CounterSnapshot {
    let mut values = [0u64; COUNT];
    for (v, c) in values.iter_mut().zip(Counter::ALL) {
        *v = get(c);
    }
    CounterSnapshot { values }
}

/// A point-in-time reading of the whole registry. `Copy` so it can ride
/// inside the server's `MetricsSnapshot` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    values: [u64; COUNT],
}

impl CounterSnapshot {
    /// The snapshotted value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values.get(counter as usize).copied().unwrap_or(0)
    }

    /// Per-counter difference `self - earlier` (saturating, so a stale
    /// "earlier" from another epoch can't underflow).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; COUNT];
        for ((v, now), then) in values.iter_mut().zip(self.values).zip(earlier.values) {
            *v = now.saturating_sub(then);
        }
        CounterSnapshot { values }
    }

    /// `(name, value)` pairs for every counter, in exposition order.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }

    /// `(name, value)` pairs for the deterministic class only — the
    /// thread-count-invariant regression fingerprint.
    pub fn deterministic_pairs(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter(|c| c.is_deterministic())
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn names_are_unique_and_prometheus_safe() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        for (i, a) in names.iter().enumerate() {
            assert!(
                a.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'),
                "{a} is not a safe metric name"
            );
            assert!(!a.starts_with(|c: char| c.is_ascii_digit()));
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate counter name");
            }
        }
    }

    #[test]
    fn discriminants_match_slots() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of declaration order");
        }
        assert_eq!(Counter::ALL.len(), COUNT);
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let before = snapshot();
        add(Counter::GraphEdgeUpdates, 7);
        let after = snapshot();
        assert_eq!(after.delta(&before).get(Counter::GraphEdgeUpdates), 7);
        // Reversed order saturates to zero instead of wrapping.
        assert_eq!(before.delta(&after).get(Counter::GraphEdgeUpdates), 0);
    }

    #[test]
    fn deterministic_pairs_exclude_scheduling_counters() {
        let det = snapshot().deterministic_pairs();
        assert_eq!(det.len(), COUNT - 2);
        assert!(det.iter().all(|(n, _)| !n.starts_with("par_")));
        assert_eq!(snapshot().pairs().len(), COUNT);
    }

    /// Satellite: counter monotonicity under 8-thread hammering. Eight
    /// writers increment one counter while an observer snapshots in a
    /// loop; every observed reading must be non-decreasing and the final
    /// delta must equal the exact number of increments (no lost updates).
    #[test]
    fn monotonic_under_eight_thread_hammering() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let before = get(Counter::TsgreedyValidityChecks);
        let done = Arc::new(AtomicBool::new(false));
        let observer = {
            let done = done.clone();
            std::thread::spawn(move || {
                let mut last = get(Counter::TsgreedyValidityChecks);
                let mut readings = 0u64;
                while !done.load(Ordering::Acquire) {
                    let now = get(Counter::TsgreedyValidityChecks);
                    assert!(now >= last, "counter went backwards: {last} -> {now}");
                    last = now;
                    readings += 1;
                }
                readings
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..PER_WRITER {
                        incr(Counter::TsgreedyValidityChecks);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let readings = observer.join().unwrap();
        assert!(readings > 0);
        // Other tests in this binary may also bump counters, but nothing
        // else touches TsgreedyValidityChecks, so the delta is exact.
        assert_eq!(
            get(Counter::TsgreedyValidityChecks) - before,
            WRITERS as u64 * PER_WRITER
        );
    }
}
