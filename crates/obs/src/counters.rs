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
//! The registry is process-global and monotonic: it is the sum of every
//! call's work, which Prometheus and whole-process benchmarks read. A
//! call's own work is the [`CounterSnapshot`] tally it returns: each count
//! it makes goes through [`CounterSnapshot::add`], which adds it to the
//! registry and to exactly one tally, and an outer call folds its callees'
//! tallies into its own with [`CounterSnapshot::merge`], which leaves the
//! registry alone. A tally therefore never holds another call's work,
//! however many run at once. Counts no tallied call makes go to the
//! registry alone through [`add`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the registry from one table. Each row is a counter's doc, its
/// variant, its snake_case name and its class (`deterministic` or
/// `scheduling`); the enum, [`COUNT`], [`Counter::ALL`], [`Counter::name`]
/// and [`Counter::is_deterministic`] are all generated from the rows, so
/// they cannot disagree.
macro_rules! counters {
    (@deterministic deterministic) => { true };
    (@deterministic scheduling) => { false };
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $class:ident;)+) => {
        /// Every counter in the registry. The discriminant is the slot
        /// index of the backing atomic; `ALL` iterates in declaration
        /// order, which is also the exposition order everywhere counters
        /// are rendered.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        /// Number of registered counters (slots in the backing array).
        pub const COUNT: usize = [$(Counter::$variant),+].len();

        impl Counter {
            /// Every counter, in declaration (= exposition) order.
            pub const ALL: [Counter; COUNT] = [$(Counter::$variant),+];

            /// Static snake_case name. Renderers add their own affixes (the
            /// Prometheus exposition emits `dblayout_<name>_total`).
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }

            /// Whether the counter is in the deterministic class: its
            /// per-run delta depends only on the inputs, never on thread
            /// count or timing.
            pub fn is_deterministic(self) -> bool {
                match self {
                    $(Counter::$variant => counters!(@deterministic $class),)+
                }
            }
        }
    };
}

counters! {
    /// TS-GREEDY candidate moves enumerated (before validity/constraint
    /// filtering) across all iterations.
    TsgreedyCandidatesEnumerated = "tsgreedy_candidates_enumerated", deterministic;
    /// Candidates that survived validity + constraint checks and were
    /// cost-scored.
    TsgreedyCandidatesScored = "tsgreedy_candidates_scored", deterministic;
    /// Candidates adopted (one per improving iteration).
    TsgreedyCandidatesAdopted = "tsgreedy_candidates_adopted", deterministic;
    /// Definition-2 validity re-checks (one per enumerated candidate,
    /// whether incremental or full-scan).
    TsgreedyValidityChecks = "tsgreedy_validity_checks", deterministic;
    /// Incremental (delta) re-costs: one per candidate the search scores
    /// on its ledger (`DeltaEvaluator::fold`), plus one per adopted move
    /// (`DeltaEvaluator::adopt`).
    CostmodelDeltaRecosts = "costmodel_delta_recosts", deterministic;
    /// Full costings: one per ledger build (`CostModel::delta_evaluator`,
    /// the search's initial costing) and one per whole-workload costing
    /// outside a search (what-if costing, baselines such as the advisor's
    /// FULL STRIPING).
    CostmodelFullRecosts = "costmodel_full_recosts", deterministic;
    /// Access-graph node-weight folds accumulated (one per object touched
    /// per plan).
    GraphNodeUpdates = "graph_node_updates", deterministic;
    /// Access-graph edge-weight folds accumulated (one per co-access pair
    /// per plan).
    GraphEdgeUpdates = "graph_edge_updates", deterministic;
    /// Server what-if cost-cache hits.
    ServerCacheHits = "server_cache_hits", deterministic;
    /// Server what-if cost-cache misses.
    ServerCacheMisses = "server_cache_misses", deterministic;
    /// Items handed to pool workers, summed over per-worker chunks
    /// (scheduling class: varies with thread count).
    ParChunkItems = "par_chunk_items", scheduling;
    /// Dispatches that fell back to inline scoring because a worker lane
    /// was dead (scheduling class).
    ParPoolFallbacks = "par_pool_fallbacks", scheduling;
    /// Decayed access-graph epoch advances (`dblayout-relayout`): one per
    /// ingestion batch when decay < 1.0, zero on the bit-identical
    /// decay = 1.0 path.
    RelayoutEpochAdvances = "relayout_epoch_advances", deterministic;
    /// Drift-detector evaluations (`drift` op / `dblayout drift`).
    RelayoutDriftChecks = "relayout_drift_checks", deterministic;
    /// Migration-plan steps emitted by the planner.
    MigrationStepsPlanned = "migration_steps_planned", deterministic;
    /// Blocks relocated across all planned migration steps.
    MigrationBlocksPlanned = "migration_blocks_planned", deterministic;
    /// Decision records appended to the audit log (`dblayout-audit`).
    AuditRecordsWritten = "audit_records_written", deterministic;
    /// Sub-plans TS-GREEDY's candidate scoring re-costs through the
    /// Figure-7 kernel (memoized candidates re-cost none).
    CostmodelSubplanRecosts = "costmodel_subplan_recosts", deterministic;
    /// Figure-7 drive terms TS-GREEDY's candidate scoring evaluates (one
    /// per drive the kernel visits for a re-costed sub-plan).
    CostmodelDriveTerms = "costmodel_drive_terms", deterministic;
    /// Exact `DeltaEvaluator::fold`s TS-GREEDY's move selection runs: the
    /// scored candidates its bracket cannot exclude (a traced search's
    /// extra folds for its candidate events are not counted).
    TsgreedyExactFolds = "tsgreedy_exact_folds", deterministic;
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

/// One value per counter: a point-in-time reading of the whole registry
/// ([`snapshot`]), or a call's own tally of the work it did (the default
/// value is an empty tally). `Copy` so it can ride inside the server's
/// `MetricsSnapshot` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    values: [u64; COUNT],
}

impl CounterSnapshot {
    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values.get(counter as usize).copied().unwrap_or(0)
    }

    /// Counts `n` units of this tally's own work: adds them to `counter`
    /// here and in the process registry.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        add(counter, n);
        if let Some(v) = self.values.get_mut(counter as usize) {
            *v = v.wrapping_add(n);
        }
    }

    /// Folds a callee's tally into this one. The callee's counts are
    /// already in the registry, so this adds nothing there.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for (v, o) in self.values.iter_mut().zip(other.values) {
            *v = v.wrapping_add(o);
        }
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
    fn tally_adds_once_to_the_registry_and_merges_by_value() {
        let before = get(Counter::MigrationBlocksPlanned);
        let mut callee = CounterSnapshot::default();
        callee.add(Counter::MigrationBlocksPlanned, 5);
        let mut caller = CounterSnapshot::default();
        caller.add(Counter::MigrationBlocksPlanned, 2);
        caller.merge(&callee);
        assert_eq!(callee.get(Counter::MigrationBlocksPlanned), 5);
        assert_eq!(caller.get(Counter::MigrationBlocksPlanned), 7);
        assert_eq!(caller.get(Counter::MigrationStepsPlanned), 0);
        // Nothing else in this binary counts blocks planned.
        assert_eq!(get(Counter::MigrationBlocksPlanned) - before, 7);
    }

    #[test]
    fn deterministic_pairs_exclude_scheduling_counters() {
        let det = snapshot().deterministic_pairs();
        assert_eq!(det.len(), COUNT - 2);
        assert!(det.iter().all(|(n, _)| !n.starts_with("par_")));
        assert_eq!(snapshot().pairs().len(), COUNT);
    }

    /// DESIGN.md §8's class table names every counter in the row of its
    /// own class, and nothing else.
    #[test]
    fn design_class_table_matches_the_registry() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("\n## 8. ")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("DESIGN.md has a §8");
        for (class, deterministic) in [("deterministic", true), ("scheduling", false)] {
            let row = section
                .lines()
                .find(|l| l.starts_with(&format!("| {class} |")))
                .unwrap_or_else(|| panic!("§8's class table has no `{class}` row"));
            let counters_cell = row.split('|').nth(2).unwrap_or_default();
            let mut listed: Vec<&str> = counters_cell.split('`').skip(1).step_by(2).collect();
            let mut registered: Vec<&str> = Counter::ALL
                .iter()
                .filter(|c| c.is_deterministic() == deterministic)
                .map(|c| c.name())
                .collect();
            listed.sort_unstable();
            registered.sort_unstable();
            assert_eq!(listed, registered, "§8's `{class}` row");
        }
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
