//! Search-engine bench: TS-GREEDY (`dblayout-par`) at each requested
//! thread count on the bundled `tpch_mix.sql` workload.
//!
//! The identity baseline is the run's own 1-thread search. The parallel
//! reduction adopts in sequential candidate order, so **every thread count
//! must produce the 1-thread run's layout and cost bits** — the bench
//! asserts this (`identical_to_baseline`) and the `search_bench` binary
//! exits non-zero on any divergence, which is what the CI
//! bench-observatory job keys off. The naive step-2 reference (clone,
//! validate, full Figure-7 cost per candidate) lives in the integration
//! tests (`tests/lib.rs`), where the oracle suites compare against it.
//!
//! Wall-clock speedup from *threads* requires actual cores; the report
//! records the host's available parallelism so results read honestly.
//!
//! The run also times the planner on all 22 TPC-H queries at SF 1 (best
//! of `reps`), so a planning speed-up lands in the same history, and the
//! search on the `advise-tpch64` instance (those queries on 64 uniform
//! drives) at 1 and 2 threads, where step 2 prices widening moves from
//! shared drive terms (DESIGN.md §7).

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

use dblayout_catalog::tpch::tpch_catalog;
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_core::tsgreedy::{ts_greedy, TsGreedyConfig};
use dblayout_core::{build_access_graph, Layout};
use dblayout_disksim::{paper_disks, uniform_disks};
use dblayout_obs::counters::{self, Counter};
use dblayout_obs::prof::PhaseTimer;
use dblayout_planner::plan_statement;
use dblayout_sql::{parse_statement, parse_workload_file};
use dblayout_workloads::tpch22::tpch22;

/// One measured engine configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SearchBenchRow {
    /// Always `incremental`: the history's metric names are
    /// `incremental/t{threads}`.
    pub engine: &'static str,
    /// Worker threads used for candidate scoring.
    pub threads: usize,
    /// Best (minimum) wall time over the measured repetitions, ms.
    pub best_ms: f64,
    /// Layout fractions and final cost are bit-identical to the 1-thread
    /// run's.
    pub identical_to_baseline: bool,
    /// Greedy iterations adopted (must match the baseline).
    pub iterations: usize,
    /// Cost-model evaluations performed (must match the baseline).
    pub cost_evaluations: usize,
}

/// One deterministic work-counter delta accumulated across the run.
#[derive(Debug, Clone, Serialize)]
pub struct CounterValue {
    /// Registry name (`tsgreedy_candidates_enumerated`, ...).
    pub name: String,
    /// Delta over the whole bench run.
    pub value: u64,
}

/// One phase's aggregated wall time across the run.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseMs {
    /// Phase name (`analyze`, `build-graph`, `search`).
    pub phase: String,
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall time, milliseconds.
    pub total_ms: f64,
}

/// Migration-plan stamp: what it costs to *get to* the recommended
/// layout (FULL STRIPING → the 1-thread recommendation), as planned by
/// `dblayout-relayout`. Fully deterministic — the step count and moved
/// volume participate in the benchdiff counter gate via the
/// `migration_steps_planned` / `migration_blocks_planned` counters.
#[derive(Debug, Clone, Serialize)]
pub struct MigrationStamp {
    /// Ordered whole-object moves in the plan.
    pub steps: usize,
    /// Blocks relocated across all steps (§2.3.1 metric).
    pub total_moved_blocks: u64,
    /// The same volume in bytes.
    pub total_moved_bytes: u64,
    /// Sum of per-step transfer estimates, ms (drive model, not wall
    /// clock — deterministic).
    pub total_step_ms: f64,
}

/// The whole bench run, as written to `results/search_bench.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SearchBenchReport {
    /// Workload file the search ran over.
    pub workload: String,
    /// Git revision of the measured tree (`unknown` outside a checkout).
    pub git_rev: String,
    /// Statements in the workload (after weight expansion).
    pub statements: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_available_parallelism: usize,
    /// Repetitions per configuration (`best_ms` is the minimum).
    pub reps: usize,
    /// Every row's layout/cost matched the 1-thread run bit for bit.
    pub all_identical: bool,
    /// Dead-worker pool fallbacks observed during the run (scheduling
    /// class — should be 0 on a healthy host; nonzero means wall times
    /// include sequential rescue work and are not comparable).
    pub pool_fallbacks: u64,
    /// Migration plan from FULL STRIPING to the 1-thread recommendation.
    pub migration: MigrationStamp,
    /// Per-configuration measurements.
    pub rows: Vec<SearchBenchRow>,
    /// Deterministic work-counter deltas over the whole run — the
    /// fingerprint `dblayout benchdiff` compares exactly.
    pub counters: Vec<CounterValue>,
    /// Wall-time attribution per pipeline phase.
    pub phases: Vec<PhaseMs>,
    /// Best (minimum) time to plan all 22 TPC-H queries at SF 1 over
    /// `reps` repetitions, ms (parsing excluded).
    pub plan_tpch22_sf1_best_ms: f64,
    /// Best (minimum) TS-GREEDY time on those plans over 64 uniform drives
    /// (the `advise-tpch64` instance), ms, as `(threads, best_ms)` at 1
    /// and 2 threads. Measured outside the counted and phased regions.
    pub tpch64_search_best_ms: Vec<(usize, f64)>,
}

/// Every placement fraction's bit pattern — the byte-level identity the
/// differential harness compares.
fn layout_bits(l: &Layout) -> Vec<u64> {
    let mut bits = Vec::new();
    for i in 0..l.object_count() {
        for j in 0..l.disk_count() {
            bits.push(l.fraction(i, j).to_bits());
        }
    }
    bits
}

/// Path of the bundled workload, resolved relative to this crate so the
/// bench works from any working directory.
pub fn tpch_mix_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/workloads/tpch_mix.sql")
}

/// Times `run` at each of `thread_counts` over `reps` rounds, each round
/// running every count once, so a drift of the host's speed during the
/// run reaches every count alike. Returns each count's best time (ms) and
/// its last value, in `thread_counts` order.
fn best_of_interleaved<T>(
    thread_counts: &[usize],
    reps: usize,
    mut run: impl FnMut(&TsGreedyConfig) -> T,
) -> Vec<(f64, T)> {
    let configs: Vec<TsGreedyConfig> = thread_counts
        .iter()
        .map(|&threads| TsGreedyConfig {
            threads,
            ..Default::default()
        })
        .collect();
    let mut best: Vec<(f64, Option<T>)> = configs.iter().map(|_| (f64::INFINITY, None)).collect();
    for _ in 0..reps.max(1) {
        for (cfg, (best_ms, last)) in configs.iter().zip(&mut best) {
            let t0 = Instant::now();
            let value = run(cfg);
            *best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            *last = Some(value);
        }
    }
    best.into_iter()
        .map(|(ms, last)| (ms, last.expect("at least one repetition ran")))
        .collect()
}

/// Runs the bench: the search at each of `thread_counts` (1 first when
/// the list lacks it, as the identity baseline), `reps` interleaved
/// rounds.
pub fn run_with(thread_counts: &[usize], reps: usize) -> SearchBenchReport {
    let reps = reps.max(1);
    let prof = PhaseTimer::new();
    let before = counters::snapshot();
    let catalog = tpch_catalog(1.0);
    let disks = paper_disks();
    let text = std::fs::read_to_string(tpch_mix_path()).expect("bundled tpch_mix.sql is readable");
    let analyze = prof.phase("analyze");
    let entries = parse_workload_file(&text).expect("tpch_mix.sql parses");
    let plans: Vec<_> = entries
        .iter()
        .map(|e| {
            (
                plan_statement(&catalog, &e.statement).expect("tpch_mix.sql plans"),
                e.weight,
            )
        })
        .collect();
    drop(analyze);
    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let graph = {
        let _build = prof.phase("build-graph");
        build_access_graph(sizes.len(), &plans)
    };
    let workload = {
        let _analyze = prof.phase("analyze");
        decompose_workload(&plans)
    };

    let mut counts = thread_counts.iter().map(|&t| t.max(1)).collect::<Vec<_>>();
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    let runs: Vec<_> = {
        let _search = prof.phase("search");
        let best = best_of_interleaved(&counts, reps, |cfg| {
            ts_greedy(&sizes, &graph, &workload, &disks, cfg).expect("search succeeds")
        });
        counts.iter().copied().zip(best).collect()
    };
    let (_, (_, baseline)) = runs
        .iter()
        .find(|(threads, _)| *threads == 1)
        .expect("the thread counts include 1");
    let baseline_layout = layout_bits(&baseline.layout);
    let baseline_cost = baseline.final_cost.to_bits();
    let rows: Vec<SearchBenchRow> = runs
        .iter()
        .map(|(threads, (best_ms, r))| SearchBenchRow {
            engine: "incremental",
            threads: *threads,
            best_ms: *best_ms,
            identical_to_baseline: layout_bits(&r.layout) == baseline_layout
                && r.final_cost.to_bits() == baseline_cost,
            iterations: r.iterations,
            cost_evaluations: r.cost_evaluations,
        })
        .collect();
    let all_identical = rows.iter().all(|r| r.identical_to_baseline);
    let migration = {
        let _migrate = prof.phase("migrate");
        let current = Layout::full_striping(sizes.clone(), &disks);
        let plan = dblayout_relayout::plan_migration(
            &current,
            &baseline.layout,
            &disks,
            &workload,
            &CostModel::default(),
        )
        .expect("migration from full striping is feasible");
        MigrationStamp {
            steps: plan.steps.len(),
            total_moved_blocks: plan.total_moved_blocks,
            total_moved_bytes: plan.total_moved_bytes,
            total_step_ms: plan.total_step_ms,
        }
    };
    let delta = counters::snapshot().delta(&before);

    // Planning speed, outside the counted and phased regions: TPC-H-22
    // binds up to 8 tables, so the join-order DP dominates it.
    let tpch22: Vec<_> = tpch22()
        .iter()
        .map(|q| parse_statement(q).expect("TPC-H query parses"))
        .collect();
    let mut plan_tpch22_sf1_best_ms = f64::INFINITY;
    let mut tpch22_plans = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        tpch22_plans = tpch22
            .iter()
            .map(|stmt| {
                (
                    plan_statement(&catalog, stmt).expect("TPC-H query plans"),
                    1.0,
                )
            })
            .collect();
        plan_tpch22_sf1_best_ms = plan_tpch22_sf1_best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    // The advise-tpch64 search, also outside the counted region.
    let tpch64_disks = uniform_disks(64, 400_000, 10.0, 20.0);
    let tpch64_graph = build_access_graph(sizes.len(), &tpch22_plans);
    let tpch64_workload = decompose_workload(&tpch22_plans);
    let tpch64_threads = [1usize, 2];
    let tpch64_best = best_of_interleaved(&tpch64_threads, reps, |cfg| {
        ts_greedy(&sizes, &tpch64_graph, &tpch64_workload, &tpch64_disks, cfg)
            .expect("search succeeds");
    });
    let tpch64_search_best_ms = tpch64_threads
        .into_iter()
        .zip(tpch64_best.into_iter().map(|(ms, ())| ms))
        .collect();
    SearchBenchReport {
        workload: "examples/workloads/tpch_mix.sql".to_string(),
        git_rev: crate::observatory::git_rev(
            &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        ),
        statements: plans.len(),
        host_available_parallelism: dblayout_core::available_parallelism(),
        reps,
        all_identical,
        pool_fallbacks: delta.get(Counter::ParPoolFallbacks),
        migration,
        rows,
        counters: delta
            .deterministic_pairs()
            .into_iter()
            .map(|(name, value)| CounterValue {
                name: name.to_string(),
                value,
            })
            .collect(),
        phases: prof
            .rows()
            .into_iter()
            .map(|r| PhaseMs {
                phase: r.name,
                calls: r.calls,
                total_ms: r.total_us as f64 / 1e3,
            })
            .collect(),
        plan_tpch22_sf1_best_ms,
        tpch64_search_best_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_engine_matches_the_sequential_baseline() {
        let report = run_with(&[1, 2, 4], 1);
        assert!(report.all_identical, "{report:?}");
        assert!(report.plan_tpch22_sf1_best_ms.is_finite());
        assert_eq!(report.tpch64_search_best_ms.len(), 2);
        assert_eq!(report.rows.len(), 3);
        let base = &report.rows[0];
        assert_eq!(base.threads, 1);
        assert!(base.iterations >= 1, "search adopted no move");
        for row in &report.rows[1..] {
            assert_eq!(row.iterations, base.iterations);
            assert_eq!(row.cost_evaluations, base.cost_evaluations);
        }
    }
}
