//! Mega-scale differential bench: the WK-MEGA family (thousands of
//! objects × 64–256 disks) through TS-GREEDY with the multilevel
//! partitioner and pruned widening.
//!
//! Three claims, each machine-checked:
//!
//! 1. **Determinism at scale** — the search produces *byte-identical*
//!    layouts, costs, and deterministic counters at every thread count
//!    (the `megascale_bench` binary exits non-zero on any divergence);
//! 2. **Multilevel pays** — coarsen → KL → refine partitioning beats the
//!    direct O(n²) KL pass on wall clock (reported as
//!    `partition_speedup`; at the largest family member the binary
//!    requires ≥ 2×) *without degrading the partition*: at mega scale
//!    the cut saturates (every co-accessed pair is separated) and both
//!    engines reach it, while the multilevel pass is strictly better
//!    balanced. The binary gates on those step-1 objectives (cut parity
//!    and balance). The end-to-end `cost_ratio` is *reported*, not gated:
//!    step-2 greedy widening is path-dependent in its starting layout,
//!    so equal-quality partitions can converge to local optima ~15%
//!    apart (measured both directions; see EXPERIMENTS.md);
//! 3. **Parallelism pays** — per-thread wall times land in the
//!    `BENCH_search.json` observatory history under this instance's
//!    config fingerprint, where `dblayout benchdiff
//!    --require-not-slower` gates 4-thread ≥ 1-thread continuously on
//!    multi-core hosts (a single-core host cannot *measure* thread
//!    speedup, so the wall-clock gate lives in benchdiff, not here —
//!    see EXPERIMENTS.md).

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

use dblayout_core::tsgreedy::{ts_greedy, Partitioner, TsGreedyConfig};
use dblayout_core::{build_access_graph_subplans, Layout};
use dblayout_obs::counters;
use dblayout_obs::prof::PhaseTimer;
use dblayout_partition::{max_cut_partition, multilevel_max_cut, Graph};
use dblayout_workloads::wkmega::{generate, MegaConfig};

use crate::search_bench::PhaseMs;

/// One measured search configuration on the mega instance.
#[derive(Debug, Clone, Serialize)]
pub struct MegaSearchRow {
    /// Step-1 engine: `direct` or `multilevel`.
    pub partitioner: &'static str,
    /// Worker threads used for candidate scoring.
    pub threads: usize,
    /// Best (minimum) wall time over the measured repetitions, ms.
    pub best_ms: f64,
    /// Layout fractions and final cost are bit-identical to the
    /// 1-thread run of the *same* partitioner.
    pub identical_to_one_thread: bool,
    /// Greedy iterations adopted (thread-invariant).
    pub iterations: usize,
    /// Cost-model evaluations performed (thread-invariant).
    pub cost_evaluations: usize,
    /// Final advised-layout cost for this configuration.
    pub final_cost: f64,
}

/// Step-1 head-to-head: direct KL vs multilevel on the same graph.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionDuel {
    /// Direct `max_cut_partition` wall time, ms (best of reps).
    pub direct_ms: f64,
    /// `multilevel_max_cut` wall time, ms (best of reps).
    pub multilevel_ms: f64,
    /// `direct_ms / multilevel_ms` — ≥ 2 expected at mega scale.
    pub speedup: f64,
    /// Cut weight achieved by the direct pass.
    pub direct_cut: f64,
    /// Cut weight achieved by the multilevel pass.
    pub multilevel_cut: f64,
    /// Direct pass: heaviest part's node weight over the mean part's —
    /// 1.0 is perfect balance.
    pub direct_balance: f64,
    /// Multilevel pass: same imbalance measure (the cut-neutral balance
    /// pass should make this the smaller of the two at mega scale).
    pub multilevel_balance: f64,
}

/// The whole mega-scale run, as written to `results/megascale_bench.json`.
#[derive(Debug, Clone, Serialize)]
pub struct MegaBenchReport {
    /// Instance name (`wkmega-{objects}x{disks}-s{seed}`).
    pub instance: String,
    /// Objects in the instance.
    pub objects: usize,
    /// Disks in the farm.
    pub disks: usize,
    /// Statements in the workload.
    pub statements: usize,
    /// Git revision of the measured tree.
    pub git_rev: String,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_available_parallelism: usize,
    /// Repetitions per configuration (`best_ms` is the minimum).
    pub reps: usize,
    /// Every row matched its partitioner's 1-thread run bit for bit.
    pub all_identical: bool,
    /// Multilevel search final cost divided by direct search final cost
    /// under the same iteration budget. Reported, not gated: with the cut
    /// saturated and balance favouring multilevel, the residual spread is
    /// greedy path dependence, not partition quality (DESIGN.md §11).
    pub cost_ratio: f64,
    /// Step-1 wall-clock duel on this instance's access graph.
    pub partition: PartitionDuel,
    /// Per-configuration search measurements.
    pub rows: Vec<MegaSearchRow>,
    /// Deterministic work-counter deltas over the whole run.
    pub counters: Vec<(String, u64)>,
    /// Wall-time attribution: instance generation, access-graph build,
    /// the step-1 partition duel and the search matrix.
    pub phases: Vec<PhaseMs>,
    /// Wall time of the whole run, ms — the phases sum to nearly all of it.
    pub wall_ms: f64,
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

/// Heaviest part's node weight divided by the mean part's — 1.0 is
/// perfect balance, large values mean one part hoards the hot objects.
fn imbalance(g: &Graph, assignment: &[usize], parts: usize) -> f64 {
    let mut weight = vec![0.0f64; parts.max(1)];
    for (u, &p) in assignment.iter().enumerate() {
        if let Some(w) = weight.get_mut(p) {
            *w += g.node_weight(u);
        }
    }
    let total: f64 = weight.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let mean = total / weight.len() as f64;
    weight.iter().copied().fold(0.0f64, f64::max) / mean
}

/// Runs the mega bench on one family member: the step-1 duel, then the
/// search at each thread count under both partitioners, `reps`
/// repetitions each. Deterministic apart from wall times.
pub fn run_with(cfg: &MegaConfig, thread_counts: &[usize], reps: usize) -> MegaBenchReport {
    let reps = reps.max(1);
    let started = Instant::now();
    let prof = PhaseTimer::new();
    let before = counters::snapshot();
    let instance = {
        let _generate = prof.phase("generate");
        generate(cfg)
    };
    let graph = {
        let _build = prof.phase("build-graph");
        build_access_graph_subplans(instance.sizes.len(), &instance.workload)
    };
    let parts = instance.disks.len();

    // Step-1 duel: identical graph, identical target part count.
    let duel = prof.phase("partition");
    let mut direct_ms = f64::INFINITY;
    let mut multilevel_ms = f64::INFINITY;
    let mut direct_assignment = Vec::new();
    let mut multilevel_assignment = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        direct_assignment = max_cut_partition(&graph, parts);
        direct_ms = direct_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        multilevel_assignment = multilevel_max_cut(&graph, parts);
        multilevel_ms = multilevel_ms.min(t1.elapsed().as_secs_f64() * 1e3);
    }
    let partition = PartitionDuel {
        direct_ms,
        multilevel_ms,
        speedup: direct_ms / multilevel_ms,
        direct_cut: graph.cut_weight(&direct_assignment),
        multilevel_cut: graph.cut_weight(&multilevel_assignment),
        direct_balance: imbalance(&graph, &direct_assignment, parts),
        multilevel_balance: imbalance(&graph, &multilevel_assignment, parts),
    };
    drop(duel);

    // Search matrix: both partitioners at every thread count. Pruned
    // widening keeps per-iteration work bounded, and the iteration budget
    // (2 adopted moves per disk) makes the matrix tractable at mega scale
    // — a fully converged widening adopts O(objects × disks) moves, which
    // is minutes per configuration at thousands of objects. The budget is
    // *identical* for both partitioners, so `cost_ratio` compares what
    // each step-1 engine lets the same greedy budget achieve. Every
    // configuration of one partitioner must match its own 1-thread run
    // bit for bit.
    let budget = 2 * parts;
    let search_cfg = |partitioner: Partitioner, threads: usize| TsGreedyConfig {
        threads,
        partitioner,
        prune_width: 32,
        max_iterations: budget,
        ..Default::default()
    };
    let measure = |cfg: &TsGreedyConfig| {
        let mut best_ms = f64::INFINITY;
        let mut result = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = ts_greedy(
                &instance.sizes,
                &graph,
                &instance.workload,
                &instance.disks,
                cfg,
            )
            .expect("mega search succeeds");
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            result = Some(r);
        }
        (best_ms, result.expect("at least one repetition ran"))
    };

    let search = prof.phase("search");
    let mut rows = Vec::new();
    let mut final_costs = [0.0f64; 2];
    for (pi, (name, partitioner)) in [
        ("multilevel", Partitioner::Auto { threshold: 0 }),
        (
            "direct",
            Partitioner::Auto {
                threshold: usize::MAX,
            },
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let mut baseline: Option<(Vec<u64>, u64)> = None;
        for &threads in thread_counts {
            let threads = threads.max(1);
            let (best_ms, r) = measure(&search_cfg(partitioner.clone(), threads));
            let bits = layout_bits(&r.layout);
            let cost_bits = r.final_cost.to_bits();
            let identical = match &baseline {
                None => {
                    baseline = Some((bits, cost_bits));
                    true
                }
                Some((b, c)) => *b == bits && *c == cost_bits,
            };
            final_costs[pi] = r.final_cost;
            rows.push(MegaSearchRow {
                partitioner: name,
                threads,
                best_ms,
                identical_to_one_thread: identical,
                iterations: r.iterations,
                cost_evaluations: r.cost_evaluations,
                final_cost: r.final_cost,
            });
        }
    }
    drop(search);
    let all_identical = rows.iter().all(|r| r.identical_to_one_thread);
    let cost_ratio = final_costs[0] / final_costs[1];

    let delta = counters::snapshot().delta(&before);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    MegaBenchReport {
        instance: instance.name.clone(),
        objects: instance.sizes.len(),
        disks: parts,
        statements: instance.workload.len(),
        git_rev: crate::observatory::git_rev(
            &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        ),
        host_available_parallelism: dblayout_core::available_parallelism(),
        reps,
        all_identical,
        cost_ratio,
        partition,
        rows,
        counters: delta
            .deterministic_pairs()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
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
        wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mega_bench_is_identical_across_threads_and_partitioners_agree() {
        let cfg = MegaConfig::scaled(220, 8, 11);
        let report = run_with(&cfg, &[1, 2], 1);
        assert!(report.all_identical, "{report:?}");
        assert_eq!(report.rows.len(), 4);
        // Same partitioner → thread-invariant deterministic work.
        for pair in report.rows.chunks(2) {
            assert_eq!(pair[0].iterations, pair[1].iterations);
            assert_eq!(pair[0].cost_evaluations, pair[1].cost_evaluations);
        }
        // Step-1 objectives: both engines find a real cut, and the
        // balance metric is populated (≥ 1 by construction). The
        // budgeted cost_ratio is reported, not asserted — greedy
        // widening is path-dependent in its starting layout, so the
        // end-to-end ratio is a property of the search path, not of
        // partition quality (DESIGN.md §11, EXPERIMENTS.md).
        assert!(report.partition.direct_cut > 0.0);
        assert!(report.partition.multilevel_cut > 0.0);
        assert!(report.partition.direct_balance >= 1.0);
        assert!(report.partition.multilevel_balance >= 1.0);
        assert!(report.cost_ratio.is_finite() && report.cost_ratio > 0.0);
        let phases: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["generate", "build-graph", "partition", "search"]);
        let sum: f64 = report.phases.iter().map(|p| p.total_ms).sum();
        assert!(
            sum <= report.wall_ms,
            "{sum} ms of phases in {} ms",
            report.wall_ms
        );
    }
}
