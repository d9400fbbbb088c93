//! Sequential-vs-parallel TS-GREEDY wall times on `tpch_mix.sql`.
//!
//! Usage: `search_bench [threads...]` (default `1 2 4 8`). Runs the
//! sequential full-re-evaluation baseline, then the incremental parallel
//! engine at each thread count, writes `results/search_bench.json`,
//! appends one observatory entry to the repo-root `BENCH_search.json`
//! history (see `dblayout benchdiff`), and exits non-zero if any
//! configuration's layout or cost diverges from the baseline — the
//! identity check the CI bench-smoke job enforces. The history entry also
//! carries `planner/tpch22-sf1`, the best time to plan TPC-H-22 at SF 1,
//! and `tpch64/t1` / `tpch64/t2`, the best search times on the
//! `advise-tpch64` instance at 1 and 2 threads.

use std::process::ExitCode;

fn main() -> ExitCode {
    let threads: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let threads = if threads.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        threads
    };
    println!("search bench: sequential full re-evaluation vs incremental parallel (dblayout-par)");
    println!();
    let report = dblayout_bench::search_bench::run_with(&threads, 5);
    println!(
        "workload {} ({} statements), host parallelism {}",
        report.workload, report.statements, report.host_available_parallelism
    );
    println!(
        "{:>18} {:>8} {:>12} {:>9} {:>10}",
        "engine", "threads", "best (ms)", "speedup", "identical"
    );
    for r in &report.rows {
        println!(
            "{:>18} {:>8} {:>12.2} {:>8.2}x {:>10}",
            r.engine, r.threads, r.best_ms, r.speedup_vs_sequential_full, r.identical_to_baseline
        );
    }
    println!();
    println!(
        "migration plan (full striping -> recommendation): {} steps, {} blocks ({} MB), {:.0} ms model transfer",
        report.migration.steps,
        report.migration.total_moved_blocks,
        report.migration.total_moved_bytes / 1_048_576,
        report.migration.total_step_ms
    );
    println!(
        "planner: all 22 TPC-H queries (SF 1) in {:.2} ms (best of {})",
        report.plan_tpch22_sf1_best_ms, report.reps
    );
    for (threads, ms) in &report.tpch64_search_best_ms {
        println!(
            "advise-tpch64 search: {ms:.2} ms at {threads} thread(s) (best of {})",
            report.reps
        );
    }
    dblayout_bench::write_json("search_bench", &report);

    // Observatory: append this run to the repo-root history. The config
    // fingerprint gates benchdiff's exact counter comparison, so it must
    // capture everything the deterministic counters depend on.
    let entry = dblayout_bench::observatory::HistoryEntry {
        rev: report.git_rev.clone(),
        config: format!(
            "workload=tpch_mix;reps={};threads={}",
            report.reps,
            threads
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
        threads: threads.clone(),
        timings_ms: report
            .rows
            .iter()
            .map(|r| (format!("{}/t{}", r.engine, r.threads), r.best_ms))
            .chain([(
                "planner/tpch22-sf1".to_string(),
                report.plan_tpch22_sf1_best_ms,
            )])
            .chain(
                report
                    .tpch64_search_best_ms
                    .iter()
                    .map(|(threads, ms)| (format!("tpch64/t{threads}"), *ms)),
            )
            .collect(),
        phases_ms: report
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.total_ms))
            .collect(),
        counters: report
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect(),
    };
    let history = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_search.json");
    match dblayout_bench::observatory::append_history(&history, &entry) {
        Ok(n) => eprintln!("(history appended to {} — {n} entries)", history.display()),
        Err(e) => eprintln!("warning: {e}"),
    }

    if report.all_identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: parallel search output diverged from the sequential baseline");
        ExitCode::FAILURE
    }
}
