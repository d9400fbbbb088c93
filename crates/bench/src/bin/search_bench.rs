//! TS-GREEDY wall times on `tpch_mix.sql` at each requested thread count.
//!
//! Usage: `search_bench [threads...]` (default `1 2 4 8`). Runs the search
//! at each thread count (1 first when the list lacks it), writes
//! `results/search_bench.json`, appends one observatory entry to the
//! repo-root `BENCH_search.json` history (see `dblayout benchdiff`), and
//! exits non-zero if any thread count's layout or cost diverges from the
//! 1-thread run's — the identity check the CI bench-observatory job
//! enforces — or if the history cannot be appended. The history entry also
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
    println!("search bench: TS-GREEDY at each thread count vs the 1-thread run (dblayout-par)");
    println!();
    let report = dblayout_bench::search_bench::run_with(&threads, 5);
    println!(
        "workload {} ({} statements), host parallelism {}",
        report.workload, report.statements, report.host_available_parallelism
    );
    println!(
        "{:>12} {:>8} {:>12} {:>10}",
        "engine", "threads", "best (ms)", "identical"
    );
    for r in &report.rows {
        println!(
            "{:>12} {:>8} {:>12.2} {:>10}",
            r.engine, r.threads, r.best_ms, r.identical_to_baseline
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
    // capture everything the deterministic counters depend on (`engine`:
    // the counted runs are the incremental engine's alone).
    let entry = dblayout_bench::observatory::HistoryEntry {
        rev: report.git_rev.clone(),
        config: format!(
            "workload=tpch_mix;reps={};threads={};engine=incremental",
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
    let mut failed = false;
    match dblayout_bench::observatory::append_history(&history, &entry) {
        Ok(n) => eprintln!("(history appended to {} — {n} entries)", history.display()),
        Err(e) => {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if !report.all_identical {
        eprintln!("error: parallel search output diverged from the 1-thread run");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
