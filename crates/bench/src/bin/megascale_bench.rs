//! Mega-scale TS-GREEDY differential bench on the WK-MEGA family.
//!
//! Usage: `megascale_bench [objects disks [reps]]` (default `900 64 3`).
//! Runs the step-1 duel (direct KL vs multilevel coarsening) and the
//! search matrix (both partitioners × threads {1,2,4,8}), writes
//! `results/megascale_bench.json`, appends one observatory entry to the
//! repo-root `BENCH_search.json` history (see `dblayout benchdiff`), and
//! exits non-zero when any hard claim fails:
//!
//! * any configuration's layout or cost diverges from its partitioner's
//!   1-thread run (byte-identity across thread counts);
//! * the phase rows (instance generation, access-graph build, step-1
//!   duel, search matrix) sum to more than 5% off the run's wall clock;
//! * at mega scale (≥ 600 objects) the multilevel cut falls below the
//!   direct cut (the cut saturates there, so parity is the expectation)
//!   or the multilevel partition is *less* balanced than the direct one;
//! * at mega scale (≥ 1500 objects) multilevel partitioning is not at
//!   least 2× faster than the direct KL pass.
//!
//! The end-to-end advised-cost ratio is printed and recorded but not
//! gated: step-2 greedy widening is path-dependent in its starting
//! layout, so equal-quality partitions can converge ~15% apart in either
//! direction (see EXPERIMENTS.md and DESIGN.md §11).

use std::process::ExitCode;

use dblayout_workloads::wkmega::MegaConfig;

fn main() -> ExitCode {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let objects = args.first().copied().unwrap_or(900);
    let disks = args.get(1).copied().unwrap_or(64);
    let reps = args.get(2).copied().unwrap_or(3);
    let cfg = MegaConfig::scaled(objects, disks, 0xE6A);
    let threads = vec![1usize, 2, 4, 8];

    println!("mega-scale bench: WK-MEGA {objects}x{disks}, both partitioners, threads 1/2/4/8");
    println!();
    let report = dblayout_bench::megascale::run_with(&cfg, &threads, reps);
    println!(
        "instance {} ({} statements), host parallelism {}",
        report.instance, report.statements, report.host_available_parallelism
    );
    println!(
        "step 1: direct KL {:.1} ms vs multilevel {:.1} ms -> {:.2}x (cut {:.0} vs {:.0}, \
         balance {:.2} vs {:.2})",
        report.partition.direct_ms,
        report.partition.multilevel_ms,
        report.partition.speedup,
        report.partition.direct_cut,
        report.partition.multilevel_cut,
        report.partition.direct_balance,
        report.partition.multilevel_balance
    );
    println!(
        "{:>12} {:>8} {:>12} {:>10} {:>12}",
        "partitioner", "threads", "best (ms)", "identical", "final cost"
    );
    for r in &report.rows {
        println!(
            "{:>12} {:>8} {:>12.2} {:>10} {:>12.2}",
            r.partitioner, r.threads, r.best_ms, r.identical_to_one_thread, r.final_cost
        );
    }
    println!();
    println!(
        "multilevel/direct advised-cost ratio: {:.5}",
        report.cost_ratio
    );
    dblayout_bench::write_json("megascale_bench", &report);

    // Observatory: the config fingerprint carries the instance name so
    // benchdiff compares mega entries only against mega entries, and the
    // timing metrics feed `--require-not-slower mega/t4,mega/t1`.
    let entry = dblayout_bench::observatory::HistoryEntry {
        rev: report.git_rev.clone(),
        config: format!(
            "workload={};reps={};threads=1,2,4,8;partitioners=multilevel,direct",
            report.instance, report.reps
        ),
        threads: threads.clone(),
        timings_ms: report
            .rows
            .iter()
            .map(|r| {
                let prefix = if r.partitioner == "multilevel" {
                    "mega"
                } else {
                    "mega-direct"
                };
                (format!("{prefix}/t{}", r.threads), r.best_ms)
            })
            .chain([
                (
                    "mega/direct-partition".to_string(),
                    report.partition.direct_ms,
                ),
                (
                    "mega/multilevel-partition".to_string(),
                    report.partition.multilevel_ms,
                ),
            ])
            .collect(),
        phases_ms: report
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.total_ms))
            .collect(),
        counters: report.counters.clone(),
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

    let phase_ms: f64 = report.phases.iter().map(|p| p.total_ms).sum();
    println!(
        "phases: {} = {phase_ms:.0} ms of {:.0} ms wall clock",
        report
            .phases
            .iter()
            .map(|p| format!("{} {:.0}", p.phase, p.total_ms))
            .collect::<Vec<_>>()
            .join(" + "),
        report.wall_ms
    );
    if (phase_ms - report.wall_ms).abs() > 0.05 * report.wall_ms {
        eprintln!("error: the phase rows do not account for the run's wall clock");
        failed = true;
    }
    if !report.all_identical {
        eprintln!("error: search output diverged across thread counts");
        failed = true;
    }
    if report.objects >= 600 {
        if report.partition.multilevel_cut < report.partition.direct_cut * 0.999 {
            eprintln!(
                "error: multilevel cut {:.0} below direct cut {:.0} at mega scale",
                report.partition.multilevel_cut, report.partition.direct_cut
            );
            failed = true;
        }
        if report.partition.multilevel_balance > report.partition.direct_balance {
            eprintln!(
                "error: multilevel partition less balanced than direct ({:.2} vs {:.2})",
                report.partition.multilevel_balance, report.partition.direct_balance
            );
            failed = true;
        }
    }
    if report.objects >= 1500 && report.partition.speedup < 2.0 {
        eprintln!(
            "error: multilevel partitioning only {:.2}x faster than direct KL at mega scale",
            report.partition.speedup
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
