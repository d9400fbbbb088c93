//! `dblayout explain` on CI's example workload: the trace reproduces the
//! golden `results/explain_trace.jsonl` byte for byte, and the narrative
//! lists exactly the deterministic work counters.

use std::path::Path;
use std::process::Command;

use dblayout_obs::counters::Counter;

#[test]
fn explain_reproduces_the_golden_trace_and_lists_the_deterministic_counters() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let trace_out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("explain_trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dblayout"))
        .current_dir(&root)
        .args([
            "explain",
            "--database",
            "tpch:0.1",
            "--workload",
            "examples/workloads/tpch_mix.sql",
            "--trace-out",
        ])
        .arg(&trace_out)
        .output()
        .expect("dblayout runs");
    assert!(
        out.status.success(),
        "explain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let trace = std::fs::read(&trace_out).expect("trace written");
    let golden = std::fs::read(root.join("results/explain_trace.jsonl")).expect("golden trace");
    assert!(
        trace == golden,
        "the explain trace differs from results/explain_trace.jsonl; regenerate it only when \
         the change is meant to alter the search"
    );

    let narrative = String::from_utf8(out.stdout).expect("UTF-8 narrative");
    let listed: Vec<&str> = narrative
        .lines()
        .skip_while(|l| *l != "Deterministic work counters:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let deterministic: Vec<&str> = Counter::ALL
        .iter()
        .filter(|c| c.is_deterministic())
        .map(|c| c.name())
        .collect();
    assert_eq!(listed, deterministic, "{narrative}");
}
