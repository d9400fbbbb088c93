//! `dblayout migrate` records its decision with the phases it timed, as
//! `dblayout --workload` does: one `search` call around the budgeted
//! search, after `analyze` and `build-graph`.

use std::path::Path;
use std::process::Command;

use dblayout_audit::DecisionLog;

#[test]
fn migrate_records_its_phases() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("migrate_records_its_phases");
    // A fresh log, so the record read back is this run's.
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp).expect("clear the previous run's log");
    }
    let audit_dir = tmp.join("decisions");
    let out = Command::new(env!("CARGO_BIN_EXE_dblayout"))
        .current_dir(&root)
        .args([
            "migrate",
            "--database",
            "tpch:0.1",
            "--workload",
            "examples/workloads/tpch_mix.sql",
            "--budget-mb",
            "500",
            "--json",
        ])
        .arg(tmp.join("migration_plan.json"))
        .arg("--audit-dir")
        .arg(&audit_dir)
        .output()
        .expect("dblayout runs");
    assert!(
        out.status.success(),
        "migrate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let log = DecisionLog::open(&audit_dir).expect("decision log opens");
    let record = log.get(1).expect("the run recorded decision 1");
    assert_eq!(record.source, "cli.migrate");
    let phases: Vec<(&str, u64)> = record
        .outcome
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.calls))
        .collect();
    assert_eq!(phases, [("analyze", 1), ("build-graph", 1), ("search", 1)]);
}
