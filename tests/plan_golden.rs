//! Golden record of the optimizer's plans.
//!
//! Plans every bundled SQL workload and compares each plan's `{:?}`
//! rendering — which spells every `f64` so that it parses back to the same
//! bits — with `golden/plans.txt`. Each statement is recorded as a 64-bit
//! FNV-1a digest of that rendering; the TPC-H-22 plans at SF 1 are also
//! kept as full `explain` texts, so a diff there reads as a plan change.
//!
//! A change meant only to make planning faster must reproduce the file
//! byte for byte. Rewrite it only when a change is meant to alter plans:
//!
//! ```text
//! cargo test --release -p dblayout-integration --test plan_golden -- --ignored
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use dblayout_catalog::apb::apb_catalog;
use dblayout_catalog::sales::sales_catalog;
use dblayout_catalog::tpch::tpch_catalog;
use dblayout_catalog::Catalog;
use dblayout_planner::{explain, plan_statement, PhysicalPlan};
use dblayout_sql::{parse_statement, parse_workload_file};
use dblayout_workloads::{apb800, qgen, sales45, tpch22, wkctrl, wkscale};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/plans.txt")
}

/// One workload of the corpus: a label, the catalog it plans against and
/// its statements.
struct Family {
    label: String,
    catalog: Catalog,
    statements: Vec<String>,
}

fn family(label: &str, catalog: Catalog, statements: Vec<String>) -> Family {
    Family {
        label: label.to_string(),
        catalog,
        statements,
    }
}

/// Every bundled SQL workload, on the catalog it is advised against.
fn corpus() -> Vec<Family> {
    let mix = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples/workloads/tpch_mix.sql"),
    )
    .expect("bundled tpch_mix.sql is readable");
    let mix = parse_workload_file(&mix)
        .expect("tpch_mix.sql parses")
        .into_iter()
        .map(|e| e.text)
        .collect();
    let mut out = vec![
        family("tpch22-sf1", tpch_catalog(1.0), tpch22::tpch22()),
        family("tpch22-sf0.1", tpch_catalog(0.1), tpch22::tpch22()),
        family("apb800-s1", apb_catalog(), apb800::apb800(1)),
        family("sales45-s1", sales_catalog(), sales45::sales45(1)),
        family("wkctrl1", tpch_catalog(1.0), wkctrl::wk_ctrl1()),
        family("wkctrl2", tpch_catalog(1.0), wkctrl::wk_ctrl2()),
        family(
            "wkdrift-6x10-s3690",
            tpch_catalog(0.1),
            wkctrl::wk_drift(6, 10, 3690).concat(),
        ),
    ];
    for seed in 0..20 {
        out.push(family(
            &format!("qgen-50-s{seed}"),
            tpch_catalog(0.1),
            qgen::generate(50, seed),
        ));
    }
    out.push(family(
        "wkscale-200",
        tpch_catalog(1.0),
        wkscale::wk_scale(200),
    ));
    out.push(family("tpch_mix", tpch_catalog(0.1), mix));
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn plan(catalog: &Catalog, label: &str, i: usize, sql: &str) -> PhysicalPlan {
    let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("{label} #{i} parses: {e}"));
    plan_statement(catalog, &stmt).unwrap_or_else(|e| panic!("{label} #{i} plans: {e}\n{sql}"))
}

/// The golden file's content for the current optimizer.
fn render() -> String {
    let mut out = String::new();
    let mut total = 0;
    for f in corpus() {
        for (i, sql) in f.statements.iter().enumerate() {
            let p = plan(&f.catalog, &f.label, i, sql);
            let digest = fnv1a(format!("{p:?}").as_bytes());
            writeln!(out, "{} {i} {digest:016x}", f.label).expect("write to String");
        }
        total += f.statements.len();
    }
    writeln!(out, "-- {total} statements").expect("write to String");
    let sf1 = tpch_catalog(1.0);
    for (i, sql) in tpch22::tpch22().iter().enumerate() {
        writeln!(out, "== tpch22-sf1 Q{} ==", i + 1).expect("write to String");
        out.push_str(&explain(&plan(&sf1, "tpch22-sf1", i, sql)));
    }
    out
}

#[test]
fn every_bundled_statement_plans_as_recorded() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = render();
    if actual == golden {
        return;
    }
    let (line, (want, got)) = golden
        .lines()
        .chain(std::iter::repeat("<end of file>"))
        .zip(actual.lines().chain(std::iter::repeat("<end of file>")))
        .enumerate()
        .find(|(_, (g, a))| g != a)
        .expect("unequal texts differ in some line");
    panic!(
        "plans differ from {} at line {}:\n  golden: {want}\n  actual: {got}\n\
         rewrite the file (--ignored) only when a change is meant to alter plans",
        path.display(),
        line + 1
    );
}

#[test]
#[ignore = "rewrites golden/plans.txt; run only when a change is meant to alter plans"]
fn rewrite_plan_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, render()).expect("write golden file");
}
