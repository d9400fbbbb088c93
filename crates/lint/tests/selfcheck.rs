//! The lint pass dogfoods: the workspace that ships the linter must be
//! lint-clean under `--deny-warnings`, with every in-tree suppression
//! carrying its documented reason. Rules R1, R2, R8 and R9 are clippy
//! lints; this file also pins their zones and R6's, so a crate cannot drop
//! out of one unnoticed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use dblayout_lint::lexer::TokKind;
use dblayout_lint::workspace::build_file_ctx;
use dblayout_lint::InputFile;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = dblayout_lint::lint_workspace(&workspace_root()).expect("workspace sources load");
    assert!(report.files_scanned > 50, "walker found the workspace");
    assert!(
        report.is_clean(true),
        "workspace must be lint-clean under --deny-warnings:\n{}",
        report.render()
    );
    for d in &report.suppressed {
        assert!(
            d.message.contains("[allowed: "),
            "suppression lost its reason: {}",
            d.message
        );
    }
}

const R1: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];
const R8: &[&str] = &["cast_possible_truncation"];
const R9: &[&str] = &[
    "let_underscore_must_use",
    "let_underscore_untyped",
    "unused_result_ok",
];

/// The lints named inside the `#![deny(...)]` attributes of `text`.
fn denied_lints(text: &str) -> Vec<String> {
    let mut lints = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find("#![deny(") {
        let body = &rest[start + "#![deny(".len()..];
        let end = body.find(")]").expect("deny attribute closes");
        lints.extend(
            body[..end]
                .split(',')
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty()),
        );
        rest = &body[end..];
    }
    lints
}

/// The `#![deny(...)]` lints at the root of `crates/<krate>`.
fn crate_denies(krate: &str) -> Vec<String> {
    let path = workspace_root()
        .join("crates")
        .join(krate)
        .join("src/lib.rs");
    denied_lints(&std::fs::read_to_string(&path).expect("crate root reads"))
}

/// Every crate in `inside` denies every lint in `lints`; no crate in
/// `outside` denies any of them.
fn assert_zone(rule: &str, lints: &[&str], inside: &[&str], outside: &[&str]) {
    for krate in inside {
        let denied = crate_denies(krate);
        for lint in lints {
            assert!(
                denied.contains(&format!("clippy::{lint}")),
                "crates/{krate}/src/lib.rs must deny clippy::{lint} ({rule}); it denies {denied:?}"
            );
        }
    }
    for krate in outside {
        let denied = crate_denies(krate);
        for lint in lints {
            assert!(
                !denied.contains(&format!("clippy::{lint}")),
                "crates/{krate} is outside the {rule} zone but denies clippy::{lint}"
            );
        }
    }
}

fn clippy_toml() -> String {
    std::fs::read_to_string(workspace_root().join("clippy.toml")).expect("clippy.toml reads")
}

#[test]
fn panic_zone_covers_the_hot_path_crates() {
    assert_zone(
        "R1",
        R1,
        &["server", "obs", "relayout", "audit", "core", "partition"],
        &["bench", "cli"],
    );
    assert_zone("R1", &["indexing_slicing"], &["server"], &[]);
    let clippy_toml = clippy_toml();
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
        "allow-indexing-slicing-in-tests",
    ] {
        assert!(
            clippy_toml.contains(&format!("{key} = true")),
            "clippy.toml must set {key} (R1 exempts tests)"
        );
    }
}

#[test]
fn bare_mutex_lock_is_disallowed_workspace_wide() {
    assert!(
        clippy_toml().contains("\"std::sync::Mutex::lock\""),
        "clippy.toml must disallow std::sync::Mutex::lock (R2)"
    );
}

#[test]
fn kernel_zone_covers_the_numeric_kernel_crates_only() {
    assert_zone("R8", R8, &["core", "disksim", "planner"], &["server"]);
}

#[test]
fn error_zone_covers_service_and_planning_crates() {
    assert_zone(
        "R9",
        R9,
        &["server", "planner", "relayout"],
        &["core", "bench"],
    );
}

/// Every directory under `crates/`, sorted.
fn workspace_crates() -> Vec<String> {
    let mut crates: Vec<String> = std::fs::read_dir(workspace_root().join("crates"))
        .expect("crates/ lists")
        .map(|e| {
            e.expect("crates/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    crates.sort();
    crates
}

/// The `crates/` directories named in `crates/<krate>/Cargo.toml`'s
/// `[dependencies]` section (first-party `dblayout-<dir>` packages only).
fn crate_deps(krate: &str) -> Vec<String> {
    let path = workspace_root()
        .join("crates")
        .join(krate)
        .join("Cargo.toml");
    let manifest = std::fs::read_to_string(path).expect("manifest reads");
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.trim().strip_prefix("dblayout-"))
        .map(|dep| {
            dep.split(['.', ' ', '='])
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// The crates that hold the deterministic search paths: TS-GREEDY and its
/// pool (`core`), continuous relayout, decision audit, the counter
/// registry (`obs`) and the step-1 partitioners.
const R6_SEED_CRATES: &[&str] = &["core", "relayout", "audit", "obs", "partition"];

#[test]
fn determinism_zone_is_the_seed_crates_dependency_closure() {
    let mut zone: BTreeSet<String> = BTreeSet::new();
    let mut todo: Vec<String> = R6_SEED_CRATES.iter().map(|c| c.to_string()).collect();
    while let Some(krate) = todo.pop() {
        if zone.insert(krate.clone()) {
            todo.extend(crate_deps(&krate));
        }
    }
    let clock = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    for krate in workspace_crates() {
        let report = dblayout_lint::analyze(&[InputFile {
            path: format!("crates/{krate}/src/fixture.rs"),
            text: clock.into(),
        }]);
        let flagged = report.diagnostics.iter().any(|d| d.rule == "R6");
        assert_eq!(
            flagged,
            zone.contains(&krate),
            "crates/{krate} is {}in the dependency closure of {R6_SEED_CRATES:?}, so R6 must \
             {}flag it",
            if zone.contains(&krate) { "" } else { "not " },
            if zone.contains(&krate) { "" } else { "not " },
        );
    }
}

#[test]
fn zoned_schedule_file_imports_nothing_from_its_crate() {
    // R6 zones `loadgen/src/schedule.rs` by file, not by crate: that is
    // sound only while nothing it runs lives elsewhere in loadgen.
    let path = "crates/loadgen/src/schedule.rs";
    let text = std::fs::read_to_string(workspace_root().join(path)).expect("schedule reads");
    let file = build_file_ctx(&InputFile {
        path: path.into(),
        text,
    })
    .expect("schedule lexes");
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        let path_root = (name == "crate" || name == "super")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct("::".into()));
        assert!(
            !path_root || file.in_tests(t.line),
            "{path}:{}: `{name}::` outside tests; zone crates/loadgen whole or move the item",
            t.line
        );
    }
}
