//! The lint pass dogfoods: the workspace that ships the linter must be
//! lint-clean under `--deny-warnings`, with every in-tree suppression
//! carrying its documented reason. Rules R1, R2, R8 and R9 are clippy
//! lints; this file also pins their zones, so a crate cannot drop out of
//! one unnoticed.

use std::path::{Path, PathBuf};

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
