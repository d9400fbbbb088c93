//! Per-rule fixture tests: every seeded violation trips its rule (so a
//! `--deny-warnings` run would exit non-zero), every clean twin passes,
//! and suppression directives behave.

use dblayout_lint::{analyze, InputFile, LintReport, Severity};

fn file(path: &str, text: &str) -> InputFile {
    InputFile {
        path: path.into(),
        text: text.into(),
    }
}

/// Rule ids of the active (unsuppressed) diagnostics.
fn rules_hit(report: &LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn r3_nan_unsafe_comparisons() {
    let report = analyze(&[file(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r3_float.rs"),
    )]);
    assert_eq!(rules_hit(&report), ["R3", "R3"], "{}", report.render());
    assert!(!report.is_clean(true));

    let clean = analyze(&[file(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r3_clean.rs"),
    )]);
    assert!(clean.is_clean(true), "{}", clean.render());
}

#[test]
fn r4_two_mutex_cycle() {
    let report = analyze(&[file(
        "crates/server/src/fixture.rs",
        include_str!("fixtures/r4_cycle.rs"),
    )]);
    assert!(rules_hit(&report).contains(&"R4"), "{}", report.render());
    assert!(!report.is_clean(true));
    let cycle = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R4")
        .map(|d| d.message.as_str())
        .unwrap_or_default();
    assert!(
        cycle.contains("queue") && cycle.contains("registry"),
        "cycle names both mutexes: {cycle}"
    );

    let clean = analyze(&[file(
        "crates/server/src/fixture.rs",
        include_str!("fixtures/r4_clean.rs"),
    )]);
    assert!(clean.is_clean(true), "{}", clean.render());
}

#[test]
fn r4_cycle_across_files() {
    // The graph merges acquisitions by mutex name across the crate: the
    // opposite orders live in different files here.
    let cycle = include_str!("fixtures/r4_cycle.rs");
    let (drain, report_fn) = cycle.split_once("pub fn report").expect("both fns");
    let report = analyze(
        &[
            file("crates/server/src/a.rs", drain),
            file(
                "crates/server/src/b.rs",
                &format!("use std::sync::{{Mutex, PoisonError}};\npub struct Shared {{ pub queue: Mutex<Vec<u64>>, pub registry: Mutex<Vec<u64>> }}\npub fn report{report_fn}"),
            ),
        ],
    );
    assert!(rules_hit(&report).contains(&"R4"), "{}", report.render());
}

#[test]
fn suppression_with_reason_silences_and_is_reported() {
    let report = analyze(&[file(
        "crates/server/src/fixture.rs",
        include_str!("fixtures/r3_suppressed.rs"),
    )]);
    assert!(report.is_clean(true), "{}", report.render());
    assert_eq!(report.suppressed.len(), 1);
    assert!(
        report.suppressed[0].message.contains("exact sentinel"),
        "reason travels into the report: {}",
        report.suppressed[0].message
    );
}

#[test]
fn suppression_without_reason_is_fatal() {
    let report = analyze(&[file(
        "crates/server/src/fixture.rs",
        include_str!("fixtures/r3_suppressed_bad.rs"),
    )]);
    // The malformed directive is an error (fatal even without
    // --deny-warnings) and the finding it aimed at stays active.
    assert_eq!(report.errors(), 1, "{}", report.render());
    assert!(rules_hit(&report).contains(&"R3"));
    assert!(!report.is_clean(false));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error && d.message.contains("reason")));
}

#[test]
fn r6_hash_iteration_and_reachable_wall_clock() {
    // Every hazard in a zone file is a finding, one per line, and none
    // comes from the `use` lines or the #[cfg(test)] module.
    let report = analyze(&[file(
        "crates/core/src/tsgreedy.rs",
        include_str!("fixtures/r6_det_zone.rs"),
    )]);
    assert_eq!(rules_hit(&report), ["R6"; 5], "{}", report.render());
    let lines: Vec<u32> = report.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, [7, 8, 9, 10, 11], "{}", report.render());
    for (d, hazard) in report.diagnostics.iter().zip([
        "`HashMap`",
        "`HashSet`",
        "`Instant::now`",
        "`SystemTime::now`",
        "`thread::current`",
    ]) {
        assert!(d.message.contains(hazard), "{hazard}: {}", d.message);
    }

    let clean = analyze(&[file(
        "crates/core/src/tsgreedy.rs",
        include_str!("fixtures/r6_clean.rs"),
    )]);
    assert!(clean.is_clean(true), "{}", clean.render());
}

#[test]
fn r6_is_scoped_to_the_deterministic_zone() {
    let hazards = include_str!("fixtures/r6_det_zone.rs");
    // A whole zone crate, however far its file sits from the search, and
    // the load harness's schedule are zoned...
    for zoned in [
        "crates/catalog/src/fixture.rs",
        "crates/loadgen/src/schedule.rs",
    ] {
        let report = analyze(&[file(zoned, hazards)]);
        assert_eq!(
            rules_hit(&report),
            ["R6"; 5],
            "{zoned}: {}",
            report.render()
        );
    }
    // ...while the same text in a crate the search does not depend on,
    // or elsewhere in loadgen, is not R6's business.
    for outside in [
        "crates/server/src/fixture.rs",
        "crates/loadgen/src/driver.rs",
    ] {
        let report = analyze(&[file(outside, hazards)]);
        assert!(report.is_clean(true), "{outside}: {}", report.render());
    }
}

#[test]
fn r6_reasoned_suppression_silences_the_finding() {
    let report = analyze(&[file(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r6_suppressed.rs"),
    )]);
    assert!(report.is_clean(true), "{}", report.render());
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "R6");
    assert!(report.suppressed[0]
        .message
        .contains("[allowed: feeds only the timing report"));
}

#[test]
fn r7_atomics_forbidden_outside_sanctioned_zones() {
    let report = analyze(&[file(
        "crates/catalog/src/fixture.rs",
        include_str!("fixtures/r7_forbidden.rs"),
    )]);
    // The AtomicU64 field and the fetch_add's Ordering, one per line.
    assert_eq!(rules_hit(&report), ["R7", "R7"], "{}", report.render());
}

#[test]
fn r7_ordering_policy_per_zone() {
    let report = analyze(&[file(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r7_bad_ordering.rs"),
    )]);
    // Atomics are sanctioned in obs, but only Relaxed is in the policy.
    assert_eq!(rules_hit(&report), ["R7"], "{}", report.render());
    assert!(report.diagnostics[0].message.contains("AcqRel"));

    let clean = analyze(&[file(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r7_clean.rs"),
    )]);
    assert!(clean.is_clean(true), "{}", clean.render());
}

#[test]
fn unused_suppression_is_a_finding() {
    let report = analyze(&[file(
        "crates/server/src/fixture.rs",
        include_str!("fixtures/unused_suppression.rs"),
    )]);
    assert_eq!(
        rules_hit(&report),
        ["unused-suppression"],
        "{}",
        report.render()
    );
    assert!(report.diagnostics[0].message.contains("R3"));
    assert!(!report.is_clean(true), "stale directives fail CI");
}
