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
    let report = analyze(
        &[file(
            "crates/core/src/fixture.rs",
            include_str!("fixtures/r3_float.rs"),
        )],
        None,
    );
    assert_eq!(rules_hit(&report), ["R3", "R3"], "{}", report.render());
    assert!(!report.is_clean(true));

    let clean = analyze(
        &[file(
            "crates/core/src/fixture.rs",
            include_str!("fixtures/r3_clean.rs"),
        )],
        None,
    );
    assert!(clean.is_clean(true), "{}", clean.render());
}

#[test]
fn r4_two_mutex_cycle() {
    let report = analyze(
        &[file(
            "crates/server/src/fixture.rs",
            include_str!("fixtures/r4_cycle.rs"),
        )],
        None,
    );
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

    let clean = analyze(
        &[file(
            "crates/server/src/fixture.rs",
            include_str!("fixtures/r4_clean.rs"),
        )],
        None,
    );
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
        None,
    );
    assert!(rules_hit(&report).contains(&"R4"), "{}", report.render());
}

#[test]
fn r5_undispatched_and_undocumented_variant() {
    let files = [
        file(
            "crates/server/src/protocol.rs",
            include_str!("fixtures/r5_protocol.rs"),
        ),
        file(
            "crates/server/src/engine.rs",
            include_str!("fixtures/r5_engine.rs"),
        ),
    ];
    // `Shutdown` is neither dispatched nor documented: two findings.
    let report = analyze(&files, Some("| open_session | stats |"));
    assert_eq!(rules_hit(&report), ["R5", "R5"], "{}", report.render());
    assert!(!report.is_clean(true));

    // Documenting it leaves exactly the missing dispatch arm.
    let report = analyze(&files, Some("| open_session | stats | shutdown |"));
    assert_eq!(rules_hit(&report), ["R5"], "{}", report.render());
    assert!(report.diagnostics[0].message.contains("Shutdown"));

    // Wiring the dispatch too makes the protocol exhaustive.
    let full_engine = include_str!("fixtures/r5_engine.rs")
        .replace("_ => \"dropped\"", "Request::Shutdown => \"shutdown\"");
    let report = analyze(
        &[
            file(
                "crates/server/src/protocol.rs",
                include_str!("fixtures/r5_protocol.rs"),
            ),
            file("crates/server/src/engine.rs", &full_engine),
        ],
        Some("| open_session | stats | shutdown |"),
    );
    assert!(report.is_clean(true), "{}", report.render());
}

#[test]
fn suppression_with_reason_silences_and_is_reported() {
    let report = analyze(
        &[file(
            "crates/server/src/fixture.rs",
            include_str!("fixtures/r3_suppressed.rs"),
        )],
        None,
    );
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
    let report = analyze(
        &[file(
            "crates/server/src/fixture.rs",
            include_str!("fixtures/r3_suppressed_bad.rs"),
        )],
        None,
    );
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
    let files = [
        file(
            "crates/core/src/tsgreedy.rs",
            include_str!("fixtures/r6_det_zone.rs"),
        ),
        file(
            "crates/core/src/costmodel.rs",
            include_str!("fixtures/r6_time_helper.rs"),
        ),
    ];
    let report = analyze(&files, None);
    // One HashMap iteration in the seed file, one Instant::now in the
    // helper it calls — and nothing from the #[cfg(test)] module.
    assert_eq!(rules_hit(&report), ["R6", "R6"], "{}", report.render());
    let clock = report
        .diagnostics
        .iter()
        .find(|d| d.file.ends_with("costmodel.rs"))
        .expect("wall-clock finding");
    assert!(
        clock.message.contains("ts_greedy -> score_candidates"),
        "finding explains the zone membership: {}",
        clock.message
    );

    let clean = analyze(
        &[file(
            "crates/core/src/tsgreedy.rs",
            include_str!("fixtures/r6_clean.rs"),
        )],
        None,
    );
    assert!(clean.is_clean(true), "{}", clean.render());
}

#[test]
fn r6_is_scoped_to_the_deterministic_zone() {
    // The same hash iteration outside the zone (no seed file defines or
    // reaches it) is not R6's business.
    let report = analyze(
        &[file(
            "crates/catalog/src/fixture.rs",
            include_str!("fixtures/r6_det_zone.rs"),
        )],
        None,
    );
    assert!(report.is_clean(true), "{}", report.render());
}

#[test]
fn r7_atomics_forbidden_outside_sanctioned_zones() {
    let report = analyze(
        &[file(
            "crates/catalog/src/fixture.rs",
            include_str!("fixtures/r7_forbidden.rs"),
        )],
        None,
    );
    // The AtomicU64 field and the fetch_add's Ordering, one per line.
    assert_eq!(rules_hit(&report), ["R7", "R7"], "{}", report.render());
}

#[test]
fn r7_ordering_policy_per_zone() {
    let report = analyze(
        &[file(
            "crates/obs/src/fixture.rs",
            include_str!("fixtures/r7_bad_ordering.rs"),
        )],
        None,
    );
    // Atomics are sanctioned in obs, but only Relaxed is in the policy.
    assert_eq!(rules_hit(&report), ["R7"], "{}", report.render());
    assert!(report.diagnostics[0].message.contains("AcqRel"));

    let clean = analyze(
        &[file(
            "crates/obs/src/fixture.rs",
            include_str!("fixtures/r7_clean.rs"),
        )],
        None,
    );
    assert!(clean.is_clean(true), "{}", clean.render());
}

#[test]
fn r10_registry_drift_is_caught() {
    let files = [
        file(
            "crates/obs/src/counters.rs",
            include_str!("fixtures/r10_registry_drift.rs"),
        ),
        file(
            "crates/server/src/metrics.rs",
            include_str!("fixtures/r10_server_render.rs"),
        ),
        file(
            "crates/cli/src/explain.rs",
            include_str!("fixtures/r10_cli_render.rs"),
        ),
    ];
    // COUNT lags, ALL is missing ParChunkItems, the scheduling class
    // names a ghost variant, and DESIGN.md lacks par_chunk_items.
    let report = analyze(&files, Some("graph_node_updates graph_edge_updates"));
    assert_eq!(
        rules_hit(&report),
        ["R10", "R10", "R10", "R10"],
        "{}",
        report.render()
    );
    let all = report.render();
    assert!(all.contains("COUNT"), "{all}");
    assert!(all.contains("ParChunkItems"), "{all}");
    assert!(all.contains("ParPoolFallbacks"), "{all}");
    assert!(all.contains("par_chunk_items"), "{all}");
}

#[test]
fn r10_coherent_registry_is_clean_and_rule_is_inert_without_it() {
    let files = [
        file(
            "crates/obs/src/counters.rs",
            include_str!("fixtures/r10_registry_clean.rs"),
        ),
        file(
            "crates/server/src/metrics.rs",
            include_str!("fixtures/r10_server_render.rs"),
        ),
        file(
            "crates/cli/src/explain.rs",
            include_str!("fixtures/r10_cli_render.rs"),
        ),
    ];
    let report = analyze(
        &files,
        Some("graph_node_updates graph_edge_updates par_chunk_items"),
    );
    assert!(report.is_clean(true), "{}", report.render());

    // Dropping the render surfaces turns them into findings.
    let report = analyze(
        &files[..1],
        Some("graph_node_updates graph_edge_updates par_chunk_items"),
    );
    assert_eq!(rules_hit(&report), ["R10", "R10"], "{}", report.render());

    // Fixture runs without counters.rs see nothing from R10.
    let report = analyze(&files[1..], None);
    assert!(report.is_clean(true), "{}", report.render());
}

#[test]
fn unused_suppression_is_a_finding() {
    let report = analyze(
        &[file(
            "crates/server/src/fixture.rs",
            include_str!("fixtures/unused_suppression.rs"),
        )],
        None,
    );
    assert_eq!(
        rules_hit(&report),
        ["unused-suppression"],
        "{}",
        report.render()
    );
    assert!(report.diagnostics[0].message.contains("R3"));
    assert!(!report.is_clean(true), "stale directives fail CI");
}
