//! dblayout-lint: a token-level workspace static-analysis pass for the
//! properties clippy cannot express — float hygiene, lock order,
//! determinism zones and atomics policy.
//!
//! Each rule matches token shapes in one lexed file, scoped by the
//! file's crate or path and by its test regions; R4 also joins the lock
//! edges it finds across files. Together they guard the workspace's
//! headline property: TS-GREEDY layouts, costs, counters, and migration
//! plans are byte-identical at any thread count.
//!
//! | id  | rule |
//! |-----|------|
//! | R3  | no `partial_cmp`, no `==`/`!=` against float literals |
//! | R4  | lock-acquisition order across `crates/server` is cycle-free |
//! | R6  | no std hash containers, wall-clock values or thread identity in the deterministic zone (every crate the search depends on) |
//! | R7  | raw atomics only in the declared zones, `Ordering`s per the declared policy table |
//!
//! R1 (no panic shortcuts), R2 (poison-safe locking), R8 (lossy casts)
//! and R9 (swallowed errors) are clippy lints, denied at the root of the
//! crates they cover and configured in the workspace `clippy.toml`. R5
//! (protocol coverage) and R10 (counter-registry coherence) hold by
//! construction: the wire ops and the counters are each declared from one
//! table, and unit tests check their DESIGN.md tables; see DESIGN.md §5.
//!
//! ## Two-phase engine
//!
//! Every rule runs a per-file **scan** (local findings + cross-file
//! facts; a pure function of the file text) and a whole-workspace
//! **finish** (R4's graph join over the facts). Suppression matching and
//! unused-suppression detection run after both phases.
//!
//! Findings are warnings (fatal under `--deny-warnings`); infrastructure
//! problems — an unlexable file, a malformed suppression — are errors and
//! always fatal. A finding is silenced inline with
//! `// dblayout::allow(R3, reason = "...")`; the reason is mandatory,
//! suppressions are carried into the JSON report, and a suppression that
//! no longer silences anything is itself flagged (`unused-suppression`)
//! so the audit trail cannot rot.
//!
//! Entry points: [`lint_workspace`] walks `crates/*/src` from a
//! workspace root; [`analyze`] runs on in-memory sources (the fixture
//! tests use it). The CLI front-end is
//! `dblayout lint [--deny-warnings] [--root <dir>]`.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod summary;
pub mod suppress;
pub mod workspace;

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

pub use report::{Diagnostic, LintReport, Severity};
pub use workspace::InputFile;

use report::Severity::{Error, Warning};
use rules::{all_rules, FinishCtx, Rule, ScanCtx};
use summary::{Facts, FileSummary, RawFinding};
use workspace::build_file_ctx;

/// Runs every rule over in-memory sources.
///
/// Files that fail to lex and malformed suppression directives surface as
/// error diagnostics rather than aborting the run.
pub fn analyze(files: &[InputFile]) -> LintReport {
    let rules = all_rules();
    let mut report = LintReport::default();

    let summaries: Vec<FileSummary> = files.iter().map(|f| scan_file(f, &rules)).collect();
    report.files_scanned = summaries.iter().filter(|s| s.lex_error.is_none()).count();

    // Infrastructure errors: unlexable files, malformed suppressions.
    for s in &summaries {
        if let Some(err) = &s.lex_error {
            report.diagnostics.push(Diagnostic {
                rule: "lint",
                severity: Error,
                file: s.path.clone(),
                line: 1,
                message: format!("cannot analyze file: {err}"),
            });
        }
        for sup in &s.suppressions {
            if let Some(err) = &sup.error {
                report.diagnostics.push(Diagnostic {
                    rule: "lint",
                    severity: Error,
                    file: s.path.clone(),
                    line: sup.line,
                    message: format!("malformed suppression: {err}"),
                });
            }
        }
    }

    // Collect rule findings: scan-phase, then finish-phase.
    let mut findings: Vec<(&'static str, rules::Finding)> = Vec::new();
    for s in &summaries {
        for rf in &s.findings {
            findings.push((
                rf.rule,
                rules::Finding {
                    file: s.path.clone(),
                    line: rf.line,
                    message: rf.message.clone(),
                },
            ));
        }
    }
    let finish_ctx = FinishCtx { files: &summaries };
    for rule in &rules {
        for f in rule.finish(&finish_ctx) {
            findings.push((rule.id(), f));
        }
    }
    // Suppression matching, tracking which directives earn their keep.
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (rule_id, finding) in &findings {
        let hit = summaries.iter().enumerate().find_map(|(si, s)| {
            if s.path != finding.file {
                return None;
            }
            s.suppressions
                .iter()
                .position(|sup| sup.covers(rule_id, finding.line))
                .map(|pi| (si, pi))
        });
        let diag = |message| Diagnostic {
            rule: rule_id,
            severity: Warning,
            file: finding.file.clone(),
            line: finding.line,
            message,
        };
        match hit {
            Some((si, pi)) => {
                used.insert((si, pi));
                let reason = &summaries[si].suppressions[pi].reason;
                report
                    .suppressed
                    .push(diag(format!("{} [allowed: {}]", finding.message, reason)));
            }
            None => report.diagnostics.push(diag(finding.message.clone())),
        }
    }

    // Unused-suppression detection: a well-formed directive that silenced
    // nothing is stale audit trail. Not itself suppressible — the fix is
    // deleting a line.
    for (si, s) in summaries.iter().enumerate() {
        for (pi, sup) in s.suppressions.iter().enumerate() {
            if sup.error.is_none() && !used.contains(&(si, pi)) {
                report.diagnostics.push(Diagnostic {
                    rule: "unused-suppression",
                    severity: Warning,
                    file: s.path.clone(),
                    line: sup.line,
                    message: format!(
                        "suppression for {} no longer silences any finding; remove it (reason \
                         was: {})",
                        sup.rule, sup.reason
                    ),
                });
            }
        }
    }

    let key = |d: &Diagnostic| (d.file.clone(), d.line, d.rule);
    report.diagnostics.sort_by_key(key);
    report.suppressed.sort_by_key(key);
    report
}

/// Lexes one file and runs every rule's scan phase over it.
fn scan_file(f: &InputFile, rules: &[Box<dyn Rule>]) -> FileSummary {
    let ctx = match build_file_ctx(f) {
        Ok(ctx) => ctx,
        Err(msg) => {
            return FileSummary {
                path: f.path.clone(),
                lex_error: Some(msg),
                findings: Vec::new(),
                suppressions: Vec::new(),
                facts: Facts::default(),
            }
        }
    };
    let scan_ctx = ScanCtx { file: &ctx };
    let mut facts = Facts::default();
    let mut findings: Vec<RawFinding> = Vec::new();
    for rule in rules {
        let mut local = Vec::new();
        rule.scan(&scan_ctx, &mut facts, &mut local);
        findings.extend(local.into_iter().map(|l| RawFinding {
            rule: rule.id(),
            line: l.line,
            message: l.message,
        }));
    }
    FileSummary {
        path: f.path.clone(),
        lex_error: None,
        findings,
        suppressions: ctx.suppressions,
        facts,
    }
}

/// Lints a workspace on disk: every `.rs` under `<root>/crates/*/src`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    Ok(analyze(&workspace::load_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, text: &str) -> InputFile {
        InputFile {
            path: path.into(),
            text: text.into(),
        }
    }

    #[test]
    fn clean_source_yields_clean_report() {
        let files = [file(
            "crates/server/src/ok.rs",
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n",
        )];
        let r = analyze(&files);
        assert!(r.is_clean(true), "{}", r.render());
        assert_eq!(r.files_scanned, 1);
    }

    #[test]
    fn finding_is_a_warning_and_suppression_moves_it_aside() {
        let bare = [file(
            "crates/core/src/bad.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0\n}\n",
        )];
        let r = analyze(&bare);
        assert_eq!(r.warnings(), 1);
        assert!(r.is_clean(false), "warnings pass without deny");
        assert!(!r.is_clean(true));

        let allowed = [file(
            "crates/core/src/bad.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0 // dblayout::allow(R3, reason = \"exact zero sentinel\")\n}\n",
        )];
        let r = analyze(&allowed);
        assert!(r.is_clean(true), "{}", r.render());
        assert_eq!(r.suppressed.len(), 1);
        assert!(r.suppressed[0].message.contains("exact zero sentinel"));
    }

    #[test]
    fn malformed_suppression_is_an_error() {
        let files = [file(
            "crates/core/src/bad.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0 // dblayout::allow(R3)\n}\n",
        )];
        let r = analyze(&files);
        assert_eq!(r.errors(), 1);
        assert!(!r.is_clean(false), "errors fail even without deny");
    }

    #[test]
    fn unlexable_file_is_an_error_not_a_crash() {
        let files = [file("crates/x/src/broken.rs", "fn f() { \"unterminated }")];
        let r = analyze(&files);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.files_scanned, 0);
    }

    #[test]
    fn suppression_for_a_different_rule_does_not_silence() {
        let files = [file(
            "crates/core/src/bad.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0 // dblayout::allow(R6, reason = \"wrong rule\")\n}\n",
        )];
        let r = analyze(&files);
        // The R3 finding stays active, and the mismatched R6 directive is
        // itself flagged as unused.
        assert_eq!(r.warnings(), 2);
        assert!(r.suppressed.is_empty());
        assert!(r.diagnostics.iter().any(|d| d.rule == "unused-suppression"));
    }

    #[test]
    fn unused_suppression_is_flagged_and_used_one_is_not() {
        let files = [file(
            "crates/core/src/bad.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0 // dblayout::allow(R3, reason = \"sentinel\")\n}\n\
             // dblayout::allow(R3, reason = \"stale: the comparison below was removed\")\nfn g() -> u32 { 0 }\n",
        )];
        let r = analyze(&files);
        assert_eq!(r.suppressed.len(), 1, "{}", r.render());
        let unused: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == "unused-suppression")
            .collect();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].line, 4);
        assert!(unused[0].message.contains("stale"));
    }
}
