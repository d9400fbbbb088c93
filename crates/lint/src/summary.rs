//! Per-file scan summaries.
//!
//! The two-phase engine (see [`crate`]) splits every rule into a per-file
//! **scan** — local findings plus the cross-file *facts* the finish phase
//! joins (lock edges, fn/call tables) — and a whole-workspace **finish**.
//! A [`FileSummary`] captures everything the finish phase and the reporter
//! need from one file.

use crate::suppress::Suppression;

/// One finding as produced by a rule's scan phase, before suppression
/// matching.
#[derive(Debug)]
pub struct RawFinding {
    /// Rule id (`R3`..`R7`).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// What and why, with the suggested fix.
    pub message: String,
}

/// One lock-acquisition-order edge (R4): `to` was acquired while `from`
/// was held, first seen at `line`.
#[derive(Debug)]
pub struct LockEdge {
    /// Held mutex name.
    pub from: String,
    /// Acquired mutex name.
    pub to: String,
    /// 1-based line of the acquisition.
    pub line: u32,
}

/// One call site inside a function (R6 call-graph edge source).
#[derive(Debug)]
pub struct CallFact {
    /// Callee's final path segment.
    pub name: String,
    /// Path qualifier (`Advisor` in `Advisor::new`), when present.
    pub qualifier: Option<String>,
    /// Resolved type head of a method call's receiver (`HashMap` for
    /// `self.map.iter()` when `map: HashMap<..>`), when resolvable.
    pub receiver_type: Option<String>,
    /// Whether this was a `.name(..)` method call.
    pub method: bool,
}

/// A determinism-sensitive site inside a function (R6).
#[derive(Debug)]
pub struct DetSite {
    /// 1-based line.
    pub line: u32,
    /// What was found (`std HashMap iteration via keys()`, ...).
    pub what: String,
}

/// One function with the facts R6's reachability analysis needs.
#[derive(Debug, Default)]
pub struct FnFact {
    /// Plain name.
    pub name: String,
    /// `Type::name` when defined in an `impl` block.
    pub qualified: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Calls made in the body.
    pub calls: Vec<CallFact>,
    /// Determinism-sensitive sites in the body.
    pub det_sites: Vec<DetSite>,
}

/// Cross-file facts extracted from one file during the scan phase.
#[derive(Debug, Default)]
pub struct Facts {
    /// R4: lock-order edges.
    pub lock_edges: Vec<LockEdge>,
    /// R6: functions with calls and determinism-sensitive sites.
    pub fns: Vec<FnFact>,
}

/// Everything the finish phase and reporter need from one scanned file.
#[derive(Debug)]
pub struct FileSummary {
    /// Workspace-relative, forward-slash path.
    pub path: String,
    /// Lex failure, when the file could not be analyzed at all.
    pub lex_error: Option<String>,
    /// Local (scan-phase) findings.
    pub findings: Vec<RawFinding>,
    /// Parsed suppression directives (including malformed ones).
    pub suppressions: Vec<Suppression>,
    /// Cross-file facts.
    pub facts: Facts,
}
