//! Per-file scan summaries.
//!
//! The two-phase engine (see [`crate`]) splits every rule into a per-file
//! **scan** — local findings plus the cross-file *facts* the finish phase
//! joins (R4's lock edges) — and a whole-workspace **finish**.
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

/// Cross-file facts extracted from one file during the scan phase.
#[derive(Debug, Default)]
pub struct Facts {
    /// R4: lock-order edges.
    pub lock_edges: Vec<LockEdge>,
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
