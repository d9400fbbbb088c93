//! The rule engine: the two-phase [`Rule`] trait, the registry, and
//! shared token-matching helpers.
//!
//! Since `dblayout-sema`, every rule runs in two phases:
//!
//! * **scan** — per file, seeing only that file's tokens, parsed syntax,
//!   and test regions. Scan output (local findings + cross-file [`Facts`])
//!   is a pure function of the file text.
//! * **finish** — once, over every file's facts. Cross-file rules (R4
//!   lock-order graph, R5 protocol join, R6 determinism-zone reachability,
//!   R10 registry coherence) do their joins here; purely local rules keep
//!   the default empty finish.
//!
//! The engine in [`crate`] applies suppressions after both phases, so
//! rules never need to think about them.

use crate::parse::ParsedFile;
use crate::summary::{Facts, FileSummary};
use crate::workspace::FileCtx;

mod atomic_hygiene;
mod determinism_zone;
mod float_hygiene;
mod lock_order;
mod protocol_exhaustive;
mod registry_coherence;

/// Every known rule id, in catalog order (also the set the suppression
/// parser accepts). R1, R2, R8 and R9 are clippy lints (DESIGN.md §5).
pub const RULE_IDS: &[&str] = &["R3", "R4", "R5", "R6", "R7", "R10"];

/// What a rule's scan phase sees: one lexed + parsed file.
pub struct ScanCtx<'a> {
    /// Lexed file with test regions and suppressions.
    pub file: &'a FileCtx,
    /// Recovered syntax (items, fns, calls, bindings).
    pub parsed: &'a ParsedFile,
}

/// What a rule's finish phase sees: every file's summary (facts included)
/// plus `DESIGN.md`.
pub struct FinishCtx<'a> {
    /// Per-file summaries, sorted by path.
    pub files: &'a [FileSummary],
    /// `DESIGN.md` text when available (R5/R10 documentation joins).
    pub design_md: Option<&'a str>,
}

/// One rule finding, before suppression filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What and why, with the suggested fix.
    pub message: String,
}

/// A lint rule.
pub trait Rule {
    /// Stable id (`R3`..`R10`).
    fn id(&self) -> &'static str;
    /// Per-file phase: local findings into `findings`, cross-file facts
    /// into `facts`. Must depend only on `ctx`.
    fn scan(&self, ctx: &ScanCtx<'_>, facts: &mut Facts, findings: &mut Vec<Finding>);
    /// Whole-workspace phase over the collected facts.
    fn finish(&self, ctx: &FinishCtx<'_>) -> Vec<Finding> {
        let _ = ctx;
        Vec::new()
    }
}

/// The shipped rule set, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_hygiene::FloatHygiene),
        Box::new(lock_order::LockOrder),
        Box::new(protocol_exhaustive::ProtocolExhaustiveness),
        Box::new(determinism_zone::DeterminismZone),
        Box::new(atomic_hygiene::AtomicHygiene),
        Box::new(registry_coherence::RegistryCoherence),
    ]
}

/// `WhatifCost` → `whatif_cost` — the wire-op / metric naming convention
/// shared by R5 (protocol ops) and R10 (counter names).
pub(crate) fn camel_to_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}
