//! The rule engine: the two-phase [`Rule`] trait and the registry.
//!
//! Every rule runs in two phases:
//!
//! * **scan** — per file, seeing only that file's tokens and test
//!   regions. Scan output (local findings + cross-file [`Facts`]) is a
//!   pure function of the file text.
//! * **finish** — once, over every file's facts. The cross-file rule (R4's
//!   lock-order graph) does its join here; per-file rules keep the default
//!   empty finish.
//!
//! The engine in [`crate`] applies suppressions after both phases, so
//! rules never need to think about them.

use crate::summary::{Facts, FileSummary};
use crate::workspace::FileCtx;

mod atomic_hygiene;
mod determinism_zone;
mod float_hygiene;
mod lock_order;

/// Every known rule id, in catalog order (also the set the suppression
/// parser accepts). R1, R2, R8 and R9 are clippy lints, and R5 and R10
/// hold by construction (DESIGN.md §5).
pub const RULE_IDS: &[&str] = &["R3", "R4", "R6", "R7"];

/// What a rule's scan phase sees: one lexed file.
pub struct ScanCtx<'a> {
    /// Lexed file with test regions and suppressions.
    pub file: &'a FileCtx,
}

/// What a rule's finish phase sees: every file's summary, facts included.
pub struct FinishCtx<'a> {
    /// Per-file summaries, sorted by path.
    pub files: &'a [FileSummary],
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
    /// Stable id (`R3`..`R7`).
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
        Box::new(determinism_zone::DeterminismZone),
        Box::new(atomic_hygiene::AtomicHygiene),
    ]
}
