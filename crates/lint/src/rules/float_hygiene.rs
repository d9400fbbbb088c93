//! R3 — float hygiene.
//!
//! NaN entering the Figure-7 cost model silently reorders greedy/KL
//! candidate selection: `partial_cmp` answers `None` (so
//! `.unwrap_or(Equal)` quietly stops sorting, and `.unwrap()` panics), and
//! `==`/`!=` on floats is false/true for NaN in ways comparisons-by-hand
//! rarely intend. Flagged outside `#[cfg(test)]`, in every first-party
//! crate:
//!
//! * any `partial_cmp` call — on the workspace's numeric types the right
//!   tool is `f64::total_cmp`, which is total over NaN and keeps sorts
//!   deterministic; a genuinely partial ordering can document its fallback
//!   via suppression;
//! * `==` / `!=` where either operand is a float literal — exact float
//!   equality is occasionally right (bit-exact zero filters) and must then
//!   say so via suppression.

use super::{Finding, Rule, ScanCtx};
use crate::lexer::{is_ident, is_punct, TokKind};
use crate::summary::Facts;
use crate::workspace::FileCtx;

/// See module docs.
pub struct FloatHygiene;

impl Rule for FloatHygiene {
    fn id(&self) -> &'static str {
        "R3"
    }

    fn scan(&self, ctx: &ScanCtx<'_>, _facts: &mut Facts, findings: &mut Vec<Finding>) {
        if ctx.file.path.starts_with("crates/") {
            check_file(ctx.file, findings);
        }
    }
}

fn check_file(file: &FileCtx, findings: &mut Vec<Finding>) {
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        if file.in_tests(t.line) {
            continue;
        }
        if is_ident(t, "partial_cmp") && i > 0 && is_punct(&toks[i - 1], ".") {
            findings.push(Finding {
                file: file.path.clone(),
                line: t.line,
                message: "`partial_cmp` is None for NaN, silently reordering candidate \
                          selection; use `f64::total_cmp`, or document a total-order \
                          fallback via suppression"
                    .into(),
            });
            continue;
        }
        if is_punct(t, "==") || is_punct(t, "!=") {
            let float_operand = [i.checked_sub(1), Some(i + 1)]
                .into_iter()
                .flatten()
                .filter_map(|j| toks.get(j))
                .any(|n| matches!(n.kind, TokKind::Float(_)));
            if float_operand {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: t.line,
                    message: "float equality is NaN-unsafe and precision-fragile; compare \
                              with a tolerance, restructure the predicate, or document the \
                              exact-equality intent via suppression"
                        .into(),
                });
            }
        }
    }
}
