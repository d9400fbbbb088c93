//! R5 — protocol exhaustiveness.
//!
//! The wire protocol has three places that must agree: the `Request` enum
//! in `crates/server/src/protocol.rs` (the source of truth), the dispatch
//! `match` in `crates/server/src/engine.rs`, and the wire-protocol table
//! in `DESIGN.md`. Adding a variant and forgetting one of the other two
//! compiles fine today (the dispatch match could grow a `_ =>` arm, the
//! doc silently goes stale), so this rule joins the three: every variant
//! must appear as `Request::<Variant>` somewhere in `engine.rs` and as its
//! snake_case op name somewhere in `DESIGN.md`. When `protocol.rs` is not
//! among the scanned files (fixture runs) the rule is inert.

use super::{camel_to_snake, Finding, FinishCtx, Rule, ScanCtx};
use crate::lexer::{ident_text, is_ident, is_punct};
use crate::summary::{Facts, FileSummary};
use crate::workspace::FileCtx;

/// See module docs.
pub struct ProtocolExhaustiveness;

impl Rule for ProtocolExhaustiveness {
    fn id(&self) -> &'static str {
        "R5"
    }

    fn scan(&self, ctx: &ScanCtx<'_>, facts: &mut Facts, _findings: &mut Vec<Finding>) {
        if ctx.file.path.ends_with("server/src/protocol.rs") {
            facts.request_variants = request_variants(ctx.file);
        }
        if ctx.file.path.ends_with("server/src/engine.rs") {
            facts.dispatched = dispatched_variants(ctx.file);
        }
    }

    fn finish(&self, ctx: &FinishCtx<'_>) -> Vec<Finding> {
        let Some(protocol) = find_file(ctx, "server/src/protocol.rs") else {
            return Vec::new();
        };
        let engine = find_file(ctx, "server/src/engine.rs");
        let mut findings = Vec::new();
        for (variant, line) in &protocol.facts.request_variants {
            if let Some(engine) = engine {
                if !engine.facts.dispatched.iter().any(|d| d == variant) {
                    findings.push(Finding {
                        file: engine.path.clone(),
                        line: 1,
                        message: format!(
                            "`Request::{variant}` (protocol.rs:{line}) has no dispatch arm \
                             here; wire it up or remove the variant"
                        ),
                    });
                }
            }
            if let Some(design) = ctx.design_md {
                let op = camel_to_snake(variant);
                if !design.contains(&op) {
                    findings.push(Finding {
                        file: protocol.path.clone(),
                        line: *line,
                        message: format!(
                            "`Request::{variant}` is missing from DESIGN.md's wire-protocol \
                             table (expected op name `{op}`)"
                        ),
                    });
                }
            }
        }
        findings
    }
}

fn find_file<'a>(ctx: &FinishCtx<'a>, suffix: &str) -> Option<&'a FileSummary> {
    ctx.files.iter().find(|f| f.path.ends_with(suffix))
}

/// Collects `(variant, line)` pairs from `enum Request { ... }`.
fn request_variants(file: &FileCtx) -> Vec<(String, u32)> {
    let toks = &file.toks;
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(&toks[i], "enum")
            && toks.get(i + 1).is_some_and(|t| is_ident(t, "Request"))
            && toks.get(i + 2).is_some_and(|t| is_punct(t, "{"))
        {
            let mut depth = 1usize;
            let mut j = i + 3;
            // A variant name is an identifier at enum-body depth that opens
            // a payload (`{`/`(`) or ends the entry (`,`/`}`). Attribute
            // contents (`#[...]`) are skipped so derive idents don't match.
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if is_punct(t, "{") || is_punct(t, "(") || is_punct(t, "[") {
                    depth += 1;
                } else if is_punct(t, "}") || is_punct(t, ")") || is_punct(t, "]") {
                    depth -= 1;
                } else if depth == 1 {
                    if is_punct(t, "#") {
                        // Skip the whole `#[...]` span.
                        if toks.get(j + 1).is_some_and(|n| is_punct(n, "[")) {
                            let mut brackets = 1usize;
                            j += 2;
                            while j < toks.len() && brackets > 0 {
                                if is_punct(&toks[j], "[") {
                                    brackets += 1;
                                } else if is_punct(&toks[j], "]") {
                                    brackets -= 1;
                                }
                                j += 1;
                            }
                            continue;
                        }
                    } else if let Some(name) = ident_text(t) {
                        let opens_entry = toks.get(j + 1).is_some_and(|n| {
                            is_punct(n, "{")
                                || is_punct(n, "(")
                                || is_punct(n, ",")
                                || is_punct(n, "}")
                        });
                        if opens_entry {
                            variants.push((name.to_string(), t.line));
                        }
                    }
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    variants
}

/// Every `Request::<Variant>` path mentioned outside tests (the dispatch
/// arms, as facts for the finish join).
fn dispatched_variants(engine: &FileCtx) -> Vec<String> {
    let toks = &engine.toks;
    let mut out: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if is_ident(&toks[i], "Request")
            && !engine.in_tests(toks[i].line)
            && toks.get(i + 1).is_some_and(|t| is_punct(t, "::"))
        {
            if let Some(v) = toks.get(i + 2).and_then(ident_text) {
                if !out.iter().any(|o| o == v) {
                    out.push(v.to_string());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::camel_to_snake;

    #[test]
    fn snake_casing() {
        assert_eq!(camel_to_snake("OpenSession"), "open_session");
        assert_eq!(camel_to_snake("WhatifCost"), "whatif_cost");
        assert_eq!(camel_to_snake("Stats"), "stats");
    }
}
