//! R10 — counter-registry coherence.
//!
//! The `obs::counters` registry (DESIGN.md §8) is the one place hot-path
//! work is tallied, and three downstream surfaces must stay in lock-step
//! with it: the Prometheus `metrics` op (exports every counter as a
//! `dblayout_*_total` family via `CounterSnapshot::pairs()`), the
//! `dblayout explain` narrative (renders the deterministic class via
//! `deterministic_pairs()`), and DESIGN.md's §8 counter table. All three
//! iterate `Counter::ALL` generically, so the classic drift is *inside
//! the registry itself*: add a variant and forget the `COUNT` bump or
//! the `ALL` entry and every generic renderer silently skips it; forget
//! the DESIGN.md row and the operator-facing contract goes stale.
//!
//! Extending R5's protocol-join approach, the scan phase extracts the
//! registry's declared shape from `counters.rs` (variants in order, the
//! `COUNT` const, the `ALL` array, the `is_deterministic` exclusion set)
//! and flags which files call the render surfaces; the finish phase joins
//! them:
//!
//! * `COUNT` == number of variants, and `ALL` lists every variant in
//!   declaration order (discriminants are slot indices — order *is* ABI);
//! * every variant's snake_case name (the `name()` convention, enforced
//!   by `counters.rs`'s own tests) appears in DESIGN.md;
//! * some `crates/server` file calls `.pairs()` outside tests (the
//!   Prometheus exposition) and some `crates/cli` file calls
//!   `.deterministic_pairs()` outside tests (the explain rendering);
//! * the scheduling class (`is_deterministic` exclusions) names real
//!   variants.
//!
//! When `counters.rs` is not among the scanned files (fixture runs) the
//! rule is inert.

use super::{camel_to_snake, Finding, FinishCtx, Rule, ScanCtx};
use crate::lexer::{ident_text, is_ident, is_punct};
use crate::summary::{CounterFacts, Facts};
use crate::workspace::FileCtx;

/// See module docs.
pub struct RegistryCoherence;

impl Rule for RegistryCoherence {
    fn id(&self) -> &'static str {
        "R10"
    }

    fn scan(&self, ctx: &ScanCtx<'_>, facts: &mut Facts, _findings: &mut Vec<Finding>) {
        if ctx.file.path.ends_with("obs/src/counters.rs") {
            facts.counters = Some(counter_facts(ctx.file));
        }
        facts.renders_pairs = calls_method(ctx.file, "pairs");
        facts.renders_deterministic_pairs = calls_method(ctx.file, "deterministic_pairs");
    }

    fn finish(&self, ctx: &FinishCtx<'_>) -> Vec<Finding> {
        let Some((path, c)) = ctx
            .files
            .iter()
            .find_map(|f| f.facts.counters.as_ref().map(|c| (f.path.clone(), c)))
        else {
            return Vec::new();
        };
        let mut findings = Vec::new();
        let mut report = |line: u32, message: String| {
            findings.push(Finding {
                file: path.clone(),
                line,
                message,
            });
        };
        if c.count_const != Some(c.variants.len() as u64) {
            report(
                c.enum_line,
                format!(
                    "`COUNT` is {:?} but `enum Counter` declares {} variants; the backing \
                     slot array and every snapshot loop are sized by COUNT",
                    c.count_const,
                    c.variants.len()
                ),
            );
        }
        let declared: Vec<&str> = c.variants.iter().map(|(v, _)| v.as_str()).collect();
        if c.all_entries != declared {
            let missing: Vec<&str> = declared
                .iter()
                .filter(|v| !c.all_entries.iter().any(|a| a == *v))
                .copied()
                .collect();
            report(
                c.enum_line,
                if missing.is_empty() {
                    "`Counter::ALL` lists variants out of declaration order; discriminants \
                     are slot indices, so ALL order is the exposition ABI"
                        .to_string()
                } else {
                    format!(
                        "`Counter::ALL` is missing {} — every generic renderer (pairs, \
                         Prometheus, explain) silently skips counters absent from ALL",
                        missing.join(", ")
                    )
                },
            );
        }
        for sched in &c.scheduling {
            if !declared.contains(&sched.as_str()) {
                report(
                    c.enum_line,
                    format!(
                        "`is_deterministic` excludes `{sched}`, which is not a Counter \
                         variant; the scheduling class is out of sync"
                    ),
                );
            }
        }
        if let Some(design) = ctx.design_md {
            for (v, line) in &c.variants {
                let snake = camel_to_snake(v);
                if !design.contains(&snake) {
                    report(
                        *line,
                        format!(
                            "counter `{v}` is missing from DESIGN.md's §8 counter table \
                             (expected metric name `{snake}`)"
                        ),
                    );
                }
            }
        }
        if !ctx
            .files
            .iter()
            .any(|f| f.path.starts_with("crates/server/") && f.facts.renders_pairs)
        {
            report(
                c.enum_line,
                "no crates/server file calls `CounterSnapshot::pairs()` — the Prometheus \
                 `metrics` op no longer exports the counter registry"
                    .to_string(),
            );
        }
        if !ctx
            .files
            .iter()
            .any(|f| f.path.starts_with("crates/cli/") && f.facts.renders_deterministic_pairs)
        {
            report(
                c.enum_line,
                "no crates/cli file calls `deterministic_pairs()` — `dblayout explain` no \
                 longer renders the deterministic counter class"
                    .to_string(),
            );
        }
        findings
    }
}

/// Whether the file calls `.{name}()` anywhere outside tests.
fn calls_method(file: &FileCtx, name: &str) -> bool {
    let toks = &file.toks;
    (0..toks.len()).any(|i| {
        is_ident(&toks[i], name)
            && i > 0
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).is_some_and(|t| is_punct(t, "("))
            && !file.in_tests(toks[i].line)
    })
}

/// Extracts the registry's declared shape from `counters.rs` tokens.
fn counter_facts(file: &FileCtx) -> CounterFacts {
    let toks = &file.toks;
    let mut facts = CounterFacts::default();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // `enum Counter { Variant = N, ... }`
        if is_ident(t, "enum") && toks.get(i + 1).is_some_and(|n| is_ident(n, "Counter")) {
            facts.enum_line = t.line;
            let mut j = i + 2;
            while j < toks.len() && !is_punct(&toks[j], "{") {
                j += 1;
            }
            let mut depth = 0usize;
            while j < toks.len() {
                let tj = &toks[j];
                if is_punct(tj, "{") || is_punct(tj, "(") || is_punct(tj, "[") {
                    depth += 1;
                } else if is_punct(tj, "}") || is_punct(tj, ")") || is_punct(tj, "]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 {
                    if is_punct(tj, "#") && toks.get(j + 1).is_some_and(|n| is_punct(n, "[")) {
                        // Skip the attribute span.
                        let mut brackets = 0usize;
                        j += 1;
                        while j < toks.len() {
                            if is_punct(&toks[j], "[") {
                                brackets += 1;
                            } else if is_punct(&toks[j], "]") {
                                brackets -= 1;
                                if brackets == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else if let Some(name) = ident_text(tj) {
                        // A variant entry: `Name`, `Name = N`, `Name,`.
                        let entryish = toks.get(j + 1).is_some_and(|n| {
                            is_punct(n, ",") || is_punct(n, "=") || is_punct(n, "}")
                        });
                        if entryish {
                            facts.variants.push((name.to_string(), tj.line));
                        }
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // `pub const COUNT: usize = 16;`
        if is_ident(t, "COUNT")
            && i > 0
            && is_ident(&toks[i - 1], "const")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, ":"))
        {
            let mut j = i + 2;
            while j < toks.len() && !is_punct(&toks[j], "=") && !is_punct(&toks[j], ";") {
                j += 1;
            }
            if let Some(TokKindInt(n)) = toks.get(j + 1).and_then(int_value) {
                facts.count_const = Some(n);
            }
            i = j;
            continue;
        }
        // `pub const ALL: [Counter; COUNT] = [ Counter::A, ... ];`
        if is_ident(t, "ALL") && i > 0 && is_ident(&toks[i - 1], "const") {
            let mut j = i + 1;
            while j < toks.len() && !is_punct(&toks[j], "=") {
                j += 1;
            }
            // The initializer `[ ... ]`.
            while j < toks.len() && !is_punct(&toks[j], "[") {
                j += 1;
            }
            let mut depth = 0usize;
            while j < toks.len() {
                let tj = &toks[j];
                if is_punct(tj, "[") {
                    depth += 1;
                } else if is_punct(tj, "]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if is_ident(tj, "Counter")
                    && toks.get(j + 1).is_some_and(|n| is_punct(n, "::"))
                {
                    if let Some(v) = toks.get(j + 2).and_then(ident_text) {
                        facts.all_entries.push(v.to_string());
                        j += 2;
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // `fn is_deterministic(..) { !matches!(self, Counter::A | Counter::B) }`
        if is_ident(t, "is_deterministic") && i > 0 && is_ident(&toks[i - 1], "fn") {
            let mut j = i + 1;
            while j < toks.len() && !is_punct(&toks[j], "{") {
                j += 1;
            }
            let mut depth = 0usize;
            while j < toks.len() {
                let tj = &toks[j];
                if is_punct(tj, "{") {
                    depth += 1;
                } else if is_punct(tj, "}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if is_ident(tj, "Counter")
                    && toks.get(j + 1).is_some_and(|n| is_punct(n, "::"))
                {
                    if let Some(v) = toks.get(j + 2).and_then(ident_text) {
                        facts.scheduling.push(v.to_string());
                        j += 2;
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    facts
}

/// Integer token payload.
struct TokKindInt(u64);

fn int_value(t: &crate::lexer::Tok) -> Option<TokKindInt> {
    match &t.kind {
        crate::lexer::TokKind::Int(text) => {
            text.replace('_', "").parse::<u64>().ok().map(TokKindInt)
        }
        _ => None,
    }
}
