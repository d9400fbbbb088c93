//! R6 — determinism zones.
//!
//! The workspace's headline guarantee is that TS-GREEDY layouts, costs,
//! counters, and migration plans are byte-identical at any thread count
//! (DESIGN.md §7). The classic ways Rust code silently breaks that are
//! all *locally* innocent:
//!
//! * iterating a std `HashMap`/`HashSet` — the randomized hash seed makes
//!   visit order differ per process, reordering any fold over it;
//! * `Instant::now()` / `SystemTime::now()` feeding a value into the
//!   search (thresholds, tie-breaks, sampled seeds);
//! * `thread::current()` — branching on thread identity makes the result
//!   depend on scheduling.
//!
//! The **deterministic zone** is every function reachable (over the
//! name-based call graph of [`crate::sema`]) from a function defined in
//! `core::tsgreedy`, `core::par`, `crates/relayout`, or `obs::counters`
//! — the deterministic search paths and the counter registry whose
//! deltas form the regression fingerprint. Scan phase records each
//! function's calls and its determinism-sensitive sites; finish phase
//! runs the reachability and reports only sites inside the zone, naming
//! the call chain from the seed so the report explains *why* a file far
//! from the search code is zoned.
//!
//! Sites in test regions are exempt. A site that is provably harmless
//! (e.g. a timed path that deterministic runs disable by construction)
//! carries a reasoned suppression.

use super::{Finding, FinishCtx, Rule, ScanCtx};
use crate::lexer::{ident_text, is_ident, is_punct};
use crate::parse::{FnSyntax, ParsedFile};
use crate::sema::deterministic_reachability;
use crate::summary::{CallFact, DetSite, Facts, FnFact};
use crate::workspace::FileCtx;

/// See module docs.
pub struct DeterminismZone;

/// Methods whose call on a hash container observes iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

impl Rule for DeterminismZone {
    fn id(&self) -> &'static str {
        "R6"
    }

    fn scan(&self, ctx: &ScanCtx<'_>, facts: &mut Facts, _findings: &mut Vec<Finding>) {
        if !ctx.file.path.starts_with("crates/") {
            return;
        }
        for f in &ctx.parsed.fns {
            // Functions defined inside test regions are invisible to the
            // zone: linking them would let a test helper's clock use zone
            // production code it happens to share a name with.
            if ctx.file.in_tests(f.line) {
                continue;
            }
            facts.fns.push(fn_fact(ctx.file, ctx.parsed, f));
        }
    }

    fn finish(&self, ctx: &FinishCtx<'_>) -> Vec<Finding> {
        let reach = deterministic_reachability(ctx.files);
        let mut findings = Vec::new();
        for (&(fi, gi), chain) in &reach {
            let file = &ctx.files[fi];
            let f = &file.facts.fns[gi];
            for site in &f.det_sites {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: site.line,
                    message: format!(
                        "{} in `{}`, which is in the deterministic zone (reachable via {}); \
                         use an order-stable structure (BTreeMap/Vec), take the value outside \
                         the zone, or suppress with the reason it cannot affect results",
                        site.what,
                        f.qualified.as_deref().unwrap_or(&f.name),
                        chain
                    ),
                });
            }
        }
        findings
    }
}

/// Builds the summary fact for one function: calls (with receiver types
/// resolved through locals → params → struct fields) and
/// determinism-sensitive sites.
fn fn_fact(file: &FileCtx, parsed: &ParsedFile, f: &FnSyntax) -> FnFact {
    let resolve = |name: &str| -> Option<String> {
        f.locals
            .iter()
            .chain(f.params.iter())
            .chain(parsed.fields.iter())
            .find(|t| t.name == name)
            .map(|t| t.type_head.clone())
    };
    let calls: Vec<CallFact> = f
        .calls
        .iter()
        .map(|c| CallFact {
            name: c.name.clone(),
            qualifier: c.qualifier.clone(),
            receiver_type: c.receiver.as_deref().and_then(resolve),
            method: c.method,
        })
        .collect();
    let mut det_sites: Vec<DetSite> = Vec::new();
    // Hash-container iteration: a known iteration method on a receiver
    // whose type head resolves to HashMap/HashSet...
    for (c, fact) in f.calls.iter().zip(&calls) {
        if !c.method || file.in_tests(c.line) {
            continue;
        }
        if HASH_ITER_METHODS.contains(&c.name.as_str())
            && fact
                .receiver_type
                .as_deref()
                .is_some_and(|t| HASH_TYPES.contains(&t))
        {
            det_sites.push(DetSite {
                line: c.line,
                what: format!(
                    "std {} iteration order is randomized per process (`.{}()`)",
                    fact.receiver_type.as_deref().unwrap_or("HashMap"),
                    c.name
                ),
            });
        }
    }
    // ...or a `for` loop over such a binding.
    for l in &f.for_loops {
        if file.in_tests(l.line) || l.iterated_call {
            continue;
        }
        if let Some(ty) = l.iterated.as_deref().and_then(resolve) {
            if HASH_TYPES.contains(&ty.as_str()) {
                det_sites.push(DetSite {
                    line: l.line,
                    what: format!("std {ty} iteration order is randomized per process (for-loop)"),
                });
            }
        }
    }
    // Wall-clock and thread-identity references, caught at the token
    // level inside the body so function-reference forms
    // (`.then(Instant::now)`) count too, not just calls.
    if let Some((lo, hi)) = f.body {
        let toks = &file.toks;
        for i in lo..=hi.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            if file.in_tests(t.line) {
                continue;
            }
            let Some(name) = ident_text(t) else { continue };
            let path_next = |j: usize, seg: &str| {
                toks.get(j + 1).is_some_and(|n| is_punct(n, "::"))
                    && toks.get(j + 2).is_some_and(|n| is_ident(n, seg))
            };
            if (name == "Instant" || name == "SystemTime") && path_next(i, "now") {
                det_sites.push(DetSite {
                    line: t.line,
                    what: format!("wall-clock value (`{name}::now`)"),
                });
            }
            if name == "thread" && path_next(i, "current") {
                det_sites.push(DetSite {
                    line: t.line,
                    what: "thread-identity value (`thread::current`)".to_string(),
                });
            }
        }
    }
    det_sites.sort_by_key(|s| s.line);
    FnFact {
        name: f.name.clone(),
        qualified: f.qualified.clone(),
        line: f.line,
        calls,
        det_sites,
    }
}
