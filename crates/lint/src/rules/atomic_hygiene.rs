//! R7 — atomic-ordering hygiene.
//!
//! The workspace's concurrency story is deliberately narrow: shared state
//! lives behind mutexes (R2/R4 territory), and the only raw atomics are
//! the sanctioned ones — the `obs` accounting paths (always-on counters,
//! trace sequence numbers, drop tallies: all `Relaxed`, since they are
//! monotonic tallies whose readers tolerate staleness), the server's
//! metrics mirrors (`Relaxed`, same argument) and its shutdown flag
//! (`SeqCst`: a rare store that must be seen promptly by every acceptor
//! and connection thread, where the cost of the strongest ordering is
//! irrelevant and the cost of reasoning about a weaker one is not), and
//! the load driver's error/shed tallies (`Relaxed`).
//!
//! Everything else is flagged: a raw atomic in `core` or `relayout` is
//! almost always a hand-rolled work counter that belongs in the
//! `obs::counters` registry (where it participates in the deterministic
//! fingerprint and the Prometheus exposition instead of being invisible),
//! and an `Ordering` choice outside a file's declared policy is either an
//! error or a policy change that must be made in DESIGN.md §5 first. Test
//! regions are exempt (tests legitimately use Acquire/Release handshakes
//! to order their own assertions).

use super::{Finding, Rule, ScanCtx};
use crate::lexer::{ident_text, is_ident, is_punct};
use crate::summary::Facts;

/// See module docs.
pub struct AtomicHygiene;

const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// What a file is allowed to do with atomics.
enum Policy {
    /// Atomics allowed, but `Ordering` choices restricted to this set.
    Orderings(&'static [&'static str]),
    /// No raw atomics at all.
    Forbidden,
}

/// The declared policy table (mirrored in DESIGN.md §5). First match
/// wins; longest/most-specific prefixes come first.
fn policy_for(path: &str) -> Policy {
    if path.starts_with("crates/obs/src/") {
        Policy::Orderings(&["Relaxed"])
    } else if path == "crates/server/src/server.rs" {
        Policy::Orderings(&["Relaxed", "SeqCst"])
    } else if path.starts_with("crates/server/src/") {
        Policy::Orderings(&["Relaxed"])
    } else if path == "crates/loadgen/src/driver.rs" {
        // The load driver's error/shed tallies: monotonic counters whose
        // readers tolerate staleness, same argument as the server metrics
        // mirrors. They are run-local measurement artifacts, not workspace
        // work counters, so they stay out of the obs::counters registry —
        // the registry is the *server's* deterministic fingerprint; a
        // client-side harness must not pollute it.
        Policy::Orderings(&["Relaxed"])
    } else {
        Policy::Forbidden
    }
}

impl Rule for AtomicHygiene {
    fn id(&self) -> &'static str {
        "R7"
    }

    fn scan(&self, ctx: &ScanCtx<'_>, _facts: &mut Facts, findings: &mut Vec<Finding>) {
        let path = &ctx.file.path;
        if !path.starts_with("crates/") {
            return;
        }
        let policy = policy_for(path);
        let toks = &ctx.file.toks;
        let mut last_flagged_line = 0u32;
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            // `use ...;` imports are declarations, not usage — skip so a
            // policy-clean file can still import the Ordering enum.
            if is_ident(t, "use") {
                while i < toks.len() && !is_punct(&toks[i], ";") {
                    i += 1;
                }
                continue;
            }
            if ctx.file.in_tests(t.line) {
                i += 1;
                continue;
            }
            if let Some(name) = ident_text(t) {
                match &policy {
                    Policy::Forbidden => {
                        let is_atomic_ty = ATOMIC_TYPES.contains(&name);
                        let is_ordering = name == "Ordering"
                            && toks.get(i + 1).is_some_and(|n| is_punct(n, "::"))
                            && toks
                                .get(i + 2)
                                .and_then(ident_text)
                                .is_some_and(|o| ORDERINGS.contains(&o));
                        // One finding per line keeps `static X: AtomicU64 =
                        // AtomicU64::new(0)` from double-reporting.
                        if (is_atomic_ty || is_ordering) && t.line != last_flagged_line {
                            last_flagged_line = t.line;
                            findings.push(Finding {
                                file: path.clone(),
                                line: t.line,
                                message: format!(
                                    "raw atomic (`{name}`) outside the sanctioned zones \
                                     (obs, crates/server, loadgen/src/driver.rs); work \
                                     counters belong in the `obs::counters` registry so they \
                                     join the deterministic fingerprint and the Prometheus \
                                     exposition — otherwise use a lock or a channel"
                                ),
                            });
                        }
                    }
                    Policy::Orderings(allowed) => {
                        if name == "Ordering" && toks.get(i + 1).is_some_and(|n| is_punct(n, "::"))
                        {
                            if let Some(o) = toks.get(i + 2).and_then(ident_text) {
                                if ORDERINGS.contains(&o) && !allowed.contains(&o) {
                                    findings.push(Finding {
                                        file: path.clone(),
                                        line: t.line,
                                        message: format!(
                                            "`Ordering::{o}` is outside the declared policy \
                                             for this file (allowed: {}); change the \
                                             algorithm, or change the policy table in \
                                             DESIGN.md §5 and the R7 rule together",
                                            allowed.join(", ")
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{policy_for, Policy};

    #[test]
    fn policy_table_matches_design_doc() {
        assert!(matches!(
            policy_for("crates/obs/src/counters.rs"),
            Policy::Orderings(["Relaxed"])
        ));
        assert!(matches!(
            policy_for("crates/server/src/server.rs"),
            Policy::Orderings(["Relaxed", "SeqCst"])
        ));
        assert!(matches!(
            policy_for("crates/server/src/metrics.rs"),
            Policy::Orderings(["Relaxed"])
        ));
        assert!(matches!(
            policy_for("crates/loadgen/src/driver.rs"),
            Policy::Orderings(["Relaxed"])
        ));
        for forbidden in [
            "crates/core/src/par.rs",
            "crates/core/src/tsgreedy.rs",
            "crates/relayout/src/budget.rs",
            "crates/planner/src/optimizer.rs",
            "crates/cli/src/main.rs",
        ] {
            assert!(
                matches!(policy_for(forbidden), Policy::Forbidden),
                "{forbidden} must forbid raw atomics"
            );
        }
    }
}
