//! R6 — determinism zones.
//!
//! The workspace's headline guarantee is that TS-GREEDY layouts, costs,
//! counters, and migration plans are byte-identical at any thread count
//! (DESIGN.md §7). The classic ways Rust code silently breaks that are
//! all *locally* innocent:
//!
//! * a std `HashMap`/`HashSet` — the randomized hash seed makes visit
//!   order differ per process, reordering any fold over it;
//! * `Instant::now()` / `SystemTime::now()` feeding a value into the
//!   search (thresholds, tie-breaks, sampled seeds);
//! * `thread::current()` — branching on thread identity makes the result
//!   depend on scheduling.
//!
//! The **deterministic zone** is zoned by crate. The deterministic search
//! paths live in `core`, `relayout`, `audit`, `obs` (the counter
//! registry) and `partition`; a call cannot leave its crate's dependency
//! closure, so the zone is those crates plus every crate they depend on
//! ([`ZONE_CRATES`]). The load harness's schedule is zoned on its own
//! ([`ZONE_FILES`]): it imports nothing from the rest of `loadgen`, and
//! the same seed must yield the same op mix on every host.
//!
//! In a zone file every mention of `HashMap`/`HashSet` is a finding (an
//! order-stable `BTreeMap`/`BTreeSet`/`Vec` costs nothing to choose
//! up front), and so is every `Instant::now`, `SystemTime::now` or
//! `thread::current` — as a call or as a function reference
//! (`.then(Instant::now)`). `use` declarations and test regions are
//! exempt. A site that is provably harmless (e.g. a timed path that
//! deterministic runs disable by construction) carries a reasoned
//! suppression.

use super::{Finding, Rule, ScanCtx};
use crate::lexer::{ident_text, is_ident, is_punct, Tok};
use crate::summary::Facts;

/// See module docs.
pub struct DeterminismZone;

/// Crates wholly in the zone: the dependency closure of the crates the
/// deterministic search paths live in (`core`, `relayout`, `audit`,
/// `obs`, `partition`). `tests/selfcheck.rs` re-derives it from the
/// manifests.
const ZONE_CRATES: &[&str] = &[
    "audit",
    "catalog",
    "core",
    "disksim",
    "obs",
    "partition",
    "planner",
    "relayout",
    "sql",
];

/// Files zoned outside [`ZONE_CRATES`]: the load-harness schedule, which
/// imports nothing from its own crate.
const ZONE_FILES: &[&str] = &["crates/loadgen/src/schedule.rs"];

/// Whether `path` is in the deterministic zone.
fn in_zone(path: &str) -> bool {
    ZONE_FILES.contains(&path)
        || path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once("/src/"))
            .is_some_and(|(krate, _)| ZONE_CRATES.contains(&krate))
}

/// The determinism hazard starting at token `i`, as what it is and how
/// to fix it.
fn hazard_at(toks: &[Tok], i: usize) -> Option<(String, &'static str)> {
    let name = ident_text(&toks[i])?;
    let path_next = |seg: &str| {
        toks.get(i + 1).is_some_and(|n| is_punct(n, "::"))
            && toks.get(i + 2).is_some_and(|n| is_ident(n, seg))
    };
    if name == "HashMap" || name == "HashSet" {
        Some((
            format!("std `{name}` (iteration order is randomized per process)"),
            "use BTreeMap/BTreeSet or a Vec",
        ))
    } else if (name == "Instant" || name == "SystemTime") && path_next("now") {
        Some((
            format!("wall-clock value (`{name}::now`)"),
            "take the value outside the zone",
        ))
    } else if name == "thread" && path_next("current") {
        Some((
            "thread-identity value (`thread::current`)".to_string(),
            "take the value outside the zone",
        ))
    } else {
        None
    }
}

impl Rule for DeterminismZone {
    fn id(&self) -> &'static str {
        "R6"
    }

    fn scan(&self, ctx: &ScanCtx<'_>, _facts: &mut Facts, findings: &mut Vec<Finding>) {
        let path = &ctx.file.path;
        if !in_zone(path) {
            return;
        }
        let toks = &ctx.file.toks;
        let mut last_flagged_line = 0u32;
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            // `use ...;` imports are declarations, not usage.
            if is_ident(t, "use") {
                while i < toks.len() && !is_punct(&toks[i], ";") {
                    i += 1;
                }
                continue;
            }
            // One finding per line keeps `HashMap<K, V> = HashMap::new()`
            // one site.
            if t.line != last_flagged_line && !ctx.file.in_tests(t.line) {
                if let Some((what, fix)) = hazard_at(toks, i) {
                    last_flagged_line = t.line;
                    findings.push(Finding {
                        file: path.clone(),
                        line: t.line,
                        message: format!(
                            "{what} in the deterministic zone (a crate the search depends \
                             on); {fix}, or suppress with the reason it cannot affect results"
                        ),
                    });
                }
            }
            i += 1;
        }
    }
}
