//! Name-based call-graph reachability for the determinism-zone rule (R6).
//!
//! R6 needs "is this function reachable from the deterministic search
//! paths?" without type checking. The graph is built from the scan-phase
//! [`FnFact`]s: nodes are function definitions, and a call links to a
//! definition when
//!
//! * the call is path-qualified and the qualifier+name matches the
//!   definition's `Type::name` (`DeltaEvaluator::evaluate_move`), or the
//!   qualifier is a module-ish lowercase path segment and the bare name
//!   matches a free fn (`counters::incr` → `incr`);
//! * the call is a method call whose receiver's type head is known and
//!   matches the definition's impl type;
//! * the call is bare (or a method on an unresolved receiver) and the
//!   name matches — **unless** the name is in the ubiquity stoplist.
//!   Names like `new`, `get`, or `len` appear on dozens of unrelated
//!   types; linking them by name alone would connect the whole workspace
//!   into one blob and R6 would flag everything.
//!
//! The over-approximation is deliberately asymmetric: qualified and
//! receiver-typed matches may *add* edges that a type checker would
//! reject (two types sharing a method name), never remove real ones —
//! except through the stoplist, which is why stoplisted names are only
//! skipped for *unqualified* matching. A genuinely hot helper named
//! `get` can still be zoned by putting its file in the seed set.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::summary::FileSummary;

/// Files whose functions seed the deterministic zone: the sequential and
/// parallel TS-GREEDY drivers, the multilevel coarsening pipeline (its
/// matching/projection determinism argument is load-bearing for the
/// byte-identity contract, DESIGN.md §11), the continuous-relayout layer,
/// the deterministic counter registry, the decision-audit crate
/// (replay must re-derive recorded layouts bit-identically, so nothing in
/// it may read a clock or other ambient state — timestamps are
/// caller-supplied), and the load-harness schedule (same seed must yield
/// the same op mix on every host so `BENCH_server.json` mix counters gate
/// exactly — the driver's pacing may read clocks, the schedule may not).
pub fn is_seed_file(path: &str) -> bool {
    path == "crates/core/src/tsgreedy.rs"
        || path == "crates/core/src/par.rs"
        || path.starts_with("crates/relayout/src/")
        || path.starts_with("crates/audit/src/")
        || path == "crates/obs/src/counters.rs"
        || path == "crates/partition/src/coarsen.rs"
        || path == "crates/partition/src/multilevel.rs"
        || path == "crates/loadgen/src/schedule.rs"
}

/// Method/function names too ubiquitous to link by bare name.
const STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "fmt",
    "from",
    "into",
    "as_str",
    "as_ref",
    "as_mut",
    "to_string",
    "name",
    "id",
    "min",
    "max",
    "abs",
    "map",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "write",
    "read",
    "flush",
    "send",
    "recv",
    "join",
    "lock",
    "take",
    "set",
    "add",
    "sub",
    "eq",
    "ne",
    "cmp",
    "hash",
    "drop",
    "close",
    "run",
    "start",
    "stop",
    "init",
    "build",
    "reset",
    "update",
    "apply",
    "with",
    "values",
    "keys",
    "sort",
    "swap",
    "index",
    "count",
    "sum",
    "total",
    "snapshot",
    "delta",
];

/// One function node: `(file index, fn index within that file's facts)`.
pub type FnId = (usize, usize);

/// Reachability result: every function reachable from a seed, mapped to a
/// human-readable provenance chain (`ts_greedy -> score_move -> helper`).
pub fn deterministic_reachability(files: &[FileSummary]) -> BTreeMap<FnId, String> {
    // Definition indices.
    let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut by_qualified: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.facts.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            if let Some(q) = &f.qualified {
                by_qualified.entry(q.as_str()).or_default().push((fi, gi));
            }
        }
    }
    let mut reach: BTreeMap<FnId, String> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (fi, file) in files.iter().enumerate() {
        if !is_seed_file(&file.path) {
            continue;
        }
        for (gi, f) in file.facts.fns.iter().enumerate() {
            reach.insert((fi, gi), f.name.clone());
            queue.push_back((fi, gi));
        }
    }
    while let Some(id) = queue.pop_front() {
        let caller = &files[id.0].facts.fns[id.1];
        let chain = reach.get(&id).cloned().unwrap_or_default();
        let mut targets: BTreeSet<FnId> = BTreeSet::new();
        for call in &caller.calls {
            if let Some(q) = &call.qualifier {
                // `Type::name` exact match.
                let key = format!("{q}::{}", call.name);
                if let Some(defs) = by_qualified.get(key.as_str()) {
                    targets.extend(defs.iter().copied());
                    continue;
                }
                // `module::free_fn` — lowercase qualifier, link unqualified
                // definitions by name (a free fn has no `qualified`).
                if q.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
                    if let Some(defs) = by_name.get(call.name.as_str()) {
                        targets.extend(
                            defs.iter()
                                .filter(|&&(fi, gi)| files[fi].facts.fns[gi].qualified.is_none()),
                        );
                    }
                }
                continue;
            }
            if call.method {
                if let Some(recv_ty) = &call.receiver_type {
                    let key = format!("{recv_ty}::{}", call.name);
                    if let Some(defs) = by_qualified.get(key.as_str()) {
                        targets.extend(defs.iter().copied());
                        continue;
                    }
                }
            }
            // Bare-name fallback, stoplist-guarded.
            if STOPLIST.contains(&call.name.as_str()) {
                continue;
            }
            if let Some(defs) = by_name.get(call.name.as_str()) {
                targets.extend(defs.iter().copied());
            }
        }
        for t in targets {
            if let std::collections::btree_map::Entry::Vacant(slot) = reach.entry(t) {
                let callee = &files[t.0].facts.fns[t.1];
                slot.insert(format!("{chain} -> {}", callee.name));
                queue.push_back(t);
            }
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{CallFact, Facts, FileSummary, FnFact};

    fn file(path: &str, fns: Vec<FnFact>) -> FileSummary {
        FileSummary {
            path: path.into(),
            lex_error: None,
            findings: vec![],
            suppressions: vec![],
            facts: Facts {
                fns,
                ..Facts::default()
            },
        }
    }

    fn f(name: &str, qualified: Option<&str>, calls: Vec<CallFact>) -> FnFact {
        FnFact {
            name: name.into(),
            qualified: qualified.map(str::to_string),
            line: 1,
            calls,
            det_sites: vec![],
        }
    }

    fn bare(name: &str) -> CallFact {
        CallFact {
            name: name.into(),
            qualifier: None,
            receiver_type: None,
            method: false,
        }
    }

    fn qualified(q: &str, name: &str) -> CallFact {
        CallFact {
            name: name.into(),
            qualifier: Some(q.into()),
            receiver_type: None,
            method: false,
        }
    }

    fn method_on(ty: &str, name: &str) -> CallFact {
        CallFact {
            name: name.into(),
            qualifier: None,
            receiver_type: Some(ty.into()),
            method: true,
        }
    }

    #[test]
    fn seeds_reach_through_bare_and_qualified_calls() {
        let files = vec![
            file(
                "crates/core/src/tsgreedy.rs",
                vec![f("ts_greedy", None, vec![bare("score_candidates")])],
            ),
            file(
                "crates/core/src/costmodel.rs",
                vec![
                    f(
                        "score_candidates",
                        None,
                        vec![qualified("DeltaEvaluator", "evaluate_move")],
                    ),
                    f(
                        "evaluate_move",
                        Some("DeltaEvaluator::evaluate_move"),
                        vec![],
                    ),
                    f("unrelated", None, vec![]),
                ],
            ),
        ];
        let reach = deterministic_reachability(&files);
        let names: Vec<&str> = reach
            .keys()
            .map(|&(fi, gi)| files[fi].facts.fns[gi].name.as_str())
            .collect();
        assert!(names.contains(&"ts_greedy"));
        assert!(names.contains(&"score_candidates"));
        assert!(names.contains(&"evaluate_move"));
        assert!(!names.contains(&"unrelated"));
        // Provenance chain names the path from the seed.
        let (chain_id, _) = reach
            .iter()
            .find(|(&(fi, gi), _)| files[fi].facts.fns[gi].name == "evaluate_move")
            .unwrap();
        assert!(reach[chain_id].starts_with("ts_greedy -> score_candidates"));
    }

    #[test]
    fn stoplisted_bare_names_do_not_link() {
        let files = vec![
            file(
                "crates/core/src/tsgreedy.rs",
                vec![f("ts_greedy", None, vec![bare("get"), bare("new")])],
            ),
            file(
                "crates/server/src/session.rs",
                vec![
                    f("get", Some("Registry::get"), vec![]),
                    f("new", None, vec![]),
                ],
            ),
        ];
        let reach = deterministic_reachability(&files);
        assert_eq!(reach.len(), 1, "only the seed itself is zoned");
    }

    #[test]
    fn typed_receiver_links_past_the_stoplist() {
        // `self.reg.get(..)` with reg: Registry links Registry::get even
        // though bare `get` is stoplisted.
        let files = vec![
            file(
                "crates/core/src/tsgreedy.rs",
                vec![f("ts_greedy", None, vec![method_on("Registry", "get")])],
            ),
            file(
                "crates/server/src/session.rs",
                vec![f("get", Some("Registry::get"), vec![])],
            ),
        ];
        let reach = deterministic_reachability(&files);
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn module_qualified_free_fn_links() {
        let files = vec![
            file(
                "crates/relayout/src/budget.rs",
                vec![f(
                    "recommend_budgeted",
                    None,
                    vec![qualified("helpers", "prune")],
                )],
            ),
            file(
                "crates/planner/src/helpers.rs",
                vec![
                    f("prune", None, vec![]),
                    f("prune", Some("Other::prune"), vec![]),
                ],
            ),
        ];
        let reach = deterministic_reachability(&files);
        // Free fn linked; the impl method with the same name is not.
        assert_eq!(reach.len(), 2);
        assert!(reach
            .keys()
            .any(|&(fi, gi)| files[fi].facts.fns[gi].qualified.is_none()
                && files[fi].facts.fns[gi].name == "prune"));
    }
}
