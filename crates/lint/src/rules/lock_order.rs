//! R4 — lock-order consistency.
//!
//! Two threads taking the same pair of mutexes in opposite orders can
//! deadlock. This rule builds a cross-file acquisition-order graph over
//! `crates/server`: scanning each function's token stream, it records
//! which named mutex guards are still held when another is acquired
//! (an edge `A → B` means "B was taken while A was held"), merges edges
//! across the crate by mutex name, and fails on any cycle.
//!
//! Scope tracking is heuristic and deliberately **over-approximates**
//! holds: a `let`-bound guard is considered held to the end of its
//! enclosing block (explicit `drop(guard)` is not tracked), and a guard
//! acquired as a temporary is held to the end of its statement. Extra
//! hold time can only add edges, so a cycle-free verdict is trustworthy;
//! a spurious edge that manufactures a false cycle can be suppressed with
//! a documented reason. Locks are named by the receiver field
//! (`shared.queue` → `queue`); same-name re-acquisition is not reported
//! (non-reentrancy is R2/R1 territory, and the over-approximation would
//! make it noisy).

use std::collections::BTreeMap;

use super::{Finding, FinishCtx, Rule, ScanCtx};
use crate::lexer::{ident_text, is_ident, is_punct};
use crate::summary::{Facts, LockEdge};
use crate::workspace::FileCtx;

/// See module docs.
pub struct LockOrder;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "R4"
    }

    fn scan(&self, ctx: &ScanCtx<'_>, facts: &mut Facts, _findings: &mut Vec<Finding>) {
        if ctx.file.path.starts_with("crates/server/src/") {
            let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
            collect_edges(ctx.file, &mut edges);
            facts.lock_edges = edges
                .into_iter()
                .map(|((from, to), (_, line))| LockEdge { from, to, line })
                .collect();
        }
    }

    fn finish(&self, ctx: &FinishCtx<'_>) -> Vec<Finding> {
        // edge (from, to) -> first provenance seen (file order = path order).
        let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
        for file in ctx.files {
            for e in &file.facts.lock_edges {
                edges
                    .entry((e.from.clone(), e.to.clone()))
                    .or_insert_with(|| (file.path.clone(), e.line));
            }
        }
        find_cycles(&edges)
    }
}

/// A held guard: the mutex name, the brace depth it was acquired at, and
/// whether it dies at the end of its statement (temporary) or its block
/// (`let`-bound).
struct Held {
    name: String,
    depth: usize,
    temp: bool,
}

fn collect_edges(file: &FileCtx, edges: &mut BTreeMap<(String, String), (String, u32)>) {
    let toks = &file.toks;
    let mut depth = 0usize;
    let mut pending_let = false;
    let mut held: Vec<Held> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if file.in_tests(t.line) {
            i += 1;
            continue;
        }
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth = depth.saturating_sub(1);
            held.retain(|h| h.depth <= depth);
        } else if is_punct(t, ";") {
            held.retain(|h| !(h.temp && h.depth == depth));
            pending_let = false;
        } else if is_ident(t, "let") {
            pending_let = true;
        } else if let Some(name) = acquisition_at(toks, i) {
            for h in &held {
                if h.name != name {
                    edges
                        .entry((h.name.clone(), name.clone()))
                        .or_insert_with(|| (file.path.clone(), t.line));
                }
            }
            held.push(Held {
                name,
                depth,
                temp: !pending_let,
            });
        }
        i += 1;
    }
}

/// Recognizes a lock acquisition starting at token `i` and names the mutex.
///
/// Two shapes: `lock_unpoisoned(&<path>)` (name = last identifier of the
/// argument path) and `<path>.lock()` (name = identifier before `.lock`).
fn acquisition_at(toks: &[crate::lexer::Tok], i: usize) -> Option<String> {
    if is_ident(&toks[i], "lock_unpoisoned") && toks.get(i + 1).is_some_and(|t| is_punct(t, "(")) {
        let mut parens = 0usize;
        let mut last_ident: Option<&str> = None;
        for t in &toks[i + 1..] {
            if is_punct(t, "(") {
                parens += 1;
            } else if is_punct(t, ")") {
                parens -= 1;
                if parens == 0 {
                    break;
                }
            } else if let Some(name) = ident_text(t) {
                last_ident = Some(name);
            }
        }
        return last_ident.map(str::to_string);
    }
    if is_ident(&toks[i], "lock")
        && i >= 2
        && is_punct(&toks[i - 1], ".")
        && toks.get(i + 1).is_some_and(|t| is_punct(t, "("))
        && toks.get(i + 2).is_some_and(|t| is_punct(t, ")"))
    {
        return ident_text(&toks[i - 2]).map(str::to_string);
    }
    None
}

fn find_cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    // Iterative DFS with colors; one finding per back edge found.
    let mut findings = Vec::new();
    let mut color: BTreeMap<&str, u8> = adj.keys().map(|&n| (n, 0u8)).collect();
    for &start in adj.keys() {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let neighbors = adj.get(node).map(Vec::as_slice).unwrap_or_default();
            if *next < neighbors.len() {
                let n = neighbors[*next];
                *next += 1;
                match color.get(n).copied().unwrap_or(0) {
                    1 => {
                        // Back edge: path from n..node plus n closes a cycle.
                        let cycle_start = path.iter().position(|&p| p == n).unwrap_or(0);
                        let mut cycle: Vec<&str> = path[cycle_start..].to_vec();
                        cycle.push(n);
                        let (file, line) = edges
                            .get(&(node.to_string(), n.to_string()))
                            .cloned()
                            .unwrap_or_default();
                        findings.push(Finding {
                            file,
                            line,
                            message: format!(
                                "lock-order cycle {} — two threads interleaving these \
                                 acquisitions can deadlock; pick one global order",
                                cycle.join(" -> ")
                            ),
                        });
                    }
                    0 => {
                        color.insert(n, 1);
                        stack.push((n, 0));
                        path.push(n);
                    }
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    findings
}
