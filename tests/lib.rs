//! Shared helpers for the cross-crate integration tests.

use dblayout_catalog::{Catalog, ObjectId};
use dblayout_core::tsgreedy::TsGreedyConfig;
use dblayout_disksim::{DiskSpec, Layout};
use dblayout_obs::{f, FieldValue, Record};
use dblayout_planner::{plan_statement, PhysicalPlan, Subplan};
use dblayout_sql::parse_statement;

/// Parses and plans one SQL statement, panicking with context on failure.
pub fn plan(catalog: &Catalog, sql: &str) -> PhysicalPlan {
    let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
    plan_statement(catalog, &stmt).unwrap_or_else(|e| panic!("plan `{sql}`: {e}"))
}

/// Parses and plans a workload of unit-weight statements.
pub fn plan_workload(catalog: &Catalog, sqls: &[&str]) -> Vec<(PhysicalPlan, f64)> {
    sqls.iter().map(|s| (plan(catalog, s), 1.0)).collect()
}

/// Object sizes indexed by object id.
pub fn sizes(catalog: &Catalog) -> Vec<u64> {
    catalog.objects().iter().map(|o| o.size_blocks).collect()
}

/// The outcome of one candidate move in the naive step-2 reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// `Layout::validate` rejected the trial layout.
    InvalidLayout,
    /// `Constraints::check` rejected the trial layout.
    ConstraintViolation,
    /// The trial layout's full Figure-7 workload cost.
    Costed(f64),
}

/// One step-2 decision of the reference: a candidate it scored or a move
/// it adopted (whose outcome is the adopted cost).
#[derive(Debug, Clone)]
pub struct Decision {
    /// `true` for an adoption, `false` for a candidate.
    pub adopt: bool,
    /// The co-location group moved (the search's group id).
    pub group: usize,
    /// The group's objects.
    pub objects: Vec<usize>,
    /// The drives the move adds.
    pub add: Vec<usize>,
    /// The drive a seeded narrow or swap move drops.
    pub drop: Option<usize>,
    /// The candidate's outcome, or the adopted cost.
    pub outcome: Outcome,
    /// The cost of the layout the move starts from.
    pub base_cost: f64,
}

/// What the naive step-2 reference did.
pub struct ReferenceRun {
    /// The layout it converged to.
    pub layout: Layout,
    /// Its final cost.
    pub cost: f64,
    /// Its starting cost.
    pub initial_cost: f64,
    /// Moves adopted.
    pub iterations: usize,
    /// Full costings: the starting layout's, every scored candidate's and
    /// every adopted move's (the search's `cost_evaluations`).
    pub cost_evaluations: usize,
    /// Candidates enumerated (each one gets one validity check).
    pub enumerated: u64,
    /// Candidates that passed both checks and were costed.
    pub scored: u64,
    /// Every candidate and adoption, in order.
    pub decisions: Vec<Decision>,
}

/// Every subset of `items` with at most `k` elements (singles first, then
/// from the last item back to the first, everything extending it) — the
/// order TS-GREEDY enumerates a group's widening moves in.
pub fn combinations_up_to(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new())];
    while let Some((start, prefix)) = stack.pop() {
        for (i, &item) in items.iter().enumerate().skip(start) {
            let mut next = prefix.clone();
            next.push(item);
            if next.len() < k {
                stack.push((i + 1, next.clone()));
            }
            out.push(next);
        }
    }
    out
}

/// A naive TS-GREEDY step 2 (Figure 9) from `initial`, the oracle the
/// search is compared against. Each iteration enumerates every move of
/// the frontier's groups in the canonical order (widening combinations,
/// then a seeded search's narrow and swap moves); for each it clones the
/// layout, re-places the group, runs `Layout::validate` and
/// `Constraints::check`, and costs the whole workload with
/// `CostModel::workload_cost_subplans`; it adopts the earliest strict
/// minimum below `cost − 1e-9`. A pruned search (`prune_width` below the
/// group count) scores only the groups with the best stale gains and,
/// when they offer nothing, runs one full arbitration sweep. Step 1 is
/// shared code, so the reference starts from the search's own
/// `initial_layout`.
pub fn reference_step2(
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    cfg: &TsGreedyConfig,
    initial: &Layout,
) -> ReferenceRun {
    let n = initial.object_count();
    let group_of = cfg.constraints.co_location_groups(n);
    let mut reps = group_of.clone();
    reps.sort_unstable();
    reps.dedup();
    let members: Vec<Vec<usize>> = reps
        .iter()
        .map(|&r| (0..n).filter(|&i| group_of[i] == r).collect())
        .collect();
    let eligible: Vec<Vec<usize>> = members
        .iter()
        .map(|mem| {
            (0..disks.len())
                .filter(|j| {
                    mem.iter().all(|&i| {
                        let allowed = cfg.constraints.eligible_disks(ObjectId(i as u32), disks);
                        allowed.is_none_or(|e| e.contains(j))
                    })
                })
                .collect()
        })
        .collect();
    let cost_of = |l: &Layout| cfg.cost_model.workload_cost_subplans(workload, l, disks);
    let moved = |layout: &Layout, g: usize, add: &[usize], drop: Option<usize>| {
        let mut set: Vec<usize> = layout.disks_of(members[g][0]);
        set.retain(|&j| Some(j) != drop);
        set.extend_from_slice(add);
        let mut trial = layout.clone();
        for &i in &members[g] {
            trial.place_proportional(i, &set, disks);
        }
        trial
    };
    let mut layout = initial.clone();
    let initial_cost = cost_of(&layout);
    let mut cost = initial_cost;
    let (mut iterations, mut enumerated, mut scored) = (0, 0, 0);
    let mut decisions = Vec::new();
    let groups = members.len();
    let pruned = cfg.prune_width > 0 && cfg.prune_width < groups;
    let mut gain = vec![f64::INFINITY; groups];
    let mut full_sweep = false;
    loop {
        let pruning = pruned && !full_sweep;
        let mut active = vec![!pruning; groups];
        if pruning {
            for _ in 0..cfg.prune_width {
                let next = (0..groups)
                    .filter(|&g| !active[g])
                    .min_by(|&a, &b| gain[b].total_cmp(&gain[a]).then(a.cmp(&b)));
                if let Some(g) = next {
                    active[g] = true;
                }
            }
        }
        let mut moves: Vec<(usize, Vec<usize>, Option<usize>)> = Vec::new();
        for g in (0..groups).filter(|&g| active[g]) {
            let current = layout.disks_of(members[g][0]);
            let candidates: Vec<usize> = eligible[g]
                .iter()
                .copied()
                .filter(|j| !current.contains(j))
                .collect();
            for add in combinations_up_to(&candidates, cfg.k) {
                moves.push((g, add, None));
            }
            if cfg.seed.is_some() {
                if current.len() >= 2 {
                    moves.extend(current.iter().map(|&d| (g, Vec::new(), Some(d))));
                }
                for &d in &current {
                    moves.extend(candidates.iter().map(|&c| (g, vec![c], Some(d))));
                }
            }
        }
        enumerated += moves.len() as u64;
        // A scored group's stale gain becomes its best improvement.
        if cfg.prune_width > 0 {
            for g in (0..groups).filter(|&g| active[g]) {
                gain[g] = f64::NEG_INFINITY;
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (idx, (g, add, drop)) in moves.iter().enumerate() {
            let trial = moved(&layout, *g, add, *drop);
            let outcome = if trial.validate(disks).is_err() {
                Outcome::InvalidLayout
            } else if cfg.constraints.check(&trial, disks).is_err() {
                Outcome::ConstraintViolation
            } else {
                Outcome::Costed(cost_of(&trial))
            };
            if let Outcome::Costed(c) = outcome {
                scored += 1;
                if c < cost - 1e-9 && best.is_none_or(|(_, b)| c < b) {
                    best = Some((idx, c));
                }
                if cfg.prune_width > 0 && cost - c > gain[*g] {
                    gain[*g] = cost - c;
                }
            }
            decisions.push(Decision {
                adopt: false,
                group: *g,
                objects: members[*g].clone(),
                add: add.clone(),
                drop: *drop,
                outcome,
                base_cost: cost,
            });
        }
        let Some((idx, c)) = best else {
            if pruning {
                full_sweep = true;
                continue;
            }
            break;
        };
        let (g, add, drop) = &moves[idx];
        layout = moved(&layout, *g, add, *drop);
        decisions.push(Decision {
            adopt: true,
            group: *g,
            objects: members[*g].clone(),
            add: add.clone(),
            drop: *drop,
            outcome: Outcome::Costed(c),
            base_cost: cost,
        });
        cost = c;
        iterations += 1;
        full_sweep = false;
        if cfg.max_iterations != 0 && iterations >= cfg.max_iterations {
            break;
        }
    }
    ReferenceRun {
        layout,
        cost,
        initial_cost,
        iterations,
        cost_evaluations: 1 + scored as usize + iterations,
        enumerated,
        scored,
        decisions,
    }
}

impl ReferenceRun {
    /// The reference's decisions as the search's `tsgreedy.candidate` and
    /// `tsgreedy.adopt` events would record them, one line per event (see
    /// [`decision_events`]).
    pub fn decision_events(&self) -> Vec<String> {
        let ids = |v: &[usize]| {
            let v: Vec<String> = v.iter().map(usize::to_string).collect();
            v.join(",")
        };
        self.decisions
            .iter()
            .map(|d| {
                let mut fields = vec![
                    f("group", d.group),
                    f("objects", ids(&d.objects)),
                    f("add_disks", ids(&d.add)),
                ];
                if let Some(drop) = d.drop {
                    fields.push(f("drop_disks", ids(&[drop])));
                }
                let (name, reason) = match d.outcome {
                    _ if d.adopt => ("tsgreedy.adopt", None),
                    Outcome::InvalidLayout => ("tsgreedy.candidate", Some("invalid_layout")),
                    Outcome::ConstraintViolation => {
                        ("tsgreedy.candidate", Some("constraint_violation"))
                    }
                    Outcome::Costed(c) if c < d.base_cost - 1e-9 => {
                        ("tsgreedy.candidate", Some("improves"))
                    }
                    Outcome::Costed(_) => ("tsgreedy.candidate", Some("no_improvement")),
                };
                if let Outcome::Costed(c) = d.outcome {
                    fields.push(f("cost_ms", c));
                    fields.push(f("delta_ms", c - d.base_cost));
                }
                if let Some(reason) = reason {
                    fields.push(f("reason", reason));
                }
                event_line(name, &fields)
            })
            .collect()
    }
}

/// A search trace's `tsgreedy.candidate` and `tsgreedy.adopt` events, one
/// line per event: the name and every field in order, floats as their bit
/// patterns, so equal lines mean equal events field for field.
pub fn decision_events(trace: &[Record]) -> Vec<String> {
    trace
        .iter()
        .filter(|r| r.name == "tsgreedy.candidate" || r.name == "tsgreedy.adopt")
        .map(|r| event_line(&r.name, &r.fields))
        .collect()
}

fn event_line(name: &str, fields: &[(String, FieldValue)]) -> String {
    let mut line = name.to_string();
    for (key, value) in fields {
        let value = match value {
            FieldValue::F64(x) => format!("{:#018x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        line.push_str(&format!(" {key}={value}"));
    }
    line
}
