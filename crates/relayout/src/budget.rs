//! Movement-budgeted advising: "improve cost ≥ X% while moving ≤ Y MB".
//!
//! A live system cannot jump to the advisor's ideal layout when getting
//! there means relocating half the database. The budgeted recommender
//! instead answers: *given the deployed layout, what is the best layout
//! reachable within a relocation budget?* Three candidates compete, and
//! the cheapest wins:
//!
//! 1. **identity** — stay put (always admissible, so the answer is never
//!    worse than the deployed layout);
//! 2. **seeded search** — TS-GREEDY started *from* the deployed layout
//!    (`TsGreedyConfig::seed`) under the paper's §2.3.1 data-movement
//!    bound, so every adopted widen/narrow/swap move keeps cumulative
//!    relocation within budget;
//! 3. **the unconstrained ideal** — the ordinary two-step search, admitted
//!    only when its distance from the deployed layout happens to fit the
//!    budget (cheap to check, and exactly right when drift is mild).
//!
//! A zero budget degenerates to the identity (every relocation writes at
//! least one block); an absent budget makes the ideal always admissible.
//! Results inherit the `dblayout-par` determinism contract: byte-identical
//! at any thread count.

use dblayout_catalog::BLOCK_BYTES;
use dblayout_disksim::{DiskSpec, Layout};
use dblayout_obs::counters::{Counter, CounterSnapshot};
use dblayout_partition::Graph;
use dblayout_planner::Subplan;
use serde_json::Value;

use dblayout_core::tsgreedy::{ts_greedy, SearchError, TsGreedyConfig};

/// Budgeted-advising configuration.
#[derive(Debug, Clone, Default)]
pub struct BudgetConfig {
    /// Maximum blocks the recommendation may relocate from the deployed
    /// layout (`Layout::data_movement_from`); `None` means unbounded.
    pub budget_blocks: Option<u64>,
    /// The improvement (percent of deployed cost) the caller asked for;
    /// reported back as [`BudgetedOutcome::meets_improvement`].
    pub min_improvement_pct: f64,
    /// Search settings shared by both the seeded and the ideal run
    /// (`k`, threads, cost model, collector, extra constraints). The
    /// `seed` and movement bound are filled in per run.
    pub search: TsGreedyConfig,
}

/// Which candidate won the budgeted comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStrategy {
    /// The deployed layout already wins: no admissible move improves it.
    Identity,
    /// The movement-bounded search seeded from the deployed layout.
    Seeded,
    /// The unconstrained ideal, which happened to fit the budget.
    Ideal,
}

impl BudgetStrategy {
    /// Stable snake_case name for artifacts and wire responses.
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetStrategy::Identity => "identity",
            BudgetStrategy::Seeded => "seeded_search",
            BudgetStrategy::Ideal => "ideal_fits_budget",
        }
    }
}

/// Outcome of a budgeted recommendation.
#[derive(Debug, Clone)]
pub struct BudgetedOutcome {
    /// The winning layout (the deployed layout itself under
    /// [`BudgetStrategy::Identity`]).
    pub layout: Layout,
    /// Workload cost of the deployed layout (ms).
    pub current_cost_ms: f64,
    /// Workload cost of the winning layout (ms).
    pub new_cost_ms: f64,
    /// `100 · (current − new) / current`.
    pub improvement_pct: f64,
    /// Blocks the winning layout relocates from the deployed one.
    pub moved_blocks: u64,
    /// The same relocation volume in bytes (64 KB blocks).
    pub moved_bytes: u64,
    /// The budget the search ran under, echoed for artifacts.
    pub budget_blocks: Option<u64>,
    /// Whether `improvement_pct` reached the requested threshold.
    pub meets_improvement: bool,
    /// Which candidate won.
    pub strategy: BudgetStrategy,
    /// Greedy iterations of the winning search run (0 for identity).
    pub iterations: usize,
    /// Cost-model invocations across both search runs.
    pub cost_evaluations: usize,
    /// This recommendation's deterministic work counts: both searches'
    /// and the deployed layout's costing. Each is also in the process
    /// registry; no other call's counts are in here.
    pub work: CounterSnapshot,
}

impl BudgetedOutcome {
    /// Machine-readable rendering (without the layout matrix; callers that
    /// need fractions read [`BudgetedOutcome::layout`] directly).
    pub fn to_json(&self) -> Value {
        let budget = match self.budget_blocks {
            Some(b) => Value::U64(b),
            None => Value::Null,
        };
        Value::Map(vec![
            ("current_cost_ms".into(), Value::F64(self.current_cost_ms)),
            ("new_cost_ms".into(), Value::F64(self.new_cost_ms)),
            ("improvement_pct".into(), Value::F64(self.improvement_pct)),
            ("moved_blocks".into(), Value::U64(self.moved_blocks)),
            ("moved_bytes".into(), Value::U64(self.moved_bytes)),
            ("budget_blocks".into(), budget),
            (
                "meets_improvement".into(),
                Value::Bool(self.meets_improvement),
            ),
            (
                "strategy".into(),
                Value::Str(self.strategy.as_str().to_string()),
            ),
            ("iterations".into(), Value::U64(self.iterations as u64)),
            (
                "cost_evaluations".into(),
                Value::U64(self.cost_evaluations as u64),
            ),
        ])
    }
}

/// Recommends the best layout reachable from `current` within the
/// relocation budget. See the module docs for the candidate set.
///
/// `sizes`/`graph`/`workload` are the advisor's usual prepared inputs
/// (object sizes in blocks, access graph, decomposed weighted sub-plans).
///
/// # Errors
/// [`SearchError::Infeasible`] when `current` is not a valid layout for
/// `disks` or the configured constraints admit no placement.
pub fn recommend_budgeted(
    sizes: &[u64],
    graph: &Graph,
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    current: &Layout,
    cfg: &BudgetConfig,
) -> Result<BudgetedOutcome, SearchError> {
    if let Err(e) = current.validate(disks) {
        return Err(SearchError::Infeasible(format!(
            "deployed layout is invalid: {e}"
        )));
    }
    let model = &cfg.search.cost_model;
    let mut work = CounterSnapshot::default();
    work.add(Counter::CostmodelFullRecosts, 1);
    let current_cost = model.workload_cost_subplans(workload, current, disks);

    // Candidate 2: seeded, movement-bounded search from the deployed layout.
    let mut seeded_cfg = cfg.search.clone();
    seeded_cfg.seed = Some(current.clone());
    if let Some(b) = cfg.budget_blocks {
        seeded_cfg.constraints = seeded_cfg.constraints.bound_movement(current.clone(), b);
    }
    let seeded = ts_greedy(sizes, graph, workload, disks, &seeded_cfg)?;

    // Candidate 3: the unconstrained ideal, admissible only when it fits.
    let ideal = ts_greedy(sizes, graph, workload, disks, &cfg.search)?;
    let ideal_fits = ideal.layout.validate(disks).is_ok()
        && cfg
            .budget_blocks
            .is_none_or(|b| ideal.layout.data_movement_from(current) <= b);
    work.merge(&seeded.work);
    work.merge(&ideal.work);

    let mut layout = current.clone();
    let mut new_cost = current_cost;
    let mut strategy = BudgetStrategy::Identity;
    let mut iterations = 0usize;
    if seeded.final_cost < new_cost - 1e-9 {
        layout = seeded.layout.clone();
        new_cost = seeded.final_cost;
        strategy = BudgetStrategy::Seeded;
        iterations = seeded.iterations;
    }
    if ideal_fits && ideal.final_cost < new_cost - 1e-9 {
        layout = ideal.layout.clone();
        new_cost = ideal.final_cost;
        strategy = BudgetStrategy::Ideal;
        iterations = ideal.iterations;
    }

    let moved_blocks = layout.data_movement_from(current);
    let improvement_pct = if current_cost > 0.0 {
        100.0 * (current_cost - new_cost) / current_cost
    } else {
        0.0
    };
    Ok(BudgetedOutcome {
        layout,
        current_cost_ms: current_cost,
        new_cost_ms: new_cost,
        improvement_pct,
        moved_blocks,
        moved_bytes: moved_blocks * BLOCK_BYTES,
        budget_blocks: cfg.budget_blocks,
        meets_improvement: improvement_pct + 1e-9 >= cfg.min_improvement_pct,
        strategy,
        iterations,
        cost_evaluations: seeded.cost_evaluations + ideal.cost_evaluations + 1,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::ObjectId;
    use dblayout_core::access_graph::build_access_graph;
    use dblayout_core::costmodel::decompose_workload;
    use dblayout_disksim::uniform_disks;
    use dblayout_planner::{PhysicalPlan, PlanNode};

    fn scan(obj: u32, blocks: u64) -> PlanNode {
        PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64,
        }
    }

    fn join(a: u32, ab: u64, b: u32, bb: u64) -> PhysicalPlan {
        PhysicalPlan::new(PlanNode::MergeJoin {
            on: "k".into(),
            rows: 1.0,
            left: Box::new(scan(a, ab)),
            right: Box::new(scan(b, bb)),
        })
    }

    /// Co-accessed pair on shared disks: separating them improves cost,
    /// but only when the budget allows relocation.
    #[allow(clippy::type_complexity)]
    fn fixture() -> (
        Vec<u64>,
        Graph,
        Vec<(Vec<Subplan>, f64)>,
        Vec<DiskSpec>,
        Layout,
    ) {
        let disks = uniform_disks(4, 100_000, 10.0, 20.0);
        let sizes = vec![400u64, 200];
        let plans = vec![(join(0, 400, 1, 200), 1.0)];
        let graph = build_access_graph(2, &plans);
        let workload = decompose_workload(&plans);
        let current = Layout::full_striping(sizes.clone(), &disks);
        (sizes, graph, workload, disks, current)
    }

    #[test]
    fn zero_budget_returns_identity() {
        let (sizes, graph, workload, disks, current) = fixture();
        let cfg = BudgetConfig {
            budget_blocks: Some(0),
            ..Default::default()
        };
        let out = recommend_budgeted(&sizes, &graph, &workload, &disks, &current, &cfg).unwrap();
        assert_eq!(out.strategy, BudgetStrategy::Identity);
        assert_eq!(out.moved_blocks, 0);
        assert_eq!(out.new_cost_ms.to_bits(), out.current_cost_ms.to_bits());
    }

    #[test]
    fn unbounded_budget_reaches_the_ideal() {
        let (sizes, graph, workload, disks, current) = fixture();
        let cfg = BudgetConfig::default();
        let out = recommend_budgeted(&sizes, &graph, &workload, &disks, &current, &cfg).unwrap();
        assert!(out.improvement_pct > 5.0, "got {}", out.improvement_pct);
        assert!(out.moved_blocks > 0);
        assert_eq!(out.moved_bytes, out.moved_blocks * BLOCK_BYTES);
        // The winner separates the co-accessed pair.
        let d0 = out.layout.disks_of(0);
        let d1 = out.layout.disks_of(1);
        assert!(d0.iter().all(|j| !d1.contains(j)), "{d0:?} vs {d1:?}");
        // The tally holds the deployed costing and both searches' work.
        let full = out.work.get(Counter::CostmodelFullRecosts);
        assert_eq!(full, 3, "deployed costing + one ledger build per search");
        let delta = out.work.get(Counter::CostmodelDeltaRecosts);
        assert_eq!(out.cost_evaluations as u64, full + delta);
    }

    #[test]
    fn cost_is_monotone_in_budget() {
        let (sizes, graph, workload, disks, current) = fixture();
        let budgets = [Some(0u64), Some(150), Some(400), None];
        let mut last = f64::INFINITY;
        for b in budgets {
            let cfg = BudgetConfig {
                budget_blocks: b,
                ..Default::default()
            };
            let out =
                recommend_budgeted(&sizes, &graph, &workload, &disks, &current, &cfg).unwrap();
            assert!(
                out.new_cost_ms <= last + 1e-9,
                "budget {b:?} regressed: {} > {last}",
                out.new_cost_ms
            );
            if let Some(b) = b {
                assert!(out.moved_blocks <= b, "budget {b} exceeded");
            }
            last = out.new_cost_ms;
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let (sizes, graph, workload, disks, current) = fixture();
        let at = |threads: usize| {
            let cfg = BudgetConfig {
                budget_blocks: Some(500),
                search: TsGreedyConfig {
                    threads,
                    ..Default::default()
                },
                ..Default::default()
            };
            recommend_budgeted(&sizes, &graph, &workload, &disks, &current, &cfg).unwrap()
        };
        let reference = at(1);
        for threads in [2usize, 4, 8] {
            let out = at(threads);
            assert_eq!(out.new_cost_ms.to_bits(), reference.new_cost_ms.to_bits());
            assert_eq!(out.moved_blocks, reference.moved_blocks);
            for i in 0..out.layout.object_count() {
                for j in 0..out.layout.disk_count() {
                    assert_eq!(
                        out.layout.fraction(i, j).to_bits(),
                        reference.layout.fraction(i, j).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_current_layout_rejected() {
        let (sizes, graph, workload, disks, _) = fixture();
        let bad = Layout::empty(sizes.clone(), disks.len());
        assert!(matches!(
            recommend_budgeted(
                &sizes,
                &graph,
                &workload,
                &disks,
                &bad,
                &BudgetConfig::default()
            ),
            Err(SearchError::Infeasible(_))
        ));
    }
}
