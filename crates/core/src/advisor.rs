//! The end-to-end advisor (paper §3, Figure 3).
//!
//! Inputs: a database (catalog), a workload (weighted SQL DML statements or
//! a workload file), a disk-drive list, and optional constraints. Output: a
//! recommended layout plus "an estimate of the percentage improvement in
//! I/O response time if the recommended layout were to be actually
//! implemented".
//!
//! Pipeline: parse → optimize each statement (no-execute plans) → *Analyze
//! Workload* (access graph) → *Search* (TS-GREEDY) → report costs against
//! the FULL STRIPING baseline.

use std::fmt;

use dblayout_catalog::Catalog;
use dblayout_disksim::{DiskSpec, Layout, LayoutError};
use dblayout_obs::counters::{Counter, CounterSnapshot};
use dblayout_obs::prof::PhaseTimer;
use dblayout_partition::Graph;
use dblayout_planner::{plan_statement, PhysicalPlan, PlanError, Subplan};
use dblayout_sql::{parse_workload_file, ParseError, Statement};

use crate::access_graph::extend_access_graph_traced;
use crate::costmodel::{decompose_workload, CostModel};
use crate::tsgreedy::{ts_greedy, SearchError, TsGreedyConfig, TsGreedyResult};

/// Advisor configuration.
#[derive(Debug, Clone, Default)]
pub struct AdvisorConfig {
    /// TS-GREEDY search settings (includes constraints and cost model).
    pub search: TsGreedyConfig,
    /// Wall-clock phase attribution (`dblayout-prof`). Disabled by
    /// default (free); when enabled the pipeline records `analyze` /
    /// `build-graph` / `search` / `cost` phases into the shared profile.
    pub prof: PhaseTimer,
}

/// Anything that can go wrong end to end.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvisorError {
    /// Workload text failed to parse.
    Parse(ParseError),
    /// A statement failed to plan (unknown table/column, ...).
    Plan(PlanError),
    /// A layout failed validation.
    Layout(LayoutError),
    /// The search could not satisfy the constraints.
    Search(SearchError),
    /// The workload is empty.
    EmptyWorkload,
}

impl fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdvisorError::Parse(e) => write!(f, "workload parse error: {e}"),
            AdvisorError::Plan(e) => write!(f, "planning error: {e}"),
            AdvisorError::Layout(e) => write!(f, "layout error: {e}"),
            AdvisorError::Search(e) => write!(f, "search error: {e}"),
            AdvisorError::EmptyWorkload => write!(f, "the workload contains no statements"),
        }
    }
}

impl std::error::Error for AdvisorError {}

impl From<ParseError> for AdvisorError {
    fn from(e: ParseError) -> Self {
        AdvisorError::Parse(e)
    }
}
impl From<PlanError> for AdvisorError {
    fn from(e: PlanError) -> Self {
        AdvisorError::Plan(e)
    }
}
impl From<LayoutError> for AdvisorError {
    fn from(e: LayoutError) -> Self {
        AdvisorError::Layout(e)
    }
}
impl From<SearchError> for AdvisorError {
    fn from(e: SearchError) -> Self {
        AdvisorError::Search(e)
    }
}

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Recommended layout.
    pub layout: Layout,
    /// The FULL STRIPING baseline layout over the same disks.
    pub full_striping: Layout,
    /// Estimated workload I/O response time under the recommendation (ms).
    pub recommended_cost_ms: f64,
    /// Estimated workload I/O response time under full striping (ms).
    pub full_striping_cost_ms: f64,
    /// `100 · (fs − rec) / fs` — the headline number of Figure 10.
    pub estimated_improvement_pct: f64,
    /// The workload's access graph (diagnostics / visualization).
    pub access_graph: Graph,
    /// The execution plans the advice was computed from, with weights —
    /// reusable for simulation or re-costing.
    pub plans: Vec<(PhysicalPlan, f64)>,
    /// Search statistics.
    pub search: SearchStats,
    /// This recommendation's deterministic work counts: the search's, the
    /// FULL STRIPING costing, and the access-graph folds when the advisor
    /// built the graph. Each is also in the process registry; no other
    /// call's counts are in here.
    pub work: CounterSnapshot,
}

/// Search statistics carried out of TS-GREEDY.
#[derive(Debug, Clone, Copy)]
pub struct SearchStats {
    /// Greedy iterations adopted.
    pub iterations: usize,
    /// Cost-model invocations.
    pub cost_evaluations: usize,
    /// Cost of the step-1 (partition-only) layout.
    pub step1_cost_ms: f64,
}

/// The layout advisor bound to a database and a drive set.
pub struct Advisor<'a> {
    catalog: &'a Catalog,
    disks: &'a [DiskSpec],
}

impl<'a> Advisor<'a> {
    /// Binds the advisor to a catalog and disk set.
    pub fn new(catalog: &'a Catalog, disks: &'a [DiskSpec]) -> Self {
        Self { catalog, disks }
    }

    /// Plans every statement ("Analyze Workload" requires only the
    /// optimizer's plan, never execution — paper §4.2).
    pub fn plan_workload(
        &self,
        workload: &[(Statement, f64)],
    ) -> Result<Vec<(PhysicalPlan, f64)>, AdvisorError> {
        workload
            .iter()
            .map(|(stmt, w)| Ok((plan_statement(self.catalog, stmt)?, *w)))
            .collect()
    }

    /// Full recommendation from pre-parsed weighted statements.
    pub fn recommend(
        &self,
        workload: &[(Statement, f64)],
        cfg: &AdvisorConfig,
    ) -> Result<Recommendation, AdvisorError> {
        if workload.is_empty() {
            return Err(AdvisorError::EmptyWorkload);
        }
        let plans = {
            let _phase = cfg.prof.phase("analyze");
            self.plan_workload(workload)?
        };
        self.recommend_from_plans(plans, cfg)
    }

    /// Full recommendation from a workload file (see
    /// [`dblayout_sql::parse_workload_file`] for the format).
    pub fn recommend_sql(
        &self,
        workload_text: &str,
        cfg: &AdvisorConfig,
    ) -> Result<Recommendation, AdvisorError> {
        let entries = parse_workload_file(workload_text)?;
        let workload: Vec<(Statement, f64)> = entries
            .into_iter()
            .map(|e| (e.statement, e.weight))
            .collect();
        self.recommend(&workload, cfg)
    }

    /// Recommendation from already-planned statements (lets experiments
    /// reuse one set of plans across many advisor runs).
    pub fn recommend_from_plans(
        &self,
        plans: Vec<(PhysicalPlan, f64)>,
        cfg: &AdvisorConfig,
    ) -> Result<Recommendation, AdvisorError> {
        if plans.is_empty() {
            return Err(AdvisorError::EmptyWorkload);
        }
        let n_objects = self.catalog.objects().len();
        // The search collector also witnesses the Analyze-Workload pass, so
        // one `dblayout explain` trace covers the whole Figure-3 pipeline.
        let mut graph = dblayout_partition::Graph::new(n_objects);
        let graph_work = {
            let _phase = cfg.prof.phase("build-graph");
            extend_access_graph_traced(&mut graph, &plans, &cfg.search.collector)
        };
        let workload = {
            let _phase = cfg.prof.phase("analyze");
            decompose_workload(&plans)
        };
        let mut rec = self.recommend_prepared(plans, graph, &workload, cfg)?;
        rec.work.merge(&graph_work);
        Ok(rec)
    }

    /// Recommendation from a pre-built access graph and pre-decomposed
    /// sub-plan workload (lets a long-lived service maintain both
    /// incrementally and skip the per-request *Analyze Workload* pass).
    ///
    /// `graph` and `workload` must correspond to `plans` — i.e. be what
    /// [`build_access_graph`](crate::build_access_graph) /
    /// [`decompose_workload`] would produce from
    /// them — or the costs reported will not match the layout searched.
    pub fn recommend_prepared(
        &self,
        plans: Vec<(PhysicalPlan, f64)>,
        graph: Graph,
        workload: &[(Vec<Subplan>, f64)],
        cfg: &AdvisorConfig,
    ) -> Result<Recommendation, AdvisorError> {
        if plans.is_empty() {
            return Err(AdvisorError::EmptyWorkload);
        }
        let sizes: Vec<u64> = self
            .catalog
            .objects()
            .iter()
            .map(|o| o.size_blocks)
            .collect();

        let TsGreedyResult {
            layout,
            initial_cost,
            final_cost,
            iterations,
            cost_evaluations,
            mut work,
            ..
        } = {
            let _phase = cfg.prof.phase("search");
            ts_greedy(&sizes, &graph, workload, self.disks, &cfg.search)?
        };

        let model: &CostModel = &cfg.search.cost_model;
        let _phase = cfg.prof.phase("cost");
        let full_striping = Layout::full_striping(sizes, self.disks);
        full_striping.validate(self.disks)?;
        work.add(Counter::CostmodelFullRecosts, 1);
        let fs_cost = model.workload_cost_subplans(workload, &full_striping, self.disks);

        // Never recommend worse than the trivial baseline: when the search
        // plateaus above FULL STRIPING (possible only under tight
        // constraints), fall back to it if it satisfies the constraints.
        let (layout, rec_cost) = if final_cost > fs_cost
            && cfg
                .search
                .constraints
                .check(&full_striping, self.disks)
                .is_ok()
        {
            (full_striping.clone(), fs_cost)
        } else {
            (layout, final_cost)
        };

        let improvement = if fs_cost > 0.0 {
            100.0 * (fs_cost - rec_cost) / fs_cost
        } else {
            0.0
        };

        Ok(Recommendation {
            layout,
            full_striping,
            recommended_cost_ms: rec_cost,
            full_striping_cost_ms: fs_cost,
            estimated_improvement_pct: improvement,
            access_graph: graph,
            plans,
            search: SearchStats {
                iterations,
                cost_evaluations,
                step1_cost_ms: initial_cost,
            },
            work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::tpch::tpch_catalog;
    use dblayout_disksim::{paper_disks, uniform_disks};

    #[test]
    fn merge_join_workload_improves_over_full_striping() {
        let catalog = tpch_catalog(0.1);
        let disks = paper_disks();
        let advisor = Advisor::new(&catalog, &disks);
        let rec = advisor
            .recommend_sql(
                "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;",
                &AdvisorConfig::default(),
            )
            .unwrap();
        assert!(
            rec.estimated_improvement_pct > 10.0,
            "got {}",
            rec.estimated_improvement_pct
        );
        // lineitem and orders on disjoint disks.
        let li = catalog.object_id("lineitem").unwrap().index();
        let or = catalog.object_id("orders").unwrap().index();
        let dl = rec.layout.disks_of(li);
        let dor = rec.layout.disks_of(or);
        assert!(dl.iter().all(|j| !dor.contains(j)), "{dl:?} vs {dor:?}");
        rec.layout.validate(&disks).unwrap();
    }

    #[test]
    fn single_scan_workload_matches_full_striping() {
        let catalog = tpch_catalog(0.1);
        let disks = uniform_disks(4, 200_000, 10.0, 20.0);
        let advisor = Advisor::new(&catalog, &disks);
        let rec = advisor
            .recommend_sql("SELECT COUNT(*) FROM lineitem;", &AdvisorConfig::default())
            .unwrap();
        assert!(
            rec.estimated_improvement_pct.abs() < 1.0,
            "got {}",
            rec.estimated_improvement_pct
        );
    }

    #[test]
    fn weighted_statements_shift_recommendation() {
        let catalog = tpch_catalog(0.1);
        let disks = paper_disks();
        let advisor = Advisor::new(&catalog, &disks);
        // The join dominates via weight, so separation should win even with
        // a competing scan-heavy statement.
        let rec = advisor
            .recommend_sql(
                "-- weight: 50\n\
                 SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;\n\
                 SELECT COUNT(*) FROM lineitem;",
                &AdvisorConfig::default(),
            )
            .unwrap();
        assert!(rec.estimated_improvement_pct > 0.0);
    }

    #[test]
    fn empty_workload_rejected() {
        let catalog = tpch_catalog(0.01);
        let disks = paper_disks();
        let advisor = Advisor::new(&catalog, &disks);
        assert!(matches!(
            advisor.recommend_sql("", &AdvisorConfig::default()),
            Err(AdvisorError::EmptyWorkload)
        ));
    }

    #[test]
    fn parse_error_propagates() {
        let catalog = tpch_catalog(0.01);
        let disks = paper_disks();
        let advisor = Advisor::new(&catalog, &disks);
        assert!(matches!(
            advisor.recommend_sql("SELEC oops;", &AdvisorConfig::default()),
            Err(AdvisorError::Parse(_))
        ));
    }

    #[test]
    fn plan_error_propagates() {
        let catalog = tpch_catalog(0.01);
        let disks = paper_disks();
        let advisor = Advisor::new(&catalog, &disks);
        assert!(matches!(
            advisor.recommend_sql("SELECT * FROM no_such_table;", &AdvisorConfig::default()),
            Err(AdvisorError::Plan(_))
        ));
    }

    #[test]
    fn recommendation_tallies_its_own_work() {
        let catalog = tpch_catalog(0.1);
        let disks = paper_disks();
        let rec = Advisor::new(&catalog, &disks)
            .recommend_sql(
                "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;",
                &AdvisorConfig::default(),
            )
            .unwrap();
        let work = |c| rec.work.get(c);
        // The search's ledger build, then the FULL STRIPING baseline.
        assert_eq!(work(Counter::CostmodelFullRecosts), 2);
        let evals = work(Counter::CostmodelFullRecosts) + work(Counter::CostmodelDeltaRecosts);
        assert_eq!(rec.search.cost_evaluations as u64 + 1, evals);
        let mut graph = Graph::new(catalog.objects().len());
        let folds = extend_access_graph_traced(&mut graph, &rec.plans, &Default::default());
        assert!(folds.get(Counter::GraphNodeUpdates) > 0);
        for c in [Counter::GraphNodeUpdates, Counter::GraphEdgeUpdates] {
            assert_eq!(work(c), folds.get(c));
        }
    }

    #[test]
    fn recommendation_exposes_reusable_plans() {
        let catalog = tpch_catalog(0.1);
        let disks = paper_disks();
        let advisor = Advisor::new(&catalog, &disks);
        let rec = advisor
            .recommend_sql(
                "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;",
                &AdvisorConfig::default(),
            )
            .unwrap();
        assert_eq!(rec.plans.len(), 1);
        assert!(rec.search.cost_evaluations > 0);
        assert!(rec.full_striping_cost_ms > 0.0);
    }
}
