#![warn(missing_docs)]
// R1: no panic shortcuts outside tests (DESIGN.md §5).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// R8: every truncating `as` carries a range argument (DESIGN.md §5).
#![deny(clippy::cast_possible_truncation)]

//! `dblayout-core` — the database layout advisor of *Automating Layout of
//! Relational Databases* (Agrawal, Chaudhuri, Das, Narasayya — ICDE 2003).
//!
//! Given a database (catalog + statistics), a weighted SQL workload, and a
//! set of disk drives, the advisor recommends a **database layout** — which
//! fraction of each object (table / index / materialized view) to place on
//! each drive — minimizing the estimated total I/O response time of the
//! workload, optionally under manageability and availability constraints.
//!
//! The crate mirrors the paper's architecture (Figure 3):
//!
//! * [`access_graph`] — *Analyze Workload*: build the weighted co-access
//!   graph from execution plans, cutting at blocking operators (Figure 6);
//! * [`costmodel`] — the analytic I/O response-time model balancing
//!   transfer parallelism against co-access seeks (Figure 7);
//! * [`tsgreedy`] — the two-step search: max-cut graph partitioning to
//!   separate co-accessed objects, then greedy parallelism widening
//!   (Figure 9, TS-GREEDY);
//! * [`exhaustive`] — brute-force enumeration for small instances (the
//!   quality yardstick the paper compares TS-GREEDY against);
//! * [`par`] — `dblayout-par`, the deterministic scoped-thread evaluation
//!   pool: candidates are scored in parallel but adopted in sequential
//!   candidate order, so results are byte-identical at any thread count;
//! * [`constraints`] — `Co-Located(R_i, R_k)`, `Avail-Requirement(R_i)`,
//!   and the incremental data-movement bound (§2.3);
//! * [`advisor`] — the end-to-end front-end: SQL text in, recommended
//!   layout + estimated improvement out.
//!
//! The FULL STRIPING baseline is [`Layout::full_striping`] (re-exported
//! from `dblayout-disksim`, which owns layout/disk types shared with the
//! execution oracle).
//!
//! # Quickstart
//!
//! ```
//! use dblayout_catalog::tpch::tpch_catalog;
//! use dblayout_core::advisor::{Advisor, AdvisorConfig};
//! use dblayout_disksim::paper_disks;
//!
//! let catalog = tpch_catalog(0.1);
//! let disks = paper_disks();
//! let workload = "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;";
//! let rec = Advisor::new(&catalog, &disks)
//!     .recommend_sql(workload, &AdvisorConfig::default())
//!     .unwrap();
//! assert!(rec.estimated_improvement_pct >= 0.0);
//! ```

pub mod access_graph;
pub mod advisor;
pub mod concurrency;
pub mod constraints;
pub mod costmodel;
pub mod deploy;
pub mod exhaustive;
pub mod explain;
pub mod par;
pub mod tsgreedy;

pub use access_graph::{
    build_access_graph, build_access_graph_subplans, extend_access_graph,
    extend_access_graph_traced,
};
pub use advisor::{Advisor, AdvisorConfig, AdvisorError, Recommendation};
pub use concurrency::{
    build_concurrent_access_graph, concurrent_cost_workload, ConcurrentWorkload,
};
pub use constraints::{ConstraintViolation, Constraints};
pub use costmodel::{CostModel, DeltaEvaluator, DriveTerm, EvalScratch, WideningTable};
pub use dblayout_disksim::{Layout, LayoutError};
pub use deploy::{compile_filegroups, render_script, DeploymentPlan, Filegroup};
pub use exhaustive::exhaustive_search;
pub use explain::{render_narrative, NarrativeNames};
pub use par::{available_parallelism, with_pool};
pub use tsgreedy::{ts_greedy, Partitioner, TsGreedyConfig, TsGreedyResult};
