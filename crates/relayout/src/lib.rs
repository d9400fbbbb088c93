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
// R9: no silently discarded errors (DESIGN.md §5).
#![deny(
    clippy::let_underscore_must_use,
    clippy::let_underscore_untyped,
    clippy::unused_result_ok
)]

//! `dblayout-relayout` — continuous relayout for a live advisor.
//!
//! The paper's advisor is one-shot: analyze a workload, recommend a layout,
//! done. A long-running system needs three more pieces, and this crate
//! supplies them (ROADMAP item 2; see DESIGN.md §9):
//!
//! * [`decay`] — **windowed access-graph maintenance**: epoch-bucketed,
//!   exponentially decayed node/edge weights so old observations fade while
//!   new statements keep folding in at full weight. Decay 1.0 is
//!   *bit-identical* to the plain accumulating
//!   [`extend_access_graph`](dblayout_core::extend_access_graph) path.
//! * [`drift`] — a **drift detector** comparing the decayed graph against
//!   the graph the deployed layout was advised on (normalized edge-weight
//!   distance + top-k co-access rank churn), firing a typed
//!   [`DriftReport`](drift::DriftReport).
//! * [`budget`] — **movement-budgeted advising**: "improve cost ≥ X% while
//!   moving ≤ Y MB", reusing the seeded TS-GREEDY search and the paper's
//!   §2.3.1 incremental data-movement constraint.
//! * [`planner`] — a **migration planner** turning (current, target) into
//!   an ordered sequence of per-object block moves with per-step free-space
//!   feasibility, pricing each step and every degraded intermediate layout
//!   through `dblayout-disksim`'s drive model.
//!
//! Everything here is deterministic at any thread count (the budgeted
//! search inherits the `dblayout-par` contract) and panic-free outside
//! tests (lint zone R1 covers this crate).

pub mod budget;
pub mod decay;
pub mod drift;
pub mod planner;

pub use budget::{recommend_budgeted, BudgetConfig, BudgetStrategy, BudgetedOutcome};
pub use decay::{advance_epoch, graph_bytes, DecayedGraph};
pub use drift::{detect_drift, DriftConfig, DriftReport};
pub use planner::{plan_migration, MigrationPlan, PlanError, PlanStep};
