#![warn(missing_docs)]
// R8: every truncating `as` carries a range argument (DESIGN.md §5).
#![deny(clippy::cast_possible_truncation)]
// R9: no silently discarded errors (DESIGN.md §5).
#![deny(
    clippy::let_underscore_must_use,
    clippy::let_underscore_untyped,
    clippy::unused_result_ok
)]

//! Query-optimizer substrate: SQL statements → physical execution plans.
//!
//! The ICDE 2003 layout advisor never executes the workload; it analyzes the
//! *execution plan* the query optimizer would produce in "no-execute"
//! (Showplan/EXPLAIN) mode (paper §4.2). This crate plays the role of the
//! SQL Server 2000 optimizer in the reproduction:
//!
//! * **Name resolution** of the parsed statement against a
//!   [`dblayout_catalog::Catalog`];
//! * **Selectivity and cardinality estimation** from column statistics
//!   ([`selectivity`]);
//! * **Access-path selection** — full scan, clustered range scan, or
//!   nonclustered index seek + RID lookup (the paper's Example 4);
//! * **Join ordering** via System-R-style dynamic programming over left-deep
//!   trees with sort-order tracking, so merge joins between tables clustered
//!   on their join keys (lineitem ⋈ orders) surface exactly as in the
//!   paper's measured plans ([`optimizer`]);
//! * **Physical operators with blocking classification** and the
//!   decomposition of a plan into *non-blocking sub-plans* by cutting at
//!   blocking operators (Sort, hash-build, hash aggregate) — the exact input
//!   Figure 6 needs ([`physical`]);
//! * **Block-access estimation** per object per sub-plan — `B(|R_i|, P)` in
//!   the paper's cost model — including random-I/O block-touch estimates via
//!   the Cardenas formula ([`access`]);
//! * a Showplan-style **EXPLAIN** renderer ([`explain`](mod@explain)).

pub mod access;
pub mod error;
pub mod explain;
pub mod optimizer;
pub mod physical;
pub mod selectivity;

pub use access::{AccessKind, ObjectAccess, Subplan};
pub use error::{PlanError, PlanResult};
pub use explain::explain;
pub use optimizer::{plan_statement, Optimizer};
pub use physical::{PhysicalPlan, PlanNode};
