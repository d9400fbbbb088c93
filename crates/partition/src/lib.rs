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

//! Weighted-graph partitioning substrate.
//!
//! Step 1 of the paper's TS-GREEDY search (§6.2, Figure 9) partitions the
//! nodes of the *access graph* into `m` parts "so as to maximize the sum of
//! edge weights across partitions" — i.e. **max-cut** multiway partitioning:
//! objects that are heavily co-accessed should land in *different*
//! partitions (different disks). The paper uses the Kernighan–Lin heuristic
//! \[KL70\]; we provide:
//!
//! * [`Graph`] — an undirected weighted graph with node weights (total
//!   blocks accessed) and edge weights (co-accessed blocks);
//! * [`max_cut_partition`] — multiway partitioning: greedy seeding plus
//!   KL-style refinement passes with locking and best-prefix rollback;
//! * [`multilevel_max_cut`] — METIS-style multilevel scaling: deterministic
//!   heavy-edge matching and contraction ([`coarsen::coarsen`]), then
//!   coarsen → direct KL → uncoarsen-with-refinement, for mega-scale
//!   access graphs where the O(n²) direct search is the bottleneck
//!   (DESIGN.md §11).

pub mod coarsen;
mod graph;
mod kl;
mod multilevel;

pub use graph::Graph;
pub use kl::max_cut_partition;
pub use multilevel::multilevel_max_cut;
