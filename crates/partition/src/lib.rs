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
//! [KL70]; we provide:
//!
//! * [`Graph`] — an undirected weighted graph with node weights (total
//!   blocks accessed) and edge weights (co-accessed blocks);
//! * [`kl_bipartition`] — the classic two-way Kernighan–Lin pass structure,
//!   adapted to maximize the cut;
//! * [`max_cut_partition`] — multiway partitioning: greedy seeding plus
//!   KL-style refinement passes with locking and best-prefix rollback;
//! * [`exhaustive_max_cut`] — brute force for small instances, used to
//!   validate heuristic quality in tests and the A2 ablation;
//! * [`coarsen`] / [`multilevel`] — METIS-style multilevel scaling: deterministic
//!   heavy-edge matching and contraction ([`coarsen::coarsen`]), then
//!   coarsen → direct KL → uncoarsen-with-refinement
//!   ([`multilevel_max_cut`]) for mega-scale access graphs where the
//!   O(n²) direct search is the bottleneck (DESIGN.md §11).

pub mod coarsen;
pub mod graph;
pub mod kl;
pub mod multilevel;

pub use coarsen::{coarsen as coarsen_graph, heavy_edge_matching, Coarsening};
pub use graph::Graph;
pub use kl::{exhaustive_max_cut, greedy_seed, kl_bipartition, max_cut_partition};
pub use multilevel::{balance_pass, multilevel_max_cut, refine_max_cut};
