#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7), plus the ablations called out in `DESIGN.md`.
//!
//! Each experiment lives in a module with a pure `run(...)` function
//! returning serializable rows; the `src/bin/*` binaries print the same
//! tables/series the paper reports and drop JSON next to the terminal
//! output. See `EXPERIMENTS.md` at the workspace root for paper-vs-measured
//! numbers.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 2 (estimated vs. actual improvement) | [`table2`] | `table2` |
//! | Cost-model ordering validation (82% claim) | [`costmodel_validation`] | `costmodel_validation` |
//! | Figure 10 (TS-GREEDY vs. FULL STRIPING)    | [`figure10`] | `figure10` |
//! | Figure 11 (running time vs. #disks)        | [`figure11`] | `figure11` |
//! | Figure 12 (running time vs. #objects)      | [`figure12`] | `figure12` |
//! | Ablations A1-A5                            | [`ablations`] | `ablation_*` |
//! | WK-SCALE(N) workload-size scaling          | [`wkscale_bench`] | `wkscale` |
//! | Concurrency extension (§2.2/§9)            | [`extension_concurrency`] | `extension_concurrency` |
//! | Sequential vs parallel search (dblayout-par) | [`search_bench`] | `search_bench` |
//! | Mega-scale differential bench (WK-MEGA)    | [`megascale`] | `megascale_bench` |
//!
//! [`observatory`] is not a paper artifact: it appends every
//! `search_bench`/server-bench run to the repo-root `BENCH_*.json`
//! histories and backs `dblayout benchdiff`'s regression gate. [`timer`]
//! is the fixed-iteration timer the `benches/` targets run on.

pub mod ablations;
pub mod common;
pub mod costmodel_validation;
pub mod extension_concurrency;
pub mod figure10;
pub mod figure11;
pub mod figure12;
pub mod megascale;
pub mod observatory;
pub mod search_bench;
pub mod table2;
pub mod timer;
pub mod wkscale_bench;

pub use common::{improvement_pct, plan_sql_workload, simulate_workload_ms, write_json};
