//! # dblayout-loadgen — deterministic, coordinated-omission-safe load
//!
//! A std-only load harness for the advisory server's newline-delimited
//! JSON protocol. Three properties drive the design (DESIGN.md §12):
//!
//! 1. **Deterministic schedules.** The op sequence is a pure function of
//!    `(seed, requests, weights)` — a seeded LCG in [`schedule`], a file
//!    in R6's determinism zone with no wall-clock input. Identical
//!    seeds give identical request mixes on every host, so the mix
//!    counters stamped into `BENCH_server.json` gate exactly.
//! 2. **Honest tails.** Open-loop mode fixes the arrival process and
//!    charges each request's latency from its *intended* send time, so a
//!    stalled server's queueing delay lands in the histogram instead of
//!    being coordinated away ([`driver`] module docs).
//! 3. **Bounded-error histograms.** Latencies are recorded into
//!    [`dblayout_obs::hist`] log-linear histograms — lock-free, mergeable,
//!    ≤12.5% relative error per bucket, property-tested in `obs`.
//!
//! The `dblayout loadtest` subcommand is the CLI front-end; the
//! loopback integration tests (`tests/loadtest_loopback.rs`) cover
//! determinism and the coordinated-omission contrast.

pub mod driver;
pub mod schedule;

pub use driver::{run_load, LoadConfig, LoadReport, Mode};
pub use schedule::{build_schedule, MixCounts, MixWeights, OpKind};
