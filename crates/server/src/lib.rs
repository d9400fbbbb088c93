#![warn(missing_docs)]
// R1: no panic shortcuts outside tests (DESIGN.md §5).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
// R9: no silently discarded errors (DESIGN.md §5).
#![deny(
    clippy::let_underscore_must_use,
    clippy::let_underscore_untyped,
    clippy::unused_result_ok
)]

//! `dblayout-server` — the layout advisor as a long-lived what-if service.
//!
//! The offline [`Advisor`](dblayout_core::Advisor) re-parses, re-plans, and
//! re-analyzes the whole workload on every invocation. Interactive what-if
//! tuning (paper §3: the advisor as a DBA's exploration tool) wants the
//! opposite shape: keep the catalog, the optimized plans, the decomposed
//! sub-plan workload, and the Figure-6 access graph **resident**, and answer
//! each "what if the layout were L?" or "what do you recommend now?" against
//! that warm state.
//!
//! This crate provides exactly that as a multi-threaded, std-only TCP
//! service speaking newline-delimited JSON ([`protocol`]):
//!
//! * [`engine`] — the transport-independent dispatcher over the resident
//!   state; drive it in-process (tests, benchmarks) or behind the server;
//! * [`server`] — one thread per connection up to a connection cap, a
//!   structured `busy` error past it, and graceful shutdown that finishes
//!   in-flight requests;
//! * [`session`] — the registry of open sessions (catalog + disks + plans +
//!   incrementally-extended access graph), the statement-set versioning
//!   that keys memoization, and the LRU layout-hash→cost cache;
//! * [`metrics`] — request/error/cache counters, per-stage (compute /
//!   serialize) latency histograms, and gauges, surfaced by the `stats` op
//!   and rendered as Prometheus text by the `metrics` op;
//!   per-request spans land in a bounded ring drained by the `trace` op;
//! * [`client`] — a small blocking client for tests, benches, and the CLI.
//!
//! Determinism is a design constraint, not an accident: responses serialize
//! with fixed key order, the incremental access graph accumulates in
//! arrival order (bit-identical to a batch rebuild), and TS-GREEDY is
//! deterministic — so N concurrent clients asking the same question get
//! byte-identical answers, equal to what the offline advisor prints.

pub mod client;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::Client;

// Every mutex acquisition recovers poisoning (rule R2, DESIGN.md §5).
pub(crate) use dblayout_obs::lock_unpoisoned;
pub use engine::{Engine, RuntimeInfo, TRACE_CAPACITY};
pub use metrics::{
    render_prometheus, Gauges, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot,
    StatsSnapshot,
};
pub use protocol::{
    parse_request, recommendation_result, resolve_disks, ApiError, LayoutSpec, Op, Request,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{layout_hash, CostCache, Session, SessionRegistry};
