//! Transport-independent request execution: the session registry, the
//! what-if cost cache, and metrics, behind one [`Engine::execute`] entry
//! point. The TCP layer ([`crate::server`]) drives it per connection; tests
//! and benchmarks drive it in-process to measure dispatch without wire
//! overhead.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use dblayout_audit::{
    record_budgeted, record_recommendation, replay, AuditError, DecisionLog, DecisionRecord,
    RecordInputs, ReplayConfig,
};
use dblayout_catalog::resolve_catalog;
use dblayout_core::advisor::{Advisor, AdvisorConfig, AdvisorError};
use dblayout_core::costmodel::CostModel;
use dblayout_core::tsgreedy::TsGreedyConfig;
use dblayout_disksim::Layout;
use dblayout_obs::counters::{self, Counter};
use dblayout_obs::prof::{PhaseRow, PhaseTimer};
use dblayout_obs::{Collector, RingSink};
use dblayout_relayout::{
    detect_drift, plan_migration, recommend_budgeted, BudgetConfig, DriftConfig, PlanError,
};
use serde::Serialize;
use serde_json::Value;

use crate::metrics::{render_prometheus, Gauges, Metrics};
use crate::protocol::{obj, recommendation_result, resolve_disks, ApiError, LayoutSpec, Request};
use crate::session::{layout_hash, CostCache, Session, SessionRegistry};

/// Capacity of the engine's bounded trace ring buffer (records, not
/// requests; each served request emits two span records).
pub const TRACE_CAPACITY: usize = 4096;

/// Transport-side gauges folded into `stats` and `metrics` responses (zero
/// when driving the engine in-process).
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeInfo {
    /// Connections the transport is serving.
    pub connections_open: u64,
}

/// The resident advisory state and its request dispatcher.
pub struct Engine {
    registry: Mutex<SessionRegistry>,
    cache: Mutex<CostCache>,
    /// Request/error/cache/latency counters (shared with the transport).
    pub metrics: Metrics,
    trace: Arc<RingSink>,
    /// Always-on collector feeding the bounded trace ring; the transport
    /// opens one `server.request` span per request through it. The ring
    /// drops oldest records at capacity, so tracing never grows memory.
    pub collector: Collector,
    /// Always-on wall-clock phase profile (`dblayout-prof`): analyze /
    /// build-graph / search / cost / migrate / replay accumulate here
    /// across requests; the `profile` op reads it. A
    /// recommendation times its phases on a timer of its own, records
    /// them, and then folds them in here.
    pub prof: PhaseTimer,
    /// Decision-record log (`dblayout-audit`): when enabled, every
    /// `recommend`/`recommend_budgeted` appends one replayable
    /// provenance record and the `audit_list`/`audit_get` ops read them
    /// back. `None` (the default) keeps recording off and answers the
    /// audit ops with `audit_disabled`.
    audit: Option<Mutex<DecisionLog>>,
}

impl Engine {
    /// An engine bounded to `session_capacity` open sessions and
    /// `cache_capacity` memoized costs, with a trace ring of
    /// [`TRACE_CAPACITY`] records.
    pub fn new(session_capacity: usize, cache_capacity: usize) -> Self {
        let trace = Arc::new(RingSink::new(TRACE_CAPACITY));
        Self {
            registry: Mutex::new(SessionRegistry::new(session_capacity)),
            cache: Mutex::new(CostCache::new(cache_capacity)),
            metrics: Metrics::default(),
            collector: Collector::new(trace.clone()),
            trace,
            prof: PhaseTimer::new(),
            audit: None,
        }
    }

    /// Enables decision recording into a [`DecisionLog`] rooted at `dir`
    /// (created when missing). Once on, every recommendation op appends a
    /// record and tags its response with the assigned `decision_id`.
    pub fn enable_audit(&mut self, dir: impl AsRef<std::path::Path>) -> Result<(), AuditError> {
        let log = DecisionLog::open(dir)?;
        self.audit = Some(Mutex::new(log));
        Ok(())
    }

    /// Appends a freshly built record to the decision log. Only called on
    /// paths that already checked `self.audit.is_some()`.
    fn append_record(&self, mut record: DecisionRecord) -> Result<u64, ApiError> {
        let log = self.audit.as_ref().ok_or_else(audit_disabled)?;
        crate::lock_unpoisoned(log)
            .append(&mut record)
            .map_err(audit_api_error)
    }

    /// Runs `f` on a phase timer of its own and folds the rows it timed
    /// into the lifetime profile; returns `f`'s value and those rows.
    fn timed<T>(&self, f: impl FnOnce(&PhaseTimer) -> T) -> (T, Vec<PhaseRow>) {
        let prof = PhaseTimer::new();
        let value = f(&prof);
        let rows = prof.rows();
        self.prof.merge(&rows);
        (value, rows)
    }

    /// Samples the engine-owned gauges, folding in the transport-owned
    /// connection count.
    fn gauges(&self, runtime: &RuntimeInfo) -> Gauges {
        Gauges {
            connections_open: runtime.connections_open,
            sessions_open: crate::lock_unpoisoned(&self.registry).len() as u64,
            cache_entries: crate::lock_unpoisoned(&self.cache).len() as u64,
        }
    }

    /// Executes one request against the resident state. Every match in
    /// here names its variants, so a new request or error variant fails to
    /// compile (or to pass clippy) until it is handled.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn execute(&self, request: Request, runtime: &RuntimeInfo) -> Result<Value, ApiError> {
        match request {
            Request::OpenSession {
                catalog,
                disks,
                threads,
                decay,
            } => {
                let resolved_catalog = resolve_catalog(&catalog).map_err(ApiError::bad_request)?;
                let resolved_disks = resolve_disks(&disks)?;
                let objects = resolved_catalog.objects().len() as u64;
                let n_disks = resolved_disks.len() as u64;
                let mut session =
                    Session::with_relayout(resolved_catalog, resolved_disks, threads, decay);
                // Keep the raw spec strings: decision records must name the
                // inputs as the caller supplied them so a replay can
                // re-resolve from the record alone.
                session.catalog_spec = catalog;
                session.disks_spec = disks;
                let id = crate::lock_unpoisoned(&self.registry).open(session)?;
                Ok(obj(vec![
                    ("session", Value::U64(id)),
                    ("objects", Value::U64(objects)),
                    ("disks", Value::U64(n_disks)),
                    ("threads", Value::U64(threads.max(1) as u64)),
                    ("decay", Value::F64(decay)),
                ]))
            }
            Request::AddStatements { session, sql } => {
                let handle = crate::lock_unpoisoned(&self.registry).get(session)?;
                let mut s = crate::lock_unpoisoned(&handle);
                let added = s.add_statements_profiled(&sql, &self.prof)? as u64;
                let result = obj(vec![
                    ("added", Value::U64(added)),
                    ("statements", Value::U64(s.plans.len() as u64)),
                    ("version", Value::U64(s.version)),
                ]);
                drop(s);
                // Entries for older versions can never be read again; drop
                // them rather than waiting for LRU churn.
                crate::lock_unpoisoned(&self.cache).invalidate_session(session);
                Ok(result)
            }
            Request::WhatifCost {
                session,
                layout,
                no_cache,
            } => {
                let handle = crate::lock_unpoisoned(&self.registry).get(session)?;
                let s = crate::lock_unpoisoned(&handle);
                let owned;
                let (layout, lhash): (&Layout, u64) = match &layout {
                    LayoutSpec::FullStriping => (s.full_striping(), s.full_striping_hash()),
                    LayoutSpec::Fractions(fractions) => {
                        owned = s.layout_from_fractions(fractions)?;
                        let h = layout_hash(&owned);
                        (&owned, h)
                    }
                };
                let key = (session, s.version, lhash);
                let mut cached = false;
                let cost = if no_cache {
                    None
                } else {
                    crate::lock_unpoisoned(&self.cache).get(key)
                };
                let cost_ms = match cost {
                    Some(c) => {
                        self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                        counters::incr(Counter::ServerCacheHits);
                        cached = true;
                        c
                    }
                    None => {
                        if !no_cache {
                            self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                            counters::incr(Counter::ServerCacheMisses);
                        }
                        let _phase = self.prof.phase("cost");
                        counters::incr(Counter::CostmodelFullRecosts);
                        let c = CostModel::default().workload_cost_subplans(
                            &s.workload,
                            layout,
                            &s.disks,
                        );
                        if !no_cache {
                            crate::lock_unpoisoned(&self.cache).insert(key, c);
                        }
                        c
                    }
                };
                Ok(obj(vec![
                    ("cost_ms", Value::F64(cost_ms)),
                    ("cached", Value::Bool(cached)),
                    ("version", Value::U64(s.version)),
                ]))
            }
            Request::Recommend { session, k } => {
                let handle = crate::lock_unpoisoned(&self.registry).get(session)?;
                let mut s = crate::lock_unpoisoned(&handle);
                let (rec, phases) = self.timed(|prof| {
                    let cfg = AdvisorConfig {
                        search: TsGreedyConfig {
                            k,
                            threads: s.threads,
                            ..Default::default()
                        },
                        prof: prof.clone(),
                    };
                    Advisor::new(&s.catalog, &s.disks).recommend_prepared(
                        s.plans.clone(),
                        s.graph.clone(),
                        &s.workload,
                        &cfg,
                    )
                });
                let rec = rec.map_err(|e| match e {
                    AdvisorError::EmptyWorkload => {
                        ApiError::new("empty_workload", "session has no statements yet")
                    }
                    AdvisorError::Parse(_)
                    | AdvisorError::Plan(_)
                    | AdvisorError::Layout(_)
                    | AdvisorError::Search(_) => ApiError::new("search_error", e.to_string()),
                })?;
                let mut result = recommendation_result(&s.catalog, &s.disks, &rec);
                if self.audit.is_some() {
                    let record = record_recommendation(
                        &RecordInputs {
                            source: "server.recommend",
                            catalog_spec: &s.catalog_spec,
                            workload_sql: &s.sql_text,
                            constraints_text: None,
                            disks: &s.disks,
                            k,
                            threads: s.threads,
                            ts_unix_ms: now_unix_ms(),
                        },
                        &rec,
                        &phases,
                        &rec.work,
                    );
                    let id = self.append_record(record)?;
                    s.last_decision = Some(id);
                    if let Value::Map(pairs) = &mut result {
                        pairs.push(("decision_id".to_string(), Value::U64(id)));
                    }
                }
                Ok(result)
            }
            Request::Drift {
                session,
                top_k,
                distance_threshold,
                churn_threshold,
            } => {
                let handle = crate::lock_unpoisoned(&self.registry).get(session)?;
                let s = crate::lock_unpoisoned(&handle);
                let defaults = DriftConfig::default();
                let cfg = DriftConfig {
                    top_k: top_k.unwrap_or(defaults.top_k),
                    distance_threshold: distance_threshold.unwrap_or(defaults.distance_threshold),
                    churn_threshold: churn_threshold.unwrap_or(defaults.churn_threshold),
                };
                let mut report = detect_drift(&s.graph, &s.advised_graph, &cfg);
                // Provenance: tie the report to the decision whose advised
                // graph it drifted from (absent when nothing was recorded).
                report.decision_id = s.last_decision;
                let mut pairs = vec![
                    ("epoch".to_string(), Value::U64(s.epoch)),
                    ("version".to_string(), Value::U64(s.version)),
                    ("decay".to_string(), Value::F64(s.decay)),
                ];
                if let Value::Map(report_pairs) = report.to_json() {
                    pairs.extend(report_pairs);
                }
                Ok(Value::Map(pairs))
            }
            Request::RecommendBudgeted {
                session,
                k,
                budget_mb,
                min_improvement_pct,
            } => {
                let handle = crate::lock_unpoisoned(&self.registry).get(session)?;
                let mut s = crate::lock_unpoisoned(&handle);
                if s.workload.is_empty() {
                    return Err(ApiError::new(
                        "empty_workload",
                        "session has no statements yet",
                    ));
                }
                let cfg = BudgetConfig {
                    budget_blocks: budget_mb.map(mb_to_blocks),
                    min_improvement_pct,
                    search: TsGreedyConfig {
                        k,
                        threads: s.threads,
                        ..Default::default()
                    },
                };
                let sizes = s.object_sizes();
                let (outcome, phases) = self.timed(|prof| {
                    let _phase = prof.phase("search");
                    recommend_budgeted(&sizes, &s.graph, &s.workload, &s.disks, &s.deployed, &cfg)
                });
                let outcome = outcome.map_err(|e| ApiError::new("search_error", e.to_string()))?;
                let decision_id = if self.audit.is_some() {
                    let record = record_budgeted(
                        &RecordInputs {
                            source: "server.recommend_budgeted",
                            catalog_spec: &s.catalog_spec,
                            workload_sql: &s.sql_text,
                            constraints_text: None,
                            disks: &s.disks,
                            k,
                            threads: s.threads,
                            ts_unix_ms: now_unix_ms(),
                        },
                        &outcome,
                        &s.deployed,
                        &s.graph,
                        &s.workload,
                        min_improvement_pct,
                        &phases,
                        &outcome.work,
                    );
                    Some(self.append_record(record)?)
                } else {
                    None
                };
                // The recommendation becomes the implicit migration target,
                // and the advised-graph snapshot resets to now.
                s.last_target = Some(outcome.layout.clone());
                s.advised_graph = s.graph.clone();
                if let Some(id) = decision_id {
                    s.last_decision = Some(id);
                }
                let mut pairs = Vec::new();
                if let Value::Map(outcome_pairs) = outcome.to_json() {
                    pairs.extend(outcome_pairs);
                }
                pairs.push(("layout".to_string(), fraction_rows(&outcome.layout)));
                if let Some(id) = decision_id {
                    pairs.push(("decision_id".to_string(), Value::U64(id)));
                }
                Ok(Value::Map(pairs))
            }
            Request::PlanMigration {
                session,
                target,
                apply,
            } => {
                let handle = crate::lock_unpoisoned(&self.registry).get(session)?;
                let mut s = crate::lock_unpoisoned(&handle);
                let target_layout = match target {
                    Some(fractions) => s.layout_from_fractions(&fractions)?,
                    None => s.last_target.clone().ok_or_else(|| {
                        ApiError::new(
                            "no_target",
                            "no stored recommendation to migrate to; \
                             run recommend_budgeted first or pass `target`",
                        )
                    })?,
                };
                let mut plan = {
                    let _phase = self.prof.phase("migrate");
                    plan_migration(
                        &s.deployed,
                        &target_layout,
                        &s.disks,
                        &s.workload,
                        &CostModel::default(),
                    )
                    .map_err(|e| {
                        let code = match e {
                            PlanError::Stuck { .. } => "migration_stuck",
                            PlanError::Mismatch(_) | PlanError::InvalidEndpoint(_) => "bad_request",
                        };
                        ApiError::new(code, e.to_string())
                    })?
                };
                // Provenance: the plan migrates toward the last recorded
                // recommendation (absent when nothing was recorded).
                plan.decision_id = s.last_decision;
                if apply {
                    s.deployed = target_layout;
                    s.advised_graph = s.graph.clone();
                }
                let mut pairs = vec![("applied".to_string(), Value::Bool(apply))];
                if let Value::Map(plan_pairs) = plan.to_json() {
                    pairs.extend(plan_pairs);
                }
                Ok(Value::Map(pairs))
            }
            Request::Stats => {
                let m = self.metrics.stats_snapshot(self.gauges(runtime));
                let g = m.gauges;
                Ok(obj(vec![
                    ("requests_total", Value::U64(m.requests_total)),
                    ("errors_total", Value::U64(m.errors_total)),
                    ("connections_total", Value::U64(m.connections_total)),
                    ("rejected_total", Value::U64(m.rejected_total)),
                    ("sessions_open", Value::U64(g.sessions_open)),
                    ("cache_entries", Value::U64(g.cache_entries)),
                    ("cache_hits", Value::U64(m.cache_hits)),
                    ("cache_misses", Value::U64(m.cache_misses)),
                    ("cache_hit_rate", Value::F64(m.cache_hit_rate)),
                    ("connections_open", Value::U64(g.connections_open)),
                    ("latency_p50_us", Value::U64(m.latency.p50_us)),
                    ("latency_p99_us", Value::U64(m.latency.p99_us)),
                    ("latency_p999_us", Value::U64(m.latency.p999_us)),
                    ("stage_compute_p50_us", Value::U64(m.stage_compute.p50_us)),
                    ("stage_compute_p99_us", Value::U64(m.stage_compute.p99_us)),
                    (
                        "stage_serialize_p50_us",
                        Value::U64(m.stage_serialize.p50_us),
                    ),
                    (
                        "stage_serialize_p99_us",
                        Value::U64(m.stage_serialize.p99_us),
                    ),
                ]))
            }
            Request::Metrics => {
                let mut m = self.metrics.snapshot_with_gauges(self.gauges(runtime));
                // Trace loss is owned by the engine's ring, not the metric
                // counters; stamp it after the snapshot.
                m.trace_dropped_total = self.trace.dropped();
                Ok(obj(vec![("text", Value::Str(render_prometheus(&m)))]))
            }
            Request::Trace => {
                // One consistent snapshot-and-clear: records and the
                // dropped count come from a single cut (`RingSink::take`),
                // so a span written mid-drain is either fully in this
                // response or fully retained for the next one.
                let (records, dropped) = self.trace.take();
                let events: Vec<Value> = records.iter().map(|r| r.to_json()).collect();
                Ok(obj(vec![
                    ("events", Value::Seq(events)),
                    ("dropped", Value::U64(dropped)),
                ]))
            }
            Request::Profile => {
                let phases: Vec<Value> = self
                    .prof
                    .rows()
                    .into_iter()
                    .map(|r| {
                        obj(vec![
                            ("phase", Value::Str(r.name)),
                            ("calls", Value::U64(r.calls)),
                            ("total_us", Value::U64(r.total_us)),
                        ])
                    })
                    .collect();
                Ok(obj(vec![("phases", Value::Seq(phases))]))
            }
            Request::AuditList { limit } => {
                let log = self.audit.as_ref().ok_or_else(audit_disabled)?;
                let mut summaries = crate::lock_unpoisoned(log)
                    .list()
                    .map_err(audit_api_error)?;
                // `list` returns ascending ids; a limit keeps the most
                // recent N (the ones an operator asks about).
                if let Some(n) = limit {
                    let skip = summaries.len().saturating_sub(n);
                    summaries.drain(..skip);
                }
                Ok(obj(vec![
                    ("count", Value::U64(summaries.len() as u64)),
                    (
                        "decisions",
                        Value::Seq(summaries.iter().map(Serialize::to_content).collect()),
                    ),
                ]))
            }
            Request::AuditGet {
                id,
                replay: run_replay,
            } => {
                let log = self.audit.as_ref().ok_or_else(audit_disabled)?;
                let record = crate::lock_unpoisoned(log)
                    .get(id)
                    .map_err(audit_api_error)?;
                let mut pairs = vec![("record".to_string(), record.to_content())];
                if run_replay {
                    let report = {
                        let _phase = self.prof.phase("replay");
                        replay(&record, &ReplayConfig::default()).map_err(audit_api_error)?
                    };
                    self.metrics
                        .audit_replay_error_ppm
                        .observe_us(error_ppm(report.relative_error_pct));
                    pairs.push(("replay".to_string(), report.to_json()));
                }
                Ok(Value::Map(pairs))
            }
            Request::CloseSession { session } => {
                crate::lock_unpoisoned(&self.registry).close(session)?;
                crate::lock_unpoisoned(&self.cache).invalidate_session(session);
                Ok(obj(vec![("closed", Value::U64(session))]))
            }
        }
    }
}

/// Whole megabytes → 64 KB blocks (16 blocks per MB).
fn mb_to_blocks(mb: u64) -> u64 {
    mb.saturating_mul(1_048_576 / dblayout_catalog::BLOCK_BYTES)
}

/// Wall-clock milliseconds since the Unix epoch, `None` if the clock sits
/// before it (records stay replayable either way — the timestamp is
/// provenance, not an input to the search).
fn now_unix_ms() -> Option<u64> {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .and_then(|d| u64::try_from(d.as_millis()).ok())
}

/// A relative error percentage as parts-per-million for the replay-error
/// histogram (non-finite or negative readings saturate high so they show
/// up as outliers, not as zeros).
fn error_ppm(pct: f64) -> u64 {
    if pct.is_finite() && pct >= 0.0 {
        (pct * 10_000.0).round() as u64
    } else {
        crate::metrics::LAST_BUCKET_BOUND_US
    }
}

/// The audit ops' answer when the engine has no decision log attached.
fn audit_disabled() -> ApiError {
    ApiError::new(
        "audit_disabled",
        "decision recording is disabled; start the server with an audit directory",
    )
}

/// Maps decision-log failures onto wire error codes: a missing id is the
/// client's problem (`not_found`), everything else is the log's
/// (`audit_error`).
fn audit_api_error(e: AuditError) -> ApiError {
    match e {
        AuditError::NotFound(id) => {
            ApiError::new("not_found", format!("no decision record with id {id}"))
        }
        other => ApiError::new("audit_error", other.to_string()),
    }
}

/// A layout's full fraction matrix as an array of per-object rows.
fn fraction_rows(layout: &Layout) -> Value {
    Value::Seq(
        (0..layout.object_count())
            .map(|i| {
                Value::Seq(
                    layout
                        .fractions_of(i)
                        .iter()
                        .map(|&f| Value::F64(f))
                        .collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use serde_json::ValueExt;
    use std::time::Duration;

    fn exec(engine: &Engine, req: Request) -> Value {
        engine
            .execute(req, &RuntimeInfo::default())
            .expect("request succeeds")
    }

    #[test]
    fn in_process_session_roundtrip() {
        let engine = Engine::new(4, 16);
        let open = exec(
            &engine,
            Request::OpenSession {
                catalog: "tpch:0.01".into(),
                disks: "paper".into(),
                threads: 2,
                decay: 1.0,
            },
        );
        assert_eq!(open.get("threads").and_then(|v| v.as_u64()), Some(2));
        let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
        exec(
            &engine,
            Request::AddStatements {
                session: sid,
                sql: "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;".into(),
            },
        );
        let miss = exec(
            &engine,
            Request::WhatifCost {
                session: sid,
                layout: LayoutSpec::FullStriping,
                no_cache: false,
            },
        );
        assert_eq!(miss.get("cached").and_then(|v| v.as_bool()), Some(false));
        let hit = exec(
            &engine,
            Request::WhatifCost {
                session: sid,
                layout: LayoutSpec::FullStriping,
                no_cache: false,
            },
        );
        assert_eq!(hit.get("cached").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            hit.get("cost_ms").and_then(|v| v.as_f64()),
            miss.get("cost_ms").and_then(|v| v.as_f64())
        );
        let rec = exec(&engine, Request::Recommend { session: sid, k: 1 });
        assert!(
            rec.get("estimated_improvement_pct")
                .and_then(|v| v.as_f64())
                .unwrap()
                >= 0.0
        );
        exec(&engine, Request::CloseSession { session: sid });
        let stats = exec(&engine, Request::Stats);
        assert_eq!(stats.get("sessions_open").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn metrics_op_renders_prometheus_text() {
        let engine = Engine::new(4, 16);
        for _ in 0..7 {
            engine
                .metrics
                .observe_op_latency(Some(Op::Stats), Duration::from_micros(1));
        }
        let m = exec(&engine, Request::Metrics);
        let text = m.get("text").and_then(|v| v.as_str()).unwrap();
        assert!(text.contains("dblayout_requests_total 7\n"), "{text}");
        // In-process, no transport serves a connection.
        assert!(text.contains("dblayout_connections_open 0\n"), "{text}");
        assert!(text.contains("dblayout_stage_compute_us_count"), "{text}");
        // The trace-loss counter and the work-counter registry ride along
        // in the same exposition.
        assert!(text.contains("dblayout_trace_dropped_total 0\n"), "{text}");
        assert!(
            text.contains("# TYPE dblayout_server_cache_hits_total counter"),
            "{text}"
        );
    }

    #[test]
    fn profile_op_reports_engine_phases() {
        let engine = Engine::new(4, 16);
        let open = exec(
            &engine,
            Request::OpenSession {
                catalog: "tpch:0.01".into(),
                disks: "paper".into(),
                threads: 1,
                decay: 1.0,
            },
        );
        let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
        exec(
            &engine,
            Request::AddStatements {
                session: sid,
                sql: "SELECT COUNT(*) FROM lineitem;".into(),
            },
        );
        exec(
            &engine,
            Request::WhatifCost {
                session: sid,
                layout: LayoutSpec::FullStriping,
                no_cache: false,
            },
        );
        let p = exec(&engine, Request::Profile);
        let phases = p.get("phases").and_then(|v| v.as_array()).unwrap();
        let names: Vec<&str> = phases
            .iter()
            .filter_map(|row| row.get("phase").and_then(|v| v.as_str()))
            .collect();
        for expected in ["analyze", "build-graph", "cost"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        for row in phases {
            assert!(row.get("calls").and_then(|v| v.as_u64()).unwrap() >= 1);
            assert!(row.get("total_us").and_then(|v| v.as_u64()).is_some());
        }
    }

    #[test]
    fn trace_op_drains_the_ring() {
        use dblayout_obs::f;
        let engine = Engine::new(4, 16);
        let span = engine
            .collector
            .span("server.request", vec![f("op", "stats")]);
        span.end_with(vec![f("ok", true)]);
        let t = exec(&engine, Request::Trace);
        let events = t.get("events").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 2, "span start + end");
        assert_eq!(
            events[0].get("name").and_then(|v| v.as_str()),
            Some("server.request")
        );
        assert_eq!(t.get("dropped").and_then(|v| v.as_u64()), Some(0));
        // Draining empties the ring.
        let again = exec(&engine, Request::Trace);
        assert_eq!(
            again.get("events").and_then(|v| v.as_array()).map(Vec::len),
            Some(0)
        );
    }

    #[test]
    fn audit_ops_without_a_log_answer_audit_disabled() {
        let engine = Engine::new(4, 16);
        for req in [
            Request::AuditList { limit: None },
            Request::AuditGet {
                id: 1,
                replay: false,
            },
        ] {
            let err = engine.execute(req, &RuntimeInfo::default()).unwrap_err();
            assert_eq!(err.code, "audit_disabled");
        }
    }

    /// The audited round trip: recommend tags its response with a decision
    /// id, the record lists and fetches back, a server-side replay
    /// reproduces the layout bit-identically, and downstream drift/plan
    /// responses inherit the provenance id.
    #[test]
    fn audited_recommend_emits_a_replayable_record() {
        let dir =
            std::env::temp_dir().join(format!("dblayout_server_audit_{}", std::process::id()));
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "clears a leftover from an earlier run; usually there is none"
        )]
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = Engine::new(4, 16);
        engine.enable_audit(&dir).expect("open decision log");
        let open = exec(
            &engine,
            Request::OpenSession {
                catalog: "tpch:0.01".into(),
                disks: "paper".into(),
                threads: 2,
                decay: 1.0,
            },
        );
        let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
        exec(
            &engine,
            Request::AddStatements {
                session: sid,
                sql: "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;".into(),
            },
        );
        let rec = exec(&engine, Request::Recommend { session: sid, k: 2 });
        let id = rec
            .get("decision_id")
            .and_then(|v| v.as_u64())
            .expect("recommend tags its decision id");

        let list = exec(&engine, Request::AuditList { limit: Some(8) });
        assert_eq!(list.get("count").and_then(|v| v.as_u64()), Some(1));

        let got = exec(&engine, Request::AuditGet { id, replay: true });
        let record = got.get("record").expect("record present");
        assert_eq!(
            record.get("source").and_then(|v| v.as_str()),
            Some("server.recommend")
        );
        assert_eq!(
            record.get("catalog_spec").and_then(|v| v.as_str()),
            Some("tpch:0.01")
        );
        let report = got.get("replay").expect("replay report present");
        assert_eq!(
            report.get("layout_matches").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(report.get("passed").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(engine.metrics.audit_replay_error_ppm.snapshot().count, 1);

        // Budgeted recommendations record too, and drift/migration
        // responses carry the latest decision id.
        let budgeted = exec(
            &engine,
            Request::RecommendBudgeted {
                session: sid,
                k: 2,
                budget_mb: None,
                min_improvement_pct: 0.0,
            },
        );
        let bid = budgeted
            .get("decision_id")
            .and_then(|v| v.as_u64())
            .expect("budgeted recommend tags its decision id");
        assert!(bid > id, "ids are monotone: {id} then {bid}");
        let drift = exec(
            &engine,
            Request::Drift {
                session: sid,
                top_k: None,
                distance_threshold: None,
                churn_threshold: None,
            },
        );
        assert_eq!(drift.get("decision_id").and_then(|v| v.as_u64()), Some(bid));
        let plan = exec(
            &engine,
            Request::PlanMigration {
                session: sid,
                target: None,
                apply: false,
            },
        );
        assert_eq!(plan.get("decision_id").and_then(|v| v.as_u64()), Some(bid));

        let missing = engine
            .execute(
                Request::AuditGet {
                    id: 9_999,
                    replay: false,
                },
                &RuntimeInfo::default(),
            )
            .unwrap_err();
        assert_eq!(missing.code, "not_found");
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "best-effort cleanup of the test's scratch directory"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recommend_on_empty_session_is_structured() {
        let engine = Engine::new(4, 16);
        let open = exec(
            &engine,
            Request::OpenSession {
                catalog: "tpch:0.01".into(),
                disks: "paper".into(),
                threads: 1,
                decay: 1.0,
            },
        );
        let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
        let err = engine
            .execute(
                Request::Recommend { session: sid, k: 1 },
                &RuntimeInfo::default(),
            )
            .unwrap_err();
        assert_eq!(err.code, "empty_workload");
    }

    /// Each audited decision records its own work and nothing else, however
    /// many run at once: 8 sessions on TPC-H-22 recommend together, then
    /// re-advise under a budget together. Every record's counters equal a
    /// solo run's, and its phase rows are the phases that request ran, one
    /// call each, summing to no more than its own wall time.
    #[test]
    fn concurrent_audited_decisions_record_only_their_own_work() {
        const SESSIONS: usize = 8;
        let dir = std::env::temp_dir().join(format!(
            "dblayout_server_attribution_{}",
            std::process::id()
        ));
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "clears a leftover from an earlier run; usually there is none"
        )]
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = Engine::new(SESSIONS + 1, 16);
        engine.enable_audit(&dir).expect("open decision log");
        let sql: String = dblayout_workloads::tpch22::tpch22()
            .iter()
            .map(|q| format!("{};\n", q.trim().trim_end_matches(';')))
            .collect();
        let open = |engine: &Engine| {
            let open = exec(
                engine,
                Request::OpenSession {
                    catalog: "tpch:0.1".into(),
                    disks: "paper".into(),
                    threads: 1,
                    decay: 1.0,
                },
            );
            let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
            let sql = sql.clone();
            exec(engine, Request::AddStatements { session: sid, sql });
            sid
        };
        let record = |engine: &Engine, reply: &Value| {
            let id = reply.get("decision_id").and_then(|v| v.as_u64()).unwrap();
            let got = exec(engine, Request::AuditGet { id, replay: false });
            got.get("record")
                .and_then(|r| r.get("outcome"))
                .cloned()
                .unwrap()
        };
        let solo_session = open(&engine);
        let sessions: Vec<u64> = (0..SESSIONS).map(|_| open(&engine)).collect();
        for budgeted in [false, true] {
            let request = move |session| match budgeted {
                false => Request::Recommend { session, k: 1 },
                true => Request::RecommendBudgeted {
                    session,
                    k: 1,
                    budget_mb: None,
                    min_improvement_pct: 0.0,
                },
            };
            let phases: &[&str] = if budgeted {
                &["search"]
            } else {
                &["search", "cost"]
            };
            let solo = record(&engine, &exec(&engine, request(solo_session)));
            let barrier = std::sync::Barrier::new(SESSIONS);
            let replies: Vec<(Value, Duration)> = std::thread::scope(|scope| {
                let runs: Vec<_> = sessions
                    .iter()
                    .map(|&sid| {
                        let (engine, barrier) = (&engine, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            let t0 = std::time::Instant::now();
                            let reply = exec(engine, request(sid));
                            (reply, t0.elapsed())
                        })
                    })
                    .collect();
                runs.into_iter().map(|run| run.join().unwrap()).collect()
            });
            for (reply, wall) in &replies {
                let outcome = record(&engine, reply);
                assert_eq!(outcome.get("counters"), solo.get("counters"));
                let rows = outcome.get("phases").and_then(|v| v.as_array()).unwrap();
                let field = |row: &Value, key: &str| row.get(key).and_then(|v| v.as_u64());
                let calls: Vec<(&str, Option<u64>)> = rows
                    .iter()
                    .map(|row| {
                        (
                            row.get("name").and_then(|v| v.as_str()).unwrap(),
                            field(row, "calls"),
                        )
                    })
                    .collect();
                let want: Vec<(&str, Option<u64>)> = phases.iter().map(|&p| (p, Some(1))).collect();
                assert_eq!(calls, want);
                let total_us: u64 = rows.iter().filter_map(|row| field(row, "total_us")).sum();
                assert!(
                    u128::from(total_us) <= wall.as_micros(),
                    "phases sum to {total_us} us in a {wall:?} request"
                );
            }
        }
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "best-effort cleanup of the test's scratch directory"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }
}
