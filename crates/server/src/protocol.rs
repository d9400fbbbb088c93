//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line; the server answers each with exactly one JSON line.
//! Every response is either `{"ok":true,"result":{...}}` or
//! `{"ok":false,"error":{"code":"...","message":"..."}}`. Keys are emitted
//! in a fixed order and the serializer is deterministic, so two servers (or
//! a server and the offline [`Advisor`](dblayout_core::Advisor)) producing
//! the same result produce **byte-identical** lines — the property the
//! loopback integration tests assert.
//!
//! Requests are dispatched on the `op` field, one of [`Op`]'s wire names.
//! DESIGN.md §2 ("The `dblayout-server` wire protocol") documents each
//! op's request and result fields; a unit test keeps its table in step
//! with [`Op`].

use dblayout_catalog::Catalog;
use dblayout_core::advisor::Recommendation;
use dblayout_disksim::DiskSpec;
use serde_json::{Value, ValueExt};

/// A structured protocol-level error (serialized under `"error"`).
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// Stable machine-readable code (`bad_request`, `unknown_session`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Shorthand constructor.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// A malformed or unparseable request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new("bad_request", message)
    }
}

/// How a what-if request names the layout to cost.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutSpec {
    /// The FULL STRIPING baseline over the session's disks.
    FullStriping,
    /// An explicit objects×disks fraction matrix.
    Fractions(Vec<Vec<f64>>),
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session against a named catalog and disk configuration.
    OpenSession {
        /// Catalog spec (`tpch:0.1`, `apb`, ...).
        catalog: String,
        /// Disk spec (`paper` or `uniform:<n>:<cap>:<seek>:<read>`).
        disks: String,
        /// Worker threads for this session's searches (dblayout-par).
        /// Results are byte-identical at any value; this only trades CPU
        /// for latency.
        threads: usize,
        /// Access-graph decay factor in `(0, 1]` (1.0 = no aging).
        decay: f64,
    },
    /// Append weighted statements to a session's resident workload.
    AddStatements {
        /// Target session id.
        session: u64,
        /// Statements in workload-file syntax (`-- weight: w` honored).
        sql: String,
    },
    /// Cost a candidate layout against the session's cached decomposition.
    WhatifCost {
        /// Target session id.
        session: u64,
        /// The layout to evaluate.
        layout: LayoutSpec,
        /// Bypass the cost cache (benchmarking the cold path).
        no_cache: bool,
    },
    /// Run the full TS-GREEDY search over the session's workload.
    Recommend {
        /// Target session id.
        session: u64,
        /// Greedy step width (paper's `k`).
        k: usize,
    },
    /// Compare the live (decayed) access graph against the snapshot the
    /// deployed layout was advised on (DESIGN.md §9).
    Drift {
        /// Target session id.
        session: u64,
        /// Heaviest-edge count for rank churn (default 10).
        top_k: Option<usize>,
        /// Edge-distance threshold in `[0, 1]` (default 0.25).
        distance_threshold: Option<f64>,
        /// Rank-churn threshold in `[0, 1]` (default 0.5).
        churn_threshold: Option<f64>,
    },
    /// Movement-budgeted advising seeded from the deployed layout:
    /// "improve cost, moving at most `budget_mb` megabytes".
    RecommendBudgeted {
        /// Target session id.
        session: u64,
        /// Greedy step width (paper's `k`).
        k: usize,
        /// Relocation budget in whole megabytes; `None` = unbounded.
        budget_mb: Option<u64>,
        /// Improvement (percent vs the deployed layout) the caller
        /// considers worthwhile; stamped into the outcome.
        min_improvement_pct: f64,
    },
    /// Sequence per-object block moves from the deployed layout to a
    /// target, with per-step feasibility and degraded-cost pricing.
    PlanMigration {
        /// Target session id.
        session: u64,
        /// Explicit target fraction matrix; `None` uses the session's last
        /// budgeted recommendation.
        target: Option<Vec<Vec<f64>>>,
        /// When true, a successful plan marks the target as deployed and
        /// re-snapshots the advised graph.
        apply: bool,
    },
    /// Summaries of retained decision records (dblayout-audit).
    AuditList {
        /// Most recent records to return; `None` returns every retained one.
        limit: Option<usize>,
    },
    /// One decision record, optionally replayed for verification.
    AuditGet {
        /// Decision id as assigned by the log.
        id: u64,
        /// When true, also re-derive the decision and report reproduction
        /// fidelity plus predicted-vs-simulated error.
        replay: bool,
    },
    /// Server metrics snapshot.
    Stats,
    /// Server metrics in Prometheus text exposition format.
    Metrics,
    /// Drain the server's bounded trace ring buffer.
    Trace,
    /// Aggregated wall-time attribution per engine phase (dblayout-prof).
    Profile,
    /// Drop a session and everything it holds resident.
    CloseSession {
        /// Target session id.
        session: u64,
    },
}

/// Declares the wire-op vocabulary from one table of variant and wire
/// name rows; [`Op`], its `COUNT`, `ALL`, [`Op::name`] and `from_name`
/// are generated from it.
macro_rules! ops {
    ($($variant:ident = $name:literal,)+) => {
        /// A request's wire `op`, without its fields: the label vocabulary
        /// shared by the per-op metrics and the server's request spans.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $(#[doc = concat!("`", $name, "`")] $variant,)+
        }

        impl Op {
            /// Number of ops.
            pub(crate) const COUNT: usize = [$(Op::$variant),+].len();

            /// Every op, in table order.
            pub(crate) const ALL: [Op; Op::COUNT] = [$(Op::$variant),+];

            /// The wire name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Op::$variant => $name,)+
                }
            }

            /// The op a wire name names, if any.
            pub(crate) fn from_name(name: &str) -> Option<Op> {
                match name {
                    $($name => Some(Op::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

ops! {
    OpenSession = "open_session",
    AddStatements = "add_statements",
    WhatifCost = "whatif_cost",
    Recommend = "recommend",
    Drift = "drift",
    RecommendBudgeted = "recommend_budgeted",
    PlanMigration = "plan_migration",
    AuditList = "audit_list",
    AuditGet = "audit_get",
    Stats = "stats",
    Metrics = "metrics",
    Trace = "trace",
    Profile = "profile",
    CloseSession = "close_session",
}

impl Request {
    /// This request's wire op.
    pub fn op(&self) -> Op {
        match self {
            Request::OpenSession { .. } => Op::OpenSession,
            Request::AddStatements { .. } => Op::AddStatements,
            Request::WhatifCost { .. } => Op::WhatifCost,
            Request::Recommend { .. } => Op::Recommend,
            Request::Drift { .. } => Op::Drift,
            Request::RecommendBudgeted { .. } => Op::RecommendBudgeted,
            Request::PlanMigration { .. } => Op::PlanMigration,
            Request::AuditList { .. } => Op::AuditList,
            Request::AuditGet { .. } => Op::AuditGet,
            Request::Stats => Op::Stats,
            Request::Metrics => Op::Metrics,
            Request::Trace => Op::Trace,
            Request::Profile => Op::Profile,
            Request::CloseSession { .. } => Op::CloseSession,
        }
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ApiError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| ApiError::new("parse_error", format!("invalid JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(ApiError::bad_request("request must be a JSON object"));
    }
    let name = value
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ApiError::bad_request("missing string field `op`"))?;
    let op =
        Op::from_name(name).ok_or_else(|| ApiError::bad_request(format!("unknown op `{name}`")))?;

    let session = |v: &Value| -> Result<u64, ApiError> {
        v.get("session")
            .and_then(|s| s.as_u64())
            .ok_or_else(|| ApiError::bad_request("missing integer field `session`"))
    };

    match op {
        Op::OpenSession => {
            let decay = match value.get("decay") {
                None => 1.0,
                Some(v) => {
                    let d = v.as_f64().ok_or_else(|| {
                        ApiError::bad_request("`decay` must be a number in (0, 1]")
                    })?;
                    if !(d > 0.0 && d <= 1.0) {
                        return Err(ApiError::bad_request(
                            "`decay` must be greater than 0 and at most 1",
                        ));
                    }
                    d
                }
            };
            let threads = match value.get("threads") {
                None => 1,
                Some(v) => {
                    let t = v.as_u64().ok_or_else(|| {
                        ApiError::bad_request("`threads` must be a positive integer")
                    })?;
                    if t == 0 {
                        return Err(ApiError::bad_request("`threads` must be at least 1"));
                    }
                    if t > 512 {
                        return Err(ApiError::bad_request("`threads` must be at most 512"));
                    }
                    t as usize
                }
            };
            Ok(Request::OpenSession {
                catalog: value
                    .get("catalog")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| ApiError::bad_request("open_session needs string `catalog`"))?
                    .to_string(),
                disks: value
                    .get("disks")
                    .and_then(|v| v.as_str())
                    .unwrap_or("paper")
                    .to_string(),
                threads,
                decay,
            })
        }
        Op::AddStatements => Ok(Request::AddStatements {
            session: session(&value)?,
            sql: value
                .get("sql")
                .and_then(|v| v.as_str())
                .ok_or_else(|| ApiError::bad_request("add_statements needs string `sql`"))?
                .to_string(),
        }),
        Op::WhatifCost => {
            let layout = match value.get("layout") {
                None => LayoutSpec::FullStriping,
                Some(v) if v.as_str() == Some("full_striping") => LayoutSpec::FullStriping,
                Some(v) => LayoutSpec::Fractions(fraction_matrix(
                    v,
                    "`layout` must be \"full_striping\" or an array of per-object fraction rows",
                )?),
            };
            Ok(Request::WhatifCost {
                session: session(&value)?,
                layout,
                no_cache: value
                    .get("no_cache")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false),
            })
        }
        Op::Recommend => {
            let k = match value.get("k") {
                None => 1,
                Some(v) => {
                    let k = v
                        .as_u64()
                        .ok_or_else(|| ApiError::bad_request("`k` must be a positive integer"))?;
                    if k == 0 {
                        return Err(ApiError::bad_request("`k` must be at least 1"));
                    }
                    k as usize
                }
            };
            Ok(Request::Recommend {
                session: session(&value)?,
                k,
            })
        }
        Op::Drift => {
            let opt_usize = |field: &str| -> Result<Option<usize>, ApiError> {
                match value.get(field) {
                    None => Ok(None),
                    Some(v) => v.as_u64().map(|u| Some(u as usize)).ok_or_else(|| {
                        ApiError::bad_request(format!("`{field}` must be a non-negative integer"))
                    }),
                }
            };
            let opt_unit = |field: &str| -> Result<Option<f64>, ApiError> {
                match value.get(field) {
                    None => Ok(None),
                    Some(v) => match v.as_f64() {
                        Some(x) if (0.0..=1.0).contains(&x) => Ok(Some(x)),
                        _ => Err(ApiError::bad_request(format!(
                            "`{field}` must be a number in [0, 1]"
                        ))),
                    },
                }
            };
            Ok(Request::Drift {
                session: session(&value)?,
                top_k: opt_usize("top_k")?,
                distance_threshold: opt_unit("distance_threshold")?,
                churn_threshold: opt_unit("churn_threshold")?,
            })
        }
        Op::RecommendBudgeted => {
            let k = match value.get("k") {
                None => 1,
                Some(v) => {
                    let k = v
                        .as_u64()
                        .ok_or_else(|| ApiError::bad_request("`k` must be a positive integer"))?;
                    if k == 0 {
                        return Err(ApiError::bad_request("`k` must be at least 1"));
                    }
                    k as usize
                }
            };
            let budget_mb = match value.get("budget_mb") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    ApiError::bad_request("`budget_mb` must be a non-negative integer")
                })?),
            };
            let min_improvement_pct = match value.get("min_improvement_pct") {
                None => 0.0,
                Some(v) => match v.as_f64() {
                    Some(x) if x.is_finite() && x >= 0.0 => x,
                    _ => {
                        return Err(ApiError::bad_request(
                            "`min_improvement_pct` must be a finite non-negative number",
                        ))
                    }
                },
            };
            Ok(Request::RecommendBudgeted {
                session: session(&value)?,
                k,
                budget_mb,
                min_improvement_pct,
            })
        }
        Op::PlanMigration => {
            let target = match value.get("target") {
                None => None,
                Some(v) => Some(fraction_matrix(
                    v,
                    "`target` must be an array of per-object fraction rows",
                )?),
            };
            Ok(Request::PlanMigration {
                session: session(&value)?,
                target,
                apply: value
                    .get("apply")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false),
            })
        }
        Op::AuditList => {
            let limit = match value.get("limit") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    ApiError::bad_request("`limit` must be a non-negative integer")
                })? as usize),
            };
            Ok(Request::AuditList { limit })
        }
        Op::AuditGet => Ok(Request::AuditGet {
            id: value
                .get("id")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| ApiError::bad_request("audit_get needs integer `id`"))?,
            replay: value
                .get("replay")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
        }),
        Op::Stats => Ok(Request::Stats),
        Op::Metrics => Ok(Request::Metrics),
        Op::Trace => Ok(Request::Trace),
        Op::Profile => Ok(Request::Profile),
        Op::CloseSession => Ok(Request::CloseSession {
            session: session(&value)?,
        }),
    }
}

/// Parses an objects×disks fraction matrix from a JSON array-of-arrays.
fn fraction_matrix(v: &Value, shape_msg: &str) -> Result<Vec<Vec<f64>>, ApiError> {
    let rows = v
        .as_array()
        .ok_or_else(|| ApiError::bad_request(shape_msg.to_string()))?;
    let mut fractions = Vec::with_capacity(rows.len());
    for row in rows {
        let cols = row
            .as_array()
            .ok_or_else(|| ApiError::bad_request("each layout row must be an array of numbers"))?;
        let mut out = Vec::with_capacity(cols.len());
        for c in cols {
            out.push(
                c.as_f64()
                    .ok_or_else(|| ApiError::bad_request("layout fractions must be numbers"))?,
            );
        }
        fractions.push(out);
    }
    Ok(fractions)
}

/// Builds a JSON object value with keys in the given order.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Serializes a success response line (no trailing newline).
pub fn ok_line(result: Value) -> String {
    let response = obj(vec![("ok", Value::Bool(true)), ("result", result)]);
    serde_json::to_string(&response).unwrap_or_else(|_| fallback_error_line())
}

/// Serializes an error response line (no trailing newline).
pub fn err_line(error: &ApiError) -> String {
    let response = obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", Value::Str(error.code.to_string())),
                ("message", Value::Str(error.message.clone())),
            ]),
        ),
    ]);
    serde_json::to_string(&response).unwrap_or_else(|_| fallback_error_line())
}

/// A hand-assembled error line for the (never observed) case where the
/// serializer itself fails — the client still gets a well-formed response
/// instead of a dropped connection.
fn fallback_error_line() -> String {
    "{\"ok\":false,\"error\":{\"code\":\"internal\",\"message\":\"response serialization failed\"}}"
        .to_string()
}

/// The `result` object of a `recommend` response. Exported so offline
/// clients of [`dblayout_core::Advisor`] can serialize their own
/// recommendation through the identical code path and compare bytes.
pub fn recommendation_result(catalog: &Catalog, disks: &[DiskSpec], rec: &Recommendation) -> Value {
    let objects: Vec<Value> = catalog
        .objects()
        .iter()
        .map(|meta| {
            let idx = meta.id.index();
            obj(vec![
                ("name", Value::Str(meta.name.clone())),
                (
                    "disks",
                    Value::Seq(
                        rec.layout
                            .disks_of(idx)
                            .iter()
                            .map(|&j| {
                                Value::Str(
                                    disks
                                        .get(j)
                                        .map_or_else(|| format!("disk{j}"), |d| d.name.clone()),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "fractions",
                    Value::Seq(
                        rec.layout
                            .fractions_of(idx)
                            .iter()
                            .map(|&f| Value::F64(f))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    obj(vec![
        (
            "estimated_improvement_pct",
            Value::F64(rec.estimated_improvement_pct),
        ),
        (
            "full_striping_cost_ms",
            Value::F64(rec.full_striping_cost_ms),
        ),
        ("recommended_cost_ms", Value::F64(rec.recommended_cost_ms)),
        ("iterations", Value::U64(rec.search.iterations as u64)),
        (
            "cost_evaluations",
            Value::U64(rec.search.cost_evaluations as u64),
        ),
        ("objects", Value::Seq(objects)),
    ])
}

/// Resolves a disk spec string: `paper` (the paper's 8-drive array) or
/// `uniform:<n>:<capacity_blocks>:<seek_ms>:<read_mb_s>`.
pub fn resolve_disks(spec: &str) -> Result<Vec<DiskSpec>, ApiError> {
    if spec == "paper" {
        return Ok(dblayout_disksim::paper_disks());
    }
    if let Some(rest) = spec.strip_prefix("uniform:") {
        let parts: Vec<&str> = rest.split(':').collect();
        let [n_part, cap_part, seek_part, read_part] = parts.as_slice() else {
            return Err(ApiError::bad_request(
                "uniform disks need `uniform:<n>:<capacity_blocks>:<seek_ms>:<read_mb_s>`",
            ));
        };
        let n: usize = n_part
            .parse()
            .map_err(|e| ApiError::bad_request(format!("bad disk count: {e}")))?;
        let cap: u64 = cap_part
            .parse()
            .map_err(|e| ApiError::bad_request(format!("bad capacity: {e}")))?;
        let seek: f64 = seek_part
            .parse()
            .map_err(|e| ApiError::bad_request(format!("bad seek: {e}")))?;
        let read: f64 = read_part
            .parse()
            .map_err(|e| ApiError::bad_request(format!("bad read rate: {e}")))?;
        if n == 0 {
            return Err(ApiError::bad_request("disk count must be at least 1"));
        }
        if cap == 0 {
            return Err(ApiError::bad_request("capacity must be at least 1 block"));
        }
        // Zero, negative, or non-finite rates would produce degenerate cost
        // weights downstream (and all-zero read rates panic layout placement).
        if !(seek.is_finite() && seek > 0.0) {
            return Err(ApiError::bad_request(
                "seek time must be a finite positive number of milliseconds",
            ));
        }
        if !(read.is_finite() && read > 0.0) {
            return Err(ApiError::bad_request(
                "read rate must be a finite positive number of MB/s",
            ));
        }
        return Ok(dblayout_disksim::uniform_disks(n, cap, seek, read));
    }
    Err(ApiError::bad_request(format!(
        "unknown disk spec `{spec}` (expected `paper` or `uniform:<n>:<cap>:<seek>:<read>`)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a valid line and checks that the request's op is the one
    /// the line names.
    fn parse_ok(line: &str) -> Request {
        let request = parse_request(line).unwrap();
        let wire: Value = serde_json::from_str(line).unwrap();
        assert_eq!(
            Some(request.op().name()),
            wire.get("op").and_then(|v| v.as_str())
        );
        request
    }

    #[test]
    fn parse_every_op() {
        assert_eq!(
            parse_ok(r#"{"op":"open_session","catalog":"tpch:0.1"}"#),
            Request::OpenSession {
                catalog: "tpch:0.1".into(),
                disks: "paper".into(),
                threads: 1,
                decay: 1.0
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"open_session","catalog":"apb","threads":4,"decay":0.75}"#),
            Request::OpenSession {
                catalog: "apb".into(),
                disks: "paper".into(),
                threads: 4,
                decay: 0.75
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"add_statements","session":3,"sql":"SELECT 1;"}"#),
            Request::AddStatements {
                session: 3,
                sql: "SELECT 1;".into()
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"whatif_cost","session":1,"layout":"full_striping"}"#),
            Request::WhatifCost {
                session: 1,
                layout: LayoutSpec::FullStriping,
                no_cache: false
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"whatif_cost","session":1,"layout":[[0.5,0.5]]}"#),
            Request::WhatifCost {
                session: 1,
                layout: LayoutSpec::Fractions(vec![vec![0.5, 0.5]]),
                no_cache: false
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"recommend","session":2,"k":2}"#),
            Request::Recommend { session: 2, k: 2 }
        );
        assert_eq!(
            parse_ok(r#"{"op":"drift","session":1}"#),
            Request::Drift {
                session: 1,
                top_k: None,
                distance_threshold: None,
                churn_threshold: None
            }
        );
        assert_eq!(
            parse_ok(
                r#"{"op":"drift","session":1,"top_k":5,"distance_threshold":0.1,"churn_threshold":0.9}"#
            ),
            Request::Drift {
                session: 1,
                top_k: Some(5),
                distance_threshold: Some(0.1),
                churn_threshold: Some(0.9)
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"recommend_budgeted","session":2}"#),
            Request::RecommendBudgeted {
                session: 2,
                k: 1,
                budget_mb: None,
                min_improvement_pct: 0.0
            }
        );
        assert_eq!(
            parse_ok(
                r#"{"op":"recommend_budgeted","session":2,"k":2,"budget_mb":64,"min_improvement_pct":5}"#
            ),
            Request::RecommendBudgeted {
                session: 2,
                k: 2,
                budget_mb: Some(64),
                min_improvement_pct: 5.0
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"plan_migration","session":3}"#),
            Request::PlanMigration {
                session: 3,
                target: None,
                apply: false
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"plan_migration","session":3,"target":[[1.0,0.0]],"apply":true}"#),
            Request::PlanMigration {
                session: 3,
                target: Some(vec![vec![1.0, 0.0]]),
                apply: true
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"audit_list"}"#),
            Request::AuditList { limit: None }
        );
        assert_eq!(
            parse_ok(r#"{"op":"audit_list","limit":5}"#),
            Request::AuditList { limit: Some(5) }
        );
        assert_eq!(
            parse_ok(r#"{"op":"audit_get","id":7}"#),
            Request::AuditGet {
                id: 7,
                replay: false
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"audit_get","id":7,"replay":true}"#),
            Request::AuditGet {
                id: 7,
                replay: true
            }
        );
        assert_eq!(parse_ok(r#"{"op":"stats"}"#), Request::Stats);
        assert_eq!(parse_ok(r#"{"op":"metrics"}"#), Request::Metrics);
        assert_eq!(parse_ok(r#"{"op":"trace"}"#), Request::Trace);
        assert_eq!(parse_ok(r#"{"op":"profile"}"#), Request::Profile);
        assert_eq!(
            parse_ok(r#"{"op":"close_session","session":9}"#),
            Request::CloseSession { session: 9 }
        );
    }

    /// DESIGN.md §2's wire-protocol table has one row per op and no row
    /// for anything else.
    #[test]
    fn design_wire_protocol_table_matches_the_ops() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("### The `dblayout-server` wire protocol")
            .nth(1)
            .and_then(|rest| rest.split("\n### ").next())
            .expect("DESIGN.md §2 has the wire-protocol section");
        let mut rows: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split_once("` |"))
            .map(|(name, _)| name)
            .collect();
        let mut ops: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        rows.sort_unstable();
        ops.sort_unstable();
        assert_eq!(rows, ops, "DESIGN.md §2's wire-protocol table");
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        assert_eq!(parse_request("{oops").unwrap_err().code, "parse_error");
        assert_eq!(parse_request("42").unwrap_err().code, "bad_request");
        assert_eq!(
            parse_request(r#"{"op":"launch_missiles"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"op":"recommend"}"#).unwrap_err().code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"op":"recommend","session":1,"k":0}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        // `threads` must be a positive integer within the server's cap.
        for bad in [
            r#"{"op":"open_session","catalog":"apb","threads":0}"#,
            r#"{"op":"open_session","catalog":"apb","threads":513}"#,
            r#"{"op":"open_session","catalog":"apb","threads":"four"}"#,
            r#"{"op":"open_session","catalog":"apb","threads":-2}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, "bad_request", "{bad}");
        }
        // Relayout knobs fail closed on out-of-range or mistyped values.
        for bad in [
            r#"{"op":"open_session","catalog":"apb","decay":0}"#,
            r#"{"op":"open_session","catalog":"apb","decay":1.5}"#,
            r#"{"op":"open_session","catalog":"apb","decay":"slow"}"#,
            r#"{"op":"drift","session":1,"distance_threshold":2}"#,
            r#"{"op":"drift","session":1,"churn_threshold":-0.5}"#,
            r#"{"op":"recommend_budgeted","session":1,"k":0}"#,
            r#"{"op":"recommend_budgeted","session":1,"budget_mb":-3}"#,
            r#"{"op":"recommend_budgeted","session":1,"min_improvement_pct":-1}"#,
            r#"{"op":"plan_migration","session":1,"target":"whatever"}"#,
            r#"{"op":"audit_list","limit":"many"}"#,
            r#"{"op":"audit_get"}"#,
            r#"{"op":"audit_get","id":"first"}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, "bad_request", "{bad}");
        }
    }

    #[test]
    fn response_lines_are_deterministic() {
        let line = ok_line(obj(vec![("x", Value::U64(1))]));
        assert_eq!(line, r#"{"ok":true,"result":{"x":1}}"#);
        let err = err_line(&ApiError::bad_request("nope"));
        assert_eq!(
            err,
            r#"{"ok":false,"error":{"code":"bad_request","message":"nope"}}"#
        );
    }

    #[test]
    fn disk_specs_resolve() {
        assert_eq!(resolve_disks("paper").unwrap().len(), 8);
        let u = resolve_disks("uniform:4:200000:10:20").unwrap();
        assert_eq!(u.len(), 4);
        assert!(resolve_disks("raid").is_err());
        assert!(resolve_disks("uniform:0:1:1:1").is_err());
        assert!(resolve_disks("uniform:4:1:1").is_err());
    }

    #[test]
    fn degenerate_disk_parameters_are_rejected() {
        // Zero/negative/non-finite rates must be a bad_request, not a panic
        // deep inside layout placement on a later `recommend`.
        for spec in [
            "uniform:4:0:10:20",       // zero capacity
            "uniform:4:100000:0:20",   // zero seek
            "uniform:4:100000:-1:20",  // negative seek
            "uniform:4:100000:nan:20", // NaN seek
            "uniform:4:100000:inf:20", // infinite seek
            "uniform:4:100000:10:0",   // zero read rate
            "uniform:4:100000:10:-5",  // negative read rate
            "uniform:4:100000:10:nan", // NaN read rate
            "uniform:4:100000:10:inf", // infinite read rate
        ] {
            let err = resolve_disks(spec).unwrap_err();
            assert_eq!(err.code, "bad_request", "{spec}");
        }
    }
}
