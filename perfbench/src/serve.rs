//! The `serve-tune` workload: the what-if server as a tuning tool uses it.
//!
//! An in-process `Server` with the shipped defaults and audit on serves two
//! closed-loop clients over loopback TCP. Each client repeats identical
//! fresh-session episodes: open, ingest the 22 TPC-H statements in fixed
//! batches, tune a layout through `whatif_cost` (a steepest-descent search
//! over one object's drive count at a time, so the probes and the cache
//! hits follow from the search), recommend and re-probe the
//! recommendation, ingest a seeded drift batch, check drift, re-advise
//! under a movement budget, apply the migration plan, close. Closed loop,
//! because a tuning tool waits for each reply; fresh sessions, so every
//! episode does the same work wherever it falls in the run.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dblayout_audit::{record_recommendation, DecisionLog, RecordInputs};
use dblayout_catalog::{resolve_catalog, BLOCK_BYTES};
use dblayout_core::advisor::{Advisor, AdvisorConfig};
use dblayout_core::costmodel::CostModel;
use dblayout_core::extend_access_graph;
use dblayout_core::tsgreedy::TsGreedyConfig;
use dblayout_disksim::Layout;
use dblayout_obs::counters::{self, Counter, CounterSnapshot};
use dblayout_partition::Graph;
use dblayout_planner::plan_statement;
use dblayout_relayout::{
    detect_drift, plan_migration, recommend_budgeted, BudgetConfig, DriftConfig,
};
use dblayout_server::protocol::{err_line, ok_line};
use dblayout_server::{
    parse_request, recommendation_result, resolve_disks, Client, Engine, RuntimeInfo, Server,
    ServerConfig, ServerHandle, Session,
};
use dblayout_sql::parse_workload_file;
use dblayout_workloads::tpch22::tpch22;
use dblayout_workloads::wkctrl::wk_drift;
use serde_json::{Value, ValueExt};

use crate::advise::{report_search_layers, search_and_fallback, set_up, span, traced_step1};
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};
use crate::{ms_since, out_dir, peak_rss_mb, Args, Outcome, Tally};

/// Closed-loop clients: one per core of the 2-core calibration host.
const CLIENTS: usize = 2;
const CATALOG: &str = "tpch:1";
const DISKS: &str = "paper";
const DECAY: f64 = 0.9;
/// TPC-H statements per `add_statements` batch. No measured tuning
/// session fixes this size; 2 keeps Q7 and Q8 (Q8 plans in ≈30 ms) in a
/// batch of their own, the slow ingest mode.
const BATCH: usize = 2;
/// The drift batch: the last epoch of WK-DRIFT as the repository's
/// relayout end-to-end test ingests it (6 epochs of 10 statements).
const DRIFT_EPOCHS: usize = 6;
const DRIFT_QUERIES: usize = 10;
/// Movement budget of `recommend_budgeted`, as in the README's relayout
/// example.
const BUDGET_MB: u64 = 500;
/// An untraced run measures in this many blocks on one server; between
/// blocks, with the clients paused, it sets up [`SETUPS_PER_BLOCK`] more
/// times and tears each down again, so the set-up samples spread over the
/// measured window.
const BLOCKS: usize = 11;
const SETUPS_PER_BLOCK: usize = 3;
/// Episodes per client per block whose what-if latencies an untraced run
/// keeps as raw samples. A fixed number, so the samples the benchmark holds
/// (and with them the process's peak RSS) do not grow with throughput.
const KEEP_WHATIF_EPISODES: usize = 8;
/// Episodes per client in each phase of a traced run; the TCP phases run
/// as alternating untraced/traced blocks of [`TRACE_BLOCK`] episodes after
/// one warm-up block, so slow drift of the host cancels out of the
/// tracing overhead.
const TRACE_EPISODES: usize = 20;
const TRACE_BLOCK: usize = 5;
/// Episodes whose ingest the traced run replays through `plan_statement`
/// and `Session::add_statements`: 92 × 11 batches leave 10 samples beyond
/// the p99.
const LAYER_EPISODES: usize = 92;

// ---------------------------------------------------------------- inputs

/// One `add_statements` body.
struct Batch {
    sql: String,
    /// `sql` as a JSON string literal.
    sql_json: String,
    statements: u64,
}

impl Batch {
    fn new(statements: &[String]) -> Self {
        let mut sql = statements.join(";\n");
        sql.push(';');
        Self {
            sql_json: serde_json::to_string(&Value::Str(sql.clone())).unwrap_or_default(),
            sql,
            statements: statements.len() as u64,
        }
    }
}

/// The generated inputs every episode replays: the statement batches, the
/// candidate rows the tuning search combines, and, drawn from `seed`, the
/// order in which the search visits objects and the drift batch. The seed
/// leaves the amount of tuning work unchanged: it only breaks ties
/// between equally cheap moves.
struct Script {
    batches: Vec<Batch>,
    drift: Batch,
    /// Drive capacities, blocks.
    capacity: Vec<u64>,
    /// `rows[i][w - 1]`: object `i` on `w` adjacent drives from drive
    /// `i mod m`, placed by `Layout::place_proportional`.
    rows: Vec<Vec<Row>>,
    /// Objects in the order the tuning search visits them.
    visit: Vec<usize>,
}

/// One object's placement, as the JSON the wire takes and as blocks per
/// drive.
struct Row {
    json: String,
    blocks: Vec<u64>,
}

/// splitmix64: a small seeded generator for the benchmark's own inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

impl Script {
    fn new(seed: u64) -> Result<Self, String> {
        let catalog = resolve_catalog(CATALOG)?;
        let disks = resolve_disks(DISKS).map_err(|e| e.message)?;
        let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
        let m = disks.len();
        let mut rng = SplitMix(seed);
        let mut rows = Vec::with_capacity(sizes.len());
        for i in 0..sizes.len() {
            let first = i % m;
            let mut widths = Vec::with_capacity(m);
            for w in 1..=m {
                let drives: Vec<usize> = (0..w).map(|d| (first + d) % m).collect();
                let mut layout = Layout::empty(sizes.clone(), m);
                layout.place_proportional(i, &drives, &disks);
                if !layout.row_is_valid(i) {
                    return Err(format!("object {i} on {w} drives is not a valid row"));
                }
                let row = layout
                    .fractions_of(i)
                    .iter()
                    .map(|&f| Value::F64(f))
                    .collect();
                widths.push(Row {
                    json: serde_json::to_string(&Value::Seq(row)).unwrap_or_default(),
                    blocks: layout.blocks_on(i),
                });
            }
            rows.push(widths);
        }
        let mut visit: Vec<usize> = (0..sizes.len()).collect();
        for k in (1..visit.len()).rev() {
            visit.swap(k, rng.below(k + 1));
        }
        let drift_seed = SplitMix(seed ^ 0xD81F).next();
        let drift = wk_drift(DRIFT_EPOCHS, DRIFT_QUERIES, drift_seed)
            .pop()
            .ok_or("WK-DRIFT produced no epochs")?;
        Ok(Self {
            batches: tpch22().chunks(BATCH).map(Batch::new).collect(),
            drift: Batch::new(&drift),
            capacity: disks.iter().map(|d| d.capacity_blocks).collect(),
            rows,
            visit,
        })
    }

    /// Whether the layout with object `i` on `widths[i]` drives fits every
    /// drive (each row is valid on its own).
    fn fits(&self, widths: &[usize]) -> bool {
        self.capacity.iter().enumerate().all(|(j, &cap)| {
            let used: u64 = widths
                .iter()
                .zip(&self.rows)
                .map(|(&w, rows)| rows[w - 1].blocks[j])
                .sum();
            used <= cap
        })
    }

    /// The fraction matrix of that layout, as JSON.
    fn matrix(&self, widths: &[usize]) -> String {
        let rows: Vec<&str> = widths
            .iter()
            .zip(&self.rows)
            .map(|(&w, rows)| rows[w - 1].json.as_str())
            .collect();
        format!("[{}]", rows.join(","))
    }
}

// ------------------------------------------------------------- transport

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Open,
    Ingest,
    Whatif,
    Recommend,
    Drift,
    Relayout,
    Migrate,
    Close,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Open => "client.open_session",
            Op::Ingest => "client.add_statements",
            Op::Whatif => "client.whatif_cost",
            Op::Recommend => "client.recommend",
            Op::Drift => "client.drift",
            Op::Relayout => "client.recommend_budgeted",
            Op::Migrate => "client.plan_migration",
            Op::Close => "client.close_session",
        }
    }
}

/// Raw latency samples (ms) of the op classes the benchmark names.
#[derive(Debug, Default)]
struct Latencies {
    /// Kept what-if samples; `whatif_ms` and `whatif_calls` cover them all.
    whatif: Vec<f64>,
    whatif_ms: f64,
    whatif_calls: usize,
    ingest: Vec<f64>,
    recommend: Vec<f64>,
    relayout: Vec<f64>,
    /// Open, drift, plan_migration and close.
    other: Vec<f64>,
    episode: Vec<f64>,
}

impl Latencies {
    /// Records one round trip; a what-if sample is kept only if `keep`.
    fn push(&mut self, op: Op, ms: f64, keep: bool) {
        match op {
            Op::Whatif => {
                self.whatif_ms += ms;
                self.whatif_calls += 1;
                if keep {
                    self.whatif.push(ms);
                }
            }
            Op::Ingest => self.ingest.push(ms),
            Op::Recommend => self.recommend.push(ms),
            Op::Relayout => self.relayout.push(ms),
            _ => self.other.push(ms),
        }
    }

    fn merge(&mut self, other: Latencies) {
        self.whatif.extend(other.whatif);
        self.whatif_ms += other.whatif_ms;
        self.whatif_calls += other.whatif_calls;
        self.ingest.extend(other.ingest);
        self.recommend.extend(other.recommend);
        self.relayout.extend(other.relayout);
        self.other.extend(other.other);
        self.episode.extend(other.episode);
    }

    /// Each op class's share of episode time, in %, with its requests per
    /// episode; "client" is the time between requests.
    fn shares(&self) -> String {
        let total: f64 = self.episode.iter().sum();
        let episodes = self.episode.len().max(1) as f64;
        let mut parts = Vec::new();
        let mut ops = 0.0;
        let sum = |v: &[f64]| (v.iter().sum::<f64>(), v.len());
        for (name, (ms, calls)) in [
            ("whatif", (self.whatif_ms, self.whatif_calls)),
            ("ingest", sum(&self.ingest)),
            ("recommend", sum(&self.recommend)),
            ("relayout", sum(&self.relayout)),
            ("other", sum(&self.other)),
        ] {
            ops += ms;
            parts.push(format!(
                "{name} {:.1}% ({:.0}/episode)",
                100.0 * ms / total,
                calls as f64 / episodes
            ));
        }
        parts.push(format!("client {:.1}%", 100.0 * (total - ops) / total));
        parts.join(", ")
    }
}

/// How an episode reaches the engine: loopback TCP, or in process.
trait Transport {
    fn call(&mut self, op: Op, line: &str) -> Result<String, String>;
}

struct Tcp(Client);

impl Transport for Tcp {
    fn call(&mut self, _op: Op, line: &str) -> Result<String, String> {
        self.0
            .roundtrip(line)
            .map_err(|e| format!("transport: {e}"))
    }
}

/// `parse_request` → `Engine::execute` → `ok_line`, timing the execute
/// step per op and the parse step of what-if lines.
struct InProcess<'e> {
    engine: &'e Engine,
    execute: Latencies,
    parse_us: Vec<f64>,
}

impl Transport for InProcess<'_> {
    fn call(&mut self, op: Op, line: &str) -> Result<String, String> {
        let t = Instant::now();
        let request = parse_request(line);
        if op == Op::Whatif {
            self.parse_us.push(ms_since(t) * 1e3);
        }
        let request = request.map_err(|e| format!("{}: {}", e.code, e.message))?;
        let t = Instant::now();
        let result = self.engine.execute(request, &RuntimeInfo::default());
        self.execute.push(op, ms_since(t), true);
        Ok(match result {
            Ok(v) => ok_line(v),
            Err(e) => err_line(&e),
        })
    }
}

// --------------------------------------------------------------- episode

/// What one client saw over a phase.
#[derive(Debug, Default)]
struct ClientRun {
    lat: Latencies,
    /// Episodes whose what-if latencies are kept as raw samples.
    keep_whatif: usize,
    tally: Tally,
    episodes: usize,
    /// Last `decision_id` seen; ids must strictly increase.
    last_decision: u64,
    /// Bits of the first `recommended_cost_ms`; every episode must match.
    recommended_bits: Option<u64>,
    /// The first episode's tuning result; every episode must match.
    tuned: Option<Tuned>,
    /// (recommended, FULL STRIPING, improvement) of the last recommend.
    advised: Option<(f64, f64, f64)>,
}

impl ClientRun {
    fn merge(&mut self, other: ClientRun) {
        self.lat.merge(other.lat);
        self.tally.merge(other.tally);
        self.episodes += other.episodes;
        self.advised = self.advised.or(other.advised);
        if let (Some(a), Some(b)) = (self.recommended_bits, other.recommended_bits) {
            if a != b {
                self.tally.record(Err(
                    "the two clients were recommended different costs".into()
                ));
            }
        }
        self.recommended_bits = self.recommended_bits.or(other.recommended_bits);
        if let (Some(a), Some(b)) = (&self.tuned, &other.tuned) {
            if a != b {
                self.tally.record(Err(
                    "the two clients' tuning searches ended differently".into()
                ));
            }
        }
        self.tuned = self.tuned.take().or(other.tuned);
    }
}

/// What one episode's tuning search found, and what it cost.
#[derive(Debug, Clone, PartialEq)]
struct Tuned {
    widths: Vec<usize>,
    cost_bits: u64,
    rounds: usize,
    probes: usize,
    repeats: usize,
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("reply has no number `{key}`"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("reply has no integer `{key}`"))
}

fn ensure(cond: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(why())
    }
}

/// The `result` of an ok reply.
fn ok_result(line: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if v.get("ok").and_then(|x| x.as_bool()) != Some(true) {
        return Err(format!("error reply: {line}"));
    }
    v.get("result")
        .cloned()
        .ok_or_else(|| format!("reply without result: {line}"))
}

fn next_decision(run: &mut ClientRun, v: &Value) -> Result<(), String> {
    let id = field_u64(v, "decision_id")?;
    ensure(id > run.last_decision, || {
        format!("decision_id {id} does not follow {}", run.last_decision)
    })?;
    run.last_decision = id;
    Ok(())
}

struct Episode<'a> {
    transport: &'a mut dyn Transport,
    script: &'a Script,
    run: &'a mut ClientRun,
    tracer: Option<&'a Tracer>,
    parent: u64,
}

impl Episode<'_> {
    /// Sends one request, checks its reply, and counts one operation.
    fn op<R>(
        &mut self,
        op: Op,
        line: &str,
        check: impl FnOnce(&Value, &mut ClientRun) -> Result<R, String>,
    ) -> Result<R, String> {
        let (tracer, parent) = (self.tracer, self.parent);
        let t0 = Instant::now();
        let reply = span(tracer, op.span_name(), parent, |_| {
            self.transport.call(op, line)
        });
        let keep = self.run.episodes < self.run.keep_whatif;
        self.run.lat.push(op, ms_since(t0), keep);
        let out = reply
            .and_then(|r| ok_result(&r))
            .and_then(|v| check(&v, self.run));
        self.run
            .tally
            .record(out.as_ref().map(|_| ()).map_err(Clone::clone));
        out
    }

    fn ingest(&mut self, sid: u64, batch: &Batch) -> Result<(), String> {
        let line = format!(
            "{{\"op\":\"add_statements\",\"session\":{sid},\"sql\":{}}}",
            batch.sql_json
        );
        self.op(Op::Ingest, &line, |v, _| {
            let added = field_u64(v, "added")?;
            ensure(added == batch.statements, || {
                format!("added {added} statements of {}", batch.statements)
            })
        })
    }

    /// Probes one layout; `expect` checks its (cost, cached) reply.
    fn whatif(
        &mut self,
        sid: u64,
        matrix: &str,
        expect: impl FnOnce(f64, bool) -> Result<(), String>,
    ) -> Result<f64, String> {
        let line = format!("{{\"op\":\"whatif_cost\",\"session\":{sid},\"layout\":{matrix}}}");
        self.op(Op::Whatif, &line, |v, _| {
            let cached = v
                .get("cached")
                .and_then(|x| x.as_bool())
                .ok_or("what-if reply has no `cached`")?;
            let cost = field_f64(v, "cost_ms")?;
            expect(cost, cached)?;
            Ok(cost)
        })
    }

    /// A tuning tool's search with the what-if service as its cost oracle:
    /// from every object on one drive (where TS-GREEDY's widening starts),
    /// probe each layout that changes one object's drive count, adopt the
    /// cheapest if it beats the incumbent, and stop when none does. Layouts probed again (the
    /// previous incumbent, and the moves of the object just changed) are
    /// what the cache serves.
    fn tune(&mut self, sid: u64) -> Result<Tuned, String> {
        let script = self.script;
        let m = script.capacity.len();
        let mut widths = vec![1; script.rows.len()];
        let mut seen = HashMap::new();
        let mut cost = self.probe(sid, &widths, &mut seen)?;
        let (mut rounds, mut probes) = (0, 1);
        loop {
            rounds += 1;
            let mut best: Option<(usize, usize, f64)> = None;
            for &i in &script.visit {
                for w in 1..=m {
                    let mut candidate = widths.clone();
                    candidate[i] = w;
                    if w == widths[i] || !script.fits(&candidate) {
                        continue;
                    }
                    let c = self.probe(sid, &candidate, &mut seen)?;
                    probes += 1;
                    if c < best.map_or(cost, |b| b.2) {
                        best = Some((i, w, c));
                    }
                }
            }
            match best {
                Some((i, w, c)) => {
                    widths[i] = w;
                    cost = c;
                }
                None => break,
            }
        }
        Ok(Tuned {
            widths,
            cost_bits: cost.to_bits(),
            rounds,
            probes,
            repeats: probes - seen.len(),
        })
    }

    /// Probes one layout: a first probe of it cannot come from the cache,
    /// and a repeat must cost exactly what the first probe did.
    fn probe(
        &mut self,
        sid: u64,
        widths: &[usize],
        seen: &mut HashMap<Vec<usize>, f64>,
    ) -> Result<f64, String> {
        let first = seen.get(widths).copied();
        let matrix = self.script.matrix(widths);
        let cost = self.whatif(sid, &matrix, |cost, cached| match first {
            None => ensure(!cached, || format!("first probe of {widths:?} was cached")),
            Some(prev) => ensure(cost.to_bits() == prev.to_bits(), || {
                format!("repeat probe of {widths:?}: {cost} ms (cached={cached}), first {prev} ms")
            }),
        })?;
        seen.entry(widths.to_vec()).or_insert(cost);
        Ok(cost)
    }

    fn run(&mut self) -> Result<(), String> {
        let open = format!(
            "{{\"op\":\"open_session\",\"catalog\":\"{CATALOG}\",\"disks\":\"{DISKS}\",\"decay\":{DECAY}}}"
        );
        let sid = self.op(Op::Open, &open, |v, _| field_u64(v, "session"))?;
        let body = self.body(sid);
        let close = self.op(
            Op::Close,
            &format!("{{\"op\":\"close_session\",\"session\":{sid}}}"),
            |_, _| Ok(()),
        );
        body.and(close)
    }

    /// Everything between open and close; the session is closed whether
    /// or not this fails.
    fn body(&mut self, sid: u64) -> Result<(), String> {
        let script = self.script;
        for batch in &script.batches {
            self.ingest(sid, batch)?;
        }

        let tuned = self.tune(sid)?;
        let first = self.run.tuned.get_or_insert_with(|| tuned.clone());
        ensure(*first == tuned, || {
            format!("the tuning search ended at {tuned:?}, an earlier episode's at {first:?}")
        })?;

        let (recommended, matrix) = self.op(
            Op::Recommend,
            &format!("{{\"op\":\"recommend\",\"session\":{sid}}}"),
            |v, run| {
                next_decision(run, v)?;
                let rec = field_f64(v, "recommended_cost_ms")?;
                let fs = field_f64(v, "full_striping_cost_ms")?;
                let improvement = field_f64(v, "estimated_improvement_pct")?;
                let expected = if fs > 0.0 {
                    100.0 * (fs - rec) / fs
                } else {
                    0.0
                };
                ensure(expected.to_bits() == improvement.to_bits(), || {
                    format!("improvement {improvement}% but FULL STRIPING gives {expected}%")
                })?;
                ensure(rec <= fs, || {
                    format!("recommended {rec} ms is worse than FULL STRIPING {fs} ms")
                })?;
                let bits = *run.recommended_bits.get_or_insert(rec.to_bits());
                ensure(bits == rec.to_bits(), || {
                    format!("recommended cost {rec} ms differs from an earlier episode's")
                })?;
                run.advised = Some((rec, fs, improvement));
                let rows = v
                    .get("objects")
                    .and_then(|o| o.as_array())
                    .ok_or("recommend reply has no objects")?
                    .iter()
                    .map(|o| {
                        o.get("fractions")
                            .cloned()
                            .ok_or("object without fractions")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((
                    rec,
                    serde_json::to_string(&Value::Seq(rows)).map_err(|e| e.to_string())?,
                ))
            },
        )?;
        self.whatif(sid, &matrix, |cost, _| {
            ensure(cost.to_bits() == recommended.to_bits(), || {
                format!("re-probing the recommendation gave {cost} ms, recommend said {recommended} ms")
            })
        })?;

        self.ingest(sid, &script.drift)?;
        self.op(
            Op::Drift,
            &format!("{{\"op\":\"drift\",\"session\":{sid}}}"),
            |v, _| field_f64(v, "edge_distance").map(|_| ()),
        )?;
        let budget_blocks = BUDGET_MB * (1_048_576 / BLOCK_BYTES);
        let moved = self.op(
            Op::Relayout,
            &format!(
                "{{\"op\":\"recommend_budgeted\",\"session\":{sid},\"budget_mb\":{BUDGET_MB}}}"
            ),
            |v, run| {
                next_decision(run, v)?;
                let moved = field_u64(v, "moved_blocks")?;
                ensure(moved <= budget_blocks, || {
                    format!("moved {moved} blocks over a {budget_blocks}-block budget")
                })?;
                Ok(moved)
            },
        )?;
        self.op(
            Op::Migrate,
            &format!("{{\"op\":\"plan_migration\",\"session\":{sid},\"apply\":true}}"),
            |v, _| {
                ensure(v.get("applied").and_then(|x| x.as_bool()) == Some(true), || {
                    "migration plan was not applied".into()
                })?;
                let steps = v
                    .get("steps")
                    .and_then(|s| s.as_array())
                    .ok_or("plan has no steps")?;
                ensure(field_u64(v, "step_count")? == steps.len() as u64, || {
                    "step_count disagrees with the steps listed".into()
                })?;
                let step_blocks = steps
                    .iter()
                    .map(|s| field_u64(s, "moved_blocks"))
                    .sum::<Result<u64, _>>()?;
                let total = field_u64(v, "total_moved_blocks")?;
                ensure(step_blocks == total && total == moved, || {
                    format!("plan moves {total} blocks ({step_blocks} over its steps), the budgeted advice {moved}")
                })?;
                ensure(field_f64(v, "worst_intermediate_cost_ms")?.is_finite(), || {
                    "plan has no finite degraded cost".into()
                })
            },
        )
        .map(|_| ())
    }
}

/// Runs episodes on one transport until `stop` says so, keeping the
/// what-if samples of the first `keep_whatif` episodes.
fn client_loop(
    transport: &mut dyn Transport,
    script: &Script,
    tracer: Option<&Tracer>,
    keep_whatif: usize,
    mut stop: impl FnMut(usize) -> bool,
) -> ClientRun {
    let mut run = ClientRun {
        keep_whatif,
        ..ClientRun::default()
    };
    while !stop(run.episodes) {
        let t0 = Instant::now();
        let _ = span(tracer, "episode", ROOT, |parent| {
            Episode {
                transport: &mut *transport,
                script,
                run: &mut run,
                tracer,
                parent,
            }
            .run()
        });
        run.lat.episode.push(ms_since(t0));
        run.episodes += 1;
    }
    run
}

/// Drives every transport on its own thread and merges what they saw.
fn drive(
    transports: &mut [&mut (dyn Transport + Send)],
    script: &Script,
    tracer: Option<&Tracer>,
    keep_whatif: usize,
    stop: impl Fn(usize) -> bool + Sync,
) -> ClientRun {
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .iter_mut()
            .map(|tr| {
                let stop = &stop;
                s.spawn(move || client_loop(&mut **tr, script, tracer, keep_whatif, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientRun::default();
    for r in runs {
        all.merge(r);
    }
    all
}

// ------------------------------------------------------------------- run

/// A started server with connected clients; dropping it closes the
/// connections and shuts the server down.
struct Rig {
    server: Option<ServerHandle>,
    clients: Vec<Tcp>,
}

fn start_rig(audit_dir: &Path) -> Result<Rig, String> {
    let server = Server::start(ServerConfig {
        audit_dir: Some(audit_dir.display().to_string()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(&addr).map(Tcp))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("client connect: {e}"))?;
    Ok(Rig {
        server: Some(server),
        clients,
    })
}

impl Rig {
    fn transports(&mut self) -> Vec<&mut (dyn Transport + Send)> {
        self.clients
            .iter_mut()
            .map(|c| c as &mut (dyn Transport + Send))
            .collect()
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Fresh audit directories, removed when the run ends.
struct AuditDirs(Vec<PathBuf>);

impl AuditDirs {
    fn fresh(&mut self, tag: &str) -> PathBuf {
        let dir = out_dir().join(format!(
            "audit-{}-{tag}{}",
            std::process::id(),
            self.0.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        self.0.push(dir.clone());
        dir
    }
}

impl Drop for AuditDirs {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Sets up [`SETUPS_PER_BLOCK`] times, each time the generated inputs, a
/// fresh server with its own audit directory and the client connections;
/// each set-up but the last is torn down again outside the timing.
fn set_up_block(
    seed: u64,
    dirs: &mut AuditDirs,
    times: &mut Vec<f64>,
) -> Result<(Script, Rig), String> {
    let mut last = None;
    for _ in 0..SETUPS_PER_BLOCK {
        drop(last.take());
        let dir = dirs.fresh("setup");
        let (value, s) = set_up(|| Ok((Script::new(seed)?, start_rig(&dir)?)))?;
        times.push(s);
        last = Some(value);
    }
    last.ok_or_else(|| "set-up did not run".into())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let mut dirs = AuditDirs(Vec::new());
    let mut setup_s = Vec::new();
    let first = set_up_block(seed, &mut dirs, &mut setup_s)?;
    if args.trace {
        let (script, rig) = first;
        return trace(&script, rig, &mut dirs);
    }
    let (script, mut rig) = first;
    let mut out = Outcome::default();
    let block_s = args.seconds / BLOCKS as f64;
    let mut all = ClientRun::default();
    let mut loop_s = 0.0;
    for block in 0..BLOCKS {
        if block > 0 {
            drop(set_up_block(seed, &mut dirs, &mut setup_s)?);
        }
        let start = Instant::now();
        let stop = |n| n > 0 && start.elapsed().as_secs_f64() >= block_s;
        all.merge(drive(
            &mut rig.transports(),
            &script,
            None,
            KEEP_WHATIF_EPISODES,
            stop,
        ));
        loop_s += start.elapsed().as_secs_f64();
    }
    drop(rig);
    let setup = Samples::new(setup_s);
    out.note(format!(
        "serve-tune: {CLIENTS} closed-loop clients over loopback TCP, seed {seed}, \
         {} requests per episode",
        all.tally.attempted / all.episodes.max(1) as u64
    ));
    if let Some(t) = &all.tuned {
        out.note(format!(
            "tuning search per episode: {} what-if probes over {} rounds, {} of them repeats; \
             tuned cost {} ms, drive counts {:?}",
            t.probes,
            t.rounds,
            t.repeats,
            f64::from_bits(t.cost_bits),
            t.widths
        ));
    }
    out.note(format!(
        "episode time by op class (round trips): {}",
        all.lat.shares()
    ));

    let recommend = Samples::new(all.lat.recommend.clone());
    out.metric(
        "setup_s",
        setup.median(),
        format!(
            "median of {} set-ups spread over the run (quartiles {:.6}..{:.6} s)",
            setup.len(),
            setup.quantile(0.25),
            setup.quantile(0.75)
        ),
    );
    out.note(format!(
        "advise_s = {} s  (median `recommend` round trip of {}, audit record included; \
         report only)",
        recommend.median() / 1e3,
        recommend.len()
    ));
    out.metric(
        "episodes_per_s",
        all.episodes as f64 / loop_s,
        format!(
            "{} episodes across {CLIENTS} clients in {BLOCKS} blocks, {loop_s:.3} s",
            all.episodes
        ),
    );
    if let Some((rec, fs, improvement)) = all.advised {
        out.metric(
            "advised_cost_pct",
            100.0 * rec / fs,
            format!("from the recommend replies: {rec} ms vs FULL STRIPING {fs} ms"),
        );
        out.note(format!(
            "improvement_pct = {improvement} %  (recommend replies)"
        ));
    }
    out.note(format!(
        "what-if samples: {} kept (the first {KEEP_WHATIF_EPISODES} episodes of each client \
         in each block) of {} probes",
        all.lat.whatif.len(),
        all.lat.whatif_calls
    ));
    report_latency(&mut out, "whatif_ms", &all.lat.whatif, &[0.5, 0.99]);
    report_latency(&mut out, "ingest_ms", &all.lat.ingest, &[0.5, 0.99]);
    report_latency(&mut out, "recommend_ms", &all.lat.recommend, &[0.5, 0.9]);
    report_latency(&mut out, "relayout_ms", &all.lat.relayout, &[0.5, 0.9]);
    out.tally.merge(all.tally);
    out.metric(
        "ok_pct",
        out.tally.ok_pct(),
        format!(
            "{} of {} requests replied ok and passed their checks",
            out.tally.attempted - out.tally.failed,
            out.tally.attempted
        ),
    );
    out.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "VmHWM of this process (server and clients)",
    );
    Ok(out)
}

/// Prints named percentiles of one op's samples with their counts; warns
/// when fewer than 10 samples lie beyond a percentile.
fn report_latency(out: &mut Outcome, name: &str, samples: &[f64], qs: &[f64]) {
    let s = Samples::new(samples.to_vec());
    for &q in qs {
        let beyond = s.beyond(q);
        let warn = if beyond < 10 { "; TOO FEW beyond" } else { "" };
        out.note(format!(
            "{name}.p{} = {:.4} ms  ({} samples, {beyond} beyond{warn})",
            (q * 100.0).round(),
            s.quantile(q),
            s.len()
        ));
    }
}

// --------------------------------------------------------------- tracing

fn median_of(v: &[f64]) -> f64 {
    Samples::new(v.to_vec()).median()
}

/// A traced run: untraced TCP episodes, the same episodes with a span
/// around every client call, an in-process replay through
/// `Engine::execute`, then the layers called one by one on a local
/// `Session`.
fn trace(script: &Script, mut rig: Rig, dirs: &mut AuditDirs) -> Result<Outcome, String> {
    let t = Tracer::new();
    let mut out = Outcome::default();
    out.note(format!(
        "serve-tune (traced): {TRACE_EPISODES} episodes per client per phase, \
         {LAYER_EPISODES} episodes of layer-by-layer ingest"
    ));
    let block = |n: usize| n >= TRACE_BLOCK;
    let all = usize::MAX;
    let mut warmup = drive(&mut rig.transports(), script, None, all, block);
    let mut plain = ClientRun::default();
    let mut traced = ClientRun::default();
    let mut server_counts = Counts::default();
    for _ in 0..TRACE_EPISODES / TRACE_BLOCK {
        plain.merge(drive(&mut rig.transports(), script, None, all, block));
        let before = counters::snapshot();
        traced.merge(drive(&mut rig.transports(), script, Some(&t), all, block));
        server_counts.add(&counters::snapshot().delta(&before));
    }
    drop(rig);

    // In-process replay on a fresh engine, two threads like the clients.
    let engine_dir = dirs.fresh("engine");
    let config = ServerConfig::default();
    let mut engine = Engine::new(config.session_capacity, config.cache_capacity);
    engine
        .enable_audit(&engine_dir)
        .map_err(|e| format!("engine audit log: {e}"))?;
    let mut replays: Vec<InProcess> = (0..CLIENTS)
        .map(|_| InProcess {
            engine: &engine,
            execute: Latencies::default(),
            parse_us: Vec::new(),
        })
        .collect();
    let mut replayed = {
        let mut transports: Vec<&mut (dyn Transport + Send)> = replays
            .iter_mut()
            .map(|r| r as &mut (dyn Transport + Send))
            .collect();
        drive(&mut transports, script, None, all, |n| n >= TRACE_EPISODES)
    };
    let mut exec = Latencies::default();
    let mut parse_us = Vec::new();
    for r in replays {
        exec.merge(r.execute);
        parse_us.extend(r.parse_us);
    }

    let layer_dir = dirs.fresh("layers");
    let mut layers = trace_layers(&t, script, &layer_dir)?;

    let local_cost = layers.advice.cost_ms;
    out.tally.merge(std::mem::take(&mut warmup.tally));
    for run in [&mut plain, &mut traced, &mut replayed] {
        let bits = run.recommended_bits;
        out.tally.merge(std::mem::take(&mut run.tally));
        out.tally
            .record(ensure(bits == Some(local_cost.to_bits()), || {
                format!(
                    "the server recommended {:?} ms, the layer-by-layer search {local_cost} ms",
                    bits.map(f64::from_bits)
                )
            }));
    }
    out.tally.merge(std::mem::take(&mut layers.tally));

    let med = |name: &str| median_of(&t.durations_ms(name));
    let per_episode = |name: &str| -> f64 {
        let d = t.durations_ms(name);
        let sums: Vec<f64> = d
            .chunks(script.batches.len())
            .map(|c| c.iter().sum())
            .collect();
        median_of(&sums)
    };
    out.metric(
        "sql.parse_ms",
        per_episode("sql.parse"),
        "median per episode of its batches' parse spans",
    );
    out.metric(
        "planner.plan_ms",
        per_episode("planner.batch_plan"),
        "median per episode of its batches' plan spans",
    );
    let batch_plan = Samples::new(t.durations_ms("planner.batch_plan"));
    out.metric(
        "planner.batch_plan_ms.p99",
        batch_plan.quantile(0.99),
        format!(
            "{} batches, {} beyond",
            batch_plan.len(),
            batch_plan.beyond(0.99)
        ),
    );
    let ingest = Samples::new(t.durations_ms("session.ingest"));
    out.metric(
        "session.ingest_ms.p99",
        ingest.quantile(0.99),
        format!("{} batches, {} beyond", ingest.len(), ingest.beyond(0.99)),
    );
    report_search_layers(
        &mut out,
        &t,
        &layers.advice,
        &layers.search_counts,
        layers.cut_weight,
    );
    out.metric(
        "par.speedup",
        0.0,
        "sessions search on 1 thread: no thread scaling to measure",
    );

    let engine_whatif = median_of(&exec.whatif);
    out.metric(
        "engine.whatif_ms.p50",
        engine_whatif,
        format!("{} executes", exec.whatif.len()),
    );
    out.metric(
        "engine.ingest_ms.p50",
        median_of(&exec.ingest),
        format!("{} executes", exec.ingest.len()),
    );
    out.metric(
        "engine.recommend_ms.p50",
        median_of(&exec.recommend),
        format!("{} executes", exec.recommend.len()),
    );
    out.metric(
        "engine.relayout_ms.p50",
        median_of(&exec.relayout),
        format!("{} executes", exec.relayout.len()),
    );
    let tcp_whatif = median_of(&plain.lat.whatif);
    out.metric(
        "transport.overhead_ms.p50",
        tcp_whatif - engine_whatif,
        format!("TCP what-if p50 {tcp_whatif:.4} ms minus engine execute p50"),
    );
    out.metric(
        "protocol.parse_us.p50",
        median_of(&parse_us),
        format!("{} what-if lines", parse_us.len()),
    );
    out.metric(
        "protocol.serialize_us.p50",
        median_of(&layers.serialize_us),
        "recommendation_result + ok_line",
    );
    let hits = server_counts.get(Counter::ServerCacheHits);
    let misses = server_counts.get(Counter::ServerCacheMisses);
    out.metric(
        "server.cache_hit_pct",
        if hits + misses > 0 {
            100.0 * hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        "hits / (hits + misses) over the traced TCP phase",
    );
    out.metric(
        "server.cache_hits",
        hits as f64,
        "counter delta over the traced TCP phase",
    );
    out.metric(
        "server.cache_misses",
        misses as f64,
        "counter delta over the traced TCP phase",
    );
    out.metric(
        "audit.record_ms.p50",
        med("audit.record"),
        "median span of record_recommendation",
    );
    out.metric(
        "audit.append_ms.p50",
        med("audit.append"),
        "median span of DecisionLog::append",
    );
    out.metric(
        "audit.record_bytes",
        layers.record_bytes as f64,
        "JSONL bytes of one record",
    );
    for (name, counter) in [
        ("audit.records_written", Counter::AuditRecordsWritten),
        ("relayout.epoch_advances", Counter::RelayoutEpochAdvances),
        ("migration.steps_planned", Counter::MigrationStepsPlanned),
        ("migration.blocks_planned", Counter::MigrationBlocksPlanned),
    ] {
        out.metric(
            name,
            server_counts.get(counter) as f64,
            "counter delta over the traced TCP phase",
        );
    }
    out.metric(
        "relayout.budgeted_ms.p50",
        med("relayout.budgeted"),
        "median span of recommend_budgeted",
    );
    out.metric(
        "relayout.migration_plan_ms.p50",
        med("relayout.migration_plan"),
        "median span of plan_migration",
    );
    out.metric(
        "relayout.drift_ms.p50",
        med("relayout.drift"),
        "median span of detect_drift",
    );
    let plain_ep = median_of(&plain.lat.episode);
    let traced_ep = median_of(&t.durations_ms("episode"));
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_ep - plain_ep) / plain_ep,
        format!("traced episode {traced_ep:.3} ms vs untraced {plain_ep:.3} ms (medians)"),
    );
    let path = out_dir().join("trace-serve-tune.jsonl");
    t.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    Ok(out)
}

/// Counter deltas summed over several intervals, in `Counter::ALL` order.
#[derive(Debug, Default)]
struct Counts([u64; counters::COUNT]);

impl Counts {
    fn add(&mut self, delta: &CounterSnapshot) {
        for (sum, c) in self.0.iter_mut().zip(Counter::ALL) {
            *sum += delta.get(c);
        }
    }

    fn get(&self, counter: Counter) -> u64 {
        Counter::ALL
            .iter()
            .position(|&c| c == counter)
            .map_or(0, |i| self.0[i])
    }
}

/// What the layer-by-layer replay measured besides its spans.
struct Layers {
    advice: crate::advise::Advice,
    search_counts: CounterSnapshot,
    cut_weight: f64,
    serialize_us: Vec<f64>,
    record_bytes: usize,
    tally: Tally,
}

/// The episode's layers called one by one on a local session: parse,
/// plan and ingest of every batch; then, for the first episodes, the
/// access graph, the search, step 1, response serialization, the audit
/// record and append, drift, budgeted re-advice and migration planning.
fn trace_layers(t: &Tracer, script: &Script, audit_dir: &Path) -> Result<Layers, String> {
    let catalog = resolve_catalog(CATALOG)?;
    let disks = resolve_disks(DISKS).map_err(|e| e.message)?;
    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let mut log = DecisionLog::open(audit_dir).map_err(|e| format!("decision log: {e}"))?;
    let mut tally = Tally::default();
    let mut first: Option<(crate::advise::Advice, CounterSnapshot, f64)> = None;
    let mut serialize_us = Vec::new();
    let mut record_bytes = 0;
    for ep in 0..LAYER_EPISODES {
        let mut session = Session::with_relayout(catalog.clone(), disks.clone(), 1, DECAY);
        for batch in &script.batches {
            let entries = t
                .span("sql.parse", ROOT, |_| parse_workload_file(&batch.sql))
                .map_err(|e| format!("parse: {e}"))?;
            t.span("planner.batch_plan", ROOT, |_| {
                entries
                    .iter()
                    .map(|e| plan_statement(&catalog, &e.statement))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("plan: {e}"))?;
            t.span("session.ingest", ROOT, |_| {
                session.add_statements(&batch.sql)
            })
            .map_err(|e| e.message)?;
        }
        if ep >= TRACE_EPISODES {
            continue;
        }
        let before = counters::snapshot();
        t.span("access_graph.build", ROOT, |_| {
            let mut g = Graph::new(sizes.len());
            extend_access_graph(&mut g, &session.plans);
            g
        });
        let cfg = TsGreedyConfig {
            threads: session.threads,
            ..Default::default()
        };
        let advice = search_and_fallback(
            Some(t),
            ROOT,
            &sizes,
            &session.graph,
            &session.workload,
            &disks,
            &cfg,
        )?;
        let counts = counters::snapshot().delta(&before);
        if first.is_none() {
            let cut = traced_step1(t, &session.graph, disks.len());
            first = Some((advice.clone(), counts, cut));
        }

        let rec = Advisor::new(&catalog, &disks)
            .recommend_prepared(
                session.plans.clone(),
                session.graph.clone(),
                &session.workload,
                &AdvisorConfig {
                    search: cfg.clone(),
                    ..Default::default()
                },
            )
            .map_err(|e| format!("recommend: {e}"))?;
        tally.record(ensure(
            rec.recommended_cost_ms.to_bits() == advice.cost_ms.to_bits(),
            || "Advisor and the layer-by-layer search disagree".into(),
        ));
        let t0 = Instant::now();
        let line = ok_line(recommendation_result(&catalog, &disks, &rec));
        serialize_us.push(ms_since(t0) * 1e3);
        std::hint::black_box(line);
        let mut record = t.span("audit.record", ROOT, |_| {
            record_recommendation(
                &RecordInputs {
                    source: "server.recommend",
                    catalog_spec: CATALOG,
                    workload_sql: &session.sql_text,
                    constraints_text: None,
                    disks: &disks,
                    k: 1,
                    threads: session.threads,
                    ts_unix_ms: None,
                },
                &rec,
                &[],
                &CounterSnapshot::default(),
            )
        });
        record_bytes = record.to_jsonl().map_err(|e| e.to_string())?.len();
        t.span("audit.append", ROOT, |_| log.append(&mut record))
            .map_err(|e| format!("append: {e}"))?;

        t.span("session.ingest_drift", ROOT, |_| {
            session.add_statements(&script.drift.sql)
        })
        .map_err(|e| e.message)?;
        t.span("relayout.drift", ROOT, |_| {
            detect_drift(
                &session.graph,
                &session.advised_graph,
                &DriftConfig::default(),
            )
        });
        let budget = BudgetConfig {
            budget_blocks: Some(BUDGET_MB * (1_048_576 / BLOCK_BYTES)),
            min_improvement_pct: 0.0,
            search: cfg.clone(),
        };
        let outcome = t
            .span("relayout.budgeted", ROOT, |_| {
                recommend_budgeted(
                    &sizes,
                    &session.graph,
                    &session.workload,
                    &disks,
                    &session.deployed,
                    &budget,
                )
            })
            .map_err(|e| format!("budgeted: {e}"))?;
        let plan = t
            .span("relayout.migration_plan", ROOT, |_| {
                plan_migration(
                    &session.deployed,
                    &outcome.layout,
                    &disks,
                    &session.workload,
                    &CostModel::default(),
                )
            })
            .map_err(|e| format!("migration: {e}"))?;
        tally.record(ensure(
            plan.total_moved_blocks == outcome.moved_blocks,
            || "the local migration plan moves a different volume than the budgeted advice".into(),
        ));
    }
    let (advice, search_counts, cut_weight) = first.ok_or("no layer episode ran")?;
    Ok(Layers {
        advice,
        search_counts,
        cut_weight,
        serialize_us,
        record_bytes,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        let a = Script::new(7).unwrap();
        let b = Script::new(7).unwrap();
        let c = Script::new(8).unwrap();
        let full = vec![8; a.rows.len()];
        let narrow = vec![1; a.rows.len()];
        assert_eq!(a.matrix(&narrow), b.matrix(&narrow));
        assert_eq!(a.drift.sql, b.drift.sql);
        assert_eq!(a.visit, b.visit);
        assert_ne!(a.visit, c.visit);
        assert_ne!(a.drift.sql, c.drift.sql);
        // The candidate rows do not depend on the seed.
        assert_eq!(a.matrix(&narrow), c.matrix(&narrow));
        assert_eq!(a.matrix(&full), c.matrix(&full));
        assert!(a.fits(&full));
        assert_eq!(a.batches.len(), 11);
        assert_eq!(a.drift.statements, DRIFT_QUERIES as u64);
    }

    /// Counts a later change may rest a claim on: deterministic per seed.
    #[test]
    fn counts_repeat_exactly() {
        let _serial = crate::COUNTER_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let args = Args {
            workload: "serve-tune".into(),
            seed: crate::DEFAULT_SEED,
            seconds: 1.0,
            trace: true,
        };
        let counts = crate::exact_counts;
        let a = run(&args).unwrap();
        let b = run(&args).unwrap();
        assert_eq!(a.tally.failed, 0, "{:?}", a.tally.failures);
        assert_eq!(counts(&a), counts(&b));
        assert!(a.values["server.cache_hits"] > 0.0);
    }
}
