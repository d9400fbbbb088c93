//! The two offline workloads: `advise-tpch64` and `advise-mega`.
//!
//! Both time an `Advisor`-equivalent recommendation — search, then the
//! FULL STRIPING baseline and `Advisor`'s fallback rule — at the two ends
//! of the paper's scalability axes (Figures 11–12). Untraced runs repeat
//! the advice for `--seconds` and report the median; traced runs call
//! each layer's public function separately, inside a span, and check that
//! the result is bit-identical to the untraced advice.

use std::time::Instant;

use dblayout_catalog::tpch::tpch_catalog;
use dblayout_catalog::Catalog;
use dblayout_core::advisor::{Advisor, AdvisorConfig, Recommendation};
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_core::tsgreedy::{ts_greedy, Partitioner, TsGreedyConfig};
use dblayout_core::{build_access_graph_subplans, extend_access_graph};
use dblayout_disksim::{uniform_disks, DiskSpec, Layout};
use dblayout_obs::counters::{self, Counter, CounterSnapshot};
use dblayout_partition::{max_cut_partition, multilevel_max_cut, Graph};
use dblayout_planner::Subplan;
use dblayout_sql::{parse_workload_file, Statement};
use dblayout_workloads::tpch22::tpch22;
use dblayout_workloads::wkmega::{generate, MegaConfig, MegaInstance};

use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};
use crate::{ms_since, peak_rss_mb, Args, Outcome};

/// Search threads: the CLI default on the 2-core host the benchmark was
/// calibrated on.
pub const THREADS: usize = 2;
/// Advice repetitions an untraced run makes at least, however short
/// `--seconds` is.
const MIN_ADVISES: usize = 3;
/// Untraced/traced advice pairs in a traced run.
const TRACE_PAIRS: usize = 2;

/// Weighted statements, each decomposed into its sub-plans.
pub type Workload = Vec<(Vec<Subplan>, f64)>;

/// One advice in `Advisor`'s terms.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The recommended layout after the fallback rule.
    pub layout: Layout,
    pub cost_ms: f64,
    pub fs_cost_ms: f64,
    pub improvement_pct: f64,
    /// The search's own layout and cost, before the fallback rule.
    pub search_layout: Layout,
    pub search_cost_ms: f64,
    pub iterations: usize,
    pub cost_evaluations: usize,
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<R>(t: Option<&Tracer>, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
    match t {
        Some(t) => t.span(name, parent, f),
        None => f(ROOT),
    }
}

/// Every placement fraction's bit pattern.
pub fn layout_bits(l: &Layout) -> Vec<u64> {
    (0..l.object_count())
        .flat_map(|i| l.fractions_of(i).iter().map(|f| f.to_bits()))
        .collect()
}

/// TS-GREEDY, then FULL STRIPING and the fallback rule exactly as
/// `Advisor::recommend_prepared` applies them.
pub fn search_and_fallback(
    t: Option<&Tracer>,
    parent: u64,
    sizes: &[u64],
    graph: &Graph,
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    cfg: &TsGreedyConfig,
) -> Result<Advice, String> {
    let res = span(t, "tsgreedy.search", parent, |_| {
        ts_greedy(sizes, graph, workload, disks, cfg)
    })
    .map_err(|e| format!("search failed: {e}"))?;
    let (fs, fs_cost) = span(t, "costmodel.full_eval", parent, |_| {
        let fs = Layout::full_striping(sizes.to_vec(), disks);
        let cost = CostModel::default().workload_cost_subplans(workload, &fs, disks);
        (fs, cost)
    });
    fs.validate(disks)
        .map_err(|e| format!("full striping is invalid: {e}"))?;
    // No constraints, so FULL STRIPING always satisfies them.
    let (layout, cost_ms) = if res.final_cost > fs_cost {
        (fs, fs_cost)
    } else {
        (res.layout.clone(), res.final_cost)
    };
    let improvement_pct = if fs_cost > 0.0 {
        100.0 * (fs_cost - cost_ms) / fs_cost
    } else {
        0.0
    };
    Ok(Advice {
        layout,
        cost_ms,
        fs_cost_ms: fs_cost,
        improvement_pct,
        search_layout: res.layout,
        search_cost_ms: res.final_cost,
        iterations: res.iterations,
        cost_evaluations: res.cost_evaluations,
    })
}

/// Output checks on one advice: a valid layout whose re-cost reproduces
/// the reported cost bit for bit, the improvement computed against FULL
/// STRIPING as `Advisor` computes it, and (from the second repetition on)
/// layout bits identical to the first repetition's.
pub fn check_advice(
    advice: &Advice,
    sizes: &[u64],
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    first_bits: &mut Option<Vec<u64>>,
) -> Result<(), String> {
    let model = CostModel::default();
    advice
        .layout
        .validate(disks)
        .map_err(|e| format!("recommended layout is invalid: {e}"))?;
    for (layout, reported, what) in [
        (&advice.layout, advice.cost_ms, "recommended"),
        (&advice.search_layout, advice.search_cost_ms, "searched"),
    ] {
        let recost = model.workload_cost_subplans(workload, layout, disks);
        if recost.to_bits() != reported.to_bits() {
            return Err(format!(
                "re-costing the {what} layout gives {recost} ms, the advice reported {reported} ms"
            ));
        }
    }
    let fs = Layout::full_striping(sizes.to_vec(), disks);
    let fs_cost = model.workload_cost_subplans(workload, &fs, disks);
    if fs_cost.to_bits() != advice.fs_cost_ms.to_bits() {
        return Err(format!(
            "FULL STRIPING costs {fs_cost} ms, the advice reported {} ms",
            advice.fs_cost_ms
        ));
    }
    if advice.cost_ms > fs_cost {
        return Err("the advice is worse than FULL STRIPING".into());
    }
    let expected = if fs_cost > 0.0 {
        100.0 * (fs_cost - advice.cost_ms) / fs_cost
    } else {
        0.0
    };
    if expected.to_bits() != advice.improvement_pct.to_bits() {
        return Err(format!(
            "improvement over FULL STRIPING is {expected}%, the advice reported {}%",
            advice.improvement_pct
        ));
    }
    let bits = layout_bits(&advice.layout);
    match first_bits {
        None => *first_bits = Some(bits),
        Some(first) if *first != bits => {
            return Err("the layout differs from the first repetition's".into())
        }
        Some(_) => {}
    }
    Ok(())
}

/// Sets up once; returns the value and the set-up time in seconds.
///
/// A run takes set-up samples at several moments spread over its measured
/// window and reports their median as `setup_s`: set-ups made back to back
/// at the start of a run would catch one moment of a host whose speed
/// drifts over minutes.
pub fn set_up<T>(make: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let value = make()?;
    Ok((value, t.elapsed().as_secs_f64()))
}

/// Fills the end-to-end metrics of an untraced advise run.
fn report_untraced(out: &mut Outcome, timed: Timed) {
    let Timed {
        advise_s,
        loop_s,
        setup_s,
        last,
    } = timed;
    let setup = Samples::new(setup_s);
    out.note(format!(
        "advise times (s, in run order): {}",
        advise_s
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let advise = Samples::new(advise_s);
    out.metric(
        "setup_s",
        setup.median(),
        format!(
            "median of {} set-ups spread over the run (quartiles {:.4}..{:.4} s)",
            setup.len(),
            setup.quantile(0.25),
            setup.quantile(0.75)
        ),
    );
    out.note(format!(
        "advise_s = {} s  (median of {} advises; quartiles {:.4}..{:.4} s; report only)",
        advise.median(),
        advise.len(),
        advise.quantile(0.25),
        advise.quantile(0.75)
    ));
    out.metric(
        "episodes_per_s",
        advise.len() as f64 / loop_s,
        format!(
            "{} advises with their output checks in {loop_s:.3} s",
            advise.len()
        ),
    );
    if let Some(a) = &last {
        out.metric(
            "advised_cost_pct",
            100.0 * a.cost_ms / a.fs_cost_ms,
            format!(
                "{} ms advised vs {} ms FULL STRIPING",
                a.cost_ms, a.fs_cost_ms
            ),
        );
        out.note(format!(
            "improvement_pct = {} %  (Advisor semantics)",
            a.improvement_pct
        ));
        out.note(format!(
            "search: {} adopted moves, {} cost evaluations per advise",
            a.iterations, a.cost_evaluations
        ));
    }
    out.metric(
        "ok_pct",
        out.tally.ok_pct(),
        format!(
            "{} of {} advises passed their checks",
            out.tally.attempted - out.tally.failed,
            out.tally.attempted
        ),
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "VmHWM of this process");
}

/// What an untraced advise loop measured.
struct Timed {
    /// Advise times in run order, s.
    advise_s: Vec<f64>,
    /// Time spent advising and checking, s; set-ups are not in it.
    loop_s: f64,
    /// Set-up times, s: the run's first set-up, then one before each advise.
    setup_s: Vec<f64>,
    last: Option<Advice>,
}

/// Repeats `advise` (timed) and `check` (untimed) for `seconds` of
/// advising, at least [`MIN_ADVISES`] times. Before each advise a fresh
/// set-up is timed and dropped, outside the loop time, so the set-up
/// samples spread over the whole measured window.
fn timed_loop<T>(
    out: &mut Outcome,
    seconds: f64,
    first_setup_s: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut advise: impl FnMut() -> Result<Advice, String>,
    mut check: impl FnMut(&Advice) -> Result<(), String>,
) -> Result<Timed, String> {
    let mut timed = Timed {
        advise_s: Vec::new(),
        loop_s: 0.0,
        setup_s: vec![first_setup_s],
        last: None,
    };
    while timed.advise_s.len() < MIN_ADVISES || timed.loop_s < seconds {
        let (fresh, s) = set_up(&mut setup)?;
        timed.setup_s.push(s);
        drop(fresh);
        let t = Instant::now();
        let advice = advise();
        timed.advise_s.push(t.elapsed().as_secs_f64());
        out.tally.record(advice.and_then(|a| {
            check(&a)?;
            timed.last = Some(a);
            Ok(())
        }));
        timed.loop_s += t.elapsed().as_secs_f64();
    }
    Ok(timed)
}

// ---------------------------------------------------------------- tpch64

/// Inputs of `advise-tpch64`: the TPC-H SF1 catalog, the 22 queries as
/// SQL text, and Figure 11's 64 uniform drives. Nothing here is seeded.
pub struct TpchInputs {
    pub catalog: Catalog,
    pub disks: Vec<DiskSpec>,
    pub sql: String,
    pub sizes: Vec<u64>,
}

impl TpchInputs {
    pub fn new() -> Self {
        let catalog = tpch_catalog(1.0);
        let sizes = catalog.objects().iter().map(|o| o.size_blocks).collect();
        let mut sql = tpch22().join(";\n");
        sql.push_str(";\n");
        Self {
            catalog,
            disks: uniform_disks(64, 400_000, 10.0, 20.0),
            sql,
            sizes,
        }
    }
}

fn search_cfg(threads: usize) -> TsGreedyConfig {
    TsGreedyConfig {
        threads,
        ..Default::default()
    }
}

fn advice_of(rec: Recommendation) -> Advice {
    Advice {
        search_layout: rec.layout.clone(),
        search_cost_ms: rec.recommended_cost_ms,
        layout: rec.layout,
        cost_ms: rec.recommended_cost_ms,
        fs_cost_ms: rec.full_striping_cost_ms,
        improvement_pct: rec.estimated_improvement_pct,
        iterations: rec.search.iterations,
        cost_evaluations: rec.search.cost_evaluations,
    }
}

/// The inputs and result of one advice, as the layer calls produced them.
pub struct Pipeline {
    pub graph: Graph,
    pub workload: Workload,
    pub advice: Advice,
}

/// `Advisor::recommend_sql` up to the search, as separate layer calls:
/// the access graph and the decomposed sub-plan workload.
fn tpch_analyze(
    t: Option<&Tracer>,
    parent: u64,
    inputs: &TpchInputs,
) -> Result<(Graph, Workload), String> {
    let entries = span(t, "sql.parse", parent, |_| parse_workload_file(&inputs.sql))
        .map_err(|e| format!("parse failed: {e}"))?;
    let statements: Vec<(Statement, f64)> = entries
        .into_iter()
        .map(|e| (e.statement, e.weight))
        .collect();
    let advisor = Advisor::new(&inputs.catalog, &inputs.disks);
    let plans = span(t, "planner.plan", parent, |_| {
        advisor.plan_workload(&statements)
    })
    .map_err(|e| format!("planning failed: {e}"))?;
    let graph = span(t, "access_graph.build", parent, |_| {
        let mut g = Graph::new(inputs.sizes.len());
        extend_access_graph(&mut g, &plans);
        g
    });
    let workload = span(t, "costmodel.decompose", parent, |_| {
        decompose_workload(&plans)
    });
    Ok((graph, workload))
}

/// `Advisor::recommend_sql` as separate layer calls.
fn tpch_pipeline(t: Option<&Tracer>, parent: u64, inputs: &TpchInputs) -> Result<Pipeline, String> {
    let (graph, workload) = tpch_analyze(t, parent, inputs)?;
    let advice = search_and_fallback(
        t,
        parent,
        &inputs.sizes,
        &graph,
        &workload,
        &inputs.disks,
        &search_cfg(THREADS),
    )?;
    Ok(Pipeline {
        graph,
        workload,
        advice,
    })
}

pub fn run_tpch64(args: &Args) -> Result<Outcome, String> {
    // Set-up includes planning the sub-plan workload the output checks
    // re-cost against: it is the last thing before the first timed call.
    let make = || {
        let inputs = TpchInputs::new();
        let (_, workload) = tpch_analyze(None, ROOT, &inputs)?;
        Ok((inputs, workload))
    };
    let ((inputs, reference), first_setup_s) = set_up(make)?;
    if args.trace {
        return trace_tpch64(&inputs, TRACE_PAIRS);
    }
    let mut out = Outcome::default();
    out.note(format!(
        "advise-tpch64: Advisor::recommend_sql, TPC-H SF1, 22 queries, 64 drives, threads {THREADS}"
    ));
    let advisor = Advisor::new(&inputs.catalog, &inputs.disks);
    let cfg = AdvisorConfig {
        search: search_cfg(THREADS),
        ..Default::default()
    };
    let mut first_bits = None;
    let timed = timed_loop(
        &mut out,
        args.seconds,
        first_setup_s,
        make,
        || {
            advisor
                .recommend_sql(&inputs.sql, &cfg)
                .map(advice_of)
                .map_err(|e| format!("advise failed: {e}"))
        },
        |a| check_advice(a, &inputs.sizes, &reference, &inputs.disks, &mut first_bits),
    )?;
    report_untraced(&mut out, timed);
    Ok(out)
}

fn trace_tpch64(inputs: &TpchInputs, pairs: usize) -> Result<Outcome, String> {
    let advisor = Advisor::new(&inputs.catalog, &inputs.disks);
    let cfg = AdvisorConfig {
        search: search_cfg(THREADS),
        ..Default::default()
    };
    trace_advise(
        "advise-tpch64",
        &search_cfg(1),
        pairs,
        &inputs.sizes,
        &inputs.disks,
        || {
            advisor
                .recommend_sql(&inputs.sql, &cfg)
                .map(advice_of)
                .map_err(|e| format!("advise failed: {e}"))
        },
        |t, parent| tpch_pipeline(t, parent, inputs),
    )
}

// ------------------------------------------------------------------ mega

/// The committed mega search configuration: default partitioner
/// (multilevel at 900 nodes), `prune_width` 32, 128 adopted moves
/// (2 per drive).
fn mega_cfg(threads: usize) -> TsGreedyConfig {
    TsGreedyConfig {
        threads,
        prune_width: 32,
        max_iterations: 128,
        ..Default::default()
    }
}

fn mega_pipeline(t: Option<&Tracer>, parent: u64, inst: &MegaInstance) -> Result<Pipeline, String> {
    let graph = span(t, "access_graph.build", parent, |_| {
        build_access_graph_subplans(inst.sizes.len(), &inst.workload)
    });
    let advice = search_and_fallback(
        t,
        parent,
        &inst.sizes,
        &graph,
        &inst.workload,
        &inst.disks,
        &mega_cfg(THREADS),
    )?;
    Ok(Pipeline {
        graph,
        workload: Vec::new(),
        advice,
    })
}

fn mega_instance(seed: u64) -> MegaInstance {
    generate(&MegaConfig::scaled(900, 64, seed))
}

pub fn run_mega(args: &Args) -> Result<Outcome, String> {
    let make = || Ok(mega_instance(args.seed));
    let (inst, first_setup_s) = set_up(make)?;
    if args.trace {
        return trace_mega(&inst, TRACE_PAIRS);
    }
    let mut out = Outcome::default();
    out.note(format!(
        "advise-mega: {} ({} statements), prune_width 32, 128 moves, threads {THREADS}",
        inst.name,
        inst.workload.len()
    ));
    let mut first_bits = None;
    let timed = timed_loop(
        &mut out,
        args.seconds,
        first_setup_s,
        make,
        || mega_pipeline(None, ROOT, &inst).map(|p| p.advice),
        |a| check_advice(a, &inst.sizes, &inst.workload, &inst.disks, &mut first_bits),
    )?;
    report_untraced(&mut out, timed);
    Ok(out)
}

fn trace_mega(inst: &MegaInstance, pairs: usize) -> Result<Outcome, String> {
    trace_advise(
        "advise-mega",
        &mega_cfg(1),
        pairs,
        &inst.sizes,
        &inst.disks,
        || mega_pipeline(None, ROOT, inst).map(|p| p.advice),
        |t, parent| {
            mega_pipeline(t, parent, inst).map(|mut p| {
                p.workload = inst.workload.clone();
                p
            })
        },
    )
}

// --------------------------------------------------------------- tracing

/// Step 1 alone: the partitioner `Partitioner::Auto` selects, on `graph`
/// with min(drives, objects) parts. Returns the cut weight.
pub fn traced_step1(t: &Tracer, graph: &Graph, drives: usize) -> f64 {
    let parts = drives.min(graph.len()).max(1);
    let threshold = match Partitioner::default() {
        Partitioner::Auto { threshold } => threshold,
        _ => usize::MAX,
    };
    let assignment = t.span("partition.step1", ROOT, |_| {
        if graph.len() > threshold {
            multilevel_max_cut(graph, parts)
        } else {
            max_cut_partition(graph, parts)
        }
    });
    graph.cut_weight(&assignment)
}

/// Per-layer metrics derived from one traced advice: its spans, the
/// counter deltas around it, and step 1 measured alone.
pub fn report_search_layers(
    out: &mut Outcome,
    t: &Tracer,
    advice: &Advice,
    counts: &CounterSnapshot,
    cut_weight: f64,
) {
    let med = |name: &str| Samples::new(t.durations_ms(name)).median();
    let search_ms = med("tsgreedy.search");
    let step1_ms = med("partition.step1");
    let greedy_ms = (search_ms - step1_ms).max(0.0);
    out.metric(
        "access_graph.build_ms",
        med("access_graph.build"),
        "median span",
    );
    out.metric(
        "access_graph.node_updates",
        counts.get(Counter::GraphNodeUpdates) as f64,
        "counter delta over one advice",
    );
    out.metric(
        "access_graph.edge_updates",
        counts.get(Counter::GraphEdgeUpdates) as f64,
        "counter delta over one advice",
    );
    out.metric("tsgreedy.search_ms", search_ms, "median span");
    out.metric(
        "partition.step1_ms",
        step1_ms,
        "median span of step 1 called alone",
    );
    out.metric(
        "partition.cut_weight",
        cut_weight,
        "Graph::cut_weight of that partition",
    );
    out.metric(
        "tsgreedy.iterations",
        advice.iterations as f64,
        "adopted moves",
    );
    let scored = counts.get(Counter::TsgreedyCandidatesScored);
    let adopted = counts.get(Counter::TsgreedyCandidatesAdopted);
    out.metric(
        "tsgreedy.candidates_scored",
        scored as f64,
        "counter delta over one advice",
    );
    out.metric(
        "tsgreedy.adopt_pct",
        if scored > 0 {
            100.0 * adopted as f64 / scored as f64
        } else {
            0.0
        },
        format!("{adopted} adopted of {scored} scored"),
    );
    out.metric(
        "tsgreedy.ms_per_iteration",
        if advice.iterations > 0 {
            greedy_ms / advice.iterations as f64
        } else {
            0.0
        },
        "(search - step 1) / iterations",
    );
    out.metric(
        "tsgreedy.us_per_eval",
        if advice.cost_evaluations > 0 {
            1e3 * greedy_ms / advice.cost_evaluations as f64
        } else {
            0.0
        },
        format!(
            "(search - step 1) / {} cost evaluations",
            advice.cost_evaluations
        ),
    );
    out.metric(
        "tsgreedy.vs_fs_pct",
        100.0 * (advice.fs_cost_ms - advice.search_cost_ms) / advice.fs_cost_ms,
        format!(
            "search cost {} ms vs FULL STRIPING {} ms, before the fallback rule",
            advice.search_cost_ms, advice.fs_cost_ms
        ),
    );
    out.metric(
        "costmodel.full_eval_ms",
        med("costmodel.full_eval"),
        "median span, FULL STRIPING",
    );
    out.metric(
        "costmodel.delta_recosts",
        counts.get(Counter::CostmodelDeltaRecosts) as f64,
        "counter delta over one advice",
    );
    out.metric(
        "costmodel.full_recosts",
        counts.get(Counter::CostmodelFullRecosts) as f64,
        "counter delta over one advice",
    );
    out.metric(
        "par.chunk_items",
        counts.get(Counter::ParChunkItems) as f64,
        "counter delta over one advice",
    );
    out.metric(
        "par.pool_fallbacks",
        counts.get(Counter::ParPoolFallbacks) as f64,
        "counter delta over one advice; must be 0",
    );
}

/// Zeroes for the layers the offline workloads never enter.
fn report_absent_server_layers(out: &mut Outcome) {
    for name in [
        "planner.batch_plan_ms.p99",
        "session.ingest_ms.p99",
        "engine.whatif_ms.p50",
        "engine.ingest_ms.p50",
        "engine.recommend_ms.p50",
        "engine.relayout_ms.p50",
        "transport.overhead_ms.p50",
        "protocol.parse_us.p50",
        "protocol.serialize_us.p50",
        "server.cache_hit_pct",
        "server.cache_hits",
        "server.cache_misses",
        "audit.record_ms.p50",
        "audit.append_ms.p50",
        "audit.record_bytes",
        "audit.records_written",
        "relayout.budgeted_ms.p50",
        "relayout.migration_plan_ms.p50",
        "relayout.drift_ms.p50",
        "relayout.epoch_advances",
        "migration.steps_planned",
        "migration.blocks_planned",
    ] {
        out.metric(name, 0.0, "layer not used by this workload");
    }
}

/// A traced advise run: `pairs` × (untraced advice, traced layer-by-layer
/// advice), then step 1 alone and a search with `one_thread` (the
/// workload's search settings at 1 thread) on the same inputs.
fn trace_advise(
    workload: &str,
    one_thread: &TsGreedyConfig,
    pairs: usize,
    sizes: &[u64],
    disks: &[DiskSpec],
    mut untraced: impl FnMut() -> Result<Advice, String>,
    mut traced: impl FnMut(Option<&Tracer>, u64) -> Result<Pipeline, String>,
) -> Result<Outcome, String> {
    let t = Tracer::new();
    let mut out = Outcome::default();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut first = None;
    let mut first_bits = None;
    for _ in 0..pairs.max(1) {
        let t0 = Instant::now();
        let plain = untraced();
        untraced_ms.push(ms_since(t0));
        let before = counters::snapshot();
        let t0 = Instant::now();
        let pipeline = t.span("advise", ROOT, |id| traced(Some(&t), id));
        traced_ms.push(ms_since(t0));
        let counts = counters::snapshot().delta(&before);
        let checked = plain.and_then(|plain| {
            let p = pipeline?;
            check_advice(&plain, sizes, &p.workload, disks, &mut first_bits)?;
            check_advice(&p.advice, sizes, &p.workload, disks, &mut first_bits)?;
            Ok((p, counts))
        });
        out.tally
            .record(checked.as_ref().map(|_| ()).map_err(Clone::clone));
        if first.is_none() {
            first = checked.ok();
        }
    }
    let (pipeline, counts) = first.ok_or("no traced advice passed its checks")?;
    let cut_weight = traced_step1(&t, &pipeline.graph, disks.len());

    // Thread scaling on the same inputs: the 1-thread search must choose
    // the byte-identical layout.
    let workload_subplans = &pipeline.workload;
    let t1 = t
        .span("tsgreedy.search_t1", ROOT, |_| {
            ts_greedy(sizes, &pipeline.graph, workload_subplans, disks, one_thread)
        })
        .map_err(|e| format!("1-thread search failed: {e}"))?;
    out.tally.record(
        if layout_bits(&t1.layout) == layout_bits(&pipeline.advice.search_layout) {
            Ok(())
        } else {
            Err("the 1-thread and 2-thread searches chose different layouts".into())
        },
    );
    let search_ms = Samples::new(t.durations_ms("tsgreedy.search")).median();
    let t1_ms = Samples::new(t.durations_ms("tsgreedy.search_t1")).median();

    out.note(format!(
        "{workload} (traced): {} untraced/traced advice pairs",
        pairs.max(1)
    ));
    for (metric, span_name) in [
        ("sql.parse_ms", "sql.parse"),
        ("planner.plan_ms", "planner.plan"),
    ] {
        let d = t.durations_ms(span_name);
        let basis = if d.is_empty() {
            "no SQL in this workload"
        } else {
            "median span"
        };
        out.metric(metric, Samples::new(d).median(), basis);
    }
    report_search_layers(&mut out, &t, &pipeline.advice, &counts, cut_weight);
    out.metric(
        "par.speedup",
        t1_ms / search_ms,
        format!("1-thread search {t1_ms:.3} ms over {THREADS}-thread {search_ms:.3} ms"),
    );
    report_absent_server_layers(&mut out);
    let plain = Samples::new(untraced_ms).median();
    let with_spans = Samples::new(traced_ms).median();
    out.metric(
        "trace.overhead_pct",
        100.0 * (with_spans - plain) / plain,
        format!("traced advice {with_spans:.3} ms vs untraced {plain:.3} ms (medians)"),
    );
    let path = crate::out_dir().join(format!("trace-{workload}.jsonl"));
    t.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_counts as counts, COUNTER_TESTS};

    // Counts a later change may rest a claim on repeat exactly per seed.

    #[test]
    fn tpch64_counts_repeat_exactly() {
        let _serial = COUNTER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let inputs = TpchInputs::new();
        let a = trace_tpch64(&inputs, 1).unwrap();
        let b = trace_tpch64(&inputs, 1).unwrap();
        assert_eq!(a.tally.failed, 0, "{:?}", a.tally.failures);
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(a.values["par.pool_fallbacks"], 0.0);
    }

    #[test]
    fn mega_counts_repeat_exactly() {
        let _serial = COUNTER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let inst = mega_instance(crate::DEFAULT_SEED);
        let a = trace_mega(&inst, 1).unwrap();
        let b = trace_mega(&inst, 1).unwrap();
        assert_eq!(a.tally.failed, 0, "{:?}", a.tally.failures);
        assert_eq!(counts(&a), counts(&b));
    }
}
