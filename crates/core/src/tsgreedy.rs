//! TS-GREEDY: the two-step greedy search (paper §6.2, Figure 9).
//!
//! **Step 1 — minimize co-location.** Partition the access graph into `m`
//! parts maximizing the cut (co-accessed objects land apart), then assign
//! partitions, in descending total-node-weight order, to the smallest set
//! of yet-unused drives (fastest first) that can hold them; when drives run
//! out, merge with the already-assigned partition that shares the least
//! co-access.
//!
//! **Step 2 — grow I/O parallelism.** Repeatedly try widening each object
//! by up to `k` additional drives (allocating proportionally to transfer
//! rates, footnote 1), keep the single best-improving move, and stop when
//! no move improves the estimated workload cost.
//!
//! Extensions beyond the paper's description (its §6.2 omits them "due to
//! lack of space"): co-location constraints make whole groups move
//! together, availability constraints restrict each group's eligible
//! drives, and a data-movement bound rejects moves that stray too far from
//! the current layout.

use std::ops::Range;
use std::sync::Arc;

use dblayout_disksim::{DiskSpec, Layout};
use dblayout_obs::counters::{self, Counter, CounterSnapshot};
use dblayout_obs::{f, Collector, Span};
use dblayout_partition::{max_cut_partition, multilevel_max_cut, Graph};
use dblayout_planner::Subplan;

use crate::constraints::Constraints;
use crate::costmodel::{CostModel, DeltaEvaluator, EvalScratch, WideningTable};
use crate::par;

/// Step-1 partitioning engine (see DESIGN.md §11).
#[derive(Debug, Clone)]
pub enum Partitioner {
    /// KL directly on the (contracted) access graph — the paper's
    /// algorithm, O(n²·deg) per pass — at or below `threshold` graph
    /// nodes; the multilevel V-cycle (heavy-edge coarsen, KL on the
    /// coarsest graph, uncoarsen with boundary refinement; near-linear)
    /// above. `threshold: usize::MAX` always runs direct KL and
    /// `threshold: 0` always runs the V-cycle. The default keeps
    /// paper-scale searches on direct KL and gives mega-scale searches
    /// the near-linear path.
    Auto {
        /// Largest node count still sent to direct KL.
        threshold: usize,
    },
}

impl Default for Partitioner {
    fn default() -> Self {
        // Below ~200 nodes a KL pass is microseconds — coarsening
        // overhead isn't worth buying back, and direct KL keeps the
        // committed paper-scale results bit-identical.
        Partitioner::Auto { threshold: 192 }
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct TsGreedyConfig {
    /// Maximum drives added per greedy move (paper's `k`; experiments use 1).
    pub k: usize,
    /// Manageability/availability constraints.
    pub constraints: Constraints,
    /// Cost model used for the objective.
    pub cost_model: CostModel,
    /// Trace collector for search decisions (disabled by default; the hot
    /// loop pays one branch per iteration when off). See DESIGN.md §6 for
    /// the span taxonomy.
    pub collector: Collector,
    /// Worker threads for candidate scoring (`dblayout-par`). 1 (the
    /// default) evaluates inline with no concurrency machinery; any value
    /// produces byte-identical layouts, costs, and deterministic traces —
    /// candidates are scored in parallel but adopted in the fixed
    /// sequential candidate order (DESIGN.md §7). The CLI defaults this to
    /// the host's available parallelism.
    pub threads: usize,
    /// Start the greedy search from this layout instead of running step 1
    /// (`dblayout-relayout`). Seeded searches also enumerate *narrow*
    /// (drop one drive) and *swap* (drop one, add one) moves per group, so
    /// the search can walk away from the seed under a movement bound —
    /// pure widening from an already-deployed layout usually has nowhere
    /// to go. `None` (the default) is the paper's two-step search,
    /// bit-identical to the pre-seeding behaviour.
    pub seed: Option<Layout>,
    /// Step-1 partitioning engine. The default ([`Partitioner::Auto`])
    /// keeps paper-scale instances on the direct KL path bit-for-bit and
    /// switches to multilevel coarsening above its node threshold.
    pub partitioner: Partitioner,
    /// Pruned widening: re-score only the `prune_width` groups with the
    /// highest stale gain each iteration (priority-queue selection,
    /// gain-descending with group-id-ascending ties; unexamined groups
    /// rank +∞). `0` (the default) scores every group every iteration —
    /// the paper's exact greedy, and the bit-compatible baseline. When
    /// the pruned frontier finds no improving move, one full sweep
    /// decides between adopting and terminating, so a pruned search never
    /// stops while the unpruned one would keep going.
    pub prune_width: usize,
    /// Adaptive dispatch: engage one worker per `min_chunk` units of the
    /// iteration's scoring work, clamped to `[1, threads]`
    /// ([`par::effective_workers`]). A unit is one Figure-7 drive term or
    /// one step of a trial row or a ledger delta, which take about the
    /// same time (~4 ns on the 2-core reference host); DESIGN.md §7 lists
    /// what each item is charged.
    /// Iterations below the threshold run inline, where a hand-off would
    /// cost more than it saves. `0` always engages every worker. Either
    /// setting yields byte-identical results at any thread count.
    pub min_chunk: usize,
    /// Stop after this many adopted moves (`0` = run to convergence).
    /// A measurement budget for benchmarks on mega-scale instances; the
    /// prefix of adopted moves is identical to an unbudgeted run's.
    pub max_iterations: usize,
}

impl Default for TsGreedyConfig {
    fn default() -> Self {
        Self {
            k: 1,
            constraints: Constraints::none(),
            cost_model: CostModel::default(),
            collector: Collector::default(),
            threads: 1,
            seed: None,
            partitioner: Partitioner::default(),
            prune_width: 0,
            // ~65 µs of scoring per engaged worker on the reference host:
            // below ~130 µs per iteration, advise-tpch64's 2-thread search
            // lost to its 1-thread search (a helper's hand-off and cold
            // caches cost more than half the work saves).
            min_chunk: 16_384,
            max_iterations: 0,
        }
    }
}

/// Search failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The constraints admit no placement for some object.
    Infeasible(String),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Infeasible(why) => write!(f, "constraints are infeasible: {why}"),
        }
    }
}

impl std::error::Error for SearchError {}

/// Outcome of a TS-GREEDY run.
#[derive(Debug, Clone)]
pub struct TsGreedyResult {
    /// The recommended layout.
    pub layout: Layout,
    /// The layout the greedy loop started from: step 1's pure
    /// co-location minimization, or the caller's seed in seeded mode.
    pub initial_layout: Layout,
    /// Workload cost of `initial_layout`.
    pub initial_cost: f64,
    /// Workload cost of `layout`.
    pub final_cost: f64,
    /// Greedy iterations adopted.
    pub iterations: usize,
    /// Cost-model invocations (for scalability reporting): the full
    /// costings plus the ledger re-costs in `work`.
    pub cost_evaluations: usize,
    /// The search's own deterministic work counts. Each is also in the
    /// process registry; no other call's counts are in here.
    pub work: CounterSnapshot,
}

/// Runs TS-GREEDY.
///
/// * `sizes[i]` — object sizes in blocks (`|R_i|`);
/// * `graph` — the workload's access graph over the same object ids;
/// * `workload` — pre-decomposed weighted sub-plans (see
///   [`crate::costmodel::decompose_workload`]);
/// * `disks` — the drive set.
pub fn ts_greedy(
    sizes: &[u64],
    graph: &Graph,
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    cfg: &TsGreedyConfig,
) -> Result<TsGreedyResult, SearchError> {
    assert_eq!(sizes.len(), graph.len(), "graph must cover all objects");
    let n = sizes.len();
    let m = disks.len();
    assert!(m >= 1, "need at least one disk");

    // ---- Group objects by co-location constraints. ----
    let group_of = cfg.constraints.co_location_groups(n);
    let mut reps: Vec<usize> = group_of.clone();
    reps.sort_unstable();
    reps.dedup();
    let group_index: Vec<usize> = group_of
        .iter()
        .map(|g| reps.partition_point(|&r| r < *g))
        .collect();
    let g_count = reps.len();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); g_count];
    for (i, &gi) in group_index.iter().enumerate() {
        members[gi].push(i);
    }

    let collector = &cfg.collector;
    let search_span = collector.span(
        "tsgreedy.search",
        if collector.enabled() {
            vec![
                f("objects", n),
                f("groups", g_count),
                f("disks", m),
                f("k", cfg.k),
            ]
        } else {
            Vec::new()
        },
    );

    // Contracted access graph over groups.
    let mut cg = Graph::new(g_count);
    for (i, &gi) in group_index.iter().enumerate() {
        cg.add_node_weight(gi, graph.node_weight(i));
    }
    for (u, v, w) in graph.edges() {
        let (gu, gv) = (group_index[u], group_index[v]);
        if gu != gv {
            cg.add_edge(gu, gv, w);
        }
    }

    // Eligible disks per group (availability intersection).
    let mut eligible: Vec<Vec<usize>> = Vec::with_capacity(g_count);
    for mem in &members {
        let mut allowed: Vec<usize> = (0..m).collect();
        for &i in mem {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "object indices mirror the catalog's objects, whose ids are u32"
            )]
            let object = dblayout_catalog::ObjectId(i as u32);
            if let Some(e) = cfg.constraints.eligible_disks(object, disks) {
                allowed.retain(|j| e.contains(j));
            }
        }
        if allowed.is_empty() {
            return Err(SearchError::Infeasible(format!(
                "co-location group of object {} has no disk satisfying its availability requirements",
                mem[0]
            )));
        }
        eligible.push(allowed);
    }

    let layout = match &cfg.seed {
        Some(seed) => seed_layout(seed, n, disks, &search_span)?,
        None => step1_layout(
            sizes,
            disks,
            &cg,
            &members,
            &eligible,
            &group_index,
            &cfg.partitioner,
            &search_span,
        ),
    };

    let eval = cfg.cost_model.delta_evaluator(workload, &layout, disks);
    let initial_layout = layout.clone();
    let initial_cost = eval.total();
    if search_span.enabled() {
        search_span.event("tsgreedy.step1", vec![f("cost_ms", initial_cost)]);
    }

    // ---- Step 2: greedy parallelism widening (dblayout-par). ----
    let mut group_subs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g_count];
    for (subs, mem) in group_subs.iter_mut().zip(&members) {
        eval.touched(mem, subs);
    }
    let step2 = Step2 {
        cfg,
        workload,
        disks,
        members: &members,
        group_index: &group_index,
        eligible: &eligible,
        group_subs,
    };
    let job = step2.run(Job::new(layout, eval, &members, m), &search_span);
    let cost_evaluations = job.cost_evaluations();

    search_span.end_with(if collector.enabled() {
        vec![
            f("iterations", job.iterations),
            f("cost_evaluations", cost_evaluations),
            f("initial_cost_ms", initial_cost),
            f("final_cost_ms", job.cost),
        ]
    } else {
        Vec::new()
    });

    Ok(TsGreedyResult {
        layout: job.layout,
        initial_layout,
        initial_cost,
        final_cost: job.cost,
        iterations: job.iterations,
        cost_evaluations,
        work: job.work,
    })
}

/// Seeded mode (dblayout-relayout): the caller's layout replaces step 1.
/// The seed is the deployed layout of a running system, so it must
/// already be Definition-2 valid for these `n` objects and drives.
fn seed_layout(
    seed: &Layout,
    n: usize,
    disks: &[DiskSpec],
    search_span: &Span,
) -> Result<Layout, SearchError> {
    let m = disks.len();
    if seed.object_count() != n || seed.disk_count() != m {
        return Err(SearchError::Infeasible(format!(
            "seed layout is {}x{} but the search covers {n} objects on {m} disks",
            seed.object_count(),
            seed.disk_count()
        )));
    }
    seed.validate(disks)
        .map_err(|e| SearchError::Infeasible(format!("seed layout is invalid: {e}")))?;
    if search_span.enabled() {
        search_span.event("tsgreedy.seed", vec![f("objects", n), f("disks", m)]);
    }
    Ok(seed.clone())
}

/// One candidate move of a group: re-place it onto (current ∖ `drop`) ∪
/// `add`. Classic widening has no `drop`; seeded searches also enumerate
/// narrow (no `add`) and swap (one of each) moves. `add` indexes the
/// group's [`GroupState::drives`].
#[derive(Clone)]
struct Move {
    add: Range<usize>,
    drop: Option<usize>,
}

/// A candidate's verdict in one iteration.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    InvalidLayout,
    ConstraintViolation,
    Costable,
}

/// How an iteration decides a group's verdicts.
#[derive(Clone, Copy, PartialEq, Default)]
enum Checks {
    /// An unmoved row of the snapshot is invalid, so every candidate is
    /// `InvalidLayout`.
    #[default]
    NoneValid,
    /// No constraint is set and the group fits the smallest per-drive
    /// headroom: every candidate with values is costable (its values came
    /// from a valid trial of the same rows), and a trial decides the rest.
    Known,
    /// A trial decides every candidate: the capacity patch and the
    /// constraints read rows outside the group.
    Each,
}

/// A group's step-2 state, kept across iterations: its moves and its part
/// of the candidate memo — each candidate's re-costed sub-plan values and
/// ledger delta, and the candidates ordered by delta.
#[derive(Clone, Default)]
struct GroupState {
    /// The group's moves in the canonical order; rebuilt when it moves.
    moves: Vec<Move>,
    /// The drives the moves add.
    drives: Vec<usize>,
    /// `known[c]`: candidate `c` has values. Empty once the group or a
    /// sub-plan neighbour moved, or a pruned search evicted the group.
    known: Vec<bool>,
    /// How many entries of `known` are true.
    known_count: usize,
    /// The group's `group_subs` values per candidate, candidate-major.
    values: Vec<f64>,
    /// Per candidate with values, their `DeltaEvaluator::delta`.
    delta: Vec<f64>,
    /// The candidates with values by `(delta, position)`, current while
    /// `sorted` holds.
    order: Vec<usize>,
    sorted: bool,
    /// Every delta in `order` is finite.
    finite: bool,
    /// This iteration's verdict rule.
    checks: Checks,
    /// This iteration's slice of [`Job::items`].
    items: Range<usize>,
}

impl GroupState {
    fn is_known(&self, c: usize) -> bool {
        self.known.get(c) == Some(&true)
    }

    /// Candidate `c`'s memoized values (`width` of them).
    fn values(&self, c: usize, width: usize) -> &[f64] {
        &self.values[c * width..(c + 1) * width]
    }

    /// Whether candidate `c`, which has values, is costable this iteration.
    fn costable(&self, c: usize, verdicts: &[Verdict]) -> bool {
        match self.checks {
            Checks::NoneValid => false,
            Checks::Known => true,
            Checks::Each => verdicts[self.items.start + c] == Verdict::Costable,
        }
    }

    /// Memoizes candidate `c`'s values and delta.
    fn store(&mut self, c: usize, values: &[f64], delta: f64) {
        let (n, width) = (self.moves.len(), values.len());
        if self.known.len() != n {
            self.known.clear();
            self.known.resize(n, false);
            self.values.resize(n * width, 0.0);
            self.delta.resize(n, 0.0);
            self.known_count = 0;
        }
        self.values[c * width..(c + 1) * width].copy_from_slice(values);
        self.delta[c] = delta;
        self.known_count += usize::from(!self.known[c]);
        self.known[c] = true;
        self.sorted = false;
    }

    /// Drops candidate `c`'s values.
    fn unstore(&mut self, c: usize) {
        self.known[c] = false;
        self.known_count -= 1;
        self.sorted = false;
    }

    /// Drops every memoized value.
    fn forget(&mut self) {
        self.known.clear();
        self.known_count = 0;
        self.sorted = false;
    }

    /// Drops every memoized value and frees its buffers.
    fn evict(&mut self) {
        *self = GroupState {
            moves: std::mem::take(&mut self.moves),
            drives: std::mem::take(&mut self.drives),
            ..GroupState::default()
        };
    }

    /// Brings `order` and `finite` up to date.
    fn sort(&mut self) {
        if self.sorted {
            return;
        }
        let (known, delta) = (&self.known, &self.delta);
        self.order.clear();
        self.order.extend((0..known.len()).filter(|&c| known[c]));
        self.order
            .sort_unstable_by(|&a, &b| delta[a].total_cmp(&delta[b]).then(a.cmp(&b)));
        self.finite = self.order.iter().all(|&c| delta[c].is_finite());
        self.sorted = true;
    }
}

/// A candidate a worker re-checks, and re-prices when it lacks values.
#[derive(Clone, Copy)]
struct Item {
    group: usize,
    cand: usize,
    /// The widening table and class that price it, or `None` when the
    /// kernel does (DESIGN.md §7).
    widen: Option<(u32, u32)>,
}

/// The move selection's pick: the earliest strict minimum.
struct Best {
    group: usize,
    cand: usize,
    cost: f64,
}

/// One worker's output.
#[derive(Default)]
struct Chunk {
    /// Per item, in item order.
    verdicts: Vec<Verdict>,
    /// The re-priced items' values (costable items that lacked them),
    /// concatenated in item order.
    values: Vec<f64>,
    /// Their deltas.
    deltas: Vec<f64>,
    /// Sub-plans re-costed by a widening table or the Figure-7 kernel.
    recosts: u64,
    /// Figure-7 drive terms those re-costs evaluated.
    drive_terms: u64,
}

/// Reusable per-worker scratch: the kernel's accumulators, the incremental
/// validity check's usage/apportionment buffers, and the moved group's new
/// drive set. One per chunk invocation; every allocation in the item loop
/// lives here or in the chunk's output.
#[derive(Default)]
struct WorkerScratch {
    eval: EvalScratch,
    usage: Vec<u64>,
    row: Vec<u64>,
    apportion: Vec<(usize, f64)>,
    set: Vec<usize>,
}

/// The enumeration's growing buffers, kept across iterations.
#[derive(Default)]
struct EnumBuffers {
    /// Each item's work.
    work: Vec<usize>,
    /// A group's fresh widening moves and their table classes.
    fresh: Vec<(usize, u32)>,
}

/// The search state. Each iteration ships it to every worker as an
/// immutable snapshot and takes it back (the workers drop their handles
/// before replying) for the reduction and the adoption, so nothing in it is
/// cloned per iteration.
#[derive(Clone)]
struct Job<'a> {
    layout: Layout,
    /// The ledger of `layout`'s sub-plan costs.
    eval: DeltaEvaluator<'a>,
    cost: f64,
    /// Moves adopted so far.
    iterations: usize,
    /// The search's work counts so far, the ledger's initial costing
    /// included.
    work: CounterSnapshot,
    /// Per group, the pruned frontier's stale gain: optimistic (+∞) until
    /// first examined, then its best observed cost improvement.
    gain: Vec<f64>,
    /// A dry pruned frontier forces one full (arbitration) sweep.
    force_full: bool,
    /// Kept equal to `layout`: the dispatcher fills widening tables on it
    /// before dispatch, so the work and the counts are the same at every
    /// thread count.
    probe: Layout,
    /// Each group's drives (`layout.disks_of` of its first member).
    current_sets: Vec<Vec<usize>>,
    /// Per group, its moves and memo.
    groups: Vec<GroupState>,
    /// This iteration's items, group-major in move-list order.
    items: Vec<Item>,
    /// Per item, its verdict (filled from the chunks).
    verdicts: Vec<Verdict>,
    /// Worker `w` takes `items[bounds[w]..bounds[w + 1]]`; chunk ownership
    /// derives from this, not the pool width.
    bounds: Vec<usize>,
    /// Whether this iteration's re-costed values stay in the memo.
    admit: bool,
    /// Widening tables, buffers reused across iterations; items index this
    /// iteration's.
    tables: Vec<WideningTable>,
    /// `layout.blocks_on(i)` for every object, flattened with stride
    /// `disks.len()`.
    base_blocks: Vec<u64>,
    /// `layout.disk_usage()`.
    base_usage: Vec<u64>,
    /// The smallest per-drive headroom `capacity − base_usage`, or `None`
    /// when some drive is already over capacity.
    headroom: Option<u64>,
    /// Per-object row verdicts of `layout`.
    row_bad: Vec<bool>,
    /// How many entries of `row_bad` are true.
    bad_rows: usize,
}

impl<'a> Job<'a> {
    /// Step 2's starting point: `layout` (with `m` drives) and its ledger.
    fn new(layout: Layout, eval: DeltaEvaluator<'a>, members: &[Vec<usize>], m: usize) -> Self {
        let n = layout.object_count();
        // Building the ledger ran one full Figure-7 costing of `layout`.
        let mut work = CounterSnapshot::default();
        work.add(Counter::CostmodelFullRecosts, 1);
        let mut job = Job {
            current_sets: members.iter().map(|mem| layout.disks_of(mem[0])).collect(),
            probe: layout.clone(),
            layout,
            cost: eval.total(),
            eval,
            iterations: 0,
            work,
            gain: vec![f64::INFINITY; members.len()],
            force_full: false,
            groups: vec![GroupState::default(); members.len()],
            items: Vec::new(),
            verdicts: Vec::new(),
            bounds: Vec::new(),
            admit: false,
            tables: Vec::new(),
            base_blocks: vec![0; n * m],
            base_usage: vec![0; m],
            headroom: None,
            row_bad: vec![false; n],
            bad_rows: 0,
        };
        job.refresh_rows(0..n);
        job
    }

    /// Cost evaluations so far: the full costings plus the ledger
    /// re-costs.
    fn cost_evaluations(&self) -> usize {
        let evals = self.work.get(Counter::CostmodelFullRecosts)
            + self.work.get(Counter::CostmodelDeltaRecosts);
        usize::try_from(evals).unwrap_or(usize::MAX)
    }

    /// Refreshes the validity snapshot's `rows` from `layout`: their
    /// per-drive blocks, patching the usage with exact integer deltas, and
    /// their verdicts.
    fn refresh_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        let m = self.base_usage.len();
        let (mut row, mut apportion) = (Vec::with_capacity(m), Vec::with_capacity(m));
        for i in rows {
            self.layout.blocks_on_into(i, &mut row, &mut apportion);
            let old = &self.base_blocks[i * m..(i + 1) * m];
            for (j, (&b_new, &b_old)) in row.iter().zip(old).enumerate() {
                self.base_usage[j] = self.base_usage[j] - b_old + b_new;
            }
            self.base_blocks[i * m..(i + 1) * m].copy_from_slice(&row);
            let bad = !self.layout.row_is_valid(i);
            self.bad_rows = self.bad_rows - usize::from(self.row_bad[i]) + usize::from(bad);
            self.row_bad[i] = bad;
        }
    }

    /// Fills `set` with group `g`'s drive set after `mv`.
    fn new_set(&self, g: usize, mv: &Move, set: &mut Vec<usize>) {
        set.clear();
        set.extend(
            self.current_sets[g]
                .iter()
                .copied()
                .filter(|&j| Some(j) != mv.drop),
        );
        set.extend_from_slice(&self.groups[g].drives[mv.add.clone()]);
    }

    /// A moved group no larger than the smallest per-drive headroom passes
    /// the capacity check: each moved object adds at most its own size to
    /// any drive.
    fn fits_headroom(&self, moved: &[usize]) -> bool {
        let moved_blocks = moved.iter().fold(0u64, |sum, &i| {
            sum.saturating_add(self.layout.object_size(i))
        });
        self.headroom.is_some_and(|h| moved_blocks <= h)
    }

    /// Whether some unmoved row of the snapshot is invalid.
    fn unmoved_row_bad(&self, moved: &[usize]) -> bool {
        let moved_bad = moved.iter().filter(|&&i| self.row_bad[i]).count();
        self.bad_rows != moved_bad
    }

    /// Incremental Definition-2 check: the same verdict as
    /// `trial.validate(disks).is_ok()` given that `trial` differs from
    /// `self.layout` only in `moved`'s rows. Unmoved rows keep the
    /// snapshot's verdicts. A group that fits the headroom passes the
    /// capacity check without apportioning. Otherwise per-disk usage is
    /// patched by swapping the moved objects' old block counts for their
    /// new ones — exact integer arithmetic (`blocks_on` is deterministic
    /// per row), so the capacity comparison is bit-for-bit the full scan's.
    fn trial_is_valid(
        &self,
        trial: &Layout,
        moved: &[usize],
        disks: &[DiskSpec],
        scratch: &mut WorkerScratch,
    ) -> bool {
        if self.unmoved_row_bad(moved) {
            return false;
        }
        if !moved.iter().all(|&i| trial.row_is_valid(i)) {
            return false;
        }
        if self.fits_headroom(moved) {
            return true;
        }
        let m = disks.len();
        scratch.usage.clear();
        scratch.usage.extend_from_slice(&self.base_usage);
        for &i in moved {
            trial.blocks_on_into(i, &mut scratch.row, &mut scratch.apportion);
            let base = &self.base_blocks[i * m..(i + 1) * m];
            for (j, &b) in base.iter().enumerate() {
                // `usage[j]` still includes `base[j]` (each moved object is
                // swapped out exactly once), so the subtraction cannot
                // underflow.
                scratch.usage[j] = scratch.usage[j] - b + scratch.row[j];
            }
        }
        scratch
            .usage
            .iter()
            .zip(disks)
            .all(|(&used, d)| used <= d.capacity_blocks)
    }
}

/// What step 2 fixes for the whole search, shared read-only by its phases
/// (DESIGN.md §7): the groups, their eligible drives and the sub-plans
/// their moves re-cost. Each group keeps its moves, its candidates'
/// values and their order by ledger delta across iterations; an adoption
/// invalidates only the moved group and its sub-plan neighbours. Each
/// iteration lists the candidates that need a trial, checks and re-prices
/// them in parallel against an immutable snapshot (each worker a
/// contiguous chunk), merges them into the memo, and selects the earliest
/// strict minimum — folding exactly only the candidates the fold bracket
/// cannot exclude, so the choice is the sequential scan's at any thread
/// count — and adopts it.
struct Step2<'a> {
    cfg: &'a TsGreedyConfig,
    workload: &'a [(Vec<Subplan>, f64)],
    disks: &'a [DiskSpec],
    members: &'a [Vec<usize>],
    group_index: &'a [usize],
    eligible: &'a [Vec<usize>],
    /// The sub-plans each group's candidates re-cost: fixed for the search,
    /// since a move rewrites only its own group's rows.
    group_subs: Vec<Vec<(u32, u32)>>,
}

impl Step2<'_> {
    /// Runs step 2 from `job` to convergence (or `max_iterations`):
    /// enumerate, score in parallel, reduce, adopt.
    fn run<'a>(&self, job: Job<'a>, search_span: &Span) -> Job<'a> {
        let g_count = self.members.len();
        let prune = self.cfg.prune_width;
        let pruned_search = prune > 0 && prune < g_count;
        let threads = self.cfg.threads.max(1);
        let score = |w: usize, job: &Job<'_>| self.score(w, job);
        par::with_pool(threads, &score, |pool| {
            let mut job = job;
            for g in 0..g_count {
                self.enumerate_moves(&mut job, g);
            }
            let mut bufs = EnumBuffers::default();
            loop {
                let iter_span = search_span.child(
                    "tsgreedy.iteration",
                    if search_span.enabled() {
                        vec![f("iter", job.iterations + 1)]
                    } else {
                        Vec::new()
                    },
                );
                let pruning = pruned_search && !job.force_full;
                let active = if pruning {
                    frontier(&job.gain, prune)
                } else {
                    vec![true; g_count]
                };
                // The memo admits values where they are scored again soon:
                // every group of an unpruned search, the frontier of a
                // pruned one. A pruned search evicts groups that left the
                // frontier and admits nothing in an arbitration sweep, so
                // its memo holds at most `prune_width` groups.
                job.admit = pruning || !pruned_search;
                if pruning {
                    for (state, &on) in job.groups.iter_mut().zip(&active) {
                        if !on {
                            state.evict();
                        }
                    }
                }
                let workers = self.enumerate(&mut job, &active, &mut bufs);
                let shared = Arc::new(job);
                let chunks = pool.dispatch_to(shared.clone(), workers);
                job = Arc::unwrap_or_clone(shared);
                let cost = job.cost;
                let Some(best) = self.reduce(
                    &mut job,
                    chunks,
                    &active,
                    pruned_search,
                    &iter_span,
                    pool.threads(),
                ) else {
                    if pruning {
                        // The pruned frontier is dry; one full sweep
                        // decides between another adoption and
                        // termination, so pruning never stops a search the
                        // full enumeration would still be improving.
                        if iter_span.enabled() {
                            iter_span.event("tsgreedy.prune_dry", vec![f("cost_ms", cost)]);
                        }
                        iter_span.end();
                        job.force_full = true;
                        continue;
                    }
                    if iter_span.enabled() {
                        iter_span.event("tsgreedy.no_move", vec![f("cost_ms", cost)]);
                    }
                    iter_span.end();
                    break;
                };
                self.adopt(&mut job, best, &iter_span);
                iter_span.end();
                if self.cfg.max_iterations != 0 && job.iterations >= self.cfg.max_iterations {
                    break;
                }
            }
            job
        })
    }

    /// Rebuilds group `g`'s move list from its current drives in the
    /// canonical order: every combination of at most `k` of its eligible
    /// drives outside its current ones (combination order preserved), then
    /// a seeded search's narrow and swap moves. Memo keys, trace order and
    /// earliest-wins ties all key off this order.
    fn enumerate_moves(&self, job: &mut Job<'_>, g: usize) {
        let current_set = &job.current_sets[g];
        let candidates: Vec<usize> = self.eligible[g]
            .iter()
            .copied()
            .filter(|j| !current_set.contains(j))
            .collect();
        let state = &mut job.groups[g];
        state.moves.clear();
        state.drives.clear();
        let (moves, drives) = (&mut state.moves, &mut state.drives);
        for_each_combination(&candidates, self.cfg.k, &mut Vec::new(), 0, &mut |add| {
            let at = drives.len();
            drives.extend_from_slice(add);
            moves.push(Move {
                add: at..drives.len(),
                drop: None,
            });
        });
        if self.cfg.seed.is_some() {
            // Narrow: shed one drive (an object must keep ≥ 1 drive).
            // Swap: trade one current drive for one eligible candidate.
            if current_set.len() >= 2 {
                moves.extend(current_set.iter().map(|&drop| Move {
                    add: 0..0,
                    drop: Some(drop),
                }));
            }
            for &drop in current_set {
                for &c in &candidates {
                    drives.push(c);
                    moves.push(Move {
                        add: drives.len() - 1..drives.len(),
                        drop: Some(drop),
                    });
                }
            }
        }
        state.forget();
    }

    /// Decides this iteration's verdict rule for each active group, lists
    /// the candidates that need a trial as items (group-major, in move-list
    /// order) with each one's scoring work, fills the widening tables that
    /// price the fresh widening moves (those the memo lacks), and returns
    /// the workers to engage. A group whose every candidate has values and
    /// needs no trial costs O(1) here.
    fn enumerate(&self, job: &mut Job<'_>, active: &[bool], bufs: &mut EnumBuffers) -> usize {
        job.items.clear();
        let (work, fresh) = (&mut bufs.work, &mut bufs.fresh);
        work.clear();
        job.headroom = job
            .base_usage
            .iter()
            .zip(self.disks)
            .try_fold(u64::MAX, |h, (&used, d)| {
                Some(h.min(d.capacity_blocks.checked_sub(used)?))
            });
        let unconstrained = self.cfg.constraints.is_empty();
        let mut tables_used = 0usize;
        let mut table_scratch = EvalScratch::new();
        for (g, &on) in active.iter().enumerate() {
            if !on {
                continue;
            }
            let start = job.items.len();
            let moved = &self.members[g];
            let checks = if job.unmoved_row_bad(moved) {
                Checks::NoneValid
            } else if unconstrained && job.fits_headroom(moved) {
                Checks::Known
            } else {
                Checks::Each
            };
            // Scoring work in drive-term units (DESIGN.md §7): a trial
            // rewrites the group's rows; a candidate it re-prices also
            // evaluates drive terms for each sub-plan, those of all its new
            // drives through the kernel, and one delta step per sub-plan.
            let width = self.group_subs[g].len();
            let trial_work = moved.len() * self.disks.len();
            let current = job.current_sets[g].len();
            let state = &job.groups[g];
            fresh.clear();
            if checks != Checks::Known || state.known_count != state.moves.len() {
                for (c, mv) in state.moves.iter().enumerate() {
                    let known = state.is_known(c);
                    if !known && width > 0 && mv.drop.is_none() {
                        fresh.push((c, 0));
                    }
                    let item = match checks {
                        Checks::NoneValid => false,
                        Checks::Known => !known,
                        Checks::Each => true,
                    };
                    if item {
                        job.items.push(Item {
                            group: g,
                            cand: c,
                            widen: None,
                        });
                        let priced = if known {
                            0
                        } else {
                            width * (current + mv.add.len() + 1)
                        };
                        work.push(trial_work + priced);
                    }
                }
            }
            let state = &mut job.groups[g];
            state.checks = checks;
            state.items = start..job.items.len();
            // Price the group's fresh widening moves from one table,
            // filled here before dispatch; a table-priced move evaluates
            // only its added drives.
            if fresh.is_empty() {
                continue;
            }
            if job.tables.len() == tables_used {
                job.tables.push(WideningTable::default());
            }
            let table = &mut job.tables[tables_used];
            table.reset(moved, &job.current_sets[g], &self.group_subs[g], self.cfg.k);
            let mut classes = 0;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "class counts a group's distinct drive-rate totals, far below 2^32"
            )]
            for (c, class) in fresh.iter_mut() {
                let add = &state.drives[state.moves[*c].add.clone()];
                let k = table.class_of(add, self.disks);
                classes = classes.max(k + 1);
                *class = k as u32;
            }
            // A table pays when moves share a class; with every total
            // distinct (drives of distinct rates) its fill only adds work
            // to the kernel's.
            if classes < fresh.len()
                && job.eval.fill_widening_table(
                    table,
                    &job.layout,
                    &mut job.probe,
                    &mut table_scratch,
                )
            {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "tables_used counts this iteration's groups, far below 2^32"
                )]
                let t = tables_used as u32;
                tables_used += 1;
                // Every fresh move that is an item (all of them, unless
                // the group is `NoneValid`) is priced from the table.
                let mut fresh = fresh.iter().peekable();
                for (item, w) in job.items[start..].iter_mut().zip(&mut work[start..]) {
                    if let Some(&&(c, class)) = fresh.peek() {
                        if c == item.cand {
                            item.widen = Some((t, class));
                            *w -= width * current;
                            fresh.next();
                        }
                    }
                }
            }
        }
        job.work
            .add(Counter::CostmodelDriveTerms, table_scratch.drive_terms());
        // Adaptive dispatch: width and chunk bounds from the items' work.
        // Both are pure functions of the enumeration and the memo, so they
        // are identical at every thread count (and trivially so for a
        // 1-thread pool).
        let workers = par::effective_workers(
            work.iter().sum(),
            self.cfg.threads.max(1),
            self.cfg.min_chunk,
        );
        job.bounds = par::weighted_bounds(work, workers);
        workers
    }

    /// Checks and re-prices worker `w`'s chunk of the snapshot's items —
    /// the pool's scoring closure. Each item rewrites its group's rows in a
    /// scratch trial (one per chunk, cloned when its first item needs one),
    /// is validated incrementally against the snapshot and checked against
    /// the constraints; a costable item without values is re-costed from
    /// its widening table or through the kernel, and its delta taken; then
    /// its rows are restored: no per-candidate layout clone, no O(objects)
    /// validation.
    fn score(&self, w: usize, job: &Job<'_>) -> Chunk {
        let range = job.bounds[w]..job.bounds[w + 1];
        // Scheduling-class accounting: one relaxed add per chunk, so the
        // per-item loop below stays free of atomics. Chunk sizes (and
        // re-scored chunks after a dead-worker fallback) depend on the
        // engaged-worker count, so this never joins the deterministic set.
        counters::add(Counter::ParChunkItems, range.len() as u64);
        let mut chunk = Chunk {
            verdicts: Vec::with_capacity(range.len()),
            ..Chunk::default()
        };
        let mut scratch = WorkerScratch::default();
        let mut scratch_trial: Option<Layout> = None;
        for item in &job.items[range] {
            let (g, c) = (item.group, item.cand);
            let state = &job.groups[g];
            let mv = &state.moves[c];
            let moved: &[usize] = &self.members[g];
            let subs: &[(u32, u32)] = &self.group_subs[g];
            let trial = scratch_trial.get_or_insert_with(|| job.layout.clone());
            job.new_set(g, mv, &mut scratch.set);
            for &i in moved {
                trial.place_proportional(i, &scratch.set, self.disks);
            }
            let verdict = if !job.trial_is_valid(trial, moved, self.disks, &mut scratch) {
                Verdict::InvalidLayout
            } else if self.cfg.constraints.check(trial, self.disks).is_err() {
                Verdict::ConstraintViolation
            } else {
                Verdict::Costable
            };
            if verdict == Verdict::Costable && !state.is_known(c) {
                chunk.recosts += subs.len() as u64;
                let start = chunk.values.len();
                if let Some((t, class)) = item.widen {
                    job.eval.price_widening(
                        &job.tables[t as usize],
                        class as usize,
                        &state.drives[mv.add.clone()],
                        trial,
                        &mut chunk.values,
                        &mut scratch.eval,
                    );
                    if cfg!(debug_assertions) {
                        let mut kernel = Vec::new();
                        let fresh = &mut EvalScratch::new();
                        job.eval.recost_into(trial, subs, &mut kernel, fresh);
                        let table = chunk.values[start..].iter().map(|v| v.to_bits());
                        assert!(
                            kernel.iter().map(|v| v.to_bits()).eq(table),
                            "widening table priced group {g}'s candidate {c} off the kernel"
                        );
                    }
                } else {
                    job.eval
                        .recost_into(trial, subs, &mut chunk.values, &mut scratch.eval);
                }
                chunk
                    .deltas
                    .push(job.eval.delta(subs, &chunk.values[start..]));
            }
            for &i in moved {
                trial.copy_row_from(&job.layout, i);
            }
            chunk.verdicts.push(verdict);
        }
        chunk.drive_terms = scratch.eval.drive_terms();
        chunk
    }

    /// Merges the chunks in worker (= item) order: their verdicts, and the
    /// re-priced values and deltas into the memo (for this iteration only
    /// when it admits nothing). Adds the deterministic counters, emits each
    /// candidate's trace event (this is the only emitting thread, so the
    /// order and content are a sequential scan's), and returns the move
    /// [`Step2::select`] picks.
    fn reduce(
        &self,
        job: &mut Job<'_>,
        chunks: Vec<Chunk>,
        active: &[bool],
        per_group: bool,
        iter_span: &Span,
        threads: usize,
    ) -> Option<Best> {
        job.verdicts.clear();
        let mut transient = Vec::new();
        let mut items = job.items.iter();
        for chunk in &chunks {
            let (mut at, mut priced) = (0, 0);
            for (&verdict, item) in chunk.verdicts.iter().zip(&mut items) {
                job.verdicts.push(verdict);
                let state = &mut job.groups[item.group];
                if verdict == Verdict::Costable && !state.is_known(item.cand) {
                    let width = self.group_subs[item.group].len();
                    state.store(
                        item.cand,
                        &chunk.values[at..at + width],
                        chunk.deltas[priced],
                    );
                    at += width;
                    priced += 1;
                    if !job.admit {
                        transient.push((item.group, item.cand));
                    }
                }
            }
        }
        // Deterministic-class accounting, batched on the dispatcher thread
        // so the reduction (not the workers) owns the counts: the totals
        // replay the sequential enumeration exactly and are byte-identical
        // at any thread count. Every enumerated candidate gets one
        // Definition-2 validity check, every scored (costable) candidate
        // one re-cost on the ledger, and the sub-plan and drive-term counts
        // sum the chunks'.
        let (mut enumerated, mut scored) = (0, 0);
        for (state, _) in job.groups.iter_mut().zip(active).filter(|(_, &on)| on) {
            state.sort();
            enumerated += state.moves.len() as u64;
            scored += match state.checks {
                Checks::NoneValid => 0,
                Checks::Known => state.known_count,
                Checks::Each => job.verdicts[state.items.clone()]
                    .iter()
                    .filter(|&&v| v == Verdict::Costable)
                    .count(),
            } as u64;
        }
        let recosts = chunks.iter().map(|ch| ch.recosts).sum();
        let drive_terms = chunks.iter().map(|ch| ch.drive_terms).sum();
        let work = &mut job.work;
        work.add(Counter::TsgreedyCandidatesEnumerated, enumerated);
        work.add(Counter::TsgreedyValidityChecks, enumerated);
        work.add(Counter::TsgreedyCandidatesScored, scored);
        work.add(Counter::CostmodelDeltaRecosts, scored);
        work.add(Counter::CostmodelSubplanRecosts, recosts);
        work.add(Counter::CostmodelDriveTerms, drive_terms);
        if iter_span.enabled() {
            // Trace-only folds: every costable candidate's exact cost for
            // its event, uncounted; the selection below does not use them.
            let cost = job.cost;
            self.each_candidate(job, active, |g, c, verdict, folded| {
                let mv = &job.groups[g].moves[c];
                let (costed, reason) = match folded {
                    Some(x) if x < cost - 1e-9 => (Some((x, x - cost)), "improves"),
                    Some(x) => (Some((x, x - cost)), "no_improvement"),
                    None if verdict == Verdict::ConstraintViolation => {
                        (None, "constraint_violation")
                    }
                    None => (None, "invalid_layout"),
                };
                iter_span.event(
                    "tsgreedy.candidate",
                    candidate_fields(
                        g,
                        &self.members[g],
                        &job.groups[g].drives[mv.add.clone()],
                        mv.drop.as_slice(),
                        costed,
                        Some(reason),
                    ),
                );
            });
            // Per-worker item counts are scheduling detail: they vary with
            // the thread count, so they only appear on timed (wall-clock)
            // collectors, never in deterministic traces.
            if self.cfg.collector.timed() {
                let counts: Vec<usize> = chunks.iter().map(|ch| ch.verdicts.len()).collect();
                iter_span.event(
                    "tsgreedy.workers",
                    vec![
                        f("threads", threads),
                        f("candidates_per_worker", id_list(&counts)),
                    ],
                );
            }
        }
        let best = self.select(job, active, per_group);
        for (g, c) in transient {
            job.groups[g].unstore(c);
        }
        best
    }

    /// Visits every candidate of the active groups in the canonical order
    /// (group-major, move-list order within a group) with its verdict and,
    /// when it is costable, its exact fold.
    fn each_candidate(
        &self,
        job: &Job<'_>,
        active: &[bool],
        mut visit: impl FnMut(usize, usize, Verdict, Option<f64>),
    ) {
        for (g, state) in job.groups.iter().enumerate().filter(|&(g, _)| active[g]) {
            let subs = &self.group_subs[g];
            let mut next = state.items.start;
            for c in 0..state.moves.len() {
                // Items are the candidates a trial decided; any other
                // candidate is costable with values (`Known`) or invalid
                // (`NoneValid`).
                let verdict = if next < state.items.end && job.items[next].cand == c {
                    next += 1;
                    job.verdicts[next - 1]
                } else if state.checks == Checks::Known {
                    Verdict::Costable
                } else {
                    Verdict::InvalidLayout
                };
                let folded = (verdict == Verdict::Costable)
                    .then(|| job.eval.fold(subs, state.values(c, subs.len())));
                visit(g, c, verdict, folded);
            }
        }
    }

    /// The sequential scan the selection must reproduce: every costable
    /// candidate folded, in the canonical order. Returns the earliest
    /// strict minimum below `cost − 1e-9`, the stale gains with each active
    /// group's refreshed to its best observed improvement (−∞ when nothing
    /// was costable), and the folds it ran.
    fn sweep(&self, job: &Job<'_>, active: &[bool]) -> (Option<Best>, Vec<f64>, u64) {
        let (cost, limit) = (job.cost, job.cost - 1e-9);
        let mut gains = job.gain.clone();
        for (gain, &on) in gains.iter_mut().zip(active) {
            if on {
                *gain = f64::NEG_INFINITY;
            }
        }
        let (mut best, mut folds): (Option<Best>, u64) = (None, 0);
        self.each_candidate(job, active, |group, cand, _, folded| {
            let Some(x) = folded else { return };
            folds += 1;
            if x < limit && best.as_ref().is_none_or(|b| x < b.cost) {
                best = Some(Best {
                    group,
                    cand,
                    cost: x,
                });
            }
            if cost - x > gains[group] {
                gains[group] = cost - x;
            }
        });
        (best, gains, folds)
    }

    /// Selects the move to adopt: the earliest strict minimum below
    /// `cost − 1e-9` over the active groups' costable candidates, as
    /// [`Step2::sweep`] finds it, folding exactly only the candidates that
    /// can still win. Every costable candidate's fold lies within its
    /// [`FoldBracket`](crate::costmodel::FoldBracket) of `total + Δ` (DESIGN.md §7). `U` is the smallest
    /// upper end — each group's first costable candidate in delta order —
    /// so a candidate whose `total + Δ` lies beyond `approx_limit(min(U,
    /// cost − 1e-9))` folds strictly above a folded candidate or the
    /// improvement threshold, and can neither win nor tie. A pruned search
    /// also needs each active group's exact best for its stale gain, so it
    /// brackets each group by its own `U`. When a weight, a ledger cost or
    /// a delta is negative or not finite, every costable candidate is
    /// folded. Debug builds check the pick against the full sweep.
    fn select(&self, job: &mut Job<'_>, active: &[bool], per_group: bool) -> Option<Best> {
        let bracket = |g: usize| job.eval.bracket(self.group_subs[g].len());
        let bracketed = active
            .iter()
            .zip(&job.groups)
            .enumerate()
            .all(|(g, (&on, state))| !on || (state.finite && bracket(g).is_some()));
        if !bracketed {
            let (best, gains, folds) = self.sweep(job, active);
            job.work.add(Counter::TsgreedyExactFolds, folds);
            if per_group {
                job.gain = gains;
            }
            return best;
        }
        let (cost, limit) = (job.cost, job.cost - 1e-9);
        let verdicts = &job.verdicts;
        // A group's smallest upper end: its first costable candidate in
        // delta order, since `upper` is non-decreasing in the delta.
        let first_upper = |g: usize| {
            let (state, b) = (&job.groups[g], bracket(g)?);
            let c = *state.order.iter().find(|&&c| state.costable(c, verdicts))?;
            Some(b.upper(state.delta[c]))
        };
        let global = (!per_group).then(|| {
            (0..active.len())
                .filter(|&g| active[g])
                .filter_map(first_upper)
                .fold(limit, f64::min)
        });
        let (mut best, mut folds): (Option<Best>, u64) = (None, 0);
        for (g, state) in job.groups.iter().enumerate().filter(|&(g, _)| active[g]) {
            let Some(threshold) = global.or_else(|| first_upper(g)) else {
                job.gain[g] = f64::NEG_INFINITY;
                continue;
            };
            let Some(b) = bracket(g) else { continue };
            let (subs, reach) = (&self.group_subs[g], b.approx_limit(threshold));
            let mut group_best: Option<(f64, usize)> = None;
            for &c in &state.order {
                if !state.costable(c, verdicts) {
                    continue;
                }
                if b.approx(state.delta[c]) > reach {
                    break;
                }
                let x = job.eval.fold(subs, state.values(c, subs.len()));
                folds += 1;
                if group_best.is_none_or(|(y, d)| x < y || (x == y && c < d)) {
                    group_best = Some((x, c));
                }
            }
            if per_group {
                job.gain[g] = group_best.map_or(f64::NEG_INFINITY, |(x, _)| cost - x);
            }
            if let Some((x, cand)) = group_best {
                // Groups are visited in the canonical order, so the strict
                // `<` keeps the earliest group's candidate on a tie.
                if x < limit && best.as_ref().is_none_or(|b| x < b.cost) {
                    best = Some(Best {
                        group: g,
                        cand,
                        cost: x,
                    });
                }
            }
        }
        if cfg!(debug_assertions) {
            let (full, full_gains, _) = self.sweep(job, active);
            let key = |b: &Best| (b.group, b.cand, b.cost.to_bits());
            assert_eq!(
                best.as_ref().map(key),
                full.as_ref().map(key),
                "the fold bracket missed the full sweep's earliest strict minimum"
            );
            if per_group {
                for g in (0..active.len()).filter(|&g| active[g]) {
                    let (gain, want) = (job.gain[g], full_gains[g]);
                    assert_eq!(gain.to_bits(), want.to_bits(), "group {g}'s gain");
                }
            }
            self.each_candidate(job, active, |g, c, _, folded| {
                let (Some(x), Some(b)) = (folded, bracket(g)) else {
                    return;
                };
                let delta = job.groups[g].delta[c];
                assert!(
                    x <= b.upper(delta) && b.approx(delta) <= b.approx_limit(x),
                    "group {g}'s candidate {c} folds to {x} outside its bracket"
                );
            });
        }
        job.work.add(Counter::TsgreedyExactFolds, folds);
        best
    }

    /// Adopts `best`: re-places its group in the snapshot's layout (the
    /// placement is deterministic, so this is bit-for-bit the layout the
    /// worker scored), installs its re-costed values in the ledger,
    /// invalidates the memo where the move changed an input, rebuilds the
    /// moved group's moves and patches the validity snapshot's moved rows.
    fn adopt(&self, job: &mut Job<'_>, best: Best, iter_span: &Span) {
        let g = best.group;
        let mv = job.groups[g].moves[best.cand].clone();
        let (members, subs) = (&self.members[g], &self.group_subs[g]);
        if iter_span.enabled() {
            iter_span.event(
                "tsgreedy.adopt",
                candidate_fields(
                    g,
                    members,
                    &job.groups[g].drives[mv.add.clone()],
                    mv.drop.as_slice(),
                    Some((best.cost, best.cost - job.cost)),
                    None,
                ),
            );
        }
        let mut set = Vec::new();
        job.new_set(g, &mv, &mut set);
        for &i in members {
            job.layout.place_proportional(i, &set, self.disks);
        }
        // The winner's values, re-costed through the kernel (bit-identical
        // to the memo's or the table's); the adoption is not scoring work,
        // so its sub-plans and drive terms are not counted.
        let mut values = Vec::with_capacity(subs.len());
        job.eval
            .recost_into(&job.layout, subs, &mut values, &mut EvalScratch::new());
        job.eval.adopt(subs, &values);
        job.work.add(Counter::CostmodelDeltaRecosts, 1);
        debug_assert_eq!(job.eval.total().to_bits(), best.cost.to_bits());
        job.cost = best.cost;
        job.current_sets[g] = job.layout.disks_of(members[0]);
        for &i in members {
            job.probe.copy_row_from(&job.layout, i);
        }
        job.iterations += 1;
        job.work.add(Counter::TsgreedyCandidatesAdopted, 1);
        job.force_full = false;
        // Invalidate the memo where the move changed an input: the moved
        // group's own candidates (its drives, hence its move list, changed)
        // and those of every group that reads a sub-plan the moved group
        // reads — its access-graph neighbours, whose deltas also read the
        // ledger values the adoption rewrote. No other memoized value or
        // delta read a moved row.
        for &(s, p) in subs {
            for access in &self.workload[s as usize].0[p as usize].accesses {
                if let Some(&h) = self.group_index.get(access.object.index()) {
                    job.groups[h].forget();
                }
            }
        }
        self.enumerate_moves(job, g);
        job.refresh_rows(members.iter().copied());
    }
}

/// The pruned frontier: the `prune` groups with the best stale gains
/// (descending in `total_cmp` order, ties to the smaller group id — a
/// total order, so the active set is deterministic).
fn frontier(gain: &[f64], prune: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..gain.len()).collect();
    order.sort_unstable_by(|&a, &b| gain[b].total_cmp(&gain[a]).then(a.cmp(&b)));
    let mut active = vec![false; gain.len()];
    for &g in order.iter().take(prune) {
        active[g] = true;
    }
    active
}

/// Step 1 of TS-GREEDY (Figure 9): max-cut partition the contracted group
/// graph, assign partitions (heaviest first) to the smallest fastest-first
/// prefix of unused drives that fits, merge with the least co-accessed
/// placed partition when drives run out, and stripe eligible-wide as a
/// last-resort repair if the result is invalid.
#[allow(
    clippy::too_many_arguments,
    reason = "internal plumbing for ts_greedy only"
)]
fn step1_layout(
    sizes: &[u64],
    disks: &[DiskSpec],
    cg: &Graph,
    members: &[Vec<usize>],
    eligible: &[Vec<usize>],
    group_index: &[usize],
    partitioner: &Partitioner,
    search_span: &Span,
) -> Layout {
    let m = disks.len();
    let g_count = members.len();
    let p = m.min(g_count).max(1);
    let Partitioner::Auto { threshold } = partitioner;
    let (assignment, method) = if cg.len() > *threshold {
        (multilevel_max_cut(cg, p), "multilevel")
    } else {
        (max_cut_partition(cg, p), "direct")
    };
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); p]; // group ids
    for (gi, &part) in assignment.iter().enumerate() {
        partitions[part].push(gi);
    }
    partitions.retain(|pt| !pt.is_empty());

    // Descending total node weight.
    partitions.sort_by(|a, b| {
        let wa: f64 = a.iter().map(|&g| cg.node_weight(g)).sum();
        let wb: f64 = b.iter().map(|&g| cg.node_weight(g)).sum();
        wb.total_cmp(&wa)
    });

    let mut layout = Layout::empty(sizes.to_vec(), m);
    let mut remaining: Vec<u64> = disks.iter().map(|d| d.capacity_blocks).collect();
    let mut used = vec![false; m];
    // Disk sets already assigned, parallel to the partitions placed so far.
    let mut placed: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (groups, disk set)

    // Disks sorted fastest-first.
    let mut by_rate: Vec<usize> = (0..m).collect();
    by_rate.sort_by(|&a, &b| {
        disks[b]
            .read_mb_s
            .total_cmp(&disks[a].read_mb_s)
            .then(a.cmp(&b))
    });

    if search_span.enabled() {
        search_span.event(
            "tsgreedy.partition",
            vec![
                f("parts", partitions.len()),
                f("groups", g_count),
                f("method", method),
            ],
        );
    }

    for (part_idx, part) in partitions.iter().enumerate() {
        let part_blocks: u64 = part
            .iter()
            .flat_map(|&g| members[g].iter())
            .map(|&i| sizes[i])
            .sum();
        // Smallest fastest-first prefix of unused disks that fits.
        let unused: Vec<usize> = by_rate.iter().copied().filter(|&j| !used[j]).collect();
        let mut chosen: Option<Vec<usize>> = None;
        for take in 1..=unused.len() {
            let set = &unused[..take];
            if fits(part_blocks, set, disks, &remaining) {
                chosen = Some(set.to_vec());
                break;
            }
        }
        let merged = chosen.is_none();
        let disk_set = match chosen {
            Some(set) => {
                for &j in &set {
                    used[j] = true;
                }
                set
            }
            None => {
                // No disjoint set fits: merge with the previously placed
                // partition sharing the least co-access (Figure 9 step 3).
                let mut best: Option<(usize, f64)> = None;
                for (idx, (groups, _)) in placed.iter().enumerate() {
                    let mut w = 0.0;
                    for &g in part {
                        for &h in groups {
                            w += cg.edge_weight(g, h);
                        }
                    }
                    if best.is_none_or(|(_, bw)| w < bw) {
                        best = Some((idx, w));
                    }
                }
                match best {
                    Some((idx, _)) => placed[idx].1.clone(),
                    // No placed partition at all (e.g. one huge partition,
                    // tiny disks): fall back to every disk.
                    None => (0..m).collect(),
                }
            }
        };

        for &g in part {
            let set: Vec<usize> = disk_set
                .iter()
                .copied()
                .filter(|j| eligible[g].contains(j))
                .collect();
            let set = if set.is_empty() {
                eligible[g].clone() // availability overrides the partition
            } else {
                set
            };
            for &i in &members[g] {
                layout.place_proportional(i, &set, disks);
                let per_disk = layout.blocks_on(i);
                for (j, b) in per_disk.iter().enumerate() {
                    remaining[j] = remaining[j].saturating_sub(*b);
                }
            }
        }
        if search_span.enabled() {
            search_span.event(
                "tsgreedy.assign",
                vec![
                    f("partition", part_idx),
                    f("groups", id_list(part)),
                    f("blocks", part_blocks),
                    f("disks", id_list(&disk_set)),
                    f("merged", merged),
                ],
            );
        }
        placed.push((part.clone(), disk_set));
    }

    // Capacity overruns from merged/overridden placements surface here.
    if layout.validate(disks).is_err() {
        // Last-resort repair: stripe everything eligible-wide.
        for (i, _) in sizes.iter().enumerate() {
            let set = eligible[group_index[i]].clone();
            layout.place_proportional(i, &set, disks);
        }
    }
    layout
}

/// Renders a list of indices as a stable comma-joined trace field
/// (`"0,3,5"`).
fn id_list(ids: &[usize]) -> String {
    let mut out = String::new();
    for (pos, id) in ids.iter().enumerate() {
        if pos > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
    out
}

/// Fields for a `tsgreedy.candidate` event (a `tsgreedy.adopt` event has
/// no `reason`); `outcome` carries the predicted cost and delta when the
/// candidate was actually costed. The `drop_disks` field appears only for
/// seeded-mode narrow/swap moves, so classic (unseeded) traces keep their
/// exact pre-seeding bytes.
fn candidate_fields(
    group: usize,
    members: &[usize],
    combo: &[usize],
    dropped: &[usize],
    outcome: Option<(f64, f64)>,
    reason: Option<&str>,
) -> Vec<(String, dblayout_obs::FieldValue)> {
    let mut fields = vec![
        f("group", group),
        f("objects", id_list(members)),
        f("add_disks", id_list(combo)),
    ];
    if !dropped.is_empty() {
        fields.push(f("drop_disks", id_list(dropped)));
    }
    if let Some((cost_ms, delta_ms)) = outcome {
        fields.push(f("cost_ms", cost_ms));
        fields.push(f("delta_ms", delta_ms));
    }
    if let Some(reason) = reason {
        fields.push(f("reason", reason));
    }
    fields
}

/// Does placing `blocks` proportionally (by read rate) on `set` fit within
/// each member's remaining capacity?
fn fits(blocks: u64, set: &[usize], disks: &[DiskSpec], remaining: &[u64]) -> bool {
    let total_rate: f64 = set.iter().map(|&j| disks[j].read_mb_s).sum();
    set.iter().all(|&j| {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the share is a non-negative part of `blocks` rounded up; `as` saturates, so an oversized share still fails the fit"
        )]
        let share = (blocks as f64 * disks[j].read_mb_s / total_rate).ceil() as u64;
        share <= remaining[j]
    })
}

/// Calls `emit` with every non-empty subset of `items[start..]` with at
/// most `k` elements (at least singles), each extending `prefix`, without
/// allocating per subset. The order is the search's canonical one: first
/// every single in order, then, from the last item back to the first,
/// everything that extends it. Candidate indices, memo keys and
/// earliest-wins ties all depend on this order.
fn for_each_combination(
    items: &[usize],
    k: usize,
    prefix: &mut Vec<usize>,
    start: usize,
    emit: &mut impl FnMut(&[usize]),
) {
    for &item in &items[start..] {
        prefix.push(item);
        emit(prefix);
        prefix.pop();
    }
    if prefix.len() + 1 < k {
        for i in (start..items.len()).rev() {
            prefix.push(items[i]);
            for_each_combination(items, k, prefix, i + 1, emit);
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_graph::build_access_graph;
    use crate::costmodel::decompose_workload;
    use dblayout_catalog::ObjectId;
    use dblayout_disksim::uniform_disks;
    use dblayout_planner::{PhysicalPlan, PlanNode};

    fn scan(obj: u32, blocks: u64) -> PlanNode {
        PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64,
        }
    }

    fn merge_join(a: u32, ab: u64, b: u32, bb: u64) -> PhysicalPlan {
        PhysicalPlan::new(PlanNode::MergeJoin {
            on: "k".into(),
            rows: 1.0,
            left: Box::new(scan(a, ab)),
            right: Box::new(scan(b, bb)),
        })
    }

    /// Example-5 style: co-accessed A(300) + B(150) on 3 identical disks
    /// should end up separated (the paper's L3 shape).
    #[test]
    fn separates_co_accessed_objects() {
        let disks = uniform_disks(3, 100_000, 10.0, 20.0);
        let sizes = vec![300u64, 150];
        let plans = vec![(merge_join(0, 300, 1, 150), 1.0)];
        let graph = build_access_graph(2, &plans);
        let workload = decompose_workload(&plans);
        let r = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        let d0 = r.layout.disks_of(0);
        let d1 = r.layout.disks_of(1);
        assert!(
            d0.iter().all(|j| !d1.contains(j)),
            "disjoint: {d0:?} vs {d1:?}"
        );
        // And it must beat full striping.
        let fs = Layout::full_striping(sizes, &disks);
        let fs_cost = CostModel::default().workload_cost_subplans(&workload, &fs, &disks);
        assert!(r.final_cost < fs_cost);
    }

    /// A single hot object with no co-access should end up striped wide
    /// (step 2 recovers FULL STRIPING's parallelism).
    #[test]
    fn lone_object_gets_wide_striping() {
        let disks = uniform_disks(6, 100_000, 10.0, 20.0);
        let sizes = vec![600u64];
        let plans = vec![(PhysicalPlan::new(scan(0, 600)), 1.0)];
        let graph = build_access_graph(1, &plans);
        let workload = decompose_workload(&plans);
        let r = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        assert_eq!(r.layout.disks_of(0).len(), 6, "{:?}", r.layout.disks_of(0));
        assert!(r.iterations >= 1);
    }

    /// APB-like shape: two large objects never co-accessed → TS-GREEDY
    /// should converge to (essentially) full striping for both.
    #[test]
    fn no_coaccess_converges_to_full_striping_cost() {
        let disks = uniform_disks(4, 100_000, 10.0, 20.0);
        let sizes = vec![400u64, 400];
        let plans = vec![
            (PhysicalPlan::new(scan(0, 400)), 1.0),
            (PhysicalPlan::new(scan(1, 400)), 1.0),
        ];
        let graph = build_access_graph(2, &plans);
        let workload = decompose_workload(&plans);
        let r = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        let fs = Layout::full_striping(sizes, &disks);
        let fs_cost = CostModel::default().workload_cost_subplans(&workload, &fs, &disks);
        assert!(
            (r.final_cost - fs_cost).abs() / fs_cost < 1e-6,
            "{} vs {}",
            r.final_cost,
            fs_cost
        );
    }

    #[test]
    fn greedy_never_worse_than_step1() {
        let disks = uniform_disks(5, 100_000, 10.0, 20.0);
        let sizes = vec![500, 250, 100, 80];
        let plans = vec![
            (merge_join(0, 500, 1, 250), 2.0),
            (PhysicalPlan::new(scan(2, 100)), 1.0),
            (merge_join(2, 100, 3, 80), 1.0),
        ];
        let graph = build_access_graph(4, &plans);
        let workload = decompose_workload(&plans);
        let r = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        assert!(r.final_cost <= r.initial_cost + 1e-9);
        assert!(r.cost_evaluations >= 1);
        r.layout.validate(&disks).unwrap();
    }

    #[test]
    fn co_location_constraint_keeps_groups_together() {
        let disks = uniform_disks(4, 100_000, 10.0, 20.0);
        let sizes = vec![200u64, 200, 200];
        // 0 and 1 heavily co-accessed (would separate), but constrained
        // to co-locate.
        let plans = vec![(merge_join(0, 200, 1, 200), 1.0)];
        let graph = build_access_graph(3, &plans);
        let workload = decompose_workload(&plans);
        let cfg = TsGreedyConfig {
            constraints: Constraints::none().co_locate(ObjectId(0), ObjectId(1)),
            ..Default::default()
        };
        let r = ts_greedy(&sizes, &graph, &workload, &disks, &cfg).unwrap();
        assert_eq!(r.layout.disks_of(0), r.layout.disks_of(1));
        cfg.constraints.check(&r.layout, &disks).unwrap();
    }

    #[test]
    fn availability_constraint_restricts_placement() {
        use dblayout_disksim::Availability;
        let mut disks = uniform_disks(4, 100_000, 10.0, 20.0);
        disks[2].avail = Availability::Mirroring;
        disks[3].avail = Availability::Mirroring;
        let sizes = vec![100u64, 100];
        let plans = vec![
            (PhysicalPlan::new(scan(0, 100)), 1.0),
            (PhysicalPlan::new(scan(1, 100)), 1.0),
        ];
        let graph = build_access_graph(2, &plans);
        let workload = decompose_workload(&plans);
        let cfg = TsGreedyConfig {
            constraints: Constraints::none().require_avail(ObjectId(0), Availability::Mirroring),
            ..Default::default()
        };
        let r = ts_greedy(&sizes, &graph, &workload, &disks, &cfg).unwrap();
        for j in r.layout.disks_of(0) {
            assert_eq!(disks[j].avail, Availability::Mirroring);
        }
    }

    #[test]
    fn infeasible_availability_reported() {
        use dblayout_disksim::Availability;
        let disks = uniform_disks(2, 100_000, 10.0, 20.0); // all Avail::None
        let sizes = vec![100u64];
        let plans = vec![(PhysicalPlan::new(scan(0, 100)), 1.0)];
        let graph = build_access_graph(1, &plans);
        let workload = decompose_workload(&plans);
        let cfg = TsGreedyConfig {
            constraints: Constraints::none().require_avail(ObjectId(0), Availability::Parity),
            ..Default::default()
        };
        assert!(matches!(
            ts_greedy(&sizes, &graph, &workload, &disks, &cfg),
            Err(SearchError::Infeasible(_))
        ));
    }

    #[test]
    fn movement_bound_limits_departure_from_current() {
        let disks = uniform_disks(3, 100_000, 10.0, 20.0);
        let sizes = vec![300u64, 150];
        let plans = vec![(merge_join(0, 300, 1, 150), 1.0)];
        let graph = build_access_graph(2, &plans);
        let workload = decompose_workload(&plans);
        let current = Layout::full_striping(sizes.clone(), &disks);
        let cfg = TsGreedyConfig {
            constraints: Constraints::none().bound_movement(current.clone(), 0),
            ..Default::default()
        };
        let r = ts_greedy(&sizes, &graph, &workload, &disks, &cfg).unwrap();
        // With zero movement allowed, step 2 cannot adopt anything that
        // moves data; the result must respect the bound... step 1 itself
        // produces a fresh layout, so the *final* check matters: every
        // adopted greedy move had to satisfy the constraint; step-1-only
        // results may violate it, in which case no move was adopted and
        // the caller sees the violation via Constraints::check.
        if cfg.constraints.check(&r.layout, &disks).is_ok() {
            assert_eq!(r.layout.data_movement_from(&current), 0);
        }
    }

    #[test]
    fn k2_explores_pairs() {
        let disks = uniform_disks(5, 100_000, 10.0, 20.0);
        let sizes = vec![500u64];
        let plans = vec![(PhysicalPlan::new(scan(0, 500)), 1.0)];
        let graph = build_access_graph(1, &plans);
        let workload = decompose_workload(&plans);
        let r1 = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        let r2 = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // k=2 reaches full width in fewer iterations, same final cost.
        assert!(r2.iterations <= r1.iterations);
        assert!((r2.final_cost - r1.final_cost).abs() < 1e-9);
    }

    /// Every subset `for_each_combination` emits, in order.
    fn combinations_up_to(items: &[usize], k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for_each_combination(items, k, &mut Vec::new(), 0, &mut |c| out.push(c.to_vec()));
        out
    }

    #[test]
    fn combinations_enumeration() {
        let items = vec![3, 5, 9];
        let mut c1 = combinations_up_to(&items, 1);
        c1.sort();
        assert_eq!(c1, vec![vec![3], vec![5], vec![9]]);
        let c2 = combinations_up_to(&items, 2);
        assert_eq!(c2.len(), 6); // 3 singles + 3 pairs
        let c3 = combinations_up_to(&items, 3);
        assert_eq!(c3.len(), 7);
        assert!(combinations_up_to(&[], 2).is_empty());
        // The order is the stack-based enumeration's, which earlier
        // searches (and their committed traces) were built on.
        let stacked = |items: &[usize], k: usize| {
            let mut out: Vec<Vec<usize>> = Vec::new();
            let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new())];
            while let Some((start, prefix)) = stack.pop() {
                for (i, &item) in items.iter().enumerate().skip(start) {
                    let mut next = prefix.clone();
                    next.push(item);
                    if next.len() < k {
                        stack.push((i + 1, next.clone()));
                    }
                    out.push(next);
                }
            }
            out
        };
        let items: Vec<usize> = (10..16).collect();
        for len in 0..=items.len() {
            for k in 0..=5 {
                assert_eq!(
                    combinations_up_to(&items[..len], k),
                    stacked(&items[..len], k),
                    "len={len} k={k}"
                );
            }
        }
    }

    /// Every placement fraction's raw bits, for byte-level layout equality.
    fn layout_bits(l: &Layout) -> Vec<u64> {
        let mut bits = Vec::new();
        for i in 0..l.object_count() {
            for j in 0..l.disk_count() {
                bits.push(l.fraction(i, j).to_bits());
            }
        }
        bits
    }

    /// A mixed workload (two joins + a hot scan) whose search runs several
    /// iterations — enough work that chunking actually splits candidates.
    #[allow(clippy::type_complexity)]
    fn parallel_fixture() -> (
        Vec<u64>,
        dblayout_partition::Graph,
        Vec<(Vec<Subplan>, f64)>,
        Vec<DiskSpec>,
    ) {
        let disks = uniform_disks(6, 100_000, 10.0, 20.0);
        let sizes = vec![500u64, 250, 180, 120, 90];
        let plans = vec![
            (merge_join(0, 500, 1, 250), 4.0),
            (merge_join(2, 180, 3, 120), 2.0),
            (PhysicalPlan::new(scan(4, 90)), 1.0),
        ];
        let graph = build_access_graph(5, &plans);
        let workload = decompose_workload(&plans);
        (sizes, graph, workload, disks)
    }

    /// The dblayout-par contract at unit scope: any thread count yields a
    /// bit-identical layout, costs, and search counters.
    #[test]
    fn parallel_search_is_bit_identical_at_any_thread_count() {
        let (sizes, graph, workload, disks) = parallel_fixture();
        let reference = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        assert!(
            reference.iterations >= 2,
            "fixture too easy to exercise chunking"
        );
        for threads in [2usize, 3, 4, 8] {
            // min_chunk 0 forces real fan-out on this small fixture; the
            // adaptive default must land on the same bits via its serial
            // fallback.
            for min_chunk in [0usize, 256] {
                let r = ts_greedy(
                    &sizes,
                    &graph,
                    &workload,
                    &disks,
                    &TsGreedyConfig {
                        threads,
                        min_chunk,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    layout_bits(&r.layout),
                    layout_bits(&reference.layout),
                    "threads={threads} min_chunk={min_chunk}"
                );
                assert_eq!(r.final_cost.to_bits(), reference.final_cost.to_bits());
                assert_eq!(r.initial_cost.to_bits(), reference.initial_cost.to_bits());
                assert_eq!(r.iterations, reference.iterations);
                assert_eq!(r.cost_evaluations, reference.cost_evaluations);
            }
        }
    }

    /// Deterministic traces are part of the identity contract: the same
    /// search at different thread counts emits byte-identical records.
    #[test]
    fn deterministic_trace_is_byte_identical_across_thread_counts() {
        use dblayout_obs::RingSink;
        let (sizes, graph, workload, disks) = parallel_fixture();
        let trace_at = |threads: usize| -> Vec<String> {
            let ring = Arc::new(RingSink::new(usize::MAX));
            let cfg = TsGreedyConfig {
                threads,
                min_chunk: 0, // real fan-out, not the serial fallback
                collector: Collector::deterministic(ring.clone()),
                ..Default::default()
            };
            ts_greedy(&sizes, &graph, &workload, &disks, &cfg).unwrap();
            ring.drain().iter().map(|r| r.to_jsonl()).collect()
        };
        let reference = trace_at(1);
        assert!(
            reference.iter().any(|l| l.contains("tsgreedy.candidate")),
            "trace records no candidates"
        );
        // No per-worker scheduling detail leaks into deterministic traces.
        assert!(reference.iter().all(|l| !l.contains("tsgreedy.workers")));
        for threads in [2usize, 4, 8] {
            assert_eq!(trace_at(threads), reference, "threads={threads}");
        }
    }

    /// Pruned widening with a width covering every group takes the exact
    /// unpruned code path — bit-identical results.
    #[test]
    fn prune_width_covering_all_groups_is_bit_identical_to_unpruned() {
        let (sizes, graph, workload, disks) = parallel_fixture();
        let unpruned = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig::default(),
        )
        .unwrap();
        let wide = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig {
                prune_width: 64, // ≥ group count: pruning never engages
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(layout_bits(&wide.layout), layout_bits(&unpruned.layout));
        assert_eq!(wide.final_cost.to_bits(), unpruned.final_cost.to_bits());
        assert_eq!(wide.cost_evaluations, unpruned.cost_evaluations);
    }

    /// A genuinely pruned search (width < groups) still terminates at a
    /// full-sweep local optimum, stays valid, and is thread-invariant.
    #[test]
    fn pruned_widening_is_thread_invariant_and_locally_optimal() {
        let (sizes, graph, workload, disks) = parallel_fixture();
        let run = |threads: usize| {
            ts_greedy(
                &sizes,
                &graph,
                &workload,
                &disks,
                &TsGreedyConfig {
                    prune_width: 2,
                    threads,
                    min_chunk: 0,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let reference = run(1);
        assert!(reference.final_cost <= reference.initial_cost + 1e-9);
        reference.layout.validate(&disks).unwrap();
        // Termination required a full sweep that found nothing: re-seeding
        // an unpruned search from the pruned result must adopt no moves.
        let resumed = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig {
                seed: Some(reference.layout.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        // Seeded mode also enumerates narrow/swap moves, so allow equal-
        // cost wandering but never a pure-widening improvement miss.
        assert!(resumed.final_cost >= reference.final_cost - 1e-9);
        for threads in [2usize, 4, 8] {
            let r = run(threads);
            assert_eq!(
                layout_bits(&r.layout),
                layout_bits(&reference.layout),
                "threads={threads}"
            );
            assert_eq!(r.final_cost.to_bits(), reference.final_cost.to_bits());
            assert_eq!(r.cost_evaluations, reference.cost_evaluations);
        }
    }

    /// `max_iterations` caps adopted moves, and the capped run's layout is
    /// the uncapped run's prefix (same greedy trajectory, stopped early).
    #[test]
    fn max_iterations_caps_adopted_moves() {
        let disks = uniform_disks(6, 100_000, 10.0, 20.0);
        let sizes = vec![600u64];
        let plans = vec![(PhysicalPlan::new(scan(0, 600)), 1.0)];
        let graph = build_access_graph(1, &plans);
        let workload = decompose_workload(&plans);
        let capped = ts_greedy(
            &sizes,
            &graph,
            &workload,
            &disks,
            &TsGreedyConfig {
                max_iterations: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(capped.iterations, 2);
        // Widening one drive at a time from a 1-disk start: after two
        // adoptions the object spans exactly 3 drives.
        assert_eq!(capped.layout.disks_of(0).len(), 3);
    }

    /// Forcing the multilevel partitioner on a paper-scale graph matches
    /// direct KL bit-for-bit (no coarsening levels engage below the floor),
    /// and so does the default threshold.
    #[test]
    fn multilevel_partitioner_matches_direct_at_small_scale() {
        let (sizes, graph, workload, disks) = parallel_fixture();
        let run = |partitioner: Partitioner| {
            ts_greedy(
                &sizes,
                &graph,
                &workload,
                &disks,
                &TsGreedyConfig {
                    partitioner,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let direct = run(Partitioner::Auto {
            threshold: usize::MAX,
        });
        let auto_default = run(Partitioner::default());
        let multilevel = run(Partitioner::Auto { threshold: 0 });
        for (name, r) in [("auto", &auto_default), ("multilevel", &multilevel)] {
            assert_eq!(
                layout_bits(&r.layout),
                layout_bits(&direct.layout),
                "{name}"
            );
            assert_eq!(
                r.final_cost.to_bits(),
                direct.final_cost.to_bits(),
                "{name}"
            );
        }
    }

    /// Two groups whose best moves fold to equal costs, or to costs a few
    /// ULPs apart, while every other move is far worse: the selection folds
    /// exactly those two, and the earliest strict minimum wins — the
    /// earlier group on an exact tie, the cheaper one otherwise.
    #[test]
    fn near_tied_moves_in_different_groups_are_both_folded() {
        // A on D0 and B on D1 (rate 20 each), each read by its own
        // statement. Widening onto D2 (rate 40) cuts a scan to a third;
        // any other drive, or a swap, to a half or more.
        let rates = [20.0, 20.0, 40.0, 10.0, 15.0];
        let disks: Vec<DiskSpec> = rates
            .iter()
            .enumerate()
            .map(|(j, &r)| DiskSpec::new(&format!("D{j}"), 100_000, 8.0, r, r))
            .collect();
        let sizes = vec![400u64, 400];
        let mut seed = Layout::empty(sizes.clone(), disks.len());
        seed.place_proportional(0, &[0], &disks);
        seed.place_proportional(1, &[1], &disks);
        let cost_of = |workload: &[(Vec<Subplan>, f64)], widened: usize| {
            let mut l = seed.clone();
            l.place_proportional(widened, &[widened, 2], &disks);
            CostModel::default().workload_cost_subplans(workload, &l, &disks)
        };
        let eps = f64::EPSILON;
        // (B's statement weight, ULPs between the two best folds, winner)
        for (weight, ulps, winner) in [
            (1.0, 0, 0),
            (1.0 + 4.0 * eps, 2, 1),
            (1.0 - 4.0 * eps, 2, 0),
        ] {
            let plans = vec![
                (PhysicalPlan::new(scan(0, 400)), 1.0),
                (PhysicalPlan::new(scan(1, 400)), weight),
            ];
            let graph = build_access_graph(2, &plans);
            let workload = decompose_workload(&plans);
            let (a, b) = (cost_of(&workload, 0), cost_of(&workload, 1));
            let apart = a.to_bits().abs_diff(b.to_bits());
            assert!(
                (ulps..=ulps * 4).contains(&apart),
                "weight {weight}: the best folds are {apart} ULPs apart"
            );
            let cfg = TsGreedyConfig {
                seed: Some(seed.clone()),
                max_iterations: 1,
                ..Default::default()
            };
            let r = ts_greedy(&sizes, &graph, &workload, &disks, &cfg).unwrap();
            assert_eq!(r.iterations, 1);
            assert_eq!(
                r.layout.disks_of(winner),
                vec![winner, 2],
                "weight {weight}"
            );
            assert_eq!(r.final_cost.to_bits(), a.min(b).to_bits());
            assert_eq!(
                r.work.get(Counter::TsgreedyExactFolds),
                2,
                "weight {weight}"
            );
            assert!(r.work.get(Counter::TsgreedyCandidatesScored) > 10);
        }
    }

    /// Timed collectors do get the per-worker scheduling event.
    #[test]
    fn timed_trace_records_per_worker_candidate_counts() {
        use dblayout_obs::RingSink;
        let (sizes, graph, workload, disks) = parallel_fixture();
        let ring = Arc::new(RingSink::new(usize::MAX));
        let cfg = TsGreedyConfig {
            threads: 4,
            min_chunk: 0, // force full fan-out on this small fixture
            collector: Collector::new(ring.clone()),
            ..Default::default()
        };
        ts_greedy(&sizes, &graph, &workload, &disks, &cfg).unwrap();
        let workers: Vec<_> = ring
            .drain()
            .into_iter()
            .filter(|r| r.name == "tsgreedy.workers")
            .collect();
        assert!(!workers.is_empty());
        for w in workers {
            assert_eq!(w.field_u64("threads"), Some(4));
            let counts = w.field_str("candidates_per_worker").unwrap_or("");
            assert_eq!(counts.split(',').count(), 4, "counts = {counts:?}");
        }
    }
}
