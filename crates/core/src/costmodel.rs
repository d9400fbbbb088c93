//! The analytic I/O response-time cost model (paper §5, Figure 7).
//!
//! For a statement `Q` with plan `P_Q` under layout `L`:
//!
//! ```text
//! Cost(Q, L) = Σ over non-blocking sub-plans P of P_Q of
//!              max over disks D_j of ( TransferCost_j + SeekCost_j )
//! TransferCost_j = Σ_i x_ij · B(|R_i|, P) / T_j
//! SeekCost_j     = k · S_j · min_i ( x_ij · B(|R_i|, P) )   if k > 1 else 0
//! ```
//!
//! where `k` is the number of objects on `D_j` accessed in `P`, `T_j` is the
//! read or write transfer rate as appropriate, `S_j` the average seek time,
//! and the `min` ranges over the objects accessed in `P` that live on `D_j`.
//! The seek model assumes co-accessed objects are read at rates proportional
//! to their block counts, so the least-represented object's block count
//! bounds the number of alternations.
//!
//! Temp-object I/O is **excluded by default** — the paper's implementation
//! "did not factor in the I/O times of temporary objects" (§7.2), and its
//! validation attributes some mis-orderings to exactly that. Enable
//! [`CostModel::include_temp_io`] to add a tempdb lane (our extension).

use std::sync::Arc;

use dblayout_disksim::{proportional_total, DiskSpec, Drives, Layout};
use dblayout_obs::{f, Collector};
use dblayout_planner::{ObjectAccess, PhysicalPlan, Subplan};

/// Configurable cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Include tempdb spill I/O in statement costs (extension; the paper's
    /// implementation did not).
    pub include_temp_io: bool,
    /// The tempdb drive used when `include_temp_io` is set.
    pub tempdb: DiskSpec,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            include_temp_io: false,
            tempdb: dblayout_disksim::tempdb_disk(),
        }
    }
}

/// One drive's Figure-7 term in one sub-plan, as [`CostModel::trace`]
/// walks it.
#[derive(Debug, Clone, Copy)]
pub struct DriveTerm {
    /// The statement's index in the workload.
    pub statement: usize,
    /// The drive.
    pub disk: usize,
    /// `k`: the accessed objects with blocks on the drive (at least 1).
    pub objects: usize,
    /// `TransferCost_j`, ms.
    pub transfer_ms: f64,
    /// `SeekCost_j`, ms.
    pub seek_ms: f64,
}

impl CostModel {
    /// `Σ_Q w_Q · Cost(Q, L)` — the optimization objective (Figure 2).
    pub fn workload_cost(
        &self,
        plans: &[(PhysicalPlan, f64)],
        layout: &Layout,
        disks: &[DiskSpec],
    ) -> f64 {
        self.workload_cost_subplans(&decompose_workload(plans), layout, disks)
    }

    /// Workload cost over pre-decomposed sub-plans, in one pass: per
    /// statement the sub-plan costs summed in order, weighted, then summed
    /// over statements in order. The search invokes the cost model
    /// thousands of times per run (paper §3: "the scalability of the
    /// solution relies on the cost model being computationally
    /// efficient"), so it decomposes each plan once up front.
    pub fn workload_cost_subplans(
        &self,
        workload: &[(Vec<Subplan>, f64)],
        layout: &Layout,
        disks: &[DiskSpec],
    ) -> f64 {
        let terms = &mut DiskTerms::default();
        workload
            .iter()
            .map(|(subs, w)| {
                w * subs
                    .iter()
                    .map(|sub| {
                        self.subplan(sub, &object_totals(sub), layout, disks, terms, no_visit)
                            .0
                    })
                    .sum::<f64>()
            })
            .sum()
    }

    /// Walks [`CostModel::workload_cost_subplans`]'s costing of `layout`
    /// term by term and returns each statement's unweighted cost, bit for
    /// bit the values that function weights and sums. Every sub-plan opens
    /// a `costmodel.subplan` span on `collector` holding a
    /// `costmodel.disk` event (transfer and seek milliseconds) per drive
    /// an accessed object occupies, in ascending drive order, and ending
    /// with the cost and its bottleneck drive; `visit` sees the same
    /// terms. For one-shot breakdowns (`dblayout explain`'s final costing,
    /// a decision record's per-disk totals): a search never traces.
    pub fn trace(
        &self,
        workload: &[(Vec<Subplan>, f64)],
        layout: &Layout,
        disks: &[DiskSpec],
        collector: &Collector,
        mut visit: impl FnMut(&DriveTerm),
    ) -> Vec<f64> {
        let terms = &mut DiskTerms::default();
        let mut subplan = |statement: usize, sub: &Subplan| {
            let totals = object_totals(sub);
            let span = collector.span(
                "costmodel.subplan",
                vec![
                    f("objects", totals.len()),
                    f("accesses", sub.accesses.len()),
                ],
            );
            let drive = |disk, transfer_ms, seek_ms, objects| {
                if objects == 0 {
                    return;
                }
                if span.enabled() {
                    span.event(
                        "costmodel.disk",
                        vec![
                            f("disk", disk),
                            f("objects", objects),
                            f("transfer_ms", transfer_ms),
                            f("seek_ms", seek_ms),
                        ],
                    );
                }
                visit(&DriveTerm {
                    statement,
                    disk,
                    objects,
                    transfer_ms,
                    seek_ms,
                });
            };
            let (cost, bottleneck, temp_ms) =
                self.subplan(sub, &totals, layout, disks, terms, drive);
            span.end_with(vec![
                f("cost_ms", cost),
                // -1: no drive contributes, or tempdb is the bottleneck.
                f("bottleneck_disk", bottleneck.map_or(-1, |j| j as i64)),
                f("temp_ms", temp_ms),
            ]);
            cost
        };
        workload
            .iter()
            .enumerate()
            .map(|(s, (subs, _))| subs.iter().map(|sub| subplan(s, sub)).sum())
            .collect()
    }

    /// Figure 7 for one sub-plan, the function every cost path runs: the
    /// kernel's bottleneck over the drives ([`disk_bottleneck`], which
    /// shows `visit` each drive's term), then, with
    /// [`CostModel::include_temp_io`], the tempdb lane, its own drive in
    /// the max. Returns the cost, the bottleneck drive (`None` when no
    /// drive exceeds 0.0 or tempdb is the bottleneck) and the tempdb time
    /// (0.0 with the lane off). `totals` must equal `object_totals(sub)`.
    #[inline]
    fn subplan(
        &self,
        sub: &Subplan,
        totals: &[(u32, u64)],
        layout: &Layout,
        disks: &[DiskSpec],
        terms: &mut DiskTerms,
        visit: impl FnMut(usize, f64, f64, usize),
    ) -> (f64, Option<usize>, f64) {
        let (mut cost, mut bottleneck) = disk_bottleneck(sub, totals, layout, disks, terms, visit);
        let mut temp_ms = 0.0;
        if self.include_temp_io {
            temp_ms = self.temp_ms(sub);
            if temp_ms > cost {
                bottleneck = None;
            }
            cost = cost.max(temp_ms);
        }
        (cost, bottleneck, temp_ms)
    }

    /// Tempdb spill time for one sub-plan (the extension lane).
    fn temp_ms(&self, sub: &Subplan) -> f64 {
        (sub.temp_write_blocks as f64) * self.tempdb.write_ms_per_block()
            + (sub.temp_read_blocks as f64) * self.tempdb.read_ms_per_block()
    }

    /// Builds a [`DeltaEvaluator`] over `workload`, primed with a full
    /// evaluation of `layout` (its [`DeltaEvaluator::total`] equals
    /// [`CostModel::workload_cost_subplans`] bit for bit).
    pub fn delta_evaluator<'a>(
        &'a self,
        workload: &'a [(Vec<Subplan>, f64)],
        layout: &Layout,
        disks: &'a [DiskSpec],
    ) -> DeltaEvaluator<'a> {
        let mut touching: Vec<Vec<(u32, u32)>> = vec![Vec::new(); layout.object_count()];
        for (s, (subs, _)) in workload.iter().enumerate() {
            for (p, sub) in subs.iter().enumerate() {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "statement and sub-plan counts are far below 2^32; u32 pairs keep the touched lists small"
                )]
                let pair = (s as u32, p as u32);
                for access in &sub.accesses {
                    if let Some(list) = touching.get_mut(access.object.index()) {
                        // Pairs arrive in increasing (s, p) order, so the
                        // last-entry guard keeps each list sorted + unique.
                        if list.last() != Some(&pair) {
                            list.push(pair);
                        }
                    }
                }
            }
        }
        // Per-object totals are layout-independent: aggregate them once
        // into a flat arena so the scoring loop never rebuilds them. The
        // arena is shared (`Arc`) because the search clones the evaluator
        // into every per-iteration job snapshot.
        let mut flat: Vec<(u32, u64)> = Vec::new();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the arena holds one entry per (sub-plan, object) pair, far below 2^32"
        )]
        let spans: Vec<Vec<(u32, u32)>> = workload
            .iter()
            .map(|(subs, _)| {
                subs.iter()
                    .map(|sub| {
                        let start = flat.len() as u32;
                        flat.extend_from_slice(&object_totals(sub));
                        (start, flat.len() as u32 - start)
                    })
                    .collect()
            })
            .collect();
        let totals = SubplanTotals { flat, spans };
        let terms = &mut DiskTerms::default();
        let sub_costs: Vec<Vec<f64>> = workload
            .iter()
            .enumerate()
            .map(|(s, (subs, _))| {
                subs.iter()
                    .enumerate()
                    .map(|(p, sub)| {
                        self.subplan(sub, totals.of(s, p), layout, disks, terms, no_visit)
                            .0
                    })
                    .collect()
            })
            .collect();
        let stmt_costs: Vec<f64> = workload
            .iter()
            .zip(&sub_costs)
            .map(|((_, w), subs)| w * subs.iter().sum::<f64>())
            .collect();
        let nonneg = workload.iter().all(|(_, w)| nonneg_finite(*w))
            && sub_costs.iter().flatten().all(|&c| nonneg_finite(c));
        let mut eval = DeltaEvaluator {
            model: self,
            workload,
            disks,
            total: stmt_costs.iter().sum(),
            sub_costs,
            stmt_costs,
            prefix: Vec::new(),
            touching,
            totals: Arc::new(totals),
            nonneg,
            max_subplans: workload
                .iter()
                .map(|(subs, _)| subs.len())
                .max()
                .unwrap_or(0),
        };
        eval.refold_prefix();
        eval
    }
}

/// The visitor of a costing that reports no drive terms.
fn no_visit(_: usize, _: f64, _: f64, _: usize) {}

/// Layout-independent per-object block totals for every sub-plan, stored
/// as one flat cache-friendly arena plus `(start, len)` spans per
/// `(statement, sub-plan)`. Built once per [`DeltaEvaluator`]; shared by
/// clones.
#[derive(Debug)]
struct SubplanTotals {
    flat: Vec<(u32, u64)>,
    spans: Vec<Vec<(u32, u32)>>,
}

impl SubplanTotals {
    #[inline]
    fn of(&self, s: usize, p: usize) -> &[(u32, u64)] {
        let (start, len) = self.spans[s][p];
        &self.flat[start as usize..(start + len) as usize]
    }
}

/// Reusable kernel accumulators for [`DeltaEvaluator::recost_into`]. One
/// per scoring worker; holding it outside the candidate loop makes scoring
/// allocation-free.
#[derive(Debug, Default)]
pub struct EvalScratch {
    terms: DiskTerms,
}

impl EvalScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Figure-7 drive terms evaluated through this scratch so far (the
    /// `costmodel_drive_terms` tally).
    pub fn drive_terms(&self) -> u64 {
        self.terms.visited
    }
}

/// Shared Figure-7 drive terms for pricing a co-location group's widening
/// moves without one kernel run per candidate (DESIGN.md §7).
///
/// Widening the group from its drives `S` to `S ∪ A` rewrites only its
/// members' rows, and only on `S ∪ A`: every other drive keeps its base
/// term. Per sub-plan the group reads, the table holds the `k + 1`
/// largest base terms over drives outside `S` (a move adds at most `k`
/// drives, so the largest kept term outside `A` is the largest base term
/// outside `S ∪ A`), and, for each distinct proportional total `Σ r` over
/// the new drive set, the largest term over `S` (the members' new
/// fractions on `S` depend only on that total; uniform drives have one).
/// [`DeltaEvaluator::price_widening`] takes the largest of these and of
/// the candidate's own terms on `A`: the terms the kernel maximizes,
/// each computed by the kernel's [`drive_term`], and `max` neither rounds
/// nor depends on order — so the price is the kernel's, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct WideningTable {
    /// The group's objects.
    members: Vec<usize>,
    /// `S`: the drives the members occupy, in the order new drive sets
    /// list them.
    drives: Vec<usize>,
    /// The sub-plans priced (the group's [`DeltaEvaluator::touched`]).
    touched: Vec<(u32, u32)>,
    /// Entries per sub-plan in `outside`: one more than the most drives a
    /// move may add.
    keep: usize,
    /// The distinct proportional totals, in first-seen order; a move's
    /// class indexes this.
    totals: Vec<f64>,
    /// Per class, one move's added drives (`rep_drives[rep_spans[c]]`),
    /// which places the members at that class's total.
    rep_drives: Vec<usize>,
    rep_spans: Vec<(usize, usize)>,
    /// Sub-plan-major, `keep` each: the largest base terms over drives
    /// outside `S`, descending, padded with `(0.0, usize::MAX)`.
    outside: Vec<(f64, usize)>,
    /// Class-major: per class and sub-plan, the largest term over `S`.
    inside: Vec<f64>,
}

impl WideningTable {
    /// Starts a table for the group `members` on `drives`, pricing the
    /// `touched` sub-plans for moves that add at most `k` drives (at least
    /// one). Reuses the table's buffers.
    pub fn reset(&mut self, members: &[usize], drives: &[usize], touched: &[(u32, u32)], k: usize) {
        self.members.clear();
        self.members.extend_from_slice(members);
        self.drives.clear();
        self.drives.extend_from_slice(drives);
        self.touched.clear();
        self.touched.extend_from_slice(touched);
        self.keep = k.max(1) + 1;
        self.totals.clear();
        self.rep_drives.clear();
        self.rep_spans.clear();
    }

    /// The class of the move that adds `add`: the index of its
    /// proportional total over the table's drives then `add` (the order
    /// [`Layout::place_proportional`] sums), registered on first sight.
    pub fn class_of(&mut self, add: &[usize], disks: &[DiskSpec]) -> usize {
        assert!(
            add.len() < self.keep,
            "a move adds more drives than the table keeps"
        );
        let total = proportional_total(self.drives.iter().chain(add).copied(), disks);
        if let Some(c) = self
            .totals
            .iter()
            .position(|t| t.to_bits() == total.to_bits())
        {
            return c;
        }
        self.totals.push(total);
        self.rep_spans.push((self.rep_drives.len(), add.len()));
        self.rep_drives.extend_from_slice(add);
        self.totals.len() - 1
    }
}

/// Incremental Figure-7 evaluation over a fixed decomposed workload: the
/// search's ledger.
///
/// The evaluator keeps every sub-plan's unweighted cost under a *base*
/// layout. A move re-places one co-location group, so it changes only the
/// sub-plans reading the group's objects ([`DeltaEvaluator::touched`]).
/// Scoring a move takes two steps: [`DeltaEvaluator::recost_into`] runs
/// the kernel on those sub-plans (or [`DeltaEvaluator::price_widening`]
/// prices them from a [`WideningTable`]), and [`DeltaEvaluator::fold`]
/// re-sums statements and the workload **in the full evaluation's
/// order**, substituting the new values — the identical sequence of float
/// additions [`CostModel::workload_cost_subplans`] performs, with
/// unchanged terms reused. The total is therefore bit-identical to a full
/// re-evaluation (0 ULPs), not merely close, and values re-costed once
/// can be folded again as long as their inputs are unchanged.
/// [`DeltaEvaluator::adopt`] installs an adopted move's values as the new
/// base.
#[derive(Debug, Clone)]
pub struct DeltaEvaluator<'a> {
    model: &'a CostModel,
    workload: &'a [(Vec<Subplan>, f64)],
    disks: &'a [DiskSpec],
    /// `sub_costs[s][p]` — unweighted cost of statement `s`'s sub-plan `p`
    /// under the base layout.
    sub_costs: Vec<Vec<f64>>,
    /// `stmt_costs[s]` — `w_s · Σ_p sub_costs[s][p]`, summed in `p` order.
    stmt_costs: Vec<f64>,
    /// `Σ_s stmt_costs[s]`, summed in `s` order — the workload objective.
    total: f64,
    /// `prefix[s]` — the fold `0.0 + stmt_costs[0] + … + stmt_costs[s - 1]`
    /// in `s` order (`statements + 1` entries), where [`DeltaEvaluator::fold`]
    /// resumes.
    prefix: Vec<f64>,
    /// For each object id, the sorted unique `(statement, sub-plan)` pairs
    /// whose sub-plan accesses it.
    touching: Vec<Vec<(u32, u32)>>,
    /// Cached `object_totals` per sub-plan (layout-independent).
    totals: Arc<SubplanTotals>,
    /// Every weight and every ledger cost is finite and non-negative: the
    /// precondition of [`DeltaEvaluator::bracket`].
    nonneg: bool,
    /// The most sub-plans any statement has.
    max_subplans: usize,
}

/// Whether `x` is finite and non-negative (NaN is not).
fn nonneg_finite(x: f64) -> bool {
    (0.0..=f64::MAX).contains(&x)
}

/// Brackets a candidate's [`DeltaEvaluator::fold`] from its
/// [`DeltaEvaluator::delta`] `Δ`, for one ledger state and one touched
/// width: `|fold − (total + Δ)| ≤ γ·(total + max(total + Δ, 0))`, the
/// recursive-summation bound derived in DESIGN.md §7. Each method is
/// computed in `f64` with twice that margin, so the roundings of the
/// bracket's own arithmetic cannot cross it.
#[derive(Debug, Clone, Copy)]
pub struct FoldBracket {
    total: f64,
    gamma: f64,
}

impl FoldBracket {
    /// `total + Δ`, the fold's value before rounding errors. Non-decreasing
    /// in `Δ`.
    pub fn approx(&self, delta: f64) -> f64 {
        self.total + delta
    }

    /// The proven bound on `|fold − approx(Δ)|`.
    pub fn error(&self, delta: f64) -> f64 {
        self.gamma * (self.total + self.approx(delta).max(0.0))
    }

    /// A value no fold of a candidate with this `Δ` exceeds. Non-decreasing
    /// in `Δ`, so a group's smallest `Δ` gives its smallest upper end.
    pub fn upper(&self, delta: f64) -> f64 {
        let approx = self.approx(delta).max(0.0);
        approx + 2.0 * self.gamma * (self.total + approx)
    }

    /// The largest `approx` whose fold may still be at or below `limit`: a
    /// candidate with `approx(Δ) > approx_limit(limit)` folds strictly
    /// above `limit`.
    pub fn approx_limit(&self, limit: f64) -> f64 {
        limit + 2.0 * self.gamma * (self.total + limit.abs())
    }
}

impl DeltaEvaluator<'_> {
    /// Workload cost of the current base layout (ms).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Writes into `out` the sorted, unique `(statement, sub-plan)` pairs
    /// whose sub-plan reads any object in `moved` — the sub-plans a move of
    /// those objects re-costs. The list depends only on the workload, so a
    /// caller can build it once per moved set.
    pub fn touched(&self, moved: &[usize], out: &mut Vec<(u32, u32)>) {
        out.clear();
        for &obj in moved {
            if let Some(list) = self.touching.get(obj) {
                out.extend_from_slice(list);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Appends to `out` the unweighted cost of each `touched` sub-plan
    /// under `layout`, in `touched` order — one Figure-7 kernel call each.
    /// `scratch` carries the kernel's reusable accumulators; one per worker.
    pub fn recost_into(
        &self,
        layout: &Layout,
        touched: &[(u32, u32)],
        out: &mut Vec<f64>,
        scratch: &mut EvalScratch,
    ) {
        let terms = &mut scratch.terms;
        out.extend(
            touched
                .iter()
                .map(|&(s, p)| self.recost_sub(s as usize, p as usize, layout, terms)),
        );
    }

    /// Fills `table`'s shared terms against `layout`, the base layout of
    /// the moves registered with [`WideningTable::class_of`]. `probe` must
    /// equal `layout`; the members' rows are placed there once per class
    /// and restored. Returns `false`, leaving the table unusable, when a
    /// member occupies a drive outside the table's drives: the moves would
    /// then change terms the table keeps from the base.
    pub fn fill_widening_table(
        &self,
        table: &mut WideningTable,
        layout: &Layout,
        probe: &mut Layout,
        scratch: &mut EvalScratch,
    ) -> bool {
        let Some(&first) = table.members.first() else {
            return false;
        };
        let words = layout.occupancy(first).len();
        let terms = &mut scratch.terms;
        // `S` as a bitset, in the spare half of the union buffer.
        terms.drives.clear();
        terms.drives.resize(2 * words, 0);
        let (union, group) = terms.drives.split_at_mut(words);
        for &j in &table.drives {
            group[j / 64] |= 1 << (j % 64);
        }
        for &i in &table.members {
            if layout
                .occupancy(i)
                .iter()
                .zip(&*group)
                .any(|(&occ, &g)| occ & !g != 0)
            {
                return false;
            }
        }
        let keep = table.keep;
        let mut visited = 0u64;
        table.outside.clear();
        for &(s, p) in &table.touched {
            let (sub, totals) = (
                &self.workload[s as usize].0[p as usize],
                self.totals.of(s as usize, p as usize),
            );
            union.fill(0);
            for &(obj, _) in totals {
                for ((word, &occ), &g) in union
                    .iter_mut()
                    .zip(layout.occupancy(obj as usize))
                    .zip(&*group)
                {
                    *word |= occ & !g;
                }
            }
            let top = table.outside.len();
            table.outside.resize(top + keep, (0.0, usize::MAX));
            let top = &mut table.outside[top..];
            for j in Drives::new(union) {
                let Some(disk) = self.disks.get(j) else { break };
                let (transfer, seek, _) = drive_term(sub, totals, layout, j, disk);
                visited += 1;
                let term = transfer + seek;
                // Keep the `keep` largest, descending; ties keep the
                // earlier drive. Terms at or below 0.0 (or NaN) never
                // raise the kernel's max, which starts at 0.0.
                if term > top[keep - 1].0 {
                    let at = top.iter().position(|&(t, _)| term > t).unwrap_or(keep - 1);
                    top.copy_within(at..keep - 1, at + 1);
                    top[at] = (term, j);
                }
            }
        }
        let mut set = Vec::with_capacity(table.drives.len() + keep);
        table.inside.clear();
        for &(at, len) in &table.rep_spans {
            set.clear();
            set.extend_from_slice(&table.drives);
            set.extend_from_slice(&table.rep_drives[at..at + len]);
            for &i in &table.members {
                probe.place_proportional(i, &set, self.disks);
            }
            for &(s, p) in &table.touched {
                let (sub, totals) = (
                    &self.workload[s as usize].0[p as usize],
                    self.totals.of(s as usize, p as usize),
                );
                let mut max_cost = 0.0f64;
                for &j in &table.drives {
                    let (transfer, seek, _) = drive_term(sub, totals, probe, j, &self.disks[j]);
                    visited += 1;
                    max_cost = max_cost.max(transfer + seek);
                }
                table.inside.push(max_cost);
            }
            for &i in &table.members {
                probe.copy_row_from(layout, i);
            }
        }
        terms.visited += visited;
        true
    }

    /// Appends to `out` the unweighted cost of each of `table`'s sub-plans
    /// under `trial`: the table's base layout with the group widened by
    /// `add`, a move of `class`. Bit-identical to [`DeltaEvaluator::recost_into`]
    /// on the same trial, at one drive term per added drive and sub-plan.
    pub fn price_widening(
        &self,
        table: &WideningTable,
        class: usize,
        add: &[usize],
        trial: &Layout,
        out: &mut Vec<f64>,
        scratch: &mut EvalScratch,
    ) {
        let width = table.touched.len();
        let inside = &table.inside[class * width..(class + 1) * width];
        let outside = table.outside.chunks_exact(table.keep);
        for ((&(s, p), &inside), outside) in table.touched.iter().zip(inside).zip(outside) {
            let sub = &self.workload[s as usize].0[p as usize];
            let totals = self.totals.of(s as usize, p as usize);
            let mut cost = inside;
            if let Some(&(term, _)) = outside.iter().find(|(_, j)| !add.contains(j)) {
                cost = cost.max(term);
            }
            for &j in add {
                let (transfer, seek, _) = drive_term(sub, totals, trial, j, &self.disks[j]);
                cost = cost.max(transfer + seek);
            }
            if self.model.include_temp_io {
                cost = cost.max(self.model.temp_ms(sub));
            }
            out.push(cost);
        }
        scratch.terms.visited += (width * add.len()) as u64;
    }

    /// Workload cost (ms) of a layout that differs from the base only in
    /// the `touched` sub-plans' costs, which are `values` (as
    /// [`DeltaEvaluator::recost_into`] writes them for `touched`, built by
    /// [`DeltaEvaluator::touched`]). Bit-identical to
    /// [`CostModel::workload_cost_subplans`] on that layout: it replays the
    /// same additions in the same order (per-statement sub-plan sums in `p`
    /// order, then the workload sum in `s` order), substituting `values`
    /// for the touched terms. The workload sum resumes from the base's
    /// prefix fold at the first touched statement — the running total a
    /// fold from 0.0 holds there — so statements before it cost nothing.
    pub fn fold(&self, touched: &[(u32, u32)], values: &[f64]) -> f64 {
        let first = touched
            .first()
            .map_or(self.stmt_costs.len(), |&(s, _)| s as usize);
        let mut total = self.prefix[first];
        let mut i = 0usize;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "statement and sub-plan counts are far below 2^32, the range of the touched pairs"
        )]
        for (s, &stmt_cached) in self.stmt_costs.iter().enumerate().skip(first) {
            if touched.get(i).is_none_or(|&(ts, _)| ts != s as u32) {
                total += stmt_cached;
                continue;
            }
            let w = self.workload[s].1;
            let mut sum = 0.0f64;
            for (p, &cached) in self.sub_costs[s].iter().enumerate() {
                if touched
                    .get(i)
                    .is_some_and(|&(ts, tp)| ts == s as u32 && tp == p as u32)
                {
                    sum += values[i];
                    i += 1;
                } else {
                    sum += cached;
                }
            }
            total += w * sum;
        }
        total
    }

    /// The candidate's departure from the ledger on its touched sub-plans,
    /// `Δ = Σ w_s·(values_i − sub_costs[s][p])` over `touched` in order
    /// from 0.0: one step per touched sub-plan, where
    /// [`DeltaEvaluator::fold`] adds every statement after the first
    /// touched one. `total + Δ` is the fold's value up to rounding, which
    /// [`DeltaEvaluator::bracket`] bounds. NaN when a value is negative or
    /// not finite, where that bound does not hold.
    pub fn delta(&self, touched: &[(u32, u32)], values: &[f64]) -> f64 {
        let mut delta = 0.0f64;
        for (&(s, p), &value) in touched.iter().zip(values) {
            if !nonneg_finite(value) {
                return f64::NAN;
            }
            let (s, p) = (s as usize, p as usize);
            delta += self.workload[s].1 * (value - self.sub_costs[s][p]);
        }
        delta
    }

    /// The bracket of the folds of candidates that touch `width`
    /// sub-plans, against the current ledger: `γ_M = M·u / (1 − M·u)` with
    /// `u = 2⁻⁵³` and `M = 2·(statements + most sub-plans per statement +
    /// width + 2)` (DESIGN.md §7). `None` when a weight or a ledger cost is
    /// negative or not finite, or `M·u` is too large for the bound's
    /// derivation; a caller then folds every candidate.
    pub fn bracket(&self, width: usize) -> Option<FoldBracket> {
        let m = 2.0 * (self.stmt_costs.len() + self.max_subplans + width + 2) as f64;
        let mu = m * (f64::EPSILON / 2.0);
        (self.nonneg && self.total.is_finite() && mu <= 0.01).then(|| FoldBracket {
            total: self.total,
            gamma: mu / (1.0 - mu),
        })
    }

    /// Installs an adopted move as the new base: writes `values` (the
    /// `touched` sub-plans' costs under the adopted layout, as for
    /// [`DeltaEvaluator::fold`]) into the ledger, re-sums the touched
    /// statements in `p` order and re-folds the prefix. The new
    /// [`DeltaEvaluator::total`] is `fold(touched, values)` bit for bit:
    /// the same additions in the same order.
    pub fn adopt(&mut self, touched: &[(u32, u32)], values: &[f64]) {
        for (&(s, p), &value) in touched.iter().zip(values) {
            self.sub_costs[s as usize][p as usize] = value;
            self.nonneg &= nonneg_finite(value);
        }
        let mut last = None;
        for &(s, _) in touched {
            if last.replace(s) == Some(s) {
                continue;
            }
            let s = s as usize;
            let mut sum = 0.0f64;
            for &cost in &self.sub_costs[s] {
                sum += cost;
            }
            self.stmt_costs[s] = self.workload[s].1 * sum;
        }
        self.refold_prefix();
        self.total = self.prefix[self.stmt_costs.len()];
    }

    /// Recomputes one sub-plan's unweighted cost under `layout` through the
    /// kernel, using the cached layout-independent object totals.
    #[inline]
    fn recost_sub(&self, s: usize, p: usize, layout: &Layout, terms: &mut DiskTerms) -> f64 {
        let sub = &self.workload[s].0[p];
        let totals = self.totals.of(s, p);
        self.model
            .subplan(sub, totals, layout, self.disks, terms, no_visit)
            .0
    }

    /// Recomputes [`DeltaEvaluator::fold`]'s prefix from the statement
    /// ledger, folding from 0.0 in `s` order like every workload total.
    fn refold_prefix(&mut self) {
        self.prefix.clear();
        let mut total = 0.0f64;
        self.prefix.push(total);
        for &c in &self.stmt_costs {
            total += c;
            self.prefix.push(total);
        }
    }
}

/// Aggregates each object's total blocks across a sub-plan's accesses.
/// Objects may appear once per access kind; the seek term needs per-object
/// totals (the ledger caches them, since the search's scoring re-costs
/// sub-plans thousands of times), while transfer is charged at each
/// access's own rate.
#[inline]
fn object_totals(sub: &Subplan) -> Vec<(u32, u64)> {
    let mut totals: Vec<(u32, u64)> = Vec::with_capacity(sub.accesses.len());
    for access in &sub.accesses {
        let idx = access.object.0;
        match totals.iter_mut().find(|(o, _)| *o == idx) {
            Some((_, t)) => *t += access.blocks,
            None => totals.push((idx, access.blocks)),
        }
    }
    totals
}

/// Reusable scratch of the sparse Figure-7 kernel: one serves every
/// sub-plan a caller costs.
#[derive(Debug, Default)]
struct DiskTerms {
    /// Union of a multi-object sub-plan's occupancy rows.
    drives: Vec<u64>,
    /// Drive terms evaluated, summed over every sub-plan costed.
    visited: u64,
}

/// Milliseconds per block for `access` on `disk`: the read or the write
/// rate, as the access kind selects.
#[inline]
fn ms_per_block(access: &ObjectAccess, disk: &DiskSpec) -> f64 {
    if access.kind.is_read() {
        disk.read_ms_per_block()
    } else {
        disk.write_ms_per_block()
    }
}

/// Figure 7's term of one sub-plan on drive `j` under `layout`:
/// `(TransferCost_j, SeekCost_j, k)`. The one definition of a drive's
/// term — the kernel ([`disk_bottleneck`]) and the widening table
/// ([`WideningTable`]) both call it. Transfer folds `x·B·ms_per_block`
/// over the accesses in access order; `k` and the min share fold over
/// `totals` in order; an object takes part iff it occupies `j`
/// ([`Layout::share`]). These are the float operations, in the order,
/// of the dense loop over every drive (`tests/kernel_oracle.rs`).
#[inline(always)]
fn drive_term(
    sub: &Subplan,
    totals: &[(u32, u64)],
    layout: &Layout,
    j: usize,
    disk: &DiskSpec,
) -> (f64, f64, usize) {
    if let [(obj, total_blocks)] = *totals {
        // One object (nearly every sub-plan): every access reads it, and
        // `k ≤ 1` has no seek term.
        let Some(x) = layout.share(obj as usize, j) else {
            return (0.0, 0.0, 0);
        };
        let mut transfer = 0.0;
        for access in &sub.accesses {
            transfer += x * access.blocks as f64 * ms_per_block(access, disk);
        }
        return (transfer, 0.0, usize::from(total_blocks != 0));
    }
    let mut transfer = 0.0;
    for access in &sub.accesses {
        if let Some(x) = layout.share(access.object.index(), j) {
            transfer += x * access.blocks as f64 * ms_per_block(access, disk);
        }
    }
    let (mut k, mut min_share) = (0usize, f64::INFINITY);
    for &(obj, total_blocks) in totals {
        if total_blocks == 0 {
            continue;
        }
        if let Some(x) = layout.share(obj as usize, j) {
            k += 1;
            min_share = min_share.min(x * total_blocks as f64);
        }
    }
    let seek = if k > 1 {
        k as f64 * disk.avg_seek_ms * min_share
    } else {
        0.0
    };
    (transfer, seek, k)
}

/// The Figure-7 bottleneck of one sub-plan, `max_j (transfer_j + seek_j)`
/// from 0.0, and the first disk attaining it (`None` when no disk exceeds
/// 0.0). Only the drives the sub-plan's objects occupy are visited
/// ([`Layout::occupancy`]); `visit(j, transfer_ms, seek_ms, k)` sees each
/// of them in ascending order. [`CostModel::trace`] reads its terms from
/// `visit`, every other path passes a no-op, so all share one arithmetic
/// path. An unvisited drive would contribute exactly
/// `0.0 + 0.0`, which never raises the max (it starts at 0.0) nor wins the
/// strict `>` bottleneck test, so the result is bit-identical to the dense
/// loop over every drive (DESIGN.md §7).
#[inline]
fn disk_bottleneck(
    sub: &Subplan,
    totals: &[(u32, u64)],
    layout: &Layout,
    disks: &[DiskSpec],
    terms: &mut DiskTerms,
    mut visit: impl FnMut(usize, f64, f64, usize),
) -> (f64, Option<usize>) {
    let mut max_cost = 0.0f64;
    let mut bottleneck = None;
    let drives: &[u64] = match *totals {
        [] => return (max_cost, bottleneck),
        // One object (nearly every sub-plan): its own row.
        [(obj, _)] => layout.occupancy(obj as usize),
        [(first, _), ..] => {
            terms.drives.clear();
            terms
                .drives
                .resize(layout.occupancy(first as usize).len(), 0);
            for &(obj, _) in totals {
                for (word, &occ) in terms.drives.iter_mut().zip(layout.occupancy(obj as usize)) {
                    *word |= occ;
                }
            }
            &terms.drives
        }
    };
    let mut visited = 0u64;
    for j in Drives::new(drives) {
        let Some(disk) = disks.get(j) else { break };
        let (transfer, seek, k) = drive_term(sub, totals, layout, j, disk);
        visited += 1;
        visit(j, transfer, seek, k);
        if transfer + seek > max_cost {
            bottleneck = Some(j);
        }
        max_cost = max_cost.max(transfer + seek);
    }
    terms.visited += visited;
    (max_cost, bottleneck)
}

/// Decomposes a weighted workload once, for repeated cost evaluation.
pub fn decompose_workload(plans: &[(PhysicalPlan, f64)]) -> Vec<(Vec<Subplan>, f64)> {
    plans.iter().map(|(p, w)| (p.subplans(), *w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::ObjectId;
    use dblayout_disksim::uniform_disks;
    use dblayout_planner::PlanNode;

    /// `Cost(Q, L)`: the default model's cost of one statement (a workload
    /// of it at weight 1).
    fn statement_cost(plan: &PhysicalPlan, layout: &Layout, disks: &[DiskSpec]) -> f64 {
        CostModel::default().workload_cost(&[(plan.clone(), 1.0)], layout, disks)
    }

    fn scan(obj: u32, blocks: u64) -> PlanNode {
        PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64,
        }
    }

    /// A=300, B=150 merge-joined; 3 identical disks (Example 5 setup).
    fn example5() -> (PhysicalPlan, Vec<DiskSpec>, Vec<u64>) {
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "a=b".into(),
            rows: 100.0,
            left: Box::new(scan(0, 300)),
            right: Box::new(scan(1, 150)),
        });
        let disks = uniform_disks(3, 100_000, 10.0, 20.0);
        (plan, disks, vec![300, 150])
    }

    #[test]
    fn example5_cost_ordering_l3_l1_l2() {
        let (plan, disks, sizes) = example5();
        let t = disks[0].read_ms_per_block(); // 1/T in ms per block
        let s = disks[0].avg_seek_ms;

        // L1: full striping — cost = 150/T + 100·S per the paper.
        let l1 = Layout::full_striping(sizes.clone(), &disks);
        let c1 = statement_cost(&plan, &l1, &disks);
        assert!(
            (c1 - (150.0 * t + 2.0 * 50.0 * s)).abs() < 1e-6,
            "c1 = {c1}"
        );

        // L2: A on D1,D2; B on D2,D3 — bottleneck D2 = 225/T + 150·S.
        let mut l2 = Layout::empty(sizes.clone(), 3);
        l2.place(0, &[(0, 1.0), (1, 1.0)]);
        l2.place(1, &[(1, 1.0), (2, 1.0)]);
        let c2 = statement_cost(&plan, &l2, &disks);
        assert!(
            (c2 - (225.0 * t + 2.0 * 75.0 * s)).abs() < 1e-6,
            "c2 = {c2}"
        );

        // L3: A on D1,D2; B on D3 — no co-location, cost = 150/T.
        let mut l3 = Layout::empty(sizes, 3);
        l3.place(0, &[(0, 1.0), (1, 1.0)]);
        l3.place(1, &[(2, 1.0)]);
        let c3 = statement_cost(&plan, &l3, &disks);
        assert!((c3 - 150.0 * t).abs() < 1e-6, "c3 = {c3}");

        // Paper's conclusion: L3 < L1 < L2.
        assert!(c3 < c1 && c1 < c2);
    }

    #[test]
    fn single_object_scan_has_no_seek_cost() {
        let disks = uniform_disks(4, 100_000, 10.0, 20.0);
        let plan = PhysicalPlan::new(scan(0, 400));
        let striped = Layout::full_striping(vec![400], &disks);
        let c = statement_cost(&plan, &striped, &disks);
        let t = disks[0].read_ms_per_block();
        assert!((c - 100.0 * t).abs() < 1e-6);
    }

    #[test]
    fn wider_striping_reduces_single_scan_cost() {
        let disks = uniform_disks(8, 100_000, 10.0, 20.0);
        let plan = PhysicalPlan::new(scan(0, 800));
        let mut narrow = Layout::empty(vec![800], 8);
        narrow.place(0, &[(0, 1.0), (1, 1.0)]);
        let wide = Layout::full_striping(vec![800], &disks);
        assert!(statement_cost(&plan, &wide, &disks) < statement_cost(&plan, &narrow, &disks));
    }

    #[test]
    fn write_accesses_use_write_rate() {
        let disks = uniform_disks(1, 100_000, 10.0, 20.0);
        let read_plan = PhysicalPlan::new(scan(0, 100));
        let write_plan = PhysicalPlan::new(PlanNode::Insert {
            object: ObjectId(0),
            name: "t".into(),
            write_blocks: 100,
            rows: 100.0,
            child: None,
        });
        let layout = Layout::full_striping(vec![100], &disks);
        let cr = statement_cost(&read_plan, &layout, &disks);
        let cw = statement_cost(&write_plan, &layout, &disks);
        assert!(cw > cr, "writes are slower: {cw} vs {cr}");
    }

    #[test]
    fn blocking_subplans_sum() {
        let disks = uniform_disks(2, 100_000, 10.0, 20.0);
        // HashJoin: build(0) and probe(1) in different sub-plans → costs add.
        let plan = PhysicalPlan::new(PlanNode::HashJoin {
            on: "x".into(),
            rows: 1.0,
            build: Box::new(scan(0, 100)),
            probe: Box::new(scan(1, 100)),
            spill_blocks: 0,
        });
        let layout = Layout::full_striping(vec![100, 100], &disks);
        let c = statement_cost(&plan, &layout, &disks);
        let t = disks[0].read_ms_per_block();
        // Each sub-plan: 50 blocks on the bottleneck disk, no seeks.
        assert!((c - 2.0 * 50.0 * t).abs() < 1e-6, "c = {c}");
    }

    #[test]
    fn temp_io_excluded_by_default_included_on_flag() {
        let disks = uniform_disks(2, 100_000, 10.0, 20.0);
        let plan = PhysicalPlan::new(PlanNode::Sort {
            by: "k".into(),
            rows: 1e5,
            spill_blocks: 10_000,
            child: Box::new(scan(0, 10)),
        });
        let layout = Layout::full_striping(vec![10], &disks);
        let base = statement_cost(&plan, &layout, &disks);
        let with_temp = CostModel {
            include_temp_io: true,
            ..CostModel::default()
        }
        .workload_cost(&[(plan, 1.0)], &layout, &disks);
        assert!(with_temp > base * 10.0, "{with_temp} vs {base}");
    }

    #[test]
    fn workload_cost_weights_statements() {
        let disks = uniform_disks(2, 100_000, 10.0, 20.0);
        let plan = PhysicalPlan::new(scan(0, 100));
        let layout = Layout::full_striping(vec![100], &disks);
        let single = statement_cost(&plan, &layout, &disks);
        let total = CostModel::default().workload_cost(&[(plan, 3.0)], &layout, &disks);
        assert!((total - 3.0 * single).abs() < 1e-9);
    }

    /// The costing walk shares `disk_bottleneck` with every other cost
    /// path; this guards against the two ever diverging, and checks that
    /// its events and its visitor report the same terms.
    #[test]
    fn traced_cost_is_bit_identical_to_untraced() {
        use dblayout_obs::{Collector, RingSink};
        let (plan, disks, sizes) = example5();
        let layout = Layout::full_striping(sizes, &disks);
        let workload = decompose_workload(&[(plan, 1.0)]);
        let model = CostModel::default();
        let ring = Arc::new(RingSink::new(1024));
        let mut terms = Vec::new();
        let collector = Collector::deterministic(ring.clone());
        let costs = model.trace(&workload, &layout, &disks, &collector, |t| terms.push(*t));
        let untraced = model.workload_cost_subplans(&workload, &layout, &disks);
        assert_eq!(costs.len(), 1);
        assert_eq!(costs[0].to_bits(), untraced.to_bits());
        let records = ring.drain();
        // One subplan span with per-disk term events and a bottleneck
        // summary on the span end.
        let events: Vec<_> = records
            .iter()
            .filter(|r| r.name == "costmodel.disk")
            .collect();
        assert!(!events.is_empty());
        assert_eq!(events.len(), terms.len());
        for (event, term) in events.iter().zip(&terms) {
            assert_eq!(event.field_u64("disk"), Some(term.disk as u64));
            assert_eq!(event.field_u64("objects"), Some(term.objects as u64));
            assert_eq!(
                event.field_f64("transfer_ms").map(f64::to_bits),
                Some(term.transfer_ms.to_bits())
            );
            assert_eq!(
                event.field_f64("seek_ms").map(f64::to_bits),
                Some(term.seek_ms.to_bits())
            );
        }
        let end = records
            .iter()
            .find(|r| r.kind == dblayout_obs::RecordKind::SpanEnd)
            .unwrap();
        assert_eq!(
            end.field_f64("cost_ms").map(f64::to_bits),
            Some(costs[0].to_bits())
        );
    }

    /// Two statements over three objects: a merge join (0 ⋈ 1) weighted 5
    /// and a scan of 2 weighted 1 — enough structure that moving one
    /// object touches some but not all sub-plans.
    #[allow(clippy::type_complexity)]
    fn delta_fixture() -> (Vec<(Vec<Subplan>, f64)>, Vec<DiskSpec>, Layout) {
        let join = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "a=b".into(),
            rows: 100.0,
            left: Box::new(scan(0, 300)),
            right: Box::new(scan(1, 150)),
        });
        let lone = PhysicalPlan::new(scan(2, 90));
        let disks = uniform_disks(3, 100_000, 10.0, 20.0);
        let workload = decompose_workload(&[(join, 5.0), (lone, 1.0)]);
        let mut layout = Layout::empty(vec![300, 150, 90], 3);
        layout.place(0, &[(0, 1.0), (1, 1.0)]);
        layout.place(1, &[(2, 1.0)]);
        layout.place(2, &[(0, 0.5), (1, 0.25), (2, 0.25)]);
        (workload, disks, layout)
    }

    #[test]
    fn delta_evaluator_base_total_is_bit_identical_to_full_cost() {
        let (workload, disks, layout) = delta_fixture();
        let model = CostModel::default();
        let eval = model.delta_evaluator(&workload, &layout, &disks);
        let full = model.workload_cost_subplans(&workload, &layout, &disks);
        assert_eq!(eval.total().to_bits(), full.to_bits());
    }

    /// A layout no known move describes gets a new ledger: its total is
    /// the full cost, and its folds match a full re-evaluation.
    #[test]
    fn a_new_ledger_resyncs_after_arbitrary_layout_change() {
        let (workload, disks, _) = delta_fixture();
        let model = CostModel::default();
        let other = Layout::full_striping(vec![300, 150, 90], &disks);
        let eval = model.delta_evaluator(&workload, &other, &disks);
        let full = model.workload_cost_subplans(&workload, &other, &disks);
        assert_eq!(eval.total().to_bits(), full.to_bits());
        let mut trial = other.clone();
        trial.place(1, &[(2, 1.0)]);
        let (mut touched, mut values) = (Vec::new(), Vec::new());
        eval.touched(&[1], &mut touched);
        eval.recost_into(&trial, &touched, &mut values, &mut EvalScratch::new());
        let full = model.workload_cost_subplans(&workload, &trial, &disks);
        assert_eq!(eval.fold(&touched, &values).to_bits(), full.to_bits());
    }

    /// Evaluates the move to `trial` the long way through `eval`'s ledger:
    /// every sub-plan that reads an object re-costed under `trial` and the
    /// workload folded from 0.0, with no prefix of the base to resume from.
    fn evaluate_move(eval: &DeltaEvaluator<'_>, trial: &Layout, scratch: &mut EvalScratch) -> f64 {
        let every: Vec<usize> = (0..trial.object_count()).collect();
        let (mut touched, mut values) = (Vec::new(), Vec::new());
        eval.touched(&every, &mut touched);
        eval.recost_into(trial, &touched, &mut values, scratch);
        eval.fold(&touched, &values)
    }

    /// A move scored as the search scores it — `touched`, `recost_into`,
    /// `fold` — equals a full re-evaluation of the trial, and so does a
    /// new ledger built on the trial.
    #[test]
    fn evaluate_move_is_bit_identical_to_full_reevaluation() {
        let (workload, disks, layout) = delta_fixture();
        let model = CostModel::default();
        let eval = model.delta_evaluator(&workload, &layout, &disks);
        // Move object 1 (touches only the join's sub-plan) onto all disks.
        let mut trial = layout.clone();
        trial.place(1, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let (mut touched, mut values) = (Vec::new(), Vec::new());
        eval.touched(&[1], &mut touched);
        eval.recost_into(&trial, &touched, &mut values, &mut EvalScratch::new());
        let full = model.workload_cost_subplans(&workload, &trial, &disks);
        assert_eq!(eval.fold(&touched, &values).to_bits(), full.to_bits());
        let fresh = model.delta_evaluator(&workload, &trial, &disks);
        assert_eq!(fresh.total().to_bits(), full.to_bits());
    }

    /// `fold(touched, recost_into(trial))` on a walk of moves, each adopted
    /// in turn so later folds resume from a moved prefix: every fold and
    /// every adopted total equals the move evaluated the long way and a
    /// full re-evaluation of the trial.
    #[test]
    fn fold_is_bit_identical_to_evaluate_move() {
        let (workload, disks, layout) = delta_fixture();
        let model = CostModel::default();
        let mut eval = model.delta_evaluator(&workload, &layout, &disks);
        let mut scratch = EvalScratch::new();
        let (mut touched, mut values) = (Vec::new(), Vec::new());
        let mut base = layout.clone();
        for (moved, split) in [
            // Object 1 touches only the join's sub-plan.
            (vec![1usize], vec![(0usize, 1.0), (1, 1.0), (2, 1.0)]),
            (vec![0], vec![(2, 1.0)]),
            (vec![2], vec![(0, 1.0), (1, 1.0)]),
            (vec![0, 1], vec![(1, 1.0)]),
            (vec![], vec![]),
        ] {
            let mut trial = base.clone();
            for &obj in &moved {
                trial.place(obj, &split);
            }
            eval.touched(&moved, &mut touched);
            values.clear();
            eval.recost_into(&trial, &touched, &mut values, &mut scratch);
            let fast = eval.fold(&touched, &values);
            let slow = evaluate_move(&eval, &trial, &mut scratch);
            assert_eq!(fast.to_bits(), slow.to_bits(), "moved {moved:?}");
            let full = model.workload_cost_subplans(&workload, &trial, &disks);
            assert_eq!(fast.to_bits(), full.to_bits(), "moved {moved:?}");
            eval.adopt(&touched, &values);
            assert_eq!(eval.total().to_bits(), fast.to_bits(), "moved {moved:?}");
            base = trial;
        }
    }

    #[test]
    fn adopt_installs_the_trial_as_the_new_base() {
        let (workload, disks, layout) = delta_fixture();
        let model = CostModel::default();
        let mut eval = model.delta_evaluator(&workload, &layout, &disks);
        let mut scratch = EvalScratch::new();
        let (mut touched, mut values) = (Vec::new(), Vec::new());
        let mut trial = layout.clone();
        trial.place(2, &[(0, 1.0)]);
        eval.touched(&[2], &mut touched);
        eval.recost_into(&trial, &touched, &mut values, &mut scratch);
        eval.adopt(&touched, &values);
        // After adopt, the evaluator behaves as if constructed on `trial`:
        // further moves score bit-identically to a fresh evaluator.
        let fresh = model.delta_evaluator(&workload, &trial, &disks);
        assert_eq!(eval.total().to_bits(), fresh.total().to_bits());
        let mut next = trial.clone();
        next.place(0, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        eval.touched(&[0], &mut touched);
        values.clear();
        eval.recost_into(&next, &touched, &mut values, &mut scratch);
        let a = eval.fold(&touched, &values);
        let b = fresh.fold(&touched, &values);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn heterogeneous_disks_bottleneck_on_slowest() {
        let mut disks = uniform_disks(2, 100_000, 10.0, 20.0);
        disks[1].read_mb_s = 10.0; // half speed
        let plan = PhysicalPlan::new(scan(0, 200));
        // Uniform 50/50 split: slow disk is the bottleneck.
        let mut even = Layout::empty(vec![200], 2);
        even.place(0, &[(0, 1.0), (1, 1.0)]);
        let c_even = statement_cost(&plan, &even, &disks);
        // Rate-proportional split equalizes finish times and costs less.
        let prop = Layout::full_striping(vec![200], &disks);
        let c_prop = statement_cost(&plan, &prop, &disks);
        assert!(c_prop < c_even, "{c_prop} vs {c_even}");
    }
}
