//! Cost-based query optimization: statement → [`PhysicalPlan`].
//!
//! System-R-style left-deep dynamic programming over join orders with
//! physical-property (sort order) tracking. The internal cost function here
//! drives *plan choice only*; it approximates I/O volume in block units with
//! a random-I/O penalty. The layout advisor's cost model (paper Figure 7)
//! lives in `dblayout-core` and consumes the plans this module produces —
//! exactly the division of labor in the paper, where the server's optimizer
//! picks plans while being "insensitive to database layout" (§5).

use std::rc::Rc;

use dblayout_catalog::{blocks_for_rows, Catalog, Index, ObjectId, Table};
use dblayout_sql::ast::{BinaryOp, Expr, FromItem, InsertSource, Query, SelectItem, Statement};

use crate::access::cardenas_blocks;
use crate::error::{PlanError, PlanResult};
use crate::explain::render_expr;
use crate::physical::{PhysicalPlan, PlanNode};
use crate::selectivity::{join_selectivity, predicate_selectivity, SEL_UNKNOWN};

// Plan-choice cost weights: they decide which plan wins, and the layout
// advisor's Figure-7 model (dblayout-core) prices the winner on its own.

/// Memory grant per blocking operator, in blocks (512 = 32 MB); larger
/// inputs spill to tempdb.
const MEMORY_GRANT_BLOCKS: u64 = 512;
/// Cost multiplier for random-block reads relative to sequential.
const RANDOM_IO_WEIGHT: f64 = 3.0;
/// Extra cost per build-side block of a hash join (hashing overhead).
const HASH_BUILD_FACTOR: f64 = 1.2;
/// Cost per block of an in-memory sort (CPU).
const SORT_CPU_FACTOR: f64 = 0.5;
/// Cost per block of tempdb spill I/O (write + read back).
const SPILL_IO_FACTOR: f64 = 2.0;
/// CPU cost per row flowing through an operator, in block units.
const ROW_CPU_COST: f64 = 5e-5;
/// Extra CPU cost per nested-loops probe (index navigation per outer row),
/// in block units. Steers large intermediates toward hash joins, as
/// production optimizers do.
const NL_PROBE_COST: f64 = 3e-4;
/// Maximum number of candidate plans retained per join subset.
const MAX_CANDIDATES: usize = 5;

/// Most FROM-clause bindings one SELECT may join. The join-order DP visits
/// every subset of the bindings, so its time and memory double with each
/// binding: 16 bindings plan in about a second, and no bundled workload
/// binds more than 8.
pub const MAX_JOIN_BINDINGS: usize = 16;

/// Plans `stmt` against `catalog`.
pub fn plan_statement(catalog: &Catalog, stmt: &Statement) -> PlanResult<PhysicalPlan> {
    Optimizer::new(catalog).plan(stmt)
}

/// The query optimizer.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
}

/// A table instance in scope (FROM-clause binding).
#[derive(Debug, Clone)]
struct Binding {
    /// Binding name (alias or table name).
    name: String,
    /// The bound table (cloned; tables are metadata-sized).
    table: Table,
    /// Catalog object of the table.
    object: ObjectId,
}

/// A resolved column: (binding index, column name).
type ColRef = (usize, String);

/// Classified conjuncts of the statement's predicates.
#[derive(Debug, Default)]
struct Preds {
    /// Single-binding predicates, routed per binding.
    local: Vec<Vec<Expr>>,
    /// Equijoin predicates `(a, b, selectivity)`.
    joins: Vec<(ColRef, ColRef, f64)>,
    /// Conjuncts containing subqueries, kept whole.
    subqueries: Vec<Expr>,
    /// Multi-binding non-equijoin conjuncts (applied as a residual filter).
    cross: Vec<Expr>,
}

/// A planned input: an access path, a joined subset's winner, or a
/// finished (sub)query.
#[derive(Debug)]
struct Cand {
    node: PlanNode,
    cost: f64,
    rows: f64,
    /// Estimated output row width in bytes.
    width: u32,
    /// Sort order of the output, if any.
    order: Option<ColRef>,
}

/// A candidate of the join-order DP. It carries what plan choice reads —
/// cost, rows, width and order — and shares the recipe of its inputs, so
/// enumeration copies no plan tree. `order` is an [`OrderKeys`] id.
#[derive(Clone)]
struct Entry<'a> {
    cost: f64,
    rows: f64,
    width: u32,
    order: Option<usize>,
    recipe: Rc<Recipe<'a>>,
}

/// How a DP candidate's plan is built; only the full set's winners are.
enum Recipe<'a> {
    /// A base access path.
    Access(PlanNode),
    /// `left` (producing `left_rows` rows) joined with binding `ctx.b`.
    Join {
        ctx: Rc<JoinCtx<'a>>,
        op: JoinOp<'a>,
        rows: f64,
        left: Rc<Recipe<'a>>,
        left_rows: f64,
    },
}

/// The physical join of a [`Recipe::Join`], with its right-side access
/// path where the join reads one.
enum JoinOp<'a> {
    /// Merge join on key pair `key` of the context; `sort` holds the spill
    /// of the sort that orders the left input, when it needs one.
    Merge {
        key: usize,
        sort: Option<u64>,
        right: Rc<Recipe<'a>>,
    },
    /// Hash join building on the left input when `build_left`.
    Hash {
        build_left: bool,
        spill: u64,
        right: Rc<Recipe<'a>>,
    },
    /// Indexed nested loops probing binding `ctx.b` through `ctx.probe`.
    NestedLoops,
}

/// What joining binding `b` to a planned subset depends on, computed once
/// per (subset, `b`) rather than once per candidate pair.
struct JoinCtx<'a> {
    b: usize,
    /// Indices into [`Preds::joins`] of the equijoins linking the subset
    /// to `b`; empty for a cartesian product.
    links: Vec<usize>,
    /// The links' key pairs as [`OrderKeys`] ids, oriented (subset side,
    /// `b` side).
    keys: Vec<(usize, usize)>,
    /// Product of the links' selectivities (1 for a cartesian product).
    sel: f64,
    /// The links' `b`-side columns cover `b`'s clustered (unique) key.
    covers_key: bool,
    /// How nested loops would probe `b` on the first link's column.
    probe: Option<NlProbe<'a>>,
}

/// The repeated-probe inner path of an indexed nested-loops join.
enum NlProbe<'a> {
    /// Seeks into the table, clustered on the join column.
    Clustered,
    /// Seeks into a nonclustered index led by the join column, then RID
    /// lookups into the table.
    Index(&'a Index, ObjectId),
}

/// The sort orders one join enumeration meets, interned so that DP
/// candidates carry and compare a small id instead of a column name.
#[derive(Default)]
struct OrderKeys(Vec<ColRef>);

impl OrderKeys {
    fn id(&mut self, col: &ColRef) -> usize {
        self.0.iter().position(|c| c == col).unwrap_or_else(|| {
            self.0.push(col.clone());
            self.0.len() - 1
        })
    }

    fn col(&self, id: usize) -> &ColRef {
        &self.0[id]
    }
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Produces the physical plan for a statement.
    pub fn plan(&self, stmt: &Statement) -> PlanResult<PhysicalPlan> {
        let root = match stmt {
            Statement::Select(q) => self.plan_select(q, &[])?.node,
            Statement::Insert { table, source, .. } => self.plan_insert(table, source)?,
            Statement::Update {
                table,
                where_clause,
                ..
            } => self.plan_write(table, where_clause.as_ref(), true)?,
            Statement::Delete {
                table,
                where_clause,
            } => self.plan_write(table, where_clause.as_ref(), false)?,
        };
        Ok(PhysicalPlan::new(root))
    }

    // ------------------------------------------------------------------
    // SELECT planning
    // ------------------------------------------------------------------

    fn plan_select(&self, q: &Query, outer: &[Binding]) -> PlanResult<Cand> {
        let bindings = self.resolve_bindings(q)?;
        if bindings.is_empty() {
            return Err(PlanError::Unsupported("SELECT without FROM".into()));
        }
        if bindings.len() > MAX_JOIN_BINDINGS {
            return Err(PlanError::Unsupported(format!(
                "FROM clause binds {} tables; join enumeration plans at most {MAX_JOIN_BINDINGS}",
                bindings.len()
            )));
        }
        let preds = self.classify_predicates(q, &bindings, outer)?;
        let needed = self.needed_columns(q, &bindings);

        // Base access paths per binding, pruned to their frontier.
        let mut keys = OrderKeys::default();
        let base: Vec<Vec<Entry>> = bindings
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut frontier = Vec::new();
                for c in self.access_paths(i, b, &preds.local[i], &needed[i]) {
                    let order = c.order.as_ref().map(|o| keys.id(o));
                    if !dominated(&frontier, order, c.cost) {
                        let entry = Entry {
                            cost: c.cost,
                            rows: c.rows,
                            width: c.width,
                            order,
                            recipe: Rc::new(Recipe::Access(c.node)),
                        };
                        admit(&mut frontier, entry, MAX_CANDIDATES);
                    }
                }
                frontier
            })
            .collect();
        let join_keys: Vec<(usize, usize)> = preds
            .joins
            .iter()
            .map(|(a, c, _)| (keys.id(a), keys.id(c)))
            .collect();

        // Join-order DP over left-deep trees, indexed by binding bitmask.
        // Masks are visited in ascending order within each size, and every
        // mask is populated: a disconnected join graph still yields the
        // cartesian candidates (no links → selectivity 1).
        let n = bindings.len();
        let mut dp: Vec<Vec<Entry>> = vec![Vec::new(); 1 << n];
        for (i, entries) in base.iter().enumerate() {
            dp[1 << i] = entries.clone();
        }
        for size in 2..=n {
            for mask in 1..dp.len() {
                if mask.count_ones() as usize != size - 1 {
                    continue;
                }
                // A subset is only ever a left input in this round, so its
                // frontier can go; its recipes live on in the extensions.
                let lefts = std::mem::take(&mut dp[mask]);
                for b in (0..n).filter(|b| (mask >> b) & 1 == 0) {
                    let ctx = Rc::new(self.join_context(mask, b, &preds, &join_keys, &bindings));
                    let frontier = &mut dp[mask | (1 << b)];
                    for left in &lefts {
                        for right in &base[b] {
                            self.offer_joins(frontier, left, right, &ctx, &bindings[b].table);
                        }
                    }
                }
            }
        }

        // Build each root (the full set's frontier), finish it (filters,
        // subqueries, aggregation, order) and keep the cheapest.
        let roots = dp.pop().unwrap_or_default();
        let mut best: Option<Cand> = None;
        for root in roots {
            let cand = Cand {
                node: self.build(&root.recipe, &preds, &keys, &bindings),
                cost: root.cost,
                rows: root.rows,
                width: root.width,
                order: root.order.map(|k| keys.col(k).clone()),
            };
            let finished = self.finish_select(q, cand, &preds, &bindings)?;
            if best.as_ref().is_none_or(|b| finished.cost < b.cost) {
                best = Some(finished);
            }
        }
        best.ok_or_else(|| PlanError::Unsupported("no plan".into()))
    }

    /// Applies residual filters, subqueries, aggregation, DISTINCT,
    /// ORDER BY and TOP on top of a joined candidate.
    fn finish_select(
        &self,
        q: &Query,
        mut cand: Cand,
        preds: &Preds,
        bindings: &[Binding],
    ) -> PlanResult<Cand> {
        // Residual cross filters.
        for e in &preds.cross {
            cand.rows *= SEL_UNKNOWN;
            cand.node = PlanNode::Filter {
                predicate: render_expr(e),
                rows: cand.rows,
                child: Box::new(cand.node),
            };
        }

        // Subquery conjuncts.
        for e in &preds.subqueries {
            cand = self.attach_subquery(e, cand, bindings)?;
        }

        // Aggregation.
        if q.is_aggregating() {
            if q.group_by.is_empty() {
                cand.rows = 1.0;
                cand.node = PlanNode::StreamAggregate {
                    rows: 1.0,
                    child: Box::new(cand.node),
                };
                cand.width = 32;
                cand.order = None;
            } else {
                let groups = self.estimate_groups(&q.group_by, bindings, cand.rows);
                let first_group_col = q.group_by.first().and_then(|e| match e {
                    Expr::Column { qualifier, name } => self
                        .resolve_column(qualifier.as_deref(), name, bindings, &[])
                        .ok()
                        .flatten(),
                    _ => None,
                });
                // One group entry holds 16 bytes per grouped or selected
                // expression, within [16, 256].
                let group_width =
                    u32::try_from((16 * (q.group_by.len() + q.select.len())).clamp(16, 256))
                        .unwrap_or(256);
                let sorted_on_group = first_group_col.is_some()
                    && cand.order == first_group_col
                    && q.group_by.len() == 1;
                if sorted_on_group {
                    cand.node = PlanNode::StreamAggregate {
                        rows: groups,
                        child: Box::new(cand.node),
                    };
                } else {
                    // The hash table holds one entry per *group*: it spills
                    // (repartitioning its input) only when the groups
                    // themselves overflow the grant.
                    let group_blocks = est_blocks(groups, group_width);
                    let input_blocks = est_blocks(cand.rows, cand.width);
                    let spill = if group_blocks > MEMORY_GRANT_BLOCKS {
                        input_blocks
                    } else {
                        0
                    };
                    cand.cost += SPILL_IO_FACTOR * spill as f64 + ROW_CPU_COST * cand.rows;
                    cand.node = PlanNode::HashAggregate {
                        rows: groups,
                        spill_blocks: spill,
                        child: Box::new(cand.node),
                    };
                    cand.order = None;
                }
                cand.rows = groups;
                cand.width = group_width;
            }
        }

        // HAVING. Subqueries in the HAVING clause (e.g. TPC-H Q11's
        // aggregate threshold) run before the filter applies: Apply inputs.
        if let Some(h) = &q.having {
            for sub in h.subqueries() {
                let inner = self.plan_select(sub, bindings)?;
                cand.cost += inner.cost;
                cand.node = PlanNode::Apply {
                    rows: cand.rows,
                    sub: Box::new(inner.node),
                    main: Box::new(cand.node),
                };
            }
            cand.rows *= SEL_UNKNOWN;
            cand.node = PlanNode::Filter {
                predicate: render_expr(h),
                rows: cand.rows,
                child: Box::new(cand.node),
            };
        }

        // DISTINCT (when not already grouped).
        if q.distinct && q.group_by.is_empty() && !q.is_aggregating() {
            let groups = (cand.rows / 2.0).max(1.0);
            let input_blocks = est_blocks(cand.rows, cand.width);
            let group_blocks = est_blocks(groups, cand.width);
            let spill = if group_blocks > MEMORY_GRANT_BLOCKS {
                input_blocks
            } else {
                0
            };
            cand.cost += SPILL_IO_FACTOR * spill as f64;
            cand.node = PlanNode::HashAggregate {
                rows: groups,
                spill_blocks: spill,
                child: Box::new(cand.node),
            };
            cand.rows = groups;
            cand.order = None;
        }

        // ORDER BY.
        if let Some(first) = q.order_by.first() {
            let target = match &first.expr {
                Expr::Column { qualifier, name } => self
                    .resolve_column(qualifier.as_deref(), name, bindings, &[])
                    .ok()
                    .flatten(),
                _ => None,
            };
            let already = target.is_some() && cand.order == target && q.order_by.len() == 1;
            if !already {
                let blocks = est_blocks(cand.rows, cand.width);
                let spill = if blocks > MEMORY_GRANT_BLOCKS {
                    blocks
                } else {
                    0
                };
                cand.cost += if spill > 0 {
                    SPILL_IO_FACTOR * spill as f64
                } else {
                    SORT_CPU_FACTOR * blocks as f64
                };
                let by = q
                    .order_by
                    .iter()
                    .map(|o| render_expr(&o.expr))
                    .collect::<Vec<_>>()
                    .join(", ");
                cand.node = PlanNode::Sort {
                    by,
                    rows: cand.rows,
                    spill_blocks: spill,
                    child: Box::new(cand.node),
                };
                cand.order = target;
            }
        }

        // TOP.
        if let Some(nrows) = q.top {
            cand.rows = cand.rows.min(nrows as f64);
            cand.node = PlanNode::Top {
                n: nrows,
                rows: cand.rows,
                child: Box::new(cand.node),
            };
        }

        Ok(cand)
    }

    // ------------------------------------------------------------------
    // Binding & predicate analysis
    // ------------------------------------------------------------------

    fn resolve_bindings(&self, q: &Query) -> PlanResult<Vec<Binding>> {
        let mut out = Vec::new();
        for (table_name, binding_name) in q.bindings() {
            let table = self
                .catalog
                .table(table_name)
                .ok_or_else(|| PlanError::UnknownTable(table_name.to_string()))?
                .clone();
            let object = self
                .catalog
                .object_id(table_name)
                .expect("table implies object id");
            out.push(Binding {
                name: binding_name.to_string(),
                table,
                object,
            });
        }
        Ok(out)
    }

    /// Resolves a column reference. `Ok(None)` means the column resolved to
    /// the *outer* scope (correlated reference).
    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        bindings: &[Binding],
        outer: &[Binding],
    ) -> PlanResult<Option<ColRef>> {
        if let Some(q) = qualifier {
            if let Some(i) = bindings.iter().position(|b| b.name.eq_ignore_ascii_case(q)) {
                if bindings[i].table.column(name).is_some() {
                    return Ok(Some((i, name.to_string())));
                }
                return Err(PlanError::UnknownColumn(format!("{q}.{name}")));
            }
            if outer.iter().any(|b| b.name.eq_ignore_ascii_case(q)) {
                return Ok(None);
            }
            return Err(PlanError::UnknownTable(q.to_string()));
        }
        let matches: Vec<usize> = bindings
            .iter()
            .enumerate()
            .filter(|(_, b)| b.table.column(name).is_some())
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(Some((matches[0], name.to_string()))),
            0 => {
                if outer.iter().any(|b| b.table.column(name).is_some()) {
                    Ok(None)
                } else {
                    Err(PlanError::UnknownColumn(name.to_string()))
                }
            }
            _ => Err(PlanError::AmbiguousColumn(name.to_string())),
        }
    }

    /// Splits all conjuncts (WHERE plus every JOIN…ON) into local / join /
    /// subquery / cross classes. Correlated equality conjuncts become
    /// parameterized local filters on the inner binding.
    fn classify_predicates(
        &self,
        q: &Query,
        bindings: &[Binding],
        outer: &[Binding],
    ) -> PlanResult<Preds> {
        let mut preds = Preds {
            local: vec![Vec::new(); bindings.len()],
            ..Default::default()
        };
        let mut conjuncts: Vec<Expr> = Vec::new();
        if let Some(w) = &q.where_clause {
            conjuncts.extend(w.conjuncts().into_iter().cloned());
        }
        for f in &q.from {
            collect_on_preds(f, &mut conjuncts);
        }

        for e in conjuncts {
            if !e.subqueries().is_empty() {
                preds.subqueries.push(e);
                continue;
            }
            // Resolve every referenced column; track the set of local
            // bindings touched and whether outer references occur.
            let mut locals: Vec<usize> = Vec::new();
            let mut has_outer = false;
            let mut resolution_error = None;
            for (qual, name) in e.referenced_columns() {
                match self.resolve_column(qual.as_deref(), name, bindings, outer) {
                    Ok(Some((i, _))) => locals.push(i),
                    Ok(None) => has_outer = true,
                    Err(err) => {
                        resolution_error = Some(err);
                        break;
                    }
                }
            }
            if let Some(err) = resolution_error {
                return Err(err);
            }
            locals.sort_unstable();
            locals.dedup();

            match (locals.len(), has_outer) {
                (0, _) => { /* constant or purely-outer predicate: no-op here */ }
                (1, false) => preds.local[locals[0]].push(e),
                (1, true) => {
                    // Correlated conjunct: behaves as a parameterized filter
                    // on the local binding. For an equality on a local column
                    // this is an equality selection; approximate any other
                    // shape the same way via the local column's NDV.
                    if let Some(col) = first_local_column(&e, bindings, outer, self) {
                        let tbl = &bindings[col.0].table;
                        let ndv = tbl
                            .column(&col.1)
                            .map(|c| c.stats.distinct_count)
                            .unwrap_or(3);
                        // Synthesize `col = <param>` with matching NDV effect:
                        // routed through `local` as an opaque filter carrying
                        // the correlated expression for explain purposes.
                        preds.local[col.0].push(param_filter(e, ndv));
                    }
                }
                (2, false) => {
                    if let Some((a, b)) = as_equijoin(&e, bindings, outer, self) {
                        let ndv_a = ndv_of(&bindings[a.0].table, &a.1);
                        let ndv_b = ndv_of(&bindings[b.0].table, &b.1);
                        preds.joins.push((a, b, join_selectivity(ndv_a, ndv_b)));
                    } else {
                        preds.cross.push(e);
                    }
                }
                _ => preds.cross.push(e),
            }
        }
        Ok(preds)
    }

    /// Columns of each binding referenced anywhere in the query (for index
    /// covering checks). `None` means "all columns" (wildcard).
    fn needed_columns(&self, q: &Query, bindings: &[Binding]) -> Vec<Option<Vec<String>>> {
        let mut needed: Vec<Option<Vec<String>>> = vec![Some(Vec::new()); bindings.len()];
        let mut wildcard = false;
        let mut exprs: Vec<&Expr> = Vec::new();
        for s in &q.select {
            match s {
                SelectItem::Wildcard => wildcard = true,
                SelectItem::Expr { expr, .. } => exprs.push(expr),
            }
        }
        if let Some(w) = &q.where_clause {
            exprs.push(w);
        }
        exprs.extend(q.group_by.iter());
        if let Some(h) = &q.having {
            exprs.push(h);
        }
        exprs.extend(q.order_by.iter().map(|o| &o.expr));
        if wildcard {
            return vec![None; bindings.len()];
        }
        for e in exprs {
            for (qual, name) in e.referenced_columns() {
                if let Ok(Some((i, col))) =
                    self.resolve_column(qual.as_deref(), name, bindings, &[])
                {
                    if let Some(cols) = &mut needed[i] {
                        if !cols.iter().any(|c| c.eq_ignore_ascii_case(&col)) {
                            cols.push(col);
                        }
                    }
                }
            }
        }
        needed
    }

    // ------------------------------------------------------------------
    // Access paths
    // ------------------------------------------------------------------

    fn access_paths(
        &self,
        b_idx: usize,
        binding: &Binding,
        local: &[Expr],
        needed: &Option<Vec<String>>,
    ) -> Vec<Cand> {
        let table = &binding.table;
        let table_blocks = table.size_blocks().max(1);
        let all_sel: f64 = local
            .iter()
            .map(|e| predicate_selectivity(table, e))
            .product();
        let rows_out = (table.row_count as f64 * all_sel).max(1e-3);
        let mut out = Vec::new();

        let with_filter = |node: PlanNode, scanned_rows: f64| -> PlanNode {
            if rows_out < scanned_rows * 0.999 && !local.is_empty() {
                let pred = local
                    .iter()
                    .map(render_expr)
                    .collect::<Vec<_>>()
                    .join(" AND ");
                PlanNode::Filter {
                    predicate: pred,
                    rows: rows_out,
                    child: Box::new(node),
                }
            } else {
                node
            }
        };

        // 1. Full scan (always available). Emits clustered order.
        let order = table.clustered_on.first().map(|c| (b_idx, c.clone()));
        out.push(Cand {
            node: with_filter(
                PlanNode::TableScan {
                    object: binding.object,
                    name: table.name.clone(),
                    blocks: table_blocks,
                    rows: table.row_count as f64,
                },
                table.row_count as f64,
            ),
            cost: table_blocks as f64 + ROW_CPU_COST * table.row_count as f64,
            rows: rows_out,
            width: table.row_bytes,
            order: order.clone(),
        });

        // 2. Clustered range scan when a sargable predicate hits the
        //    clustered leading key.
        if let Some(ck) = table.clustered_on.first() {
            let key_sel: f64 = local
                .iter()
                .filter(|e| sargable_on(e, ck))
                .map(|e| predicate_selectivity(table, e))
                .product();
            if key_sel < 0.999 {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "key_sel is in [0,1], so the product is at most table_blocks; ceil keeps partial blocks"
                )]
                let blocks = ((table_blocks as f64 * key_sel).ceil() as u64).max(1);
                let scanned = table.row_count as f64 * key_sel;
                out.push(Cand {
                    node: with_filter(
                        PlanNode::ClusteredRangeScan {
                            object: binding.object,
                            name: table.name.clone(),
                            blocks,
                            rows: scanned,
                        },
                        scanned,
                    ),
                    cost: blocks as f64 + ROW_CPU_COST * scanned,
                    rows: rows_out,
                    width: table.row_bytes,
                    order: order.clone(),
                });
            }
        }

        // 3. Nonclustered index seek (+ RID lookup unless covering).
        for idx in self.catalog.indexes_on(&table.name) {
            let lead = &idx.key_columns[0];
            let key_sel: f64 = local
                .iter()
                .filter(|e| sargable_on(e, lead))
                .map(|e| predicate_selectivity(table, e))
                .product();
            if key_sel >= 0.999 {
                continue;
            }
            let idx_object = self.catalog.object_id(&idx.name).expect("index registered");
            #[expect(
                clippy::cast_possible_truncation,
                reason = "key_sel is in [0,1], so the product is at most the index size; ceil keeps partial blocks"
            )]
            let leaf_blocks = ((idx.size_blocks() as f64 * key_sel).ceil() as u64).max(1);
            let match_rows = table.row_count as f64 * key_sel;
            let covering = needed.as_ref().is_some_and(|cols| {
                cols.iter()
                    .all(|c| idx.key_columns.iter().any(|k| k.eq_ignore_ascii_case(c)))
            });
            let seek = PlanNode::IndexSeek {
                object: idx_object,
                name: idx.name.clone(),
                blocks: leaf_blocks,
                rows: match_rows,
            };
            let (node, cost, width) = if covering {
                (
                    seek,
                    leaf_blocks as f64 + ROW_CPU_COST * match_rows,
                    idx.entry_bytes,
                )
            } else {
                let lookup_blocks = cardenas_blocks(match_rows, table_blocks);
                (
                    PlanNode::RidLookup {
                        object: binding.object,
                        name: table.name.clone(),
                        blocks: lookup_blocks,
                        rows: match_rows,
                        child: Box::new(seek),
                    },
                    leaf_blocks as f64
                        + RANDOM_IO_WEIGHT * lookup_blocks as f64
                        + ROW_CPU_COST * match_rows,
                    table.row_bytes,
                )
            };
            out.push(Cand {
                node: with_filter(node, match_rows),
                cost,
                rows: rows_out,
                width,
                order: Some((b_idx, lead.clone())),
            });
        }

        out
    }

    // ------------------------------------------------------------------
    // Join candidates
    // ------------------------------------------------------------------

    /// The context of joining binding `b` to the planned subset `mask`.
    fn join_context(
        &self,
        mask: usize,
        b: usize,
        preds: &Preds,
        join_keys: &[(usize, usize)],
        bindings: &[Binding],
    ) -> JoinCtx<'a> {
        let links: Vec<usize> = (0..preds.joins.len())
            .filter(|&i| {
                let (a, c, _) = &preds.joins[i];
                (mask >> a.0) & 1 == 1 && c.0 == b || (mask >> c.0) & 1 == 1 && a.0 == b
            })
            .collect();
        let sel: f64 = links.iter().map(|&i| preds.joins[i].2).product();
        // The link's column on `b`'s side.
        let b_side = |i: usize| {
            let (a, c, _) = &preds.joins[i];
            if c.0 == b {
                c.1.as_str()
            } else {
                a.1.as_str()
            }
        };
        // Key-join detection: when the join columns on `b`'s side cover its
        // clustered (unique) key, each left row matches at most one `b` row
        // — a FK lookup. The independence product grossly underestimates
        // composite keys (e.g. lineitem ⋈ partsupp on partkey+suppkey), so
        // `offer_joins` uses `left.rows × surviving fraction of b` instead.
        let table = &bindings[b].table;
        let covers_key = !links.is_empty()
            && !table.clustered_on.is_empty()
            && table
                .clustered_on
                .iter()
                .all(|k| links.iter().any(|&i| b_side(i).eq_ignore_ascii_case(k)));
        let keys = links
            .iter()
            .map(|&i| {
                let (a, c) = join_keys[i];
                if preds.joins[i].1 .0 == b {
                    (a, c)
                } else {
                    (c, a)
                }
            })
            .collect();
        let probe = links.first().and_then(|&i| self.nl_probe(table, b_side(i)));
        JoinCtx {
            b,
            links,
            keys,
            sel,
            covers_key,
            probe,
        }
    }

    /// Offers `frontier` every physical join of `left` (a planned subset)
    /// with `right` (an access path of binding `ctx.b`, whose table is
    /// `right_table`), in the order merge, hash, nested loops. Each
    /// candidate is priced first and gets a recipe only when the frontier
    /// does not already hold a cheaper one of its order.
    fn offer_joins(
        &self,
        frontier: &mut Vec<Entry<'a>>,
        left: &Entry<'a>,
        right: &Entry<'a>,
        ctx: &Rc<JoinCtx<'a>>,
        right_table: &Table,
    ) {
        let rows = if ctx.covers_key {
            let fraction = (right.rows / right_table.row_count.max(1) as f64).min(1.0);
            (left.rows * fraction).max(1e-3)
        } else {
            (left.rows * right.rows * ctx.sel).max(1e-3)
        };
        let width = (left.width + right.width).min(256);
        let mut offer = |cost: f64, order: Option<usize>, op: JoinOp<'a>| {
            if dominated(frontier, order, cost) {
                return;
            }
            let recipe = Recipe::Join {
                ctx: Rc::clone(ctx),
                op,
                rows,
                left: Rc::clone(&left.recipe),
                left_rows: left.rows,
            };
            admit(
                frontier,
                Entry {
                    cost,
                    rows,
                    width,
                    order,
                    recipe: Rc::new(recipe),
                },
                MAX_CANDIDATES,
            );
        };

        // Merge join: both inputs ordered on a connecting key pair, the
        // left (intermediate) side sorted first when it is not.
        for (key, &(lk, rk)) in ctx.keys.iter().enumerate() {
            if right.order != Some(rk) {
                continue;
            }
            let (cost, sort) = if left.order == Some(lk) {
                (
                    left.cost + right.cost + ROW_CPU_COST * (left.rows + right.rows),
                    None,
                )
            } else {
                let blocks = est_blocks(left.rows, left.width);
                let spill = if blocks > MEMORY_GRANT_BLOCKS {
                    blocks
                } else {
                    0
                };
                let sort_cost = if spill > 0 {
                    SPILL_IO_FACTOR * spill as f64
                } else {
                    SORT_CPU_FACTOR * blocks as f64
                };
                (
                    left.cost + right.cost + sort_cost + ROW_CPU_COST * (left.rows + right.rows),
                    Some(spill),
                )
            };
            let right = Rc::clone(&right.recipe);
            offer(cost, Some(lk), JoinOp::Merge { key, sort, right });
        }

        // Hash join: build on the smaller side; probe order is preserved.
        let build_left = left.rows * left.width as f64 <= right.rows * right.width as f64;
        let (build, probe) = if build_left {
            (left, right)
        } else {
            (right, left)
        };
        let build_blocks = est_blocks(build.rows, build.width);
        let spill = if build_blocks > MEMORY_GRANT_BLOCKS {
            build_blocks
        } else {
            0
        };
        offer(
            left.cost
                + right.cost
                + HASH_BUILD_FACTOR * build_blocks as f64
                + SPILL_IO_FACTOR * spill as f64
                + ROW_CPU_COST * (left.rows + right.rows),
            probe.order,
            JoinOp::Hash {
                build_left,
                spill,
                right: Rc::clone(&right.recipe),
            },
        );

        // Nested loops with an indexed inner (clustered key or nonclustered
        // index on the join column of `b`). Only worthwhile for selective
        // outers; enumerate and let cost decide.
        if let Some(probe) = &ctx.probe {
            let (inner_cost, _) = self.nl_inner(probe, right_table, left.rows, rows);
            offer(
                left.cost + inner_cost + ROW_CPU_COST * left.rows,
                left.order,
                JoinOp::NestedLoops,
            );
        }
    }

    /// How an indexed nested-loops join would probe `table` on column
    /// `col`, or `None` when no index supports the probe.
    fn nl_probe(&self, table: &Table, col: &str) -> Option<NlProbe<'a>> {
        if table.is_clustered_on(col) {
            return Some(NlProbe::Clustered);
        }
        let idx = self
            .catalog
            .indexes_on(&table.name)
            .find(|i| i.key_columns[0].eq_ignore_ascii_case(col))?;
        let object = self.catalog.object_id(&idx.name).expect("index registered");
        Some(NlProbe::Index(idx, object))
    }

    /// The repeated-probe inner side of an indexed nested-loops join into
    /// `table` through `probe`, for `probes` outer rows producing
    /// `match_rows` total matches: its cost and the distinct blocks it
    /// touches as `(probed, looked up)` — blocks of the probed object
    /// (the table itself for a clustered probe) and RID-lookup blocks of
    /// the table.
    fn nl_inner(
        &self,
        probe: &NlProbe,
        table: &Table,
        probes: f64,
        match_rows: f64,
    ) -> (f64, (u64, u64)) {
        let table_blocks = table.size_blocks().max(1);
        let (probed, looked_up) = match probe {
            // Clustered seeks land directly on the matching data blocks.
            NlProbe::Clustered => (cardenas_blocks(probes.max(match_rows), table_blocks), 0),
            NlProbe::Index(idx, _) => (
                cardenas_blocks(probes, idx.size_blocks().max(1)),
                cardenas_blocks(match_rows, table_blocks),
            ),
        };
        let cost = RANDOM_IO_WEIGHT * (probed + looked_up) as f64
            + ROW_CPU_COST * match_rows
            + NL_PROBE_COST * probes;
        (cost, (probed, looked_up))
    }

    /// Builds the plan tree of a DP candidate's recipe.
    fn build(
        &self,
        recipe: &Recipe,
        preds: &Preds,
        keys: &OrderKeys,
        bindings: &[Binding],
    ) -> PlanNode {
        let (ctx, op, rows, left, left_rows) = match recipe {
            Recipe::Access(node) => return node.clone(),
            Recipe::Join {
                ctx,
                op,
                rows,
                left,
                left_rows,
            } => (ctx, op, *rows, left, *left_rows),
        };
        let on = if ctx.links.is_empty() {
            "cartesian".to_string()
        } else {
            ctx.links
                .iter()
                .map(|&i| format!("{}={}", preds.joins[i].0 .1, preds.joins[i].1 .1))
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        let left = Box::new(self.build(left, preds, keys, bindings));
        match op {
            JoinOp::Merge { key, sort, right } => PlanNode::MergeJoin {
                on,
                rows,
                left: match sort {
                    Some(spill) => Box::new(PlanNode::Sort {
                        by: keys.col(ctx.keys[*key].0).1.clone(),
                        rows: left_rows,
                        spill_blocks: *spill,
                        child: left,
                    }),
                    None => left,
                },
                right: Box::new(self.build(right, preds, keys, bindings)),
            },
            JoinOp::Hash {
                build_left,
                spill,
                right,
            } => {
                let right = Box::new(self.build(right, preds, keys, bindings));
                let (build, probe) = if *build_left {
                    (left, right)
                } else {
                    (right, left)
                };
                PlanNode::HashJoin {
                    on,
                    rows,
                    build,
                    probe,
                    spill_blocks: *spill,
                }
            }
            JoinOp::NestedLoops => {
                let probe = ctx.probe.as_ref().expect("nested loops has a probe path");
                let binding = &bindings[ctx.b];
                let table = &binding.table;
                let (_, (probed, looked_up)) = self.nl_inner(probe, table, left_rows, rows);
                let inner = match probe {
                    NlProbe::Clustered => PlanNode::Seek {
                        object: binding.object,
                        name: table.name.clone(),
                        blocks: probed,
                        rows,
                    },
                    NlProbe::Index(idx, object) => PlanNode::RidLookup {
                        object: binding.object,
                        name: table.name.clone(),
                        blocks: looked_up,
                        rows,
                        child: Box::new(PlanNode::Seek {
                            object: *object,
                            name: idx.name.clone(),
                            blocks: probed,
                            rows,
                        }),
                    },
                };
                PlanNode::NestedLoops {
                    on,
                    rows,
                    outer: left,
                    inner: Box::new(inner),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Subqueries
    // ------------------------------------------------------------------

    fn attach_subquery(&self, e: &Expr, mut cand: Cand, bindings: &[Binding]) -> PlanResult<Cand> {
        match e {
            Expr::InSubquery {
                subquery, negated, ..
            }
            | Expr::Exists {
                subquery, negated, ..
            } => {
                let inner = self.plan_select(subquery, bindings)?;
                let sel = if *negated {
                    1.0 - SEL_UNKNOWN
                } else {
                    SEL_UNKNOWN
                };
                let build_blocks = est_blocks(inner.rows, inner.width);
                let spill = if build_blocks > MEMORY_GRANT_BLOCKS {
                    build_blocks
                } else {
                    0
                };
                cand.rows = (cand.rows * sel).max(1e-3);
                cand.cost += inner.cost
                    + HASH_BUILD_FACTOR * build_blocks as f64
                    + SPILL_IO_FACTOR * spill as f64;
                cand.node = PlanNode::HashJoin {
                    on: "semijoin".into(),
                    rows: cand.rows,
                    build: Box::new(inner.node),
                    probe: Box::new(cand.node),
                    spill_blocks: spill,
                };
                Ok(cand)
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                // col <op> (SELECT ...): run the subquery first (Apply),
                // filter the main side.
                let (sub, col_side) = match (&**left, &**right) {
                    (Expr::ScalarSubquery(q), other) => (q, other),
                    (other, Expr::ScalarSubquery(q)) => (q, other),
                    _ => return self.opaque_subquery_filter(e, cand, bindings),
                };
                let inner = self.plan_select(sub, bindings)?;
                let sel = match (op, col_side) {
                    (BinaryOp::Eq, Expr::Column { qualifier, name }) => {
                        match self.resolve_column(qualifier.as_deref(), name, bindings, &[]) {
                            Ok(Some((i, col))) => {
                                1.0 / ndv_of(&bindings[i].table, &col).max(1) as f64
                            }
                            _ => SEL_UNKNOWN,
                        }
                    }
                    _ => SEL_UNKNOWN,
                };
                cand.rows = (cand.rows * sel).max(1e-3);
                cand.cost += inner.cost;
                cand.node = PlanNode::Apply {
                    rows: cand.rows,
                    sub: Box::new(inner.node),
                    main: Box::new(PlanNode::Filter {
                        predicate: render_expr(e),
                        rows: cand.rows,
                        child: Box::new(cand.node),
                    }),
                };
                cand.order = None;
                Ok(cand)
            }
            Expr::Unary { expr, .. } => self.attach_subquery(expr, cand, bindings),
            _ => self.opaque_subquery_filter(e, cand, bindings),
        }
    }

    /// Fallback for subquery conjunct shapes we do not special-case: plan
    /// every nested subquery as an Apply input and filter with the default
    /// selectivity.
    fn opaque_subquery_filter(
        &self,
        e: &Expr,
        mut cand: Cand,
        bindings: &[Binding],
    ) -> PlanResult<Cand> {
        for sub in e.subqueries() {
            let inner = self.plan_select(sub, bindings)?;
            cand.cost += inner.cost;
            cand.node = PlanNode::Apply {
                rows: cand.rows,
                sub: Box::new(inner.node),
                main: Box::new(cand.node),
            };
        }
        cand.rows = (cand.rows * SEL_UNKNOWN).max(1e-3);
        cand.node = PlanNode::Filter {
            predicate: render_expr(e),
            rows: cand.rows,
            child: Box::new(cand.node),
        };
        cand.order = None;
        Ok(cand)
    }

    /// Group-count estimate: NDVs multiply across bindings, but one
    /// binding's columns can never produce more groups than it has rows
    /// (grouping by a key plus dependent columns — TPC-H Q15/Q18 — would
    /// otherwise explode under the independence assumption).
    fn estimate_groups(&self, group_by: &[Expr], bindings: &[Binding], rows: f64) -> f64 {
        let mut per_binding: Vec<f64> = vec![1.0; bindings.len()];
        let mut unresolved = 1.0f64;
        for g in group_by {
            match g {
                Expr::Column { qualifier, name } => {
                    match self.resolve_column(qualifier.as_deref(), name, bindings, &[]) {
                        Ok(Some((i, col))) => {
                            per_binding[i] *= ndv_of(&bindings[i].table, &col).max(1) as f64;
                        }
                        _ => unresolved *= 10.0,
                    }
                }
                _ => unresolved *= 10.0,
            }
        }
        let mut groups = unresolved;
        for (i, g) in per_binding.iter().enumerate() {
            groups *= g.min(bindings[i].table.row_count.max(1) as f64);
            if groups > rows {
                break;
            }
        }
        groups.min(rows).max(1.0)
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn plan_insert(&self, table: &str, source: &InsertSource) -> PlanResult<PlanNode> {
        let t = self
            .catalog
            .table(table)
            .ok_or_else(|| PlanError::UnknownTable(table.to_string()))?;
        let object = self.catalog.object_id(table).expect("table has id");
        match source {
            InsertSource::Values(rows) => {
                let n = rows.len() as u64;
                Ok(PlanNode::Insert {
                    object,
                    name: t.name.clone(),
                    write_blocks: blocks_for_rows(n, t.row_bytes).max(1),
                    rows: n as f64,
                    child: None,
                })
            }
            InsertSource::Query(q) => {
                let planned = self.plan_select(q, &[])?;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "rows is a non-negative cardinality estimate far below 2^53; ceil rounds up partial rows"
                )]
                let write_blocks = blocks_for_rows(planned.rows.ceil() as u64, t.row_bytes).max(1);
                Ok(PlanNode::Insert {
                    object,
                    name: t.name.clone(),
                    write_blocks,
                    rows: planned.rows,
                    child: Some(Box::new(planned.node)),
                })
            }
        }
    }

    fn plan_write(
        &self,
        table: &str,
        where_clause: Option<&Expr>,
        is_update: bool,
    ) -> PlanResult<PlanNode> {
        let t = self
            .catalog
            .table(table)
            .ok_or_else(|| PlanError::UnknownTable(table.to_string()))?
            .clone();
        let object = self.catalog.object_id(table).expect("table has id");
        let binding = Binding {
            name: t.name.clone(),
            table: t.clone(),
            object,
        };
        let local: Vec<Expr> = where_clause
            .map(|w| w.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();
        let paths = self.access_paths(0, &binding, &local, &None);
        let access = paths
            .into_iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .ok_or_else(|| PlanError::Unsupported("no access path".into()))?;
        let matched = access.rows;
        let table_blocks = t.size_blocks().max(1);
        let write_blocks = if matched >= t.row_count as f64 * 0.999 {
            table_blocks
        } else {
            cardenas_blocks(matched, table_blocks)
        };
        Ok(if is_update {
            PlanNode::Update {
                object,
                name: t.name.clone(),
                write_blocks,
                rows: matched,
                child: Box::new(access.node),
            }
        } else {
            PlanNode::Delete {
                object,
                name: t.name.clone(),
                write_blocks,
                rows: matched,
                child: Box::new(access.node),
            }
        })
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Estimated blocks for an intermediate result of `rows` rows × `width` B.
#[expect(
    clippy::cast_possible_truncation,
    reason = "rows is clamped to ≥ 0 (NaN included) and `as` saturates a huge estimate"
)]
fn est_blocks(rows: f64, width: u32) -> u64 {
    blocks_for_rows(rows.ceil().max(0.0) as u64, width.max(1))
}

fn ndv_of(table: &Table, col: &str) -> u64 {
    table
        .column(col)
        .map(|c| c.stats.distinct_count)
        .unwrap_or(1)
}

fn collect_on_preds(item: &FromItem, out: &mut Vec<Expr>) {
    if let FromItem::Join {
        left, right, on, ..
    } = item
    {
        collect_on_preds(left, out);
        collect_on_preds(right, out);
        out.extend(on.conjuncts().into_iter().cloned());
    }
}

/// Is `e` a sargable predicate (comparison / BETWEEN / IN-list against
/// constants) whose column is `col`?
fn sargable_on(e: &Expr, col: &str) -> bool {
    let col_is =
        |x: &Expr| matches!(x, Expr::Column { name, .. } if name.eq_ignore_ascii_case(col));
    match e {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            (col_is(left) && crate::selectivity::const_value(right).is_some())
                || (col_is(right) && crate::selectivity::const_value(left).is_some())
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            !negated
                && col_is(expr)
                && crate::selectivity::const_value(low).is_some()
                && crate::selectivity::const_value(high).is_some()
        }
        Expr::InList { expr, negated, .. } => !negated && col_is(expr),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => !negated && col_is(expr) && !pattern.starts_with('%') && !pattern.starts_with('_'),
        _ => false,
    }
}

/// Extracts `(left_ref, right_ref)` if `e` is `colA = colB` across two
/// different bindings.
fn as_equijoin(
    e: &Expr,
    bindings: &[Binding],
    outer: &[Binding],
    opt: &Optimizer,
) -> Option<(ColRef, ColRef)> {
    if let Expr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = e
    {
        if let (
            Expr::Column {
                qualifier: ql,
                name: nl,
            },
            Expr::Column {
                qualifier: qr,
                name: nr,
            },
        ) = (&**left, &**right)
        {
            let a = opt
                .resolve_column(ql.as_deref(), nl, bindings, outer)
                .ok()??;
            let b = opt
                .resolve_column(qr.as_deref(), nr, bindings, outer)
                .ok()??;
            if a.0 != b.0 {
                return Some((a, b));
            }
        }
    }
    None
}

/// First local column referenced by a correlated conjunct.
fn first_local_column(
    e: &Expr,
    bindings: &[Binding],
    outer: &[Binding],
    opt: &Optimizer,
) -> Option<ColRef> {
    e.referenced_columns()
        .into_iter()
        .find_map(|(q, n)| opt.resolve_column(q.as_deref(), n, bindings, outer).ok()?)
}

/// Rewrites a correlated conjunct into `local_col = <param>` so that
/// selectivity estimation applies the column's `1/NDV` equality factor —
/// the effect of a parameterized lookup driven by the outer query.
///
/// The placeholder is `NULL` deliberately: it carries no constant value, so
/// the predicate is *not sargable* — a correlated parameter varies per
/// outer row, and the decorrelated (semi-join) execution the planner models
/// scans the inner object rather than seeking one key's worth of blocks.
fn param_filter(original: Expr, _ndv: u64) -> Expr {
    if let Some((q, n)) = original
        .referenced_columns()
        .first()
        .map(|(q, n)| ((*q).clone(), n.to_string()))
    {
        Expr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(Expr::Column {
                qualifier: q,
                name: n,
            }),
            right: Box::new(Expr::Literal(dblayout_sql::ast::Literal::Null)),
        }
    } else {
        original
    }
}

/// Whether a join-order frontier already holds a candidate of the same
/// order at no greater cost, so that `cost` would add nothing.
fn dominated(frontier: &[Entry], order: Option<usize>, cost: f64) -> bool {
    frontier.iter().any(|c| c.order == order && c.cost <= cost)
}

/// Adds a candidate that is not [`dominated`] to a frontier: keeps the
/// cheapest plan per distinct order, plus the overall cheapest, bounded by
/// `max`.
fn admit<'a>(frontier: &mut Vec<Entry<'a>>, cand: Entry<'a>, max: usize) {
    frontier.retain(|c| !(c.order == cand.order && c.cost > cand.cost));
    frontier.push(cand);
    if frontier.len() > max {
        // Drop the most expensive non-unique-order candidate.
        frontier.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        frontier.truncate(max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::explain::explain;
    use dblayout_catalog::tpch::tpch_catalog;
    use dblayout_sql::parse_statement;

    fn plan(catalog: &Catalog, sql: &str) -> PhysicalPlan {
        let stmt = parse_statement(sql).unwrap();
        plan_statement(catalog, &stmt).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    fn subplan_of(plan: &PhysicalPlan, catalog: &Catalog, obj: &str) -> Option<usize> {
        let id = catalog.object_id(obj)?;
        plan.subplans()
            .iter()
            .position(|s| s.objects().contains(&id))
    }

    #[test]
    fn single_table_scan() {
        let c = tpch_catalog(0.1);
        let p = plan(&c, "SELECT COUNT(*) FROM lineitem");
        let subs = p.subplans();
        assert_eq!(subs.len(), 1);
        let l = c.table("lineitem").unwrap();
        assert_eq!(
            subs[0].blocks_of(c.object_id("lineitem").unwrap()),
            l.size_blocks()
        );
    }

    #[test]
    fn selective_clustered_predicate_uses_range_scan() {
        let c = tpch_catalog(0.1);
        let p = plan(&c, "SELECT COUNT(*) FROM orders WHERE o_orderkey < 1000");
        let blocks = p.total_blocks_of(c.object_id("orders").unwrap());
        let full = c.table("orders").unwrap().size_blocks();
        assert!(
            blocks < full / 10,
            "range scan should read a fraction: {blocks}/{full}"
        );
    }

    #[test]
    fn selective_nonclustered_predicate_uses_index() {
        let c = tpch_catalog(1.0);
        // ~0.04% of lineitem: index seek + RID lookup should win.
        let p = plan(
            &c,
            "SELECT l_quantity FROM lineitem WHERE l_shipdate = '1995-06-17'",
        );
        let idx = c.object_id("idx_lineitem_shipdate").unwrap();
        assert!(p.objects().contains(&idx), "{}", explain(&p));
        // RID lookup access must be random.
        let subs = p.subplans();
        let table_access = subs[0]
            .accesses
            .iter()
            .find(|a| a.object == c.object_id("lineitem").unwrap())
            .expect("table accessed");
        assert_eq!(table_access.kind, AccessKind::RandomRead);
    }

    #[test]
    fn q3_shape_merge_join_co_accesses_lineitem_and_orders() {
        let c = tpch_catalog(1.0);
        let p = plan(
            &c,
            "SELECT TOP 10 l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
                    o_orderdate, o_shippriority \
             FROM customer, orders, lineitem \
             WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
               AND l_orderkey = o_orderkey AND o_orderdate < '1995-03-15' \
               AND l_shipdate > '1995-03-15' \
             GROUP BY l_orderkey, o_orderdate, o_shippriority \
             ORDER BY revenue DESC, o_orderdate",
        );
        let text = explain(&p);
        // lineitem and orders must share a sub-plan (merge join on orderkey),
        // customer must be in a different one (hash build).
        let sl = subplan_of(&p, &c, "lineitem").unwrap();
        let so = subplan_of(&p, &c, "orders").unwrap();
        let sc = subplan_of(&p, &c, "customer").unwrap();
        assert_eq!(sl, so, "lineitem/orders co-accessed\n{text}");
        assert_ne!(sc, sl, "customer separated\n{text}");
        assert!(text.contains("MergeJoin"), "{text}");
    }

    #[test]
    fn q5_shape_blocking_cut_between_dims_and_lineitem_supplier() {
        let c = tpch_catalog(1.0);
        let p = plan(
            &c,
            "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM customer, orders, lineitem, supplier, nation, region \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
               AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
               AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
               AND r_name = 'ASIA' \
               AND o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01' \
             GROUP BY n_name ORDER BY revenue DESC",
        );
        let text = explain(&p);
        // The paper's Example 3 property: lineitem co-accesses only a subset
        // of relations — at minimum, lineitem must NOT share a sub-plan with
        // all five other tables (a blocking cut exists somewhere).
        let sl = subplan_of(&p, &c, "lineitem").unwrap();
        let others = ["customer", "orders", "supplier", "nation", "region"];
        let separated = others
            .iter()
            .filter(|t| subplan_of(&p, &c, t) != Some(sl))
            .count();
        assert!(separated >= 2, "expected blocking cuts\n{text}");
        assert!(p.subplans().len() >= 3, "{text}");
    }

    #[test]
    fn self_join_accumulates_blocks() {
        let c = tpch_catalog(0.1);
        let p = plan(
            &c,
            "SELECT COUNT(*) FROM lineitem l1, lineitem l2 WHERE l1.l_orderkey = l2.l_orderkey",
        );
        let l = c.table("lineitem").unwrap().size_blocks();
        // Both instances scanned: total blocks across plan = 2x table size
        // (merge self-join) or close to it.
        let total = p.total_blocks_of(c.object_id("lineitem").unwrap());
        assert!(total >= 2 * l, "{total} vs {l}");
    }

    #[test]
    fn exists_subquery_planned_as_semijoin() {
        let c = tpch_catalog(0.1);
        let p = plan(
            &c,
            "SELECT o_orderpriority, COUNT(*) FROM orders \
             WHERE o_orderdate >= '1993-07-01' AND EXISTS ( \
                SELECT * FROM lineitem WHERE l_orderkey = o_orderkey \
                AND l_commitdate < l_receiptdate) \
             GROUP BY o_orderpriority ORDER BY o_orderpriority",
        );
        assert!(p.objects().contains(&c.object_id("lineitem").unwrap()));
        // Semi-join is a hash join: lineitem on the build side, separate
        // sub-plan from orders.
        let sl = subplan_of(&p, &c, "lineitem").unwrap();
        let so = subplan_of(&p, &c, "orders").unwrap();
        assert_ne!(sl, so);
    }

    #[test]
    fn scalar_subquery_planned_as_apply() {
        let c = tpch_catalog(0.1);
        let p = plan(
            &c,
            "SELECT COUNT(*) FROM partsupp \
             WHERE ps_supplycost = (SELECT MIN(ps_supplycost) FROM partsupp)",
        );
        // Two separate accesses of partsupp in different sub-plans.
        let subs = p.subplans();
        assert!(subs.len() >= 2, "{}", explain(&p));
    }

    #[test]
    fn insert_values_writes_one_block() {
        let c = tpch_catalog(0.1);
        let p = plan(&c, "INSERT INTO orders (o_orderkey) VALUES (1)");
        let subs = p.subplans();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].accesses[0].kind, AccessKind::Write);
        assert_eq!(subs[0].accesses[0].blocks, 1);
    }

    #[test]
    fn update_reads_and_writes_target() {
        let c = tpch_catalog(0.1);
        let p = plan(
            &c,
            "UPDATE orders SET o_orderstatus = 'F' WHERE o_orderkey < 500",
        );
        let subs = p.subplans();
        assert_eq!(subs.len(), 1);
        let kinds: Vec<AccessKind> = subs[0].accesses.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AccessKind::Write));
        assert!(kinds.iter().any(|k| k.is_read()));
    }

    #[test]
    fn full_table_delete_writes_all_blocks() {
        let c = tpch_catalog(0.01);
        let p = plan(&c, "DELETE FROM region");
        let region_blocks = c.table("region").unwrap().size_blocks();
        let subs = p.subplans();
        let w = subs[0]
            .accesses
            .iter()
            .find(|a| a.kind == AccessKind::Write)
            .unwrap();
        assert_eq!(w.blocks, region_blocks);
    }

    #[test]
    fn unknown_table_is_error() {
        let c = tpch_catalog(0.01);
        let stmt = parse_statement("SELECT * FROM ghosts").unwrap();
        assert!(matches!(
            plan_statement(&c, &stmt),
            Err(PlanError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_column_is_error() {
        let c = tpch_catalog(0.01);
        let stmt = parse_statement("SELECT * FROM orders WHERE no_such_col = 1").unwrap();
        assert!(matches!(
            plan_statement(&c, &stmt),
            Err(PlanError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_column_is_error() {
        let c = tpch_catalog(0.01);
        // l_orderkey exists in both lineitem bindings.
        let stmt =
            parse_statement("SELECT * FROM lineitem l1, lineitem l2 WHERE l_orderkey = 1").unwrap();
        assert!(matches!(
            plan_statement(&c, &stmt),
            Err(PlanError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn group_by_on_unsorted_col_is_hash_aggregate() {
        let c = tpch_catalog(0.1);
        let p = plan(
            &c,
            "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey",
        );
        assert!(explain(&p).contains("HashAggregate"));
    }

    #[test]
    fn group_by_on_clustered_col_is_stream_aggregate() {
        let c = tpch_catalog(0.1);
        let p = plan(
            &c,
            "SELECT o_orderkey, COUNT(*) FROM orders GROUP BY o_orderkey",
        );
        assert!(explain(&p).contains("StreamAggregate"), "{}", explain(&p));
    }

    #[test]
    fn order_by_on_scan_order_needs_no_sort() {
        let c = tpch_catalog(0.1);
        let p = plan(&c, "SELECT o_orderkey FROM orders ORDER BY o_orderkey");
        assert!(!explain(&p).contains("Sort"), "{}", explain(&p));
    }

    #[test]
    fn order_by_on_other_col_sorts_and_may_spill() {
        let c = tpch_catalog(1.0);
        let p = plan(&c, "SELECT * FROM lineitem ORDER BY l_extendedprice");
        let text = explain(&p);
        assert!(text.contains("Sort"), "{text}");
        // 6M wide rows overflow the 32 MB grant: external sort spills.
        let total_temp: u64 = p.subplans().iter().map(|s| s.temp_write_blocks).sum();
        assert!(total_temp > 0, "{text}");
    }

    #[test]
    fn ansi_join_syntax_equivalent_to_comma_join() {
        let c = tpch_catalog(0.1);
        let p1 = plan(
            &c,
            "SELECT COUNT(*) FROM orders JOIN lineitem ON l_orderkey = o_orderkey",
        );
        let p2 = plan(
            &c,
            "SELECT COUNT(*) FROM orders, lineitem WHERE l_orderkey = o_orderkey",
        );
        assert_eq!(p1.total_io_blocks(), p2.total_io_blocks());
    }

    #[test]
    fn cartesian_join_allowed_when_no_predicate() {
        let c = tpch_catalog(0.01);
        let p = plan(&c, "SELECT COUNT(*) FROM region, nation");
        assert_eq!(p.objects().len(), 2);
    }

    /// A chain join of `k` aliased copies of `nation`.
    fn chain_join(k: usize) -> String {
        let from: Vec<String> = (0..k).map(|i| format!("nation t{i}")).collect();
        let on: Vec<String> = (1..k)
            .map(|i| format!("t{}.n_nationkey = t{i}.n_nationkey", i - 1))
            .collect();
        format!(
            "SELECT COUNT(*) FROM {} WHERE {}",
            from.join(", "),
            on.join(" AND ")
        )
    }

    #[test]
    fn join_wider_than_the_bound_is_refused_before_enumeration() {
        let c = tpch_catalog(0.01);
        let stmt = parse_statement(&chain_join(MAX_JOIN_BINDINGS + 1)).unwrap();
        let t0 = std::time::Instant::now();
        let err = plan_statement(&c, &stmt).unwrap_err();
        // Enumerating 2^17 subsets takes seconds; the refusal takes none.
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        let PlanError::Unsupported(msg) = &err else {
            panic!("{err:?}");
        };
        assert!(msg.contains("17") && msg.contains("16"), "{msg}");
    }

    #[test]
    fn join_at_the_bound_plans() {
        let c = tpch_catalog(0.01);
        let p = plan(&c, &chain_join(MAX_JOIN_BINDINGS));
        let nation = c.object_id("nation").unwrap();
        assert_eq!(p.objects(), vec![nation]);
        assert!(p.total_blocks_of(nation) >= MAX_JOIN_BINDINGS as u64);
    }

    #[test]
    fn weighted_query_plans_deterministically() {
        let c = tpch_catalog(0.1);
        let sql = "SELECT COUNT(*) FROM orders, lineitem WHERE l_orderkey = o_orderkey";
        let a = explain(&plan(&c, sql));
        let b = explain(&plan(&c, sql));
        assert_eq!(a, b);
    }
}
