//! Resident session state: catalogs, plans, decomposed sub-plan workloads,
//! incrementally-maintained access graphs, and the layout-cost LRU cache.
//!
//! A session pins one catalog + disk configuration in memory and accumulates
//! a weighted workload across `add_statements` calls. Instead of re-running
//! *Analyze Workload* per request, the session keeps three derived artifacts
//! hot and extends them incrementally:
//!
//! * the parsed-and-optimized plans (`plans`),
//! * the plan→sub-plan decomposition the cost model consumes (`workload`),
//! * the Figure-6 access graph (`graph`), via
//!   [`extend_access_graph`] — which
//!   accumulates in arrival order, so the incremental graph is bit-identical
//!   to a batch rebuild.
//!
//! `version` increments on every successful `add_statements`; it keys the
//! memoization of what-if costs so stale entries can never be served.
//!
//! For continuous relayout (DESIGN.md §9) the session additionally tracks
//! an epoch counter and decay factor (each `add_statements` closes an epoch
//! by aging the graph; decay 1.0 keeps the plain accumulate-only semantics
//! bit-for-bit), the currently *deployed* layout, the graph snapshot the
//! deployed layout was advised on (what `drift` compares against), and the
//! last budgeted recommendation (the default `plan_migration` target).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use dblayout_catalog::Catalog;
use dblayout_core::costmodel::decompose_workload;
use dblayout_core::extend_access_graph;
use dblayout_disksim::{DiskSpec, Layout};
use dblayout_obs::prof::PhaseTimer;
use dblayout_partition::Graph;
use dblayout_planner::{plan_statement, PhysicalPlan, Subplan};
use dblayout_sql::parse_workload_file;

use crate::protocol::ApiError;

/// One open session.
pub struct Session {
    /// The resident catalog.
    pub catalog: Catalog,
    /// The disk configuration layouts are evaluated against.
    pub disks: Vec<DiskSpec>,
    /// Optimized plans with weights, in arrival order.
    pub plans: Vec<(PhysicalPlan, f64)>,
    /// Cached plan→sub-plan decomposition (same order as `plans`).
    pub workload: Vec<(Vec<Subplan>, f64)>,
    /// The incrementally-maintained Figure-6 access graph.
    pub graph: Graph,
    /// Statement-set version; bumps on every successful `add_statements`.
    pub version: u64,
    /// Worker threads for this session's TS-GREEDY runs (dblayout-par).
    /// Purely a latency knob: results are byte-identical at any value.
    pub threads: usize,
    /// Access-graph decay factor in `(0, 1]`; 1.0 (the default) disables
    /// aging entirely and keeps graphs bit-identical to plain accumulation.
    pub decay: f64,
    /// Epochs closed so far (one per successful `add_statements`).
    pub epoch: u64,
    /// The layout currently considered deployed — the seed and movement
    /// base for budgeted advising and the start point for migration plans.
    /// Starts as the full-striping baseline; `plan_migration` with
    /// `apply: true` moves it.
    pub deployed: Layout,
    /// Snapshot of the access graph at the moment the deployed layout was
    /// last advised/applied; the `drift` op compares the live graph against
    /// it. Starts empty, so traffic before any advice reads as full drift.
    pub advised_graph: Graph,
    /// The most recent budgeted recommendation — the implicit target of a
    /// `plan_migration` request that names none.
    pub last_target: Option<Layout>,
    /// The catalog spec string the session was opened with, kept verbatim
    /// for decision-record provenance (dblayout-audit).
    pub catalog_spec: String,
    /// The disk spec string the session was opened with (`paper`,
    /// `uniform:...`), for decision-record provenance.
    pub disks_spec: String,
    /// The accumulated workload SQL exactly as ingested (weight comments
    /// included) — the value-complete workload a decision record embeds.
    pub sql_text: String,
    /// Id of the most recent decision recorded for this session; stamped
    /// onto DriftReports and MigrationPlans so they name their provenance.
    pub last_decision: Option<u64>,
    /// Full-striping baseline layout, built once at open — object sizes and
    /// disks are fixed for the life of the session, so what-if requests
    /// against the baseline never rebuild it.
    fs_layout: Layout,
    /// [`layout_hash`] of `fs_layout`, precomputed for the cache key.
    fs_hash: u64,
}

impl Session {
    /// Opens a session over a catalog and disk set whose searches score
    /// candidates on `threads` workers (clamped to at least 1) and whose
    /// access graph ages by `decay` in `(0, 1]` per ingestion (1.0 = no
    /// aging; see DESIGN.md §9).
    ///
    /// # Panics
    /// Asserts the decay range — the protocol layer rejects out-of-range
    /// values with a structured error before construction.
    pub fn with_relayout(
        catalog: Catalog,
        disks: Vec<DiskSpec>,
        threads: usize,
        decay: f64,
    ) -> Self {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay must be in (0, 1], got {decay}"
        );
        let n = catalog.objects().len();
        let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
        let fs_layout = Layout::full_striping(sizes, &disks);
        let fs_hash = layout_hash(&fs_layout);
        Self {
            catalog,
            disks,
            plans: Vec::new(),
            workload: Vec::new(),
            graph: Graph::new(n),
            version: 0,
            threads: threads.max(1),
            decay,
            epoch: 0,
            deployed: fs_layout.clone(),
            advised_graph: Graph::new(n),
            last_target: None,
            catalog_spec: String::new(),
            disks_spec: String::new(),
            sql_text: String::new(),
            last_decision: None,
            fs_layout,
            fs_hash,
        }
    }

    /// The session's full-striping baseline layout.
    pub fn full_striping(&self) -> &Layout {
        &self.fs_layout
    }

    /// Precomputed [`layout_hash`] of the full-striping baseline.
    pub fn full_striping_hash(&self) -> u64 {
        self.fs_hash
    }

    /// Parses, plans, and folds `sql` (workload-file syntax) into the
    /// session. All-or-nothing: on any parse/plan error the session state is
    /// untouched. Returns the number of statements added.
    pub fn add_statements(&mut self, sql: &str) -> Result<usize, ApiError> {
        self.add_statements_profiled(sql, &PhaseTimer::disabled())
    }

    /// [`Self::add_statements`] with phase attribution: parse + plan +
    /// decompose accrue to `analyze`, access-graph folds to `build-graph`.
    /// A disabled timer makes this identical to [`Self::add_statements`].
    pub fn add_statements_profiled(
        &mut self,
        sql: &str,
        prof: &PhaseTimer,
    ) -> Result<usize, ApiError> {
        let analyze = prof.phase("analyze");
        let entries = parse_workload_file(sql)
            .map_err(|e| ApiError::new("parse_error", format!("workload parse error: {e}")))?;
        if entries.is_empty() {
            return Err(ApiError::bad_request("no statements in `sql`"));
        }
        let mut new_plans = Vec::with_capacity(entries.len());
        for entry in &entries {
            let plan = plan_statement(&self.catalog, &entry.statement)
                .map_err(|e| ApiError::new("plan_error", format!("planning error: {e}")))?;
            new_plans.push((plan, entry.weight));
        }
        drop(analyze);
        {
            let _build = prof.phase("build-graph");
            // Each successful ingestion closes an epoch: existing weights
            // age by the decay factor, the new statements land at full
            // weight. With decay 1.0 the scale is skipped outright, so the
            // graph stays bit-identical to plain accumulation.
            self.epoch += 1;
            dblayout_relayout::advance_epoch(&mut self.graph, self.decay);
            extend_access_graph(&mut self.graph, &new_plans);
        }
        let _analyze = prof.phase("analyze");
        self.workload.extend(decompose_workload(&new_plans));
        let added = new_plans.len();
        self.plans.extend(new_plans);
        // Only after everything succeeded: the recorded SQL must describe
        // exactly the statements the session actually holds.
        if !self.sql_text.is_empty() {
            self.sql_text.push('\n');
        }
        self.sql_text.push_str(sql);
        self.version += 1;
        Ok(added)
    }

    /// Object sizes in blocks, in catalog order.
    pub fn object_sizes(&self) -> Vec<u64> {
        self.catalog
            .objects()
            .iter()
            .map(|o| o.size_blocks)
            .collect()
    }

    /// Materializes a layout from an explicit fraction matrix, validating
    /// its shape against this session's catalog and disks.
    pub fn layout_from_fractions(&self, fractions: &[Vec<f64>]) -> Result<Layout, ApiError> {
        let sizes = self.object_sizes();
        if fractions.len() != sizes.len() {
            return Err(ApiError::bad_request(format!(
                "layout has {} object rows, catalog has {} objects",
                fractions.len(),
                sizes.len()
            )));
        }
        let n_disks = self.disks.len();
        let mut layout = Layout::empty(sizes, n_disks);
        for (obj, row) in fractions.iter().enumerate() {
            if row.len() != n_disks {
                return Err(ApiError::bad_request(format!(
                    "layout row {obj} has {} fractions, session has {n_disks} disks",
                    row.len()
                )));
            }
            // Phrased so NaN fails closed: `f >= 0.0` and `sum > 0.0` are
            // both false for NaN, where `f < 0.0` / `sum <= 0.0` would let
            // NaN rows slip through to the panicking assert in `place`.
            let sum: f64 = row.iter().sum();
            if !(row.iter().all(|&f| f >= 0.0) && sum.is_finite() && sum > 0.0) {
                return Err(ApiError::bad_request(format!(
                    "layout row {obj} needs finite non-negative fractions with a positive sum"
                )));
            }
            let placement: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &f)| f != 0.0) // dblayout::allow(R3, reason = "exact bit-zero drops unused disks; NaN already rejected by the finite-sum check above")
                .map(|(j, &f)| (j, f))
                .collect();
            layout.place(obj, &placement);
        }
        layout
            .validate(&self.disks)
            .map_err(|e| ApiError::bad_request(format!("invalid layout: {e}")))?;
        Ok(layout)
    }
}

/// The session table, bounded so a misbehaving client can't grow the server
/// without limit. Sessions are handed out as `Arc<Mutex<_>>` so requests
/// against *different* sessions run concurrently while the registry lock is
/// held only for the lookup. A session lives until it is closed.
pub struct SessionRegistry {
    sessions: HashMap<u64, Arc<Mutex<Session>>>,
    next_id: u64,
    capacity: usize,
}

impl SessionRegistry {
    /// An empty registry holding at most `capacity` concurrent sessions.
    pub fn new(capacity: usize) -> Self {
        Self {
            sessions: HashMap::new(),
            next_id: 1,
            capacity,
        }
    }

    /// Opens a session, returning its id.
    pub fn open(&mut self, session: Session) -> Result<u64, ApiError> {
        if self.sessions.len() >= self.capacity {
            return Err(ApiError::new(
                "capacity",
                format!(
                    "session table full ({} open, capacity {}); close a session first",
                    self.sessions.len(),
                    self.capacity
                ),
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, Arc::new(Mutex::new(session)));
        Ok(id)
    }

    /// Handle to an open session (clone of its shared lock).
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, ApiError> {
        self.sessions
            .get(&id)
            .cloned()
            .ok_or_else(|| ApiError::new("unknown_session", format!("no open session {id}")))
    }

    /// Closes a session, dropping its resident state.
    pub fn close(&mut self, id: u64) -> Result<(), ApiError> {
        self.sessions
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| ApiError::new("unknown_session", format!("no open session {id}")))
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

/// Memoized what-if costs, keyed on (session, statement-set version, layout
/// hash) with least-recently-used eviction.
pub struct CostCache {
    /// Each key's cost and the stamp of its last use.
    map: HashMap<(u64, u64, u64), (f64, u64)>,
    /// Keys by last-use stamp, oldest first.
    order: BTreeMap<u64, (u64, u64, u64)>,
    /// The next use's stamp; stamps only grow.
    clock: u64,
    capacity: usize,
}

impl CostCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            capacity,
        }
    }

    /// Looks up a memoized cost, refreshing its recency on hit.
    pub fn get(&mut self, key: (u64, u64, u64)) -> Option<f64> {
        let cost = self.map.get(&key)?.0;
        self.touch(key, cost);
        Some(cost)
    }

    /// Inserts (or refreshes) a memoized cost, evicting the least recently
    /// used entry when full.
    pub fn insert(&mut self, key: (u64, u64, u64), cost: f64) {
        let fresh = !self.map.contains_key(&key);
        self.touch(key, cost);
        if fresh && self.map.len() > self.capacity {
            if let Some((_, evicted)) = self.order.pop_first() {
                self.map.remove(&evicted);
            }
        }
    }

    /// Drops every entry belonging to `session`.
    pub fn invalidate_session(&mut self, session: u64) {
        self.map.retain(|k, _| k.0 != session);
        self.order.retain(|_, k| k.0 != session);
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Stores `cost` under `key` as the most recently used entry.
    fn touch(&mut self, key: (u64, u64, u64), cost: f64) {
        let stamp = self.clock;
        self.clock += 1;
        if let Some((_, old)) = self.map.insert(key, (cost, stamp)) {
            self.order.remove(&old);
        }
        self.order.insert(stamp, key);
    }
}

/// FNV-1a over a layout's fraction bit patterns — the cache key component
/// identifying the candidate layout exactly (bit equality, not epsilon).
pub fn layout_hash(layout: &Layout) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for obj in 0..layout.object_count() {
        for &f in layout.fractions_of(obj) {
            eat(&f.to_bits().to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::resolve_catalog;
    use dblayout_core::build_access_graph;

    fn tpch_session() -> Session {
        Session::with_relayout(
            resolve_catalog("tpch:0.01").unwrap(),
            dblayout_disksim::paper_disks(),
            1,
            1.0,
        )
    }

    #[test]
    fn add_statements_extends_all_artifacts() {
        let mut s = tpch_session();
        let added = s
            .add_statements("SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;")
            .unwrap();
        assert_eq!(added, 1);
        assert_eq!(s.version, 1);
        assert_eq!(s.plans.len(), 1);
        assert_eq!(s.workload.len(), 1);

        s.add_statements("-- weight: 4\nSELECT COUNT(*) FROM lineitem;")
            .unwrap();
        assert_eq!(s.version, 2);
        assert_eq!(s.plans.len(), 2);

        // Incremental graph == batch rebuild, bit for bit.
        let batch = build_access_graph(s.catalog.objects().len(), &s.plans);
        for u in 0..s.graph.len() {
            assert_eq!(
                batch.node_weight(u).to_bits(),
                s.graph.node_weight(u).to_bits()
            );
        }
    }

    #[test]
    fn failed_add_leaves_session_untouched() {
        let mut s = tpch_session();
        s.add_statements("SELECT COUNT(*) FROM lineitem;").unwrap();
        let err = s
            .add_statements("SELECT COUNT(*) FROM lineitem;\nSELECT COUNT(*) FROM nope;")
            .unwrap_err();
        assert_eq!(err.code, "plan_error");
        assert_eq!(s.plans.len(), 1);
        assert_eq!(s.version, 1);
        assert!(s.add_statements("").is_err());
    }

    #[test]
    fn registry_caps_and_recycles() {
        let mut reg = SessionRegistry::new(2);
        let a = reg.open(tpch_session()).unwrap();
        let _b = reg.open(tpch_session()).unwrap();
        assert_eq!(reg.open(tpch_session()).unwrap_err().code, "capacity");
        reg.close(a).unwrap();
        assert_eq!(reg.len(), 1);
        let c = reg.open(tpch_session()).unwrap();
        assert!(c > a, "ids are never reused");
        assert!(reg.get(a).is_err());
        assert_eq!(crate::lock_unpoisoned(&reg.get(c).unwrap()).version, 0);
    }

    #[test]
    fn decay_session_ages_graph_per_ingestion() {
        let mut s = Session::with_relayout(
            resolve_catalog("tpch:0.01").unwrap(),
            dblayout_disksim::paper_disks(),
            1,
            0.5,
        );
        s.add_statements("SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;")
            .unwrap();
        assert_eq!(s.epoch, 1);
        let li = s.catalog.object_id("lineitem").unwrap().index();
        let ord = s.catalog.object_id("orders").unwrap().index();
        let w1 = s.graph.edge_weight(li, ord);
        assert!(w1 > 0.0);
        // Second identical ingestion: old weight halves, new lands on top.
        s.add_statements("SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;")
            .unwrap();
        assert_eq!(s.epoch, 2);
        assert_eq!(
            s.graph.edge_weight(li, ord).to_bits(),
            (w1 * 0.5 + w1).to_bits()
        );
        // Relayout state starts at the baseline with no advice taken.
        assert_eq!(s.deployed.object_count(), s.full_striping().object_count());
        assert!(s.last_target.is_none());
        assert_eq!(s.advised_graph.edge_count(), 0);
    }

    #[test]
    fn cost_cache_evicts_in_least_recently_used_order() {
        let mut cache = CostCache::new(3);
        for k in 1..=3 {
            cache.insert((1, 1, k), k as f64);
        }
        // Use order 1, 2, 3; a hit on 1 and a refresh of 2 make it 3, 1, 2.
        assert_eq!(cache.get((1, 1, 1)), Some(1.0));
        cache.insert((1, 1, 2), 20.0);
        // Misses do not touch the order, so each probe reads it as is.
        for (k, evicted) in [(4, 3), (5, 1), (6, 2)] {
            cache.insert((1, 1, k), k as f64);
            assert_eq!(cache.get((1, 1, evicted)), None, "inserting {k}");
            assert_eq!(cache.len(), 3);
        }
        assert_eq!(cache.get((1, 1, 6)), Some(6.0));
    }

    #[test]
    fn cost_cache_is_lru_and_bounded() {
        let mut cache = CostCache::new(2);
        cache.insert((1, 1, 10), 100.0);
        cache.insert((1, 1, 20), 200.0);
        assert_eq!(cache.get((1, 1, 10)), Some(100.0)); // refresh 10
        cache.insert((1, 1, 30), 300.0); // evicts 20
        assert_eq!(cache.get((1, 1, 20)), None);
        assert_eq!(cache.get((1, 1, 10)), Some(100.0));
        assert_eq!(cache.len(), 2);
        cache.invalidate_session(1);
        assert!(cache.is_empty());
    }

    #[test]
    fn layout_hash_separates_layouts() {
        let s = tpch_session();
        let sizes = s.object_sizes();
        let fs = Layout::full_striping(sizes.clone(), &s.disks);
        let mut other = Layout::empty(sizes, s.disks.len());
        for obj in 0..other.object_count() {
            other.place(obj, &[(obj % s.disks.len(), 1.0)]);
        }
        assert_ne!(layout_hash(&fs), layout_hash(&other));
        assert_eq!(layout_hash(&fs), layout_hash(&fs.clone()));
    }

    #[test]
    fn fraction_matrix_roundtrip_and_validation() {
        let mut s = tpch_session();
        s.add_statements("SELECT COUNT(*) FROM lineitem;").unwrap();
        let n = s.catalog.objects().len();
        let m = s.disks.len();
        let even = vec![vec![1.0 / m as f64; m]; n];
        let layout = s.layout_from_fractions(&even).unwrap();
        assert_eq!(layout.object_count(), n);
        assert!(s.layout_from_fractions(&even[..n - 1]).is_err());
        let mut ragged = even.clone();
        ragged[0].pop();
        assert!(s.layout_from_fractions(&ragged).is_err());
        let mut under = even.clone();
        under[0] = vec![0.0; m];
        assert!(s.layout_from_fractions(&under).is_err());
        // NaN must fail closed instead of reaching the assert in `place`.
        let mut nan_row = even.clone();
        nan_row[0] = vec![f64::NAN; m];
        assert!(s.layout_from_fractions(&nan_row).is_err());
        let mut inf_row = even;
        inf_row[0][0] = f64::INFINITY;
        assert!(s.layout_from_fractions(&inf_row).is_err());
    }
}
