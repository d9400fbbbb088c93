//! Workload drift detection.
//!
//! A deployed layout was advised on a particular access graph. As the
//! workload evolves, the live (decayed) graph walks away from that
//! snapshot, and at some point the deployed layout is advice for a
//! workload that no longer exists. The detector quantifies the gap with
//! two complementary metrics (DESIGN.md §9):
//!
//! * **normalized weight distance** — the total-variation distance
//!   `½ · Σ|ŵ_now − ŵ_adv|` between the two edge-weight *distributions*
//!   (each side normalized to unit mass; computed over the union of
//!   edges, and separately over nodes). 0 means the same shape — a
//!   workload that doubled uniformly scores exactly 0 — and 1 means the
//!   weight sits on disjoint edges. One side empty and the other not
//!   scores 1.
//! * **top-k rank churn** — `1 − |topk(now) ∩ topk(adv)| / k`, the
//!   fraction of the advised graph's k heaviest co-access edges that are
//!   no longer among the current top k. The advisor's step 1 is driven by
//!   the heaviest edges, so churn here predicts a different partition.
//!
//! Either metric crossing its threshold fires
//! [`DriftReport::drifted`].

use std::collections::BTreeSet;

use dblayout_obs::counters::{self, Counter};
use dblayout_partition::Graph;
use serde_json::Value;

/// Drift-detector thresholds.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// How many of the heaviest edges participate in rank churn.
    pub top_k: usize,
    /// Edge-weight distance at or above which drift fires.
    pub distance_threshold: f64,
    /// Rank churn at or above which drift fires.
    pub churn_threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            top_k: 10,
            distance_threshold: 0.25,
            churn_threshold: 0.5,
        }
    }
}

/// The typed outcome of a drift check.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Normalized edge-weight distance in `[0, 1]`.
    pub edge_distance: f64,
    /// Normalized node-weight distance in `[0, 1]`.
    pub node_distance: f64,
    /// Top-k co-access rank churn in `[0, 1]`.
    pub rank_churn: f64,
    /// The `k` the churn was computed over (capped by available edges).
    pub top_k: usize,
    /// Total edge weight of the current (decayed) graph.
    pub current_total_weight: f64,
    /// Total edge weight of the graph the layout was advised on.
    pub advised_total_weight: f64,
    /// Whether either metric crossed its threshold.
    pub drifted: bool,
    /// Id of the decision record that produced the advised graph, when the
    /// caller tracks provenance (`dblayout-audit`); `None` for one-shot
    /// comparisons with no recorded advice.
    pub decision_id: Option<u64>,
}

impl DriftReport {
    /// Machine-readable rendering for the `drift` op and CLI artifacts.
    pub fn to_json(&self) -> Value {
        let mut entries = vec![
            ("edge_distance".into(), Value::F64(self.edge_distance)),
            ("node_distance".into(), Value::F64(self.node_distance)),
            ("rank_churn".into(), Value::F64(self.rank_churn)),
            ("top_k".into(), Value::U64(self.top_k as u64)),
            (
                "current_total_weight".into(),
                Value::F64(self.current_total_weight),
            ),
            (
                "advised_total_weight".into(),
                Value::F64(self.advised_total_weight),
            ),
            ("drifted".into(), Value::Bool(self.drifted)),
        ];
        if let Some(id) = self.decision_id {
            entries.push(("decision_id".into(), Value::U64(id)));
        }
        Value::Map(entries)
    }
}

/// Total-variation distance between two weight vectors after normalizing
/// each to unit mass: `½ · Σ|a/Σa − b/Σb|` ∈ `[0, 1]`. Both sides empty →
/// 0 (nothing changed); exactly one side empty → 1 (all mass is new).
fn normalized_distance(pairs: &[(f64, f64)]) -> f64 {
    let sum_a: f64 = pairs.iter().map(|p| p.0).sum();
    let sum_b: f64 = pairs.iter().map(|p| p.1).sum();
    match (sum_a > 0.0, sum_b > 0.0) {
        (false, false) => 0.0,
        (true, false) | (false, true) => 1.0,
        (true, true) => {
            0.5 * pairs
                .iter()
                .map(|&(a, b)| (a / sum_a - b / sum_b).abs())
                .sum::<f64>()
        }
    }
}

/// The `k` heaviest edges as `(u, v)` keys, heaviest first; ties break on
/// `(u, v)` ascending so the ranking is total and deterministic.
fn top_k_edges(g: &Graph, k: usize) -> Vec<(usize, usize)> {
    let mut edges = g.edges();
    edges.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    edges.truncate(k);
    edges.into_iter().map(|(u, v, _)| (u, v)).collect()
}

/// Compares the live graph against the graph the deployed layout was
/// advised on and reports how far the workload has drifted.
///
/// # Panics
/// Asserts both graphs cover the same objects.
pub fn detect_drift(current: &Graph, advised: &Graph, cfg: &DriftConfig) -> DriftReport {
    assert_eq!(
        current.len(),
        advised.len(),
        "drift compares graphs over the same objects"
    );
    counters::incr(Counter::RelayoutDriftChecks);

    // Edge distance over the union of both edge sets.
    let mut edge_pairs: Vec<(f64, f64)> = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (u, v, w) in current.edges() {
        edge_pairs.push((w, advised.edge_weight(u, v)));
        seen.insert((u, v));
    }
    for (u, v, w) in advised.edges() {
        if !seen.contains(&(u, v)) {
            edge_pairs.push((current.edge_weight(u, v), w));
        }
    }
    let edge_distance = normalized_distance(&edge_pairs);

    let node_pairs: Vec<(f64, f64)> = (0..current.len())
        .map(|u| (current.node_weight(u), advised.node_weight(u)))
        .collect();
    let node_distance = normalized_distance(&node_pairs);

    // Rank churn over the k heaviest edges of each side.
    let k_eff = cfg
        .top_k
        .min(current.edge_count().max(advised.edge_count()));
    let rank_churn = if k_eff == 0 {
        0.0
    } else {
        let now: BTreeSet<(usize, usize)> = top_k_edges(current, k_eff).into_iter().collect();
        let overlap = top_k_edges(advised, k_eff)
            .into_iter()
            .filter(|e| now.contains(e))
            .count();
        1.0 - overlap as f64 / k_eff as f64
    };

    let drifted = edge_distance >= cfg.distance_threshold || rank_churn >= cfg.churn_threshold;
    DriftReport {
        edge_distance,
        node_distance,
        rank_churn,
        top_k: k_eff,
        current_total_weight: current.total_edge_weight(),
        advised_total_weight: advised.total_edge_weight(),
        drifted,
        decision_id: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(edges: &[(usize, usize, f64)]) -> Graph {
        let n = edges
            .iter()
            .map(|&(u, v, _)| u.max(v) + 1)
            .max()
            .unwrap_or(0)
            .max(4);
        let mut g = Graph::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
            g.add_node_weight(u, w / 2.0);
            g.add_node_weight(v, w / 2.0);
        }
        g
    }

    #[test]
    fn identical_graphs_do_not_drift() {
        let g = graph_with(&[(0, 1, 100.0), (2, 3, 50.0)]);
        let r = detect_drift(&g, &g.clone(), &DriftConfig::default());
        assert_eq!(r.edge_distance, 0.0);
        assert_eq!(r.node_distance, 0.0);
        assert_eq!(r.rank_churn, 0.0);
        assert!(!r.drifted);
    }

    #[test]
    fn uniform_scaling_is_not_drift() {
        let advised = graph_with(&[(0, 1, 100.0), (2, 3, 50.0)]);
        let doubled = graph_with(&[(0, 1, 200.0), (2, 3, 100.0)]);
        let r = detect_drift(&doubled, &advised, &DriftConfig::default());
        // Same shape, twice the mass: the distributions are identical.
        assert!(r.edge_distance.abs() < 1e-12, "got {}", r.edge_distance);
        assert_eq!(r.rank_churn, 0.0);
        assert!(!r.drifted);
    }

    #[test]
    fn one_sided_weight_is_maximal_distance() {
        let advised = Graph::new(4);
        let current = graph_with(&[(0, 1, 50.0)]);
        let r = detect_drift(&current, &advised, &DriftConfig::default());
        assert_eq!(r.edge_distance, 1.0);
        assert!(r.drifted);
    }

    #[test]
    fn disjoint_hot_sets_fire_drift() {
        let advised = graph_with(&[(0, 1, 100.0)]);
        let current = graph_with(&[(2, 3, 100.0)]);
        let r = detect_drift(&current, &advised, &DriftConfig::default());
        assert_eq!(r.edge_distance, 1.0);
        assert_eq!(r.rank_churn, 1.0);
        assert!(r.drifted);
    }

    #[test]
    fn empty_graphs_are_quiet() {
        let g = Graph::new(5);
        let r = detect_drift(&g, &g.clone(), &DriftConfig::default());
        assert_eq!(r.edge_distance, 0.0);
        assert_eq!(r.rank_churn, 0.0);
        assert_eq!(r.top_k, 0);
        assert!(!r.drifted);
    }

    #[test]
    fn churn_counts_replaced_top_edges() {
        // Advised top-2: (0,1), (2,3). Current top-2: (0,1), (1,2).
        let advised = graph_with(&[(0, 1, 100.0), (2, 3, 90.0), (1, 2, 10.0)]);
        let current = graph_with(&[(0, 1, 100.0), (2, 3, 10.0), (1, 2, 90.0)]);
        let cfg = DriftConfig {
            top_k: 2,
            ..Default::default()
        };
        let r = detect_drift(&current, &advised, &cfg);
        assert!((r.rank_churn - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_shape_is_stable() {
        let g = graph_with(&[(0, 1, 10.0)]);
        let mut report = detect_drift(&g, &g.clone(), &DriftConfig::default());
        let text = serde_json::to_string(&report.to_json()).unwrap();
        assert!(text.contains("\"edge_distance\""));
        assert!(text.contains("\"drifted\":false"));
        // No provenance by default; the id appears only when attributed.
        assert!(!text.contains("decision_id"));
        report.decision_id = Some(7);
        let text = serde_json::to_string(&report.to_json()).unwrap();
        assert!(text.contains("\"decision_id\":7"));
    }
}
