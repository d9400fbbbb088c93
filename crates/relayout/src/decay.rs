//! Windowed/decayed access-graph maintenance.
//!
//! The access graph of paper §4 only ever accumulates, so a year-old join
//! storm weighs as much as this morning's. Continuous relayout instead
//! buckets ingestion into *epochs*: advancing an epoch multiplies every
//! node and edge weight by a decay factor `d ∈ (0, 1]`, after which new
//! statements fold in at full weight. The effective weight of an
//! observation `a` epochs old is therefore `d^a` — an exponentially decayed
//! window whose half-life is `ln 2 / ln(1/d)` epochs.
//!
//! **The decay = 1.0 identity.** With `d = 1.0` the scale is a no-op, and
//! [`advance_epoch`] skips it entirely instead of multiplying by 1.0 —
//! weights pass through the exact same sequence of `+=` folds as
//! [`extend_access_graph`](dblayout_core::extend_access_graph), so graphs
//! (and the layouts advised from them) are bit-for-bit identical to the
//! accumulate-only path. The `relayout_differential` suite locks this in.

use dblayout_obs::counters::{self, Counter};
use dblayout_partition::Graph;

/// Multiplies every node and edge weight of `graph` by `decay`, the
/// epoch-advance primitive. Returns `true` when the graph was scaled;
/// `decay >= 1.0` is skipped entirely (not multiplied by 1.0) so the
/// no-decay path stays bit-identical to plain accumulation.
///
/// # Panics
/// Asserts `0 < decay <= 1` — amplifying history is never meaningful.
pub fn advance_epoch(graph: &mut Graph, decay: f64) -> bool {
    assert!(
        decay > 0.0 && decay <= 1.0,
        "decay must be in (0, 1], got {decay}"
    );
    if decay >= 1.0 {
        return false;
    }
    graph.scale(decay);
    counters::incr(Counter::RelayoutEpochAdvances);
    true
}

/// Canonical byte serialization of a graph: node count, every node
/// weight's raw bits, then every edge `(u, v, w)` with `u < v` in sorted
/// order, weights as raw bits. Two graphs serialize identically iff they
/// are bit-for-bit the same — the equality the decay-1.0 differential
/// tests assert.
pub fn graph_bytes(g: &Graph) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * g.len() + 24 * g.edge_count());
    out.extend_from_slice(&(g.len() as u64).to_le_bytes());
    for u in 0..g.len() {
        out.extend_from_slice(&g.node_weight(u).to_bits().to_le_bytes());
    }
    for (u, v, w) in g.edges() {
        out.extend_from_slice(&(u as u64).to_le_bytes());
        out.extend_from_slice(&(v as u64).to_le_bytes());
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::ObjectId;
    use dblayout_planner::{PhysicalPlan, PlanNode};

    fn scan(obj: u32, blocks: u64) -> PlanNode {
        PlanNode::TableScan {
            object: ObjectId(obj),
            name: format!("t{obj}"),
            blocks,
            rows: blocks as f64,
        }
    }

    fn join(a: u32, ab: u64, b: u32, bb: u64) -> PhysicalPlan {
        PhysicalPlan::new(PlanNode::MergeJoin {
            on: "k".into(),
            rows: 1.0,
            left: Box::new(scan(a, ab)),
            right: Box::new(scan(b, bb)),
        })
    }

    #[test]
    fn decay_one_skips_scaling_and_matches_plain_extension() {
        let plans = vec![(join(0, 100, 1, 50), 1.5), (join(1, 30, 2, 70), 2.0)];
        let mut plain = Graph::new(3);
        dblayout_core::extend_access_graph(&mut plain, &plans);

        let mut decayed = Graph::new(3);
        for p in &plans {
            assert!(
                !advance_epoch(&mut decayed, 1.0),
                "decay=1.0 must never scale"
            );
            dblayout_core::extend_access_graph(&mut decayed, std::slice::from_ref(p));
        }
        assert_eq!(graph_bytes(&decayed), graph_bytes(&plain));
    }

    #[test]
    fn decay_scales_old_epochs_only() {
        let mut g = Graph::new(2);
        dblayout_core::extend_access_graph(&mut g, &[(join(0, 100, 1, 100), 1.0)]);
        let w0 = g.edge_weight(0, 1);
        assert!(advance_epoch(&mut g, 0.5));
        assert_eq!(g.edge_weight(0, 1), w0 * 0.5);
        // New folds land at full weight on top of the decayed base.
        dblayout_core::extend_access_graph(&mut g, &[(join(0, 100, 1, 100), 1.0)]);
        assert_eq!(g.edge_weight(0, 1), w0 * 0.5 + w0);
    }

    #[test]
    #[should_panic(expected = "decay must be in")]
    fn zero_decay_rejected() {
        advance_epoch(&mut Graph::new(2), 0.0);
    }

    #[test]
    fn graph_bytes_distinguishes_weights() {
        let mut a = Graph::new(2);
        let mut b = Graph::new(2);
        a.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, 1.0 + f64::EPSILON);
        assert_ne!(graph_bytes(&a), graph_bytes(&b));
        assert_eq!(graph_bytes(&a), graph_bytes(&a.clone()));
    }
}
