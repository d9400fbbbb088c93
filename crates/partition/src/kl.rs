//! Kernighan–Lin-style max-cut partitioning.
//!
//! The classic KL algorithm minimizes the cut of a bipartition by swapping
//! locked pairs and keeping the best prefix of the swap sequence. The
//! paper's step 1 wants the *opposite* objective — maximize the weight of
//! edges **across** partitions so co-accessed objects separate — which is
//! the same algorithm with gains negated. For any number of partitions we
//! use a generalized single-move KL (Fiduccia–Mattheyses-style passes):
//! each pass tentatively moves every node once (best gain first, negative
//! gains allowed), then rolls back to the best prefix; passes repeat until
//! no improvement. Greedy seeding places heavy nodes first in the partition
//! minimizing internal co-access.

use crate::graph::Graph;

/// Multiway max-cut partitioning into `parts` parts.
///
/// Greedy seeding (heaviest nodes first, each into the partition with least
/// co-access to it) followed by KL-style single-move refinement passes with
/// locking and best-prefix rollback. Deterministic.
///
/// Returns `assignment[u] ∈ 0..parts`. With `parts >= n` every node gets its
/// own partition (maximum possible cut).
pub fn max_cut_partition(g: &Graph, parts: usize) -> Vec<usize> {
    assert!(parts >= 1, "need at least one partition");
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    if parts == 1 {
        return vec![0; n];
    }

    let mut assignment = greedy_seed(g, parts);

    // --- KL-style refinement ---
    loop {
        if !multiway_pass(g, parts, &mut assignment) {
            break;
        }
    }
    assignment
}

/// Greedy seeding: the opening phase of [`max_cut_partition`], exposed so
/// the multilevel pipeline can use it as a deterministic quality-floor
/// challenger without paying for the O(n²) refinement passes.
///
/// Orders nodes by descending node weight (ties by id for determinism):
/// heavy objects claim empty partitions first, mirroring step 2-3 of
/// Figure 9 which assigns partitions in descending node-weight order. Each
/// node lands in the partition with the smallest co-access to it (ties →
/// smallest partition id).
pub fn greedy_seed(g: &Graph, parts: usize) -> Vec<usize> {
    assert!(parts >= 1, "need at least one partition");
    let n = g.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        g.node_weight(b)
            .total_cmp(&g.node_weight(a))
            .then(a.cmp(&b))
    });
    let mut assignment = vec![usize::MAX; n];
    for &u in &order {
        let mut best_p = 0;
        let mut best_cost = f64::INFINITY;
        for p in 0..parts {
            let cost: f64 = g
                .neighbors(u)
                .filter(|&(v, _)| assignment[v] == p)
                .map(|(_, w)| w)
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_p = p;
            }
        }
        assignment[u] = best_p;
    }
    assignment
}

/// One multiway refinement pass: tentatively move every node once (best
/// single-node move first, negative gains allowed to escape local optima),
/// then keep the best prefix. Returns whether the cut strictly improved.
fn multiway_pass(g: &Graph, parts: usize, assignment: &mut [usize]) -> bool {
    let n = g.len();
    let mut locked = vec![false; n];
    let mut work = assignment.to_vec();
    let mut moves: Vec<(usize, usize, usize, f64)> = Vec::new(); // (node, from, to, gain)

    for _ in 0..n {
        let mut best: Option<(usize, usize, f64)> = None; // (node, to, gain)
        for u in 0..n {
            if locked[u] {
                continue;
            }
            // co[p] = co-access weight of u into partition p
            let mut co = vec![0.0f64; parts];
            for (v, w) in g.neighbors(u) {
                co[work[v]] += w;
            }
            let from = work[u];
            for (to, &co_to) in co.iter().enumerate() {
                if to == from {
                    continue;
                }
                // Moving u from `from` to `to` converts co[from] from
                // internal to cut (+) and co[to] from cut to internal (−).
                let gain = co[from] - co_to;
                if best.is_none_or(|(_, _, best_gain)| gain > best_gain) {
                    best = Some((u, to, gain));
                }
            }
        }
        let Some((u, to, gain)) = best else { break };
        moves.push((u, work[u], to, gain));
        work[u] = to;
        locked[u] = true;
    }

    let mut best_k = 0;
    let mut best_sum = 0.0;
    let mut sum = 0.0;
    for (k, &(_, _, _, gain)) in moves.iter().enumerate() {
        sum += gain;
        if sum > best_sum + 1e-12 {
            best_sum = sum;
            best_k = k + 1;
        }
    }
    if best_k == 0 {
        return false;
    }
    for &(u, _, to, _) in &moves[..best_k] {
        assignment[u] = to;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive max-cut over all `parts^n` assignments (first node pinned to
    /// partition 0 to break symmetry): the oracle these tests hold
    /// [`max_cut_partition`] to on small instances.
    ///
    /// # Panics
    /// Panics when `parts^n` exceeds ~10⁷ states.
    fn exhaustive_max_cut(g: &Graph, parts: usize) -> Vec<usize> {
        let n = g.len();
        assert!(parts >= 1);
        if n == 0 {
            return Vec::new();
        }
        let states = (parts as f64).powi((n as i32 - 1).max(0));
        assert!(states <= 1e7, "instance too large for exhaustive search");

        let mut best = vec![0; n];
        let mut best_cut = f64::NEG_INFINITY;
        let mut current = vec![0usize; n];
        loop {
            let cut = g.cut_weight(&current);
            if cut > best_cut {
                best_cut = cut;
                best = current.clone();
            }
            // Odometer increment over positions 1..n (position 0 pinned).
            let mut i = 1;
            loop {
                if i >= n {
                    return best;
                }
                current[i] += 1;
                if current[i] < parts {
                    break;
                }
                current[i] = 0;
                i += 1;
            }
        }
    }

    /// Two hot pairs: (0,1) and (2,3) heavily co-accessed; cross edges tiny.
    fn two_pairs() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(2, 3, 100.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(1, 3, 1.0);
        g
    }

    #[test]
    fn bipartition_separates_hot_pairs() {
        let g = two_pairs();
        let a = max_cut_partition(&g, 2);
        // Max cut must separate 0 from 1 and 2 from 3 (cut = 200 + maybe 2).
        assert_ne!(a[0], a[1]);
        assert_ne!(a[2], a[3]);
        assert!(g.cut_weight(&a) >= 200.0);
    }

    #[test]
    fn bipartition_matches_exhaustive_on_small_graphs() {
        let g = two_pairs();
        let heuristic = g.cut_weight(&max_cut_partition(&g, 2));
        let optimal = g.cut_weight(&exhaustive_max_cut(&g, 2));
        assert!(heuristic >= optimal - 1e-9, "{heuristic} < {optimal}");
    }

    #[test]
    fn multiway_uses_all_partitions_when_beneficial() {
        // Triangle with equal weights: 3 partitions cut everything.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 10.0);
        g.add_edge(0, 2, 10.0);
        let a = max_cut_partition(&g, 3);
        assert_eq!(g.cut_weight(&a), 30.0);
    }

    #[test]
    fn multiway_matches_exhaustive_on_random_small_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n = rng.gen_range(2..7);
            let parts = rng.gen_range(2..4);
            let mut g = Graph::new(n);
            for u in 0..n {
                g.add_node_weight(u, rng.gen_range(1.0..100.0));
                for v in (u + 1)..n {
                    if rng.gen_bool(0.7) {
                        g.add_edge(u, v, rng.gen_range(1.0..50.0));
                    }
                }
            }
            let heuristic = g.cut_weight(&max_cut_partition(&g, parts));
            let optimal = g.cut_weight(&exhaustive_max_cut(&g, parts));
            // Heuristic should be within 10% of optimal on tiny graphs.
            assert!(
                heuristic >= 0.9 * optimal - 1e-9,
                "trial {trial}: heuristic {heuristic} vs optimal {optimal}"
            );
        }
    }

    #[test]
    fn single_partition_returns_zeros() {
        let g = two_pairs();
        assert_eq!(max_cut_partition(&g, 1), vec![0, 0, 0, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(max_cut_partition(&g, 4).is_empty());
        assert!(exhaustive_max_cut(&g, 2).is_empty());
    }

    #[test]
    fn isolated_nodes_are_fine() {
        let g = Graph::new(5); // no edges at all
        let a = max_cut_partition(&g, 3);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|&p| p < 3));
    }

    #[test]
    fn more_parts_than_nodes() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 5.0);
        let a = max_cut_partition(&g, 8);
        assert_ne!(a[0], a[1]); // full cut achievable
    }

    #[test]
    fn labels_in_range() {
        let g = two_pairs();
        for parts in 1..5 {
            let a = max_cut_partition(&g, parts);
            assert!(a.iter().all(|&p| p < parts));
        }
    }

    #[test]
    fn exhaustive_pins_first_node() {
        let g = two_pairs();
        let a = exhaustive_max_cut(&g, 2);
        assert_eq!(a[0], 0);
    }

    #[test]
    fn refinement_never_worse_than_seeding_alone() {
        // Path graph where greedy seeding can be suboptimal.
        let mut g = Graph::new(6);
        for u in 0..5 {
            g.add_edge(u, u + 1, (u + 1) as f64 * 10.0);
        }
        let a = max_cut_partition(&g, 2);
        let optimal = g.cut_weight(&exhaustive_max_cut(&g, 2));
        assert!(g.cut_weight(&a) >= 0.9 * optimal);
    }
}
