//! Deterministic request schedules: a seeded LCG expands `(seed, n,
//! weights)` into the exact op sequence a load run will send.
//!
//! No wall-clock feeds the schedule — the same seed yields the same op
//! sequence (and therefore the same mix counters) on every host, which is
//! what lets `BENCH_server.json` rows carry *exact* mix counters that
//! `dblayout benchdiff` gates. This file is in R6's determinism zone on
//! its own (it imports nothing from the rest of `loadgen`): nothing here
//! may read a clock, use a hash container, or branch on thread identity.

/// One request kind in the load mix, a subset of the wire vocabulary
/// chosen to cover the advisory loop: session churn, workload ingestion,
/// search, and monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `open_session` (each is paired with an unmeasured `close_session`
    /// by the driver so session capacity stays bounded).
    OpenSession,
    /// `add_statements` on the worker's long-lived session.
    AddStatements,
    /// `recommend` (k=1) on the worker's long-lived session.
    Recommend,
    /// `stats` — the cheap monitoring probe.
    Stats,
}

impl OpKind {
    /// Every kind, in mix-weight order.
    pub const ALL: [OpKind; 4] = [
        OpKind::OpenSession,
        OpKind::AddStatements,
        OpKind::Recommend,
        OpKind::Stats,
    ];

    /// The wire `op` string.
    pub fn wire_name(self) -> &'static str {
        match self {
            OpKind::OpenSession => "open_session",
            OpKind::AddStatements => "add_statements",
            OpKind::Recommend => "recommend",
            OpKind::Stats => "stats",
        }
    }
}

/// Relative op frequencies. The default mix models a monitoring-heavy
/// advisory deployment: mostly cheap `stats` probes, a steady trickle of
/// workload ingestion, occasional searches, rare session churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Weight of `open_session` (+ paired close).
    pub open_session: u32,
    /// Weight of `add_statements`.
    pub add_statements: u32,
    /// Weight of `recommend`.
    pub recommend: u32,
    /// Weight of `stats`.
    pub stats: u32,
}

impl Default for MixWeights {
    fn default() -> Self {
        MixWeights {
            open_session: 1,
            add_statements: 20,
            recommend: 2,
            stats: 977,
        }
    }
}

impl MixWeights {
    /// Parses `"1,20,2,977"` (open_session, add_statements, recommend,
    /// stats). Returns `None` unless exactly four integers with a
    /// positive sum are given.
    pub fn parse_weights(text: &str) -> Option<Self> {
        let mut vals = [0u32; 4];
        let mut seen = 0usize;
        for part in text.split(',') {
            if seen >= 4 {
                return None;
            }
            if let Some(slot) = vals.get_mut(seen) {
                *slot = part.trim().parse().ok()?;
            }
            seen += 1;
        }
        if seen != 4 {
            return None;
        }
        let [open_session, add_statements, recommend, stats] = vals;
        let mix = MixWeights {
            open_session,
            add_statements,
            recommend,
            stats,
        };
        if mix.weight_sum() == 0 {
            return None;
        }
        Some(mix)
    }

    /// The weights in [`OpKind::ALL`] order.
    pub fn as_array(&self) -> [u32; 4] {
        [
            self.open_session,
            self.add_statements,
            self.recommend,
            self.stats,
        ]
    }

    /// Sum of all weights.
    pub fn weight_sum(&self) -> u64 {
        self.as_array().iter().map(|&w| w as u64).sum()
    }

    /// The canonical `"1,20,2,977"` encoding (inverse of
    /// [`MixWeights::parse_weights`]).
    pub fn encode(&self) -> String {
        let [a, b, c, d] = self.as_array();
        format!("{a},{b},{c},{d}")
    }
}

/// A splitmix64-scrambled 64-bit LCG — tiny, seedable, and plenty for
/// weighted op draws. (MMIX multiplier; the splitmix finalizer on the
/// state kills the low-bit lattice structure raw LCGs carry.)
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// A generator whose whole stream is determined by `seed`.
    pub fn seeded(seed: u64) -> Self {
        // splitmix64 of the seed so nearby seeds diverge immediately.
        Lcg {
            state: mix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        mix64(self.state)
    }

    /// Uniform draw in `0..bound` (`bound` of 0 yields 0). Modulo bias is
    /// below 2^-50 for the small bounds used here.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }
}

/// The splitmix64 output permutation.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands `(seed, n, weights)` into the exact op sequence of a run:
/// request `i` (global order; workers stride through it) is an
/// independent weighted draw.
pub fn build_schedule(seed: u64, requests: usize, weights: &MixWeights) -> Vec<OpKind> {
    let totals = weights.as_array();
    let weight_sum = weights.weight_sum();
    let mut rng = Lcg::seeded(seed);
    let mut plan = Vec::with_capacity(requests);
    for _ in 0..requests {
        let mut draw = rng.next_below(weight_sum);
        let mut picked = OpKind::Stats;
        for (kind, &w) in OpKind::ALL.iter().zip(totals.iter()) {
            let w = w as u64;
            if draw < w {
                picked = *kind;
                break;
            }
            draw -= w;
        }
        plan.push(picked);
    }
    plan
}

/// Per-op request counts of a schedule — the deterministic fingerprint
/// that load-test history rows carry as exact-gated counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MixCounts {
    /// Counts in [`OpKind::ALL`] order.
    pub per_op: [u64; 4],
}

impl MixCounts {
    /// Counts each op in a schedule.
    pub fn tally(plan: &[OpKind]) -> Self {
        let mut per_op = [0u64; 4];
        for op in plan {
            for (slot, kind) in per_op.iter_mut().zip(OpKind::ALL.iter()) {
                if op == kind {
                    *slot += 1;
                }
            }
        }
        MixCounts { per_op }
    }

    /// Count for one kind.
    pub fn of(&self, kind: OpKind) -> u64 {
        OpKind::ALL
            .iter()
            .zip(self.per_op.iter())
            .find(|(k, _)| **k == kind)
            .map(|(_, &n)| n)
            .unwrap_or(0)
    }

    /// `("load_mix_<op>", count)` pairs in fixed order, for history rows.
    pub fn counter_pairs(&self) -> Vec<(String, u64)> {
        OpKind::ALL
            .iter()
            .zip(self.per_op.iter())
            .map(|(kind, &n)| (format!("load_mix_{}", kind.wire_name()), n))
            .collect()
    }

    /// Total requests.
    pub fn total_requests(&self) -> u64 {
        self.per_op.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let w = MixWeights::default();
        let a = build_schedule(42, 5_000, &w);
        let b = build_schedule(42, 5_000, &w);
        assert_eq!(a, b);
        assert_ne!(
            a,
            build_schedule(43, 5_000, &w),
            "different seeds should diverge"
        );
    }

    #[test]
    fn mix_tracks_weights() {
        let w = MixWeights::default();
        let plan = build_schedule(7, 100_000, &w);
        let mix = MixCounts::tally(&plan);
        assert_eq!(mix.total_requests(), 100_000);
        // Expected ~0.1% open_session, ~2% add_statements, ~97.7% stats.
        let stats = mix.of(OpKind::Stats) as f64 / 100_000.0;
        assert!((stats - 0.977).abs() < 0.01, "stats fraction {stats}");
        let adds = mix.of(OpKind::AddStatements) as f64 / 100_000.0;
        assert!((adds - 0.02).abs() < 0.005, "add fraction {adds}");
        assert!(mix.of(OpKind::OpenSession) > 0);
        assert!(mix.of(OpKind::Recommend) > 0);
    }

    #[test]
    fn weights_round_trip_through_text() {
        let w = MixWeights::parse_weights("1,20,2,977").unwrap();
        assert_eq!(w, MixWeights::default());
        assert_eq!(w.encode(), "1,20,2,977");
        assert_eq!(MixWeights::parse_weights("0,0,0,1").unwrap().stats, 1);
        assert!(MixWeights::parse_weights("0,0,0,0").is_none(), "zero sum");
        assert!(MixWeights::parse_weights("1,2,3").is_none());
        assert!(MixWeights::parse_weights("1,2,3,4,5").is_none());
        assert!(MixWeights::parse_weights("1,2,x,4").is_none());
    }

    #[test]
    fn zero_weight_ops_never_appear() {
        let w = MixWeights {
            open_session: 0,
            add_statements: 0,
            recommend: 0,
            stats: 3,
        };
        let plan = build_schedule(9, 10_000, &w);
        assert!(plan.iter().all(|op| *op == OpKind::Stats));
    }

    #[test]
    fn counter_pairs_are_fixed_order_and_named() {
        let mix = MixCounts {
            per_op: [1, 2, 3, 4],
        };
        let pairs = mix.counter_pairs();
        assert_eq!(
            pairs,
            vec![
                ("load_mix_open_session".to_string(), 1),
                ("load_mix_add_statements".to_string(), 2),
                ("load_mix_recommend".to_string(), 3),
                ("load_mix_stats".to_string(), 4),
            ]
        );
    }

    #[test]
    fn lcg_streams_are_seed_determined() {
        let mut a = Lcg::seeded(1);
        let mut b = Lcg::seeded(1);
        let mut c = Lcg::seeded(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        // Bounded draws stay in range.
        for bound in [1u64, 2, 7, 1000] {
            let mut r = Lcg::seeded(5);
            for _ in 0..100 {
                assert!(r.next_below(bound) < bound);
            }
        }
        assert_eq!(Lcg::seeded(5).next_below(0), 0);
    }
}
