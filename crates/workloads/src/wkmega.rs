//! WK-MEGA: the mega-scale instance family — thousands of objects across
//! 64–256 disks with Zipfian popularity and community-structured
//! co-access.
//!
//! The paper's workloads top out at dozens of objects, where the O(n²) KL
//! pass and the full greedy-widening sweep are cheap. WK-MEGA generates
//! instances where they are the bottleneck, exercising the multilevel
//! partitioner (`dblayout_partition::multilevel_max_cut`) and the pruned
//! widening path (`TsGreedyConfig::prune_width`). Statements are emitted
//! directly as non-blocking sub-plan sets (no SQL round-trip); feed them to
//! `dblayout_core::build_access_graph_subplans` and `ts_greedy`.
//!
//! Everything is a pure function of [`MegaConfig`]: sizes, disks, and the
//! statement stream derive from one seeded `StdRng`, statement weights
//! and block counts are integer-valued (so every downstream f64
//! accumulation is exact regardless of association order), and repeated
//! calls with the same config are `assert_eq!`-identical.

use dblayout_catalog::ObjectId;
use dblayout_disksim::{uniform_disks, DiskSpec};
use dblayout_planner::{AccessKind, ObjectAccess, Subplan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one WK-MEGA instance.
#[derive(Debug, Clone)]
pub struct MegaConfig {
    /// Number of database objects (tables/indexes). Thousands, typically.
    pub objects: usize,
    /// Number of disks (64–256 for the mega family; any `>= 1` works).
    pub disks: usize,
    /// Number of statements in the workload.
    pub statements: usize,
    /// Zipf exponent for object popularity (0 = uniform; ~0.8 = the
    /// heavy-tailed shape frequent-itemset studies report for table hits).
    pub zipf_exponent: f64,
    /// Maximum objects co-accessed by one statement's sub-plan.
    pub max_fanout: usize,
    /// Percent (0–100) of co-access partners drawn from the anchor
    /// object's neighborhood instead of globally — produces the community
    /// structure real schemas have (hot join clusters).
    pub locality_pct: u32,
    /// RNG seed; every field of the instance derives from it.
    pub seed: u64,
}

impl Default for MegaConfig {
    fn default() -> Self {
        Self {
            objects: 2000,
            disks: 64,
            statements: 3000,
            zipf_exponent: 0.8,
            max_fanout: 4,
            locality_pct: 70,
            seed: 0xE6A,
        }
    }
}

impl MegaConfig {
    /// A family member scaled to `objects` × `disks`, keeping the
    /// statement count proportional (1.5 statements per object) and the
    /// default skew/locality shape.
    pub fn scaled(objects: usize, disks: usize, seed: u64) -> Self {
        Self {
            objects,
            disks,
            statements: objects + objects / 2,
            seed,
            ..Self::default()
        }
    }
}

/// One generated WK-MEGA instance: object sizes, a homogeneous disk farm
/// with headroom for wide striping, and the weighted sub-plan workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaInstance {
    /// `"wkmega-{objects}x{disks}-s{seed}"`.
    pub name: String,
    /// Object sizes in blocks (index = object id).
    pub sizes: Vec<u64>,
    /// The disk farm.
    pub disks: Vec<DiskSpec>,
    /// Weighted statements, each a set of non-blocking sub-plans.
    pub workload: Vec<(Vec<Subplan>, f64)>,
}

/// Generates the instance for `cfg`. Deterministic: same config, same
/// instance, bit for bit.
pub fn generate(cfg: &MegaConfig) -> MegaInstance {
    assert!(cfg.objects >= 2, "need at least two objects");
    assert!(cfg.disks >= 1, "need at least one disk");
    assert!(cfg.max_fanout >= 2, "co-access needs fanout >= 2");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Object sizes: a heavy-tailed ramp (rank-r object is ~r^-0.5 of the
    // biggest) plus uniform noise, all integer blocks.
    let n = cfg.objects;
    let mut sizes = Vec::with_capacity(n);
    for i in 0..n {
        let rank = (i + 1) as f64;
        let base = (20_000.0 / rank.sqrt()) as u64;
        sizes.push(base.max(16) + rng.gen_range(0..64));
    }

    // Disk farm: uniform spec with 4x headroom over perfectly balanced
    // usage, so wide striping and skewed layouts both stay feasible.
    let total_blocks: u64 = sizes.iter().sum();
    let capacity = (total_blocks / cfg.disks as u64 + 1) * 4;
    let disks = uniform_disks(cfg.disks, capacity, 8.0, 40.0);

    // Popularity: Zipf over object ids via an inverse-CDF table.
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for i in 0..n {
        acc += ((i + 1) as f64).powf(-cfg.zipf_exponent);
        cumulative.push(acc);
    }
    let zipf_total = acc;
    let draw_object = move |rng: &mut StdRng| -> usize {
        let x = rng.gen_range(0.0..zipf_total);
        cumulative.partition_point(|&c| c <= x).min(n - 1)
    };

    // Statements: one non-blocking sub-plan each (occasionally two), with
    // a Zipfian anchor and mostly-local partners.
    let mut workload = Vec::with_capacity(cfg.statements);
    for _ in 0..cfg.statements {
        let weight = rng.gen_range(1..=5) as f64;
        let regions = if rng.gen_range(0..10) == 0 { 2 } else { 1 };
        let mut subplans = Vec::with_capacity(regions);
        for _ in 0..regions {
            let anchor = draw_object(&mut rng);
            let fanout = rng.gen_range(2..=cfg.max_fanout);
            let mut sub = Subplan::default();
            push_access(&mut sub, anchor, &sizes, &mut rng);
            for _ in 1..fanout {
                let partner = if rng.gen_range(0..100) < cfg.locality_pct {
                    // Neighborhood of the anchor: a ±24-id window.
                    let lo = anchor.saturating_sub(24);
                    let hi = (anchor + 25).min(n);
                    rng.gen_range(lo..hi)
                } else {
                    draw_object(&mut rng)
                };
                if partner != anchor {
                    push_access(&mut sub, partner, &sizes, &mut rng);
                }
            }
            if !sub.is_empty() {
                subplans.push(sub);
            }
        }
        workload.push((subplans, weight));
    }

    MegaInstance {
        name: format!("wkmega-{}x{}-s{}", cfg.objects, cfg.disks, cfg.seed),
        sizes,
        disks,
        workload,
    }
}

/// Adds one access of `object` to `sub`: an integer block count up to a
/// scan cap, mostly sequential reads with occasional random reads and
/// writes (`Subplan::add` merges duplicates per kind).
fn push_access(sub: &mut Subplan, object: usize, sizes: &[u64], rng: &mut StdRng) {
    let size = sizes[object];
    let blocks = rng.gen_range(1..=size.min(512));
    let kind = match rng.gen_range(0..10) {
        0 => AccessKind::Write,
        1 => AccessKind::RandomRead,
        _ => AccessKind::SequentialRead,
    };
    sub.add(ObjectAccess {
        object: ObjectId(object as u32),
        blocks,
        rows: blocks as f64,
        kind,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MegaConfig {
        MegaConfig::scaled(300, 16, 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&MegaConfig::scaled(300, 16, 7));
        let b = generate(&MegaConfig::scaled(300, 16, 8));
        assert_eq!(a.sizes.len(), b.sizes.len());
        assert_ne!(a.workload, b.workload);
    }

    #[test]
    fn instance_shape_matches_config() {
        let cfg = small();
        let inst = generate(&cfg);
        assert_eq!(inst.sizes.len(), cfg.objects);
        assert_eq!(inst.disks.len(), cfg.disks);
        assert_eq!(inst.workload.len(), cfg.statements);
        assert_eq!(inst.name, "wkmega-300x16-s7");
    }

    #[test]
    fn full_striping_is_feasible() {
        // Total capacity leaves headroom: even a perfectly balanced
        // layout uses at most a quarter of each disk.
        let inst = generate(&small());
        let total: u64 = inst.sizes.iter().sum();
        let capacity: u64 = inst.disks.iter().map(|d| d.capacity_blocks).sum();
        assert!(capacity >= 3 * total, "capacity {capacity} vs data {total}");
    }

    #[test]
    fn weights_and_blocks_are_integer_valued() {
        let inst = generate(&small());
        for (subplans, w) in &inst.workload {
            assert_eq!(w.fract(), 0.0);
            assert!(*w >= 1.0);
            for sub in subplans {
                for a in &sub.accesses {
                    assert!(a.blocks >= 1);
                }
            }
        }
    }

    #[test]
    fn popularity_is_skewed() {
        // The hottest 10% of objects should absorb well over their share
        // of accesses — the heavy tail the mega family exists to model.
        let inst = generate(&MegaConfig::scaled(500, 16, 3));
        let mut hits = vec![0u64; inst.sizes.len()];
        for (subplans, _) in &inst.workload {
            for sub in subplans {
                for a in &sub.accesses {
                    hits[a.object.index()] += 1;
                }
            }
        }
        let hot: u64 = hits[..50].iter().sum();
        let total: u64 = hits.iter().sum();
        assert!(
            hot * 4 > total,
            "hot-50 objects got {hot}/{total} accesses — not Zipfian enough"
        );
    }

    #[test]
    fn statements_coaccess_multiple_objects() {
        let inst = generate(&small());
        let multi = inst
            .workload
            .iter()
            .filter(|(subplans, _)| subplans.iter().any(|s| s.objects().len() >= 2))
            .count();
        assert!(multi * 10 > inst.workload.len() * 8, "co-access too rare");
    }
}
