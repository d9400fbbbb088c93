//! Oracle for TS-GREEDY's candidate memo.
//!
//! The default engine keeps each candidate's re-costed sub-plan values
//! across iterations and re-costs a candidate only after its own group, or
//! a group sharing a sub-plan with it, moved. The `full_reevaluation`
//! engine keeps nothing: it clones, validates and fully re-costs every
//! candidate. On seeded instances where memoized candidates dominate (at
//! least 8 groups, sparse co-access, 16–64 drives) both engines — the
//! default one at 1 and 2 threads — must agree on layout bits, cost bits,
//! the work counters and the deterministic trace, byte for byte. The
//! instances cover `k = 2`, seeded searches (narrow and swap moves),
//! pruned widening with arbitration sweeps, capacity-tight drives where a
//! memoized candidate falls through the headroom accept, co-location
//! groups and a movement bound.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dblayout_catalog::ObjectId;
use dblayout_core::build_access_graph_subplans;
use dblayout_core::constraints::Constraints;
use dblayout_core::tsgreedy::{ts_greedy, TsGreedyConfig, TsGreedyResult};
use dblayout_disksim::{DiskSpec, Layout};
use dblayout_obs::counters::{self, Counter, CounterSnapshot};
use dblayout_obs::{Collector, Record, RingSink};
use dblayout_planner::{AccessKind, ObjectAccess, Subplan};

/// The work counters are process-global, so the searches of this binary's
/// tests take turns.
static COUNTERS: Mutex<()> = Mutex::new(());

struct Instance {
    sizes: Vec<u64>,
    workload: Vec<(Vec<Subplan>, f64)>,
    disks: Vec<DiskSpec>,
}

/// A seeded instance: `objects` objects of 20–400 blocks; twice as many
/// statements, each of one or two sub-plans that mostly read one object
/// and sometimes join one of a few fixed pairs (sparse co-access); and
/// `drives` drives of mixed speed whose capacity is `slack` times the mean
/// per-drive load.
fn instance(seed: u64, objects: usize, drives: usize, slack: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: Vec<u64> = (0..objects).map(|_| rng.gen_range(20..400u64)).collect();
    let pairs: Vec<(usize, usize)> = (0..objects / 3)
        .map(|_| (rng.gen_range(0..objects), rng.gen_range(0..objects)))
        .filter(|(a, b)| a != b)
        .collect();
    let read = |obj: usize, rng: &mut StdRng| ObjectAccess {
        object: ObjectId(obj as u32),
        blocks: rng.gen_range(1..=sizes[obj]),
        rows: 1.0,
        kind: if rng.gen_range(0..8) == 0 {
            AccessKind::Write
        } else {
            AccessKind::SequentialRead
        },
    };
    let mut workload = Vec::new();
    for _ in 0..objects * 2 {
        let mut subs = Vec::new();
        for _ in 0..rng.gen_range(1..=2) {
            let accesses = if !pairs.is_empty() && rng.gen_range(0..3) == 0 {
                let (a, b) = pairs[rng.gen_range(0..pairs.len())];
                vec![read(a, &mut rng), read(b, &mut rng)]
            } else {
                let obj = rng.gen_range(0..objects);
                vec![read(obj, &mut rng)]
            };
            subs.push(Subplan {
                accesses,
                temp_write_blocks: 0,
                temp_read_blocks: 0,
            });
        }
        workload.push((subs, rng.gen_range(1..5u32) as f64));
    }
    let total: u64 = sizes.iter().sum();
    let capacity = (total as f64 / drives as f64 * slack).ceil() as u64;
    let disks = (0..drives)
        .map(|j| {
            let rate = [20.0, 20.0, 30.0, 15.0][j % 4];
            DiskSpec::new(&format!("D{}", j + 1), capacity, 8.0, rate, rate * 0.8)
        })
        .collect();
    Instance {
        sizes,
        workload,
        disks,
    }
}

/// One search's observable output.
struct Run {
    result: TsGreedyResult,
    trace: Vec<Record>,
    counts: CounterSnapshot,
}

fn search(inst: &Instance, cfg: &TsGreedyConfig) -> Run {
    let graph = build_access_graph_subplans(inst.sizes.len(), &inst.workload);
    let ring = Arc::new(RingSink::new(usize::MAX));
    let cfg = TsGreedyConfig {
        collector: Collector::deterministic(ring.clone()),
        ..cfg.clone()
    };
    let before = counters::snapshot();
    let result = ts_greedy(&inst.sizes, &graph, &inst.workload, &inst.disks, &cfg)
        .expect("the instance is feasible");
    let counts = counters::snapshot().delta(&before);
    Run {
        result,
        trace: ring.drain(),
        counts,
    }
}

fn layout_bits(l: &Layout) -> Vec<u64> {
    (0..l.object_count())
        .flat_map(|i| (0..l.disk_count()).map(move |j| (i, j)))
        .map(|(i, j)| l.fraction(i, j).to_bits())
        .collect()
}

fn jsonl(records: &[Record]) -> Vec<String> {
    records.iter().map(Record::to_jsonl).collect()
}

/// Runs `cfg` on the reference engine and on the default engine at 1 and
/// 2 threads (real fan-out), asserts every observable agrees, and returns
/// the default engine's run.
fn assert_engines_agree(inst: &Instance, cfg: &TsGreedyConfig, label: &str) -> Run {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let reference = search(
        inst,
        &TsGreedyConfig {
            full_reevaluation: true,
            threads: 1,
            ..cfg.clone()
        },
    );
    let memo = search(
        inst,
        &TsGreedyConfig {
            threads: 1,
            ..cfg.clone()
        },
    );
    let fanned = search(
        inst,
        &TsGreedyConfig {
            threads: 2,
            min_chunk: 0,
            ..cfg.clone()
        },
    );
    let fanned4 = search(
        inst,
        &TsGreedyConfig {
            threads: 4,
            min_chunk: 0,
            ..cfg.clone()
        },
    );
    assert!(
        reference.result.iterations >= 2,
        "{label}: the search adopted {} moves",
        reference.result.iterations
    );
    let want = jsonl(&reference.trace);
    for (engine, run) in [
        ("memo t1", &memo),
        ("memo t2", &fanned),
        ("memo t4", &fanned4),
    ] {
        let r = &run.result;
        let context = format!("{label}, {engine}");
        assert_eq!(
            layout_bits(&r.layout),
            layout_bits(&reference.result.layout),
            "{context}"
        );
        assert_eq!(
            r.final_cost.to_bits(),
            reference.result.final_cost.to_bits(),
            "{context}"
        );
        assert_eq!(
            r.initial_cost.to_bits(),
            reference.result.initial_cost.to_bits(),
            "{context}"
        );
        assert_eq!(r.iterations, reference.result.iterations, "{context}");
        assert_eq!(
            r.cost_evaluations, reference.result.cost_evaluations,
            "{context}"
        );
        let got = jsonl(&run.trace);
        assert_eq!(got.len(), want.len(), "{context}: trace length");
        for (line, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{context}: trace line {line}");
        }
        for c in [
            Counter::TsgreedyCandidatesEnumerated,
            Counter::TsgreedyCandidatesScored,
            Counter::TsgreedyCandidatesAdopted,
            Counter::TsgreedyValidityChecks,
        ] {
            assert_eq!(
                run.counts.get(c),
                reference.counts.get(c),
                "{context}: {}",
                c.name()
            );
        }
        // One re-cost per scored or adopted candidate plus the initial
        // costing: delta re-costs here, full re-costs on the reference.
        let recosts = |s: &CounterSnapshot| {
            s.get(Counter::CostmodelDeltaRecosts) + s.get(Counter::CostmodelFullRecosts)
        };
        assert_eq!(
            recosts(&run.counts),
            recosts(&reference.counts),
            "{context}"
        );
        assert_eq!(
            run.counts.get(Counter::CostmodelFullRecosts),
            1,
            "{context}"
        );
    }
    // Widening tables are filled before dispatch and chunks tally their
    // own terms, so the work counts cannot depend on the thread count.
    for c in [
        Counter::CostmodelSubplanRecosts,
        Counter::CostmodelDriveTerms,
    ] {
        for (engine, run) in [("t2", &fanned), ("t4", &fanned4)] {
            assert_eq!(
                memo.counts.get(c),
                run.counts.get(c),
                "{label}: {} differs at {engine}",
                c.name()
            );
        }
    }
    memo
}

/// Memoized candidates must dominate, or the oracle checks little: the
/// memo must re-cost under half the sub-plans that re-costing every
/// scored candidate's group (the memo-free count) would.
fn assert_memo_dominates(inst: &Instance, memo: &Run, label: &str) {
    let mut memo_free = 0;
    for rec in &memo.trace {
        if rec.name != "tsgreedy.candidate" || rec.field_f64("cost_ms").is_none() {
            continue;
        }
        let objects: Vec<usize> = ids(rec.field_str("objects"));
        memo_free += inst
            .workload
            .iter()
            .flat_map(|(subs, _)| subs)
            .filter(|sub| {
                sub.accesses
                    .iter()
                    .any(|a| objects.contains(&a.object.index()))
            })
            .count() as u64;
    }
    let recosts = memo.counts.get(Counter::CostmodelSubplanRecosts);
    assert!(
        recosts * 2 < memo_free,
        "{label}: the memo re-cost {recosts} of {memo_free} sub-plans"
    );
}

/// The ids of a comma-joined trace field.
fn ids(field: Option<&str>) -> Vec<usize> {
    field
        .unwrap_or("")
        .split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().expect("trace ids are integers"))
        .collect()
}

fn count(records: &[Record], name: &str, reason: Option<&str>) -> usize {
    records
        .iter()
        .filter(|r| r.name == name && (reason.is_none() || r.field_str("reason") == reason))
        .count()
}

#[test]
fn memo_matches_full_reevaluation_on_sparse_instances() {
    // (seed, objects, drives, k, adopted-move budget; 0 = converge)
    for (seed, objects, drives, k, budget) in [
        (1u64, 10, 16, 1, 0),
        (2, 12, 20, 1, 0),
        (3, 14, 64, 1, 24),
        (4, 10, 16, 2, 0),
        (5, 8, 32, 2, 12),
    ] {
        let inst = instance(seed, objects, drives, 8.0);
        let label = format!("seed {seed}, {objects} objects, {drives} drives, k={k}");
        let memo = assert_engines_agree(
            &inst,
            &TsGreedyConfig {
                k,
                max_iterations: budget,
                ..Default::default()
            },
            &label,
        );
        assert_memo_dominates(&inst, &memo, &label);
    }
}

/// Uniform drives: every fresh widening move of a group shares one table
/// class, and with every worker engaged (`min_chunk: 0`) the groups whose
/// moves the tables price straddle the chunk boundaries.
#[test]
fn widening_tables_agree_across_chunk_boundaries() {
    for (seed, k) in [(31u64, 1usize), (32, 2)] {
        let mut inst = instance(seed, 12, 20, 8.0);
        for d in &mut inst.disks {
            d.read_mb_s = 20.0;
            d.write_mb_s = 16.0;
        }
        let cfg = TsGreedyConfig {
            k,
            ..TsGreedyConfig::default()
        };
        let label = format!("uniform seed {seed}, k {k}");
        let memo = assert_engines_agree(&inst, &cfg, &label);
        let terms = memo.counts.get(Counter::CostmodelDriveTerms);
        let recosts = memo.counts.get(Counter::CostmodelSubplanRecosts);
        // A table prices a value from the at most `k` drives the move adds
        // (plus its share of the table's fill), the kernel from every
        // drive its sub-plan's objects occupy.
        assert!(
            terms > 0 && terms < recosts * (k as u64 + 1),
            "{label}: {terms} drive terms for {recosts} priced sub-plans"
        );
    }
}

#[test]
fn memo_matches_under_seeded_search() {
    for (seed, drives) in [(11u64, 16), (12, 32)] {
        let inst = instance(seed, 10, drives, 8.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut start = Layout::empty(inst.sizes.clone(), drives);
        for i in 0..inst.sizes.len() {
            let width = rng.gen_range(1..=4);
            let first = rng.gen_range(0..drives);
            let set: Vec<usize> = (0..width).map(|w| (first + 3 * w) % drives).collect();
            start.place_proportional(i, &set, &inst.disks);
        }
        let label = format!("seeded search, seed {seed}, {drives} drives");
        let memo = assert_engines_agree(
            &inst,
            &TsGreedyConfig {
                seed: Some(start),
                max_iterations: 30,
                ..Default::default()
            },
            &label,
        );
        assert!(
            memo.trace
                .iter()
                .any(|r| r.field_str("drop_disks").is_some()),
            "{label}: no narrow or swap move was enumerated"
        );
        assert_memo_dominates(&inst, &memo, &label);
    }
}

#[test]
fn memo_matches_under_pruned_widening() {
    for (seed, prune_width) in [(21u64, 3usize), (22, 4)] {
        let inst = instance(seed, 12, 16, 8.0);
        let label = format!("pruned search, seed {seed}, width {prune_width}");
        let memo = assert_engines_agree(
            &inst,
            &TsGreedyConfig {
                prune_width,
                ..Default::default()
            },
            &label,
        );
        assert!(
            count(&memo.trace, "tsgreedy.prune_dry", None) > 0,
            "{label}: no arbitration sweep ran"
        );
    }
}

#[test]
fn memo_matches_when_capacity_is_tight() {
    let mut fell_through = 0;
    for (seed, drives) in [(31u64, 16), (32, 20), (34, 24)] {
        let inst = instance(seed, 12, drives, 1.6);
        let label = format!("tight capacity, seed {seed}, {drives} drives");
        let memo = assert_engines_agree(&inst, &TsGreedyConfig::default(), &label);
        assert!(
            count(&memo.trace, "tsgreedy.candidate", Some("invalid_layout")) > 0,
            "{label}: no capacity rejection"
        );
        fell_through += fell_through_hits(&inst, &memo.result, &memo.trace);
    }
    assert!(
        fell_through > 0,
        "no memoized candidate fell through the headroom accept"
    );
}

#[test]
fn memo_matches_with_co_location_and_a_movement_bound() {
    for (seed, drives) in [(41u64, 16), (42, 32)] {
        let inst = instance(seed, 12, drives, 8.0);
        let co_located = Constraints::none()
            .co_locate(ObjectId(0), ObjectId(1))
            .co_locate(ObjectId(2), ObjectId(5))
            .co_locate(ObjectId(5), ObjectId(7));
        let label = format!("co-location, seed {seed}, {drives} drives");
        let memo = assert_engines_agree(
            &inst,
            &TsGreedyConfig {
                constraints: co_located.clone(),
                ..Default::default()
            },
            &label,
        );
        assert_memo_dominates(&inst, &memo, &label);
        // Bound movement from the co-located search's starting layout to
        // a third of the data: early moves fit, later ones break the
        // budget and are rejected as constraint violations.
        let budget = inst.sizes.iter().sum::<u64>() / 3;
        let bounded = co_located.bound_movement(memo.result.initial_layout.clone(), budget);
        let label = format!("movement bound, seed {seed}, {drives} drives");
        let memo = assert_engines_agree(
            &inst,
            &TsGreedyConfig {
                constraints: bounded,
                ..Default::default()
            },
            &label,
        );
        assert!(
            count(
                &memo.trace,
                "tsgreedy.candidate",
                Some("constraint_violation")
            ) > 0,
            "{label}: the bound rejected nothing"
        );
    }
}

/// Replays an unpruned search from its trace and counts the candidates
/// that were memo hits whose group did not fit the snapshot's smallest
/// per-drive headroom, so the hit took the exact capacity patch. In an
/// unpruned search a candidate is a hit exactly when it was costed in the
/// previous iteration and the move adopted since touched no sub-plan its
/// group reads.
fn fell_through_hits(inst: &Instance, result: &TsGreedyResult, records: &[Record]) -> usize {
    let key = |r: &Record| {
        format!(
            "{:?}/{:?}/{:?}",
            r.field_str("objects"),
            r.field_str("add_disks"),
            r.field_str("drop_disks")
        )
    };
    let mut layout = result.initial_layout.clone();
    let mut previous: BTreeSet<String> = BTreeSet::new();
    let mut costed: BTreeSet<String> = BTreeSet::new();
    let mut dirty: BTreeSet<usize> = BTreeSet::new();
    let mut hits = 0;
    for rec in records {
        match rec.name.as_str() {
            "tsgreedy.candidate" => {
                let objects = ids(rec.field_str("objects"));
                let k = key(rec);
                let clean = objects.iter().all(|i| !dirty.contains(i));
                if clean && previous.contains(&k) {
                    let headroom = layout
                        .disk_usage()
                        .iter()
                        .zip(&inst.disks)
                        .map(|(&used, d)| d.capacity_blocks.checked_sub(used))
                        .collect::<Option<Vec<u64>>>()
                        .and_then(|h| h.into_iter().min());
                    let blocks: u64 = objects.iter().map(|&i| inst.sizes[i]).sum();
                    if headroom.is_none_or(|h| blocks > h) {
                        hits += 1;
                    }
                }
                if rec.field_f64("cost_ms").is_some() {
                    costed.insert(k);
                }
            }
            "tsgreedy.adopt" => {
                let objects = ids(rec.field_str("objects"));
                // Every object sharing a sub-plan with a moved one.
                dirty = objects.iter().copied().collect();
                for (subs, _) in &inst.workload {
                    for sub in subs {
                        let reads = |i: usize| sub.accesses.iter().any(|a| a.object.index() == i);
                        if objects.iter().any(|&i| reads(i)) {
                            dirty.extend(sub.accesses.iter().map(|a| a.object.index()));
                        }
                    }
                }
                let drop = ids(rec.field_str("drop_disks"));
                let mut set: Vec<usize> = layout
                    .disks_of(objects[0])
                    .into_iter()
                    .filter(|j| !drop.contains(j))
                    .collect();
                set.extend(ids(rec.field_str("add_disks")));
                for &i in &objects {
                    layout.place_proportional(i, &set, &inst.disks);
                }
                previous = std::mem::take(&mut costed);
            }
            _ => {}
        }
    }
    assert_eq!(
        layout_bits(&layout),
        layout_bits(&result.layout),
        "trace replay diverged"
    );
    hits
}
