//! Oracle for TS-GREEDY's step 2: the candidate memo, the ledger, the
//! widening tables and the incremental validity checks.
//!
//! The search keeps each candidate's re-costed sub-plan values across
//! iterations and re-costs a candidate only after its own group, or a
//! group sharing a sub-plan with it, moved. The naive reference
//! (`dblayout_integration::reference_step2`) keeps nothing: it clones,
//! validates and fully re-costs every candidate. On seeded instances where
//! memoized candidates dominate (at least 8 groups, sparse co-access,
//! 16–64 drives) the search at 1, 2 and 4 threads must agree with the
//! reference on layout bits, cost bits, iterations, cost evaluations,
//! every candidate and adoption event field for field, and the work
//! counts; the threads' deterministic traces must be byte-identical. The
//! instances cover `k = 2`, seeded searches (narrow and swap moves),
//! pruned widening with arbitration sweeps, capacity-tight drives where a
//! memoized candidate falls through the headroom accept, co-location
//! groups and a movement bound.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dblayout_catalog::ObjectId;
use dblayout_core::build_access_graph_subplans;
use dblayout_core::constraints::Constraints;
use dblayout_core::costmodel::decompose_workload;
use dblayout_core::tsgreedy::{ts_greedy, TsGreedyConfig, TsGreedyResult};
use dblayout_disksim::{uniform_disks, DiskSpec, Layout};
use dblayout_integration::{decision_events, reference_step2};
use dblayout_obs::counters::Counter;
use dblayout_obs::{Collector, Record, RingSink};
use dblayout_planner::{AccessKind, ObjectAccess, PhysicalPlan, PlanNode, Subplan};

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
}

fn search(inst: &Instance, cfg: &TsGreedyConfig) -> Run {
    let graph = build_access_graph_subplans(inst.sizes.len(), &inst.workload);
    let ring = Arc::new(RingSink::new(usize::MAX));
    let cfg = TsGreedyConfig {
        collector: Collector::deterministic(ring.clone()),
        ..cfg.clone()
    };
    let result = ts_greedy(&inst.sizes, &graph, &inst.workload, &inst.disks, &cfg)
        .expect("the instance is feasible");
    Run {
        result,
        trace: ring.drain(),
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

/// [`engines_agree`] on a search that adopts at least two moves.
fn assert_engines_agree(inst: &Instance, cfg: &TsGreedyConfig, label: &str) -> Run {
    let run = engines_agree(inst, cfg, label);
    assert!(
        run.result.iterations >= 2,
        "{label}: the search adopted {} moves",
        run.result.iterations
    );
    run
}

/// Runs `cfg` at 1, 2 and 4 threads (real fan-out) and the naive step-2
/// reference from the search's own starting layout, asserts every
/// observable agrees, and returns the 1-thread run.
fn engines_agree(inst: &Instance, cfg: &TsGreedyConfig, label: &str) -> Run {
    let at = |threads: usize| {
        search(
            inst,
            &TsGreedyConfig {
                threads,
                min_chunk: if threads == 1 { cfg.min_chunk } else { 0 },
                ..cfg.clone()
            },
        )
    };
    let runs = [at(1), at(2), at(4)];
    let reference = reference_step2(
        &inst.workload,
        &inst.disks,
        cfg,
        &runs[0].result.initial_layout,
    );
    let want_events = reference.decision_events();
    let want_trace = jsonl(&runs[0].trace);
    for (run, threads) in runs.iter().zip([1, 2, 4]) {
        let r = &run.result;
        let context = format!("{label}, t{threads}");
        assert_eq!(
            layout_bits(&r.layout),
            layout_bits(&reference.layout),
            "{context}"
        );
        assert_eq!(
            r.final_cost.to_bits(),
            reference.cost.to_bits(),
            "{context}"
        );
        assert_eq!(
            r.initial_cost.to_bits(),
            reference.initial_cost.to_bits(),
            "{context}"
        );
        assert_eq!(r.iterations, reference.iterations, "{context}");
        assert_eq!(r.cost_evaluations, reference.cost_evaluations, "{context}");
        let got = decision_events(&run.trace);
        assert_eq!(got.len(), want_events.len(), "{context}: event count");
        for (line, (g, w)) in got.iter().zip(&want_events).enumerate() {
            assert_eq!(g, w, "{context}: decision event {line}");
        }
        let got = jsonl(&run.trace);
        assert_eq!(got.len(), want_trace.len(), "{context}: trace length");
        for (line, (g, w)) in got.iter().zip(&want_trace).enumerate() {
            assert_eq!(g, w, "{context}: trace line {line}");
        }
        let adopted = reference.iterations as u64;
        for (c, want) in [
            (Counter::TsgreedyCandidatesEnumerated, reference.enumerated),
            (Counter::TsgreedyValidityChecks, reference.enumerated),
            (Counter::TsgreedyCandidatesScored, reference.scored),
            (Counter::TsgreedyCandidatesAdopted, adopted),
            // One ledger re-cost per scored or adopted candidate, one
            // full costing to build the ledger.
            (Counter::CostmodelDeltaRecosts, reference.scored + adopted),
            (Counter::CostmodelFullRecosts, 1),
        ] {
            assert_eq!(run.result.work.get(c), want, "{context}: {}", c.name());
        }
        // Widening tables are filled before dispatch and chunks tally
        // their own terms, so the work counts cannot depend on the thread
        // count.
        for c in [
            Counter::CostmodelSubplanRecosts,
            Counter::CostmodelDriveTerms,
        ] {
            assert_eq!(
                run.result.work.get(c),
                runs[0].result.work.get(c),
                "{context}: {}",
                c.name()
            );
        }
    }
    let [memo, ..] = runs;
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
    let recosts = memo.result.work.get(Counter::CostmodelSubplanRecosts);
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
        let terms = memo.result.work.get(Counter::CostmodelDriveTerms);
        let recosts = memo.result.work.get(Counter::CostmodelSubplanRecosts);
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

fn plan_instance(sizes: Vec<u64>, plans: &[(PhysicalPlan, f64)], disks: Vec<DiskSpec>) -> Instance {
    Instance {
        sizes,
        workload: decompose_workload(plans),
        disks,
    }
}

/// Two joins and a hot scan on six uniform drives: the search runs several
/// iterations, enough that chunking splits candidates.
#[test]
fn full_reevaluation_engine_is_bit_identical_to_incremental() {
    let plans = [
        (merge_join(0, 500, 1, 250), 4.0),
        (merge_join(2, 180, 3, 120), 2.0),
        (PhysicalPlan::new(scan(4, 90)), 1.0),
    ];
    let disks = uniform_disks(6, 100_000, 10.0, 20.0);
    let inst = plan_instance(vec![500, 250, 180, 120, 90], &plans, disks);
    assert_engines_agree(&inst, &TsGreedyConfig::default(), "joins and a scan");
}

/// Capacity-tight drives force `invalid_layout` rejections; the search's
/// incremental validity check — headroom accept or exact patched usage —
/// must classify every candidate exactly like the reference's
/// `Layout::validate`. The second fixture adds a small object, so within
/// one search the headroom accept both fires (the small group fits in
/// every drive's headroom) and falls through (the large groups do not,
/// and some of them are over capacity).
#[test]
fn engines_agree_on_capacity_rejections() {
    let fixtures = [
        (
            vec![300u64, 200],
            vec![
                (merge_join(0, 300, 1, 200), 2.0),
                (PhysicalPlan::new(scan(0, 300)), 1.0),
            ],
        ),
        (
            vec![300u64, 200, 4],
            vec![
                (merge_join(0, 300, 1, 200), 2.0),
                (PhysicalPlan::new(scan(0, 300)), 1.0),
                (PhysicalPlan::new(scan(2, 4)), 3.0),
            ],
        ),
    ];
    for (f, (sizes, plans)) in fixtures.into_iter().enumerate() {
        let inst = plan_instance(sizes, &plans, uniform_disks(4, 160, 10.0, 20.0));
        let label = format!("capacity fixture {f}");
        let run = engines_agree(&inst, &TsGreedyConfig::default(), &label);
        assert!(
            count(&run.trace, "tsgreedy.candidate", Some("invalid_layout")) > 0,
            "{label}: no capacity rejection"
        );
        if f == 1 {
            let (fired, fell_through) = headroom_outcomes(&inst, &run.result, &run.trace);
            assert!(fired > 0, "the headroom accept never fired");
            assert!(fell_through > 0, "the headroom accept never fell through");
        }
    }
}

/// Replays a search's iteration snapshots from its deterministic trace
/// (the step-1 layout, then each adopted move) and counts the candidates
/// whose group fits within the snapshot's smallest per-drive headroom
/// (`fired`) and those that do not (`fell_through`). A candidate the
/// accept passes must not be `invalid_layout`, and the replay must end on
/// the search's layout.
fn headroom_outcomes(
    inst: &Instance,
    result: &TsGreedyResult,
    records: &[Record],
) -> (usize, usize) {
    let mut layout = result.initial_layout.clone();
    let (mut fired, mut fell_through) = (0, 0);
    for rec in records {
        let objects = ids(rec.field_str("objects"));
        match rec.name.as_str() {
            "tsgreedy.candidate" => {
                let headroom = layout
                    .disk_usage()
                    .iter()
                    .zip(&inst.disks)
                    .map(|(&used, d)| d.capacity_blocks.checked_sub(used))
                    .collect::<Option<Vec<u64>>>()
                    .and_then(|h| h.into_iter().min());
                let blocks: u64 = objects.iter().map(|&i| inst.sizes[i]).sum();
                if headroom.is_some_and(|h| blocks <= h) {
                    fired += 1;
                    assert_ne!(rec.field_str("reason"), Some("invalid_layout"));
                } else {
                    fell_through += 1;
                }
            }
            "tsgreedy.adopt" => {
                let mut set = layout.disks_of(objects[0]);
                set.extend(ids(rec.field_str("add_disks")));
                for &i in &objects {
                    layout.place_proportional(i, &set, &inst.disks);
                }
            }
            _ => {}
        }
    }
    assert_eq!(
        layout_bits(&layout),
        layout_bits(&result.layout),
        "replay diverged"
    );
    (fired, fell_through)
}
