//! Differential oracle for the Figure-7 cost kernel.
//!
//! The kernel visits only the drives a sub-plan's objects occupy (the
//! layout's occupancy index). The reference here is the dense loop it
//! replaced: every drive, every access, every object total. On seeded
//! random instances — heterogeneous drives (rates, seeks, availability
//! write penalties), read+write of one object in one sub-plan, multi-object
//! sub-plans (the seek term), rows with zero entries, `from_fractions`
//! rows, with and without tempdb I/O — every cost entry point must match
//! the reference bit for bit: the costing walk's sub-plan and statement
//! costs, per-disk events and visited terms, the workload cost, and every
//! `DeltaEvaluator` total (built, folded, adopted), and every fold lies
//! within its `FoldBracket` of `total + Δ`. A second property checks the occupancy index against a dense scan of the
//! fraction matrix after every `Layout` mutator. A third prices co-location
//! groups' widening moves through a `WideningTable` and checks every value
//! against the dense reference on the widened layout.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dblayout_catalog::ObjectId;
use dblayout_core::costmodel::{CostModel, EvalScratch, WideningTable};
use dblayout_disksim::{uniform_disks, Availability, DiskSpec, Layout};
use dblayout_obs::{Collector, RecordKind, RingSink};
use dblayout_planner::{AccessKind, ObjectAccess, Subplan};

/// Drive counts on both sides of the 64-drive bitset word boundaries.
const DISK_COUNTS: [usize; 10] = [1, 2, 3, 7, 8, 63, 64, 65, 100, 130];

/// Per-object block totals of a sub-plan, in first-access order.
fn object_totals(sub: &Subplan) -> Vec<(u32, u64)> {
    let mut totals: Vec<(u32, u64)> = Vec::new();
    for access in &sub.accesses {
        match totals.iter_mut().find(|(o, _)| *o == access.object.0) {
            Some((_, t)) => *t += access.blocks,
            None => totals.push((access.object.0, access.blocks)),
        }
    }
    totals
}

/// The reference: one drive's Figure-7 terms `(transfer_ms, seek_ms, k)`,
/// scanning every object total and every access.
fn dense_disk_term(
    sub: &Subplan,
    totals: &[(u32, u64)],
    layout: &Layout,
    j: usize,
    disk: &DiskSpec,
) -> (f64, f64, usize) {
    let mut k = 0usize;
    let mut min_share = f64::INFINITY;
    for &(obj, total_blocks) in totals {
        let x = layout.fraction(obj as usize, j);
        if x <= 0.0 || total_blocks == 0 {
            continue;
        }
        k += 1;
        min_share = min_share.min(x * total_blocks as f64);
    }
    let mut transfer = 0.0;
    for access in &sub.accesses {
        let x = layout.fraction(access.object.index(), j);
        if x <= 0.0 {
            continue;
        }
        let ms_per_block = if access.kind.is_read() {
            disk.read_ms_per_block()
        } else {
            disk.write_ms_per_block()
        };
        transfer += x * access.blocks as f64 * ms_per_block;
    }
    let seek = if k > 1 {
        k as f64 * disk.avg_seek_ms * min_share
    } else {
        0.0
    };
    (transfer, seek, k)
}

/// The reference sub-plan costing: the bottleneck over every drive, the
/// traced path's expected `(disk, k, transfer, seek)` events and its
/// bottleneck disk (`-1` for none or tempdb).
struct Dense {
    cost: f64,
    events: Vec<(usize, usize, f64, f64)>,
    bottleneck: i64,
}

fn dense_subplan(model: &CostModel, sub: &Subplan, layout: &Layout, disks: &[DiskSpec]) -> Dense {
    let totals = object_totals(sub);
    let mut cost = 0.0f64;
    let mut bottleneck = -1i64;
    let mut events = Vec::new();
    for (j, disk) in disks.iter().enumerate() {
        let (transfer, seek, k) = dense_disk_term(sub, &totals, layout, j, disk);
        if k > 0 {
            events.push((j, k, transfer, seek));
        }
        if transfer + seek > cost {
            bottleneck = j as i64;
        }
        cost = cost.max(transfer + seek);
    }
    if model.include_temp_io {
        let temp_ms = (sub.temp_write_blocks as f64) * model.tempdb.write_ms_per_block()
            + (sub.temp_read_blocks as f64) * model.tempdb.read_ms_per_block();
        if temp_ms > cost {
            bottleneck = -1;
        }
        cost = cost.max(temp_ms);
    }
    Dense {
        cost,
        events,
        bottleneck,
    }
}

fn dense_statement(model: &CostModel, subs: &[Subplan], layout: &Layout, d: &[DiskSpec]) -> f64 {
    subs.iter()
        .map(|s| dense_subplan(model, s, layout, d).cost)
        .sum()
}

fn dense_workload(
    model: &CostModel,
    workload: &[(Vec<Subplan>, f64)],
    layout: &Layout,
    disks: &[DiskSpec],
) -> f64 {
    workload
        .iter()
        .map(|(subs, w)| w * dense_statement(model, subs, layout, disks))
        .sum()
}

/// The kernel's skip test, literally: a drive is visited unless
/// `x <= 0.0` (so NaN is occupied).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn kernel_visits(x: f64) -> bool {
    !(x <= 0.0)
}

/// The occupancy index must equal a dense scan of every row.
fn assert_indexed(layout: &Layout, context: &str) {
    for i in 0..layout.object_count() {
        let dense: Vec<usize> = (0..layout.disk_count())
            .filter(|&j| kernel_visits(layout.fraction(i, j)))
            .collect();
        let indexed: Vec<usize> = layout.occupied(i).collect();
        assert_eq!(indexed, dense, "{context}: row {i}");
        assert_eq!(
            layout.occupancy(i).len(),
            layout.disk_count().div_ceil(64),
            "{context}: row {i} word count"
        );
    }
}

fn random_disks(rng: &mut StdRng, m: usize) -> Vec<DiskSpec> {
    const AVAIL: [Availability; 3] = [
        Availability::None,
        Availability::Parity,
        Availability::Mirroring,
    ];
    (0..m)
        .map(|j| {
            DiskSpec::new(
                &format!("D{j}"),
                10_000_000,
                rng.gen_range(2.0..15.0),
                rng.gen_range(5.0..40.0),
                rng.gen_range(4.0..30.0),
            )
            .with_avail(AVAIL[rng.gen_range(0..3usize)])
        })
        .collect()
}

fn access(object: usize, blocks: u64, kind: AccessKind) -> ObjectAccess {
    ObjectAccess {
        object: ObjectId(object as u32),
        blocks,
        rows: blocks as f64,
        kind,
    }
}

/// A sub-plan of 0–5 random accesses (some of zero blocks), sometimes with
/// a read and a write of one object, sometimes with tempdb spills.
fn random_subplan(rng: &mut StdRng, n: usize) -> Subplan {
    const KINDS: [AccessKind; 3] = [
        AccessKind::SequentialRead,
        AccessKind::RandomRead,
        AccessKind::Write,
    ];
    let mut sub = Subplan::default();
    for _ in 0..rng.gen_range(0..=5usize) {
        let blocks = if rng.gen_bool(0.1) {
            0
        } else {
            rng.gen_range(1..20_000u64)
        };
        sub.accesses.push(access(
            rng.gen_range(0..n),
            blocks,
            KINDS[rng.gen_range(0..3usize)],
        ));
    }
    if rng.gen_bool(0.3) {
        let object = rng.gen_range(0..n);
        sub.accesses.push(access(
            object,
            rng.gen_range(1..5_000u64),
            AccessKind::SequentialRead,
        ));
        sub.accesses.push(access(
            object,
            rng.gen_range(1..5_000u64),
            AccessKind::Write,
        ));
    }
    if rng.gen_bool(0.3) {
        sub.temp_write_blocks = rng.gen_range(1..3_000u64);
    }
    if rng.gen_bool(0.3) {
        sub.temp_read_blocks = rng.gen_range(1..3_000u64);
    }
    sub
}

fn random_workload(rng: &mut StdRng, n: usize) -> Vec<(Vec<Subplan>, f64)> {
    (0..rng.gen_range(1..=6usize))
        .map(|_| {
            let subs = (0..rng.gen_range(1..=4usize))
                .map(|_| random_subplan(rng, n))
                .collect();
            (subs, rng.gen_range(0.5..5.0))
        })
        .collect()
}

/// Random drive ids (repeats allowed), mostly a few, sometimes every drive.
fn random_drives(rng: &mut StdRng, m: usize) -> Vec<usize> {
    if rng.gen_bool(0.15) {
        return (0..m).collect();
    }
    (0..rng.gen_range(1..=m.min(6)))
        .map(|_| rng.gen_range(0..m))
        .collect()
}

/// Re-places `object` by `place` (random weights, some zero) or by
/// `place_proportional`.
fn replace_row(rng: &mut StdRng, layout: &mut Layout, object: usize, disks: &[DiskSpec]) {
    let ids = random_drives(rng, disks.len());
    if rng.gen_bool(0.5) {
        layout.place_proportional(object, &ids, disks);
    } else {
        let mut weights: Vec<(usize, f64)> = ids
            .iter()
            .map(|&j| {
                let w = if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(0.1..3.0)
                };
                (j, w)
            })
            .collect();
        if weights.iter().all(|&(_, w)| w <= 0.0) {
            weights[0].1 = 1.0;
        }
        layout.place(object, &weights);
    }
}

/// A raw fraction row as a deserialized layout may carry it: mostly zeros,
/// some positive shares, the odd negative zero, negative value or NaN.
fn random_raw_row(rng: &mut StdRng, m: usize) -> Vec<f64> {
    let mut row = vec![0.0; m];
    for _ in 0..rng.gen_range(0..=m.min(8)) {
        let j = rng.gen_range(0..m);
        row[j] = match rng.gen_range(0..20u32) {
            0 => -0.0,
            1 => -0.25,
            2 => f64::NAN,
            _ => rng.gen_range(0.01..1.0),
        };
    }
    row
}

fn random_layout(rng: &mut StdRng, sizes: &[u64], disks: &[DiskSpec]) -> Layout {
    let (n, m) = (sizes.len(), disks.len());
    match rng.gen_range(0..4u32) {
        0 => Layout::full_striping(sizes.to_vec(), disks),
        1 => {
            let rows = (0..n).map(|_| random_raw_row(rng, m)).collect();
            Layout::from_fractions(sizes.to_vec(), rows).expect("rectangular rows")
        }
        _ => {
            let mut layout = Layout::empty(sizes.to_vec(), m);
            for i in 0..n {
                // Leave the odd row all-zero (an unplaced object).
                if !rng.gen_bool(0.1) {
                    replace_row(rng, &mut layout, i, disks);
                }
            }
            layout
        }
    }
}

fn assert_same_bits(got: f64, want: f64, context: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{context}: {got} vs {want}");
}

/// Every `CostModel` entry point equals the dense reference: the workload
/// cost, and the costing walk's statement costs, each sub-plan span's cost
/// and bottleneck, and its per-disk events and visited terms — the dense
/// loop's, in ascending disk order. Returns how many of those terms carry
/// a seek (`k > 1`).
fn check_model(
    model: &CostModel,
    workload: &[(Vec<Subplan>, f64)],
    l: &Layout,
    d: &[DiskSpec],
) -> usize {
    assert_same_bits(
        model.workload_cost_subplans(workload, l, d),
        dense_workload(model, workload, l, d),
        "workload",
    );
    let ring = Arc::new(RingSink::new(usize::MAX));
    let collector = Collector::deterministic(ring.clone());
    let mut visited = Vec::new();
    let costs = model.trace(workload, l, d, &collector, |t| {
        visited.push((
            t.statement,
            t.disk,
            t.objects,
            t.transfer_ms.to_bits(),
            t.seek_ms.to_bits(),
        ))
    });
    let records = ring.drain();
    let (mut events, mut ends) = (Vec::new(), Vec::new());
    for r in &records {
        if r.name == "costmodel.disk" {
            events.push((
                r.field_u64("disk").unwrap_or(u64::MAX) as usize,
                r.field_u64("objects").unwrap_or(u64::MAX) as usize,
                r.field_f64("transfer_ms").map_or(0, f64::to_bits),
                r.field_f64("seek_ms").map_or(0, f64::to_bits),
            ));
        } else if r.kind == RecordKind::SpanEnd {
            ends.push(r);
        }
    }
    let (mut want_events, mut want_visited, mut seeks) = (Vec::new(), Vec::new(), 0);
    let mut sub_no = 0;
    assert_eq!(costs.len(), workload.len());
    for (s, (subs, _)) in workload.iter().enumerate() {
        assert_same_bits(
            costs[s],
            dense_statement(model, subs, l, d),
            &format!("statement {s}"),
        );
        for (p, sub) in subs.iter().enumerate() {
            let want = dense_subplan(model, sub, l, d);
            let end = ends.get(sub_no).expect("one span per sub-plan");
            sub_no += 1;
            let context = format!("sub {s}.{p}");
            let cost = end.field_f64("cost_ms").expect("span end carries cost_ms");
            assert_same_bits(cost, want.cost, &context);
            assert_eq!(
                end.field_f64("bottleneck_disk"),
                Some(want.bottleneck as f64),
                "{context}: bottleneck disk"
            );
            for &(j, k, t, sk) in &want.events {
                want_events.push((j, k, t.to_bits(), sk.to_bits()));
                want_visited.push((s, j, k, t.to_bits(), sk.to_bits()));
                seeks += usize::from(k > 1);
            }
        }
    }
    assert_eq!(ends.len(), sub_no, "one span per sub-plan");
    assert_eq!(events, want_events, "costmodel.disk events");
    assert_eq!(visited, want_visited, "visited terms");
    seeks
}

/// Every `DeltaEvaluator` total equals the dense reference on the layout
/// it scores: the ledger built on the base, each move's fold, the total
/// after adopting it (also a fresh ledger's on the trial), and a ledger
/// built on an unrelated layout. Each fold also lies within its bracket;
/// returns the largest `|fold − approx| / error` seen.
fn check_delta(
    rng: &mut StdRng,
    model: &CostModel,
    workload: &[(Vec<Subplan>, f64)],
    base: &Layout,
    disks: &[DiskSpec],
) -> f64 {
    let n = base.object_count();
    let mut eval = model.delta_evaluator(workload, base, disks);
    assert_same_bits(
        eval.total(),
        dense_workload(model, workload, base, disks),
        "evaluator base",
    );
    let mut scratch = EvalScratch::new();
    let (mut touched, mut values) = (Vec::new(), Vec::new());
    let mut current = base.clone();
    let mut worst = 0.0f64;
    for step in 0..4 {
        let mut trial = current.clone();
        let mut moved: Vec<usize> = (0..rng.gen_range(1..=n.min(3)))
            .map(|_| rng.gen_range(0..n))
            .collect();
        moved.sort_unstable();
        moved.dedup();
        for &i in &moved {
            replace_row(rng, &mut trial, i, disks);
        }
        let want = dense_workload(model, workload, &trial, disks);
        let context = format!("step {step}, moved {moved:?}");
        eval.touched(&moved, &mut touched);
        values.clear();
        eval.recost_into(&trial, &touched, &mut values, &mut scratch);
        let fold = eval.fold(&touched, &values);
        assert_same_bits(fold, want, &format!("fold, {context}"));
        // The fold bracket (DESIGN.md §7): the exact fold lies within
        // `total + Δ ± error`.
        let delta = eval.delta(&touched, &values);
        let bracket = eval
            .bracket(touched.len())
            .expect("weights and costs are finite and non-negative");
        let (gap, error) = ((fold - bracket.approx(delta)).abs(), bracket.error(delta));
        assert!(gap <= error, "bracket, {context}: gap {gap}, bound {error}");
        worst = worst.max(gap / error);
        eval.adopt(&touched, &values);
        assert_same_bits(eval.total(), want, &format!("adopt, {context}"));
        let fresh = model.delta_evaluator(workload, &trial, disks);
        assert_same_bits(
            eval.total(),
            fresh.total(),
            &format!("fresh ledger, {context}"),
        );
        current = trial;
    }
    let other = random_layout(rng, base.object_sizes(), disks);
    assert_same_bits(
        model.delta_evaluator(workload, &other, disks).total(),
        dense_workload(model, workload, &other, disks),
        "ledger on an unrelated layout",
    );
    worst
}

#[test]
fn sparse_kernel_is_bit_identical_to_the_dense_oracle() {
    let (mut seek_terms, mut worst) = (0, 0.0f64);
    for seed in 0..80u64 {
        let mut rng = StdRng::seed_from_u64(0x0F16_7000 + seed);
        let m = DISK_COUNTS[seed as usize % DISK_COUNTS.len()];
        let n = rng.gen_range(1..=12usize);
        let disks = random_disks(&mut rng, m);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..50_000u64)).collect();
        let workload = random_workload(&mut rng, n);
        let layout = random_layout(&mut rng, &sizes, &disks);
        assert_indexed(&layout, &format!("seed {seed}"));
        let model = CostModel {
            include_temp_io: rng.gen_bool(0.5),
            ..CostModel::default()
        };
        seek_terms += check_model(&model, &workload, &layout, &disks);
        worst = worst.max(check_delta(&mut rng, &model, &workload, &layout, &disks));
    }
    assert!(seek_terms > 0, "no drive ever held two accessed objects");
    eprintln!("fold bracket: largest |fold - approx| / error = {worst:.4}");
}

#[test]
fn occupancy_index_tracks_every_mutator() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x0CC0_0000 + seed);
        let m = DISK_COUNTS[seed as usize % DISK_COUNTS.len()];
        let n = rng.gen_range(1..=8usize);
        let disks = random_disks(&mut rng, m);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10_000u64)).collect();
        assert_indexed(&Layout::empty(sizes.clone(), m), "empty");
        assert_indexed(
            &Layout::full_striping(sizes.clone(), &disks),
            "full_striping",
        );
        let mut layout = random_layout(&mut rng, &sizes, &disks);
        assert_indexed(&layout, "random_layout");
        let donor = random_layout(&mut rng, &sizes, &disks);
        for op in 0..40 {
            let i = rng.gen_range(0..n);
            let name = match rng.gen_range(0..3u32) {
                0 => {
                    layout.copy_row_from(&donor, i);
                    "copy_row_from"
                }
                _ => {
                    replace_row(&mut rng, &mut layout, i, &disks);
                    "place/place_proportional"
                }
            };
            assert_indexed(&layout, &format!("seed {seed}, op {op} ({name})"));
        }
        // A clone carries the index with it.
        assert_indexed(&layout.clone(), "clone");
    }
}

/// Drives for the widening-table oracle: uniform, or heterogeneous with
/// read rates drawn from a few classes, so moves of one group share
/// proportional totals either way.
fn class_disks(rng: &mut StdRng, m: usize) -> Vec<DiskSpec> {
    if rng.gen_bool(0.4) {
        return uniform_disks(m, 10_000_000, 10.0, 20.0);
    }
    let mut disks = random_disks(rng, m);
    for d in &mut disks {
        d.read_mb_s = [10.0, 20.0, 35.0][rng.gen_range(0..3usize)];
    }
    disks
}

/// Every `k`-or-fewer subset of `items` (singles first), capped at `cap`
/// by sampling beyond it.
fn widening_adds(rng: &mut StdRng, items: &[usize], k: usize, cap: usize) -> Vec<Vec<usize>> {
    let mut adds: Vec<Vec<usize>> = items.iter().map(|&j| vec![j]).collect();
    if k >= 2 {
        for (a, &x) in items.iter().enumerate() {
            for &y in &items[a + 1..] {
                adds.push(vec![x, y]);
            }
        }
    }
    while adds.len() > cap {
        adds.swap_remove(rng.gen_range(0..adds.len()));
    }
    adds
}

#[test]
fn widening_table_prices_match_the_dense_oracle() {
    let (mut priced, mut shared_classes, mut seek_subs) = (0usize, 0usize, 0usize);
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0x7AB1_E000 + seed);
        let m = DISK_COUNTS[seed as usize % DISK_COUNTS.len()];
        let k = 1 + (seed as usize / DISK_COUNTS.len()) % 2;
        let n = rng.gen_range(2..=8usize);
        let disks = class_disks(&mut rng, m);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..50_000u64)).collect();
        let workload = random_workload(&mut rng, n);
        let mut layout = Layout::empty(sizes.clone(), m);
        for i in 0..n {
            let ids = random_drives(&mut rng, m);
            layout.place_proportional(i, &ids, &disks);
        }
        // A co-location group of one to three objects on one drive set.
        let mut members: Vec<usize> = (0..rng.gen_range(1..=3usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        members.sort_unstable();
        members.dedup();
        let ids = random_drives(&mut rng, m);
        for &i in &members {
            layout.place_proportional(i, &ids, &disks);
        }
        let drives = layout.disks_of(members[0]);
        let model = CostModel {
            include_temp_io: rng.gen_bool(0.5),
            ..CostModel::default()
        };
        let eval = model.delta_evaluator(&workload, &layout, &disks);
        let mut touched = Vec::new();
        eval.touched(&members, &mut touched);
        let outside: Vec<usize> = (0..m).filter(|j| !drives.contains(j)).collect();
        let mut adds = widening_adds(&mut rng, &outside, k, 48);
        // Moves that add a sub-plan's heaviest drives outside the group:
        // their price needs the table's next-largest outside term.
        for &(s, p) in &touched {
            let sub = &workload[s as usize].0[p as usize];
            let totals = object_totals(sub);
            let mut heavy: Vec<(f64, usize)> = outside
                .iter()
                .map(|&j| {
                    let (transfer, seek, _) = dense_disk_term(sub, &totals, &layout, j, &disks[j]);
                    (transfer + seek, j)
                })
                .collect();
            heavy.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for take in 1..=k.min(heavy.len()) {
                let mut add: Vec<usize> = heavy[..take].iter().map(|&(_, j)| j).collect();
                add.sort_unstable();
                if !adds.contains(&add) {
                    adds.push(add);
                }
            }
        }
        let mut table = WideningTable::default();
        table.reset(&members, &drives, &touched, k);
        let classes: Vec<usize> = adds.iter().map(|a| table.class_of(a, &disks)).collect();
        let mut probe = layout.clone();
        let mut scratch = EvalScratch::new();
        assert!(eval.fill_widening_table(&mut table, &layout, &mut probe, &mut scratch));
        assert_eq!(probe, layout, "seed {seed}: the probe is restored");
        shared_classes += adds.len() - classes.iter().max().map_or(0, |&c| c + 1);
        let (mut values, mut kernel) = (Vec::new(), Vec::new());
        for (add, &class) in adds.iter().zip(&classes) {
            let mut trial = layout.clone();
            let set: Vec<usize> = drives.iter().chain(add).copied().collect();
            for &i in &members {
                trial.place_proportional(i, &set, &disks);
            }
            values.clear();
            eval.price_widening(&table, class, add, &trial, &mut values, &mut scratch);
            kernel.clear();
            eval.recost_into(&trial, &touched, &mut kernel, &mut scratch);
            assert_eq!(values.len(), touched.len());
            for ((&(s, p), &got), &via_kernel) in touched.iter().zip(&values).zip(&kernel) {
                let sub = &workload[s as usize].0[p as usize];
                let want = dense_subplan(&model, sub, &trial, &disks);
                let context = format!("seed {seed}, m {m}, k {k}, add {add:?}, sub {s}.{p}");
                assert_same_bits(got, want.cost, &context);
                assert_same_bits(via_kernel, want.cost, &context);
                seek_subs += usize::from(want.events.iter().any(|&(_, k, _, _)| k > 1));
                priced += 1;
            }
        }
    }
    assert!(priced > 1_000, "only {priced} values priced");
    assert!(
        shared_classes > 0,
        "no two moves shared a proportional total"
    );
    assert!(seek_subs > 0, "no priced sub-plan carried a seek term");
}

/// Adding a drive can lower its term: a tiny member joining two large
/// co-accessed objects shrinks the seek term's min share. Here the move
/// adds the two drives with the largest base terms and both fall below
/// the third, so the price must come from the table's `(k + 1)`-th
/// outside term.
#[test]
fn widening_table_keeps_one_more_outside_term_than_a_move_adds() {
    let disks = uniform_disks(4, 10_000_000, 10.0, 20.0);
    let sub = Subplan {
        accesses: vec![
            access(1, 30_000, AccessKind::SequentialRead),
            access(2, 30_000, AccessKind::SequentialRead),
            access(0, 3, AccessKind::SequentialRead),
        ],
        ..Subplan::default()
    };
    let workload = vec![(vec![sub], 1.0)];
    let mut layout = Layout::empty(vec![3, 30_000, 30_000], 4);
    layout.place_proportional(0, &[0], &disks);
    layout.place(1, &[(1, 0.1), (2, 0.1), (3, 0.8)]);
    layout.place(2, &[(1, 0.5), (2, 0.5)]);
    let model = CostModel::default();
    let eval = model.delta_evaluator(&workload, &layout, &disks);
    let mut table = WideningTable::default();
    table.reset(&[0], &[0], &[(0, 0)], 2);
    let add = [1usize, 2];
    let class = table.class_of(&add, &disks);
    let mut probe = layout.clone();
    let mut scratch = EvalScratch::new();
    assert!(eval.fill_widening_table(&mut table, &layout, &mut probe, &mut scratch));
    let mut trial = layout.clone();
    trial.place_proportional(0, &[0, 1, 2], &disks);
    let totals = object_totals(&workload[0].0[0]);
    let term = |l: &Layout, j: usize| {
        let (transfer, seek, _) = dense_disk_term(&workload[0].0[0], &totals, l, j, &disks[j]);
        transfer + seek
    };
    // The premise: drives 1 and 2 lead before the move, trail drive 3 after.
    assert!(term(&layout, 1) > term(&layout, 3) && term(&trial, 1) < term(&trial, 3));
    let mut values = Vec::new();
    eval.price_widening(&table, class, &add, &trial, &mut values, &mut scratch);
    let want = dense_subplan(&model, &workload[0].0[0], &trial, &disks).cost;
    assert_same_bits(values[0], want, "seek-lowering move");
    assert_same_bits(values[0], term(&trial, 3), "drive 3 is the bottleneck");
}

#[test]
fn widening_table_refuses_a_group_off_its_drives() {
    let disks = uniform_disks(6, 10_000_000, 10.0, 20.0);
    let mut rng = StdRng::seed_from_u64(7);
    let workload = random_workload(&mut rng, 3);
    let mut layout = Layout::empty(vec![1_000, 2_000, 3_000], 6);
    layout.place_proportional(0, &[0, 1], &disks);
    layout.place_proportional(1, &[1, 2], &disks);
    layout.place_proportional(2, &[3], &disks);
    let model = CostModel::default();
    let eval = model.delta_evaluator(&workload, &layout, &disks);
    let mut touched = Vec::new();
    eval.touched(&[0, 1], &mut touched);
    // Object 1 occupies drive 2, outside the group's drives {0, 1}.
    let mut table = WideningTable::default();
    table.reset(&[0, 1], &[0, 1], &touched, 1);
    table.class_of(&[4], &disks);
    let mut probe = layout.clone();
    let mut scratch = EvalScratch::new();
    assert!(!eval.fill_widening_table(&mut table, &layout, &mut probe, &mut scratch));
}
