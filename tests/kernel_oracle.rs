//! Differential oracle for the Figure-7 cost kernel.
//!
//! The kernel visits only the drives a sub-plan's objects occupy (the
//! layout's occupancy index). The reference here is the dense loop it
//! replaced: every drive, every access, every object total. On seeded
//! random instances — heterogeneous drives (rates, seeks, availability
//! write penalties), read+write of one object in one sub-plan, multi-object
//! sub-plans (the seek term), rows with zero entries, `from_fractions`
//! rows, with and without tempdb I/O — every cost entry point must match
//! the reference bit for bit: sub-plan, statement and workload costs, the
//! traced path's per-disk events, and every `DeltaEvaluator` total. A
//! second property checks the occupancy index against a dense scan of the
//! fraction matrix after every `Layout` mutator.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dblayout_catalog::ObjectId;
use dblayout_core::costmodel::{CostModel, EvalScratch};
use dblayout_disksim::{Availability, DiskSpec, Layout};
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

/// Every `CostModel` entry point equals the dense reference.
fn check_model(model: &CostModel, workload: &[(Vec<Subplan>, f64)], l: &Layout, d: &[DiskSpec]) {
    for (s, (subs, _)) in workload.iter().enumerate() {
        for (p, sub) in subs.iter().enumerate() {
            let want = dense_subplan(model, sub, l, d).cost;
            assert_same_bits(model.subplan_cost(sub, l, d), want, &format!("sub {s}.{p}"));
        }
        assert_same_bits(
            model.statement_cost_subplans(subs, l, d),
            dense_statement(model, subs, l, d),
            &format!("statement {s}"),
        );
    }
    assert_same_bits(
        model.workload_cost_subplans(workload, l, d),
        dense_workload(model, workload, l, d),
        "workload",
    );
}

/// Every `DeltaEvaluator` total — base, full, moved, applied, rebased —
/// equals the dense reference on the layout it scores.
fn check_delta(
    rng: &mut StdRng,
    model: &CostModel,
    workload: &[(Vec<Subplan>, f64)],
    base: &Layout,
    disks: &[DiskSpec],
) {
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
        let delta = eval.evaluate_move(&trial, &moved);
        assert_same_bits(delta.total, want, &format!("evaluate_move, {context}"));
        eval.touched(&moved, &mut touched);
        values.clear();
        eval.recost_into(&trial, &touched, &mut values, &mut scratch);
        assert_same_bits(
            eval.fold(&touched, &values),
            want,
            &format!("fold, {context}"),
        );
        assert_same_bits(
            eval.evaluate_full(&trial).total,
            want,
            &format!("evaluate_full, {context}"),
        );
        assert_same_bits(
            eval.cost_of_full(&trial),
            want,
            &format!("cost_of_full, {context}"),
        );
        eval.apply(&delta);
        assert_same_bits(eval.total(), want, &format!("apply, {context}"));
        current = trial;
    }
    let other = random_layout(rng, base.object_sizes(), disks);
    eval.rebase(&other);
    assert_same_bits(
        eval.total(),
        dense_workload(model, workload, &other, disks),
        "rebase",
    );
}

/// The traced path emits the dense loop's per-disk terms, in ascending
/// disk order, and its bottleneck, and returns the same cost bits.
/// Returns how many of those terms carry a seek (`k > 1`).
fn check_traced(
    include_temp_io: bool,
    sub: &Subplan,
    layout: &Layout,
    disks: &[DiskSpec],
) -> usize {
    let ring = Arc::new(RingSink::new(usize::MAX));
    let traced = CostModel {
        include_temp_io,
        collector: Collector::deterministic(ring.clone()),
        ..CostModel::default()
    };
    let want = dense_subplan(&traced, sub, layout, disks);
    assert_same_bits(traced.subplan_cost(sub, layout, disks), want.cost, "traced");
    let records = ring.drain();
    let events: Vec<(usize, usize, u64, u64)> = records
        .iter()
        .filter(|r| r.name == "costmodel.disk")
        .map(|r| {
            (
                r.field_u64("disk").unwrap_or(u64::MAX) as usize,
                r.field_u64("objects").unwrap_or(u64::MAX) as usize,
                r.field_f64("transfer_ms").map_or(0, f64::to_bits),
                r.field_f64("seek_ms").map_or(0, f64::to_bits),
            )
        })
        .collect();
    let expected: Vec<(usize, usize, u64, u64)> = want
        .events
        .iter()
        .map(|&(j, k, t, s)| (j, k, t.to_bits(), s.to_bits()))
        .collect();
    assert_eq!(events, expected, "costmodel.disk events");
    let end = records
        .iter()
        .find(|r| r.kind == RecordKind::SpanEnd)
        .expect("sub-plan span closed");
    assert_eq!(
        end.field_f64("bottleneck_disk"),
        Some(want.bottleneck as f64),
        "bottleneck disk"
    );
    assert_eq!(
        end.field_f64("cost_ms").map(f64::to_bits),
        Some(want.cost.to_bits())
    );
    want.events.iter().filter(|&&(_, k, _, _)| k > 1).count()
}

#[test]
fn sparse_kernel_is_bit_identical_to_the_dense_oracle() {
    let mut seek_terms = 0;
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
        check_model(&model, &workload, &layout, &disks);
        check_delta(&mut rng, &model, &workload, &layout, &disks);
        for (subs, _) in &workload {
            for sub in subs {
                seek_terms += check_traced(model.include_temp_io, sub, &layout, &disks);
            }
        }
    }
    assert!(seek_terms > 0, "no drive ever held two accessed objects");
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
