//! Differential harness for `dblayout-par`: the parallel TS-GREEDY engine
//! must be **byte-identical** to the single-threaded search on every axis a
//! caller can observe — layout fractions, cost bits, search counters, the
//! deterministic cost trace, the rendered explain narrative, and the
//! deterministic work counts each search returns (`dblayout-prof`) —
//! across a seeded matrix of workloads × disk configurations × thread
//! counts. A small-instance oracle test additionally pins the parallel
//! engine to the same quality bound against exhaustive enumeration as the
//! sequential one.

use std::sync::Arc;

use dblayout_catalog::tpch::tpch_catalog;
use dblayout_catalog::ObjectId;
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_core::{
    build_access_graph, build_access_graph_subplans, exhaustive_search, render_narrative,
    ts_greedy, NarrativeNames, Partitioner, TsGreedyConfig, TsGreedyResult,
};
use dblayout_disksim::{paper_disks, uniform_disks, DiskSpec, Layout};
use dblayout_obs::{Collector, RingSink};
use dblayout_partition::MultilevelConfig;
use dblayout_planner::{plan_statement, PhysicalPlan, PlanNode, Subplan};
use dblayout_workloads::parse_all;
use dblayout_workloads::qgen::generate;
use dblayout_workloads::wkmega::{generate as generate_mega, MegaConfig};

/// Every placement fraction's bit pattern — byte-level layout identity.
fn layout_bits(l: &Layout) -> Vec<u64> {
    let mut bits = Vec::new();
    for i in 0..l.object_count() {
        for j in 0..l.disk_count() {
            bits.push(l.fraction(i, j).to_bits());
        }
    }
    bits
}

/// Everything a caller can observe from one search run, fully serialized
/// so the differential comparison is a single `assert_eq!`.
#[derive(Debug, PartialEq)]
struct Observed {
    layout: Vec<u64>,
    initial_cost: u64,
    final_cost: u64,
    iterations: usize,
    cost_evaluations: usize,
    trace: Vec<String>,
    narrative: String,
    /// The search's deterministic work counts (scheduling-class counters
    /// excluded) — the dblayout-prof fingerprint, which must not move
    /// with the thread count.
    work_counters: Vec<(&'static str, u64)>,
}

/// Runs TS-GREEDY at `threads` under a deterministic collector and captures
/// the full observable surface.
fn observe(
    sizes: &[u64],
    graph: &dblayout_partition::Graph,
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    threads: usize,
) -> Observed {
    observe_with(
        sizes,
        graph,
        workload,
        disks,
        TsGreedyConfig {
            threads,
            ..Default::default()
        },
    )
}

/// [`observe`] with a caller-supplied configuration (the collector is
/// overwritten with a deterministic ring).
fn observe_with(
    sizes: &[u64],
    graph: &dblayout_partition::Graph,
    workload: &[(Vec<Subplan>, f64)],
    disks: &[DiskSpec],
    cfg: TsGreedyConfig,
) -> Observed {
    let ring = Arc::new(RingSink::new(usize::MAX));
    let cfg = TsGreedyConfig {
        collector: Collector::deterministic(ring.clone()),
        ..cfg
    };
    let r: TsGreedyResult =
        ts_greedy(sizes, graph, workload, disks, &cfg).expect("search succeeds");
    let records = ring.drain();
    let names = NarrativeNames {
        objects: &[],
        disks: &[],
    };
    Observed {
        layout: layout_bits(&r.layout),
        initial_cost: r.initial_cost.to_bits(),
        final_cost: r.final_cost.to_bits(),
        iterations: r.iterations,
        cost_evaluations: r.cost_evaluations,
        trace: records.iter().map(|rec| rec.to_jsonl()).collect(),
        narrative: render_narrative(&records, &names),
        work_counters: r.work.deterministic_pairs(),
    }
}

/// The seeded differential matrix: {2 generated workloads} × {2 disk
/// configurations} × {threads 1, 2, 4, 8}. Thread count 1 is the reference;
/// every other count must reproduce its layout, cost bits, counters, trace
/// JSONL, and explain narrative byte for byte.
#[test]
fn seeded_matrix_is_byte_identical_across_thread_counts() {
    let catalog = tpch_catalog(0.1);
    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let disk_configs: Vec<(&str, Vec<DiskSpec>)> = vec![
        ("paper_disks", paper_disks()),
        ("uniform5", uniform_disks(5, 10_000_000, 10.0, 20.0)),
    ];
    for seed in [42u64, 1337] {
        let queries = generate(8, seed);
        let stmts = parse_all(&queries).expect("generated queries parse");
        let plans: Vec<(PhysicalPlan, f64)> = stmts
            .iter()
            .map(|(s, w)| (plan_statement(&catalog, s).expect("plans"), *w))
            .collect();
        let graph = build_access_graph(sizes.len(), &plans);
        let workload = decompose_workload(&plans);
        for (disk_name, disks) in &disk_configs {
            let reference = observe(&sizes, &graph, &workload, disks, 1);
            assert!(
                reference
                    .trace
                    .iter()
                    .any(|l| l.contains("tsgreedy.candidate")),
                "seed {seed} × {disk_name}: trace records no candidates"
            );
            assert!(
                reference
                    .work_counters
                    .iter()
                    .any(|&(name, v)| { name == "tsgreedy_candidates_enumerated" && v > 0 }),
                "seed {seed} × {disk_name}: search enumerated no counted candidates"
            );
            for threads in [2usize, 4, 8] {
                let got = observe(&sizes, &graph, &workload, disks, threads);
                assert_eq!(
                    got, reference,
                    "seed {seed} × {disk_name} × threads {threads} diverged"
                );
            }
        }
    }
}

/// The mega-family row of the matrix: a WK-MEGA instance driven through
/// the mega-scale configuration (multilevel step 1, pruned widening,
/// adaptive chunking) must stay byte-identical — layouts, cost bits,
/// search counters, trace, and deterministic work counters — across
/// thread counts {1, 2, 4, 8}, and across the chunking policy
/// (`min_chunk: 1` forces full fan-out; the adaptive default may collapse
/// small iterations to fewer workers — neither may move a bit).
#[test]
fn mega_family_row_is_byte_identical_across_thread_counts() {
    let instance = generate_mega(&MegaConfig::scaled(200, 10, 21));
    let graph = build_access_graph_subplans(instance.sizes.len(), &instance.workload);
    let mega_cfg = |threads: usize, min_chunk: usize| TsGreedyConfig {
        threads,
        min_chunk,
        partitioner: Partitioner::Multilevel(MultilevelConfig::default()),
        prune_width: 4,
        max_iterations: 10,
        ..Default::default()
    };
    let reference = observe_with(
        &instance.sizes,
        &graph,
        &instance.workload,
        &instance.disks,
        mega_cfg(1, 1),
    );
    assert!(reference.iterations >= 1, "mega search adopted no move");
    assert!(
        reference
            .trace
            .iter()
            .any(|l| l.contains("\"method\":\"multilevel\"")),
        "step 1 did not route through the multilevel partitioner"
    );
    for threads in [2usize, 4, 8] {
        for min_chunk in [1usize, 256] {
            let got = observe_with(
                &instance.sizes,
                &graph,
                &instance.workload,
                &instance.disks,
                mega_cfg(threads, min_chunk),
            );
            assert_eq!(
                got, reference,
                "mega row: threads {threads} × min_chunk {min_chunk} diverged"
            );
        }
    }
}

fn scan(obj: u32, blocks: u64) -> PlanNode {
    PlanNode::TableScan {
        object: ObjectId(obj),
        name: format!("t{obj}"),
        blocks,
        rows: blocks as f64,
    }
}

/// Small-instance oracle: on ≤4 objects × ≤3 disks the parallel search must
/// stay within the same bound of the exhaustive optimum as the sequential
/// search — at every thread count, with bit-identical results.
#[test]
fn small_instance_tracks_the_exhaustive_oracle() {
    let disks = uniform_disks(3, 100_000, 10.0, 20.0);
    let sizes = vec![240u64, 120, 60];
    let plans = vec![
        (
            PhysicalPlan::new(PlanNode::MergeJoin {
                on: "k".into(),
                rows: 1.0,
                left: Box::new(scan(0, 240)),
                right: Box::new(scan(1, 120)),
            }),
            2.0,
        ),
        (PhysicalPlan::new(scan(2, 60)), 1.0),
    ];
    let graph = build_access_graph(sizes.len(), &plans);
    let workload = decompose_workload(&plans);
    let model = CostModel::default();
    let (opt_layout, opt_cost) = exhaustive_search(&sizes, &workload, &disks, &model);
    opt_layout.validate(&disks).expect("oracle layout is valid");

    let mut final_costs = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let cfg = TsGreedyConfig {
            threads,
            ..Default::default()
        };
        let r = ts_greedy(&sizes, &graph, &workload, &disks, &cfg).expect("search succeeds");
        r.layout
            .validate(&disks)
            .expect("recommended layout is valid");
        assert!(
            r.final_cost <= opt_cost * 1.1 + 1e-9,
            "threads {threads}: {} exceeds 110% of the exhaustive optimum {opt_cost}",
            r.final_cost
        );
        final_costs.push(r.final_cost.to_bits());
    }
    assert!(
        final_costs.iter().all(|&b| b == final_costs[0]),
        "thread counts disagree on the final cost: {final_costs:?}"
    );
}
