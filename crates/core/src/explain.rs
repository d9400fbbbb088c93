//! Renders a search trace into a human-readable narrative.
//!
//! `dblayout explain` records the whole Figure-3 pipeline (Analyze
//! Workload → TS-GREEDY → final costing) through a deterministic
//! [`Collector`](dblayout_obs::Collector) and feeds the records here. The
//! narrative names every greedy iteration's winning merge and its cost
//! delta — the audit trail that makes a layout recommendation reviewable —
//! and is byte-identical across runs for the same inputs (costs and the
//! search itself are deterministic, and the deterministic collector omits
//! wall-clock fields).

use dblayout_obs::{Record, RecordKind};

/// Names used to render object/disk ids; falls back to `obj<i>` / `d<i>`
/// past the end of a slice.
pub struct NarrativeNames<'a> {
    /// `objects[i]` names catalog object `i`.
    pub objects: &'a [String],
    /// `disks[j]` names drive `j`.
    pub disks: &'a [String],
}

impl NarrativeNames<'_> {
    fn object(&self, i: usize) -> String {
        match self.objects.get(i) {
            Some(n) => n.clone(),
            None => format!("obj{i}"),
        }
    }

    fn disk(&self, j: usize) -> String {
        match self.disks.get(j) {
            Some(n) => n.clone(),
            None => format!("d{j}"),
        }
    }

    fn object_list(&self, ids: &str) -> String {
        render_id_list(ids, |i| self.object(i))
    }

    fn disk_list(&self, ids: &str) -> String {
        render_id_list(ids, |j| self.disk(j))
    }
}

fn render_id_list(ids: &str, name: impl Fn(usize) -> String) -> String {
    let mut out = String::new();
    for part in ids.split(',').filter(|p| !p.is_empty()) {
        if !out.is_empty() {
            out.push_str(", ");
        }
        match part.parse::<usize>() {
            Ok(i) => out.push_str(&name(i)),
            Err(_) => out.push_str(part),
        }
    }
    out
}

fn ms(v: f64) -> String {
    format!("{v:.3}")
}

/// Renders the trace of one advisor run as a narrative. Records are
/// processed in `seq` order; unknown record names are ignored, so the
/// renderer tolerates traces richer than it understands.
pub fn render_narrative(records: &[Record], names: &NarrativeNames) -> String {
    let mut ordered: Vec<&Record> = records.iter().collect();
    ordered.sort_by_key(|r| r.seq);

    let mut out = String::new();
    let mut iter_open: Option<u64> = None; // current iteration span id
    let mut iter_no: u64 = 0;
    let mut candidates_seen: u64 = 0;
    let mut costed: u64 = 0;
    let mut subplan_no: u64 = 0;
    // Per open costmodel.subplan span: each disk's (id, transfer, seek).
    type DiskTerms = Vec<(u64, f64, f64)>;
    let mut subplan_terms: Vec<(u64, DiskTerms)> = Vec::new();

    for r in &ordered {
        match (r.kind, r.name.as_str()) {
            (RecordKind::SpanEnd, "graph.extend") => {
                let edges = r.field_u64("edges").unwrap_or(0);
                let weight = r.field_f64("total_edge_weight").unwrap_or(0.0);
                out.push_str(&format!(
                    "Analyze Workload: access graph has {edges} co-access edge(s), total edge weight {weight:.1}\n",
                ));
            }
            (RecordKind::SpanStart, "tsgreedy.search") => {
                out.push_str(&format!(
                    "TS-GREEDY: {} object(s) in {} co-location group(s) on {} disk(s), k={}\n",
                    r.field_u64("objects").unwrap_or(0),
                    r.field_u64("groups").unwrap_or(0),
                    r.field_u64("disks").unwrap_or(0),
                    r.field_u64("k").unwrap_or(0),
                ));
            }
            (RecordKind::Event, "tsgreedy.partition") => {
                out.push_str(&format!(
                    "Step 1 — minimize co-location: {} partition(s)\n",
                    r.field_u64("parts").unwrap_or(0),
                ));
            }
            (RecordKind::Event, "tsgreedy.assign") => {
                let merged = matches!(
                    r.field("merged"),
                    Some(dblayout_obs::FieldValue::Bool(true))
                );
                out.push_str(&format!(
                    "  partition {} [{}] ({} blocks) -> disks {{{}}}{}\n",
                    r.field_u64("partition").unwrap_or(0),
                    names.object_list(r.field_str("groups").unwrap_or("")),
                    r.field_u64("blocks").unwrap_or(0),
                    names.disk_list(r.field_str("disks").unwrap_or("")),
                    if merged {
                        " (merged: no disjoint disk set fits)"
                    } else {
                        ""
                    },
                ));
            }
            (RecordKind::Event, "tsgreedy.step1") => {
                out.push_str(&format!(
                    "  step-1 layout cost: {} ms\n",
                    ms(r.field_f64("cost_ms").unwrap_or(0.0)),
                ));
                out.push_str("Step 2 — grow I/O parallelism:\n");
            }
            (RecordKind::SpanStart, "tsgreedy.iteration") => {
                iter_open = Some(r.span);
                iter_no = r.field_u64("iter").unwrap_or(iter_no + 1);
                candidates_seen = 0;
                costed = 0;
            }
            (RecordKind::Event, "tsgreedy.candidate") if iter_open == Some(r.span) => {
                candidates_seen += 1;
                if r.field("cost_ms").is_some() {
                    costed += 1;
                }
            }
            (RecordKind::Event, "tsgreedy.adopt") => {
                let cost = r.field_f64("cost_ms").unwrap_or(0.0);
                let delta = r.field_f64("delta_ms").unwrap_or(0.0);
                out.push_str(&format!(
                    "  iteration {iter_no}: {candidates_seen} candidate(s) ({costed} costed) — adopt: widen [{}] onto {{{}}}, cost {} -> {} ms (delta {} ms)\n",
                    names.object_list(r.field_str("objects").unwrap_or("")),
                    names.disk_list(r.field_str("add_disks").unwrap_or("")),
                    ms(cost - delta),
                    ms(cost),
                    ms(delta),
                ));
            }
            (RecordKind::Event, "tsgreedy.no_move") => {
                out.push_str(&format!(
                    "  iteration {iter_no}: {candidates_seen} candidate(s) ({costed} costed) — no improving move; search stops\n",
                ));
            }
            (RecordKind::SpanEnd, "tsgreedy.iteration") => {
                iter_open = None;
            }
            (RecordKind::SpanEnd, "tsgreedy.search") => {
                out.push_str(&format!(
                    "Result: {} iteration(s), {} cost evaluation(s); cost {} -> {} ms\n",
                    r.field_u64("iterations").unwrap_or(0),
                    r.field_u64("cost_evaluations").unwrap_or(0),
                    ms(r.field_f64("initial_cost_ms").unwrap_or(0.0)),
                    ms(r.field_f64("final_cost_ms").unwrap_or(0.0)),
                ));
            }
            (RecordKind::SpanStart, "costmodel.subplan") => {
                if subplan_no == 0 {
                    out.push_str("Cost breakdown of the recommended layout (per sub-plan):\n");
                }
                subplan_no += 1;
                subplan_terms.push((r.span, Vec::new()));
            }
            (RecordKind::Event, "costmodel.disk") => {
                if let Some((_, terms)) = subplan_terms.iter_mut().find(|(span, _)| *span == r.span)
                {
                    terms.push((
                        r.field_u64("disk").unwrap_or(0),
                        r.field_f64("transfer_ms").unwrap_or(0.0),
                        r.field_f64("seek_ms").unwrap_or(0.0),
                    ));
                }
            }
            (RecordKind::SpanEnd, "costmodel.subplan") => {
                let pos = subplan_terms.iter().position(|(span, _)| *span == r.span);
                let terms = match pos {
                    Some(p) => subplan_terms.swap_remove(p).1,
                    None => Vec::new(),
                };
                let cost = r.field_f64("cost_ms").unwrap_or(0.0);
                let bottleneck = r.field("bottleneck_disk").and_then(|v| match v {
                    dblayout_obs::FieldValue::U64(j) => Some(*j),
                    _ => None,
                });
                match bottleneck.and_then(|j| {
                    terms.iter().find(|(disk, _, _)| *disk == j).copied()
                }) {
                    Some((j, transfer, seek)) => out.push_str(&format!(
                        "  sub-plan {subplan_no}: {} ms — bottleneck {} (transfer {} + seek {} ms)\n",
                        ms(cost),
                        names.disk(usize::try_from(j).unwrap_or(usize::MAX)),
                        ms(transfer),
                        ms(seek),
                    )),
                    None => out.push_str(&format!(
                        "  sub-plan {subplan_no}: {} ms\n",
                        ms(cost),
                    )),
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorConfig};
    use dblayout_catalog::tpch::tpch_catalog;
    use dblayout_disksim::paper_disks;
    use dblayout_obs::{Collector, RingSink};
    use std::sync::Arc;

    fn explain_run() -> (Vec<Record>, String) {
        let catalog = tpch_catalog(0.1);
        let disks = paper_disks();
        let ring = Arc::new(RingSink::new(usize::MAX));
        let collector = Collector::deterministic(ring.clone());
        let mut cfg = AdvisorConfig::default();
        cfg.search.collector = collector.clone();
        let advisor = Advisor::new(&catalog, &disks);
        let rec = advisor
            .recommend_sql(
                "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;",
                &cfg,
            )
            .unwrap();
        // The winning layout's costing walk, as the CLI does.
        let workload = crate::costmodel::decompose_workload(&rec.plans);
        cfg.search
            .cost_model
            .trace(&workload, &rec.layout, &disks, &collector, |_| {});
        let records = ring.drain();
        let object_names: Vec<String> = catalog.objects().iter().map(|o| o.name.clone()).collect();
        let disk_names: Vec<String> = (0..disks.len()).map(|j| format!("d{j}")).collect();
        let names = NarrativeNames {
            objects: &object_names,
            disks: &disk_names,
        };
        (records.clone(), render_narrative(&records, &names))
    }

    #[test]
    fn narrative_names_every_iterations_winning_merge() {
        let (records, narrative) = explain_run();
        let adopts = records
            .iter()
            .filter(|r| r.name == "tsgreedy.adopt")
            .count();
        assert!(adopts >= 1, "search adopted no move:\n{narrative}");
        for i in 1..=adopts {
            assert!(
                narrative.contains(&format!("iteration {i}: ")),
                "missing iteration {i} in:\n{narrative}"
            );
        }
        assert_eq!(
            narrative.matches("— adopt: widen [").count(),
            adopts,
            "{narrative}"
        );
        assert!(narrative.contains("delta"), "{narrative}");
        assert!(narrative.contains("lineitem"), "{narrative}");
        assert!(narrative.contains("no improving move"), "{narrative}");
        assert!(narrative.contains("Cost breakdown"), "{narrative}");
    }

    #[test]
    fn narrative_is_deterministic_across_runs() {
        let (r1, n1) = explain_run();
        let (r2, n2) = explain_run();
        assert_eq!(n1, n2);
        // The raw traces are identical too (deterministic collector).
        let l1: Vec<String> = r1.iter().map(|r| r.to_jsonl()).collect();
        let l2: Vec<String> = r2.iter().map(|r| r.to_jsonl()).collect();
        assert_eq!(l1, l2);
    }

    #[test]
    fn renderer_ignores_unknown_records() {
        let records = vec![Record {
            seq: 0,
            kind: RecordKind::Event,
            span: 0,
            parent: None,
            name: "future.thing".into(),
            fields: Vec::new(),
            elapsed_us: None,
        }];
        let names = NarrativeNames {
            objects: &[],
            disks: &[],
        };
        assert_eq!(render_narrative(&records, &names), "");
    }
}
