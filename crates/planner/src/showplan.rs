//! Showplan ingestion: parsing [`crate::explain`] output back into a
//! [`PhysicalPlan`].
//!
//! The paper's tool consumed plans produced *by the server* (§4.2's
//! "no-execute" mode) rather than planning queries itself. This module
//! restores that integration path: a plan rendered in the workspace's
//! explain format — by this library, by a test fixture, or by an external
//! tool translating a real server's showplan — round-trips into a
//! [`PhysicalPlan`] the advisor and simulator can consume directly.
//!
//! Only the operator tree section is parsed; the trailing
//! `-- non-blocking sub-plans --` summary (which is derived data) is
//! ignored if present.

use std::str::FromStr;

use dblayout_catalog::Catalog;

use crate::error::{PlanError, PlanResult};
use crate::physical::{PhysicalPlan, PlanNode};

/// Parses an explain-format plan against `catalog` (object names resolve
/// to catalog ids).
pub fn parse_explain(catalog: &Catalog, text: &str) -> PlanResult<PhysicalPlan> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .take_while(|l| !l.starts_with("-- non-blocking"))
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let indent = l.len() - l.trim_start().len();
            (indent / 2, l.trim())
        })
        .collect();
    if lines.is_empty() {
        return Err(PlanError::Unsupported("empty plan text".into()));
    }
    let mut pos = 0;
    let root = parse_node(catalog, &lines, &mut pos, 0)?;
    if pos != lines.len() {
        return Err(PlanError::Unsupported(format!(
            "trailing plan lines starting at `{}`",
            lines[pos].1
        )));
    }
    Ok(PhysicalPlan::new(root))
}

fn parse_node(
    catalog: &Catalog,
    lines: &[(usize, &str)],
    pos: &mut usize,
    depth: usize,
) -> PlanResult<PlanNode> {
    let Some(&(indent, line)) = lines.get(*pos) else {
        return Err(PlanError::Unsupported("unexpected end of plan".into()));
    };
    if indent != depth {
        return Err(PlanError::Unsupported(format!(
            "expected depth {depth} at `{line}`, found {indent}"
        )));
    }
    *pos += 1;
    let (op, rest) = line.split_once(' ').unwrap_or((line, ""));
    let child = |catalog: &Catalog, pos: &mut usize| parse_node(catalog, lines, pos, depth + 1);

    let node = match op {
        "TableScan" | "ClusteredRangeScan" | "Seek" | "IndexSeek" => {
            let (name, blocks, rows) = leaf_fields(catalog, rest, "blocks")?;
            let object = catalog
                .object_id(&name)
                .ok_or_else(|| PlanError::UnknownTable(name.clone()))?;
            match op {
                "TableScan" => PlanNode::TableScan {
                    object,
                    name,
                    blocks,
                    rows,
                },
                "ClusteredRangeScan" => PlanNode::ClusteredRangeScan {
                    object,
                    name,
                    blocks,
                    rows,
                },
                "Seek" => PlanNode::Seek {
                    object,
                    name,
                    blocks,
                    rows,
                },
                _ => PlanNode::IndexSeek {
                    object,
                    name,
                    blocks,
                    rows,
                },
            }
        }
        "RidLookup" => {
            let (name, blocks, rows) = leaf_fields(catalog, rest, "blocks")?;
            let object = catalog
                .object_id(&name)
                .ok_or_else(|| PlanError::UnknownTable(name.clone()))?;
            let inner = child(catalog, pos)?;
            PlanNode::RidLookup {
                object,
                name,
                blocks,
                rows,
                child: Box::new(inner),
            }
        }
        "Filter" => {
            let predicate = bracketed(rest)?;
            let rows = rows_field(rest)?;
            let inner = child(catalog, pos)?;
            PlanNode::Filter {
                predicate,
                rows,
                child: Box::new(inner),
            }
        }
        "NestedLoops" => {
            let on = bracketed(rest)?.trim_start_matches("on ").to_string();
            let rows = rows_field(rest)?;
            let outer = child(catalog, pos)?;
            let inner = child(catalog, pos)?;
            PlanNode::NestedLoops {
                on,
                rows,
                outer: Box::new(outer),
                inner: Box::new(inner),
            }
        }
        "MergeJoin" => {
            let on = bracketed(rest)?.trim_start_matches("on ").to_string();
            let rows = rows_field(rest)?;
            let left = child(catalog, pos)?;
            let right = child(catalog, pos)?;
            PlanNode::MergeJoin {
                on,
                rows,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        "HashJoin" => {
            let on = bracketed(rest)?.trim_start_matches("on ").to_string();
            let rows = rows_field(rest)?;
            let spill_blocks = spill_field(rest)?;
            let build = child(catalog, pos)?;
            let probe = child(catalog, pos)?;
            PlanNode::HashJoin {
                on,
                rows,
                build: Box::new(build),
                probe: Box::new(probe),
                spill_blocks,
            }
        }
        "Sort" => {
            let by = bracketed(rest)?.trim_start_matches("by ").to_string();
            let rows = rows_field(rest)?;
            let spill_blocks = spill_field(rest)?;
            let inner = child(catalog, pos)?;
            PlanNode::Sort {
                by,
                rows,
                spill_blocks,
                child: Box::new(inner),
            }
        }
        "StreamAggregate" => {
            let rows = rows_field(rest)?;
            let inner = child(catalog, pos)?;
            PlanNode::StreamAggregate {
                rows,
                child: Box::new(inner),
            }
        }
        "HashAggregate" => {
            let rows = rows_field(rest)?;
            let spill_blocks = spill_field(rest)?;
            let inner = child(catalog, pos)?;
            PlanNode::HashAggregate {
                rows,
                spill_blocks,
                child: Box::new(inner),
            }
        }
        "Top" => {
            let n: u64 = rest
                .split_whitespace()
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| PlanError::Unsupported(format!("bad Top line `{rest}`")))?;
            let rows = rows_field(rest)?;
            let inner = child(catalog, pos)?;
            PlanNode::Top {
                n,
                rows,
                child: Box::new(inner),
            }
        }
        "Apply" => {
            let rows = rows_field(rest)?;
            let sub = child(catalog, pos)?;
            let main = child(catalog, pos)?;
            PlanNode::Apply {
                rows,
                sub: Box::new(sub),
                main: Box::new(main),
            }
        }
        "Insert" | "Update" | "Delete" => {
            let (name, write_blocks, rows) = leaf_fields(catalog, rest, "write_blocks")?;
            let object = catalog
                .object_id(&name)
                .ok_or_else(|| PlanError::UnknownTable(name.clone()))?;
            match op {
                "Insert" => {
                    // A VALUES insert has no child; an INSERT..SELECT does.
                    // Disambiguate by whether a deeper line follows.
                    let has_child = lines.get(*pos).is_some_and(|&(d, _)| d == depth + 1);
                    let inner = if has_child {
                        Some(Box::new(child(catalog, pos)?))
                    } else {
                        None
                    };
                    PlanNode::Insert {
                        object,
                        name,
                        write_blocks,
                        rows,
                        child: inner,
                    }
                }
                "Update" => PlanNode::Update {
                    object,
                    name,
                    write_blocks,
                    rows,
                    child: Box::new(child(catalog, pos)?),
                },
                _ => PlanNode::Delete {
                    object,
                    name,
                    write_blocks,
                    rows,
                    child: Box::new(child(catalog, pos)?),
                },
            }
        }
        other => {
            return Err(PlanError::Unsupported(format!(
                "unknown plan operator `{other}`"
            )))
        }
    };
    Ok(node)
}

/// Extracts `name`, the block-count field and `rows=` from a leaf line like
/// `lineitem blocks=10274 rows=6000000`.
fn leaf_fields(_catalog: &Catalog, rest: &str, blocks_key: &str) -> PlanResult<(String, u64, f64)> {
    let name = rest
        .split_whitespace()
        .next()
        .ok_or_else(|| PlanError::Unsupported(format!("missing object name in `{rest}`")))?
        .to_string();
    let blocks = field(rest, blocks_key)?;
    let rows = rows_field(rest)?;
    Ok((name, blocks, rows))
}

/// Extracts `key=value` from a line, parsed as `T`. Counts parse as `u64`
/// (the renderer prints them as integers), so a negative, fractional or
/// out-of-range count is refused rather than truncated.
fn field<T: FromStr>(rest: &str, key: &str) -> PlanResult<T> {
    let marker = format!("{key}=");
    let value = rest
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&marker))
        .ok_or_else(|| PlanError::Unsupported(format!("missing `{key}=` in `{rest}`")))?;
    value
        .parse()
        .map_err(|_| PlanError::Unsupported(format!("malformed `{key}={value}` in `{rest}`")))
}

/// Extracts the `rows=` cardinality estimate: finite and non-negative.
fn rows_field(rest: &str) -> PlanResult<f64> {
    let rows: f64 = field(rest, "rows")?;
    if rows.is_finite() && rows >= 0.0 {
        Ok(rows)
    } else {
        Err(PlanError::Unsupported(format!(
            "malformed `rows={rows}` in `{rest}`"
        )))
    }
}

/// Extracts the optional `spill=` block count; an absent field means the
/// operator does not spill.
fn spill_field(rest: &str) -> PlanResult<u64> {
    if rest.split_whitespace().any(|tok| tok.starts_with("spill=")) {
        field(rest, "spill")
    } else {
        Ok(0)
    }
}

/// Extracts the `[...]` detail from an operator line.
fn bracketed(rest: &str) -> PlanResult<String> {
    let start = rest
        .find('[')
        .ok_or_else(|| PlanError::Unsupported(format!("missing `[` in `{rest}`")))?;
    let end = rest
        .rfind(']')
        .ok_or_else(|| PlanError::Unsupported(format!("missing `]` in `{rest}`")))?;
    Ok(rest[start + 1..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::explain;
    use crate::optimizer::plan_statement;
    use dblayout_catalog::tpch::tpch_catalog;
    use dblayout_sql::parse_statement;

    fn roundtrip(catalog: &Catalog, sql: &str) {
        let stmt = parse_statement(sql).unwrap();
        let plan = plan_statement(catalog, &stmt).unwrap();
        let text = explain(&plan);
        let reparsed = parse_explain(catalog, &text)
            .unwrap_or_else(|e| panic!("reparse of `{sql}` failed: {e}\n{text}"));
        // The operator tree must round-trip exactly (rows are rendered with
        // limited precision, so compare the derived I/O structure instead).
        assert_eq!(
            plan.subplans()
                .iter()
                .map(|s| (s.objects(), s.temp_write_blocks, s.temp_read_blocks))
                .collect::<Vec<_>>(),
            reparsed
                .subplans()
                .iter()
                .map(|s| (s.objects(), s.temp_write_blocks, s.temp_read_blocks))
                .collect::<Vec<_>>(),
            "{sql}"
        );
        assert_eq!(plan.total_io_blocks(), reparsed.total_io_blocks(), "{sql}");
        assert_eq!(explain(&reparsed), text, "{sql}");
    }

    #[test]
    fn roundtrips_query_shapes() {
        let catalog = tpch_catalog(0.1);
        for sql in [
            "SELECT COUNT(*) FROM lineitem",
            "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey",
            "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority",
            "SELECT * FROM lineitem ORDER BY l_extendedprice",
            "SELECT l_quantity FROM lineitem WHERE l_shipdate = '1995-06-17'",
            "SELECT COUNT(*) FROM customer, orders, lineitem \
             WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_mktsegment = 'BUILDING'",
            "SELECT COUNT(*) FROM orders WHERE EXISTS \
             (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey)",
        ] {
            roundtrip(&catalog, sql);
        }
    }

    #[test]
    fn roundtrips_dml() {
        let catalog = tpch_catalog(0.05);
        for sql in [
            "INSERT INTO nation (n_nationkey) VALUES (77)",
            "UPDATE orders SET o_orderstatus = 'F' WHERE o_orderkey < 100",
            "DELETE FROM lineitem WHERE l_shipdate < '1992-02-01'",
        ] {
            roundtrip(&catalog, sql);
        }
    }

    #[test]
    fn roundtrips_all_of_tpch22() {
        let catalog = tpch_catalog(1.0);
        for q in dblayout_workloads_stub::tpch22_texts() {
            roundtrip(&catalog, &q);
        }
    }

    /// Minimal inline stand-in so the planner crate need not depend on the
    /// workloads crate (which depends back on the planner): a few
    /// representative TPC-H queries exercising every operator.
    mod dblayout_workloads_stub {
        pub fn tpch22_texts() -> Vec<String> {
            vec![
                "SELECT l_returnflag, COUNT(*) FROM lineitem \
                 WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag ORDER BY l_returnflag"
                    .into(),
                "SELECT TOP 10 l_orderkey, SUM(l_extendedprice) AS revenue, o_orderdate \
                 FROM customer, orders, lineitem \
                 WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
                 AND l_orderkey = o_orderkey AND o_orderdate < '1995-03-15' \
                 GROUP BY l_orderkey, o_orderdate ORDER BY revenue DESC"
                    .into(),
                "SELECT SUM(l_extendedprice) / 7 FROM lineitem, part \
                 WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' \
                 AND l_quantity < (SELECT AVG(l2.l_quantity) * 0.2 FROM lineitem l2 \
                     WHERE l2.l_partkey = p_partkey)"
                    .into(),
            ]
        }
    }

    #[test]
    fn unknown_operator_rejected() {
        let catalog = tpch_catalog(0.01);
        assert!(matches!(
            parse_explain(&catalog, "QuantumScan foo blocks=1 rows=1"),
            Err(PlanError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_object_rejected() {
        let catalog = tpch_catalog(0.01);
        assert!(matches!(
            parse_explain(&catalog, "TableScan ghosts blocks=1 rows=1"),
            Err(PlanError::UnknownTable(_))
        ));
    }

    #[test]
    fn empty_text_rejected() {
        let catalog = tpch_catalog(0.01);
        assert!(parse_explain(&catalog, "").is_err());
        assert!(parse_explain(&catalog, "-- non-blocking sub-plans --\n").is_err());
    }

    #[test]
    fn subplan_summary_ignored() {
        let catalog = tpch_catalog(0.01);
        let plan = parse_explain(
            &catalog,
            "TableScan orders blocks=10 rows=100\n-- non-blocking sub-plans --\nS0: #6[10]\n",
        )
        .unwrap();
        assert_eq!(plan.subplans().len(), 1);
    }

    #[test]
    fn malformed_counts_rejected() {
        let catalog = tpch_catalog(0.01);
        for text in [
            "TableScan orders blocks=-5 rows=1",
            "TableScan orders blocks=1e30 rows=1",
            "TableScan orders blocks=NaN rows=1",
            "TableScan orders blocks=2.7 rows=1",
            "Sort [by o_orderdate] rows=1 spill=abc\n  TableScan orders blocks=1 rows=1",
            "Sort [by o_orderdate] rows=1 spill=-4\n  TableScan orders blocks=1 rows=1",
            "TableScan orders blocks=1 rows=-1",
            "TableScan orders blocks=1 rows=inf",
        ] {
            assert!(
                matches!(
                    parse_explain(&catalog, text),
                    Err(PlanError::Unsupported(_))
                ),
                "{text}"
            );
        }
        // An absent `spill=` still means no spill.
        let plan = parse_explain(
            &catalog,
            "Sort [by o_orderdate] rows=1\n  TableScan orders blocks=1 rows=1",
        )
        .unwrap();
        assert_eq!(plan.subplans().len(), 1);
    }

    #[test]
    fn malformed_indentation_rejected() {
        let catalog = tpch_catalog(0.01);
        let text = "MergeJoin [on x] rows=1\n    TableScan orders blocks=1 rows=1\n";
        assert!(parse_explain(&catalog, text).is_err());
    }
}
