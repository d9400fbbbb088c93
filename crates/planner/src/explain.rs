//! Showplan-style plan rendering (the "no-execute" mode output of §4.2).

use std::fmt::Write as _;

use dblayout_sql::ast::{Expr, SelectItem};

use crate::physical::{PhysicalPlan, PlanNode};

/// Renders a plan as an indented operator tree followed by its non-blocking
/// sub-plan decomposition, e.g.:
///
/// ```text
/// MergeJoin [on l_orderkey=o_orderkey] rows=1323432
///   ClusteredRangeScan orders blocks=1251 rows=727500
///   TableScan lineitem blocks=10274 rows=6000000
/// -- non-blocking sub-plans --
/// S0: orders[1251] lineitem[10274]
/// ```
pub fn explain(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    render_node(&plan.root, 0, &mut out);
    out.push_str("-- non-blocking sub-plans --\n");
    for (i, sub) in plan.subplans().iter().enumerate() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "write! into a String is infallible; fmt::Error cannot occur"
        )]
        let _ = write!(out, "S{i}:");
        for a in &sub.accesses {
            let tag = match a.kind {
                crate::access::AccessKind::SequentialRead => "",
                crate::access::AccessKind::RandomRead => "~",
                crate::access::AccessKind::Write => "w",
            };
            #[expect(
                clippy::let_underscore_must_use,
                reason = "write! into a String is infallible; fmt::Error cannot occur"
            )]
            let _ = write!(out, " #{}{}[{}]", a.object.0, tag, a.blocks);
        }
        if sub.temp_write_blocks > 0 || sub.temp_read_blocks > 0 {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "write! into a String is infallible; fmt::Error cannot occur"
            )]
            let _ = write!(
                out,
                " temp[w{} r{}]",
                sub.temp_write_blocks, sub.temp_read_blocks
            );
        }
        out.push('\n');
    }
    out
}

fn render_node(node: &PlanNode, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let line = match node {
        PlanNode::TableScan {
            name, blocks, rows, ..
        } => {
            format!("TableScan {name} blocks={blocks} rows={rows:.0}")
        }
        PlanNode::ClusteredRangeScan {
            name, blocks, rows, ..
        } => {
            format!("ClusteredRangeScan {name} blocks={blocks} rows={rows:.0}")
        }
        PlanNode::Seek {
            name, blocks, rows, ..
        } => {
            format!("Seek {name} blocks={blocks} rows={rows:.0}")
        }
        PlanNode::IndexSeek {
            name, blocks, rows, ..
        } => {
            format!("IndexSeek {name} blocks={blocks} rows={rows:.0}")
        }
        PlanNode::RidLookup {
            name, blocks, rows, ..
        } => {
            format!("RidLookup {name} blocks={blocks} rows={rows:.0}")
        }
        PlanNode::Filter {
            predicate, rows, ..
        } => {
            format!("Filter [{predicate}] rows={rows:.0}")
        }
        PlanNode::NestedLoops { on, rows, .. } => {
            format!("NestedLoops [on {on}] rows={rows:.0}")
        }
        PlanNode::MergeJoin { on, rows, .. } => format!("MergeJoin [on {on}] rows={rows:.0}"),
        PlanNode::HashJoin {
            on,
            rows,
            spill_blocks,
            ..
        } => {
            if *spill_blocks > 0 {
                format!("HashJoin [on {on}] rows={rows:.0} spill={spill_blocks}")
            } else {
                format!("HashJoin [on {on}] rows={rows:.0}")
            }
        }
        PlanNode::Sort {
            by,
            rows,
            spill_blocks,
            ..
        } => {
            if *spill_blocks > 0 {
                format!("Sort [by {by}] rows={rows:.0} spill={spill_blocks}")
            } else {
                format!("Sort [by {by}] rows={rows:.0}")
            }
        }
        PlanNode::StreamAggregate { rows, .. } => format!("StreamAggregate rows={rows:.0}"),
        PlanNode::HashAggregate {
            rows, spill_blocks, ..
        } => {
            if *spill_blocks > 0 {
                format!("HashAggregate rows={rows:.0} spill={spill_blocks}")
            } else {
                format!("HashAggregate rows={rows:.0}")
            }
        }
        PlanNode::Top { n, rows, .. } => format!("Top {n} rows={rows:.0}"),
        PlanNode::Apply { rows, .. } => format!("Apply rows={rows:.0}"),
        PlanNode::Insert {
            name,
            write_blocks,
            rows,
            ..
        } => format!("Insert {name} write_blocks={write_blocks} rows={rows:.0}"),
        PlanNode::Update {
            name,
            write_blocks,
            rows,
            ..
        } => format!("Update {name} write_blocks={write_blocks} rows={rows:.0}"),
        PlanNode::Delete {
            name,
            write_blocks,
            rows,
            ..
        } => format!("Delete {name} write_blocks={write_blocks} rows={rows:.0}"),
    };
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writeln! into a String is infallible; fmt::Error cannot occur"
    )]
    let _ = writeln!(out, "{pad}{line}");
    for child in node.children() {
        render_node(child, depth + 1, out);
    }
}

/// Compact one-line rendering of an expression for Filter/Sort labels.
pub fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Literal(l) => l.to_string(),
        Expr::Binary { op, left, right } => {
            format!("{} {} {}", render_expr(left), op, render_expr(right))
        }
        Expr::Unary { op, expr } => match op {
            dblayout_sql::ast::UnaryOp::Not => format!("NOT ({})", render_expr(expr)),
            dblayout_sql::ast::UnaryOp::Neg => format!("-{}", render_expr(expr)),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "{}{} BETWEEN {} AND {}",
            render_expr(expr),
            if *negated { " NOT" } else { "" },
            render_expr(low),
            render_expr(high)
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => format!(
            "{}{} IN ({})",
            render_expr(expr),
            if *negated { " NOT" } else { "" },
            list.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::InSubquery { expr, negated, .. } => format!(
            "{}{} IN (<subquery>)",
            render_expr(expr),
            if *negated { " NOT" } else { "" }
        ),
        Expr::Exists { negated, .. } => {
            if *negated {
                "NOT EXISTS (<subquery>)".to_string()
            } else {
                "EXISTS (<subquery>)".to_string()
            }
        }
        Expr::ScalarSubquery(_) => "(<subquery>)".to_string(),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{}{} LIKE '{}'",
            render_expr(expr),
            if *negated { " NOT" } else { "" },
            pattern
        ),
        Expr::IsNull { expr, negated } => format!(
            "{} IS{} NULL",
            render_expr(expr),
            if *negated { " NOT" } else { "" }
        ),
        Expr::AggregateCall {
            func,
            arg,
            distinct,
        } => match arg {
            Some(a) => format!(
                "{func}({}{})",
                if *distinct { "DISTINCT " } else { "" },
                render_expr(a)
            ),
            None => format!("{func}(*)"),
        },
        Expr::Case { .. } => "CASE ...".to_string(),
    }
}

/// Renders a select item (used by tests and diagnostics).
pub fn render_select_item(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => format!("{} AS {a}", render_expr(expr)),
            None => render_expr(expr),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::ObjectId;
    use dblayout_sql::parse_statement;
    use dblayout_sql::Statement;

    #[test]
    fn explain_shows_tree_and_subplans() {
        let plan = PhysicalPlan::new(PlanNode::MergeJoin {
            on: "a=b".into(),
            rows: 10.0,
            left: Box::new(PlanNode::TableScan {
                object: ObjectId(0),
                name: "t0".into(),
                blocks: 100,
                rows: 1000.0,
            }),
            right: Box::new(PlanNode::TableScan {
                object: ObjectId(1),
                name: "t1".into(),
                blocks: 50,
                rows: 500.0,
            }),
        });
        let s = explain(&plan);
        assert!(s.contains("MergeJoin [on a=b]"));
        assert!(s.contains("  TableScan t0 blocks=100"));
        assert!(s.contains("S0: #0[100] #1[50]"));
    }

    #[test]
    fn render_expr_roundtrips_common_shapes() {
        let w = |sql: &str| match parse_statement(sql).unwrap() {
            Statement::Select(q) => q.where_clause.unwrap(),
            _ => unreachable!(),
        };
        assert_eq!(render_expr(&w("SELECT * FROM t WHERE a.x = 5")), "a.x = 5");
        assert_eq!(
            render_expr(&w("SELECT * FROM t WHERE a BETWEEN 1 AND 2")),
            "a BETWEEN 1 AND 2"
        );
        assert_eq!(
            render_expr(&w("SELECT * FROM t WHERE s LIKE 'x%'")),
            "s LIKE 'x%'"
        );
        assert_eq!(
            render_expr(&w("SELECT * FROM t WHERE a IN (1, 2)")),
            "a IN (1, 2)"
        );
        assert_eq!(
            render_expr(&w("SELECT * FROM t WHERE NOT a = 1")),
            "NOT (a = 1)"
        );
    }
}
