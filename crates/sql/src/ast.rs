//! Abstract syntax tree for the supported SQL DML subset.
//!
//! The tree is deliberately simple: the planner needs table references, join
//! predicates, filter selectivities, aggregation/ordering (which introduce
//! blocking operators in the physical plan), and write targets. Expression
//! *evaluation* is never required — the advisor never executes statements.

use std::fmt;

/// A literal constant value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String (also used for dates, e.g. `'1995-03-15'`).
    Str(String),
    /// SQL NULL.
    Null,
}

impl Literal {
    /// A rough numeric interpretation used by selectivity estimation: ints
    /// and floats map to their value, dates of the form `YYYY-MM-DD` map to a
    /// day ordinal, other strings hash into `[0, 1)` scaled by 1e6.
    pub fn numeric_value(&self) -> Option<f64> {
        match self {
            Literal::Int(i) => Some(*i as f64),
            Literal::Float(f) => Some(*f),
            Literal::Str(s) => parse_date_ordinal(s),
            Literal::Null => None,
        }
    }
}

/// Parses `YYYY-MM-DD` into a comparable day ordinal (days since 1900-01-01,
/// using 31-day months — exactness is irrelevant, only ordering matters).
pub fn parse_date_ordinal(s: &str) -> Option<f64> {
    let mut parts = s.splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: i64 = parts.next()?.parse().ok()?;
    let d: i64 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(((y - 1900) * 372 + (m - 1) * 31 + (d - 1)) as f64)
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinaryOp {
    /// True for `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::Neq
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `NOT`
    Not,
    /// unary `-`
    Neg,
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)` or `COUNT(expr)`
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Aggregate::Count => "COUNT",
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Min => "MIN",
            Aggregate::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified: `l_orderkey`, `lineitem.l_orderkey`.
    Column {
        /// Table name or alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal constant.
    Literal(Literal),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr BETWEEN low AND high` (or `NOT BETWEEN` when `negated`).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IN (lit, ...)` (or `NOT IN`).
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr IN (SELECT ...)` (or `NOT IN`).
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery.
        subquery: Box<Query>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `EXISTS (SELECT ...)` (or `NOT EXISTS`).
    Exists {
        /// The subquery.
        subquery: Box<Query>,
        /// True for `NOT EXISTS`.
        negated: bool,
    },
    /// A scalar subquery used as a value: `x = (SELECT ...)`.
    ScalarSubquery(Box<Query>),
    /// `expr LIKE 'pattern'` (or `NOT LIKE`).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// The pattern literal.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `expr IS NULL` (or `IS NOT NULL`).
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Aggregate call. `arg` is `None` for `COUNT(*)`.
    AggregateCall {
        /// Which aggregate.
        func: Aggregate,
        /// Argument, or `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// True for `COUNT(DISTINCT expr)` etc.
        distinct: bool,
    },
    /// `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`.
    Case {
        /// `(condition, value)` arms.
        arms: Vec<(Expr, Expr)>,
        /// `ELSE` value if present.
        else_value: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience constructor for a bare column.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Splits a conjunctive expression into its `AND`-connected conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Collects every column referenced anywhere in this expression,
    /// excluding columns referenced only inside subqueries (those belong to
    /// the subquery's own scope unless correlated — correlation is resolved
    /// by the planner).
    pub fn referenced_columns(&self) -> Vec<(&Option<String>, &str)> {
        let mut out = Vec::new();
        self.walk_columns(&mut |q, n| out.push((q, n)));
        out
    }

    fn walk_columns<'a>(&'a self, f: &mut impl FnMut(&'a Option<String>, &'a str)) {
        match self {
            Expr::Column { qualifier, name } => f(qualifier, name),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.walk_columns(f);
                right.walk_columns(f);
            }
            Expr::Unary { expr, .. } => expr.walk_columns(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk_columns(f);
                low.walk_columns(f);
                high.walk_columns(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_columns(f);
                for e in list {
                    e.walk_columns(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk_columns(f),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::Like { expr, .. } => expr.walk_columns(f),
            Expr::IsNull { expr, .. } => expr.walk_columns(f),
            Expr::AggregateCall { arg, .. } => {
                if let Some(a) = arg {
                    a.walk_columns(f);
                }
            }
            Expr::Case { arms, else_value } => {
                for (c, v) in arms {
                    c.walk_columns(f);
                    v.walk_columns(f);
                }
                if let Some(e) = else_value {
                    e.walk_columns(f);
                }
            }
        }
    }

    /// Collects the subqueries directly nested in this expression.
    pub fn subqueries(&self) -> Vec<&Query> {
        let mut out = Vec::new();
        self.walk_subqueries(&mut |q| out.push(q));
        out
    }

    fn walk_subqueries<'a>(&'a self, f: &mut impl FnMut(&'a Query)) {
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk_subqueries(f);
                right.walk_subqueries(f);
            }
            Expr::Unary { expr, .. } => expr.walk_subqueries(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk_subqueries(f);
                low.walk_subqueries(f);
                high.walk_subqueries(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_subqueries(f);
                for e in list {
                    e.walk_subqueries(f);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                expr.walk_subqueries(f);
                f(subquery);
            }
            Expr::Exists { subquery, .. } => f(subquery),
            Expr::ScalarSubquery(q) => f(q),
            Expr::Like { expr, .. } => expr.walk_subqueries(f),
            Expr::IsNull { expr, .. } => expr.walk_subqueries(f),
            Expr::AggregateCall { arg, .. } => {
                if let Some(a) = arg {
                    a.walk_subqueries(f);
                }
            }
            Expr::Case { arms, else_value } => {
                for (c, v) in arms {
                    c.walk_subqueries(f);
                    v.walk_subqueries(f);
                }
                if let Some(e) = else_value {
                    e.walk_subqueries(f);
                }
            }
            Expr::Column { .. } | Expr::Literal(_) => {}
        }
    }

    /// True if any aggregate call appears (outside subqueries).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::AggregateCall { .. } => true,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::Case { arms, else_value } => {
                arms.iter()
                    .any(|(c, v)| c.contains_aggregate() || v.contains_aggregate())
                    || else_value.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            _ => false,
        }
    }
}

/// One item in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// Join syntax kind (all treated as inner by the planner; outer joins affect
/// cardinality, not co-access structure, so the simplification is safe for
/// layout tuning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `JOIN` / `INNER JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    Left,
    /// `RIGHT [OUTER] JOIN`
    Right,
}

/// One element of a `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// A base table with an optional alias.
    Table {
        /// Table name as written.
        name: String,
        /// Alias, if any.
        alias: Option<String>,
    },
    /// An ANSI join between two from-items with an `ON` condition.
    Join {
        /// Join kind.
        kind: JoinKind,
        /// Left input.
        left: Box<FromItem>,
        /// Right input.
        right: Box<FromItem>,
        /// The `ON` predicate.
        on: Expr,
    },
}

impl FromItem {
    /// All `(table_name, binding_name)` pairs under this item, where the
    /// binding name is the alias if given, else the table name.
    pub fn bindings(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        self.collect_bindings(&mut out);
        out
    }

    fn collect_bindings<'a>(&'a self, out: &mut Vec<(&'a str, &'a str)>) {
        match self {
            FromItem::Table { name, alias } => {
                out.push((name.as_str(), alias.as_deref().unwrap_or(name.as_str())));
            }
            FromItem::Join { left, right, .. } => {
                left.collect_bindings(out);
                right.collect_bindings(out);
            }
        }
    }
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Ordered expression (usually a column or select alias).
    pub expr: Expr,
    /// False for `DESC`.
    pub ascending: bool,
}

/// A `SELECT` query block.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// `TOP n` row limit, if any.
    pub top: Option<u64>,
    /// Projected items.
    pub select: Vec<SelectItem>,
    /// `FROM` items (comma-separated roots; each may be a join tree).
    pub from: Vec<FromItem>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
}

impl Query {
    /// All `(table, binding)` pairs in this query block (not subqueries).
    pub fn bindings(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        for f in &self.from {
            f.collect_bindings(&mut out);
        }
        out
    }

    /// True when the query aggregates (explicit GROUP BY or aggregate in the
    /// select list / HAVING).
    pub fn is_aggregating(&self) -> bool {
        !self.group_by.is_empty()
            || self.select.iter().any(|s| match s {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            })
            || self.having.as_ref().is_some_and(|h| h.contains_aggregate())
    }
}

/// A SQL DML statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(Query),
    /// `INSERT INTO t [(cols)] VALUES (...), ...` or `INSERT INTO t SELECT ...`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, if any.
        columns: Vec<String>,
        /// Source: literal rows or a query.
        source: InsertSource,
    },
    /// `UPDATE t SET c = e, ... [WHERE p]`
    Update {
        /// Target table.
        table: String,
        /// `SET` assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE p]`
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
}

/// The source of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (...), (...)` rows.
    Values(Vec<Vec<Expr>>),
    /// `INSERT ... SELECT`.
    Query(Box<Query>),
}

impl Statement {
    /// True for `SELECT`.
    pub fn is_query(&self) -> bool {
        matches!(self, Statement::Select(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(Expr::col("a")),
                right: Box::new(Expr::col("b")),
            }),
            right: Box::new(Expr::col("c")),
        };
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn or_is_single_conjunct() {
        let e = Expr::Binary {
            op: BinaryOp::Or,
            left: Box::new(Expr::col("a")),
            right: Box::new(Expr::col("b")),
        };
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn referenced_columns_walks_everything() {
        let e = Expr::Between {
            expr: Box::new(Expr::Column {
                qualifier: Some("l".into()),
                name: "l_qty".into(),
            }),
            low: Box::new(Expr::Literal(Literal::Int(1))),
            high: Box::new(Expr::col("x")),
            negated: false,
        };
        let cols = e.referenced_columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].1, "l_qty");
    }

    #[test]
    fn date_ordinal_orders_correctly() {
        let a = parse_date_ordinal("1995-03-15").unwrap();
        let b = parse_date_ordinal("1995-03-16").unwrap();
        let c = parse_date_ordinal("1996-01-01").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn date_ordinal_rejects_garbage() {
        assert!(parse_date_ordinal("BUILDING").is_none());
        assert!(parse_date_ordinal("1995-13-01").is_none());
    }

    #[test]
    fn bindings_prefer_alias() {
        let f = FromItem::Table {
            name: "lineitem".into(),
            alias: Some("l1".into()),
        };
        assert_eq!(f.bindings(), vec![("lineitem", "l1")]);
    }

    #[test]
    fn aggregate_detection() {
        let q = Query {
            distinct: false,
            top: None,
            select: vec![SelectItem::Expr {
                expr: Expr::AggregateCall {
                    func: Aggregate::Count,
                    arg: None,
                    distinct: false,
                },
                alias: None,
            }],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
        };
        assert!(q.is_aggregating());
    }

    #[test]
    fn subqueries_collected_from_exists_and_in() {
        let inner = Query {
            distinct: false,
            top: None,
            select: vec![SelectItem::Wildcard],
            from: vec![FromItem::Table {
                name: "t".into(),
                alias: None,
            }],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
        };
        let e = Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(Expr::Exists {
                subquery: Box::new(inner.clone()),
                negated: false,
            }),
            right: Box::new(Expr::InSubquery {
                expr: Box::new(Expr::col("a")),
                subquery: Box::new(inner),
                negated: true,
            }),
        };
        assert_eq!(e.subqueries().len(), 2);
    }

    #[test]
    fn literal_display_escapes_quotes() {
        assert_eq!(Literal::Str("o'b".into()).to_string(), "'o''b'");
    }

    /// The planner reads a write's target table straight from the
    /// statement's `table` field.
    #[test]
    fn write_target() {
        let s = crate::parse_statement("DELETE FROM orders WHERE o_orderkey < 5").unwrap();
        assert!(matches!(s, Statement::Delete { table, .. } if table == "orders"));
    }
}
