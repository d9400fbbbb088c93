//! SALES-45: the 45-query analytics workload over the SALES-like catalog.
//!
//! Matches the paper's description (§7.1/§7.2): real-world sales analysis
//! where "the queries … reference 8 tables on average" and "the two largest
//! tables in the database \[are\] joined in almost all the queries".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mid-size tables joinable to `order_header` via `order_id`.
const ORDER_SATELLITES: &[&str] = &["shipment", "invoice", "payment"];

/// Generates the SALES-45 workload (45 queries, deterministic in `seed`).
pub fn sales45(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..45).map(|i| sales_query(&mut rng, i)).collect()
}

fn sales_query(rng: &mut StdRng, idx: usize) -> String {
    // ~42 of 45 queries join the two dominant tables.
    let core_join = idx % 15 != 14;
    let mut tables: Vec<String> = Vec::new();
    let mut preds: Vec<String> = Vec::new();

    if core_join {
        tables.push("order_header oh".into());
        tables.push("order_detail od".into());
        preds.push("od.order_id = oh.id".into());
    } else {
        tables.push("order_header oh".into());
    }

    // At most one satellite keyed off the order header; these merge into
    // the same order-ordered pipeline as the core join.
    if rng.gen_bool(0.3) {
        let sat = ORDER_SATELLITES[rng.gen_range(0..ORDER_SATELLITES.len())];
        tables.push(sat.to_string());
        preds.push(format!("{sat}.order_id = oh.id"));
    }
    // Product / account / contact lookups (FK joins preserve cardinality).
    if core_join && rng.gen_bool(0.6) {
        tables.push("product".into());
        preds.push("od.product_id = product.id".into());
    }
    if rng.gen_bool(0.6) {
        tables.push("account".into());
        preds.push("oh.account_id = account.id".into());
    }
    if rng.gen_bool(0.4) {
        tables.push("contact".into());
        preds.push("contact.account_id = oh.account_id".into());
    }
    // Small reference joins on the low-cardinality status code.
    for _ in 0..rng.gen_range(1..=3) {
        let r = rng.gen_range(1..=42);
        let rt = format!("ref_{r:02}");
        if tables.contains(&rt) {
            continue;
        }
        tables.push(rt.clone());
        preds.push(format!("oh.status_code = {rt}.id"));
    }

    // Weak time filter: analytics sweeps most of the history, keeping the
    // big merge join dominated by full scans (like the paper's DSS shape).
    let year = rng.gen_range(1998..=1999);
    preds.push(format!("oh.created >= '{year}-01-01'"));

    let measure = if core_join { "od.amount" } else { "oh.amount" };
    format!(
        "SELECT oh.status, SUM({measure}) AS total, COUNT(*) AS cnt FROM {} WHERE {} GROUP BY oh.status ORDER BY total DESC",
        tables.join(", "),
        preds.join(" AND ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_all;
    use dblayout_catalog::sales::sales_catalog;
    use dblayout_planner::plan_statement;

    #[test]
    fn forty_five_queries() {
        assert_eq!(sales45(1).len(), 45);
    }

    #[test]
    fn big_tables_joined_in_almost_all() {
        let qs = sales45(1);
        let with_both = qs
            .iter()
            .filter(|q| q.contains("order_header") && q.contains("order_detail"))
            .count();
        assert!(with_both >= 40, "only {with_both} of 45");
    }

    #[test]
    fn averages_several_tables_per_query() {
        let qs = sales45(1);
        let total_tables: usize = qs
            .iter()
            .map(|q| {
                let from = q.split(" FROM ").nth(1).unwrap();
                from.split(" WHERE ").next().unwrap().split(',').count()
            })
            .sum();
        let avg = total_tables as f64 / qs.len() as f64;
        assert!((4.0..9.0).contains(&avg), "avg tables/query = {avg}");
    }

    #[test]
    fn all_plan_against_sales_catalog() {
        let catalog = sales_catalog();
        for (i, q) in sales45(1).iter().enumerate() {
            let stmts = parse_all(std::slice::from_ref(q)).unwrap();
            plan_statement(&catalog, &stmts[0].0)
                .unwrap_or_else(|e| panic!("query {i} `{q}`: {e}"));
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(sales45(3), sales45(3));
    }
}
