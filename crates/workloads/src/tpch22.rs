//! The 22 TPC-H benchmark queries, expressed in the workspace SQL dialect.
//!
//! Queries follow the TPC-H specification's access structure (which tables
//! join with which, on which keys, under which selections) with the spec's
//! default substitution parameters. Three queries are flattened because the
//! dialect has no derived tables or views — the rewrites preserve the base
//! object access patterns, which is all the layout advisor consumes:
//!
//! * Q7/Q8/Q9's inline views are inlined into their outer joins;
//! * Q13's derived table becomes the inner aggregation query;
//! * Q15's `revenue` view becomes a `TOP 1 … ORDER BY revenue DESC`.

use crate::subst::{substitute_tables, suffix_map};

/// TPC-H table names, for substitution maps.
pub const TPCH_TABLES: [&str; 8] = [
    "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
];

/// The full 22-query workload (the paper's TPCH-22).
pub fn tpch22() -> Vec<String> {
    (1..=22).map(tpch_query).collect()
}

/// The TPCH-88-N workloads of Figure 12: 88 queries (four passes over the
/// 22 templates), each with its table names replaced by a randomly chosen
/// copy out of `n` (deterministic in `seed`).
pub fn tpch88_n(n: usize, seed: u64) -> Vec<String> {
    assert!(n >= 1);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut out = Vec::with_capacity(88);
    for pass in 0..4 {
        for q in 1..=22 {
            let copy = (next() as usize % n) + 1;
            let map = suffix_map(&TPCH_TABLES, &format!("_{copy}"));
            let _ = pass;
            out.push(substitute_tables(&tpch_query(q), &map));
        }
    }
    out
}

/// One TPC-H query by number (1-22).
///
/// # Panics
/// Panics if `n` is outside 1..=22.
pub fn tpch_query(n: usize) -> String {
    let q = match n {
        1 => {
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
             SUM(l_extendedprice) AS sum_base_price, \
             SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
             AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order \
             FROM lineitem \
             WHERE l_shipdate <= '1998-09-02' \
             GROUP BY l_returnflag, l_linestatus \
             ORDER BY l_returnflag, l_linestatus"
        }
        2 => {
            "SELECT TOP 100 s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone \
             FROM part, supplier, partsupp, nation, region \
             WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey \
             AND p_size = 15 AND p_type LIKE '%BRASS' \
             AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
             AND r_name = 'EUROPE' \
             AND ps_supplycost = (SELECT MIN(ps_supplycost) \
                 FROM partsupp, supplier, nation, region \
                 WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey \
                 AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                 AND r_name = 'EUROPE') \
             ORDER BY s_acctbal DESC, n_name, s_name, p_partkey"
        }
        3 => {
            "SELECT TOP 10 l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
             o_orderdate, o_shippriority \
             FROM customer, orders, lineitem \
             WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
             AND l_orderkey = o_orderkey \
             AND o_orderdate < '1995-03-15' AND l_shipdate > '1995-03-15' \
             GROUP BY l_orderkey, o_orderdate, o_shippriority \
             ORDER BY revenue DESC, o_orderdate"
        }
        4 => {
            "SELECT o_orderpriority, COUNT(*) AS order_count \
             FROM orders \
             WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01' \
             AND EXISTS (SELECT * FROM lineitem \
                 WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate) \
             GROUP BY o_orderpriority \
             ORDER BY o_orderpriority"
        }
        5 => {
            "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM customer, orders, lineitem, supplier, nation, region \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
             AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
             AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
             AND r_name = 'ASIA' \
             AND o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01' \
             GROUP BY n_name \
             ORDER BY revenue DESC"
        }
        6 => {
            "SELECT SUM(l_extendedprice * l_discount) AS revenue \
             FROM lineitem \
             WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
             AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
        }
        7 => {
            "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, \
             SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM supplier, lineitem, orders, customer, nation n1, nation n2 \
             WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey \
             AND c_custkey = o_custkey \
             AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey \
             AND (n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY' \
                  OR n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE') \
             AND l_shipdate BETWEEN '1995-01-01' AND '1996-12-31' \
             GROUP BY n1.n_name, n2.n_name \
             ORDER BY supp_nation, cust_nation"
        }
        8 => {
            "SELECT SUM(l_extendedprice * (1 - l_discount)) AS mkt_share \
             FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
             WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey \
             AND l_orderkey = o_orderkey AND o_custkey = c_custkey \
             AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey \
             AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey \
             AND o_orderdate BETWEEN '1995-01-01' AND '1996-12-31' \
             AND p_type = 'ECONOMY ANODIZED STEEL'"
        }
        9 => {
            "SELECT n_name, SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS sum_profit \
             FROM part, supplier, lineitem, partsupp, orders, nation \
             WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey \
             AND ps_partkey = l_partkey AND p_partkey = l_partkey \
             AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
             AND p_name LIKE '%green%' \
             GROUP BY n_name \
             ORDER BY n_name"
        }
        10 => {
            "SELECT TOP 20 c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
             c_acctbal, n_name, c_address, c_phone \
             FROM customer, orders, lineitem, nation \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
             AND o_orderdate >= '1993-10-01' AND o_orderdate < '1994-01-01' \
             AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
             GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address \
             ORDER BY revenue DESC"
        }
        11 => {
            "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
             FROM partsupp, supplier, nation \
             WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
             AND n_name = 'GERMANY' \
             GROUP BY ps_partkey \
             HAVING SUM(ps_supplycost * ps_availqty) > (SELECT SUM(ps_supplycost * ps_availqty) * 0.0001 \
                 FROM partsupp, supplier, nation \
                 WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
                 AND n_name = 'GERMANY') \
             ORDER BY value DESC"
        }
        12 => {
            "SELECT l_shipmode, \
             SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, \
             SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count \
             FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP') \
             AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate \
             AND l_receiptdate >= '1994-01-01' AND l_receiptdate < '1995-01-01' \
             GROUP BY l_shipmode \
             ORDER BY l_shipmode"
        }
        13 => {
            "SELECT c_custkey, COUNT(*) AS c_count \
             FROM customer LEFT OUTER JOIN orders \
             ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%' \
             GROUP BY c_custkey \
             ORDER BY c_count DESC"
        }
        14 => {
            "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) \
             / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue \
             FROM lineitem, part \
             WHERE l_partkey = p_partkey \
             AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'"
        }
        15 => {
            "SELECT TOP 1 s_suppkey, s_name, s_address, s_phone, \
             SUM(l_extendedprice * (1 - l_discount)) AS total_revenue \
             FROM supplier, lineitem \
             WHERE s_suppkey = l_suppkey \
             AND l_shipdate >= '1996-01-01' AND l_shipdate < '1996-04-01' \
             GROUP BY s_suppkey, s_name, s_address, s_phone \
             ORDER BY total_revenue DESC"
        }
        16 => {
            "SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt \
             FROM partsupp, part \
             WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45' \
             AND p_type NOT LIKE 'MEDIUM POLISHED%' \
             AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9) \
             AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier \
                 WHERE s_comment LIKE '%Customer%Complaints%') \
             GROUP BY p_brand, p_type, p_size \
             ORDER BY supplier_cnt DESC, p_brand"
        }
        17 => {
            "SELECT SUM(l_extendedprice) / 7 AS avg_yearly \
             FROM lineitem, part \
             WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' \
             AND p_container = 'MED BOX' \
             AND l_quantity < (SELECT AVG(l2.l_quantity) * 0.2 FROM lineitem l2 \
                 WHERE l2.l_partkey = p_partkey)"
        }
        18 => {
            "SELECT TOP 100 c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, \
             SUM(l_quantity) AS total_qty \
             FROM customer, orders, lineitem \
             WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem \
                 GROUP BY l_orderkey HAVING SUM(l_quantity) > 300) \
             AND c_custkey = o_custkey AND o_orderkey = l_orderkey \
             GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
             ORDER BY o_totalprice DESC, o_orderdate"
        }
        19 => {
            "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM lineitem, part \
             WHERE p_partkey = l_partkey \
             AND (p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
                  AND l_quantity BETWEEN 1 AND 11 \
                  OR p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
                  AND l_quantity BETWEEN 10 AND 20 \
                  OR p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') \
                  AND l_quantity BETWEEN 20 AND 30)"
        }
        20 => {
            "SELECT s_name, s_address \
             FROM supplier, nation \
             WHERE s_suppkey IN (SELECT ps_suppkey FROM partsupp \
                 WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'forest%') \
                 AND ps_availqty > (SELECT SUM(l_quantity) * 0.5 FROM lineitem \
                     WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey \
                     AND l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01')) \
             AND s_nationkey = n_nationkey AND n_name = 'CANADA' \
             ORDER BY s_name"
        }
        21 => {
            "SELECT TOP 100 s_name, COUNT(*) AS numwait \
             FROM supplier, lineitem l1, orders, nation \
             WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey \
             AND o_orderstatus = 'F' AND l1.l_receiptdate > l1.l_commitdate \
             AND EXISTS (SELECT * FROM lineitem l2 \
                 WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_suppkey <> l1.l_suppkey) \
             AND NOT EXISTS (SELECT * FROM lineitem l3 \
                 WHERE l3.l_orderkey = l1.l_orderkey AND l3.l_suppkey <> l1.l_suppkey \
                 AND l3.l_receiptdate > l3.l_commitdate) \
             AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA' \
             GROUP BY s_name \
             ORDER BY numwait DESC"
        }
        22 => {
            "SELECT c_phone, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal \
             FROM customer \
             WHERE SUBSTRING(c_phone FROM 1 FOR 2) IN ('13', '31', '23', '29', '30', '18', '17') \
             AND c_acctbal > (SELECT AVG(c2.c_acctbal) FROM customer c2 WHERE c2.c_acctbal > 0.00) \
             AND NOT EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey) \
             GROUP BY c_phone \
             ORDER BY c_phone"
        }
        other => panic!("TPC-H has queries 1..=22, got {other}"),
    };
    q.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_all;
    use dblayout_catalog::tpch::{replicate_tpch, tpch_catalog};
    use dblayout_planner::plan_statement;

    #[test]
    fn all_22_parse() {
        let stmts = parse_all(&tpch22()).unwrap();
        assert_eq!(stmts.len(), 22);
    }

    #[test]
    fn all_22_plan_against_tpch_catalog() {
        let catalog = tpch_catalog(1.0);
        for (i, (stmt, _)) in parse_all(&tpch22()).unwrap().iter().enumerate() {
            plan_statement(&catalog, stmt)
                .unwrap_or_else(|e| panic!("Q{} failed to plan: {e}", i + 1));
        }
    }

    #[test]
    fn q3_and_q10_coaccess_lineitem_orders() {
        // The paper's Example 1 queries: both must merge-join lineitem with
        // orders in one pipeline.
        let catalog = tpch_catalog(1.0);
        for qn in [3usize, 10] {
            let stmts = parse_all(&[tpch_query(qn)]).unwrap();
            let plan = plan_statement(&catalog, &stmts[0].0).unwrap();
            let li = catalog.object_id("lineitem").unwrap();
            let or = catalog.object_id("orders").unwrap();
            let together = plan
                .subplans()
                .iter()
                .any(|s| s.objects().contains(&li) && s.objects().contains(&or));
            assert!(together, "Q{qn} must co-access lineitem and orders");
        }
    }

    #[test]
    fn suffixed_queries_plan_against_replicated_catalog() {
        let catalog = replicate_tpch(0.1, 2);
        // The renaming `tpch88_n` applies to each query it draws for copy 2.
        let map = suffix_map(&TPCH_TABLES, "_2");
        let suffixed: Vec<String> = tpch22()
            .iter()
            .map(|q| substitute_tables(q, &map))
            .collect();
        for (i, (stmt, _)) in parse_all(&suffixed).unwrap().iter().enumerate() {
            plan_statement(&catalog, stmt)
                .unwrap_or_else(|e| panic!("suffixed Q{} failed: {e}", i + 1));
        }
    }

    #[test]
    fn tpch88_has_88_queries_referencing_all_copies() {
        let qs = tpch88_n(3, 42);
        assert_eq!(qs.len(), 88);
        for copy in 1..=3 {
            let tag = format!("lineitem_{copy}");
            assert!(
                qs.iter().any(|q| q.contains(&tag)),
                "no query references {tag}"
            );
        }
        // Deterministic.
        assert_eq!(tpch88_n(3, 42), tpch88_n(3, 42));
        assert_ne!(tpch88_n(3, 42), tpch88_n(3, 43));
    }

    #[test]
    fn tpch88_plans_against_replicated_catalog() {
        let catalog = replicate_tpch(0.05, 3);
        for (i, (stmt, _)) in parse_all(&tpch88_n(3, 7)).unwrap().iter().enumerate() {
            plan_statement(&catalog, stmt)
                .unwrap_or_else(|e| panic!("88-query workload item {i} failed: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "1..=22")]
    fn query_zero_panics() {
        tpch_query(0);
    }
}
