//! TPC-H-like analytical queries as logical plans (E1, E6).
//!
//! Shapes follow the spec's Q1/Q3/Q5/Q6; literals are adapted to the
//! synthetic value distributions in [`crate::tpch`].

use backbone_query::logical::{asc, desc};
use backbone_query::{avg, col, count_star, lit, sum, Catalog, LogicalPlan, QueryError};

use crate::tpch::Q1_CUTOFF_DAY;

/// Q1 — pricing summary report: scan `lineitem`, filter by ship date, group
/// by return flag and line status, compute the classic aggregate battery.
pub fn q1(catalog: &dyn Catalog) -> Result<LogicalPlan, QueryError> {
    Ok(LogicalPlan::scan("lineitem", catalog)?
        .filter(col("l_shipdate").lt_eq(lit(Q1_CUTOFF_DAY)))
        .aggregate(
            vec![col("l_returnflag"), col("l_linestatus")],
            vec![
                sum(col("l_quantity")).alias("sum_qty"),
                sum(col("l_extendedprice")).alias("sum_base_price"),
                sum(col("l_extendedprice").mul(lit(1.0).sub(col("l_discount"))))
                    .alias("sum_disc_price"),
                sum(col("l_extendedprice")
                    .mul(lit(1.0).sub(col("l_discount")))
                    .mul(lit(1.0).add(col("l_tax"))))
                .alias("sum_charge"),
                avg(col("l_quantity")).alias("avg_qty"),
                avg(col("l_extendedprice")).alias("avg_price"),
                avg(col("l_discount")).alias("avg_disc"),
                count_star().alias("count_order"),
            ],
        )
        .sort(vec![asc(col("l_returnflag")), asc(col("l_linestatus"))]))
}

/// Q3 — shipping priority: customer ⋈ orders ⋈ lineitem with segment and
/// date filters, top 10 orders by revenue.
pub fn q3(catalog: &dyn Catalog, segment: &str, date: i64) -> Result<LogicalPlan, QueryError> {
    // Written the way SQL reads: joins first, one WHERE on top. Pushing the
    // predicates to the scans is the optimizer's job (E6 measures it).
    let customer = LogicalPlan::scan("customer", catalog)?;
    let orders = LogicalPlan::scan("orders", catalog)?;
    let lineitem = LogicalPlan::scan("lineitem", catalog)?;
    Ok(customer
        .join_on(orders, vec![("c_custkey", "o_custkey")])
        .join_on(lineitem, vec![("o_orderkey", "l_orderkey")])
        .filter(
            col("c_mktsegment")
                .eq(lit(segment))
                .and(col("o_orderdate").lt(lit(date)))
                .and(col("l_shipdate").gt(lit(date))),
        )
        .aggregate(
            vec![col("o_orderkey"), col("o_orderdate"), col("o_shippriority")],
            vec![sum(col("l_extendedprice").mul(lit(1.0).sub(col("l_discount")))).alias("revenue")],
        )
        .sort(vec![desc(col("revenue")), asc(col("o_orderdate"))])
        .limit(10))
}

/// Q5 — local supplier volume: six-way join restricted to one region,
/// revenue grouped by nation.
pub fn q5(
    catalog: &dyn Catalog,
    region: &str,
    date_lo: i64,
    date_hi: i64,
) -> Result<LogicalPlan, QueryError> {
    let customer = LogicalPlan::scan("customer", catalog)?;
    let orders = LogicalPlan::scan("orders", catalog)?;
    let lineitem = LogicalPlan::scan("lineitem", catalog)?;
    let supplier = LogicalPlan::scan("supplier", catalog)?;
    let nation = LogicalPlan::scan("nation", catalog)?;
    let region_plan = LogicalPlan::scan("region", catalog)?;

    Ok(customer
        .join_on(orders, vec![("c_custkey", "o_custkey")])
        .join_on(lineitem, vec![("o_orderkey", "l_orderkey")])
        .join_on(
            supplier,
            vec![("l_suppkey", "s_suppkey"), ("c_nationkey", "s_nationkey")],
        )
        .join_on(nation, vec![("s_nationkey", "n_nationkey")])
        .join_on(region_plan, vec![("n_regionkey", "r_regionkey")])
        .filter(
            col("r_name")
                .eq(lit(region))
                .and(col("o_orderdate").gt_eq(lit(date_lo)))
                .and(col("o_orderdate").lt(lit(date_hi))),
        )
        .aggregate(
            vec![col("n_name")],
            vec![sum(col("l_extendedprice").mul(lit(1.0).sub(col("l_discount")))).alias("revenue")],
        )
        .sort(vec![desc(col("revenue"))]))
}

/// Q6 — forecasting revenue change: a pure scan-filter-aggregate over
/// `lineitem`.
pub fn q6(catalog: &dyn Catalog, date_lo: i64, date_hi: i64) -> Result<LogicalPlan, QueryError> {
    Ok(LogicalPlan::scan("lineitem", catalog)?
        .filter(
            col("l_shipdate")
                .gt_eq(lit(date_lo))
                .and(col("l_shipdate").lt(lit(date_hi)))
                .and(col("l_discount").between(lit(0.05), lit(0.07)))
                .and(col("l_quantity").lt(lit(24.0))),
        )
        .aggregate(
            vec![],
            vec![sum(col("l_extendedprice").mul(col("l_discount"))).alias("revenue")],
        ))
}

/// All four queries with canonical parameters, labeled.
pub fn all_queries(catalog: &dyn Catalog) -> Result<Vec<(&'static str, LogicalPlan)>, QueryError> {
    Ok(vec![
        ("Q1", q1(catalog)?),
        ("Q3", q3(catalog, "BUILDING", 1200)?),
        ("Q5", q5(catalog, "ASIA", 730, 1095)?),
        ("Q6", q6(catalog, 730, 1095)?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::generate;
    use backbone_query::{execute, ExecOptions};
    use backbone_storage::Value;

    fn catalog() -> backbone_query::MemCatalog {
        generate(0.002, 11)
    }

    #[test]
    fn q1_produces_flag_status_groups() {
        let cat = catalog();
        let out = execute(q1(&cat).unwrap(), &cat, &ExecOptions::default()).unwrap();
        assert!(out.num_rows() >= 2 && out.num_rows() <= 6);
        // count_order must sum to the number of filtered lineitems.
        let total: i64 = (0..out.num_rows())
            .map(|i| {
                out.column_by_name("count_order")
                    .unwrap()
                    .value(i)
                    .as_int()
                    .unwrap()
            })
            .sum();
        assert!(total > 0);
        // sorted by flag then status
        let flags: Vec<String> = (0..out.num_rows())
            .map(|i| out.column(0).value(i).to_string())
            .collect();
        let mut sorted = flags.clone();
        sorted.sort();
        assert_eq!(flags, sorted);
    }

    #[test]
    fn q1_matches_manual_computation() {
        let cat = catalog();
        let out = execute(q1(&cat).unwrap(), &cat, &ExecOptions::default()).unwrap();
        // Manually compute sum_qty per (flag, status).
        let li = cat.table("lineitem").unwrap().to_batch().unwrap();
        let mut manual: std::collections::HashMap<(String, String), f64> = Default::default();
        for i in 0..li.num_rows() {
            let ship = li
                .column_by_name("l_shipdate")
                .unwrap()
                .value(i)
                .as_int()
                .unwrap();
            if ship <= Q1_CUTOFF_DAY {
                let f = li
                    .column_by_name("l_returnflag")
                    .unwrap()
                    .value(i)
                    .to_string();
                let s = li
                    .column_by_name("l_linestatus")
                    .unwrap()
                    .value(i)
                    .to_string();
                let q = li
                    .column_by_name("l_quantity")
                    .unwrap()
                    .value(i)
                    .as_float()
                    .unwrap();
                *manual.entry((f, s)).or_insert(0.0) += q;
            }
        }
        for i in 0..out.num_rows() {
            let key = (
                out.column(0).value(i).to_string(),
                out.column(1).value(i).to_string(),
            );
            let got = out
                .column_by_name("sum_qty")
                .unwrap()
                .value(i)
                .as_float()
                .unwrap();
            let want = manual[&key];
            assert!((got - want).abs() < 1e-6, "group {key:?}: {got} != {want}");
        }
    }

    #[test]
    fn q3_returns_at_most_ten_sorted_by_revenue() {
        let cat = catalog();
        let out = execute(
            q3(&cat, "BUILDING", 1200).unwrap(),
            &cat,
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(out.num_rows() <= 10);
        let rev = out.column_by_name("revenue").unwrap();
        for i in 1..out.num_rows() {
            assert!(rev.value(i - 1).as_float().unwrap() >= rev.value(i).as_float().unwrap());
        }
    }

    #[test]
    fn q5_groups_by_nation_in_region() {
        let cat = catalog();
        let out = execute(
            q5(&cat, "ASIA", 0, 2500).unwrap(),
            &cat,
            &ExecOptions::default(),
        )
        .unwrap();
        // At most 5 nations per region.
        assert!(out.num_rows() <= 5);
        for i in 0..out.num_rows() {
            let n = out.column(0).value(i).to_string();
            assert!(n.starts_with("NATION_"));
        }
    }

    #[test]
    fn q6_single_revenue_number() {
        let cat = catalog();
        let out = execute(q6(&cat, 0, 2500).unwrap(), &cat, &ExecOptions::default()).unwrap();
        assert_eq!(out.num_rows(), 1);
        match out.row(0)[0] {
            Value::Float(f) => assert!(f >= 0.0),
            Value::Null => {} // possible at tiny SF if no row qualifies
            ref other => panic!("unexpected revenue value {other:?}"),
        }
    }

    #[test]
    fn optimized_equals_unoptimized_on_all_queries() {
        let cat = catalog();
        for (name, _) in all_queries(&cat).unwrap() {
            let plan = match name {
                "Q1" => q1(&cat).unwrap(),
                "Q3" => q3(&cat, "BUILDING", 1200).unwrap(),
                "Q5" => q5(&cat, "ASIA", 730, 1095).unwrap(),
                "Q6" => q6(&cat, 730, 1095).unwrap(),
                _ => unreachable!(),
            };
            let a = execute(plan.clone(), &cat, &ExecOptions::default()).unwrap();
            let b = execute(plan, &cat, &ExecOptions::unoptimized()).unwrap();
            // Swapped join inputs change float summation order: compare with
            // relative tolerance.
            let (ra, rb) = (a.to_rows(), b.to_rows());
            assert_eq!(ra.len(), rb.len(), "{name} row count differs");
            for (x, y) in ra.iter().zip(&rb) {
                for (vx, vy) in x.iter().zip(y) {
                    match (vx.as_float(), vy.as_float()) {
                        (Some(fx), Some(fy)) => assert!(
                            (fx - fy).abs() <= 1e-9 * fx.abs().max(1.0),
                            "{name}: {fx} vs {fy}"
                        ),
                        _ => assert_eq!(vx, vy, "{name} differs when optimized"),
                    }
                }
            }
        }
    }
}
