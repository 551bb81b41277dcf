//! The optimizer never changes an answer: generated queries at every rule
//! selection (all, none, all but each one) against the row-at-a-time
//! reference, one slice of the differential oracle (`differential/`).
//! Then a join on a computed key, which SQL here cannot write, built
//! with the plan builder over the same generated tables, and a chain of
//! three relations whose build sides the optimizer swaps. Last, the shape
//! of TPC-H Q5's optimized plan.

mod differential;

use backbone_query::optimizer::{estimate_rows, Rule};
use backbone_query::{
    col, count_star, lit, optimize_plan, sum, ExecOptions, LogicalPlan, Optimizer, Parallelism,
};
use backbone_workloads::{queries, tpch};
use differential::*;

#[test]
fn optimizer_preserves_results() {
    let rules: Vec<Knob> = Knob::axes()
        .into_iter()
        .flatten()
        .filter(|k| matches!(k, Knob::Rules(_)))
        .collect();
    run_slice(&Slice::all(), &rules);
    for seed in &SEEDS[..4] {
        let (data, db) = generated(*seed);
        let scan = |n: &str| LogicalPlan::scan(n, db.catalog()).expect("generated");
        let keyed = vec![
            col("t_i"),
            col("t_k").modulo(lit(4i64)).alias("tk"),
            col("t_s"),
        ];
        let far = col("t_i").gt_eq(lit(data.base + data.span / 2));
        let plan = (scan("t").project(keyed))
            .join_on(scan("u"), vec![("tk", "u_k")])
            .filter(far.or(col("u_v").gt(lit(0i64))))
            .aggregate(
                vec![col("t_s")],
                vec![count_star().alias("n"), sum(col("u_v")).alias("s")],
            );
        let want = reference_multiset(&plan, &data);
        let workers = Knob::Workers(Parallelism::Fixed(2));
        for knob in rules.iter().chain([&workers]) {
            let got = db.execute_with(plan.clone(), &exec_options(&[*knob]));
            let got = multiset(&got.expect("plan runs").to_rows());
            assert_eq!(got, want, "seed {seed}, {knob:?}: computed join key");
        }

        // `t ⋈ u ⋈ t` under aliases. `u` holds at most 40 rows, so the
        // build-side rule swaps `t ⋈ u`; the second key keeps the last
        // join's output small enough for the reference's nested loops.
        let aliased = scan("t").project(vec![
            col("t_k").alias("a_k"),
            col("t_i").alias("a_i"),
            col("t_s").alias("a_s"),
        ]);
        let chain = (scan("t").join_on(scan("u"), vec![("t_k", "u_k")]))
            .join_on(aliased, vec![("u_k", "a_k"), ("t_i", "a_i")])
            .aggregate(
                vec![col("a_s")],
                vec![count_star().alias("n"), sum(col("u_v")).alias("s")],
            );
        let swapped = Optimizer::with_rules(vec![Rule::BuildSide])
            .optimize(chain.clone(), db.catalog())
            .expect("optimizes");
        assert_ne!(swapped, chain, "seed {seed}: no join swapped");
        let want = reference_multiset(&chain, &data);
        for knob in rules.iter().chain([&workers]) {
            let got = db.execute_with(chain.clone(), &exec_options(&[*knob]));
            let got = multiset(&got.expect("plan runs").to_rows());
            assert_eq!(got, want, "seed {seed}, {knob:?}: three-relation chain");
        }
    }
}

/// Q5 keeps its written joins: none is `supplier ⋈ customer` on the
/// 25-value nation key alone, a many-to-many join whose output grows with
/// the square of the scale factor, and `lineitem`, the largest table, is
/// never the hash-join build (left) input. Every join builds on its smaller
/// estimated input.
#[test]
fn q5_never_builds_on_lineitem_or_joins_on_the_nation_key_alone() {
    fn check(plan: &LogicalPlan, catalog: &dyn backbone_query::Catalog) {
        if let LogicalPlan::Join {
            left, right, on, ..
        } = plan
        {
            let keys: Vec<&str> = on.iter().flat_map(|(l, r)| [&**l, &**r]).collect();
            assert!(
                !(keys.len() == 2
                    && keys.contains(&"c_nationkey")
                    && keys.contains(&"s_nationkey")),
                "many-to-many join on the nation key alone:\n{plan}"
            );
            assert_ne!(
                left.referenced_tables(),
                ["lineitem"],
                "builds on lineitem:\n{plan}"
            );
            let (l, r) = (estimate_rows(left, catalog), estimate_rows(right, catalog));
            assert!(l <= r, "builds on {l} estimated rows against {r}:\n{plan}");
        }
        for child in plan.children() {
            check(child, catalog);
        }
    }
    let catalog = tpch::generate(0.01, 42);
    let plan = queries::q5(&catalog, "ASIA", 730, 1095).expect("q5");
    let optimized = optimize_plan(plan, &catalog, &ExecOptions::serial()).expect("optimizes");
    check(&optimized, &catalog);
}
