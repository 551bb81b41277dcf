//! The optimizer never changes an answer: generated queries at every rule
//! selection (all, none, all but each one) against the row-at-a-time
//! reference, one slice of the differential oracle (`differential/`).
//! Then a join on a computed key, which SQL here cannot write, built
//! with the plan builder over the same generated tables.

mod differential;

use backbone_query::{col, count_star, lit, sum, LogicalPlan, Parallelism};
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
    }
}
