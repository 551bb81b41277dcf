//! E6 — the Alibaba/QWEN anecdote: "applying query optimization principles
//! to rebuild their pipeline ... significantly reducing costs."
//!
//! Ablation of the optimizer's rules on the join-heavy TPC-H-like queries:
//! all rules, each rule removed, and no rules at all. Expectation: pushdown
//! dominates on Q3/Q5, the build-side rule (the smaller estimated input of
//! each inner equi-join builds the hash table; the written join order is
//! kept) never makes a plan slower, and the fully unoptimized plan is
//! dramatically slower.

use crate::time;
use backbone_query::optimizer::Rule;
use backbone_query::{execute, ExecOptions, MemCatalog};
use backbone_workloads::{queries, tpch};

/// One measured ablation cell.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Query label.
    pub query: &'static str,
    /// Rule-set label.
    pub rules: String,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The rule sets evaluated: all, all-minus-one per rule, none.
pub fn rule_sets() -> Vec<(String, Vec<Rule>)> {
    let all = Rule::all();
    let mut sets = vec![("all".to_string(), all.clone())];
    for rule in &all {
        let without: Vec<Rule> = all.iter().copied().filter(|r| r != rule).collect();
        sets.push((format!("-{rule:?}"), without));
    }
    sets.push(("none".to_string(), vec![]));
    sets
}

/// Run the ablation on Q3 and Q5 (the join-heavy queries).
pub fn run(catalog: &MemCatalog) -> Vec<E6Row> {
    let plans = vec![
        ("Q3", queries::q3(catalog, "BUILDING", 1200).expect("q3")),
        ("Q5", queries::q5(catalog, "ASIA", 730, 1095).expect("q5")),
    ];
    let mut out = Vec::new();
    for (label, plan) in plans {
        // Warm up: populate the catalog's lazy statistics cache and touch
        // the data once so no rule set pays one-time costs.
        let _ = execute(
            plan.clone(),
            catalog,
            &ExecOptions {
                rules: None,
                ..ExecOptions::serial()
            },
        );
        let mut baseline_rows = None;
        for (rules_label, rules) in rule_sets() {
            let opts = ExecOptions {
                rules: Some(rules),
                ..ExecOptions::serial()
            };
            let (result, seconds) =
                time(|| execute(plan.clone(), catalog, &opts).expect("ablation run"));
            // Every rule set must return the same results (floats compared
            // with tolerance: swapped join inputs change summation order).
            let rows = result.to_rows();
            match &baseline_rows {
                None => baseline_rows = Some(rows),
                Some(base) => {
                    assert_eq!(
                        base.len(),
                        rows.len(),
                        "{label} row count changed under {rules_label}"
                    );
                    for (x, y) in base.iter().zip(&rows) {
                        for (vx, vy) in x.iter().zip(y) {
                            match (vx.as_float(), vy.as_float()) {
                                (Some(fx), Some(fy)) => assert!(
                                    (fx - fy).abs() <= 1e-9 * fx.abs().max(1.0),
                                    "{label} changed under {rules_label}: {fx} vs {fy}"
                                ),
                                _ => assert_eq!(vx, vy, "{label} changed under {rules_label}"),
                            }
                        }
                    }
                }
            }
            out.push(E6Row {
                query: label,
                rules: rules_label,
                seconds,
            });
        }
    }
    out
}

/// Print the experiment's table.
pub fn report(sf: f64, seed: u64) -> String {
    let catalog = tpch::generate(sf, seed);
    let rows = run(&catalog);
    let mut out = String::new();
    out.push_str("E6: optimizer-rule ablation (query optimization pays)\n");
    out.push_str(
        "claim: \"applying query optimization principles ... significantly reducing costs\"\n\n",
    );
    out.push_str(&format!(
        "{:>6} {:>22} {:>12} {:>9}\n",
        "query", "rules", "latency(ms)", "vs-all"
    ));
    let mut all_time = std::collections::HashMap::new();
    for r in &rows {
        if r.rules == "all" {
            all_time.insert(r.query, r.seconds);
        }
    }
    for r in &rows {
        let slowdown = r.seconds / all_time.get(r.query).copied().unwrap_or(r.seconds);
        out.push_str(&format!(
            "{:>6} {:>22} {:>12.2} {:>8.1}x\n",
            r.query,
            r.rules,
            r.seconds * 1000.0,
            slowdown
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_results_agree_and_all_is_fastest_ish() {
        let catalog = tpch::generate(0.002, 13);
        let rows = run(&catalog);
        // 2 queries x (1 + 4 + 1) rule sets
        assert_eq!(rows.len(), 12);
        let all_q5 = rows
            .iter()
            .find(|r| r.query == "Q5" && r.rules == "all")
            .unwrap()
            .seconds;
        let none_q5 = rows
            .iter()
            .find(|r| r.query == "Q5" && r.rules == "none")
            .unwrap()
            .seconds;
        assert!(
            none_q5 > all_q5,
            "unoptimized Q5 ({none_q5}) should be slower than optimized ({all_q5})"
        );
    }
}
