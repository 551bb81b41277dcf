//! E6 — the Alibaba/QWEN anecdote: "applying query optimization principles
//! to rebuild their pipeline ... significantly reducing costs."
//!
//! Ablation of the optimizer's rules on the join-heavy TPC-H-like queries:
//! all rules, each rule removed, and no rules at all. Expectation: pushdown
//! dominates on Q3/Q5, the build-side rule (the smaller estimated input of
//! each inner equi-join builds the hash table; the written join order is
//! kept) never makes a plan slower, and the fully unoptimized plan is
//! dramatically slower. Each "-Rule" cell is a paired ratio against "all"
//! (interleaved blocks, best sample per side), so a rule worth well under
//! the box's run-to-run noise still reads as a stable number.

use crate::exec_bench::paired_ratio;
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
    /// Wall-clock seconds of one run.
    pub seconds: f64,
    /// Time over the "all" rule set's: paired (best of `PAIRED_ROUNDS` ×
    /// `PAIRED_REPS` samples per side) for each "-Rule" cell, one run over
    /// one run for "none", 1 for "all".
    pub vs_all: f64,
}

/// Interleaved blocks per side of a paired "-Rule" cell.
const PAIRED_ROUNDS: usize = 8;
/// Samples per block of a paired "-Rule" cell.
const PAIRED_REPS: usize = 8;

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
        let all_opts = ExecOptions {
            rules: Some(Rule::all()),
            ..ExecOptions::serial()
        };
        let run = |opts: &ExecOptions| {
            time(|| execute(plan.clone(), catalog, opts).expect("ablation run"))
        };
        let mut all_seconds = f64::NAN;
        for (rules_label, rules) in rule_sets() {
            let opts = ExecOptions {
                rules: Some(rules),
                ..ExecOptions::serial()
            };
            let (result, seconds) = run(&opts);
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
            let vs_all = if rules_label == "all" {
                all_seconds = seconds;
                1.0
            } else if rules_label.starts_with('-') {
                // No ceiling: one window, no retries.
                paired_ratio(f64::INFINITY, PAIRED_ROUNDS, PAIRED_REPS, |mode| {
                    run([&all_opts, &opts][mode]).1
                })
            } else {
                seconds / all_seconds
            };
            out.push(E6Row {
                query: label,
                rules: rules_label,
                seconds,
                vs_all,
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
    for r in &rows {
        out.push_str(&format!(
            "{:>6} {:>22} {:>12.2} {:>8.2}x\n",
            r.query,
            r.rules,
            r.seconds * 1000.0,
            r.vs_all
        ));
    }
    out.push_str(&format!(
        "\nlatency: one run; vs-all of a -Rule cell: paired best of {} per side\n",
        PAIRED_ROUNDS * PAIRED_REPS
    ));
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
        assert!(rows.iter().all(|r| r.vs_all.is_finite() && r.vs_all > 0.0));
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
