//! Projection pruning: scans read only the columns the query touches.

use crate::error::Result;
use crate::expr::Expr;
use crate::logical::LogicalPlan;
use std::collections::BTreeSet;

/// Column requirements flowing down the plan: either everything (`All`, e.g.
/// below a bare `SELECT *`) or a specific set.
#[derive(Debug, Clone)]
enum Need {
    All,
    Cols(BTreeSet<String>),
}

impl Need {
    fn union_exprs<'a>(mut self, exprs: impl Iterator<Item = &'a Expr>) -> Need {
        if let Need::Cols(set) = &mut self {
            for e in exprs {
                set.extend(e.referenced_columns());
            }
        }
        self
    }
}

/// Prune unread columns from every scan in the plan.
pub fn prune(plan: LogicalPlan) -> Result<LogicalPlan> {
    rewrite(plan, Need::All)
}

fn rewrite(plan: LogicalPlan, need: Need) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            table,
            table_schema,
            projection,
            filters,
        } => {
            let projection = match (&need, projection) {
                // An explicit projection (set by an earlier pass or caller)
                // stays; we only narrow unconstrained scans.
                (_, Some(existing)) => Some(existing),
                (Need::All, None) => None,
                (Need::Cols(cols), None) => {
                    // Scan must also produce columns its own filters read.
                    let mut want = cols.clone();
                    for f in &filters {
                        want.extend(f.referenced_columns());
                    }
                    // Preserve table column order; ignore names not in this
                    // table (they belong to the other join side).
                    let ordered: Vec<String> = table_schema
                        .fields()
                        .iter()
                        .map(|f| f.name.clone())
                        .filter(|n| want.contains(n))
                        .collect();
                    if ordered.len() == table_schema.len() || ordered.is_empty() {
                        None
                    } else {
                        Some(ordered)
                    }
                }
            };
            Ok(LogicalPlan::Scan {
                table,
                table_schema,
                projection,
                filters,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let need = need.union_exprs(std::iter::once(&predicate));
            Ok(LogicalPlan::Filter {
                input: Box::new(rewrite(*input, need)?),
                predicate,
            })
        }
        LogicalPlan::Project { input, exprs } => {
            // Keep only the outputs an ancestor reads. The query's final
            // projection always sees `Need::All`, so the user-visible schema
            // is never narrowed; this clause exists for *intermediate*
            // projections (e.g. the column-order restorers a build-side swap
            // inserts), which would otherwise reset requirements to every
            // column and defeat pruning below a join.
            let exprs = match &need {
                Need::All => exprs,
                Need::Cols(wanted) => {
                    let kept: Vec<Expr> = exprs
                        .iter()
                        .filter(|e| wanted.contains(&e.output_name()))
                        .cloned()
                        .collect();
                    // Never project down to zero columns: batches would lose
                    // their row count.
                    if kept.is_empty() {
                        exprs
                    } else {
                        kept
                    }
                }
            };
            // The surviving expressions reset requirements to exactly what
            // they compute.
            let mut cols = BTreeSet::new();
            for e in &exprs {
                cols.extend(e.referenced_columns());
            }
            Ok(LogicalPlan::Project {
                input: Box::new(rewrite(*input, Need::Cols(cols))?),
                exprs,
            })
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let need = match need {
                Need::All => Need::All,
                Need::Cols(mut cols) => {
                    for (l, r) in &on {
                        cols.insert(l.clone());
                        cols.insert(r.clone());
                    }
                    Need::Cols(cols)
                }
            };
            // Each side keeps the subset of needs it can satisfy; names not
            // in a side's schema are filtered out inside the scan rewrite.
            Ok(LogicalPlan::Join {
                left: Box::new(rewrite(*left, need.clone())?),
                right: Box::new(rewrite(*right, need)?),
                on,
                join_type,
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut cols = BTreeSet::new();
            for g in &group_by {
                cols.extend(g.referenced_columns());
            }
            for a in &aggs {
                cols.extend(a.input.referenced_columns());
            }
            Ok(LogicalPlan::Aggregate {
                input: Box::new(rewrite(*input, Need::Cols(cols))?),
                group_by,
                aggs,
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let need = need.union_exprs(keys.iter().map(|k| &k.expr));
            Ok(LogicalPlan::Sort {
                input: Box::new(rewrite(*input, need)?),
                keys,
            })
        }
        LogicalPlan::Limit { input, n } => Ok(LogicalPlan::Limit {
            input: Box::new(rewrite(*input, need)?),
            n,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, sum};
    use crate::optimizer::test_fixtures::catalog;

    fn scan_projection(plan: &LogicalPlan, table_name: &str) -> Option<Vec<String>> {
        match plan {
            LogicalPlan::Scan {
                table, projection, ..
            } if table == table_name => projection.clone(),
            other => {
                for child in other.children() {
                    if let Some(p) = scan_projection(child, table_name) {
                        return Some(p);
                    }
                }
                None
            }
        }
    }

    #[test]
    fn project_narrows_scan() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .project(vec![col("big_v").add(lit(1i64)).alias("w")]);
        let out = prune(plan).unwrap();
        assert_eq!(scan_projection(&out, "big"), Some(vec!["big_v".into()]));
    }

    #[test]
    fn filter_columns_are_kept() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .filter(col("big_k").eq(lit(1i64)))
            .project(vec![col("big_v")]);
        let out = prune(plan).unwrap();
        let proj = scan_projection(&out, "big").unwrap();
        assert!(proj.contains(&"big_k".to_string()));
        assert!(proj.contains(&"big_v".to_string()));
        assert!(!proj.contains(&"big_tag".to_string()));
    }

    #[test]
    fn aggregate_narrows_to_keys_and_inputs() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .aggregate(vec![col("big_tag")], vec![sum(col("big_v")).alias("s")]);
        let out = prune(plan).unwrap();
        let proj = scan_projection(&out, "big").unwrap();
        assert_eq!(proj, vec!["big_v".to_string(), "big_tag".to_string()]);
    }

    #[test]
    fn join_keys_survive_pruning() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .join_on(
                LogicalPlan::scan("small", &cat).unwrap(),
                vec![("big_k", "small_k")],
            )
            .project(vec![col("big_v"), col("small_v")]);
        let out = prune(plan).unwrap();
        let big = scan_projection(&out, "big").unwrap();
        assert!(big.contains(&"big_k".to_string()) && big.contains(&"big_v".to_string()));
        assert!(!big.contains(&"big_tag".to_string()));
        let small = scan_projection(&out, "small").unwrap();
        assert!(small.contains(&"small_k".to_string()) && small.contains(&"small_v".to_string()));
    }

    #[test]
    fn select_star_reads_everything() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat).unwrap().limit(3);
        let out = prune(plan).unwrap();
        assert_eq!(scan_projection(&out, "big"), None);
    }
}
