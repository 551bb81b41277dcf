//! Build-side selection for inner equi-joins.
//!
//! The written join order is kept: reordering chains on today's estimates
//! made plans worse (a greedy chain builder once joined Q5's `supplier` to
//! `customer` on the 25-value nation key and built a hash table on that
//! many-to-many output). What remains is the one choice the estimates get
//! right: hash joins build on the left input, so an inner equi-join whose
//! right input is estimated smaller swaps its inputs, and one projection
//! restores the caller's column order.

use super::cardinality::estimate_rows;
use crate::catalog::Catalog;
use crate::error::Result;
use crate::expr::col;
use crate::logical::{JoinType, LogicalPlan};
use std::collections::BTreeSet;

/// Put the smaller estimated input of every inner equi-join in `plan` on
/// the build (left) side, bottom-up.
pub fn choose_build_sides(plan: LogicalPlan, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    let visit = |p: Box<LogicalPlan>| -> Result<Box<LogicalPlan>> {
        Ok(Box::new(choose_build_sides(*p, catalog)?))
    };
    Ok(match plan {
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let (left, right) = (visit(left)?, visit(right)?);
            let swap = join_type == JoinType::Inner
                && !on.is_empty()
                && estimate_rows(&right, catalog) < estimate_rows(&left, catalog);
            // Columns are placed by name, which is ambiguous when the two
            // sides share one (self-joins): leave those joins as written.
            let order: Vec<String> = left
                .schema()?
                .fields()
                .iter()
                .chain(right.schema()?.fields())
                .map(|f| f.name.clone())
                .collect();
            if !swap || order.iter().collect::<BTreeSet<_>>().len() < order.len() {
                return Ok(LogicalPlan::Join {
                    left,
                    right,
                    on,
                    join_type,
                });
            }
            LogicalPlan::Join {
                left: right,
                right: left,
                on: on.into_iter().map(|(l, r)| (r, l)).collect(),
                join_type,
            }
            .project(order.into_iter().map(col).collect())
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: visit(input)?,
            predicate,
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: visit(input)?,
            exprs,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: visit(input)?,
            group_by,
            aggs,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: visit(input)?,
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: visit(input)?,
            n,
        },
        scan => scan,
    })
}

#[cfg(test)]
mod tests {
    use super::choose_build_sides as reorder;
    use super::*;
    use crate::expr::lit;
    use crate::optimizer::test_fixtures::catalog;

    /// Leftmost leaf table name of a join tree.
    fn leftmost(plan: &LogicalPlan) -> Option<&str> {
        match plan {
            LogicalPlan::Scan { table, .. } => Some(table),
            other => other.children().first().and_then(|c| leftmost(c)),
        }
    }

    #[test]
    fn smaller_relation_becomes_build_side() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat).unwrap().join_on(
            LogicalPlan::scan("small", &cat).unwrap(),
            vec![("big_k", "small_k")],
        );
        let out = reorder(plan, &cat).unwrap();
        assert_eq!(leftmost(&out), Some("small"), "got:\n{out}");
    }

    #[test]
    fn schema_order_is_preserved() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat).unwrap().join_on(
            LogicalPlan::scan("small", &cat).unwrap(),
            vec![("big_k", "small_k")],
        );
        let before = plan.schema().unwrap();
        let after = reorder(plan, &cat).unwrap().schema().unwrap();
        let names = |s: &backbone_storage::Schema| -> Vec<String> {
            s.fields().iter().map(|f| f.name.clone()).collect()
        };
        assert_eq!(names(&before), names(&after));
    }

    /// Per join, in pre-order: its left and right estimates and the tables
    /// under it.
    fn joins(plan: &LogicalPlan, cat: &dyn Catalog, out: &mut Vec<(f64, f64, Vec<String>)>) {
        if let LogicalPlan::Join { left, right, .. } = plan {
            let (l, r) = (estimate_rows(left, cat), estimate_rows(right, cat));
            out.push((l, r, plan.referenced_tables()));
        }
        for child in plan.children() {
            joins(child, cat, out);
        }
    }

    #[test]
    fn chain_keeps_written_levels_and_builds_the_smaller_side() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .join_on(
                LogicalPlan::scan("mid", &cat).unwrap(),
                vec![("big_k", "mid_k")],
            )
            .join_on(
                LogicalPlan::scan("small", &cat).unwrap(),
                vec![("mid_k", "small_k")],
            );
        let out = reorder(plan.clone(), &cat).unwrap();
        let (mut written, mut planned) = (Vec::new(), Vec::new());
        joins(&plan, &cat, &mut written);
        joins(&out, &cat, &mut planned);
        // Both joins swap: `mid` builds under `big`, then `small` builds
        // under the pair, and neither join gains or loses a table.
        assert_eq!(leftmost(&out), Some("small"), "got:\n{out}");
        for (l, r, tables) in &planned {
            assert!(l <= r, "{tables:?} builds on {l} rows against {r}:\n{out}");
        }
        let levels = |js: &[(f64, f64, Vec<String>)]| -> Vec<Vec<String>> {
            js.iter().map(|j| j.2.clone()).collect()
        };
        assert_eq!(levels(&planned), levels(&written), "got:\n{out}");
    }

    #[test]
    fn already_optimal_left_unchanged_semantically() {
        let cat = catalog();
        let plan = LogicalPlan::scan("small", &cat).unwrap().join_on(
            LogicalPlan::scan("big", &cat).unwrap(),
            vec![("small_k", "big_k")],
        );
        let out = reorder(plan.clone(), &cat).unwrap();
        assert_eq!(leftmost(&out), Some("small"));
    }

    #[test]
    fn filtered_big_table_can_win_seed() {
        let cat = catalog();
        // big with an extremely selective pushed filter (estimated 1000 *
        // 0.05^3 ≈ 0.1 -> clamped to >= 1) beats small (10 rows).
        let filtered_big = LogicalPlan::Scan {
            table: "big".into(),
            table_schema: cat.table("big").unwrap().schema().clone(),
            projection: None,
            filters: vec![
                col("big_v").eq(lit(1i64)),
                col("big_k").eq(lit(1i64)),
                col("big_tag").eq(lit("a")),
            ],
        };
        let plan = LogicalPlan::scan("small", &cat)
            .unwrap()
            .join_on(filtered_big, vec![("small_k", "big_k")]);
        let out = reorder(plan, &cat).unwrap();
        assert_eq!(leftmost(&out), Some("big"), "got:\n{out}");
    }

    #[test]
    fn self_join_with_duplicate_names_left_untouched() {
        // Reordering by column name is ambiguous for self-joins; the plan
        // must come back unchanged (and three-way self-joins must not lose
        // conditions — the regression this guards).
        let cat = catalog();
        let scan = || LogicalPlan::scan("small", &cat).unwrap();
        let two = scan().join_on(scan(), vec![("small_k", "small_k")]);
        assert_eq!(reorder(two.clone(), &cat).unwrap(), two);
        let three = two.clone().join_on(scan(), vec![("small_v", "small_v")]);
        assert_eq!(reorder(three.clone(), &cat).unwrap(), three);
    }

    #[test]
    fn non_inner_join_untouched() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat).unwrap().join(
            LogicalPlan::scan("small", &cat).unwrap(),
            vec![("big_k", "small_k")],
            JoinType::Left,
        );
        let out = reorder(plan.clone(), &cat).unwrap();
        assert_eq!(plan, out);
    }
}
