//! Constant folding: evaluate constant sub-expressions at plan time.

use crate::error::Result;
use crate::eval::eval;
use crate::expr::{BinOp, Expr};
use crate::logical::LogicalPlan;
use backbone_storage::{RecordBatch, Schema, Value};

/// Fold constants in every expression of the plan.
pub fn fold_plan(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan {
            table,
            table_schema,
            projection,
            filters,
        } => LogicalPlan::Scan {
            table,
            table_schema,
            projection,
            filters: filters.into_iter().map(fold_expr).collect(),
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_plan(*input)?),
            predicate: fold_expr(predicate),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(fold_plan(*input)?),
            exprs: exprs.into_iter().map(fold_expr).collect(),
        },
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => LogicalPlan::Join {
            left: Box::new(fold_plan(*left)?),
            right: Box::new(fold_plan(*right)?),
            on,
            join_type,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(fold_plan(*input)?),
            group_by: group_by.into_iter().map(fold_expr).collect(),
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.input = fold_expr(a.input);
                    a
                })
                .collect(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(fold_plan(*input)?),
            keys: keys
                .into_iter()
                .map(|mut k| {
                    k.expr = fold_expr(k.expr);
                    k
                })
                .collect(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(fold_plan(*input)?),
            n,
        },
    })
}

/// Fold constant sub-expressions bottom-up.
pub fn fold_expr(expr: Expr) -> Expr {
    match expr {
        Expr::Binary { left, op, right } => {
            let left = fold_expr(*left);
            let right = fold_expr(*right);
            // Boolean identities.
            match (&left, op, &right) {
                (Expr::Literal(Value::Bool(true)), BinOp::And, _) => return right,
                (_, BinOp::And, Expr::Literal(Value::Bool(true))) => return left,
                (Expr::Literal(Value::Bool(false)), BinOp::Or, _) => return right,
                (_, BinOp::Or, Expr::Literal(Value::Bool(false))) => return left,
                (Expr::Literal(Value::Bool(false)), BinOp::And, _)
                | (_, BinOp::And, Expr::Literal(Value::Bool(false))) => {
                    return Expr::Literal(Value::Bool(false))
                }
                (Expr::Literal(Value::Bool(true)), BinOp::Or, _)
                | (_, BinOp::Or, Expr::Literal(Value::Bool(true))) => {
                    return Expr::Literal(Value::Bool(true))
                }
                _ => {}
            }
            let folded = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
            try_eval_const(&folded).unwrap_or(folded)
        }
        Expr::Unary { op, expr } => {
            let inner = fold_expr(*expr);
            let folded = Expr::Unary {
                op,
                expr: Box::new(inner),
            };
            try_eval_const(&folded).unwrap_or(folded)
        }
        Expr::Alias(inner, name) => Expr::Alias(Box::new(fold_expr(*inner)), name),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let folded = Expr::Like {
                expr: Box::new(fold_expr(*expr)),
                pattern,
                negated,
            };
            try_eval_const(&folded).unwrap_or(folded)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let folded = Expr::InList {
                expr: Box::new(fold_expr(*expr)),
                list: list.into_iter().map(fold_expr).collect(),
                negated,
            };
            try_eval_const(&folded).unwrap_or(folded)
        }
        leaf => leaf,
    }
}

/// If the expression references no columns, evaluate it against a one-row
/// empty-schema batch and replace it with the literal result. Errors (e.g.
/// division by zero) leave the expression unfolded so they surface at
/// execution, matching unoptimized behaviour.
fn try_eval_const(expr: &Expr) -> Option<Expr> {
    if !expr.referenced_columns().is_empty() {
        return None;
    }
    if matches!(expr, Expr::Literal(_)) {
        return None;
    }
    // Evaluate against a one-row dummy batch (a zero-column batch would
    // report zero rows and broadcast literals to nothing).
    let schema = Schema::new(vec![backbone_storage::Field::new(
        "__fold_dummy",
        backbone_storage::DataType::Int64,
    )]);
    let batch = RecordBatch::from_rows(schema, &[vec![Value::Int(0)]]).ok()?;
    let col = eval(expr, &batch).ok()?;
    if col.len() != 1 {
        return None;
    }
    // A NULL result stays unfolded: the untyped NULL literal would lose the
    // expression's type, and `NULL > 3` must stay a (NULL) predicate.
    let v = col.value(0);
    (!v.is_null()).then_some(Expr::Literal(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn folds_arithmetic() {
        let e = fold_expr(lit(2i64).add(lit(3i64)).mul(lit(4i64)));
        assert_eq!(e, lit(20i64));
    }

    #[test]
    fn folds_inside_column_expression() {
        let e = fold_expr(col("x").add(lit(2i64).mul(lit(5i64))));
        assert_eq!(e, col("x").add(lit(10i64)));
    }

    #[test]
    fn boolean_identities() {
        assert_eq!(fold_expr(col("p").and(lit(true))), col("p"));
        assert_eq!(fold_expr(lit(true).and(col("p"))), col("p"));
        assert_eq!(fold_expr(col("p").or(lit(false))), col("p"));
        assert_eq!(fold_expr(col("p").and(lit(false))), lit(false));
        assert_eq!(fold_expr(col("p").or(lit(true))), lit(true));
    }

    #[test]
    fn null_results_stay_unfolded() {
        let e = Expr::Literal(Value::Null).gt(lit(2i64).add(lit(1i64)));
        assert_eq!(fold_expr(e), Expr::Literal(Value::Null).gt(lit(3i64)));
    }

    #[test]
    fn folds_comparisons() {
        assert_eq!(fold_expr(lit(3i64).lt(lit(5i64))), lit(true));
        assert_eq!(fold_expr(lit("a").eq(lit("b"))), lit(false));
    }

    #[test]
    fn division_by_zero_not_folded() {
        // Must not turn a runtime error into a plan-time panic or wrong value.
        let e = lit(1i64).div(lit(0i64));
        assert_eq!(fold_expr(e.clone()), e);
    }

    #[test]
    fn column_refs_untouched() {
        let e = col("x").add(col("y"));
        assert_eq!(fold_expr(e.clone()), e);
    }

    #[test]
    fn folds_through_plan() {
        use crate::optimizer::test_fixtures::catalog;
        let cat = catalog();
        let plan = LogicalPlan::scan("small", &cat)
            .unwrap()
            .filter(col("small_v").gt(lit(1i64).add(lit(2i64))));
        let folded = fold_plan(plan).unwrap();
        assert!(folded.display_indent().contains("(small_v > 3)"));
    }
}
