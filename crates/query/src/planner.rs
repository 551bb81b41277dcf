//! Lowers logical plans to physical operator trees.

use crate::catalog::Catalog;
use crate::error::{QueryError, Result};
use crate::executor::ExecOptions;
use crate::logical::LogicalPlan;
use crate::physical::{
    ExecContext, FilterExec, HashAggregateExec, HashJoinExec, LimitExec, NestedLoopJoinExec,
    Operator, ProjectExec, SortExec, TableScanExec, TopKExec,
};
use crate::profile::{InstrumentedExec, OpStats, ProfileNode};

/// Lower `plan` to a physical operator tree whose operators share `ctx`,
/// the query's execution context (built from `opts` by
/// [`ExecContext::new`]).
///
/// Physical choices made here — hash vs nested-loop join, top-k fusion,
/// parallel scans — are invisible to the logical plan: this function is the
/// boundary where "logical/physical independence" lives.
pub fn create_physical_plan(
    plan: &LogicalPlan,
    catalog: &dyn Catalog,
    opts: &ExecOptions,
    ctx: &ExecContext,
) -> Result<Box<dyn Operator>> {
    Ok(build(plan, catalog, opts, ctx, false)?.0)
}

/// Lower `plan` with every operator wrapped in an [`InstrumentedExec`],
/// returning the operator tree plus the matching [`ProfileNode`] tree whose
/// counters fill in as the plan runs (EXPLAIN ANALYZE).
pub fn create_instrumented_plan(
    plan: &LogicalPlan,
    catalog: &dyn Catalog,
    opts: &ExecOptions,
    ctx: &ExecContext,
) -> Result<(Box<dyn Operator>, ProfileNode)> {
    let (op, node) = build(plan, catalog, opts, ctx, true)?;
    Ok((op, node.expect("instrumented build returns a profile")))
}

/// One level of lowering. Every operator gets its own [`OpStats`]; when
/// `instrument` is set the returned operator is wrapped and a profile node
/// (with the children's profiles attached) is returned alongside.
fn build(
    plan: &LogicalPlan,
    catalog: &dyn Catalog,
    opts: &ExecOptions,
    ctx: &ExecContext,
    instrument: bool,
) -> Result<(Box<dyn Operator>, Option<ProfileNode>)> {
    let stats = OpStats::default();
    let (op, detail, children): (Box<dyn Operator>, String, Vec<Option<ProfileNode>>) = match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            ..
        } => {
            let t = catalog
                .table(table)
                .ok_or_else(|| QueryError::TableNotFound(table.clone()))?;
            let op: Box<dyn Operator> = Box::new(
                TableScanExec::new(t, projection.clone(), filters.clone(), ctx, stats.clone())?
                    .with_snapshot(opts.snapshot_epoch),
            );
            (op, table.clone(), vec![])
        }
        LogicalPlan::Filter { input, predicate } => {
            let (child, prof) = build(input, catalog, opts, ctx, instrument)?;
            let op: Box<dyn Operator> = Box::new(FilterExec::new(child, predicate.clone()));
            (op, predicate.to_string(), vec![prof])
        }
        LogicalPlan::Project { input, exprs } => {
            let (child, prof) = build(input, catalog, opts, ctx, instrument)?;
            let detail = exprs
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let op: Box<dyn Operator> = Box::new(ProjectExec::new(child, exprs.clone())?);
            (op, detail, vec![prof])
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let (l, lprof) = build(left, catalog, opts, ctx, instrument)?;
            let (r, rprof) = build(right, catalog, opts, ctx, instrument)?;
            let detail = on
                .iter()
                .map(|(a, b)| format!("{a} = {b}"))
                .collect::<Vec<_>>()
                .join(", ");
            let op: Box<dyn Operator> = if on.is_empty() {
                // No equi-keys: fall back to a (cross) nested-loop join.
                if *join_type != crate::logical::JoinType::Inner {
                    return Err(QueryError::InvalidPlan(
                        "outer join requires equi-join keys".into(),
                    ));
                }
                Box::new(NestedLoopJoinExec::new(l, r))
            } else {
                Box::new(HashJoinExec::new(
                    l,
                    r,
                    on.clone(),
                    *join_type,
                    ctx,
                    stats.clone(),
                )?)
            };
            (op, detail, vec![lprof, rprof])
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (child, prof) = build(input, catalog, opts, ctx, instrument)?;
            let detail = format!("group=[{}]", group_by.len());
            let op: Box<dyn Operator> = Box::new(HashAggregateExec::new(
                child,
                group_by.clone(),
                aggs.clone(),
                ctx,
                stats.clone(),
            )?);
            (op, detail, vec![prof])
        }
        // Limit directly over Sort fuses into TopK: no full sort needed.
        LogicalPlan::Limit { input, n } => {
            if let LogicalPlan::Sort {
                input: sort_input,
                keys,
            } = input.as_ref()
            {
                let (child, prof) = build(sort_input, catalog, opts, ctx, instrument)?;
                let op = TopKExec::new(child, keys.clone(), *n, ctx, stats.clone());
                (Box::new(op), format!("k={n}"), vec![prof])
            } else {
                let (child, prof) = build(input, catalog, opts, ctx, instrument)?;
                let op: Box<dyn Operator> = Box::new(LimitExec::new(child, *n));
                (op, format!("n={n}"), vec![prof])
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let (child, prof) = build(input, catalog, opts, ctx, instrument)?;
            let detail = keys
                .iter()
                .map(|k| format!("{}{}", k.expr, if k.descending { " DESC" } else { "" }))
                .collect::<Vec<_>>()
                .join(", ");
            let op: Box<dyn Operator> = Box::new(SortExec::new(child, keys.clone()));
            (op, detail, vec![prof])
        }
    };
    if !instrument {
        return Ok((op, None));
    }
    // Wrap the operator, threading the children's rows-out counters in so
    // the wrapper can report rows-in deltas.
    let children: Vec<ProfileNode> = children
        .into_iter()
        .map(|c| c.expect("instrumented children carry profiles"))
        .collect();
    let child_rows = children.iter().map(|c| c.stats.rows_out.clone()).collect();
    let node = ProfileNode {
        name: op.name(),
        detail,
        stats: stats.clone(),
        children,
    };
    let wrapped = InstrumentedExec::new(op, stats, opts.metrics.as_ref(), child_rows);
    Ok((Box::new(wrapped), Some(node)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::logical::asc;
    use crate::optimizer::test_fixtures::catalog;

    fn serial() -> ExecContext {
        ExecContext::new(&ExecOptions::serial())
    }

    #[test]
    fn limit_sort_fuses_to_topk() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .sort(vec![asc(col("big_v"))])
            .limit(5);
        let op = create_physical_plan(&plan, &cat, &ExecOptions::serial(), &serial()).unwrap();
        assert_eq!(op.name(), "TopK");
    }

    #[test]
    fn sort_without_limit_stays_sort() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .sort(vec![asc(col("big_v"))]);
        let op = create_physical_plan(&plan, &cat, &ExecOptions::serial(), &serial()).unwrap();
        assert_eq!(op.name(), "Sort");
    }

    #[test]
    fn join_without_keys_becomes_nested_loop() {
        let cat = catalog();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("small", &cat).unwrap()),
            right: Box::new(LogicalPlan::scan("small", &cat).unwrap()),
            on: vec![],
            join_type: crate::logical::JoinType::Inner,
        };
        let op = create_physical_plan(&plan, &cat, &ExecOptions::serial(), &serial()).unwrap();
        assert_eq!(op.name(), "NestedLoopJoin");
    }

    #[test]
    fn missing_table_at_execution() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "ghost".into(),
            table_schema: backbone_storage::Schema::empty(),
            projection: None,
            filters: vec![],
        };
        assert!(matches!(
            create_physical_plan(&plan, &cat, &ExecOptions::serial(), &serial()),
            Err(QueryError::TableNotFound(_))
        ));
    }

    #[test]
    fn filter_lowered() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .filter(col("big_v").lt(lit(3i64)));
        let op = create_physical_plan(&plan, &cat, &ExecOptions::serial(), &serial()).unwrap();
        assert_eq!(op.name(), "Filter");
    }
}
