//! Rule-based logical optimizer.
//!
//! Each rule is independently toggleable so experiment E6 can ablate them —
//! the paper's Alibaba/QWEN anecdote ("applying query optimization principles
//! ... significantly reducing costs") is tested by measuring each rule's
//! contribution on join-heavy analytical queries.

pub mod cardinality;
mod fold;
mod join_reorder;
mod prune;
mod pushdown;

pub use cardinality::estimate_rows;
pub use fold::fold_expr;

use crate::catalog::Catalog;
use crate::error::Result;
use crate::logical::LogicalPlan;

/// An optimizer rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Fold constant sub-expressions (`1 + 2` → `3`, `x AND true` → `x`).
    ConstantFolding,
    /// Push filter predicates toward scans and through joins.
    PredicatePushdown,
    /// Read only the columns a query needs.
    ProjectionPruning,
    /// Keep the written join order, and put the smaller estimated input of
    /// each inner equi-join on the hash-join build side.
    BuildSide,
}

impl Rule {
    /// All rules, in their canonical application order.
    pub fn all() -> Vec<Rule> {
        vec![
            Rule::ConstantFolding,
            Rule::PredicatePushdown,
            Rule::BuildSide,
            Rule::ProjectionPruning,
        ]
    }
}

/// Applies a configurable set of rewrite rules to a logical plan.
pub struct Optimizer {
    rules: Vec<Rule>,
}

impl Optimizer {
    /// An optimizer with every rule enabled.
    pub fn new() -> Optimizer {
        Optimizer { rules: Rule::all() }
    }

    /// An optimizer with a custom rule set (ablation studies; an empty list
    /// disables optimization entirely).
    pub fn with_rules(rules: Vec<Rule>) -> Optimizer {
        Optimizer { rules }
    }

    /// The enabled rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Rewrite `plan`. The result is semantically equivalent: the property
    /// tests in `tests/` verify optimized and unoptimized plans return the
    /// same rows.
    pub fn optimize(&self, plan: LogicalPlan, catalog: &dyn Catalog) -> Result<LogicalPlan> {
        let mut plan = plan;
        for rule in &self.rules {
            plan = match rule {
                Rule::ConstantFolding => fold::fold_plan(plan)?,
                Rule::PredicatePushdown => pushdown::push_down(plan)?,
                Rule::ProjectionPruning => prune::prune(plan)?,
                Rule::BuildSide => join_reorder::choose_build_sides(plan, catalog)?,
            };
        }
        Ok(plan)
    }
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new()
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use crate::catalog::MemCatalog;
    use backbone_storage::{DataType, Field, Schema, Table, Value};

    /// A catalog with `big` (1000 rows), `small` (10 rows), and `mid`
    /// (100 rows) tables sharing a key column `k` plus payloads.
    pub fn catalog() -> MemCatalog {
        let cat = MemCatalog::new();
        for (name, rows) in [("big", 1000i64), ("mid", 100), ("small", 10)] {
            let schema = Schema::new(vec![
                Field::new(format!("{name}_k"), DataType::Int64),
                Field::new(format!("{name}_v"), DataType::Int64),
                Field::new(format!("{name}_tag"), DataType::Utf8),
            ]);
            let mut t = Table::with_group_size(schema, 64);
            for i in 0..rows {
                t.append_row(vec![
                    Value::Int(i % 50),
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "a" } else { "b" }),
                ])
                .unwrap();
            }
            cat.register(name, t);
        }
        cat
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::catalog;
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn optimizer_runs_all_rules() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .filter(col("big_v").lt(lit(100i64)).and(lit(true)))
            .project(vec![col("big_k")]);
        let optimized = Optimizer::new().optimize(plan, &cat).unwrap();
        let text = optimized.display_indent();
        // Pushdown moved the filter into the scan; pruning set a projection.
        assert!(
            text.contains("filters="),
            "expected scan filters in:\n{text}"
        );
        assert!(
            text.contains("project="),
            "expected scan projection in:\n{text}"
        );
        // The folded `AND true` must be gone.
        assert!(!text.contains("AND true"), "constant not folded:\n{text}");
    }

    #[test]
    fn empty_rule_set_is_identity() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .filter(col("big_v").lt(lit(100i64)));
        let same = Optimizer::with_rules(vec![])
            .optimize(plan.clone(), &cat)
            .unwrap();
        assert_eq!(plan, same);
    }
}
