//! The vectorized expression evaluator against the row-at-a-time reference
//! interpreter: generated expressions over NULL-heavy data must agree on
//! every row, including NULL propagation and three-valued logic. Each
//! property is one slice of the differential oracle (`differential/`).

mod differential;

use backbone_query::optimizer::Rule;
use differential::*;

/// Arithmetic in the select list (`+ - * / %` and negation nested up to
/// four deep over columns and constant subexpressions), evaluated as
/// written: no rule rewrites it.
#[test]
fn int_expressions_match_model() {
    let slice = Slice::all()
        .every_seed()
        .forcing(&[Knob::Rules(Rules::None)]);
    let slice = slice.keep(|q| {
        let arithmetic = [" + ", " - ", " * ", " / ", " % ", "(-"];
        matches!(&q.select, Select::Rows(items)
            if items.iter().any(|i| arithmetic.iter().any(|op| i.sql.contains(op))))
    });
    run_slice(&slice, &[]);
}

/// Generated predicates projected as values: comparisons, IS NULL, IN,
/// BETWEEN, LIKE and AND/OR/NOT, NULL propagating by three-valued logic.
#[test]
fn bool_expressions_match_model() {
    let slice = Slice::all()
        .every_seed()
        .forcing(&[Knob::Rules(Rules::None)])
        .keep(|q| q.filter.is_some())
        .rewrite(|q| {
            let p = q.filter.as_ref().map(Pred::sql).unwrap_or_default();
            let b = Item {
                sql: format!("{p} AS b"),
                name: "b".into(),
            };
            Query {
                filter: None,
                select: Select::Rows(vec![b]),
                order: Vec::new(),
                limit: None,
                ..q
            }
        });
    run_slice(&slice, &[]);
}

/// Queries with constant subexpressions the folding rule rewrites (literal
/// arithmetic inside column expressions and IN lists, predicates over no
/// column under AND/OR/NOT) answer the same with folding on, off, and with
/// every rule off.
#[test]
fn folding_preserves_semantics() {
    let slice = Slice::all().every_seed().keep(folds);
    let rules = [
        Rules::All,
        Rules::AllBut(Rule::ConstantFolding),
        Rules::None,
    ];
    run_slice(&slice, &rules.map(Knob::Rules));
}
