//! SQL front-end robustness: the parser must never panic, and structured
//! random queries must round-trip through planning and execution.

use backbone_query::{parse_select, ExecOptions, MemCatalog};
use backbone_storage::{DataType, Field, Schema, Table, Value};
use proptest::prelude::*;

fn catalog() -> MemCatalog {
    let cat = MemCatalog::new();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
        Field::new("s", DataType::Utf8),
    ]);
    let mut t = Table::with_group_size(schema, 8);
    for i in 0..40i64 {
        t.append_row(vec![
            Value::Int(i),
            Value::Int(i % 7),
            Value::str(format!("tag{}", i % 3)),
        ])
        .unwrap();
    }
    cat.register("t", t);
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary input must produce Ok or Err — never a panic.
    #[test]
    fn parser_never_panics(input in ".{0,120}") {
        let cat = catalog();
        let _ = parse_select(&input, &cat);
    }

    /// SQL-ish token soup must also never panic (more likely to get deep
    /// into the parser than fully random bytes).
    #[test]
    fn token_soup_never_panics(words in proptest::collection::vec(
        prop_oneof![
            Just("SELECT"), Just("FROM"), Just("WHERE"), Just("GROUP"), Just("BY"),
            Just("ORDER"), Just("LIMIT"), Just("JOIN"), Just("ON"), Just("AND"),
            Just("OR"), Just("NOT"), Just("LIKE"), Just("BETWEEN"), Just("AS"),
            Just("t"), Just("a"), Just("b"), Just("s"), Just("*"), Just(","),
            Just("("), Just(")"), Just("="), Just("<"), Just("1"), Just("'x'"),
            Just("COUNT"), Just("SUM"), Just("HAVING"), Just("IS"), Just("NULL"),
        ],
        0..25,
    )) {
        let cat = catalog();
        let sql = words.join(" ");
        let _ = parse_select(&sql, &cat);
    }

    /// Structured random queries must parse AND execute.
    #[test]
    fn generated_queries_execute(
        threshold in 0i64..40,
        limit in 1usize..20,
        desc in any::<bool>(),
        use_group in any::<bool>(),
    ) {
        let cat = catalog();
        let sql = if use_group {
            format!(
                "SELECT s, COUNT(*) AS n, SUM(b) AS total FROM t WHERE a < {threshold} \
                 GROUP BY s ORDER BY n {} LIMIT {limit}",
                if desc { "DESC" } else { "ASC" }
            )
        } else {
            format!(
                "SELECT a, b, s FROM t WHERE a < {threshold} OR b = 3 \
                 ORDER BY a {} LIMIT {limit}",
                if desc { "DESC" } else { "ASC" }
            )
        };
        let plan = parse_select(&sql, &cat).expect("generated SQL must parse");
        let out = backbone_query::execute(plan, &cat, &ExecOptions::default())
            .expect("generated SQL must execute");
        prop_assert!(out.num_rows() <= limit.max(3));
    }

    /// SQL and the equivalent builder plan agree.
    #[test]
    fn sql_matches_builder(threshold in -5i64..45) {
        use backbone_query::{col, lit, LogicalPlan};
        let cat = catalog();
        let sql_plan = parse_select(
            &format!("SELECT a FROM t WHERE b >= {threshold} ORDER BY a"),
            &cat,
        ).unwrap();
        let builder_plan = LogicalPlan::scan("t", &cat)
            .unwrap()
            .filter(col("b").gt_eq(lit(threshold)))
            .project(vec![col("a")])
            .sort(vec![backbone_query::logical::asc(col("a"))]);
        let a = backbone_query::execute(sql_plan, &cat, &ExecOptions::default()).unwrap();
        let b = backbone_query::execute(builder_plan, &cat, &ExecOptions::default()).unwrap();
        prop_assert_eq!(a.to_rows(), b.to_rows());
    }
}

#[test]
fn sql_plan_shapes_differ_but_answers_match() {
    // Filters written in WHERE vs pushed into scans via the optimizer give
    // the same rows: parse once, run with and without optimization.
    let cat = catalog();
    let plan = parse_select(
        "SELECT s, SUM(a) AS total FROM t WHERE a BETWEEN 5 AND 30 AND s LIKE 'tag%' GROUP BY s ORDER BY s",
        &cat,
    )
    .unwrap();
    let opt = backbone_query::execute(plan.clone(), &cat, &ExecOptions::default()).unwrap();
    let raw = backbone_query::execute(plan, &cat, &ExecOptions::unoptimized()).unwrap();
    assert_eq!(opt.to_rows(), raw.to_rows());
    assert_eq!(opt.num_rows(), 3);
}

/// The nesting shapes of a `WHERE` clause, `levels` deep: nested
/// parentheses, stacked prefix `NOT`s, a left-associative `+` chain, and
/// chains inside parentheses, where the parser recurses only `g` deep but
/// builds a tree `g²` deep (`g = √levels`, at most 60).
fn deep_queries(levels: usize) -> [String; 4] {
    let g = ((levels as f64).sqrt() as usize).min(60);
    [
        format!(
            "SELECT a FROM t WHERE {}a = 1{}",
            "(".repeat(levels),
            ")".repeat(levels)
        ),
        format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(levels)),
        format!("SELECT a FROM t WHERE a = 1{}", " + 1".repeat(levels)),
        format!(
            "SELECT a FROM t WHERE {}a{} = 0",
            "(".repeat(g),
            format!("{})", " + 1".repeat(g)).repeat(g)
        ),
    ]
}

#[test]
fn sql_depth_is_a_typed_error_not_a_stack_overflow() {
    let db = backbone_core::Database::new();
    db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int64)]))
        .unwrap();
    db.insert("t", (0..40).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    // Server workers run on 2 MiB spawned stacks.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for sql in deep_queries(100_000) {
                let err = db.sql(&sql).expect_err("100k levels must be rejected");
                assert!(err.to_string().contains("nests deeper"), "{err}");
            }
            // Just under the cap, every shape plans, runs and drops.
            let [parens, nots, chain, grouped] = deep_queries(backbone_query::sql::MAX_DEPTH - 8);
            assert_eq!(db.sql(&parens).unwrap().num_rows(), 1);
            assert_eq!(db.sql(&nots).unwrap().num_rows(), 1);
            assert_eq!(db.sql(&chain).unwrap().num_rows(), 0);
            assert_eq!(db.sql(&grouped).unwrap().num_rows(), 0);
        })
        .unwrap()
        .join()
        .expect("the parser must not overflow a 2 MiB stack");
}
