//! Kernelized operators against naive row-at-a-time references.
//!
//! The selection-vector / typed-kernel execution path (filter views,
//! columnar aggregation, vectorized hash join, late-materializing top-k)
//! must be invisible in results: randomized tables — including NULL-heavy
//! ones — run through the engine and through a reference implementation
//! built on boxed `Value` rows, and every row must agree.

use backbone_query::logical::{asc, desc};
use backbone_query::{
    avg, col, count, count_star, execute, lit, max, min, sum, BinOp, ExecOptions, Expr, JoinType,
    LogicalPlan, MemCatalog, Parallelism,
};
use backbone_storage::table::{DEFAULT_ROW_GROUP_SIZE, TAIL_CHUNK_ROWS};
use backbone_storage::{Column, DataType, Field, RecordBatch, Schema, Table, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

/// One generated row: nullable int key, nullable int value, nullable float.
type Row = (Option<i64>, Option<i64>, Option<f64>);

fn value_of_int(v: Option<i64>) -> Value {
    v.map(Value::Int).unwrap_or(Value::Null)
}

fn value_of_float(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

/// Register `rows` as table `name` with columns `k`, `v`, `f`.
fn register(catalog: &MemCatalog, name: &str, rows: &[Row]) {
    let schema = Schema::new(vec![
        Field::nullable("k", DataType::Int64),
        Field::nullable("v", DataType::Int64),
        Field::nullable("f", DataType::Float64),
    ]);
    let mut table = Table::new(schema);
    for (k, v, f) in rows {
        table
            .append_row(vec![value_of_int(*k), value_of_int(*v), value_of_float(*f)])
            .expect("schema matches");
    }
    table.flush().expect("in-memory flush");
    catalog.register(name, table);
}

/// Row lists match, with tolerance on floats (kernels may reassociate sums).
fn assert_rows_match(got: &[Vec<Value>], want: &[Vec<Value>], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: row count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{context}: width of row {i}");
        for (a, b) in g.iter().zip(w) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => {
                    let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= tol, "{context}: row {i}: {x} vs {y}");
                }
                _ => assert_eq!(a, b, "{context}: row {i}"),
            }
        }
    }
}

/// `None` with weight `null_weight` against weight 10 for `Some(inner)`.
fn maybe<T: std::fmt::Debug>(
    null_weight: u32,
    inner: impl Strategy<Value = T>,
) -> impl Strategy<Value = Option<T>> {
    (0u32..(10 + null_weight), inner).prop_map(move |(sel, v)| (sel >= null_weight).then_some(v))
}

fn arbitrary_rows(max_len: usize, null_weight: u32) -> impl Strategy<Value = Vec<Row>> {
    let cell = (
        maybe(null_weight, -4i64..8),
        maybe(null_weight, -100i64..100),
        maybe(null_weight, -50.0f64..50.0),
    );
    proptest::collection::vec(cell, 0..max_len)
}

// ---- Filter --------------------------------------------------------------

fn check_filter(rows: &[Row], threshold: i64) {
    let catalog = MemCatalog::new();
    register(&catalog, "t", rows);
    let plan = LogicalPlan::scan("t", &catalog)
        .unwrap()
        .filter(col("v").gt_eq(lit(threshold)));
    let got = execute(plan, &catalog, &ExecOptions::default())
        .unwrap()
        .to_rows();
    let want: Vec<Vec<Value>> = rows
        .iter()
        .filter(|(_, v, _)| v.is_some_and(|v| v >= threshold))
        .map(|(k, v, f)| vec![value_of_int(*k), value_of_int(*v), value_of_float(*f)])
        .collect();
    assert_rows_match(&got, &want, "filter");
}

// ---- Aggregate -----------------------------------------------------------

fn check_aggregate(rows: &[Row]) {
    let catalog = MemCatalog::new();
    register(&catalog, "t", rows);
    let plan = LogicalPlan::scan("t", &catalog).unwrap().aggregate(
        vec![col("k")],
        vec![
            count_star().alias("n"),
            count(col("v")).alias("nv"),
            sum(col("v")).alias("sv"),
            min(col("v")).alias("minv"),
            max(col("v")).alias("maxv"),
            avg(col("f")).alias("af"),
        ],
    );
    let got = execute(plan, &catalog, &ExecOptions::default())
        .unwrap()
        .to_rows();

    // Reference: group in first-appearance order; NULL keys form one group.
    let mut keys: Vec<Option<i64>> = Vec::new();
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    for row in rows {
        match keys.iter().position(|k| *k == row.0) {
            Some(i) => groups[i].push(row),
            None => {
                keys.push(row.0);
                groups.push(vec![row]);
            }
        }
    }
    let want: Vec<Vec<Value>> = keys
        .iter()
        .zip(&groups)
        .map(|(k, g)| {
            let vs: Vec<i64> = g.iter().filter_map(|r| r.1).collect();
            let fs: Vec<f64> = g.iter().filter_map(|r| r.2).collect();
            vec![
                value_of_int(*k),
                Value::Int(g.len() as i64),
                Value::Int(vs.len() as i64),
                value_of_int((!vs.is_empty()).then(|| vs.iter().sum())),
                value_of_int(vs.iter().copied().min()),
                value_of_int(vs.iter().copied().max()),
                value_of_float((!fs.is_empty()).then(|| fs.iter().sum::<f64>() / fs.len() as f64)),
            ]
        })
        .collect();
    assert_rows_match(&got, &want, "aggregate");
}

// ---- Join ----------------------------------------------------------------

fn join_key(row: &[Value]) -> String {
    row.iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join("|")
}

fn check_join(left: &[Row], right: &[Row], join_type: JoinType) {
    let catalog = MemCatalog::new();
    register(&catalog, "l", left);
    let schema = Schema::new(vec![
        Field::nullable("rk", DataType::Int64),
        Field::nullable("rv", DataType::Int64),
    ]);
    let mut table = Table::new(schema);
    for (k, v, _) in right {
        table
            .append_row(vec![value_of_int(*k), value_of_int(*v)])
            .expect("schema matches");
    }
    table.flush().expect("in-memory flush");
    catalog.register("r", table);

    let plan = LogicalPlan::scan("l", &catalog).unwrap().join(
        LogicalPlan::scan("r", &catalog).unwrap(),
        vec![("k", "rk")],
        join_type,
    );
    let mut got = execute(plan, &catalog, &ExecOptions::default())
        .unwrap()
        .to_rows();

    // Reference nested loop; NULL keys never match. Compare order-insensitively
    // (the optimizer may swap build/probe sides).
    let mut want: Vec<Vec<Value>> = Vec::new();
    for (lk, lv, lf) in left {
        let mut matched = false;
        for (rk, rv, _) in right {
            if let (Some(a), Some(b)) = (lk, rk) {
                if a == b {
                    matched = true;
                    want.push(vec![
                        value_of_int(*lk),
                        value_of_int(*lv),
                        value_of_float(*lf),
                        value_of_int(*rk),
                        value_of_int(*rv),
                    ]);
                }
            }
        }
        if !matched && join_type == JoinType::Left {
            want.push(vec![
                value_of_int(*lk),
                value_of_int(*lv),
                value_of_float(*lf),
                Value::Null,
                Value::Null,
            ]);
        }
    }
    got.sort_by_key(|r| join_key(r));
    want.sort_by_key(|r| join_key(r));
    assert_rows_match(&got, &want, "join");
}

// ---- Top-K ---------------------------------------------------------------

fn check_topk(rows: &[Row], k: usize) {
    let catalog = MemCatalog::new();
    register(&catalog, "t", rows);
    let plan = LogicalPlan::scan("t", &catalog)
        .unwrap()
        .sort(vec![desc(col("v")), asc(col("k"))])
        .limit(k);
    let got = execute(plan, &catalog, &ExecOptions::default())
        .unwrap()
        .to_rows();
    let mut want: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, v, f)| vec![value_of_int(*k), value_of_int(*v), value_of_float(*f)])
        .collect();
    // Stable sort mirrors the engine's tie behavior (input order preserved).
    want.sort_by(|a, b| match b[1].sql_cmp(&a[1]) {
        Ordering::Equal => a[0].sql_cmp(&b[0]),
        ord => ord,
    });
    want.truncate(k);
    assert_rows_match(&got, &want, "topk");
}

// ---- Properties ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_matches_reference(rows in arbitrary_rows(160, 3), t in -100i64..100) {
        check_filter(&rows, t);
    }

    #[test]
    fn aggregate_matches_reference(rows in arbitrary_rows(160, 3)) {
        check_aggregate(&rows);
    }

    #[test]
    fn aggregate_matches_reference_null_heavy(rows in arbitrary_rows(120, 30)) {
        check_aggregate(&rows);
    }

    #[test]
    fn inner_join_matches_reference(
        left in arbitrary_rows(60, 3),
        right in arbitrary_rows(60, 3),
    ) {
        check_join(&left, &right, JoinType::Inner);
    }

    #[test]
    fn left_join_matches_reference(
        left in arbitrary_rows(60, 8),
        right in arbitrary_rows(60, 8),
    ) {
        check_join(&left, &right, JoinType::Left);
    }

    #[test]
    fn topk_matches_reference(rows in arbitrary_rows(160, 3), k in 0usize..20) {
        check_topk(&rows, k);
    }
}

// ---- Deterministic edge cases -------------------------------------------

#[test]
fn empty_selection_flows_through_every_operator() {
    // A predicate nothing satisfies: downstream kernels see batches whose
    // selection is empty and must still produce correct (empty/default) rows.
    let rows: Vec<Row> = (0..50).map(|i| (Some(i % 5), Some(i), None)).collect();
    let catalog = MemCatalog::new();
    register(&catalog, "t", &rows);

    let filtered = || {
        LogicalPlan::scan("t", &catalog)
            .unwrap()
            .filter(col("v").gt(lit(10_000i64)))
    };
    let out = execute(filtered(), &catalog, &ExecOptions::default()).unwrap();
    assert_eq!(out.num_rows(), 0);

    // Global aggregate over zero rows: COUNT = 0, SUM = NULL.
    let plan = filtered().aggregate(
        vec![],
        vec![count_star().alias("n"), sum(col("v")).alias("s")],
    );
    let out = execute(plan, &catalog, &ExecOptions::default()).unwrap();
    assert_eq!(out.to_rows(), vec![vec![Value::Int(0), Value::Null]]);

    // Keyed aggregate over zero rows: no groups at all.
    let plan = filtered().aggregate(vec![col("k")], vec![count_star().alias("n")]);
    let out = execute(plan, &catalog, &ExecOptions::default()).unwrap();
    assert_eq!(out.num_rows(), 0);

    // Join against an empty side and top-k over nothing.
    let plan = filtered().join_on(LogicalPlan::scan("t", &catalog).unwrap(), vec![("v", "v")]);
    let out = execute(plan, &catalog, &ExecOptions::default()).unwrap();
    assert_eq!(out.num_rows(), 0);
    let plan = filtered().sort(vec![asc(col("v"))]).limit(5);
    let out = execute(plan, &catalog, &ExecOptions::default()).unwrap();
    assert_eq!(out.num_rows(), 0);
}

// ---- Dictionary-encoded vs plain strings ---------------------------------

/// One generated string row: nullable low-cardinality tag, nullable int.
type SRow = (Option<String>, Option<i64>);

/// Register `rows` twice under `<stem>_plain` / `<stem>_dict`: identical
/// contents, but the dict twin's string column is dictionary-encoded. Any
/// plan must produce identical rows on both — encoding is purely physical.
fn register_string_pair(catalog: &MemCatalog, stem: &str, rows: &[SRow], sname: &str, vname: &str) {
    let schema = Schema::new(vec![
        Field::nullable(sname, DataType::Utf8),
        Field::nullable(vname, DataType::Int64),
    ]);
    let svals: Vec<Value> = rows
        .iter()
        .map(|(s, _)| s.clone().map(Value::str).unwrap_or(Value::Null))
        .collect();
    let vvals: Vec<Value> = rows.iter().map(|(_, v)| value_of_int(*v)).collect();
    let plain = Column::from_values(DataType::Utf8, &svals).expect("utf8 column");
    let dict = plain.dict_encode().expect("utf8 columns always encode");
    let ints = Column::from_values(DataType::Int64, &vvals).expect("int column");
    for (suffix, scol) in [("plain", plain), ("dict", dict)] {
        let mut table = Table::new(schema.clone());
        if !rows.is_empty() {
            let batch =
                RecordBatch::try_new(schema.clone(), vec![Arc::new(scol), Arc::new(ints.clone())])
                    .expect("columns match schema");
            table.push_sealed_batch(batch).expect("sealed batch");
        }
        catalog.register(format!("{stem}_{suffix}"), table);
    }
}

/// Run the same plan against the `_plain` twin and the `_{encoded_sfx}`
/// twin; encoded rows must match plain rows exactly (optionally
/// order-insensitively) — encoding is purely physical.
fn twins_match_sfx(
    catalog: &MemCatalog,
    stem: &str,
    encoded_sfx: &str,
    context: &str,
    sort: bool,
    make: &dyn Fn(&str) -> LogicalPlan,
) {
    let run = |sfx: &str| {
        let mut rows = execute(
            make(&format!("{stem}_{sfx}")),
            catalog,
            &ExecOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{context} on {stem}_{sfx}: {e}"))
        .to_rows();
        if sort {
            rows.sort_by_key(|r| join_key(r));
        }
        rows
    };
    let plain = run("plain");
    let encoded = run(encoded_sfx);
    assert_rows_match(&encoded, &plain, context);
}

/// Dict-twin shorthand for [`twins_match_sfx`].
fn twins_match(
    catalog: &MemCatalog,
    stem: &str,
    context: &str,
    sort: bool,
    make: &dyn Fn(&str) -> LogicalPlan,
) {
    twins_match_sfx(catalog, stem, "dict", context, sort, make);
}

/// Filters, aggregation, and top-k over a dict column vs its plain twin.
fn check_dict_vs_plain(rows: &[SRow]) {
    let catalog = MemCatalog::new();
    register_string_pair(&catalog, "t", rows, "s", "v");
    let scan = |name: &str| LogicalPlan::scan(name, &catalog).expect("table registered");

    // Accept-set comparison kernels: =, <>, range, LIKE, [NOT] IN.
    type PredFn = Box<dyn Fn() -> backbone_query::Expr>;
    let filters: Vec<(&str, PredFn)> = vec![
        ("s = lit", Box::new(|| col("s").eq(lit("birch")))),
        ("s <> lit", Box::new(|| col("s").not_eq(lit("cedar")))),
        ("s < lit", Box::new(|| col("s").lt(lit("birch")))),
        ("s LIKE prefix", Box::new(|| col("s").like("b%"))),
        ("s LIKE segmented", Box::new(|| col("s").like("%e%a%"))),
        (
            "s NOT LIKE underscore",
            Box::new(|| col("s").not_like("_sh")),
        ),
        (
            "s IN list",
            Box::new(|| col("s").in_list(vec![lit("ash"), lit("delta"), lit("absent")])),
        ),
        (
            "s NOT IN list",
            Box::new(|| col("s").not_in_list(vec![lit("birch"), lit("cedar")])),
        ),
    ];
    for (context, pred) in &filters {
        twins_match(&catalog, "t", context, false, &|n| scan(n).filter(pred()));
    }

    // Group-by on the dict key, with string min/max riding along.
    twins_match(&catalog, "t", "group by s", true, &|n| {
        scan(n).aggregate(
            vec![col("s")],
            vec![
                count_star().alias("n"),
                sum(col("v")).alias("sv"),
                min(col("s")).alias("mins"),
                max(col("s")).alias("maxs"),
            ],
        )
    });

    // Top-k gathers codes and late-materializes at the drain boundary.
    twins_match(&catalog, "t", "topk over dict", false, &|n| {
        scan(n).sort(vec![desc(col("v")), asc(col("s"))]).limit(7)
    });
}

/// Joins on string keys across every encoding combination: dict⋈dict (two
/// distinct dictionaries), dict⋈plain, plain⋈dict — all must equal plain⋈plain.
fn check_dict_join(left: &[SRow], right: &[SRow], join_type: JoinType) {
    let catalog = MemCatalog::new();
    register_string_pair(&catalog, "l", left, "s", "v");
    register_string_pair(&catalog, "r", right, "rs", "rv");
    let run = |ln: &str, rn: &str| {
        let plan = LogicalPlan::scan(ln, &catalog).unwrap().join(
            LogicalPlan::scan(rn, &catalog).unwrap(),
            vec![("s", "rs")],
            join_type,
        );
        let mut rows = execute(plan, &catalog, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("join {ln} x {rn}: {e}"))
            .to_rows();
        rows.sort_by_key(|r| join_key(r));
        rows
    };
    let base = run("l_plain", "r_plain");
    for (ln, rn) in [
        ("l_dict", "r_dict"),
        ("l_dict", "r_plain"),
        ("l_plain", "r_dict"),
    ] {
        assert_rows_match(&run(ln, rn), &base, &format!("join {ln} x {rn}"));
    }
}

fn tag() -> impl Strategy<Value = String> {
    prop_oneof![Just("ash"), Just("birch"), Just("cedar"), Just("delta")].prop_map(str::to_owned)
}

fn arbitrary_srows(max_len: usize, null_weight: u32) -> impl Strategy<Value = Vec<SRow>> {
    let cell = (maybe(null_weight, tag()), maybe(3, -50i64..50));
    proptest::collection::vec(cell, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dict_execution_matches_plain(rows in arbitrary_srows(120, 3)) {
        check_dict_vs_plain(&rows);
    }

    #[test]
    fn dict_execution_matches_plain_null_heavy(rows in arbitrary_srows(80, 30)) {
        check_dict_vs_plain(&rows);
    }

    #[test]
    fn dict_inner_join_matches_plain(
        left in arbitrary_srows(60, 3),
        right in arbitrary_srows(60, 3),
    ) {
        check_dict_join(&left, &right, JoinType::Inner);
    }

    #[test]
    fn dict_left_join_matches_plain(
        left in arbitrary_srows(50, 8),
        right in arbitrary_srows(50, 8),
    ) {
        check_dict_join(&left, &right, JoinType::Left);
    }
}

#[test]
fn all_duplicate_dict_batch_matches_plain() {
    // One distinct entry: every accept-set collapses to a single lane answer
    // and group-by produces exactly one (or two, with NULLs) groups.
    let rows: Vec<SRow> = (0..100)
        .map(|i| {
            let s = (i % 9 != 0).then(|| "same".to_string());
            (s, Some(i % 7))
        })
        .collect();
    check_dict_vs_plain(&rows);
    check_dict_join(&rows, &rows, JoinType::Inner);
}

#[test]
fn empty_selection_flows_through_dict_operators() {
    // A predicate no dictionary entry satisfies: the accept-set is all-false
    // and downstream operators see empty selections over encoded columns.
    let rows: Vec<SRow> = (0..64)
        .map(|i| (Some(format!("tag-{}", i % 4)), Some(i)))
        .collect();
    let catalog = MemCatalog::new();
    register_string_pair(&catalog, "t", &rows, "s", "v");
    let filtered = |n: &str| {
        LogicalPlan::scan(n, &catalog)
            .unwrap()
            .filter(col("s").eq(lit("absent")))
    };
    for plan in [
        filtered("t_dict"),
        filtered("t_dict").aggregate(vec![col("s")], vec![count_star().alias("n")]),
        filtered("t_dict").sort(vec![asc(col("s"))]).limit(5),
    ] {
        let out = execute(plan, &catalog, &ExecOptions::default()).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
    twins_match(&catalog, "t", "empty selection aggregate", true, &|n| {
        filtered(n).aggregate(vec![col("s")], vec![count_star().alias("n")])
    });
}

// ---- Encoded integers vs plain -------------------------------------------

/// Register `rows` twice under `<stem>_plain` / `<stem>_enc`: identical
/// contents, but the enc twin's two integer columns are sealed as
/// [`Column::Int64Encoded`] (RLE or frame-of-reference bit-packing, chosen
/// per column by size). Any plan must produce identical rows on both.
fn register_encoded_pair(
    catalog: &MemCatalog,
    stem: &str,
    rows: &[Row],
    names: (&str, &str, &str),
) {
    let schema = Schema::new(vec![
        Field::nullable(names.0, DataType::Int64),
        Field::nullable(names.1, DataType::Int64),
        Field::nullable(names.2, DataType::Float64),
    ]);
    let kvals: Vec<Value> = rows.iter().map(|(k, _, _)| value_of_int(*k)).collect();
    let vvals: Vec<Value> = rows.iter().map(|(_, v, _)| value_of_int(*v)).collect();
    let fvals: Vec<Value> = rows.iter().map(|(_, _, f)| value_of_float(*f)).collect();
    let kcol = Column::from_values(DataType::Int64, &kvals).expect("int column");
    let vcol = Column::from_values(DataType::Int64, &vvals).expect("int column");
    let fcol = Column::from_values(DataType::Float64, &fvals).expect("float column");
    let kenc = kcol.int64_encode().expect("plain int columns encode");
    let venc = vcol.int64_encode().expect("plain int columns encode");
    for (suffix, kc, vc) in [("plain", kcol, vcol), ("enc", kenc, venc)] {
        let mut table = Table::new(schema.clone());
        if !rows.is_empty() {
            let batch = RecordBatch::try_new(
                schema.clone(),
                vec![Arc::new(kc), Arc::new(vc), Arc::new(fcol.clone())],
            )
            .expect("columns match schema");
            table.push_sealed_batch(batch).expect("sealed batch");
        }
        catalog.register(format!("{stem}_{suffix}"), table);
    }
}

/// Filters, aggregation, and top-k over encoded int columns vs plain twins.
fn check_encoded_vs_plain(rows: &[Row]) {
    let catalog = MemCatalog::new();
    register_encoded_pair(&catalog, "t", rows, ("k", "v", "f"));
    let scan = |name: &str| LogicalPlan::scan(name, &catalog).expect("table registered");

    type PredFn = Box<dyn Fn() -> backbone_query::Expr>;
    let filters: Vec<(&str, PredFn)> = vec![
        ("v >= lit", Box::new(|| col("v").gt_eq(lit(0i64)))),
        ("v = lit", Box::new(|| col("v").eq(lit(7i64)))),
        ("v <> lit", Box::new(|| col("v").not_eq(lit(3i64)))),
        ("k < lit", Box::new(|| col("k").lt(lit(2i64)))),
        (
            "v IN list",
            Box::new(|| col("v").in_list(vec![lit(1i64), lit(-4i64), lit(99i64)])),
        ),
        (
            "conjunction over both encoded columns",
            Box::new(|| col("k").gt_eq(lit(-2i64)).and(col("v").lt(lit(50i64)))),
        ),
    ];
    for (context, pred) in &filters {
        twins_match_sfx(&catalog, "t", "enc", context, false, &|n| {
            scan(n).filter(pred())
        });
    }

    // Group by the encoded key with the full accumulator set riding along.
    twins_match_sfx(&catalog, "t", "enc", "group by encoded k", true, &|n| {
        scan(n).aggregate(
            vec![col("k")],
            vec![
                count_star().alias("n"),
                count(col("v")).alias("nv"),
                sum(col("v")).alias("sv"),
                min(col("v")).alias("minv"),
                max(col("v")).alias("maxv"),
                avg(col("f")).alias("af"),
            ],
        )
    });

    // Top-k orders on the encoded value column.
    twins_match_sfx(&catalog, "t", "enc", "topk over encoded v", false, &|n| {
        scan(n).sort(vec![desc(col("v")), asc(col("k"))]).limit(7)
    });
}

/// Joins on encoded int keys across every encoding combination: enc⋈enc,
/// enc⋈plain, plain⋈enc — all must equal plain⋈plain.
fn check_encoded_join(left: &[Row], right: &[Row], join_type: JoinType) {
    let catalog = MemCatalog::new();
    register_encoded_pair(&catalog, "l", left, ("k", "v", "f"));
    register_encoded_pair(&catalog, "r", right, ("rk", "rv", "rf"));
    let run = |ln: &str, rn: &str| {
        let plan = LogicalPlan::scan(ln, &catalog).unwrap().join(
            LogicalPlan::scan(rn, &catalog).unwrap(),
            vec![("k", "rk")],
            join_type,
        );
        let mut rows = execute(plan, &catalog, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("join {ln} x {rn}: {e}"))
            .to_rows();
        rows.sort_by_key(|r| join_key(r));
        rows
    };
    let base = run("l_plain", "r_plain");
    for (ln, rn) in [
        ("l_enc", "r_enc"),
        ("l_enc", "r_plain"),
        ("l_plain", "r_enc"),
    ] {
        assert_rows_match(&run(ln, rn), &base, &format!("join {ln} x {rn}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn encoded_execution_matches_plain(rows in arbitrary_rows(120, 3)) {
        check_encoded_vs_plain(&rows);
    }

    #[test]
    fn encoded_execution_matches_plain_null_heavy(rows in arbitrary_rows(80, 30)) {
        check_encoded_vs_plain(&rows);
    }

    #[test]
    fn encoded_inner_join_matches_plain(
        left in arbitrary_rows(60, 3),
        right in arbitrary_rows(60, 3),
    ) {
        check_encoded_join(&left, &right, JoinType::Inner);
    }

    #[test]
    fn encoded_left_join_matches_plain(
        left in arbitrary_rows(50, 8),
        right in arbitrary_rows(50, 8),
    ) {
        check_encoded_join(&left, &right, JoinType::Left);
    }
}

#[test]
fn run_heavy_and_churn_encodings_match_plain() {
    // Long runs pick RLE (kernels then evaluate per run); high churn over a
    // small range picks bit-packing. Both must be invisible in results.
    let runs: Vec<Row> = (0..200)
        .map(|i| (Some(i / 40), Some(i / 25), Some(i as f64)))
        .collect();
    check_encoded_vs_plain(&runs);
    let churn: Vec<Row> = (0..200)
        .map(|i| (Some(i % 7), Some(i * 31 % 64), None))
        .collect();
    check_encoded_vs_plain(&churn);
    check_encoded_join(&runs, &churn, JoinType::Inner);
}

#[test]
fn empty_selection_flows_through_encoded_operators() {
    // A predicate nothing satisfies: downstream operators see empty
    // selections over encoded columns.
    let rows: Vec<Row> = (0..64).map(|i| (Some(i % 4), Some(i), None)).collect();
    let catalog = MemCatalog::new();
    register_encoded_pair(&catalog, "t", &rows, ("k", "v", "f"));
    let filtered = |n: &str| {
        LogicalPlan::scan(n, &catalog)
            .unwrap()
            .filter(col("v").gt(lit(10_000i64)))
    };
    for plan in [
        filtered("t_enc"),
        filtered("t_enc").aggregate(vec![col("k")], vec![count_star().alias("n")]),
        filtered("t_enc").sort(vec![asc(col("v"))]).limit(5),
    ] {
        let out = execute(plan, &catalog, &ExecOptions::default()).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
    twins_match_sfx(
        &catalog,
        "t",
        "enc",
        "empty selection aggregate",
        true,
        &|n| filtered(n).aggregate(vec![col("k")], vec![count_star().alias("n")]),
    );
}

// ---- Parallel vs serial --------------------------------------------------
//
// Morsel-driven execution must be invisible in results: the same plan runs
// serially and at parallelism 1/2/8, and the (sorted) rows must be
// identical. Row groups are kept small so parallel scans see many morsels.

fn register_small_groups(catalog: &MemCatalog, name: &str, rows: &[Row]) {
    let schema = Schema::new(vec![
        Field::nullable("k", DataType::Int64),
        Field::nullable("v", DataType::Int64),
        Field::nullable("f", DataType::Float64),
    ]);
    let mut table = Table::with_group_size(schema, 32);
    for (k, v, f) in rows {
        table
            .append_row(vec![value_of_int(*k), value_of_int(*v), value_of_float(*f)])
            .expect("schema matches");
    }
    table.flush().expect("in-memory flush");
    catalog.register(name, table);
}

/// Execute `make()` serially and at worker counts 1/2/8; all runs must
/// produce the same sorted rows.
fn parallel_matches_serial(catalog: &MemCatalog, context: &str, make: &dyn Fn() -> LogicalPlan) {
    let run = |p: Parallelism| {
        let mut rows = execute(make(), catalog, &ExecOptions::serial().parallel(p))
            .unwrap_or_else(|e| panic!("{context} at {p:?}: {e}"))
            .to_rows();
        rows.sort_by_key(|r| join_key(r));
        rows
    };
    let serial = run(Parallelism::Serial);
    for p in [
        Parallelism::Fixed(1),
        Parallelism::Fixed(2),
        Parallelism::Fixed(8),
    ] {
        assert_rows_match(&run(p), &serial, &format!("{context} at {p:?}"));
    }
}

fn check_parallel(rows: &[Row], threshold: i64, k: usize) {
    let catalog = MemCatalog::new();
    register_small_groups(&catalog, "t", rows);
    let scan = || LogicalPlan::scan("t", &catalog).expect("registered");

    parallel_matches_serial(&catalog, "parallel filter", &|| {
        scan().filter(col("v").gt_eq(lit(threshold)))
    });
    parallel_matches_serial(&catalog, "parallel group-by", &|| {
        scan().aggregate(
            vec![col("k")],
            vec![
                count_star().alias("n"),
                count(col("v")).alias("nv"),
                sum(col("v")).alias("sv"),
                min(col("v")).alias("minv"),
                max(col("v")).alias("maxv"),
                avg(col("f")).alias("af"),
            ],
        )
    });
    parallel_matches_serial(&catalog, "parallel global agg", &|| {
        scan().aggregate(
            vec![],
            vec![count_star().alias("n"), sum(col("v")).alias("sv")],
        )
    });
    // Sort keys cover every column so the k-boundary is total-ordered and
    // serial/parallel keep the identical row set.
    parallel_matches_serial(&catalog, "parallel topk", &|| {
        scan()
            .sort(vec![desc(col("v")), asc(col("k")), asc(col("f"))])
            .limit(k)
    });
}

fn check_parallel_join(left: &[Row], right: &[Row], join_type: JoinType) {
    let catalog = MemCatalog::new();
    register_small_groups(&catalog, "l", left);
    let schema = Schema::new(vec![
        Field::nullable("rk", DataType::Int64),
        Field::nullable("rv", DataType::Int64),
    ]);
    let mut table = Table::with_group_size(schema, 32);
    for (k, v, _) in right {
        table
            .append_row(vec![value_of_int(*k), value_of_int(*v)])
            .expect("schema matches");
    }
    table.flush().expect("in-memory flush");
    catalog.register("r", table);
    parallel_matches_serial(&catalog, "parallel join", &|| {
        LogicalPlan::scan("l", &catalog).unwrap().join(
            LogicalPlan::scan("r", &catalog).unwrap(),
            vec![("k", "rk")],
            join_type,
        )
    });
}

/// Dict-encoded pipelines under parallel execution: group-by, filter, join
/// on the dictionary twin at every worker count.
fn check_parallel_dict(rows: &[SRow]) {
    let catalog = MemCatalog::new();
    register_string_pair(&catalog, "t", rows, "s", "v");
    register_string_pair(&catalog, "r", rows, "rs", "rv");
    let scan = |n: &str| LogicalPlan::scan(n, &catalog).expect("registered");
    parallel_matches_serial(&catalog, "parallel dict filter", &|| {
        scan("t_dict").filter(col("s").like("b%"))
    });
    parallel_matches_serial(&catalog, "parallel dict group-by", &|| {
        scan("t_dict").aggregate(
            vec![col("s")],
            vec![
                count_star().alias("n"),
                sum(col("v")).alias("sv"),
                min(col("s")).alias("mins"),
                max(col("s")).alias("maxs"),
            ],
        )
    });
    parallel_matches_serial(&catalog, "parallel dict join", &|| {
        scan("t_dict").join(scan("r_dict"), vec![("s", "rs")], JoinType::Inner)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_execution_matches_serial(
        rows in arbitrary_rows(160, 3),
        t in -100i64..100,
        k in 0usize..20,
    ) {
        check_parallel(&rows, t, k);
    }

    #[test]
    fn parallel_execution_matches_serial_null_heavy(
        rows in arbitrary_rows(120, 30),
        t in -100i64..100,
        k in 0usize..20,
    ) {
        check_parallel(&rows, t, k);
    }

    #[test]
    fn parallel_inner_join_matches_serial(
        left in arbitrary_rows(60, 3),
        right in arbitrary_rows(60, 3),
    ) {
        check_parallel_join(&left, &right, JoinType::Inner);
    }

    #[test]
    fn parallel_left_join_matches_serial(
        left in arbitrary_rows(60, 8),
        right in arbitrary_rows(60, 8),
    ) {
        check_parallel_join(&left, &right, JoinType::Left);
    }

    #[test]
    fn parallel_dict_execution_matches_serial(rows in arbitrary_srows(100, 6)) {
        check_parallel_dict(&rows);
    }
}

#[test]
fn parallel_empty_selection_flows_through_every_operator() {
    // A predicate nothing satisfies, at every worker count: downstream
    // parallel operators see batches with empty selections (or none at all).
    let rows: Vec<Row> = (0..120).map(|i| (Some(i % 5), Some(i), None)).collect();
    let catalog = MemCatalog::new();
    register_small_groups(&catalog, "t", &rows);
    let filtered = || {
        LogicalPlan::scan("t", &catalog)
            .unwrap()
            .filter(col("v").gt(lit(10_000i64)))
    };
    parallel_matches_serial(&catalog, "parallel empty filter", &filtered);
    parallel_matches_serial(&catalog, "parallel empty global agg", &|| {
        filtered().aggregate(
            vec![],
            vec![count_star().alias("n"), sum(col("v")).alias("s")],
        )
    });
    parallel_matches_serial(&catalog, "parallel empty group-by", &|| {
        filtered().aggregate(vec![col("k")], vec![count_star().alias("n")])
    });
    parallel_matches_serial(&catalog, "parallel empty topk", &|| {
        filtered().sort(vec![asc(col("v"))]).limit(5)
    });
}

#[test]
fn parallel_auto_runs_and_matches_serial() {
    // Auto resolves to the machine's core count (serial on 1 vCPU); either
    // way results must be identical to the serial plan.
    let rows: Vec<Row> = (0..200)
        .map(|i| (Some(i % 7), Some(i * 3 % 101), Some(i as f64 / 3.0)))
        .collect();
    let catalog = MemCatalog::new();
    register_small_groups(&catalog, "t", &rows);
    let plan = || {
        LogicalPlan::scan("t", &catalog)
            .unwrap()
            .aggregate(vec![col("k")], vec![sum(col("v")).alias("sv")])
    };
    let sorted = |opts: &ExecOptions| {
        let mut rows = execute(plan(), &catalog, opts).unwrap().to_rows();
        rows.sort_by_key(|r| join_key(r));
        rows
    };
    let serial = sorted(&ExecOptions::serial());
    let auto = sorted(&ExecOptions::serial().parallel(Parallelism::Auto));
    assert_rows_match(&auto, &serial, "parallel auto");
}

#[test]
fn all_null_keys_aggregate_to_one_group() {
    let rows: Vec<Row> = (0..40).map(|i| (None, Some(i), Some(i as f64))).collect();
    check_aggregate(&rows);
    let catalog = MemCatalog::new();
    register(&catalog, "t", &rows);
    let plan = LogicalPlan::scan("t", &catalog)
        .unwrap()
        .aggregate(vec![col("k")], vec![count_star().alias("n")]);
    let out = execute(plan, &catalog, &ExecOptions::default()).unwrap();
    assert_eq!(out.to_rows(), vec![vec![Value::Null, Value::Int(40)]]);
}

// ---- Out-of-core: tiny memory budgets force spills ------------------------
//
// The same plans run unbudgeted (serial), budget-capped serial, and
// budget-capped Fixed(4); all three must produce identical sorted rows, and
// the capped runs must actually go through the spill path.

/// Run `make()` under each option set and compare sorted rows to the first.
fn budget_matches_unbudgeted(
    catalog: &MemCatalog,
    context: &str,
    budget: usize,
    make: &dyn Fn() -> LogicalPlan,
) -> backbone_storage::Metrics {
    let spill_metrics = backbone_storage::Metrics::new();
    let run = |opts: &ExecOptions| {
        let mut rows = execute(make(), catalog, opts)
            .unwrap_or_else(|e| panic!("{context}: {e}"))
            .to_rows();
        rows.sort_by_key(|r| join_key(r));
        rows
    };
    let base = run(&ExecOptions::serial());
    let serial_capped = run(&ExecOptions::serial()
        .with_mem_budget(budget)
        .with_metrics(spill_metrics.clone()));
    assert_rows_match(
        &serial_capped,
        &base,
        &format!("{context} (serial, capped)"),
    );
    let parallel_capped = run(&ExecOptions::serial()
        .parallel(Parallelism::Fixed(4))
        .with_mem_budget(budget)
        .with_metrics(spill_metrics.clone()));
    assert_rows_match(
        &parallel_capped,
        &base,
        &format!("{context} (Fixed(4), capped)"),
    );
    spill_metrics
}

fn check_spill_equivalence(rows: &[Row], right: &[Row]) {
    let catalog = MemCatalog::new();
    register_small_groups(&catalog, "t", rows);
    let schema = Schema::new(vec![
        Field::nullable("rk", DataType::Int64),
        Field::nullable("rv", DataType::Int64),
    ]);
    let mut table = Table::with_group_size(schema, 32);
    for (k, v, _) in right {
        table
            .append_row(vec![value_of_int(*k), value_of_int(*v)])
            .expect("schema matches");
    }
    table.flush().expect("in-memory flush");
    catalog.register("r", table);
    let scan = |n: &str| LogicalPlan::scan(n, &catalog).expect("registered");

    budget_matches_unbudgeted(&catalog, "spilling group-by", 2048, &|| {
        scan("t").aggregate(
            vec![col("k")],
            vec![
                count_star().alias("n"),
                sum(col("v")).alias("sv"),
                min(col("v")).alias("minv"),
                max(col("v")).alias("maxv"),
            ],
        )
    });
    budget_matches_unbudgeted(&catalog, "spilling join", 2048, &|| {
        scan("t").join(scan("r"), vec![("k", "rk")], JoinType::Inner)
    });
    budget_matches_unbudgeted(&catalog, "spilling left join", 2048, &|| {
        scan("t").join(scan("r"), vec![("k", "rk")], JoinType::Left)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn budgeted_execution_matches_unbudgeted(
        rows in arbitrary_rows(160, 3),
        right in arbitrary_rows(80, 3),
    ) {
        check_spill_equivalence(&rows, &right);
    }

    #[test]
    fn budgeted_execution_matches_unbudgeted_null_heavy(
        rows in arbitrary_rows(120, 30),
        right in arbitrary_rows(60, 30),
    ) {
        check_spill_equivalence(&rows, &right);
    }
}

#[test]
fn tiny_budget_actually_spills_and_stays_correct() {
    // Deterministic shape big enough that a 2 KiB ceiling must spill both
    // the aggregate and the join build side.
    let rows: Vec<Row> = (0..600)
        .map(|i| (Some(i % 151), Some(i * 7 % 509), Some(i as f64 / 3.0)))
        .collect();
    let right: Vec<Row> = (0..300).map(|i| (Some(i % 173), Some(i), None)).collect();
    let catalog = MemCatalog::new();
    register_small_groups(&catalog, "t", &rows);
    let rschema = Schema::new(vec![
        Field::nullable("rk", DataType::Int64),
        Field::nullable("rv", DataType::Int64),
    ]);
    let mut rtable = Table::with_group_size(rschema, 32);
    for (k, v, _) in &right {
        rtable
            .append_row(vec![value_of_int(*k), value_of_int(*v)])
            .expect("schema matches");
    }
    rtable.flush().expect("in-memory flush");
    catalog.register("r2", rtable);
    let scan = |n: &str| LogicalPlan::scan(n, &catalog).expect("registered");

    let m = budget_matches_unbudgeted(&catalog, "forced spill group-by", 2048, &|| {
        scan("t").aggregate(
            vec![col("k")],
            vec![count_star().alias("n"), sum(col("v")).alias("sv")],
        )
    });
    assert!(
        m.value("storage.spill.partitions") > 0,
        "600 rows over 151 groups under 2 KiB must spill"
    );
    assert!(m.value("storage.spill.bytes_read") > 0);

    let m = budget_matches_unbudgeted(&catalog, "forced spill join", 2048, &|| {
        scan("t").join(scan("r2"), vec![("k", "rk")], JoinType::Inner)
    });
    assert!(
        m.value("storage.spill.partitions") > 0,
        "a 600-row build side under 2 KiB must grace-partition"
    );
}

// ---- Unsealed tail vs sealed groups --------------------------------------
//
// Commits land in a table's columnar tail, which scans read in place after
// the sealed groups. Where rows live must be invisible in results: the same
// rows sealed into one group, left entirely in the tail, or split between
// 32-row groups and a tail answer every plan identically, serially and
// morsel-parallel.

/// Register `rows` three times: `<stem>_sealed` (sealed into one group),
/// `<stem>_tail` (all in the unsealed tail) and `<stem>_mixed` (32-row
/// groups, the remainder in the tail). The tail twins are published through
/// `register_arc`, which, unlike `register`, does not seal.
fn register_tail_triplet(catalog: &MemCatalog, stem: &str, rows: &[Row], names: [&str; 3]) {
    let schema = Schema::new(vec![
        Field::nullable(names[0], DataType::Int64),
        Field::nullable(names[1], DataType::Int64),
        Field::nullable(names[2], DataType::Float64),
    ]);
    let values: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, v, f)| vec![value_of_int(*k), value_of_int(*v), value_of_float(*f)])
        .collect();
    for (suffix, group_size) in [
        ("sealed", DEFAULT_ROW_GROUP_SIZE),
        ("tail", DEFAULT_ROW_GROUP_SIZE),
        ("mixed", 32),
    ] {
        let mut table = Table::with_group_size(schema.clone(), group_size);
        table.append_rows(&values).expect("schema matches");
        if suffix == "sealed" {
            table.flush().expect("in-memory flush");
        }
        let tail = if suffix == "sealed" {
            0
        } else {
            values.len() % group_size
        };
        assert_eq!(table.tail_rows(), tail, "{suffix} twin");
        catalog.register_arc(format!("{stem}_{suffix}"), Arc::new(table));
    }
}

/// Sorted rows of `plan` at parallelism `p`.
fn sorted_rows(
    catalog: &MemCatalog,
    plan: LogicalPlan,
    p: Parallelism,
    context: &str,
) -> Vec<Vec<Value>> {
    let mut rows = execute(plan, catalog, &ExecOptions::serial().parallel(p))
        .unwrap_or_else(|e| panic!("{context} at {p:?}: {e}"))
        .to_rows();
    rows.sort_by_key(|r| join_key(r));
    rows
}

/// Filters, group-by, a global aggregate and top-k: tail and mixed twins
/// must equal the sealed one at Serial and Fixed(4).
fn check_tail_vs_sealed(rows: &[Row], threshold: i64, k: usize) {
    let catalog = MemCatalog::new();
    register_tail_triplet(&catalog, "t", rows, ["k", "v", "f"]);
    type PlanFn<'a> = Box<dyn Fn(&str) -> LogicalPlan + 'a>;
    let scan = |n: &str| LogicalPlan::scan(n, &catalog).expect("registered");
    let plans: Vec<(&str, PlanFn)> = vec![
        (
            "filter v >= lit",
            Box::new(|n| scan(n).filter(col("v").gt_eq(lit(threshold)))),
        ),
        (
            "filter k = lit",
            Box::new(|n| scan(n).filter(col("k").eq(lit(2i64)))),
        ),
        (
            "filter nothing passes",
            Box::new(|n| scan(n).filter(col("v").gt(lit(10_000i64)))),
        ),
        (
            "group by k",
            Box::new(|n| {
                scan(n).aggregate(
                    vec![col("k")],
                    vec![
                        count_star().alias("n"),
                        count(col("v")).alias("nv"),
                        sum(col("v")).alias("sv"),
                        min(col("v")).alias("minv"),
                        max(col("v")).alias("maxv"),
                        avg(col("f")).alias("af"),
                    ],
                )
            }),
        ),
        (
            "global agg over an empty selection",
            Box::new(|n| {
                scan(n).filter(col("v").gt(lit(10_000i64))).aggregate(
                    vec![],
                    vec![count_star().alias("n"), sum(col("v")).alias("sv")],
                )
            }),
        ),
        (
            "topk",
            Box::new(|n| {
                scan(n)
                    .sort(vec![desc(col("v")), asc(col("k")), asc(col("f"))])
                    .limit(k)
            }),
        ),
    ];
    for p in [Parallelism::Serial, Parallelism::Fixed(4)] {
        for (context, plan) in &plans {
            let base = sorted_rows(&catalog, plan("t_sealed"), p, context);
            for twin in ["t_tail", "t_mixed"] {
                let got = sorted_rows(&catalog, plan(twin), p, context);
                assert_rows_match(&got, &base, &format!("{context} on {twin} at {p:?}"));
            }
        }
    }
}

/// Joins across every placement pairing must equal sealed ⋈ sealed.
fn check_tail_join(left: &[Row], right: &[Row], join_type: JoinType) {
    let catalog = MemCatalog::new();
    register_tail_triplet(&catalog, "l", left, ["k", "v", "f"]);
    register_tail_triplet(&catalog, "r", right, ["rk", "rv", "rf"]);
    let plan = |ln: &str, rn: &str| {
        LogicalPlan::scan(ln, &catalog).unwrap().join(
            LogicalPlan::scan(rn, &catalog).unwrap(),
            vec![("k", "rk")],
            join_type,
        )
    };
    for p in [Parallelism::Serial, Parallelism::Fixed(4)] {
        let base = sorted_rows(&catalog, plan("l_sealed", "r_sealed"), p, "join");
        for (ln, rn) in [
            ("l_tail", "r_tail"),
            ("l_tail", "r_sealed"),
            ("l_sealed", "r_mixed"),
            ("l_mixed", "r_tail"),
        ] {
            let got = sorted_rows(&catalog, plan(ln, rn), p, "join");
            assert_rows_match(&got, &base, &format!("join {ln} x {rn} at {p:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tail_execution_matches_sealed(
        rows in arbitrary_rows(120, 3),
        threshold in -100i64..100,
        k in 0usize..12,
    ) {
        check_tail_vs_sealed(&rows, threshold, k);
    }

    #[test]
    fn tail_execution_matches_sealed_null_heavy(
        rows in arbitrary_rows(80, 30),
        threshold in -100i64..100,
    ) {
        check_tail_vs_sealed(&rows, threshold, 5);
    }

    #[test]
    fn tail_inner_join_matches_sealed(
        left in arbitrary_rows(60, 3),
        right in arbitrary_rows(60, 3),
    ) {
        check_tail_join(&left, &right, JoinType::Inner);
    }

    #[test]
    fn tail_left_join_matches_sealed(
        left in arbitrary_rows(50, 8),
        right in arbitrary_rows(50, 8),
    ) {
        check_tail_join(&left, &right, JoinType::Left);
    }
}

#[test]
fn multi_chunk_tail_matches_sealed() {
    // Enough rows for several frozen tail chunks plus an open one, with a
    // NULL every few cells.
    let rows: Vec<Row> = (0..3 * TAIL_CHUNK_ROWS as i64 + 77)
        .map(|i| {
            (
                (i % 5 != 0).then_some(i % 7 - 3),
                (i % 3 != 0).then_some(i * 37 % 199 - 99),
                (i % 4 != 0).then_some((i % 101) as f64 / 4.0),
            )
        })
        .collect();
    check_tail_vs_sealed(&rows, 17, 9);
    check_tail_join(&rows[..1500], &rows[1000..1040], JoinType::Inner);
}

// ---- Selection kernels vs a three-valued reference ------------------------

/// One row for the selection-kernel suite: a nullable int (stored plain,
/// RLE and bit-packed), a nullable float drawn to hit NaN and ±0.0, and a
/// nullable string (stored plain and dictionary-encoded).
type SelRow = (Option<i64>, Option<f64>, Option<String>);

const WORDS: [&str; 5] = ["", "a", "ab", "b", "ba"];

/// Columns of the suite's table, by storage kind, after the `id` column.
const INT_COLS: [&str; 3] = ["i", "r", "p"];
const FLOAT_COL: &str = "f";
const STR_COLS: [&str; 2] = ["s", "d"];

fn special_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        (-3i64..4).prop_map(|v| v as f64),
        (-30i64..40).prop_map(|v| v as f64 / 10.0),
    ]
}

/// Rows in runs of 1–5 copies, so the RLE column has runs worth walking.
fn selection_rows(max_runs: usize, null_weight: u32) -> impl Strategy<Value = Vec<SelRow>> {
    let cell = (
        maybe(null_weight, -3i64..4),
        maybe(null_weight, special_float()),
        maybe(
            null_weight,
            (0usize..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
        ),
    );
    proptest::collection::vec((cell, 1usize..6), 0..max_runs).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(row, n)| std::iter::repeat_n(row, n))
            .collect()
    })
}

fn selection_schema() -> Arc<Schema> {
    let mut fields = vec![Field::new("id", DataType::Int64)];
    fields.extend(INT_COLS.map(|c| Field::nullable(c, DataType::Int64)));
    fields.push(Field::nullable(FLOAT_COL, DataType::Float64));
    fields.extend(STR_COLS.map(|c| Field::nullable(c, DataType::Utf8)));
    Schema::new(fields)
}

/// `rows` (ids from `first_id`) as one batch holding every column kind the
/// selection kernels read: plain, RLE and bit-packed ints, floats, plain and
/// dictionary strings.
fn selection_batch(rows: &[SelRow], first_id: i64) -> RecordBatch {
    use backbone_storage::compress::{BitPackedI64, EncodedInts, RleI64};
    let ids: Vec<i64> = (first_id..first_id + rows.len() as i64).collect();
    let ints = Column::from_opt_i64(rows.iter().map(|r| r.0).collect());
    let validity = ints.validity().clone();
    // NULL slots hold 0, as sealing normalizes them.
    let raw: Vec<i64> = rows.iter().map(|r| r.0.unwrap_or(0)).collect();
    let rle = Column::encoded_from_parts(
        EncodedInts::from_rle(RleI64::encode(&raw)),
        validity.clone(),
    );
    let packed =
        Column::encoded_from_parts(EncodedInts::BitPacked(BitPackedI64::encode(&raw)), validity);
    let floats = Column::from_opt_f64(rows.iter().map(|r| r.1).collect());
    let strs: Vec<Value> = rows
        .iter()
        .map(|r| r.2.as_deref().map(Value::str).unwrap_or(Value::Null))
        .collect();
    let plain = Column::from_values(DataType::Utf8, &strs).expect("string column");
    let dict = plain.dict_encode().expect("string columns encode");
    let cols = [
        Column::from_i64(ids),
        ints,
        rle,
        packed,
        floats,
        plain,
        dict,
    ];
    RecordBatch::try_new(selection_schema(), cols.into_iter().map(Arc::new).collect())
        .expect("columns match schema")
}

/// The row's value in column `name`.
fn sel_cell(row: &SelRow, name: &str) -> Value {
    match name {
        "f" => value_of_float(row.1),
        "s" | "d" => row.2.as_deref().map(Value::str).unwrap_or(Value::Null),
        _ => value_of_int(row.0),
    }
}

/// SQL three-valued `a <op> b` on two scalars, one row at a time: `None`
/// is NULL. Int against Float compares in f64, and an unordered pair (NaN
/// on either side) is NULL under every operator.
fn reference_cmp(a: &Value, op: BinOp, b: &Value) -> Option<bool> {
    let ord = match (a, b) {
        (Value::Null, _) | (_, Value::Null) => return None,
        (Value::Int(x), Value::Int(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.partial_cmp(y),
        other => panic!("the suite never compares {other:?}"),
    }?;
    Some(match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        other => panic!("{other} is not a comparison"),
    })
}

/// One `column <op> literal` comparison, literal on either side.
#[derive(Clone, Debug)]
struct Comparison {
    column: &'static str,
    op: BinOp,
    literal: Value,
    literal_first: bool,
}

impl Comparison {
    fn expr(&self) -> Expr {
        let (c, l) = (col(self.column), Expr::Literal(self.literal.clone()));
        let (left, right) = if self.literal_first { (l, c) } else { (c, l) };
        Expr::Binary {
            left: Box::new(left),
            op: self.op,
            right: Box::new(right),
        }
    }

    fn reference(&self, row: &SelRow) -> Option<bool> {
        let cell = sel_cell(row, self.column);
        if self.literal_first {
            reference_cmp(&self.literal, self.op, &cell)
        } else {
            reference_cmp(&cell, self.op, &self.literal)
        }
    }
}

const COMPARISONS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];

/// Every column × operator × literal × side the kernels cover: Int and
/// Float literals (NaN and -0.0 among them) and a NULL literal against the
/// numeric kinds, string literals against the string kinds.
fn all_comparisons() -> Vec<Comparison> {
    let numeric = [
        Value::Int(-1),
        Value::Int(0),
        Value::Int(2),
        Value::Float(0.5),
        Value::Float(-0.0),
        Value::Float(2.0),
        Value::Float(f64::NAN),
        Value::Null,
    ];
    let strings: Vec<Value> = WORDS.iter().chain(&["c"]).map(Value::str).collect();
    let mut out = Vec::new();
    let columns = INT_COLS
        .iter()
        .chain(&[FLOAT_COL])
        .map(|c| (*c, &numeric[..]));
    for (column, literals) in columns.chain(STR_COLS.iter().map(|c| (*c, &strings[..]))) {
        for op in COMPARISONS {
            for literal in literals {
                for literal_first in [false, true] {
                    out.push(Comparison {
                        column,
                        op,
                        literal: literal.clone(),
                        literal_first,
                    });
                }
            }
        }
    }
    out
}

/// `refine_selection` and `eval` on one batch, with and without an incoming
/// selection, against the reference: the selection keeps exactly the TRUE
/// candidates, and the Bool column form is TRUE, FALSE or NULL per lane.
fn check_kernels_direct(rows: &[SelRow], keep_mask: &[bool]) {
    use backbone_query::eval::{eval, refine_selection};
    let dense = selection_batch(rows, 0);
    let picked: Vec<u32> = (0..rows.len() as u32)
        .filter(|&i| keep_mask[i as usize % keep_mask.len()])
        .collect();
    let selected = dense.with_selection(Arc::new(picked)).expect("in bounds");
    let comparisons = all_comparisons();
    for batch in [&dense, &selected] {
        let candidates: Vec<u32> = (0..batch.num_rows())
            .map(|i| batch.base_index(i) as u32)
            .collect();
        for c in &comparisons {
            let context = format!("{c:?} over {} candidates", candidates.len());
            let want: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|&i| c.reference(&rows[i as usize]) == Some(true))
                .collect();
            let got = refine_selection(&c.expr(), batch).expect("kernel runs");
            assert_eq!(got.selection().expect("refined"), &want[..], "{context}");

            let verdicts = eval(&c.expr(), batch).expect("comparison evaluates");
            for &i in &candidates {
                let got = match verdicts.value(i as usize) {
                    Value::Bool(b) => Some(b),
                    Value::Null => None,
                    other => panic!("{context}: verdict {other:?}"),
                };
                assert_eq!(got, c.reference(&rows[i as usize]), "{context}: row {i}");
            }
        }
        // Conjunctions refine one conjunct after the other.
        for k in (0..comparisons.len()).step_by(5) {
            let a = &comparisons[k];
            let b = &comparisons[(k * 37 + 11) % comparisons.len()];
            let conj = a.expr().and(b.expr());
            let want: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|&i| {
                    let row = &rows[i as usize];
                    a.reference(row) == Some(true) && b.reference(row) == Some(true)
                })
                .collect();
            let got = refine_selection(&conj, batch).expect("kernel runs");
            assert_eq!(
                got.selection().expect("refined"),
                &want[..],
                "{a:?} AND {b:?}"
            );
        }
    }
}

/// The same predicates as plans over a table of several sealed groups:
/// through `FilterExec` (no optimizer rules, so the filter stays an
/// operator) and pushed into serial and `Fixed(2)` scans.
fn check_kernels_in_plans(rows: &[SelRow], picks: &[(usize, usize)]) {
    const GROUP: usize = 16;
    let catalog = MemCatalog::new();
    let mut table = Table::new(selection_schema());
    for (g, chunk) in rows.chunks(GROUP).enumerate() {
        table
            .push_sealed_batch(selection_batch(chunk, (g * GROUP) as i64))
            .expect("sealed batch");
    }
    catalog.register("t", table);
    let mut filter_exec = ExecOptions::serial();
    filter_exec.rules = Some(Vec::new());
    let modes = [
        ("FilterExec", filter_exec),
        ("serial scan", ExecOptions::serial()),
        (
            "Fixed(2) scan",
            ExecOptions::serial().parallel(Parallelism::Fixed(2)),
        ),
    ];
    let comparisons = all_comparisons();
    for &(a, b) in picks {
        let (a, b) = (
            &comparisons[a % comparisons.len()],
            &comparisons[b % comparisons.len()],
        );
        let want: Vec<i64> = (0..rows.len() as i64)
            .filter(|&i| {
                let row = &rows[i as usize];
                a.reference(row) == Some(true) && b.reference(row) == Some(true)
            })
            .collect();
        for (mode, opts) in &modes {
            let plan = LogicalPlan::scan("t", &catalog)
                .expect("registered")
                .filter(a.expr().and(b.expr()));
            let out = execute(plan, &catalog, opts)
                .unwrap_or_else(|e| panic!("{mode}: {a:?} AND {b:?}: {e}"));
            let mut got: Vec<i64> = (0..out.num_rows())
                .map(|r| match out.column(0).value(r) {
                    Value::Int(id) => id,
                    other => panic!("id {other:?}"),
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "{mode}: {a:?} AND {b:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn selection_kernels_match_three_valued_reference(
        rows in selection_rows(40, 3),
        keep_mask in proptest::collection::vec(any::<bool>(), 1..9),
        picks in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..24),
    ) {
        check_kernels_direct(&rows, &keep_mask);
        check_kernels_in_plans(&rows, &picks);
    }

    #[test]
    fn selection_kernels_match_reference_null_heavy(
        rows in selection_rows(16, 25),
        keep_mask in proptest::collection::vec(any::<bool>(), 1..9),
        picks in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..24),
    ) {
        check_kernels_direct(&rows, &keep_mask);
        check_kernels_in_plans(&rows, &picks);
    }
}
