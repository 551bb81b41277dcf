//! Kernel equivalence: encoded, parallel, budget-capped and tail-resident
//! execution against the row-at-a-time reference. Each property runs one
//! slice of the differential oracle (`differential/`): its forced knob
//! settings, a rewrite of the generated tables, and the generated queries
//! of one shape. A property named "X matches Y" runs its slice at both
//! settings; each agrees with the reference, so they agree with each other.

mod differential;

use backbone_core::Database;
use backbone_query::eval::{refine_selection, select_words};
use backbone_query::{
    col, execute, parse_select, BinOp, ExecOptions, Expr, JoinType, MemCatalog, Parallelism,
};
use backbone_storage::compress::{EncodedInts, ForLanes, RleI64};
use backbone_storage::table::EncodingPolicy;
use backbone_storage::{Bitmap, Column, DataType, Field, RecordBatch, Schema, Table, Value};
use differential::*;
use std::sync::Arc;

const DICT: Knob = Knob::Encoding(EncodingPolicy::Auto);
const SERIAL: Knob = Knob::Workers(Parallelism::Serial);
const SERIAL_AND_TWO: [Knob; 2] = [SERIAL, Knob::Workers(Parallelism::Fixed(2))];
const TINY: Knob = Knob::Budget(Some(TINY_BUDGET));
const UNCACHED: Knob = Knob::Caches(false);
const IN_MEMORY: Knob = Knob::Storage(Residency::Memory);
const ROWS_128: Knob = Knob::Layout {
    group_rows: 128,
    tail_quarters: 0,
};
const ROWS_64: Knob = Knob::Layout {
    group_rows: 64,
    tail_quarters: 0,
};

/// One property per entry, `name: slice, settings;`: the test runs
/// `run_slice(&slice, &settings)`.
macro_rules! slices {
    ($($(#[$doc:meta])* $name:ident: $slice:expr, $each:expr;)*) => {
        $($(#[$doc])* #[test] fn $name() { run_slice(&$slice, &$each); })*
    };
}

/// The query has no join and names one of `cols`.
fn alone(q: &Query, cols: &[&str]) -> bool {
    q.join.is_none() && touches(q, cols)
}

// ---- Operators against the reference -----------------------------------------

slices! {
    filter_matches_reference: Slice::all().keep(|q| q.filter.is_some() && !hashes(q)), [];
    aggregate_matches_reference: Slice::all().keep(|q| grouped_by(q, &[])), [];
    aggregate_matches_reference_null_heavy:
        Slice::all().tables(null_heavy).keep(|q| grouped_by(q, &[])), [];
    inner_join_matches_reference: Slice::all().keep(|q| joined(q, JoinType::Inner)), [];
    left_join_matches_reference: Slice::all().keep(|q| joined(q, JoinType::Left)), [];
    topk_matches_reference: Slice::all().keep(top_k), [];
    /// Serial, uncached ORDER BY … LIMIT over low-cardinality keys: ties keep
    /// table order, as a stable sort plus limit does, row for row.
    topk_ties_match_sort_plus_limit: Slice::all().forcing(&[SERIAL, UNCACHED]).keep(|q| {
        top_k(q) && q.order.iter().all(|(n, _)| ["t_k", "t_r", "t_s", "t_d"].contains(&&**n))
    }), [];
    /// ORDER BY `t_k` (at most 13 distinct values), so nearly every limit
    /// lands inside a run of ties.
    topk_ties_straddling_k_equal_sort_plus_limit: Slice::all()
        .forcing(&[SERIAL, UNCACHED])
        .keep(|q| matches!(q.select, Select::Star) && q.limit != Some(0))
        .rewrite(|mut q| {
            q.order = vec![("t_k".into(), q.order.first().is_some_and(|o| o.1))];
            q.limit = Some(q.limit.unwrap_or(7));
            q
        }), [];
    empty_selection_flows_through_every_operator: Slice::all().rewrite(unsatisfiable), [];
    all_null_keys_aggregate_to_one_group: Slice::all()
        .tables(null_keys)
        .keep(|q| grouped_by(q, &["t_k", "t_r", "t_s", "t_d"])), [];
}

/// AND/OR/NOT trees over NULL-, NaN- and boundary-heavy columns; TLP and
/// NoREC check the selection kernels against the predicate as a value.
/// Then the kernels themselves on every column kind (see below).
#[test]
fn selection_kernels_match_three_valued_reference() {
    run_slice(&Slice::all().metamorphic().keep(predicate_tree), &[]);
    for case in 0..24 {
        check_selection_kernels(&mut Rng::new(case), 40, 3);
    }
}

#[test]
fn selection_kernels_match_reference_null_heavy() {
    let slice = Slice::all().metamorphic().tables(null_heavy);
    run_slice(&slice.keep(predicate_tree), &[]);
    for case in 0..24 {
        check_selection_kernels(&mut Rng::new(case), 16, 25);
    }
}

/// `i <> 0 AND 10 / i > 1` through SQL: both conjuncts are pushed into the
/// scan, which narrows each segment by them in order, so no zero is
/// divided by. Zeros sit in both sealed 64-row groups and in the unsealed
/// tail; serial and two-worker runs return the reference's rows.
#[test]
fn guarded_division_in_scan_filters_matches_reference() {
    let names = ["id", "i"].map(String::from);
    let rows: Vec<Vec<Value>> = (0..168i64)
        .map(|id| {
            let i = if id % 11 == 5 {
                Value::Null
            } else {
                Value::Int(id % 7 - 2)
            };
            vec![Value::Int(id), i]
        })
        .collect();
    let fields = vec![
        Field::new("id", DataType::Int64),
        Field::nullable("i", DataType::Int64),
    ];
    let mut table = Table::with_group_size(Schema::new(fields), 64);
    table.append_rows(&rows[..128]).expect("typed rows");
    let db = Database::new();
    db.register_table("g", table).expect("register");
    db.insert("g", rows[128..].to_vec()).expect("commit");
    {
        use backbone_query::Catalog;
        let g = db.catalog().table("g").expect("registered");
        assert_eq!((g.num_groups(), g.tail_rows()), (2, 40));
    }
    for (range, part) in [
        (0..64, "first group"),
        (64..128, "second group"),
        (128..168, "tail"),
    ] {
        assert!(
            rows[range].iter().any(|r| r[1] == Value::Int(0)),
            "a zero in the {part}"
        );
    }
    let sql = "SELECT id, i FROM g WHERE i <> 0 AND 10 / i > 1";
    let ten_over_i = Expr::Literal(Value::Int(10)).div(col("i"));
    let predicate = cmp_expr("i", BinOp::NotEq, &Value::Int(0), false)
        .and(ten_over_i.gt(Expr::Literal(Value::Int(1))));
    let all: Vec<usize> = (0..rows.len()).collect();
    let want: Vec<Vec<Value>> = where_rows(&predicate, &names, &rows, &all)
        .expect("the guard rejects every zero")
        .into_iter()
        .map(|i| rows[i as usize].clone())
        .collect();
    assert!(!want.is_empty());
    for workers in [Parallelism::Serial, Parallelism::Fixed(2)] {
        let opts = ExecOptions::with_parallelism(workers).without_caches();
        let out = db.sql_with(sql, &opts).expect("no row divides by zero");
        let mut got = out.to_rows();
        got.sort_by_key(|r| match r[0] {
            Value::Int(id) => id,
            _ => unreachable!("ids are ints"),
        });
        assert_eq!(got, want, "{workers:?}");
    }
}

// ---- Dictionary strings and integer encodings against plain ----------------------

slices! {
    dict_execution_matches_plain: Slice::all().keep(|q| alone(q, &STRINGS)), ENCODINGS;
    dict_execution_matches_plain_null_heavy:
        Slice::all().tables(null_heavy).keep(|q| alone(q, &STRINGS)), ENCODINGS;
    dict_inner_join_matches_plain:
        Slice::all().keep(|q| joined(q, JoinType::Inner) && touches(q, &STRINGS)), ENCODINGS;
    dict_left_join_matches_plain:
        Slice::all().keep(|q| joined(q, JoinType::Left) && touches(q, &STRINGS)), ENCODINGS;
    all_duplicate_dict_batch_matches_plain:
        Slice::all().tables(one_word).keep(|q| touches(q, &["t_s", "u_s"])), ENCODINGS;
    empty_selection_flows_through_dict_operators: Slice::all().rewrite(no_word), ENCODINGS;
    code_space_group_by_matches_reference:
        Slice::all().forcing(&[DICT]).keep(|q| grouped_by(q, &["t_s", "t_d"])), [];
    code_space_group_by_matches_reference_null_heavy: Slice::all()
        .forcing(&[DICT])
        .tables(null_heavy)
        .keep(|q| grouped_by(q, &["t_s", "t_d"])), [];
    /// Two keys over 64-row groups spanning 64 codes (resolved in code space)
    /// or 72 (falling back to hashing).
    code_space_domain_boundary_matches_reference: Slice::all()
        .forcing(&[DICT, ROWS_64])
        .tables(at_code_domain)
        .keep(|q| grouped_by(q, &["t_s", "t_d"])), [];
    encoded_execution_matches_plain: Slice::all().keep(|q| alone(q, &INTS)), ENCODINGS;
    encoded_execution_matches_plain_null_heavy:
        Slice::all().tables(null_heavy).keep(|q| alone(q, &INTS)), ENCODINGS;
    encoded_inner_join_matches_plain:
        Slice::all().keep(|q| joined(q, JoinType::Inner) && touches(q, &INTS)), ENCODINGS;
    encoded_left_join_matches_plain:
        Slice::all().keep(|q| joined(q, JoinType::Left) && touches(q, &INTS)), ENCODINGS;
    /// The run-heavy column `t_r` (runs of 1 to 48) in 128-row groups, a few
    /// runs each.
    run_heavy_and_churn_encodings_match_plain:
        Slice::all().forcing(&[ROWS_128]).keep(|q| touches(q, &["t_r"])), ENCODINGS;
    empty_selection_flows_through_encoded_operators:
        Slice::all().rewrite(unsatisfiable), ENCODINGS;
    lane_widths_survive_checkpoint_and_reopen:
        Slice::all().forcing(&[DICT]).keep(|q| touches(q, &["t_i"])),
        [Residency::Reopened, Residency::Paged].map(Knob::Storage);
}

/// `t_i` against one literal: its residual range ends just below, at or
/// just past the u8, u16 and u32 lane edges, and its literals aim at the
/// edges. Only some seeds' ranges end exactly at an edge, so every seed
/// runs. Then every lane width at frames from far negative to both ends of
/// i64 (see below).
#[test]
fn lane_widths_match_plain_and_reference() {
    let slice = Slice::all().every_seed().keep(|q| {
        matches!(&q.filter, Some(Pred::Atom(a)) if a.starts_with("t_i ") || a.ends_with(" t_i"))
    });
    run_slice(&slice, &ENCODINGS);
    let mut rng = Rng::new(7);
    for (bits, want_bytes) in LANE_WIDTHS {
        for base in 0..5 {
            let seeds: Vec<u64> = (0..rng.below(60)).map(|_| rng.next()).collect();
            let vals = lane_values(bits, lane_reference(bits, base), &seeds, rng.below(5));
            check_lane_kernels(&vals, want_bytes, &keep_mask(&mut rng));
            check_lane_plans(&vals, want_bytes);
        }
    }
}

// ---- Morsel-parallel against serial, budget-capped against unbudgeted ------------

slices! {
    parallel_execution_matches_serial: Slice::all().keep(|q| q.join.is_none()), WORKER_SWEEP;
    parallel_execution_matches_serial_null_heavy:
        Slice::all().tables(null_heavy).keep(|q| q.join.is_none()), WORKER_SWEEP;
    parallel_inner_join_matches_serial:
        Slice::all().keep(|q| joined(q, JoinType::Inner)), WORKER_SWEEP;
    parallel_left_join_matches_serial:
        Slice::all().keep(|q| joined(q, JoinType::Left)), WORKER_SWEEP;
    parallel_dict_execution_matches_serial:
        Slice::all().forcing(&[DICT]).keep(|q| touches(q, &STRINGS)), WORKER_SWEEP;
    parallel_empty_selection_flows_through_every_operator:
        Slice::all().rewrite(unsatisfiable), WORKER_SWEEP;
    parallel_auto_runs_and_matches_serial:
        Slice::all(), [SERIAL, Knob::Workers(Parallelism::Auto)];
    budgeted_execution_matches_unbudgeted:
        Slice::all().forcing(&[UNCACHED]).keep(hashes), BUDGETS;
    budgeted_execution_matches_unbudgeted_null_heavy:
        Slice::all().forcing(&[UNCACHED]).tables(null_heavy).keep(hashes), BUDGETS;
}

/// A one-byte budget must spill every hash aggregate and hash join that
/// gets input (`storage.spill.partitions > 0`), serially and in parallel.
#[test]
fn tiny_budget_actually_spills_and_stays_correct() {
    let slice = Slice::all().forcing(&[TINY, UNCACHED]).keep(hashes);
    let cover = run_slice(&slice, &SERIAL_AND_TWO);
    assert!(cover.spilled > 0, "no query had to spill");
}

#[test]
fn code_space_group_by_under_tiny_budget_spills_and_matches_reference() {
    let slice = Slice::all().forcing(&[DICT, TINY, UNCACHED]);
    let cover = run_slice(
        &slice.keep(|q| grouped_by(q, &["t_s", "t_d"])),
        &SERIAL_AND_TWO,
    );
    assert!(cover.spilled > 0, "no query had to spill");
}

// ---- Tail-resident against sealed ----------------------------------------------

slices! {
    tail_execution_matches_sealed:
        Slice::all().forcing(&[IN_MEMORY]).keep(|q| q.join.is_none()), TAIL_VS_SEALED;
    tail_execution_matches_sealed_null_heavy: Slice::all()
        .forcing(&[IN_MEMORY])
        .tables(null_heavy)
        .keep(|q| q.join.is_none()), TAIL_VS_SEALED;
    tail_inner_join_matches_sealed:
        Slice::all().forcing(&[IN_MEMORY]).keep(|q| joined(q, JoinType::Inner)), TAIL_VS_SEALED;
    tail_left_join_matches_sealed:
        Slice::all().forcing(&[IN_MEMORY]).keep(|q| joined(q, JoinType::Left)), TAIL_VS_SEALED;
}

#[test]
fn multi_chunk_tail_matches_sealed() {
    let slice = Slice::all()
        .forcing(&[IN_MEMORY])
        .tables(spanning_tail_chunks);
    let cover = run_slice(&slice, &TAIL_VS_SEALED);
    assert!(cover.multi_chunk_tail, "no case left a multi-chunk tail");
}

// ---- Kernels SQL cannot reach ----------------------------------------------------
//
// The generated tables keep every integer frame within 2^37 of zero and
// compare int columns only with Int literals near their frame. These
// properties call the selection kernels directly on every column kind (plain,
// run-length and lane ints, floats, plain and dictionary strings) at every
// operator, literal (NaN, -0.0, fractional and infinite Floats against ints,
// NULL) and literal side, with and without an incoming selection, against
// the reference's row-at-a-time `eval`, through both entry points:
// `refine_selection` (an ascending selection vector) and `select_words` (a
// bitmap), which read the same words.

const OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];

fn keep_mask(rng: &mut Rng) -> Vec<bool> {
    (0..1 + rng.below(8)).map(|_| rng.chance(1, 2)).collect()
}

fn cmp_expr(column: &str, op: BinOp, literal: &Value, literal_first: bool) -> Expr {
    let (c, l) = (col(column), Expr::Literal(literal.clone()));
    let (left, right) = if literal_first { (l, c) } else { (c, l) };
    Expr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

/// `refine_selection`, `select_words` and `eval` on `batch` as is and under
/// the selection `keep` picks: `column <op> literal` for each `(column,
/// twin, literals)`, either side, conjunctions of them, and disjunctions of
/// a comparison with a conjunction. The reference evaluates the same
/// comparison over column `twin`, the plain column holding the same values.
/// Then `column <op> column` for each of `pairs`, and, for a numeric pair,
/// `+ - * / %` as values, which fail exactly when the reference fails on a
/// candidate row.
fn check_comparisons(
    batch: &RecordBatch,
    columns: &[(usize, usize, Vec<Value>)],
    pairs: &[(usize, usize)],
    keep: &[bool],
) {
    let names: Vec<String> = (batch.schema().fields().iter())
        .map(|f| f.name.clone())
        .collect();
    let mut cases = Vec::new();
    for (c, twin, literals) in columns {
        for op in OPS {
            for literal in literals {
                for first in [false, true] {
                    cases.push((
                        cmp_expr(&names[*c], op, literal, first),
                        cmp_expr(&names[*twin], op, literal, first),
                    ));
                }
            }
        }
    }
    // Conjunctions refine one conjunct after the other.
    let comparisons = cases.len();
    for k in (0..comparisons).step_by(5) {
        let (a, b) = (&cases[k], &cases[(k * 37 + 11) % comparisons]);
        cases.push((a.0.clone().and(b.0.clone()), a.1.clone().and(b.1.clone())));
    }
    // Disjunctions: a comparison OR a conjunction is a word op on the
    // leaves' words.
    let conjunctions = comparisons..cases.len();
    for k in (0..comparisons).step_by(7) {
        let j = conjunctions.start + k % conjunctions.len();
        let (a, b) = (&cases[k], &cases[j]);
        cases.push((a.0.clone().or(b.0.clone()), a.1.clone().or(b.1.clone())));
    }
    // Column against column: the reference reads both columns' values.
    let between = |a: usize, op, b: usize| Expr::Binary {
        left: Box::new(col(&names[a])),
        op,
        right: Box::new(col(&names[b])),
    };
    let mut arithmetic = Vec::new();
    for &(a, b) in pairs {
        cases.extend(OPS.map(|op| (between(a, op, b), between(a, op, b))));
        let numeric = |c: usize| batch.schema().fields()[c].data_type != DataType::Utf8;
        if numeric(a) && numeric(b) {
            arithmetic.extend(
                [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]
                    .map(|op| between(a, op, b)),
            );
        }
    }
    let rows = batch.to_rows();
    let picked: Vec<u32> = (0..rows.len() as u32)
        .filter(|&i| keep[i as usize % keep.len()])
        .collect();
    let selected = batch.with_selection(Arc::new(picked)).expect("in bounds");
    for b in [batch, &selected] {
        let candidates: Vec<usize> = (0..b.num_rows()).map(|i| b.base_index(i)).collect();
        for (expr, reference) in &cases {
            let want: Vec<Value> = (candidates.iter())
                .map(|&i| eval(reference, &names, &rows[i]).expect("reference answers"))
                .collect();
            let trues: Vec<u32> = (candidates.iter().zip(&want))
                .filter(|(_, v)| **v == Value::Bool(true))
                .map(|(&i, _)| i as u32)
                .collect();
            let context = format!("{expr} over {} rows", candidates.len());
            let got = refine_selection(expr, b).expect("kernel runs");
            assert_eq!(got.selection().expect("refined"), &trues[..], "{context}");
            assert_eq!(set_rows(expr, b), Ok(trues.clone()), "{context}: bitmap");
            let verdicts = backbone_query::eval::eval(expr, b).expect("comparison evaluates");
            for (&i, w) in candidates.iter().zip(&want) {
                assert_eq!(&verdicts.value(i), w, "{context}: row {i}");
            }
        }
        for expr in &arithmetic {
            let want: Result<Vec<String>, String> = (candidates.iter())
                .map(|&i| eval(expr, &names, &rows[i]).map(|v| rounded(&v)))
                .collect();
            let got = backbone_query::eval::eval(expr, b)
                .map(|c| candidates.iter().map(|&i| rounded(&c.value(i))).collect());
            assert_eq!(got.ok(), want.ok(), "{expr} over {} rows", candidates.len());
        }
    }
}

/// The rows `select_words` sets, ascending, checking the bitmap covers
/// exactly the batch's base rows; `Err` when it fails.
fn set_rows(predicate: &Expr, batch: &RecordBatch) -> Result<Vec<u32>, ()> {
    let bits = select_words(predicate, batch).map_err(|_| ())?;
    assert_eq!(bits.len(), batch.base_rows(), "{predicate}: bitmap length");
    Ok(bits.iter_ones().map(|i| i as u32).collect())
}

/// Predicates that fail on some row only when evaluated there, against the
/// row reference in WHERE's conjunct order ([`where_rows`]): the selection
/// and the bitmap keep its rows when an earlier conjunct rejects every
/// failing row (`i <> 0 AND 10 / i > 1`), and fail with it when a
/// disjunction evaluates the failing conjunct on every row.
fn check_guarded_errors(batch: &RecordBatch, keep: &[bool]) {
    let names: Vec<String> = (batch.schema().fields().iter())
        .map(|f| f.name.clone())
        .collect();
    let rows = batch.to_rows();
    let picked: Vec<u32> = (0..batch.base_rows() as u32)
        .filter(|&i| keep[i as usize % keep.len()])
        .collect();
    let selected = batch.with_selection(Arc::new(picked)).expect("in bounds");
    let ten = || Expr::Literal(Value::Int(10));
    let guarded = |first: bool| {
        let zero = cmp_expr("i", BinOp::NotEq, &Value::Int(0), first);
        zero.and(ten().div(col("i")).gt(Expr::Literal(Value::Int(1))))
    };
    let low = cmp_expr("f", BinOp::Lt, &Value::Float(0.5), false);
    for b in [batch, &selected] {
        let candidates: Vec<usize> = (0..b.num_rows()).map(|i| b.base_index(i)).collect();
        for predicate in [
            guarded(false),
            guarded(true),
            guarded(false).and(low.clone()),
            low.clone().and(guarded(true)),
            guarded(false).or(low.clone()),
        ] {
            let want = where_rows(&predicate, &names, &rows, &candidates);
            let got = refine_selection(&predicate, b)
                .map(|r| r.selection().expect("refined").to_vec())
                .map_err(|_| ());
            assert_eq!(got, want, "{predicate}");
            assert_eq!(set_rows(&predicate, b), want, "{predicate}: bitmap");
        }
    }
}

/// The candidate rows (ascending) `predicate` keeps under the row
/// reference, conjunct by conjunct as WHERE narrows them: a conjunct is
/// evaluated only on the rows every conjunct before it kept. `Err` when it
/// fails on one of them.
fn where_rows(
    predicate: &Expr,
    names: &[String],
    rows: &[Vec<Value>],
    candidates: &[usize],
) -> Result<Vec<u32>, ()> {
    let mut kept = candidates.to_vec();
    for conjunct in predicate.split_conjunction() {
        let mut survivors = Vec::new();
        for i in kept {
            if eval(conjunct, names, &rows[i]).map_err(|_| ())? == Value::Bool(true) {
                survivors.push(i);
            }
        }
        kept = survivors;
    }
    Ok(kept.into_iter().map(|i| i as u32).collect())
}

/// One batch of every column kind the selection kernels read, from rows in
/// runs of 1–5 copies (`max_runs` runs, NULL `null_weight` times in
/// `10 + null_weight`), checked against literals of each column's type.
fn check_selection_kernels(rng: &mut Rng, max_runs: usize, null_weight: u64) {
    const WORDS: [&str; 5] = ["", "a", "ab", "b", "ba"];
    let (mut ints, mut floats, mut strs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rng.below(max_runs) {
        let mut null = || rng.chance(null_weight, 10 + null_weight);
        let (ni, nf, ns) = (null(), null(), null());
        let i = rng.range(-3, 3);
        let f = match rng.below(5) {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => rng.range(-3, 3) as f64,
            _ => rng.range(-30, 39) as f64 / 10.0,
        };
        let s = Value::str(WORDS[rng.below(WORDS.len())]);
        for _ in 0..1 + rng.below(5) {
            ints.push((!ni).then_some(i));
            floats.push((!nf).then_some(f));
            strs.push(if ns { Value::Null } else { s.clone() });
        }
    }
    let plain = Column::from_opt_i64(ints.clone());
    // NULL slots hold the minimum valid value, as sealing normalizes them.
    let fill = ints.iter().flatten().min().copied().unwrap_or(0);
    let raw: Vec<i64> = ints.iter().map(|v| v.unwrap_or(fill)).collect();
    let rle = EncodedInts::from_rle(RleI64::encode(&raw));
    let lanes = EncodedInts::For(ForLanes::encode(&raw).expect("a small range fits a lane"));
    let strings = Column::from_values(DataType::Utf8, &strs).expect("string column");
    // A dictionary whose code order is the reverse of string order, shared
    // by `e` and `h` (`e`'s rows shifted by one): `<` and `>=` between them
    // must compare strings, not codes.
    let reversed: Arc<Vec<String>> = Arc::new(WORDS.iter().rev().map(|w| w.to_string()).collect());
    let in_reversed = |vals: &[Value]| {
        let code = |v: &Value| reversed.iter().position(|w| Value::str(w) == *v);
        let valid: Vec<bool> = vals.iter().map(|v| !v.is_null()).collect();
        let codes = vals.iter().map(|v| code(v).unwrap_or(0) as u32).collect();
        Column::dict_from_parts(reversed.clone(), codes, Bitmap::from_bools(&valid))
    };
    let cols = [
        Column::encoded_from_parts(rle, plain.validity().clone()),
        Column::encoded_from_parts(lanes, plain.validity().clone()),
        plain,
        Column::from_opt_f64(floats),
        strings.dict_encode().expect("string columns encode"),
        strings.clone(),
        Column::from_opt_i64(shifted(&ints)),
        in_reversed(&strs),
        in_reversed(&shifted(&strs)),
        // A second dictionary of `d`'s strings.
        strings.dict_encode().expect("string columns encode"),
    ];
    let names = ["r", "l", "i", "f", "d", "s", "j", "e", "h", "g"];
    let fields = (names.iter().zip(&cols))
        .map(|(n, c)| Field::nullable(*n, c.data_type()))
        .collect();
    let batch = RecordBatch::try_new(Schema::new(fields), cols.map(Arc::new).to_vec())
        .expect("columns match schema");
    let float_literals = [0.5, -0.0, 2.0, f64::NAN].map(Value::Float);
    let numeric: Vec<Value> = [Value::Int(-1), Value::Int(0), Value::Int(2), Value::Null]
        .into_iter()
        .chain(float_literals)
        .collect();
    let words: Vec<Value> = WORDS.iter().chain(&["c"]).map(Value::str).collect();
    let columns = [
        (0, 2, numeric.clone()),
        (1, 2, numeric.clone()),
        (2, 2, numeric.clone()),
        (3, 3, numeric),
        (4, 5, words.clone()),
        (5, 5, words),
    ];
    // Ints (encoded or not, `j` shifted) against ints and against floats
    // (NaN, ±0, NULL); strings through one shared dictionary (`e`, `h`), two
    // dictionaries of the same strings (`d`, `g`), dictionary and plain.
    let pairs = [
        (0, 6),
        (1, 6),
        (2, 6),
        (6, 3),
        (3, 1),
        (3, 3),
        (7, 8),
        (4, 9),
        (4, 5),
        (5, 8),
        (5, 5),
    ];
    check_comparisons(&batch, &columns, &pairs, &keep_mask(rng));
    check_guarded_errors(&batch, &keep_mask(rng));
}

/// `v` with its rows shifted up by one, the first last.
fn shifted<T: Clone>(v: &[T]) -> Vec<T> {
    let mut out = v.to_vec();
    out.rotate_left(v.len().min(1));
    out
}

/// Residual widths in bits, and the lane bytes each must seal as (`None`:
/// past 32 bits, the column must not become lanes).
const LANE_WIDTHS: [(u32, Option<usize>); 7] = [
    (1, Some(1)),
    (8, Some(1)),
    (9, Some(2)),
    (16, Some(2)),
    (17, Some(4)),
    (32, Some(4)),
    (33, None),
];

/// The frame's reference for `base` ∈ 0..5: far negative, small negative,
/// large positive, `i64::MIN`, and the highest frame below `i64::MAX`.
fn lane_reference(bits: u32, base: usize) -> i64 {
    match base {
        0 => -5_000_000_000,
        1 => -7,
        2 => 1_000_000_000,
        3 => i64::MIN,
        _ => i64::MAX - ((1i64 << bits) - 1),
    }
}

/// Values of exactly `bits` residual bits above `reference`: the first two
/// rows pin the minimum and the maximum, the rest come from `seeds`, and
/// every `null_every`-th row after them is NULL (none below 2).
fn lane_values(bits: u32, reference: i64, seeds: &[u64], null_every: usize) -> Vec<Option<i64>> {
    let mask = (1u64 << bits) - 1;
    let residuals = [0, mask].into_iter().chain(seeds.iter().map(|s| s & mask));
    residuals
        .enumerate()
        .map(|(i, r)| {
            let null = i >= 2 && null_every >= 2 && i % null_every == 0;
            (!null).then(|| reference.wrapping_add(r as i64))
        })
        .collect()
}

/// The lane bytes of an encoded column, `None` when it is not lanes.
fn lane_bytes(col: &Column) -> Option<usize> {
    let (data, _) = col.encoded_parts()?;
    data.lanes().map(|l| l.lane_bytes())
}

/// Literals around the frame `[lo, hi]`: below, at both ends, inside and
/// above, as Int and as Float (a fractional one inside, and ±∞).
fn frame_literals(lo: i64, hi: i64) -> Vec<Value> {
    let mid = lo + (hi - lo) / 2;
    let mut ints = vec![lo, mid, hi];
    ints.extend(lo.checked_sub(1));
    ints.extend(lo.checked_sub(1_000_000));
    ints.extend(hi.checked_add(1));
    ints.extend(hi.checked_add(1 << 40));
    let mut out: Vec<Value> = ints.iter().map(|&x| Value::Int(x)).collect();
    out.extend(ints.iter().map(|&x| Value::Float(x as f64)));
    out.extend([mid as f64 + 0.5, f64::INFINITY, f64::NEG_INFINITY].map(Value::Float));
    out
}

/// One lane column against its plain twin: its width, comparisons with
/// literals around and far outside its frame, hashes, gather and slice.
fn check_lane_kernels(vals: &[Option<i64>], want_bytes: Option<usize>, keep: &[bool]) {
    let plain = Column::from_opt_i64(vals.to_vec());
    let enc = plain.int64_encode().expect("int columns encode");
    assert_eq!(lane_bytes(&enc), want_bytes, "lane width of {vals:?}");
    let n = vals.len();
    let lo = vals.iter().flatten().min().copied().expect("pinned rows");
    let hi = vals.iter().flatten().max().copied().expect("pinned rows");
    let schema = Schema::new(vec![
        Field::nullable("p", DataType::Int64),
        Field::nullable("e", DataType::Int64),
    ]);
    let batch = RecordBatch::try_new(schema, vec![Arc::new(plain.clone()), Arc::new(enc.clone())])
        .expect("columns match schema");
    check_comparisons(&batch, &[(1, 0, frame_literals(lo, hi))], &[], keep);
    let (mut h_plain, mut h_enc) = (vec![3u64; n], vec![3u64; n]);
    plain.hash_combine(None, &mut h_plain);
    enc.hash_combine(None, &mut h_enc);
    assert_eq!(h_plain, h_enc, "hashes");
    let idx: Vec<u32> = (0..n as u32).rev().step_by(3).collect();
    let (g_enc, g_plain) = (enc.gather(&idx), plain.gather(&idx));
    for k in 0..idx.len() {
        assert_eq!(g_enc.value(k), g_plain.value(k), "gathered row {k}");
    }
    for (off, len) in [(0, n), (1, n / 2), (n / 3, n - n / 3), (n, 0)] {
        let s = enc.slice(off, len);
        assert_eq!(lane_bytes(&s), want_bytes, "slice ({off}, {len})");
        for i in 0..len {
            assert_eq!(
                s.value(i),
                plain.value(off + i),
                "slice ({off}, {len}) row {i}"
            );
        }
    }
}

/// Queries over a table sealed with lanes against its plain twin: a range
/// filter, SUM (which may overflow — then both must fail) with
/// AVG/MIN/MAX/COUNT, the lane column as group key and as join key (lanes
/// against plain and against lanes), and top-k.
fn check_lane_plans(vals: &[Option<i64>], want_bytes: Option<usize>) {
    let catalog = MemCatalog::new();
    let right: Vec<Option<i64>> = vals.iter().rev().copied().collect();
    for (stem, vs, names) in [("t", vals, ["k", "v"]), ("r", &right, ["rk", "rv"])] {
        let schema = Schema::new(names.map(|n| Field::nullable(n, DataType::Int64)).to_vec());
        let keys = Column::from_i64((0..vs.len() as i64).map(|i| i % 3).collect());
        let plain = Column::from_opt_i64(vs.to_vec());
        let enc = plain.int64_encode().expect("int columns encode");
        assert_eq!(lane_bytes(&enc), want_bytes, "lane width of {vs:?}");
        for (v, suffix) in [(enc, "lanes"), (plain, "plain")] {
            let columns = vec![Arc::new(keys.clone()), Arc::new(v)];
            let batch = RecordBatch::try_new(schema.clone(), columns).expect("schema");
            let mut table = Table::new(schema.clone());
            table.push_sealed_batch(batch).expect("sealed batch");
            catalog.register(format!("{stem}_{suffix}"), table);
        }
    }
    let run = |sql: &str| {
        let plan = parse_select(sql, &catalog).expect("parses");
        execute(plan, &catalog, &ExecOptions::default()).map(|b| {
            let mut rows: Vec<String> = (b.to_rows().iter())
                .map(|r| format!("{:?}", r.iter().map(rounded).collect::<Vec<_>>()))
                .collect();
            rows.sort();
            rows
        })
    };
    let hi = vals.iter().flatten().max().copied().expect("pinned rows");
    let lo = vals.iter().flatten().min().copied().expect("pinned rows");
    let mid = lo + (hi - lo) / 2 + 1;
    let queries = [
        format!("SELECT * FROM t_? WHERE v > {mid} AND v <= {hi}"),
        "SELECT k, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi, COUNT(v) AS n \
         FROM t_? GROUP BY k"
            .into(),
        "SELECT v, COUNT(*) AS n FROM t_? GROUP BY v".into(),
        "SELECT * FROM t_? ORDER BY v DESC, k LIMIT 5".into(),
    ];
    for sql in &queries {
        match (
            run(&sql.replace('?', "lanes")),
            run(&sql.replace('?', "plain")),
        ) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{sql}"),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{sql}: lanes {got:?} vs plain {want:?}"),
        }
    }
    let join = |l: &str, r: &str| run(&format!("SELECT * FROM t_{l} JOIN r_{r} ON v = rv"));
    let want = join("plain", "plain").expect("join runs");
    for (l, r) in [("lanes", "lanes"), ("lanes", "plain"), ("plain", "lanes")] {
        assert_eq!(join(l, r).expect("join runs"), want, "join {l} x {r}");
    }
}

/// Floats to 12 significant digits: lanes may sum an AVG in another order.
fn rounded(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("{f:.11e}"),
        other => format!("{other:?}"),
    }
}
