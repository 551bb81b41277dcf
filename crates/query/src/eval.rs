//! Vectorized expression evaluation over record batches.
//!
//! Kernels are **selection-aware**: when a batch carries a selection vector,
//! every computed column still has the batch's *base* row count, but only the
//! selected lanes are evaluated (and marked valid). That keeps column indices
//! aligned across stacked operators without compaction, and it preserves
//! error semantics — a division by zero on a row the filter already dropped
//! must not fail the query.
//!
//! Predicates take a narrower road: [`refine_selection`] turns a `WHERE`
//! clause straight into a narrower selection vector. Conjuncts refine one
//! after another, and `column <cmp> literal` runs a branch-free kernel over
//! the column's borrowed slices — no literal broadcast, no `Bool` column, no
//! mask. Any other shape evaluates through [`eval`] (the reference path) and
//! keeps its TRUE lanes.

use crate::error::{QueryError, Result};
use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel_metrics;
use backbone_storage::compress::EncodedInts;
use backbone_storage::{Bitmap, Column, RecordBatch, Value};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Visit base-row indices: the selected lanes when `sel` is present, else all
/// of `0..n`.
macro_rules! lanes {
    ($sel:expr, $n:expr, $i:ident => $body:block) => {
        match $sel {
            Some(s) => {
                for &lane in s {
                    let $i = lane as usize;
                    $body
                }
            }
            None => {
                for $i in 0..$n {
                    $body
                }
            }
        }
    };
}

/// Evaluate an expression against a batch, producing one column of the
/// batch's **base** row count. On a selected batch only the selected lanes
/// are computed; other lanes are NULL and must not be read.
pub fn eval(expr: &Expr, batch: &RecordBatch) -> Result<Column> {
    let out = eval_arc(expr, batch)?;
    Ok(Arc::try_unwrap(out).unwrap_or_else(|shared| shared.as_ref().clone()))
}

/// Evaluate like [`eval`], but column references return the batch's shared
/// column handle instead of deep-cloning the data — the difference between
/// O(1) and re-allocating every string in a Utf8 column on each batch.
pub fn eval_arc(expr: &Expr, batch: &RecordBatch) -> Result<Arc<Column>> {
    eval_lanes(expr, batch, batch.selection())
}

/// Narrow `batch`'s selection to the rows where `predicate` is TRUE — SQL
/// `WHERE` semantics: FALSE and NULL rows drop. Columns are shared, never
/// copied, and the result always carries a selection vector (ascending
/// when the input's was).
pub fn refine_selection(predicate: &Expr, batch: &RecordBatch) -> Result<RecordBatch> {
    let sel = select(predicate, batch, batch.selection())?;
    Ok(batch.with_selection(Arc::new(sel))?)
}

/// Base-row indices among the candidates (`sel`, else every row) where
/// `predicate` is TRUE, in candidate order.
fn select(predicate: &Expr, batch: &RecordBatch, sel: Option<&[u32]>) -> Result<Vec<u32>> {
    match strip_alias(predicate) {
        // TRUE AND TRUE is the only TRUE conjunction: each conjunct refines
        // the survivors of the one before.
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            let survivors = select(left, batch, sel)?;
            if survivors.is_empty() {
                return Ok(survivors);
            }
            return select(right, batch, Some(&survivors));
        }
        Expr::Binary { left, op, right } => {
            if let Some((name, op, literal)) = column_vs_literal(left, *op, right) {
                if let Some(out) = select_cmp(column(batch, name)?, op, literal, sel) {
                    return Ok(out);
                }
            }
        }
        _ => {}
    }
    true_lanes(&*eval_lanes(predicate, batch, sel)?, sel)
}

/// The candidates whose lane of a Bool verdict column is TRUE.
fn true_lanes(verdict: &Column, sel: Option<&[u32]>) -> Result<Vec<u32>> {
    match verdict {
        Column::Bool(vals, validity) => Ok(refine(sel, vals.len(), validity, |i| vals[i])),
        other => Err(QueryError::InvalidExpression(format!(
            "predicate must be boolean, got {}",
            other.data_type()
        ))),
    }
}

fn column<'b>(batch: &'b RecordBatch, name: &str) -> Result<&'b Arc<Column>> {
    batch
        .column_by_name(name)
        .map_err(|_| QueryError::InvalidExpression(format!("unknown column '{name}'")))
}

fn eval_lanes(expr: &Expr, batch: &RecordBatch, sel: Option<&[u32]>) -> Result<Arc<Column>> {
    match expr {
        Expr::Column(name) => Ok(column(batch, name)?.clone()),
        Expr::Literal(v) => Ok(Arc::new(broadcast(v, batch.base_rows()))),
        Expr::Param(i) => Err(QueryError::InvalidExpression(format!(
            "parameter ${} is not bound",
            i + 1
        ))),
        Expr::Alias(inner, _) => eval_lanes(inner, batch, sel),
        Expr::Unary { op, expr } => {
            let input = eval_lanes(expr, batch, sel)?;
            Ok(Arc::new(eval_unary(*op, &input)?))
        }
        Expr::Binary { left, op, right } => {
            // `column <cmp> literal` as a value (under OR, NOT, a
            // projection): the selection kernel run for the comparison and
            // for its negation splits the lanes into TRUE, FALSE and NULL.
            if let Some((name, cmp, literal)) = column_vs_literal(left, *op, right) {
                let col = column(batch, name)?;
                if let Some(yes) = select_cmp(col, cmp, literal, sel) {
                    let no = select_cmp(col, cmp.negated(), literal, sel)
                        .expect("a kernel covers both a comparison and its negation");
                    return Ok(Arc::new(verdict_column(col.len(), &yes, &no)));
                }
            }
            let l = eval_lanes(left, batch, sel)?;
            let r = eval_lanes(right, batch, sel)?;
            Ok(Arc::new(eval_binary(&l, *op, &r, sel)?))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let input = eval_lanes(expr, batch, sel)?;
            Ok(Arc::new(eval_like(&input, pattern, *negated, sel)?))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(Arc::new(eval_in_list(expr, list, *negated, batch, sel)?)),
    }
}

/// Strip alias wrappers to the underlying expression.
fn strip_alias(mut e: &Expr) -> &Expr {
    while let Expr::Alias(inner, _) = e {
        e = inner;
    }
    e
}

/// `column <op> literal` with the literal on either side, normalized so the
/// column comes first. `None` for every other comparison shape.
fn column_vs_literal<'e>(
    left: &'e Expr,
    op: BinOp,
    right: &'e Expr,
) -> Option<(&'e str, BinOp, &'e Value)> {
    if !op.is_comparison() {
        return None;
    }
    match (strip_alias(left), strip_alias(right)) {
        (Expr::Column(n), Expr::Literal(v)) => Some((n, op, v)),
        (Expr::Literal(v), Expr::Column(n)) => Some((n, op.flipped(), v)),
        _ => None,
    }
}

/// A Bool column from the TRUE lanes `yes` and the FALSE lanes `no`; every
/// other lane is NULL.
fn verdict_column(n: usize, yes: &[u32], no: &[u32]) -> Column {
    let mut vals = vec![false; n];
    let mut validity = Bitmap::all_null(n);
    for &i in yes {
        vals[i as usize] = true;
        validity.set(i as usize, true);
    }
    for &i in no {
        validity.set(i as usize, true);
    }
    Column::Bool(vals, validity)
}

/// One comparison operator as a type, so every kernel below is
/// monomorphized per operator and its inner loop holds no `match`.
/// `test` is the SQL verdict on two non-NULL operands: unordered operands
/// (a NaN on either side) compare NULL, so every operator — `<>` included —
/// answers `false` for them.
trait Cmp {
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool;
}

struct CmpEq;
struct CmpNe;
struct CmpLt;
struct CmpLe;
struct CmpGt;
struct CmpGe;

impl Cmp for CmpEq {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a == b
    }
}

impl Cmp for CmpNe {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        matches!(a.partial_cmp(b), Some(Ordering::Less | Ordering::Greater))
    }
}

impl Cmp for CmpLt {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a < b
    }
}

impl Cmp for CmpLe {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a <= b
    }
}

impl Cmp for CmpGt {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a > b
    }
}

impl Cmp for CmpGe {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a >= b
    }
}

/// Refine the candidates by `col <op> literal`, or `None` when no kernel
/// covers this column kind and literal type (the caller then evaluates the
/// reference path, which also reports type errors).
fn select_cmp(col: &Column, op: BinOp, literal: &Value, sel: Option<&[u32]>) -> Option<Vec<u32>> {
    let t0 = Instant::now();
    let out = match op {
        BinOp::Eq => select_cmp_op::<CmpEq>(col, literal, sel),
        BinOp::NotEq => select_cmp_op::<CmpNe>(col, literal, sel),
        BinOp::Lt => select_cmp_op::<CmpLt>(col, literal, sel),
        BinOp::LtEq => select_cmp_op::<CmpLe>(col, literal, sel),
        BinOp::Gt => select_cmp_op::<CmpGt>(col, literal, sel),
        BinOp::GtEq => select_cmp_op::<CmpGe>(col, literal, sel),
        _ => None,
    }?;
    let lanes = sel.map_or(col.len(), <[u32]>::len) as u64;
    let (ns, rows) = match col {
        Column::DictUtf8 { .. } => ("op.eval.kernel.dict_cmp_ns", "op.eval.kernel.dict_rows"),
        Column::Int64Encoded { .. } => ("op.eval.kernel.enc_cmp_ns", "op.eval.kernel.enc_rows"),
        _ => return Some(out),
    };
    kernel_metrics::record(|m| {
        m.counter(ns).add_elapsed(t0);
        m.counter(rows).add(lanes);
    });
    Some(out)
}

/// The per-kind verdicts of one operator. A NULL literal makes every
/// comparison NULL; the numeric kinds answer that with no survivors (other
/// kinds leave it to the reference path, which rejects the type mix).
fn select_cmp_op<O: Cmp>(col: &Column, literal: &Value, sel: Option<&[u32]>) -> Option<Vec<u32>> {
    let n = col.len();
    Some(match (col, literal) {
        (Column::Int64(..) | Column::Float64(..) | Column::Int64Encoded { .. }, Value::Null) => {
            Vec::new()
        }
        (Column::Int64(v, valid), Value::Int(x)) => refine(sel, n, valid, |i| O::test(&v[i], x)),
        (Column::Int64(v, valid), Value::Float(x)) => {
            refine(sel, n, valid, |i| O::test(&(v[i] as f64), x))
        }
        (Column::Float64(v, valid), Value::Float(x)) => {
            refine(sel, n, valid, |i| O::test(&v[i], x))
        }
        (Column::Float64(v, valid), Value::Int(x)) => {
            let x = *x as f64;
            refine(sel, n, valid, |i| O::test(&v[i], &x))
        }
        (
            Column::Int64Encoded {
                data: EncodedInts::BitPacked(p),
                validity,
            },
            Value::Int(x),
        ) => refine(sel, n, validity, |i| O::test(&p.get_unchecked(i), x)),
        (
            Column::Int64Encoded {
                data: EncodedInts::BitPacked(p),
                validity,
            },
            Value::Float(x),
        ) => refine(sel, n, validity, |i| {
            O::test(&(p.get_unchecked(i) as f64), x)
        }),
        (
            Column::Int64Encoded {
                data: EncodedInts::Rle { rle, ends },
                validity,
            },
            Value::Int(x),
        ) => refine_runs(sel, &rle.runs, ends, validity, |v| O::test(&v, x)),
        (
            Column::Int64Encoded {
                data: EncodedInts::Rle { rle, ends },
                validity,
            },
            Value::Float(x),
        ) => refine_runs(sel, &rle.runs, ends, validity, |v| O::test(&(v as f64), x)),
        (
            Column::DictUtf8 {
                dict,
                codes,
                validity,
            },
            Value::Str(s),
        ) => {
            // One string comparison per dictionary entry, then a code
            // lookup per lane. NULL slots may hold any code: the trailing
            // `false` catches out-of-range ones without a branch.
            let mut accept: Vec<bool> = dict.iter().map(|e| O::test(e.as_str(), &**s)).collect();
            accept.push(false);
            let last = dict.len();
            refine(sel, n, validity, |i| accept[(codes[i] as usize).min(last)])
        }
        (Column::Utf8(v, valid), Value::Str(s)) => {
            refine(sel, n, valid, |i| O::test(v[i].as_str(), &**s))
        }
        _ => return None,
    })
}

/// The candidates (`sel`, else `0..n`) that are valid and pass `keep`.
#[inline(always)]
fn refine(
    sel: Option<&[u32]>,
    n: usize,
    validity: &Bitmap,
    keep: impl Fn(usize) -> bool,
) -> Vec<u32> {
    if validity.all_set() {
        refine_lanes(sel, n, keep)
    } else {
        refine_lanes(sel, n, |i| validity.get(i) & keep(i))
    }
}

/// Branch-free selection (Ross, "Selection conditions in main memory",
/// TODS 2004): every candidate is written to the output and the cursor
/// advances by the verdict, so the loop has no data-dependent branch to
/// mispredict at middling selectivities.
#[inline(always)]
fn refine_lanes(sel: Option<&[u32]>, n: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; sel.map_or(n, <[u32]>::len)];
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                out[k] = i;
                k += keep(i as usize) as usize;
            }
        }
        None => {
            for i in 0..n {
                out[k] = i as u32;
                k += keep(i) as usize;
            }
        }
    }
    shrunk(out, k)
}

/// Truncate a kernel's output to its `k` survivors, returning memory a
/// selective predicate left unused (the selection lives as long as the
/// batch view that carries it).
fn shrunk(mut out: Vec<u32>, k: usize) -> Vec<u32> {
    out.truncate(k);
    if k < out.capacity() / 4 {
        out.shrink_to_fit();
    }
    out
}

/// [`refine`] over an RLE column: one verdict per run. Without a selection
/// the passing runs' ranges are emitted whole; with one, the run cursor is
/// merge-walked forward along the (ascending) selection instead of
/// binary-searching every lane. An out-of-order lane re-seeks the cursor.
fn refine_runs(
    sel: Option<&[u32]>,
    runs: &[(i64, u32)],
    ends: &[u32],
    validity: &Bitmap,
    verdict: impl Fn(i64) -> bool,
) -> Vec<u32> {
    let all_valid = validity.all_set();
    let Some(sel) = sel else {
        let mut out = Vec::new();
        let mut start = 0u32;
        for (&(v, _), &end) in runs.iter().zip(ends) {
            if verdict(v) {
                out.extend(start..end);
            }
            start = end;
        }
        if !all_valid {
            out.retain(|&i| validity.get(i as usize));
        }
        return out;
    };
    let mut out = vec![0u32; sel.len()];
    let mut k = 0;
    let mut r = 0usize;
    let mut keep = runs.first().is_some_and(|&(v, _)| verdict(v));
    for &i in sel {
        if ends[r] <= i {
            while ends[r] <= i {
                r += 1;
            }
            keep = verdict(runs[r].0);
        } else if r > 0 && ends[r - 1] > i {
            r = ends.partition_point(|&e| e <= i);
            keep = verdict(runs[r].0);
        }
        out[k] = i;
        k += (keep & (all_valid || validity.get(i as usize))) as usize;
    }
    shrunk(out, k)
}

/// SQL `IN (...)`: OR-chain three-valued semantics. Dictionary columns with
/// all-literal string lists build an accept set once per dictionary entry.
fn eval_in_list(
    expr: &Expr,
    list: &[Expr],
    negated: bool,
    batch: &RecordBatch,
    sel: Option<&[u32]>,
) -> Result<Column> {
    if let Some(out) = try_dict_in_list(expr, list, negated, batch, sel)? {
        return Ok(out);
    }
    let input = eval_lanes(expr, batch, sel)?;
    let n = input.len();
    // Fold `input = item` comparisons with three-valued OR, starting from
    // definite FALSE (the SQL verdict of `x IN ()`).
    let mut vals = vec![false; n];
    let mut validity = Bitmap::all_valid(n);
    for item in list {
        if matches!(strip_alias(item), Expr::Literal(Value::Null)) {
            // `x = NULL` is NULL for every row: a definite TRUE survives the
            // OR, everything else degrades to NULL.
            lanes!(sel, n, i => {
                if !(validity.get(i) && vals[i]) {
                    vals[i] = false;
                    validity.set(i, false);
                }
            });
            continue;
        }
        let item_col = eval_lanes(item, batch, sel)?;
        let cmp = eval_comparison(&input, BinOp::Eq, &item_col, sel)?;
        let Column::Bool(cv, cb) = cmp else {
            unreachable!("comparison yields Bool")
        };
        lanes!(sel, n, i => {
            let acc = validity.get(i).then_some(vals[i]);
            let item_v = cb.get(i).then_some(cv[i]);
            let out = match (acc, item_v) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            };
            match out {
                Some(v) => {
                    vals[i] = v;
                    validity.set(i, true);
                }
                None => {
                    vals[i] = false;
                    validity.set(i, false);
                }
            }
        });
    }
    if negated {
        lanes!(sel, n, i => {
            if validity.get(i) {
                vals[i] = !vals[i];
            }
        });
    }
    Ok(Column::Bool(vals, validity))
}

/// Accept-set membership for `dict_col IN ('a', 'b', ...)`. Returns `None`
/// unless the probe is a dictionary column reference and every list item is
/// a string (or NULL) literal.
fn try_dict_in_list(
    expr: &Expr,
    list: &[Expr],
    negated: bool,
    batch: &RecordBatch,
    sel: Option<&[u32]>,
) -> Result<Option<Column>> {
    let Expr::Column(name) = strip_alias(expr) else {
        return Ok(None);
    };
    let mut items: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut has_null_item = false;
    for e in list {
        match strip_alias(e) {
            Expr::Literal(Value::Str(s)) => {
                items.insert(s);
            }
            Expr::Literal(Value::Null) => has_null_item = true,
            _ => return Ok(None),
        }
    }
    let Ok(col) = batch.column_by_name(name) else {
        return Ok(None);
    };
    let Some((dict, codes, validity)) = col.dict_parts() else {
        return Ok(None);
    };
    let t0 = Instant::now();
    let accept: Vec<bool> = dict.iter().map(|e| items.contains(e.as_str())).collect();
    let n = codes.len();
    let mut vals = vec![false; n];
    let mut out_validity = Bitmap::all_null(n);
    lanes!(sel, n, i => {
        if validity.get(i) {
            if accept[codes[i] as usize] {
                vals[i] = !negated;
                out_validity.set(i, true);
            } else if !has_null_item {
                vals[i] = negated;
                out_validity.set(i, true);
            }
            // else: no match but a NULL item — verdict is NULL.
        }
    });
    kernel_metrics::record(|m| {
        m.counter("op.eval.kernel.dict_in_ns").add_elapsed(t0);
        m.counter("op.eval.kernel.dict_rows").add(n as u64);
    });
    Ok(Some(Column::Bool(vals, out_validity)))
}

/// A LIKE pattern compiled once per column. Patterns whose only wildcards
/// are leading/trailing `%` dispatch to `str` fast paths; everything else
/// uses segment search: the pattern splits on `%` into fixed-length
/// segments (`_` matches any one char), the first and last segments anchor
/// to the text's ends, and middle segments are found leftmost-first — no
/// char-by-char backtracking.
enum LikePattern {
    Exact(String),
    Prefix(String),
    Suffix(String),
    Contains(String),
    Segmented(Vec<Vec<char>>),
}

impl LikePattern {
    fn compile(pattern: &str) -> LikePattern {
        if !pattern.contains('_') {
            let inner_pct = |s: &str| s.contains('%');
            let starts = pattern.starts_with('%');
            let ends = pattern.ends_with('%') && pattern.len() >= 2 || pattern == "%";
            match (starts, ends) {
                (false, false) if !inner_pct(pattern) => {
                    return LikePattern::Exact(pattern.to_string())
                }
                (false, true) => {
                    let body = &pattern[..pattern.len() - 1];
                    if !inner_pct(body) {
                        return LikePattern::Prefix(body.to_string());
                    }
                }
                (true, false) => {
                    let body = &pattern[1..];
                    if !inner_pct(body) {
                        return LikePattern::Suffix(body.to_string());
                    }
                }
                (true, true) => {
                    let body = &pattern[1..pattern.len().saturating_sub(1).max(1)];
                    if !inner_pct(body) {
                        return LikePattern::Contains(body.to_string());
                    }
                }
                _ => {}
            }
        }
        // `%`-delimited segments; empty segments at the edges encode a
        // leading/trailing `%` (they anchor trivially).
        LikePattern::Segmented(pattern.split('%').map(|s| s.chars().collect()).collect())
    }

    fn matches(&self, text: &str, buf: &mut Vec<char>) -> bool {
        match self {
            LikePattern::Exact(p) => text == p,
            LikePattern::Prefix(p) => text.starts_with(p.as_str()),
            LikePattern::Suffix(p) => text.ends_with(p.as_str()),
            LikePattern::Contains(p) => text.contains(p.as_str()),
            LikePattern::Segmented(segs) => {
                buf.clear();
                buf.extend(text.chars());
                seg_match(buf, segs)
            }
        }
    }
}

/// SQL LIKE: `%` matches any run (including empty), `_` exactly one char.
/// NULL inputs yield NULL (excluded by predicate semantics). Dictionary
/// columns match once per dictionary entry, then scan codes.
fn eval_like(input: &Column, pattern: &str, negated: bool, sel: Option<&[u32]>) -> Result<Column> {
    let (vals, validity) = match input {
        Column::Utf8(v, b) => (v, b),
        Column::DictUtf8 { .. } => {
            let (dict, codes, validity) = input.dict_parts().expect("matched dict");
            let t0 = Instant::now();
            let pat = LikePattern::compile(pattern);
            let mut buf: Vec<char> = Vec::new();
            let accept: Vec<bool> = dict.iter().map(|e| pat.matches(e, &mut buf)).collect();
            let n = codes.len();
            let mut out = vec![false; n];
            let mut out_validity = Bitmap::all_null(n);
            lanes!(sel, n, i => {
                if validity.get(i) {
                    out[i] = accept[codes[i] as usize] != negated;
                    out_validity.set(i, true);
                }
            });
            kernel_metrics::record(|m| {
                m.counter("op.eval.kernel.dict_like_ns").add_elapsed(t0);
                m.counter("op.eval.kernel.dict_rows").add(n as u64);
            });
            return Ok(Column::Bool(out, out_validity));
        }
        other => {
            return Err(QueryError::InvalidExpression(format!(
                "LIKE over {}",
                other.data_type()
            )))
        }
    };
    let pat = LikePattern::compile(pattern);
    let n = vals.len();
    let mut out = vec![false; n];
    let mut out_validity = Bitmap::all_null(n);
    let mut buf: Vec<char> = Vec::new();
    lanes!(sel, n, i => {
        if validity.get(i) {
            let m = pat.matches(&vals[i], &mut buf);
            out[i] = m != negated;
            out_validity.set(i, true);
        }
    });
    Ok(Column::Bool(out, out_validity))
}

/// Whether `seg` matches at `text[at..at + seg.len()]` (`_` = any one char).
#[inline]
fn seg_eq_at(text: &[char], at: usize, seg: &[char]) -> bool {
    at + seg.len() <= text.len()
        && seg
            .iter()
            .zip(&text[at..])
            .all(|(p, t)| *p == '_' || p == t)
}

/// Leftmost occurrence of `seg` starting at or after `from` and ending at or
/// before `limit`.
fn find_seg(text: &[char], from: usize, limit: usize, seg: &[char]) -> Option<usize> {
    let mut p = from;
    while p + seg.len() <= limit {
        if seg_eq_at(text, p, seg) {
            return Some(p);
        }
        p += 1;
    }
    None
}

/// Segment-search LIKE matcher over `%`-split segments. The first segment
/// anchors at the start, the last at the end (empty edge segments — from
/// leading/trailing `%` — anchor trivially), and middle segments are
/// matched leftmost-first, which is optimal for fixed-length segments:
/// consuming a middle match as early as possible leaves a superset of text
/// for the rest.
fn seg_match(text: &[char], segs: &[Vec<char>]) -> bool {
    if segs.len() == 1 {
        // No `%` at all: exact length, `_` wildcards only.
        return text.len() == segs[0].len() && seg_eq_at(text, 0, &segs[0]);
    }
    let first = &segs[0];
    let last = &segs[segs.len() - 1];
    if !seg_eq_at(text, 0, first) {
        return false;
    }
    let mut pos = first.len();
    let Some(tail_start) = text.len().checked_sub(last.len()) else {
        return false;
    };
    if tail_start < pos || !seg_eq_at(text, tail_start, last) {
        return false;
    }
    for seg in &segs[1..segs.len() - 1] {
        if seg.is_empty() {
            continue;
        }
        match find_seg(text, pos, tail_start, seg) {
            Some(p) => pos = p + seg.len(),
            None => return false,
        }
    }
    true
}

fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Int(x) => Column::Int64(vec![*x; n], Bitmap::all_valid(n)),
        Value::Float(x) => Column::Float64(vec![*x; n], Bitmap::all_valid(n)),
        Value::Str(s) => Column::Utf8(vec![s.to_string(); n], Bitmap::all_valid(n)),
        Value::Bool(b) => Column::Bool(vec![*b; n], Bitmap::all_valid(n)),
        Value::Null => Column::Int64(vec![0; n], Bitmap::all_null(n)),
    }
}

fn eval_unary(op: UnOp, input: &Column) -> Result<Column> {
    let n = input.len();
    match op {
        UnOp::IsNull => {
            let vals: Vec<bool> = (0..n).map(|i| input.is_null(i)).collect();
            Ok(Column::Bool(vals, Bitmap::all_valid(n)))
        }
        UnOp::IsNotNull => {
            let vals: Vec<bool> = (0..n).map(|i| !input.is_null(i)).collect();
            Ok(Column::Bool(vals, Bitmap::all_valid(n)))
        }
        UnOp::Not => match input {
            Column::Bool(vals, validity) => Ok(Column::Bool(
                vals.iter().map(|b| !b).collect(),
                validity.clone(),
            )),
            other => Err(QueryError::InvalidExpression(format!(
                "NOT over {}",
                other.data_type()
            ))),
        },
        UnOp::Neg => match input {
            Column::Int64(vals, validity) => Ok(Column::Int64(
                vals.iter().map(|v| v.wrapping_neg()).collect(),
                validity.clone(),
            )),
            Column::Int64Encoded { data, validity } => Ok(Column::Int64(
                data.decode()
                    .into_iter()
                    .map(|v| v.wrapping_neg())
                    .collect(),
                validity.clone(),
            )),
            Column::Float64(vals, validity) => Ok(Column::Float64(
                vals.iter().map(|v| -v).collect(),
                validity.clone(),
            )),
            other => Err(QueryError::InvalidExpression(format!(
                "negation over {}",
                other.data_type()
            ))),
        },
    }
}

fn eval_binary(l: &Column, op: BinOp, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    if l.len() != r.len() {
        return Err(QueryError::InvalidExpression(format!(
            "operand length mismatch: {} vs {}",
            l.len(),
            r.len()
        )));
    }
    if op.is_logical() {
        return eval_logical(l, op, r, sel);
    }
    if op.is_comparison() {
        return eval_comparison(l, op, r, sel);
    }
    eval_arithmetic(l, op, r, sel)
}

/// Three-valued AND/OR per the SQL standard.
fn eval_logical(l: &Column, op: BinOp, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    let (lv, lb) = match l {
        Column::Bool(v, b) => (v, b),
        other => {
            return Err(QueryError::InvalidExpression(format!(
                "{op} over {}",
                other.data_type()
            )))
        }
    };
    let (rv, rb) = match r {
        Column::Bool(v, b) => (v, b),
        other => {
            return Err(QueryError::InvalidExpression(format!(
                "{op} over {}",
                other.data_type()
            )))
        }
    };
    let n = lv.len();
    let mut vals = vec![false; n];
    let mut validity = Bitmap::all_null(n);
    lanes!(sel, n, i => {
        let a = lb.get(i).then_some(lv[i]);
        let b = rb.get(i).then_some(rv[i]);
        let out = match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!(),
        };
        if let Some(v) = out {
            vals[i] = v;
            validity.set(i, true);
        }
    });
    Ok(Column::Bool(vals, validity))
}

fn eval_comparison(l: &Column, op: BinOp, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    use std::cmp::Ordering;
    let n = l.len();
    let keep = |ord: Ordering| -> bool {
        match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::NotEq => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::LtEq => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::GtEq => ord != Ordering::Less,
            _ => unreachable!(),
        }
    };

    let mut vals = vec![false; n];
    let mut validity = Bitmap::all_null(n);

    // Fast paths for the hot numeric/string cases; generic fallback via Value.
    match (l, r) {
        (Column::Int64(lv, lb), Column::Int64(rv, rb)) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(lv[i].cmp(&rv[i]));
                    validity.set(i, true);
                }
            });
        }
        (Column::Float64(lv, lb), Column::Float64(rv, rb)) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    if let Some(ord) = lv[i].partial_cmp(&rv[i]) {
                        vals[i] = keep(ord);
                        validity.set(i, true);
                    }
                }
            });
        }
        (Column::Int64(lv, lb), Column::Float64(rv, rb)) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    if let Some(ord) = (lv[i] as f64).partial_cmp(&rv[i]) {
                        vals[i] = keep(ord);
                        validity.set(i, true);
                    }
                }
            });
        }
        (Column::Float64(lv, lb), Column::Int64(rv, rb)) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    if let Some(ord) = lv[i].partial_cmp(&(rv[i] as f64)) {
                        vals[i] = keep(ord);
                        validity.set(i, true);
                    }
                }
            });
        }
        (Column::Utf8(lv, lb), Column::Utf8(rv, rb)) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(lv[i].cmp(&rv[i]));
                    validity.set(i, true);
                }
            });
        }
        (
            Column::Int64Encoded {
                data: ld,
                validity: lb,
            },
            Column::Int64(rv, rb),
        ) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(ld.get(i).cmp(&rv[i]));
                    validity.set(i, true);
                }
            });
        }
        (
            Column::Int64(lv, lb),
            Column::Int64Encoded {
                data: rd,
                validity: rb,
            },
        ) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(lv[i].cmp(&rd.get(i)));
                    validity.set(i, true);
                }
            });
        }
        (
            Column::Int64Encoded {
                data: ld,
                validity: lb,
            },
            Column::Int64Encoded {
                data: rd,
                validity: rb,
            },
        ) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(ld.get(i).cmp(&rd.get(i)));
                    validity.set(i, true);
                }
            });
        }
        (
            Column::Int64Encoded {
                data: ld,
                validity: lb,
            },
            Column::Float64(rv, rb),
        ) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    if let Some(ord) = (ld.get(i) as f64).partial_cmp(&rv[i]) {
                        vals[i] = keep(ord);
                        validity.set(i, true);
                    }
                }
            });
        }
        (
            Column::Float64(lv, lb),
            Column::Int64Encoded {
                data: rd,
                validity: rb,
            },
        ) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    if let Some(ord) = lv[i].partial_cmp(&(rd.get(i) as f64)) {
                        vals[i] = keep(ord);
                        validity.set(i, true);
                    }
                }
            });
        }
        (Column::Bool(lv, lb), Column::Bool(rv, rb)) => {
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(lv[i].cmp(&rv[i]));
                    validity.set(i, true);
                }
            });
        }
        (
            Column::DictUtf8 {
                dict: ld,
                codes: lc,
                validity: lb,
            },
            Column::DictUtf8 {
                dict: rd,
                codes: rc,
                validity: rb,
            },
        ) => {
            if Arc::ptr_eq(ld, rd) && matches!(op, BinOp::Eq | BinOp::NotEq) {
                // Shared dictionary: equality is code equality — no string
                // comparisons at all.
                lanes!(sel, n, i => {
                    if lb.get(i) && rb.get(i) {
                        vals[i] = keep(lc[i].cmp(&rc[i]));
                        validity.set(i, true);
                    }
                });
            } else {
                kernel_metrics::record(|m| m.counter("op.eval.kernel.dict_fallback").add(1));
                lanes!(sel, n, i => {
                    if lb.get(i) && rb.get(i) {
                        vals[i] =
                            keep(ld[lc[i] as usize].as_str().cmp(rd[rc[i] as usize].as_str()));
                        validity.set(i, true);
                    }
                });
            }
        }
        (
            Column::DictUtf8 {
                dict: ld,
                codes: lc,
                validity: lb,
            },
            Column::Utf8(rv, rb),
        ) => {
            kernel_metrics::record(|m| m.counter("op.eval.kernel.dict_fallback").add(1));
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(ld[lc[i] as usize].as_str().cmp(rv[i].as_str()));
                    validity.set(i, true);
                }
            });
        }
        (
            Column::Utf8(lv, lb),
            Column::DictUtf8 {
                dict: rd,
                codes: rc,
                validity: rb,
            },
        ) => {
            kernel_metrics::record(|m| m.counter("op.eval.kernel.dict_fallback").add(1));
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    vals[i] = keep(lv[i].as_str().cmp(rd[rc[i] as usize].as_str()));
                    validity.set(i, true);
                }
            });
        }
        _ => {
            return Err(QueryError::InvalidExpression(format!(
                "cannot compare {} with {}",
                l.data_type(),
                r.data_type()
            )))
        }
    }
    Ok(Column::Bool(vals, validity))
}

fn eval_arithmetic(l: &Column, op: BinOp, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    // Encoded integer inputs decode once and recurse: arithmetic writes a
    // fresh output vector per lane anyway, so there is no code-space win.
    if l.is_encoded() || r.is_encoded() {
        let ld = if l.is_encoded() { l.decoded() } else { None };
        let rd = if r.is_encoded() { r.decoded() } else { None };
        return eval_arithmetic(ld.as_ref().unwrap_or(l), op, rd.as_ref().unwrap_or(r), sel);
    }
    let n = l.len();
    match (l, r) {
        // Int op Int: stays integer, except Div which widens to float.
        (Column::Int64(lv, lb), Column::Int64(rv, rb)) if op != BinOp::Div => {
            let mut vals = vec![0i64; n];
            let mut validity = Bitmap::all_null(n);
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    let out = match op {
                        BinOp::Add => lv[i].checked_add(rv[i]),
                        BinOp::Sub => lv[i].checked_sub(rv[i]),
                        BinOp::Mul => lv[i].checked_mul(rv[i]),
                        BinOp::Mod => lv[i].checked_rem(rv[i]),
                        _ => unreachable!(),
                    };
                    match out {
                        Some(v) => {
                            vals[i] = v;
                            validity.set(i, true);
                        }
                        None => {
                            return Err(QueryError::Arithmetic(format!(
                                "integer overflow or zero modulus in {} {op} {}",
                                lv[i], rv[i]
                            )))
                        }
                    }
                }
            });
            Ok(Column::Int64(vals, validity))
        }
        // Everything else numeric: compute in f64.
        _ => {
            let (lv, lb) = to_f64_parts(l)?;
            let (rv, rb) = to_f64_parts(r)?;
            let mut vals = vec![0f64; n];
            let mut validity = Bitmap::all_null(n);
            lanes!(sel, n, i => {
                if lb.get(i) && rb.get(i) {
                    let a = lv.get_f64(i);
                    let b = rv.get_f64(i);
                    let v = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => {
                            if b == 0.0 {
                                return Err(QueryError::Arithmetic("division by zero".into()));
                            }
                            a / b
                        }
                        BinOp::Mod => {
                            if b == 0.0 {
                                return Err(QueryError::Arithmetic("modulo by zero".into()));
                            }
                            a % b
                        }
                        _ => unreachable!(),
                    };
                    vals[i] = v;
                    validity.set(i, true);
                }
            });
            Ok(Column::Float64(vals, validity))
        }
    }
}

/// A numeric slice readable as `f64` without copying the column.
enum F64Lanes<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
}

impl F64Lanes<'_> {
    #[inline]
    fn get_f64(&self, i: usize) -> f64 {
        match self {
            F64Lanes::F(v) => v[i],
            F64Lanes::I(v) => v[i] as f64,
        }
    }
}

fn to_f64_parts(c: &Column) -> Result<(F64Lanes<'_>, &Bitmap)> {
    match c {
        Column::Float64(v, b) => Ok((F64Lanes::F(v), b)),
        Column::Int64(v, b) => Ok((F64Lanes::I(v), b)),
        other => Err(QueryError::InvalidExpression(format!(
            "arithmetic over {}",
            other.data_type()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use backbone_storage::{DataType, Field, Schema};
    use std::sync::Arc;

    /// The predicate's verdict per logical row, read off the selection
    /// [`refine_selection`] leaves.
    fn eval_predicate(expr: &Expr, batch: &RecordBatch) -> Result<Vec<bool>> {
        let refined = refine_selection(expr, batch)?;
        let kept = refined
            .selection()
            .expect("refined batches carry a selection");
        Ok((0..batch.num_rows())
            .map(|i| kept.binary_search(&(batch.base_index(i) as u32)).is_ok())
            .collect())
    }

    fn batch() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::nullable("b", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let cols = vec![
            Arc::new(Column::from_i64(vec![1, 2, 3, 4])),
            Arc::new(Column::from_opt_i64(vec![Some(10), None, Some(30), None])),
            Arc::new(Column::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
            Arc::new(Column::from_strings(vec![
                "x".into(),
                "y".into(),
                "x".into(),
                "z".into(),
            ])),
        ];
        RecordBatch::try_new(schema, cols).unwrap()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = eval(&col("a"), &b).unwrap();
        assert_eq!(c.i64_data().unwrap(), &[1, 2, 3, 4]);
        let l = eval(&lit(7i64), &b).unwrap();
        assert_eq!(l.i64_data().unwrap(), &[7, 7, 7, 7]);
    }

    #[test]
    fn arithmetic_int() {
        let b = batch();
        let c = eval(&col("a").add(lit(10i64)).mul(lit(2i64)), &b).unwrap();
        assert_eq!(c.i64_data().unwrap(), &[22, 24, 26, 28]);
    }

    #[test]
    fn arithmetic_null_propagates() {
        let b = batch();
        let c = eval(&col("b").add(lit(1i64)), &b).unwrap();
        assert_eq!(c.value(0), Value::Int(11));
        assert!(c.is_null(1));
        assert!(c.is_null(3));
    }

    #[test]
    fn int_division_gives_float() {
        let b = batch();
        let c = eval(&col("a").div(lit(2i64)), &b).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.value(1), Value::Float(1.0));
        assert_eq!(c.value(2), Value::Float(1.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let b = batch();
        assert!(matches!(
            eval(&col("a").div(lit(0i64)), &b),
            Err(QueryError::Arithmetic(_))
        ));
    }

    #[test]
    fn mixed_numeric_comparison() {
        let b = batch();
        let mask = eval_predicate(&col("a").gt(col("f")), &b).unwrap();
        assert_eq!(mask, vec![true, true, true, true]);
        let mask = eval_predicate(&col("f").gt(lit(2i64)), &b).unwrap();
        assert_eq!(mask, vec![false, false, true, true]);
    }

    #[test]
    fn string_comparison() {
        let b = batch();
        let mask = eval_predicate(&col("s").eq(lit("x")), &b).unwrap();
        assert_eq!(mask, vec![true, false, true, false]);
    }

    #[test]
    fn null_comparison_is_not_true() {
        let b = batch();
        // b is NULL on rows 1 and 3: comparisons with NULL are never TRUE.
        let mask = eval_predicate(&col("b").gt_eq(lit(0i64)), &b).unwrap();
        assert_eq!(mask, vec![true, false, true, false]);
    }

    #[test]
    fn three_valued_and_or() {
        let b = batch();
        // (b > 0) is NULL on rows 1,3. FALSE AND NULL = FALSE; TRUE OR NULL = TRUE.
        let and_mask =
            eval_predicate(&col("a").gt(lit(100i64)).and(col("b").gt(lit(0i64))), &b).unwrap();
        assert_eq!(and_mask, vec![false; 4]);
        let or_mask =
            eval_predicate(&col("a").gt(lit(0i64)).or(col("b").gt(lit(0i64))), &b).unwrap();
        assert_eq!(or_mask, vec![true; 4]);
        // NULL AND TRUE = NULL -> not kept by predicate semantics.
        let m = eval_predicate(&col("b").gt(lit(0i64)).and(col("a").gt(lit(0i64))), &b).unwrap();
        assert_eq!(m, vec![true, false, true, false]);
    }

    #[test]
    fn not_inverts_with_null_passthrough() {
        let b = batch();
        let m = eval_predicate(&col("b").gt(lit(0i64)).not(), &b).unwrap();
        // NOT NULL is still NULL -> excluded.
        assert_eq!(m, vec![false, false, false, false]);
    }

    #[test]
    fn is_null_predicates() {
        let b = batch();
        let m = eval_predicate(&col("b").is_null(), &b).unwrap();
        assert_eq!(m, vec![false, true, false, true]);
        let m = eval_predicate(&col("b").is_not_null(), &b).unwrap();
        assert_eq!(m, vec![true, false, true, false]);
    }

    #[test]
    fn negation() {
        let b = batch();
        let c = eval(&col("a").neg(), &b).unwrap();
        assert_eq!(c.i64_data().unwrap(), &[-1, -2, -3, -4]);
    }

    #[test]
    fn unknown_column_errors() {
        let b = batch();
        assert!(eval(&col("nope"), &b).is_err());
    }

    #[test]
    fn predicate_must_be_boolean() {
        let b = batch();
        assert!(eval_predicate(&col("a"), &b).is_err());
    }

    #[test]
    fn like_matching_semantics() {
        let b = batch();
        // s = ["x","y","x","z"]
        let m = eval_predicate(&col("s").like("x"), &b).unwrap();
        assert_eq!(m, vec![true, false, true, false]);
        let m = eval_predicate(&col("s").like("%"), &b).unwrap();
        assert_eq!(m, vec![true; 4]);
        let m = eval_predicate(&col("s").not_like("x"), &b).unwrap();
        assert_eq!(m, vec![false, true, false, true]);
        assert!(eval(&col("a").like("%"), &b).is_err());
    }

    /// One low-cardinality string column, dict-encoded, next to its plain
    /// twin — every dict kernel must agree with the plain path over it.
    fn dict_batch() -> RecordBatch {
        let strs = vec![
            Value::Str("ash".into()),
            Value::Str("birch".into()),
            Value::Null,
            Value::Str("ash".into()),
            Value::Str("cedar".into()),
            Value::Str("birch".into()),
        ];
        let plain = Column::from_values(DataType::Utf8, &strs).unwrap();
        let dict = plain.dict_encode().expect("string column encodes");
        assert!(dict.is_dict());
        let schema = Schema::new(vec![
            Field::nullable("d", DataType::Utf8),
            Field::nullable("p", DataType::Utf8),
        ]);
        RecordBatch::try_new(schema, vec![Arc::new(dict), Arc::new(plain)]).unwrap()
    }

    #[test]
    fn dict_compare_agrees_with_plain() {
        let b = dict_batch();
        type MakeExpr = fn(Expr) -> Expr;
        let cases: [(MakeExpr, &str); 4] = [
            (|c| c.eq(lit("birch")), "eq"),
            (|c| c.not_eq(lit("birch")), "neq"),
            (|c| c.lt(lit("birch")), "lt"),
            (|c| c.gt_eq(lit("birch")), "gte"),
        ];
        for (make, _name) in cases {
            let dm = eval_predicate(&make(col("d")), &b).unwrap();
            let pm = eval_predicate(&make(col("p")), &b).unwrap();
            assert_eq!(dm, pm);
        }
        // Flipped literal orientation takes the same fast path.
        let dm = eval_predicate(&lit("birch").lt(col("d")), &b).unwrap();
        let pm = eval_predicate(&lit("birch").lt(col("p")), &b).unwrap();
        assert_eq!(dm, pm);
    }

    #[test]
    fn dict_compare_records_kernel_metrics() {
        let b = dict_batch();
        let m = crate::Metrics::new();
        {
            let _g = kernel_metrics::install(Some(m.clone()));
            eval_predicate(&col("d").eq(lit("ash")), &b).unwrap();
            eval_predicate(&col("d").like("%ir%"), &b).unwrap();
        }
        assert_eq!(m.value("op.eval.kernel.dict_rows"), 12);
        assert_eq!(m.value("op.eval.kernel.dict_fallback"), 0);
    }

    #[test]
    fn dict_like_agrees_with_plain() {
        let b = dict_batch();
        for pat in ["ash", "%ir%", "b_rch", "%h", "c%r", "%"] {
            let dm = eval_predicate(&col("d").like(pat), &b).unwrap();
            let pm = eval_predicate(&col("p").like(pat), &b).unwrap();
            assert_eq!(dm, pm, "LIKE {pat}");
            let dm = eval_predicate(&col("d").not_like(pat), &b).unwrap();
            let pm = eval_predicate(&col("p").not_like(pat), &b).unwrap();
            assert_eq!(dm, pm, "NOT LIKE {pat}");
        }
    }

    /// One compressible Int64 column, encoded, next to its plain twin —
    /// every encoded kernel must agree with the plain path over it.
    fn encoded_batch() -> RecordBatch {
        let ints = vec![
            Some(3),
            Some(3),
            None,
            Some(7),
            Some(7),
            Some(7),
            Some(-2),
            None,
        ];
        let plain = Column::from_opt_i64(ints);
        let enc = plain.int64_encode().expect("int column encodes");
        assert!(enc.is_encoded());
        let schema = Schema::new(vec![
            Field::nullable("e", DataType::Int64),
            Field::nullable("p", DataType::Int64),
        ]);
        RecordBatch::try_new(schema, vec![Arc::new(enc), Arc::new(plain)]).unwrap()
    }

    #[test]
    fn encoded_compare_agrees_with_plain() {
        let b = encoded_batch();
        type MakeExpr = fn(Expr) -> Expr;
        let cases: [MakeExpr; 6] = [
            |c| c.eq(lit(7i64)),
            |c| c.not_eq(lit(7i64)),
            |c| c.lt(lit(3i64)),
            |c| c.lt_eq(lit(3i64)),
            |c| c.gt(lit(-2i64)),
            |c| c.gt_eq(lit(7.0)),
        ];
        for make in cases {
            let em = eval_predicate(&make(col("e")), &b).unwrap();
            let pm = eval_predicate(&make(col("p")), &b).unwrap();
            assert_eq!(em, pm);
        }
        // Flipped literal orientation takes the same fast path.
        let em = eval_predicate(&lit(3i64).lt(col("e")), &b).unwrap();
        let pm = eval_predicate(&lit(3i64).lt(col("p")), &b).unwrap();
        assert_eq!(em, pm);
        // Column-vs-column comparisons exercise the typed arms.
        let em = eval_predicate(&col("e").eq(col("p")), &b).unwrap();
        assert_eq!(em, vec![true, true, false, true, true, true, true, false]);
        let em = eval_predicate(&col("e").lt_eq(col("e")), &b).unwrap();
        let pm = eval_predicate(&col("p").lt_eq(col("p")), &b).unwrap();
        assert_eq!(em, pm);
    }

    #[test]
    fn encoded_compare_records_kernel_metrics() {
        let b = encoded_batch();
        let m = crate::Metrics::new();
        {
            let _g = kernel_metrics::install(Some(m.clone()));
            eval_predicate(&col("e").gt(lit(0i64)), &b).unwrap();
        }
        assert_eq!(m.value("op.eval.kernel.enc_rows"), 8);
    }

    #[test]
    fn encoded_arithmetic_and_misc_agree_with_plain() {
        let b = encoded_batch();
        let ec = eval(&col("e").add(lit(5i64)).mul(lit(2i64)), &b).unwrap();
        let pc = eval(&col("p").add(lit(5i64)).mul(lit(2i64)), &b).unwrap();
        for i in 0..b.num_rows() {
            assert_eq!(ec.value(i), pc.value(i), "arith row {i}");
        }
        let en = eval(&col("e").neg(), &b).unwrap();
        let pn = eval(&col("p").neg(), &b).unwrap();
        for i in 0..b.num_rows() {
            assert_eq!(en.value(i), pn.value(i), "neg row {i}");
        }
        let em = eval_predicate(&col("e").is_null(), &b).unwrap();
        let pm = eval_predicate(&col("p").is_null(), &b).unwrap();
        assert_eq!(em, pm);
        let em = eval_predicate(&col("e").in_list(vec![lit(3i64), lit(-2i64)]), &b).unwrap();
        let pm = eval_predicate(&col("p").in_list(vec![lit(3i64), lit(-2i64)]), &b).unwrap();
        assert_eq!(em, pm);
    }

    #[test]
    fn encoded_compare_respects_selection() {
        let b = encoded_batch();
        let sel = b.with_selection(Arc::new(vec![0, 3, 6])).unwrap();
        let em = eval_predicate(&col("e").gt(lit(0i64)), &sel).unwrap();
        let pm = eval_predicate(&col("p").gt(lit(0i64)), &sel).unwrap();
        assert_eq!(em, pm);
        assert_eq!(em, vec![true, true, false]);
    }

    #[test]
    fn rle_kernel_matches_plain_on_any_selection_order() {
        use backbone_storage::compress::RleI64;
        let vals = [1, 1, 1, 4, 4, 2, 2, 2, 2, 9];
        let rle = Column::encoded_from_parts(
            EncodedInts::from_rle(RleI64::encode(&vals)),
            Bitmap::all_valid(vals.len()),
        );
        let schema = Schema::new(vec![
            Field::new("r", DataType::Int64),
            Field::new("p", DataType::Int64),
        ]);
        let cols = vec![Arc::new(rle), Arc::new(Column::from_i64(vals.to_vec()))];
        let b = RecordBatch::try_new(schema, cols).unwrap();
        // Ascending lanes merge-walk the runs; the reversed ones re-seek.
        for lanes in [vec![0, 3, 4, 8, 9], vec![9, 8, 5, 4, 1, 0]] {
            let sel = b.with_selection(Arc::new(lanes)).unwrap();
            for pred in [col("r").gt(lit(1i64)), lit(2i64).not_eq(col("r"))] {
                let rm = eval_predicate(&pred, &sel).unwrap();
                let pm = eval_predicate(&on_plain_twin(&pred), &sel).unwrap();
                assert_eq!(rm, pm, "{pred}");
            }
        }
    }

    /// `pred` with its column `r` renamed to the plain twin `p`.
    fn on_plain_twin(pred: &Expr) -> Expr {
        match pred {
            Expr::Column(_) => col("p"),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(on_plain_twin(left)),
                op: *op,
                right: Box::new(on_plain_twin(right)),
            },
            other => other.clone(),
        }
    }

    #[test]
    fn in_list_semantics() {
        let b = batch();
        // a = [1,2,3,4]
        let m = eval_predicate(&col("a").in_list(vec![lit(1), lit(3)]), &b).unwrap();
        assert_eq!(m, vec![true, false, true, false]);
        let m = eval_predicate(&col("a").not_in_list(vec![lit(1), lit(3)]), &b).unwrap();
        assert_eq!(m, vec![false, true, false, true]);
        // NULL item: matches stay TRUE, non-matches become NULL (filtered).
        let m = eval_predicate(
            &col("a").in_list(vec![lit(1), Expr::Literal(Value::Null)]),
            &b,
        )
        .unwrap();
        assert_eq!(m, vec![true, false, false, false]);
        // NOT IN with a NULL item can never be TRUE.
        let m = eval_predicate(
            &col("a").not_in_list(vec![lit(1), Expr::Literal(Value::Null)]),
            &b,
        )
        .unwrap();
        assert_eq!(m, vec![false; 4]);
        // NULL probe rows are NULL.
        let m = eval_predicate(&col("b").in_list(vec![lit(10), lit(30)]), &b).unwrap();
        assert_eq!(m, vec![true, false, true, false]);
        // Empty list is vacuously FALSE; NOT IN () is TRUE.
        let m = eval_predicate(&col("a").not_in_list(vec![]), &b).unwrap();
        assert_eq!(m, vec![true; 4]);
    }

    #[test]
    fn dict_in_list_agrees_with_plain() {
        let b = dict_batch();
        let items = || vec![lit("ash"), lit("cedar")];
        let dm = eval_predicate(&col("d").in_list(items()), &b).unwrap();
        let pm = eval_predicate(&col("p").in_list(items()), &b).unwrap();
        assert_eq!(dm, pm);
        assert_eq!(dm, vec![true, false, false, true, true, false]);
        let dm = eval_predicate(&col("d").not_in_list(items()), &b).unwrap();
        let pm = eval_predicate(&col("p").not_in_list(items()), &b).unwrap();
        assert_eq!(dm, pm);
        // NULL list item: non-members become NULL, members stay TRUE.
        let with_null = || vec![lit("ash"), Expr::Literal(Value::Null)];
        let dm = eval_predicate(&col("d").in_list(with_null()), &b).unwrap();
        let pm = eval_predicate(&col("p").in_list(with_null()), &b).unwrap();
        assert_eq!(dm, pm);
        assert_eq!(dm, vec![true, false, false, true, false, false]);
    }

    /// Reference LIKE matcher: the classic greedy-with-backtracking
    /// two-pointer algorithm. Kept as a test oracle for the segmented
    /// production matcher.
    fn like_oracle(text: &[char], pat: &[char]) -> bool {
        let (mut t, mut p) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None;
        while t < text.len() {
            if p < pat.len() && (pat[p] == '_' || pat[p] == text[t]) {
                t += 1;
                p += 1;
            } else if p < pat.len() && pat[p] == '%' {
                star = Some((p + 1, t));
                p += 1;
            } else if let Some((sp, st)) = star {
                p = sp;
                t = st + 1;
                star = Some((sp, st + 1));
            } else {
                return false;
            }
        }
        while p < pat.len() && pat[p] == '%' {
            p += 1;
        }
        p == pat.len()
    }

    #[test]
    fn like_match_wildcards() {
        let cases = [
            ("hello", "h%o", true),
            ("hello", "h_llo", true),
            ("hello", "h_lo", false),
            ("hello", "%ell%", true),
            ("hello", "", false),
            ("", "", true),
            ("", "%", true),
            ("abc", "a%b%c", true),
            ("abc", "%a", false),
            ("aaa", "a%a", true),
            ("a", "a%a", false),
            ("mississippi", "m%iss%pi", true),
            ("mississippi", "m%iss%pj", false),
            ("ab", "a%_b", false),
            ("axb", "a%_b", true),
        ];
        for (text, pat, want) in cases {
            let t: Vec<char> = text.chars().collect();
            let segs: Vec<Vec<char>> = pat.split('%').map(|s| s.chars().collect()).collect();
            assert_eq!(seg_match(&t, &segs), want, "{text} LIKE {pat}");
            let p: Vec<char> = pat.chars().collect();
            assert_eq!(like_oracle(&t, &p), want, "oracle: {text} LIKE {pat}");
        }
    }

    #[test]
    fn like_fast_paths_agree_with_generic() {
        // Every compiled class must match the oracle matcher's verdict.
        let texts = ["", "a", "ab", "abc", "hello", "aXb", "xx%yy", "aab", "abab"];
        let patterns = [
            "abc", "a%", "%c", "%b%", "%", "%%", "a%c", "_b_", "a_", "%_%", "ab%", "%ab", "",
            "a%_b", "a%b%", "%a%b", "_%_", "a__b",
        ];
        for pat in patterns {
            let compiled = LikePattern::compile(pat);
            let generic: Vec<char> = pat.chars().collect();
            let mut buf = Vec::new();
            for text in texts {
                let t: Vec<char> = text.chars().collect();
                assert_eq!(
                    compiled.matches(text, &mut buf),
                    like_oracle(&t, &generic),
                    "'{text}' LIKE '{pat}'"
                );
            }
        }
    }

    #[test]
    fn selected_batch_evaluates_only_lanes() {
        // Row 1 would divide by zero, but it is deselected — must not error.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("d", DataType::Int64),
        ]);
        let cols = vec![
            Arc::new(Column::from_i64(vec![10, 20, 30])),
            Arc::new(Column::from_i64(vec![2, 0, 5])),
        ];
        let b = RecordBatch::try_new(schema, cols).unwrap();
        let sel = b.with_selection(Arc::new(vec![0, 2])).unwrap();
        let c = eval(&col("x").div(col("d")), &sel).unwrap();
        assert_eq!(c.value(0), Value::Float(5.0));
        assert_eq!(c.value(2), Value::Float(6.0));
        // Dense evaluation of the same expression must still error.
        assert!(eval(&col("x").div(col("d")), &b).is_err());
    }

    #[test]
    fn predicate_mask_is_logical_on_selected_batch() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let cols = vec![Arc::new(Column::from_i64(vec![1, 2, 3, 4, 5]))];
        let b = RecordBatch::try_new(schema, cols).unwrap();
        let sel = b.with_selection(Arc::new(vec![1, 3, 4])).unwrap();
        let m = eval_predicate(&col("x").gt(lit(2i64)), &sel).unwrap();
        // Logical rows are x = [2, 4, 5].
        assert_eq!(m, vec![false, true, true]);
    }

    #[test]
    fn integer_overflow_detected() {
        let b = batch();
        assert!(matches!(
            eval(&col("a").mul(lit(i64::MAX)), &b),
            Err(QueryError::Arithmetic(_))
        ));
    }
}
