//! Vectorized expression evaluation over record batches.
//!
//! Kernels are **selection-aware**: when a batch carries a selection vector,
//! every computed column still has the batch's *base* row count, but only the
//! selected lanes are evaluated (and marked valid). That keeps column indices
//! aligned across stacked operators without compaction, and it preserves
//! error semantics — a division by zero on a row the filter already dropped
//! must not fail the query.
//!
//! Predicates take a narrower road: their comparison kernels have one
//! output, `u64` words of 64 row verdicts (bit `i % 64` of word `i / 64` is
//! base row `i`). `words` is the one recursion over a predicate. A conjunct
//! narrows the candidate words the conjuncts before it left; `column <cmp>
//! literal` runs a branch-free kernel over the column's borrowed slices (no
//! literal broadcast, no `Bool` column); AND and OR trees of such
//! comparisons are word ops; any other shape evaluates through [`eval`]
//! over the candidates to a `Bool` column, masked into words.
//! [`select_words`] hands the words out as a bitmap (hybrid search masks
//! rows with it), and [`refine_selection`] reads the ascending selection
//! vector operators narrow batches with off them.

use crate::error::{QueryError, Result};
use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel_metrics;
use backbone_storage::column::set_bits;
use backbone_storage::compress::{EncodedInts, ForLanes, Lane};
use backbone_storage::{Bitmap, Column, RecordBatch, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The lane loop of the value kernels whose NULLs depend on more than
/// their operands' validity (AND/OR, `IN`, LIKE): `f` of each visited lane
/// (the selected ones when `sel` is present, else all of `0..n`) is its
/// value, `None` for NULL, and lanes not visited are NULL.
fn lane_kernel<T: Copy + Default>(
    n: usize,
    sel: Option<&[u32]>,
    mut f: impl FnMut(usize) -> Option<T>,
) -> (Vec<T>, Bitmap) {
    let mut vals = vec![T::default(); n];
    let mut valid = no_rows(n);
    let mut visit = |i: usize| {
        if let Some(v) = f(i) {
            vals[i] = v;
            valid[i / 64] |= 1 << (i % 64);
        }
    };
    match sel {
        Some(s) => s.iter().for_each(|&i| visit(i as usize)),
        None => (0..n).for_each(visit),
    }
    (vals, Bitmap::from_words(valid, n))
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
/// copied, and the result always carries an ascending selection vector:
/// the set bits of [`select_words`].
pub fn refine_selection(predicate: &Expr, batch: &RecordBatch) -> Result<RecordBatch> {
    let kept = words(predicate, batch, candidates(batch).as_deref())?;
    Ok(batch.with_selection(Arc::new(selection_of(&kept)))?)
}

/// The rows where `predicate` is TRUE among the batch's selected rows, as a
/// bitmap over its base rows: bit `i` is set exactly when base row `i`
/// passes.
pub fn select_words(predicate: &Expr, batch: &RecordBatch) -> Result<Bitmap> {
    let kept = words(predicate, batch, candidates(batch).as_deref())?;
    Ok(Bitmap::from_words(kept, batch.base_rows()))
}

/// The batch's selection as candidate words; `None` when every row is one.
fn candidates(batch: &RecordBatch) -> Option<Vec<u64>> {
    batch.selection().map(|s| scatter(s, batch.base_rows()))
}

/// The candidates (`cand`, else every row) where `predicate` is TRUE, as
/// words. TRUE AND TRUE is the only TRUE conjunction, so each conjunct
/// refines the survivors of the one before; a conjunct that can fail (`10
/// / a > 1`) is evaluated on those survivors only, so `a <> 0 AND 10 / a >
/// 1` never divides by a rejected zero.
fn words(predicate: &Expr, batch: &RecordBatch, cand: Option<&[u64]>) -> Result<Vec<u64>> {
    if let Expr::Binary {
        left,
        op: BinOp::And,
        right,
    } = strip_alias(predicate)
    {
        let survivors = words(left, batch, cand)?;
        if survivors.iter().all(|&w| w == 0) {
            return Ok(survivors);
        }
        return words(right, batch, Some(&survivors));
    }
    if let Some(out) = kernel_words(predicate, batch, cand)? {
        return Ok(out);
    }
    let sel = cand.map(selection_of);
    match &*eval_lanes(predicate, batch, sel.as_deref())? {
        Column::Bool(vals, validity) => Ok(refine(cand, vals.len(), validity, |i| vals[i])),
        other => Err(QueryError::InvalidExpression(format!(
            "predicate must be boolean, got {}",
            other.data_type()
        ))),
    }
}

/// The words of a tree of `column <cmp> literal` leaves joined by AND and
/// OR, or `None` when it has another shape or a leaf has no kernel (found
/// before any later leaf is read, so the caller's `eval` reports the
/// errors). A kernel reads every row and cannot fail, so the rows where
/// the tree is TRUE are plain word ops on the leaves' TRUE rows, as
/// three-valued AND and OR give.
fn kernel_words(
    predicate: &Expr,
    batch: &RecordBatch,
    cand: Option<&[u64]>,
) -> Result<Option<Vec<u64>>> {
    let Expr::Binary { left, op, right } = strip_alias(predicate) else {
        return Ok(None);
    };
    if let logical @ (BinOp::And | BinOp::Or) = *op {
        let Some(mut out) = kernel_words(left, batch, cand)? else {
            return Ok(None);
        };
        let Some(other) = kernel_words(right, batch, cand)? else {
            return Ok(None);
        };
        for (a, b) in out.iter_mut().zip(&other) {
            *a = if logical == BinOp::And {
                *a & b
            } else {
                *a | b
            };
        }
        return Ok(Some(out));
    }
    match column_vs_literal(left, *op, right) {
        Some((name, op, literal)) => Ok(select_cmp(column(batch, name)?, op, literal, cand)),
        None => Ok(None),
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
            // projection): the kernel run for the comparison and for its
            // negation splits the lanes into TRUE, FALSE and NULL.
            if let Some((name, cmp, literal)) = column_vs_literal(left, *op, right) {
                let col = column(batch, name)?;
                let cand = sel.map(|s| scatter(s, col.len()));
                if let Some(yes) = select_cmp(col, cmp, literal, cand.as_deref()) {
                    let no = select_cmp(col, cmp.negated(), literal, cand.as_deref())
                        .expect("a kernel covers both a comparison and its negation");
                    return Ok(Arc::new(verdict_column(col.len(), yes, &no)));
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

/// A Bool column from the words of its TRUE rows `yes` and its FALSE rows
/// `no`; every other lane is NULL.
fn verdict_column(n: usize, mut yes: Vec<u64>, no: &[u64]) -> Column {
    let vals = (0..n).map(|i| yes[i / 64] >> (i % 64) & 1 == 1).collect();
    yes.iter_mut().zip(no).for_each(|(y, n)| *y |= n);
    Column::Bool(vals, Bitmap::from_words(yes, n))
}

/// One comparison operator as a type, so every kernel below is
/// monomorphized per operator and its inner loop holds no `match`.
/// `test` is the SQL verdict on two non-NULL operands: unordered operands
/// (a NaN on either side) compare NULL, so every operator — `<>` included —
/// answers `false` for them.
trait Cmp {
    /// Whether the verdict asks only if the operands are equal (`=`, `<>`),
    /// so codes of one dictionary answer it without their strings.
    const EQUALITY: bool = false;

    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool;

    /// The passing residual codes of a frame of `end` codes, where exactly
    /// the codes below `lt` compare less than the literal and the codes
    /// below `le` compare less or equal: a half-open range, or — when the
    /// flag is set — everything outside it.
    fn codes(lt: u64, le: u64, end: u64) -> (Range<u64>, bool);
}

struct CmpEq;
struct CmpNe;
struct CmpLt;
struct CmpLe;
struct CmpGt;
struct CmpGe;

impl Cmp for CmpEq {
    const EQUALITY: bool = true;

    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a == b
    }

    #[inline(always)]
    fn codes(lt: u64, le: u64, _end: u64) -> (Range<u64>, bool) {
        (lt..le, false)
    }
}

impl Cmp for CmpNe {
    const EQUALITY: bool = true;

    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        matches!(a.partial_cmp(b), Some(Ordering::Less | Ordering::Greater))
    }

    #[inline(always)]
    fn codes(lt: u64, le: u64, _end: u64) -> (Range<u64>, bool) {
        (lt..le, true)
    }
}

impl Cmp for CmpLt {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a < b
    }

    #[inline(always)]
    fn codes(lt: u64, _le: u64, _end: u64) -> (Range<u64>, bool) {
        (0..lt, false)
    }
}

impl Cmp for CmpLe {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a <= b
    }

    #[inline(always)]
    fn codes(_lt: u64, le: u64, _end: u64) -> (Range<u64>, bool) {
        (0..le, false)
    }
}

impl Cmp for CmpGt {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a > b
    }

    #[inline(always)]
    fn codes(_lt: u64, le: u64, end: u64) -> (Range<u64>, bool) {
        (le..end, false)
    }
}

impl Cmp for CmpGe {
    #[inline(always)]
    fn test<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a >= b
    }

    #[inline(always)]
    fn codes(lt: u64, _le: u64, end: u64) -> (Range<u64>, bool) {
        (lt..end, false)
    }
}

/// The candidates (`cand`, else every row) where `col <op> literal` is
/// TRUE, as words, or `None` when no kernel covers this column kind and
/// literal type (the caller then evaluates the reference path, which also
/// reports type errors).
fn select_cmp(col: &Column, op: BinOp, literal: &Value, cand: Option<&[u64]>) -> Option<Vec<u64>> {
    // Only the dictionary and encoded kernels record their time.
    let timed = matches!(col, Column::DictUtf8 { .. } | Column::Int64Encoded { .. });
    let t0 = timed.then(Instant::now);
    let out = match op {
        BinOp::Eq => select_cmp_op::<CmpEq>(col, literal, cand),
        BinOp::NotEq => select_cmp_op::<CmpNe>(col, literal, cand),
        BinOp::Lt => select_cmp_op::<CmpLt>(col, literal, cand),
        BinOp::LtEq => select_cmp_op::<CmpLe>(col, literal, cand),
        BinOp::Gt => select_cmp_op::<CmpGt>(col, literal, cand),
        BinOp::GtEq => select_cmp_op::<CmpGe>(col, literal, cand),
        _ => None,
    }?;
    if let Some(t0) = t0 {
        let rows = col.len() as u64;
        if col.is_encoded() {
            kernel_metrics::record(|c| {
                c.enc_cmp_ns.add_elapsed(t0);
                c.enc_rows.add(rows);
            });
        } else {
            kernel_metrics::record(|c| {
                c.dict_cmp_ns.add_elapsed(t0);
                c.dict_rows.add(rows);
            });
        }
    }
    Some(out)
}

/// The per-kind verdicts of one operator. A NULL literal makes every
/// comparison NULL, over a column of any kind: no survivors.
fn select_cmp_op<O: Cmp>(col: &Column, literal: &Value, cand: Option<&[u64]>) -> Option<Vec<u64>> {
    let n = col.len();
    Some(match (col, literal) {
        (_, Value::Null) => no_rows(n),
        (Column::Int64(v, valid), Value::Int(x)) => refine(cand, n, valid, |i| O::test(&v[i], x)),
        (Column::Int64(v, valid), Value::Float(x)) => {
            refine(cand, n, valid, |i| O::test(&(v[i] as f64), x))
        }
        (Column::Float64(v, valid), Value::Float(x)) => {
            refine(cand, n, valid, |i| O::test(&v[i], x))
        }
        (Column::Float64(v, valid), Value::Int(x)) => {
            let x = *x as f64;
            refine(cand, n, valid, |i| O::test(&v[i], &x))
        }
        (
            Column::Int64Encoded {
                data: EncodedInts::For(f),
                validity,
            },
            Value::Int(x),
        ) => refine_frame::<O>(cand, f, validity, |v| v < *x, |v| v <= *x),
        (
            Column::Int64Encoded {
                data: EncodedInts::For(_),
                ..
            },
            Value::Float(x),
        ) if x.is_nan() => no_rows(n),
        (
            Column::Int64Encoded {
                data: EncodedInts::For(f),
                validity,
            },
            Value::Float(x),
        ) => refine_frame::<O>(cand, f, validity, |v| (v as f64) < *x, |v| (v as f64) <= *x),
        (
            Column::Int64Encoded {
                data: EncodedInts::Rle { rle, ends },
                validity,
            },
            Value::Int(x),
        ) => refine_runs(cand, &rle.runs, ends, validity, |v| O::test(&v, x)),
        (
            Column::Int64Encoded {
                data: EncodedInts::Rle { rle, ends },
                validity,
            },
            Value::Float(x),
        ) => refine_runs(cand, &rle.runs, ends, validity, |v| O::test(&(v as f64), x)),
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
            refine(cand, n, validity, |i| accept[(codes[i] as usize).min(last)])
        }
        (Column::Utf8(v, valid), Value::Str(s)) => {
            refine(cand, n, valid, |i| O::test(v[i].as_str(), &**s))
        }
        _ => return None,
    })
}

/// A word with fewer candidates than this asks `keep` about them alone;
/// a denser one asks about all 64 rows.
const SPARSE: u32 = 16;

/// The candidates (`cand`, else every row) among `0..n` that are valid and
/// pass `keep`, as words. No lane can fail, so a word with [`SPARSE`] or
/// more candidates asks about every row in a dense loop that packs 64
/// verdicts without a gather; a sparser one asks about its candidates
/// only, and a word without any costs nothing.
#[inline(always)]
fn refine(
    cand: Option<&[u64]>,
    n: usize,
    validity: &Bitmap,
    keep: impl Fn(usize) -> bool,
) -> Vec<u64> {
    let mut out = no_rows(n);
    let full = n / 64;
    let mut flags = [0u8; 64];
    for (w, word) in out[..full].iter_mut().enumerate() {
        let base = w * 64;
        if let Some(c) = cand.map(|c| c[w]).filter(|c| c.count_ones() < SPARSE) {
            for j in set_bits(std::slice::from_ref(&c)) {
                *word |= (keep(base + j) as u64) << j;
            }
            continue;
        }
        for (j, f) in flags.iter_mut().enumerate() {
            *f = keep(base + j) as u8;
        }
        // The verdicts go to bytes first (that loop vectorizes); one
        // multiply then gathers eight 0/1 bytes into the top byte of its
        // product, the first row in the lowest bit.
        *word = flags.chunks_exact(8).rev().fold(0, |bits, eight| {
            let bytes = u64::from_le_bytes(eight.try_into().expect("8 bytes"));
            bits << 8 | bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56
        });
    }
    if let Some(word) = out.get_mut(full) {
        let base = full * 64;
        *word = (base..n).fold(0, |bits, i| bits | (keep(i) as u64) << (i - base));
    }
    mask_words(&mut out, validity, cand);
    out
}

/// [`refine`] over an RLE column (`runs[r]` ends before row `ends[r]`):
/// one verdict per run, and a passing run sets its rows as one bit range.
fn refine_runs(
    cand: Option<&[u64]>,
    runs: &[(i64, u32)],
    ends: &[u32],
    validity: &Bitmap,
    verdict: impl Fn(i64) -> bool,
) -> Vec<u64> {
    let mut out = no_rows(validity.len());
    let mut start = 0;
    for (&(v, _), &end) in runs.iter().zip(ends) {
        if verdict(v) {
            set_range(&mut out, start..end as usize);
        }
        start = end as usize;
    }
    mask_words(&mut out, validity, cand);
    out
}

/// Words for `n` rows, none set.
fn no_rows(n: usize) -> Vec<u64> {
    vec![0; n.div_ceil(64)]
}

/// Set the bits of `rows`: whole words in the middle, masked ends.
fn set_range(words: &mut [u64], rows: Range<usize>) {
    if rows.is_empty() {
        return;
    }
    let (first, last) = (rows.start / 64, (rows.end - 1) / 64);
    let head = !0u64 << (rows.start % 64);
    let tail = !0u64 >> (63 - (rows.end - 1) % 64);
    if first == last {
        words[first] |= head & tail;
    } else {
        words[first] |= head;
        words[first + 1..last].fill(!0);
        words[last] |= tail;
    }
}

/// Clear the bits of NULL rows and of rows that are not candidates.
fn mask_words(out: &mut [u64], validity: &Bitmap, cand: Option<&[u64]>) {
    if !validity.all_set() {
        out.iter_mut()
            .zip(validity.words())
            .for_each(|(w, v)| *w &= v);
    }
    if let Some(cand) = cand {
        out.iter_mut().zip(cand).for_each(|(w, c)| *w &= c);
    }
}

/// Positions `sel` of `n` rows as words.
fn scatter(sel: &[u32], n: usize) -> Vec<u64> {
    let mut out = no_rows(n);
    for &i in sel {
        out[i as usize / 64] |= 1 << (i % 64);
    }
    out
}

/// The set bits of `words`, ascending, as a selection vector. A sparse word
/// is walked bit by bit; a denser one a byte at a time, writing the byte's
/// eight positions from a table and advancing the cursor by its popcount.
fn selection_of(words: &[u64]) -> Vec<u32> {
    let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    // Eight slots of slack: a byte always writes eight past the cursor.
    let mut sel = vec![0u32; ones + 8];
    let mut k = 0;
    for (w, &word) in words.iter().enumerate() {
        let base = w as u32 * 64;
        if word.count_ones() < 8 {
            for j in set_bits(std::slice::from_ref(&word)) {
                sel[k] = base + j as u32;
                k += 1;
            }
            continue;
        }
        for (b, byte) in word.to_le_bytes().into_iter().enumerate() {
            let at = base + b as u32 * 8;
            for (slot, &bit) in sel[k..k + 8].iter_mut().zip(&BYTE_BITS[byte as usize]) {
                *slot = at + bit as u32;
            }
            k += byte.count_ones() as usize;
        }
    }
    sel.truncate(k);
    sel
}

/// The positions of the set bits of each byte value, ascending, padded
/// with zeros.
static BYTE_BITS: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut k) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte][k] = bit as u8;
                k += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// [`refine`] over frame-of-reference lanes. The literal is translated
/// once into residual space: `lt(v)` / `le(v)` say whether value `v`
/// compares less / less-or-equal to it, exactly as the plain kernel
/// compares (in f64 for a Float literal). Both are monotone in `v`, so a
/// binary search over the lane width's codes finds where each flips, and
/// `O::codes` turns the two split points into an inclusive code range
/// (empty or full when the literal falls outside the frame). The lanes are
/// then compared raw, monomorphized per lane width. A NaN literal never
/// gets here.
fn refine_frame<O: Cmp>(
    cand: Option<&[u64]>,
    f: &ForLanes,
    validity: &Bitmap,
    lt: impl Fn(i64) -> bool,
    le: impl Fn(i64) -> bool,
) -> Vec<u64> {
    backbone_storage::with_lanes!(&f.lanes, s => {
        let end = lane_end(s);
        // Codes past the largest residual saturate, which keeps both
        // predicates monotone over the whole lane width.
        let value = |c: u64| f.reference.saturating_add(c as i64);
        let split = |pred: &dyn Fn(i64) -> bool| partition_codes(end, |c| pred(value(c)));
        let (range, outside) = O::codes(split(&lt), split(&le), end);
        refine_codes(cand, s, validity, range, outside, end)
    })
}

/// One past the largest code of a lane slice's width.
fn lane_end<T: Lane>(_: &[T]) -> u64 {
    T::MAX + 1
}

/// The first code in `0..end` where `pred` stops holding (`pred` is true
/// on a prefix of the codes, then false).
fn partition_codes(end: u64, pred: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The candidates whose lane falls inside `range` (outside it when
/// `outside`), compared in the lane type. Empty and full ranges answer
/// without reading a lane.
fn refine_codes<T: Lane>(
    cand: Option<&[u64]>,
    lanes: &[T],
    validity: &Bitmap,
    range: Range<u64>,
    outside: bool,
    end: u64,
) -> Vec<u64> {
    let n = lanes.len();
    if range.is_empty() || range == (0..end) {
        return if range.is_empty() == outside {
            refine(cand, n, validity, |_| true)
        } else {
            no_rows(n)
        };
    }
    let (lo, hi) = (T::narrow(range.start), T::narrow(range.end - 1));
    // One comparison per lane whenever the range is a point or touches an
    // end of the lane width.
    match (outside, range.start == 0, range.end == end, lo == hi) {
        (true, _, _, true) => refine(cand, n, validity, |i| lanes[i] != lo),
        (true, ..) => refine(cand, n, validity, |i| (lanes[i] < lo) | (lanes[i] > hi)),
        (false, _, _, true) => refine(cand, n, validity, |i| lanes[i] == lo),
        (false, true, ..) => refine(cand, n, validity, |i| lanes[i] <= hi),
        (false, _, true, _) => refine(cand, n, validity, |i| lanes[i] >= lo),
        (false, ..) => refine(cand, n, validity, |i| (lanes[i] >= lo) & (lanes[i] <= hi)),
    }
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
    let evaluated = eval_lanes(expr, batch, sel)?;
    let input = plain_ints(&evaluated);
    let n = input.len();
    // `x IN (a, b)` is `x = a OR x = b`, folded from definite FALSE (the
    // SQL verdict of `x IN ()`).
    let mut acc = Column::Bool(vec![false; n], Bitmap::all_valid(n));
    for item in list {
        let hit = if matches!(strip_alias(item), Expr::Literal(Value::Null)) {
            // `x = NULL` is NULL for every row.
            Column::Bool(vec![false; n], Bitmap::all_null(n))
        } else {
            eval_comparison(&input, BinOp::Eq, &*eval_lanes(item, batch, sel)?, sel)?
        };
        acc = eval_logical(&acc, BinOp::Or, &hit, sel)?;
    }
    if negated {
        acc = eval_unary(UnOp::Not, &acc)?;
    }
    Ok(acc)
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
    // `x IN ()` is FALSE even for a NULL `x`; the general path answers it.
    let (Expr::Column(name), false) = (strip_alias(expr), list.is_empty()) else {
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
    // No match but a NULL item: the verdict is NULL.
    let (vals, out_validity) = lane_kernel(n, sel, |i| {
        match validity.get(i).then(|| accept[codes[i] as usize]) {
            Some(true) => Some(!negated),
            Some(false) => (!has_null_item).then_some(negated),
            None => None,
        }
    });
    kernel_metrics::record(|c| {
        c.dict_in_ns.add_elapsed(t0);
        c.dict_rows.add(n as u64);
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
            let (out, out_validity) = lane_kernel(n, sel, |i| {
                validity
                    .get(i)
                    .then(|| accept[codes[i] as usize] != negated)
            });
            kernel_metrics::record(|c| {
                c.dict_like_ns.add_elapsed(t0);
                c.dict_rows.add(n as u64);
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
    let mut buf: Vec<char> = Vec::new();
    let (out, out_validity) = lane_kernel(vals.len(), sel, |i| {
        validity
            .get(i)
            .then(|| pat.matches(&vals[i], &mut buf) != negated)
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

/// Three-valued AND/OR per the SQL standard: FALSE decides an AND and TRUE
/// an OR; otherwise a NULL side makes the result NULL.
fn eval_logical(l: &Column, op: BinOp, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    let (Column::Bool(a, lb), Column::Bool(b, rb)) = (l, r) else {
        let other = if matches!(l, Column::Bool(..)) { r } else { l };
        return Err(QueryError::InvalidExpression(format!(
            "{op} over {}",
            other.data_type()
        )));
    };
    let decides = op == BinOp::Or;
    let (vals, validity) = lane_kernel(a.len(), sel, |i| {
        let (x, y) = (lb.get(i).then_some(a[i]), rb.get(i).then_some(b[i]));
        if x == Some(decides) || y == Some(decides) {
            Some(decides)
        } else {
            x.and(y).map(|_| !decides)
        }
    });
    Ok(Column::Bool(vals, validity))
}

/// `l <op> r` per lane: NULL when either side is NULL or the two are
/// unordered (a NaN), else the operator's verdict.
fn eval_comparison(l: &Column, op: BinOp, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    match op {
        BinOp::Eq => compare::<CmpEq>(l, r, sel),
        BinOp::NotEq => compare::<CmpNe>(l, r, sel),
        BinOp::Lt => compare::<CmpLt>(l, r, sel),
        BinOp::LtEq => compare::<CmpLe>(l, r, sel),
        BinOp::Gt => compare::<CmpGt>(l, r, sel),
        BinOp::GtEq => compare::<CmpGe>(l, r, sel),
        _ => unreachable!("{op} is not a comparison"),
    }
}

/// [`eval_comparison`] for one operator: each column pair supplies the
/// ordering of its two lanes to [`verdicts`]. Int64 against Int64 compares
/// exactly, Int64 against Float64 in f64; one dictionary on both sides
/// compares codes for `=` and `<>`, and every other string mix compares
/// strings.
fn compare<O: Cmp>(l: &Column, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    if l.is_encoded() || r.is_encoded() {
        return compare::<O>(&plain_ints(l), &plain_ints(r), sel);
    }
    // The Bool column of `O` from the ordering of each lane pair.
    macro_rules! by {
        ($ord:expr) => {
            verdicts::<O>(sel, l.validity(), r.validity(), $ord)
        };
    }
    Ok(match (l, r) {
        (Column::Int64(a, _), Column::Int64(b, _)) => by!(|i| Some(a[i].cmp(&b[i]))),
        (Column::Float64(a, _), Column::Float64(b, _)) => by!(|i| a[i].partial_cmp(&b[i])),
        (Column::Int64(a, _), Column::Float64(b, _)) => by!(|i| (a[i] as f64).partial_cmp(&b[i])),
        (Column::Float64(a, _), Column::Int64(b, _)) => by!(|i| a[i].partial_cmp(&(b[i] as f64))),
        (Column::Bool(a, _), Column::Bool(b, _)) => by!(|i| Some(a[i].cmp(&b[i]))),
        (Column::Utf8(a, _), Column::Utf8(b, _)) => by!(|i| Some(a[i].cmp(&b[i]))),
        (
            Column::DictUtf8 {
                dict: x, codes: a, ..
            },
            Column::DictUtf8 {
                dict: y, codes: b, ..
            },
        ) if O::EQUALITY && Arc::ptr_eq(x, y) => by!(|i| Some(a[i].cmp(&b[i]))),
        _ => {
            let (Some(a), Some(b)) = (strings(l), strings(r)) else {
                return Err(QueryError::InvalidExpression(format!(
                    "cannot compare {} with {}",
                    l.data_type(),
                    r.data_type()
                )));
            };
            kernel_metrics::record(|c| c.dict_fallback.incr());
            by!(|i| Some(a(i).cmp(b(i))))
        }
    })
}

/// The Bool column of `O` from the ordering `ord` of each visited lane
/// pair (`Less < Equal < Greater`, so `O` tested against `Equal` is the
/// verdict). `ord` runs on every visited lane, NULLs' placeholders too, and
/// validity is decided a word at a time: both sides valid and the pair
/// ordered.
fn verdicts<O: Cmp>(
    sel: Option<&[u32]>,
    lb: &Bitmap,
    rb: &Bitmap,
    ord: impl Fn(usize) -> Option<Ordering>,
) -> Column {
    let (n, mut valid) = (lb.len(), both_valid(sel, lb, rb));
    let mut vals = vec![false; n];
    let mut unordered = no_rows(n);
    let mut visit = |i: usize| match ord(i) {
        Some(o) => vals[i] = O::test(&o, &Ordering::Equal),
        None => unordered[i / 64] |= 1 << (i % 64),
    };
    match sel {
        Some(s) => s.iter().for_each(|&i| visit(i as usize)),
        None => (0..n).for_each(visit),
    }
    valid.iter_mut().zip(&unordered).for_each(|(v, u)| *v &= !u);
    Column::Bool(vals, Bitmap::from_words(valid, n))
}

/// A string column's lanes, plain or through its dictionary; `None` for
/// any other kind.
fn strings<'c>(c: &'c Column) -> Option<Box<dyn Fn(usize) -> &'c str + 'c>> {
    match c {
        Column::Utf8(v, _) => Some(Box::new(|i| v[i].as_str())),
        Column::DictUtf8 { dict, codes, .. } => {
            // A NULL slot may hold any code.
            Some(Box::new(|i| {
                dict.get(codes[i] as usize).map_or("", String::as_str)
            }))
        }
        _ => None,
    }
}

/// `l <op> r` for `+ - * / %`. Int64 with Int64 stays integer and fails on
/// overflow or a zero modulus; `/` and every other numeric pair compute in
/// f64 and fail on a zero divisor.
fn eval_arithmetic(l: &Column, op: BinOp, r: &Column, sel: Option<&[u32]>) -> Result<Column> {
    if l.is_encoded() || r.is_encoded() {
        return eval_arithmetic(&plain_ints(l), op, &plain_ints(r), sel);
    }
    match (l, r) {
        (Column::Int64(a, lb), Column::Int64(b, rb)) if op != BinOp::Div => {
            let (a, b) = ((&a[..], lb), (&b[..], rb));
            let fail = |x, y| {
                QueryError::Arithmetic(format!("integer overflow or zero modulus in {x} {op} {y}"))
            };
            let (vals, validity) = match op {
                BinOp::Add => pairs(sel, a, b, i64::checked_add, fail),
                BinOp::Sub => pairs(sel, a, b, i64::checked_sub, fail),
                BinOp::Mul => pairs(sel, a, b, i64::checked_mul, fail),
                BinOp::Mod => pairs(sel, a, b, i64::checked_rem, fail),
                _ => unreachable!("{op} is not arithmetic"),
            }?;
            Ok(Column::Int64(vals, validity))
        }
        (Column::Int64(a, lb), Column::Int64(b, rb)) => floats(op, sel, (a, lb), (b, rb)),
        (Column::Int64(a, lb), Column::Float64(b, rb)) => floats(op, sel, (a, lb), (b, rb)),
        (Column::Float64(a, lb), Column::Int64(b, rb)) => floats(op, sel, (a, lb), (b, rb)),
        (Column::Float64(a, lb), Column::Float64(b, rb)) => floats(op, sel, (a, lb), (b, rb)),
        _ => {
            let numeric = |c: &Column| matches!(c, Column::Int64(..) | Column::Float64(..));
            let other = if numeric(l) { r } else { l };
            Err(QueryError::InvalidExpression(format!(
                "arithmetic over {}",
                other.data_type()
            )))
        }
    }
}

/// A numeric lane as f64. An Int64 operand of a float operator converts lane
/// by lane in a kernel monomorphized for it, never as a whole column.
trait AsF64: Copy {
    fn f64(self) -> f64;
}

impl AsF64 for f64 {
    fn f64(self) -> f64 {
        self
    }
}

impl AsF64 for i64 {
    fn f64(self) -> f64 {
        self as f64
    }
}

/// [`eval_arithmetic`] in f64: one kernel per operator and operand types.
fn floats<A: AsF64, B: AsF64>(
    op: BinOp,
    sel: Option<&[u32]>,
    a: (&[A], &Bitmap),
    b: (&[B], &Bitmap),
) -> Result<Column> {
    let div = |x: A, y: B| nonzero(y).map(|y| x.f64() / y);
    let rem = |x: A, y: B| nonzero(y).map(|y| x.f64() % y);
    let zero = |what: &'static str| move |_, _| QueryError::Arithmetic(format!("{what} by zero"));
    let never = |_, _| unreachable!("{op} cannot fail");
    let (vals, validity) = match op {
        BinOp::Add => pairs(sel, a, b, |x: A, y: B| Some(x.f64() + y.f64()), never),
        BinOp::Sub => pairs(sel, a, b, |x: A, y: B| Some(x.f64() - y.f64()), never),
        BinOp::Mul => pairs(sel, a, b, |x: A, y: B| Some(x.f64() * y.f64()), never),
        BinOp::Div => pairs(sel, a, b, div, zero("division")),
        BinOp::Mod => pairs(sel, a, b, rem, zero("modulo")),
        _ => unreachable!("{op} is not arithmetic"),
    }?;
    Ok(Column::Float64(vals, validity))
}

/// A divisor as f64, `None` when it is zero.
fn nonzero(y: impl AsF64) -> Option<f64> {
    Some(y.f64()).filter(|&y| y != 0.0)
}

/// The lane loop of arithmetic: a lane is valid where it is visited (the
/// selected ones, else all) and both operands are valid, decided a word at
/// a time up front ([`both_valid`]). `f` runs on every visited lane; where it has no answer
/// on a valid lane, `fail` of the first such lane is the error, so only a
/// lane the selection kept can fail, and a NULL's placeholder never does.
fn pairs<A: Copy, B: Copy, U: Copy + Default>(
    sel: Option<&[u32]>,
    (a, lb): (&[A], &Bitmap),
    (b, rb): (&[B], &Bitmap),
    f: impl Fn(A, B) -> Option<U>,
    fail: impl Fn(A, B) -> QueryError,
) -> Result<(Vec<U>, Bitmap)> {
    let n = a.len();
    let validity = Bitmap::from_words(both_valid(sel, lb, rb), n);
    let mut vals = vec![U::default(); n];
    // Whether lane `i` fails: `f` has no answer and the lane is valid.
    let mut fails = |i: usize| {
        match f(a[i], b[i]) {
            Some(v) => vals[i] = v,
            None => return validity.get(i),
        }
        false
    };
    let failed = match sel {
        Some(s) => s
            .iter()
            .position(|&i| fails(i as usize))
            .map(|k| s[k] as usize),
        None => (0..n).position(fails),
    };
    match failed {
        Some(i) => Err(fail(a[i], b[i])),
        None => Ok((vals, validity)),
    }
}

/// The visited lanes (the selected ones, else all) where both `lb` and `rb`
/// are valid, as words.
fn both_valid(sel: Option<&[u32]>, lb: &Bitmap, rb: &Bitmap) -> Vec<u64> {
    let mut valid = lb.words().to_vec();
    mask_words(&mut valid, rb, sel.map(|s| scatter(s, lb.len())).as_deref());
    valid
}

/// `c` with encoded integers decoded, any other column as is. Column
/// against column, comparisons and arithmetic decode an encoded operand
/// once and recurse: they write a fresh output per lane anyway, so there is
/// no code-space win, and a per-lane read of RLE would search the runs.
fn plain_ints(c: &Column) -> Cow<'_, Column> {
    match c.is_encoded().then(|| c.decoded()).flatten() {
        Some(plain) => Cow::Owned(plain),
        None => Cow::Borrowed(c),
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
            let opts = crate::ExecOptions::serial().with_metrics(m.clone());
            let _g = kernel_metrics::install(&crate::physical::ExecContext::new(&opts));
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
            let opts = crate::ExecOptions::serial().with_metrics(m.clone());
            let _g = kernel_metrics::install(&crate::physical::ExecContext::new(&opts));
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
        // Passing runs become bit ranges, masked by the candidates in any
        // order; the survivors come back ascending.
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
