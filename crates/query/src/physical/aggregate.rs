//! Hash aggregation.
//!
//! Columnar, selection-aware implementation in two passes per batch:
//!
//! 1. **Group ids.** When every group key in a batch is dictionary-encoded
//!    and the product of `dict.len() + 1` over the keys (the `+ 1` is NULL)
//!    is at most the batch's row count, ids are assigned in **code space**:
//!    each lane's codes fold into one small index, and a per-batch lookup
//!    table resolves each distinct code tuple once. Other key shapes hash
//!    column-wise with [`Column::hash_combine`] (one mixing pass per key
//!    column, no `Value` boxing; an all-valid RLE key hashes once per run).
//!    Either way a new key goes through one open-addressing group table
//!    under the same hash, so dictionary, plain and RLE batches, parallel
//!    workers and spill partitions all meet in the same groups.
//! 2. **Accumulators.** Every aggregate keeps a **typed accumulator vector
//!    indexed by group id**, updated one column at a time; an all-valid
//!    input skips the per-lane validity probe.
//! 3. **Merges.** A partial state — a morsel worker's, or a spilled
//!    partition's — is a **state batch**: the group keys, then each
//!    accumulator's state columns, with "no value reached this group" as
//!    NULL. One merge folds it in: its keys get group ids as input rows do,
//!    and each function folds its own state columns — SUM, MIN and MAX
//!    through their `update`, COUNT and AVG by adding counts and sums.
//!
//! A global aggregate (no keys) skips pass 1 entirely.

use super::context::{ExecContext, Scope};
use super::parallel::SharedSource;
use super::spill::{one_key_hash, SpillFile, SpillMeter, SpillSet, MAX_SPILL_DEPTH};
use super::{for_each_lane, Operator};
use crate::error::{QueryError, Result};
use crate::eval::eval_arc;
use crate::expr::{AggExpr, AggFunc, Expr};
use crate::profile::OpStats;
use backbone_storage::column::{fnv1a, mix64, NULL_TAG};
use backbone_storage::compress::EncodedInts;
use backbone_storage::with_lanes;
use backbone_storage::{Bitmap, Column, DataType, Field, RecordBatch, Schema};
use std::mem::take;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Open-addressing hash table mapping key hashes to dense group ids.
/// Collisions are resolved by the caller-supplied key-equality closure, so
/// the table itself never touches key data.
struct GroupTable {
    /// `group_id + 1`; 0 marks an empty slot.
    slots: Vec<u32>,
    hashes: Vec<u64>,
    mask: usize,
    len: usize,
}

impl GroupTable {
    fn with_capacity(groups: usize) -> GroupTable {
        let cap = (groups.max(8) * 2).next_power_of_two();
        GroupTable {
            slots: vec![0; cap],
            hashes: vec![0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Look up `hash`, verifying candidates with `eq(group_id)`; insert as
    /// `next_id` when absent. Returns `(group_id, inserted)`.
    fn find_or_insert(&mut self, hash: u64, next_id: u32, eq: impl Fn(u32) -> bool) -> (u32, bool) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut idx = (hash as usize) & self.mask;
        loop {
            let s = self.slots[idx];
            if s == 0 {
                self.slots[idx] = next_id + 1;
                self.hashes[idx] = hash;
                self.len += 1;
                return (next_id, true);
            }
            if self.hashes[idx] == hash && eq(s - 1) {
                return (s - 1, false);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mut slots = vec![0u32; cap];
        let mut hashes = vec![0u64; cap];
        let mask = cap - 1;
        for (&s, &h) in self.slots.iter().zip(&self.hashes) {
            if s != 0 {
                let mut idx = (h as usize) & mask;
                while slots[idx] != 0 {
                    idx = (idx + 1) & mask;
                }
                slots[idx] = s;
                hashes[idx] = h;
            }
        }
        self.slots = slots;
        self.hashes = hashes;
        self.mask = mask;
    }
}

/// Whether `x` strictly improves on `cur` as a minimum (`min`) or maximum.
/// Incomparable values never improve.
fn better<T: PartialOrd + ?Sized>(min: bool, x: &T, cur: &T) -> bool {
    let ord = x.partial_cmp(cur).unwrap_or(std::cmp::Ordering::Equal);
    if min {
        ord == std::cmp::Ordering::Less
    } else {
        ord == std::cmp::Ordering::Greater
    }
}

/// The value type of an accumulator's lanes: `i64`, `f64`, `String` or
/// `bool`. Each accumulator's lane loop is generic over it, so it is
/// compiled once per type, with no per-lane dispatch.
trait LaneValue: Default + Send + 'static {
    /// A lane as a column yields it: the value itself, or `&str`.
    type Ref<'a>: Copy + Into<Self>;

    /// Call `f(group, value)` for every valid lane of `col` (see
    /// [`for_each_valid`]); `false`, with no calls, when `col` holds no
    /// values of this type.
    fn read<'a>(
        gids: &[u32],
        sel: Option<&[u32]>,
        col: &'a Column,
        f: impl FnMut(usize, Self::Ref<'a>),
    ) -> bool;

    /// [`better`] for this type.
    fn better(min: bool, x: Self::Ref<'_>, cur: &Self) -> bool;

    /// A column of `vals` under `validity`.
    fn column(vals: Vec<Self>, validity: Bitmap) -> Column;

    /// Approximate resident bytes of `vals`.
    fn bytes(vals: &[Self]) -> usize {
        std::mem::size_of_val(vals)
    }
}

impl LaneValue for i64 {
    type Ref<'a> = i64;

    /// Plain, frame-of-reference (read as a slice, once per lane width) and
    /// RLE integers.
    fn read<'a>(
        gids: &[u32],
        sel: Option<&[u32]>,
        col: &'a Column,
        mut f: impl FnMut(usize, Self::Ref<'a>),
    ) -> bool {
        match col {
            Column::Int64(v, bm) => for_each_valid(gids, sel, bm, |g, row| f(g, v[row])),
            Column::Int64Encoded {
                data: EncodedInts::For(l),
                validity,
            } => with_lanes!(&l.lanes, s => for_each_valid(gids, sel, validity, |g, row| {
                f(g, l.reference.wrapping_add(s[row] as i64))
            })),
            Column::Int64Encoded { data, validity } => {
                for_each_valid(gids, sel, validity, |g, row| f(g, data.get(row)))
            }
            _ => return false,
        }
        true
    }

    fn better(min: bool, x: i64, cur: &i64) -> bool {
        better(min, &x, cur)
    }

    fn column(vals: Vec<i64>, validity: Bitmap) -> Column {
        Column::Int64(vals, validity)
    }
}

impl LaneValue for f64 {
    type Ref<'a> = f64;

    /// Floats, and integers widened to floats.
    fn read<'a>(
        gids: &[u32],
        sel: Option<&[u32]>,
        col: &'a Column,
        mut f: impl FnMut(usize, Self::Ref<'a>),
    ) -> bool {
        match col {
            Column::Float64(v, bm) => {
                for_each_valid(gids, sel, bm, |g, row| f(g, v[row]));
                true
            }
            ints => i64::read(gids, sel, ints, |g, x| f(g, x as f64)),
        }
    }

    /// In ORDER BY order (`Value::sort_cmp`): NaN after every number. So
    /// MAX is NaN if any value is, MIN only if every value is, as
    /// `ORDER BY … LIMIT 1` answers, in every input order.
    fn better(min: bool, x: f64, cur: &f64) -> bool {
        match (x.is_nan(), cur.is_nan()) {
            (false, false) => better(min, &x, cur),
            // NaN is the greatest: it wins a MAX and loses a MIN to any number.
            (nan_x, nan_cur) => nan_x != nan_cur && nan_x != min,
        }
    }

    fn column(vals: Vec<f64>, validity: Bitmap) -> Column {
        Column::Float64(vals, validity)
    }
}

impl LaneValue for String {
    type Ref<'a> = &'a str;

    /// Plain and dictionary strings.
    fn read<'a>(
        gids: &[u32],
        sel: Option<&[u32]>,
        col: &'a Column,
        mut f: impl FnMut(usize, Self::Ref<'a>),
    ) -> bool {
        match col {
            Column::Utf8(v, bm) => for_each_valid(gids, sel, bm, |g, row| f(g, &v[row])),
            Column::DictUtf8 {
                dict,
                codes,
                validity,
            } => for_each_valid(gids, sel, validity, |g, row| {
                f(g, &dict[codes[row] as usize])
            }),
            _ => return false,
        }
        true
    }

    fn better(min: bool, x: &str, cur: &String) -> bool {
        better(min, x, cur.as_str())
    }

    fn column(vals: Vec<String>, validity: Bitmap) -> Column {
        Column::Utf8(vals, validity)
    }

    fn bytes(vals: &[String]) -> usize {
        vals.iter().map(|s| s.capacity() + 24).sum()
    }
}

impl LaneValue for bool {
    type Ref<'a> = bool;

    fn read<'a>(
        gids: &[u32],
        sel: Option<&[u32]>,
        col: &'a Column,
        mut f: impl FnMut(usize, Self::Ref<'a>),
    ) -> bool {
        let Column::Bool(v, bm) = col else {
            return false;
        };
        for_each_valid(gids, sel, bm, |g, row| f(g, v[row]));
        true
    }

    fn better(min: bool, x: bool, cur: &bool) -> bool {
        better(min, &x, cur)
    }

    fn column(vals: Vec<bool>, validity: Bitmap) -> Column {
        Column::Bool(vals, validity)
    }
}

/// A lane type SUM adds: `None` on overflow.
trait Summable: LaneValue + Copy {
    fn plus(self, x: Self) -> Option<Self>;
}

impl Summable for i64 {
    fn plus(self, x: i64) -> Option<i64> {
        self.checked_add(x)
    }
}

impl Summable for f64 {
    fn plus(self, x: f64) -> Option<f64> {
        Some(self + x)
    }
}

/// One aggregate's per-group state, indexed by group id.
trait Accumulator: Send {
    /// Append the state of one new group.
    fn push_group(&mut self);

    /// Fold one batch's lanes in. `gids[pos]` is the group of logical row
    /// `pos`; `input` is `None` only for COUNT(*).
    fn update(&mut self, gids: &[u32], sel: Option<&[u32]>, input: Option<&Column>) -> Result<()>;

    /// Fold another partial's state columns (what its
    /// [`Accumulator::take_state`] returned) in, taking them from `state`;
    /// `gids[row]` is the group of state row `row`.
    fn merge(&mut self, gids: &[u32], state: &mut StateColumns<'_>) -> Result<()>;

    /// Move every group's state out as columns, leaving no groups.
    fn take_state(&mut self) -> Vec<Column>;

    /// The output column across all groups.
    fn finish(self: Box<Self>) -> Column;

    /// Approximate resident bytes, for budget accounting.
    fn byte_size(&self) -> usize;
}

/// The state columns of a state batch, in accumulator order.
type StateColumns<'a> = std::slice::Iter<'a, Arc<Column>>;

/// The next accumulator's next state column.
fn next_state<'a>(state: &mut StateColumns<'a>) -> Result<&'a Column> {
    let missing = || QueryError::InvalidPlan("missing aggregate state column".into());
    state.next().map(|c| &**c).ok_or_else(missing)
}

/// The accumulator of `func` over input of type `input_dt`.
fn accumulator(func: AggFunc, input_dt: DataType) -> Box<dyn Accumulator> {
    fn min_max<T: LaneValue>(func: AggFunc) -> Box<dyn Accumulator> {
        Box::new(MinMax::<T> {
            slots: Slots::default(),
            min: func == AggFunc::Min,
        })
    }
    match (func, input_dt) {
        (AggFunc::Count | AggFunc::CountStar, _) => Box::<Count>::default(),
        (AggFunc::Avg, _) => Box::<Avg>::default(),
        (AggFunc::Sum, DataType::Float64) => Box::<Sum<f64>>::default(),
        // Non-numeric SUM is rejected at plan time (AggExpr::data_type).
        (AggFunc::Sum, _) => Box::<Sum<i64>>::default(),
        (_, DataType::Int64) => min_max::<i64>(func),
        (_, DataType::Float64) => min_max::<f64>(func),
        (_, DataType::Utf8) => min_max::<String>(func),
        (_, DataType::Bool) => min_max::<bool>(func),
    }
}

/// COUNT(x) and COUNT(*): zero, not NULL, for a group no row reached.
#[derive(Default)]
struct Count(Vec<i64>);

impl Accumulator for Count {
    fn push_group(&mut self) {
        self.0.push(0);
    }

    fn update(&mut self, gids: &[u32], sel: Option<&[u32]>, input: Option<&Column>) -> Result<()> {
        let counts = &mut self.0;
        match input {
            // COUNT(*): every lane counts.
            None => gids.iter().for_each(|&g| counts[g as usize] += 1),
            Some(col) => for_each_valid(gids, sel, col.validity(), |g, _| counts[g] += 1),
        }
        Ok(())
    }

    fn merge(&mut self, gids: &[u32], state: &mut StateColumns<'_>) -> Result<()> {
        let counts = &mut self.0;
        i64::read(gids, None, next_state(state)?, |g, n| counts[g] += n);
        Ok(())
    }

    fn take_state(&mut self) -> Vec<Column> {
        vec![Column::from_i64(take(&mut self.0))]
    }

    fn finish(self: Box<Self>) -> Column {
        Column::from_i64(self.0)
    }

    fn byte_size(&self) -> usize {
        self.0.len() * 8
    }
}

/// Per-group values, and whether any value reached each group: the state
/// of SUM and of MIN/MAX, where a group no value reached is NULL.
#[derive(Default)]
struct Slots<T> {
    vals: Vec<T>,
    seen: Vec<bool>,
}

impl<T: LaneValue> Slots<T> {
    fn push_group(&mut self) {
        self.vals.push(T::default());
        self.seen.push(false);
    }

    /// Move the values out as a column with `seen` as its validity. A merge
    /// skips NULL lanes, so a codec round trip that zeroes the values under
    /// them cannot change it.
    fn take(&mut self) -> Column {
        T::column(
            take(&mut self.vals),
            Bitmap::from_bools(&take(&mut self.seen)),
        )
    }

    fn byte_size(&self) -> usize {
        T::bytes(&self.vals) + self.seen.len()
    }
}

/// SUM over integers (an overflow is an error) or floats. Partial sums
/// merge through `update`, so a merge overflows exactly when one pass does.
#[derive(Default)]
struct Sum<T>(Slots<T>);

impl<T: Summable> Accumulator for Sum<T> {
    fn push_group(&mut self) {
        self.0.push_group();
    }

    fn update(&mut self, gids: &[u32], sel: Option<&[u32]>, input: Option<&Column>) -> Result<()> {
        let col = input.expect("SUM has an input");
        let Slots { vals, seen } = &mut self.0;
        let mut overflow = false;
        let read = T::read(gids, sel, col, |g, x| match vals[g].plus(x.into()) {
            Some(s) => {
                vals[g] = s;
                seen[g] = true;
            }
            None => overflow = true,
        });
        if !read {
            return Err(QueryError::InvalidExpression(format!(
                "SUM over {}",
                col.data_type()
            )));
        }
        if overflow {
            return Err(QueryError::Arithmetic("SUM integer overflow".into()));
        }
        Ok(())
    }

    fn merge(&mut self, gids: &[u32], state: &mut StateColumns<'_>) -> Result<()> {
        self.update(gids, None, Some(next_state(state)?))
    }

    fn take_state(&mut self) -> Vec<Column> {
        vec![self.0.take()]
    }

    fn finish(mut self: Box<Self>) -> Column {
        self.0.take()
    }

    fn byte_size(&self) -> usize {
        self.0.byte_size()
    }
}

/// AVG: a float sum and a count per group, NULL where the count is zero.
/// Sums and counts merge as two state columns, so re-merged partials stay
/// exact.
#[derive(Default)]
struct Avg {
    sums: Vec<f64>,
    counts: Vec<i64>,
}

impl Accumulator for Avg {
    fn push_group(&mut self) {
        self.sums.push(0.0);
        self.counts.push(0);
    }

    fn update(&mut self, gids: &[u32], sel: Option<&[u32]>, input: Option<&Column>) -> Result<()> {
        let col = input.expect("AVG has an input");
        let Avg { sums, counts } = self;
        if f64::read(gids, sel, col, |g, x| {
            sums[g] += x;
            counts[g] += 1;
        }) {
            return Ok(());
        }
        // Mirror the row-at-a-time error: only raised when a non-null value
        // actually arrives.
        let mut bad = None;
        for_each_lane(sel, gids.len(), |_, base| {
            if bad.is_none() && !col.is_null(base) {
                bad = Some(col.value(base));
            }
        });
        match bad {
            Some(v) => Err(QueryError::InvalidExpression(format!(
                "AVG over non-numeric value {v}"
            ))),
            None => Ok(()),
        }
    }

    fn merge(&mut self, gids: &[u32], state: &mut StateColumns<'_>) -> Result<()> {
        let Avg { sums, counts } = self;
        f64::read(gids, None, next_state(state)?, |g, s| sums[g] += s);
        i64::read(gids, None, next_state(state)?, |g, n| counts[g] += n);
        Ok(())
    }

    fn take_state(&mut self) -> Vec<Column> {
        vec![
            Column::from_f64(take(&mut self.sums)),
            Column::from_i64(take(&mut self.counts)),
        ]
    }

    fn finish(self: Box<Self>) -> Column {
        let seen: Vec<bool> = self.counts.iter().map(|&c| c > 0).collect();
        let vals: Vec<f64> = self
            .sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        Column::Float64(vals, Bitmap::from_bools(&seen))
    }

    fn byte_size(&self) -> usize {
        (self.sums.len() + self.counts.len()) * 8
    }
}

/// MIN or MAX (`min` says which) in [`LaneValue::better`]'s order. Partial
/// extremes merge through `update`.
struct MinMax<T> {
    slots: Slots<T>,
    min: bool,
}

impl<T: LaneValue> Accumulator for MinMax<T> {
    fn push_group(&mut self) {
        self.slots.push_group();
    }

    fn update(&mut self, gids: &[u32], sel: Option<&[u32]>, input: Option<&Column>) -> Result<()> {
        let Slots { vals, seen } = &mut self.slots;
        let min = self.min;
        if let Some(col) = input {
            T::read(gids, sel, col, |g, x| {
                if !seen[g] || T::better(min, x, &vals[g]) {
                    vals[g] = x.into();
                    seen[g] = true;
                }
            });
        }
        Ok(())
    }

    fn merge(&mut self, gids: &[u32], state: &mut StateColumns<'_>) -> Result<()> {
        self.update(gids, None, Some(next_state(state)?))
    }

    fn take_state(&mut self) -> Vec<Column> {
        vec![self.slots.take()]
    }

    fn finish(mut self: Box<Self>) -> Column {
        self.slots.take()
    }

    fn byte_size(&self) -> usize {
        self.slots.byte_size()
    }
}

/// Visit `(group, base_row)` for every lane whose input is valid. An
/// all-valid input runs a loop with no per-lane bitmap probe.
#[inline]
fn for_each_valid(
    gids: &[u32],
    sel: Option<&[u32]>,
    validity: &Bitmap,
    mut f: impl FnMut(usize, usize),
) {
    match (sel, validity.all_set()) {
        (Some(s), true) => {
            for (&g, &row) in gids.iter().zip(s) {
                f(g as usize, row as usize);
            }
        }
        (None, true) => {
            for (row, &g) in gids.iter().enumerate() {
                f(g as usize, row);
            }
        }
        (Some(s), false) => {
            for (&g, &row) in gids.iter().zip(s) {
                if validity.get(row as usize) {
                    f(g as usize, row as usize);
                }
            }
        }
        (None, false) => {
            for (row, &g) in gids.iter().enumerate() {
                if validity.get(row) {
                    f(g as usize, row);
                }
            }
        }
    }
}

/// The code-space domain of a batch's group keys: the product of
/// `dict.len() + 1` over the keys (the `+ 1` is the NULL code). `None`
/// unless every key is dictionary-encoded and the product is at most the
/// batch's `rows`, so the per-batch lookup table never outgrows the batch.
fn code_domain(key_cols: &[Arc<Column>], rows: usize) -> Option<usize> {
    let limit = rows.min(u32::MAX as usize);
    key_cols.iter().try_fold(1usize, |domain, kc| {
        let (dict, ..) = kc.dict_parts()?;
        domain.checked_mul(dict.len() + 1).filter(|&d| d <= limit)
    })
}

/// The hash [`Column::hash_combine`] gives row `row` of dictionary keys.
fn tuple_hash(key_cols: &[Arc<Column>], row: usize) -> u64 {
    key_cols.iter().fold(0, |h, kc| {
        let (dict, codes, validity) = kc.dict_parts().expect("dictionary key");
        let lane = if validity.get(row) {
            fnv1a(dict[codes[row] as usize].as_bytes())
        } else {
            NULL_TAG
        };
        mix64(h ^ lane)
    })
}

/// One grouping state: key stores + accumulators + the hash table mapping
/// key hashes to dense group ids. Each worker builds its own, and the states
/// merge as state batches afterwards.
struct AggState {
    key_stores: Vec<Column>,
    accs: Vec<Box<dyn Accumulator>>,
    table: GroupTable,
    n_groups: u32,
    // This state's input and kernel time, recorded by `record`.
    hash_ns: u64,
    update_ns: u64,
    dict_key_rows: u64,
    morsels: u64,
    rows: u64,
    // Scratch reused across batches.
    hashes: Vec<u64>,
    gids: Vec<u32>,
    lut: Vec<u32>,
}

impl AggState {
    fn new(key_types: &[DataType], aggs: &[AggExpr], agg_input_types: &[DataType]) -> AggState {
        AggState {
            key_stores: key_types.iter().map(|&dt| Column::empty(dt)).collect(),
            accs: aggs
                .iter()
                .zip(agg_input_types)
                .map(|(a, &dt)| accumulator(a.func, dt))
                .collect(),
            table: GroupTable::with_capacity(256),
            n_groups: 0,
            hash_ns: 0,
            update_ns: 0,
            dict_key_rows: 0,
            morsels: 0,
            rows: 0,
            hashes: Vec::new(),
            gids: Vec::new(),
            lut: Vec::new(),
        }
    }

    /// Fold one input batch into this state (assign group ids, then the
    /// columnar accumulator update).
    fn consume(&mut self, group_by: &[Expr], aggs: &[AggExpr], batch: &RecordBatch) -> Result<()> {
        let n = batch.num_rows();
        self.morsels += 1;
        self.rows += n as u64;
        if n == 0 && !group_by.is_empty() {
            return Ok(());
        }
        let sel = batch.selection();

        let key_cols: Vec<Arc<Column>> = group_by
            .iter()
            .map(|g| eval_arc(g, batch))
            .collect::<Result<_>>()?;
        if key_cols.iter().any(|kc| kc.is_dict()) {
            self.dict_key_rows += n as u64;
        }
        // COUNT(*) needs no input column at all.
        let agg_cols: Vec<Option<Arc<Column>>> = aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::CountStar => Ok(None),
                _ => eval_arc(&a.input, batch).map(Some),
            })
            .collect::<Result<_>>()?;

        // Pass 1: assign a group id to every lane.
        let t0 = Instant::now();
        let gids = self.assign_groups(&key_cols, sel, batch.base_rows(), n)?;
        self.hash_ns += t0.elapsed().as_nanos() as u64;

        // Pass 2: columnar accumulator update, one aggregate at a time.
        let t1 = Instant::now();
        for (acc, col) in self.accs.iter_mut().zip(&agg_cols) {
            acc.update(&gids, sel, col.as_deref())?;
        }
        self.update_ns += t1.elapsed().as_nanos() as u64;
        self.gids = gids;
        Ok(())
    }

    /// The groups of the `n` logical rows of `key_cols`, in the reusable
    /// scratch vector (hand it back through `self.gids`). Dictionary keys
    /// with a small code domain resolve in code space; an all-valid RLE key
    /// without a selection resolves once per run; anything else hashes every
    /// lane with [`Column::hash_combine`].
    fn assign_groups(
        &mut self,
        key_cols: &[Arc<Column>],
        sel: Option<&[u32]>,
        base_rows: usize,
        n: usize,
    ) -> Result<Vec<u32>> {
        let mut gids = take(&mut self.gids);
        gids.clear();
        gids.resize(n, 0);
        if key_cols.is_empty() {
            // Global aggregate: one group, no hashing.
            if self.n_groups == 0 && n > 0 {
                self.new_group();
            }
            return Ok(gids);
        }
        if let Some(domain) = code_domain(key_cols, n) {
            self.code_space_groups(key_cols, sel, domain, &mut gids)?;
            return Ok(gids);
        }
        let mut hashes = take(&mut self.hashes);
        hashes.clear();
        hashes.resize(base_rows, 0);
        for kc in key_cols {
            kc.hash_combine(sel, &mut hashes);
        }
        // Every row in an RLE run shares the key, hence the hash and group.
        let key_runs = match (sel, key_cols) {
            (None, [kc]) => match kc.as_ref() {
                Column::Int64Encoded { data, validity } if validity.all_set() => data.runs(),
                _ => None,
            },
            _ => None,
        };
        if let Some(runs) = key_runs {
            let mut pos = 0usize;
            for &(_, cnt) in runs {
                let gid = self.group_of(hashes[pos], key_cols, pos)?;
                let end = pos + cnt as usize;
                gids[pos..end].fill(gid);
                pos = end;
            }
        } else {
            match sel {
                Some(s) => {
                    for (g, &row) in gids.iter_mut().zip(s) {
                        *g = self.group_of(hashes[row as usize], key_cols, row as usize)?;
                    }
                }
                None => {
                    for (row, g) in gids.iter_mut().enumerate() {
                        *g = self.group_of(hashes[row], key_cols, row)?;
                    }
                }
            }
        }
        self.hashes = hashes;
        Ok(gids)
    }

    /// Code-space group ids (see [`code_domain`]). Each lane's key codes
    /// fold into one index below `domain` (NULL is code `dict.len()`), and
    /// a per-batch lookup table resolves each distinct index once: its first
    /// lane hashes the tuple exactly as [`Column::hash_combine`] would and
    /// goes through the group table, so groups still meet across row
    /// groups with other dictionaries, plain-Utf8 batches, worker merges and
    /// spill partitions. Lanes resolve in order, so first-appearance group
    /// order is unchanged.
    fn code_space_groups(
        &mut self,
        key_cols: &[Arc<Column>],
        sel: Option<&[u32]>,
        domain: usize,
        gids: &mut [u32],
    ) -> Result<()> {
        for kc in key_cols {
            let (dict, codes, validity) = kc.dict_parts().expect("code_domain checked");
            let card = dict.len() as u32 + 1;
            if validity.all_set() {
                match sel {
                    Some(s) => {
                        for (g, &row) in gids.iter_mut().zip(s) {
                            *g = *g * card + codes[row as usize];
                        }
                    }
                    None => {
                        for (g, &code) in gids.iter_mut().zip(codes) {
                            *g = *g * card + code;
                        }
                    }
                }
            } else {
                let null = dict.len() as u32;
                for_each_lane(sel, gids.len(), |pos, row| {
                    let code = if validity.get(row) { codes[row] } else { null };
                    gids[pos] = gids[pos] * card + code;
                });
            }
        }
        let mut lut = take(&mut self.lut);
        lut.clear();
        lut.resize(domain, u32::MAX);
        for pos in 0..gids.len() {
            let idx = gids[pos] as usize;
            if lut[idx] == u32::MAX {
                let row = sel.map_or(pos, |s| s[pos] as usize);
                lut[idx] = self.group_of(tuple_hash(key_cols, row), key_cols, row)?;
            }
            gids[pos] = lut[idx];
        }
        self.lut = lut;
        Ok(())
    }

    /// The group of row `row` of `keys`, which hashes to `hash`; a key seen
    /// for the first time becomes a new group.
    #[inline]
    fn group_of(&mut self, hash: u64, keys: &[Arc<Column>], row: usize) -> Result<u32> {
        let stores = &self.key_stores;
        let (gid, inserted) = self.table.find_or_insert(hash, self.n_groups, |g| {
            stores
                .iter()
                .zip(keys)
                .all(|(store, k)| store.eq_rows_null_eq(g as usize, k, row))
        });
        if inserted {
            for (store, k) in self.key_stores.iter_mut().zip(keys) {
                store.push_from(k, row)?;
            }
            self.new_group();
        }
        Ok(gid)
    }

    /// Append default accumulator state for one new group.
    fn new_group(&mut self) {
        self.n_groups += 1;
        for acc in &mut self.accs {
            acc.push_group();
        }
    }

    /// Move every group out as a state batch — the keys, then each
    /// accumulator's state columns — leaving this state with no groups but
    /// its counters. An empty state's batch carries the schema every state
    /// batch of this aggregate has.
    fn take_batch(&mut self) -> Result<RecordBatch> {
        let keys = self.key_stores.iter_mut().map(|ks| {
            let dt = ks.data_type();
            std::mem::replace(ks, Column::empty(dt))
        });
        let cols: Vec<Column> = keys
            .chain(self.accs.iter_mut().flat_map(|acc| acc.take_state()))
            .collect();
        self.table = GroupTable::with_capacity(256);
        self.n_groups = 0;
        let fields = cols
            .iter()
            .enumerate()
            .map(|(i, c)| Field::nullable(format!("s{i}"), c.data_type()))
            .collect();
        let cols = cols.into_iter().map(Arc::new).collect();
        Ok(RecordBatch::try_new(Schema::new(fields), cols)?)
    }

    /// Fold a partial state in: another worker's, or a spilled partition's,
    /// [`AggState::take_batch`]. Its keys get group ids as input rows do —
    /// hashed by value, so they meet the groups of plain and dictionary
    /// input alike — and each accumulator folds its state columns in.
    fn merge(&mut self, partial: RecordBatch) -> Result<()> {
        let (keys, state) = partial.columns().split_at(self.key_stores.len());
        let gids = self.assign_groups(keys, None, partial.num_rows(), partial.num_rows())?;
        let mut state = state.iter();
        for acc in &mut self.accs {
            acc.merge(&gids, &mut state)?;
        }
        self.gids = gids;
        Ok(())
    }

    /// Flush every group into `spill`, partitioned by key hash at `depth`.
    fn spill(&mut self, spill: &mut SpillSet, depth: usize, meter: &SpillMeter) -> Result<()> {
        if self.n_groups == 0 {
            return Ok(());
        }
        let key_idx: Vec<usize> = (0..self.key_stores.len()).collect();
        spill.append_partitioned(&self.take_batch()?, &key_idx, depth, meter)
    }

    /// Approximate resident bytes of this grouping state (keys +
    /// accumulators + hash table), for budget accounting.
    fn mem_bytes(&self) -> usize {
        let keys: usize = self.key_stores.iter().map(|c| c.byte_size()).sum();
        let accs: usize = self.accs.iter().map(|a| a.byte_size()).sum();
        keys + accs + self.table.slots.len() * 12
    }

    /// Record worker `w`'s input and kernel time (this state's counters)
    /// into the query's counters and `stats`.
    fn record(&self, ctx: &ExecContext, stats: &OpStats, w: usize) {
        ctx.record_worker(Scope::Aggregate, w, self.morsels, self.rows);
        stats.morsels.add(self.morsels);
        let c = &ctx.counters;
        c.agg_hash_ns.add(self.hash_ns);
        c.agg_update_ns.add(self.update_ns);
        c.agg_dict_key_rows.add(self.dict_key_rows);
    }

    /// The output batch: keys, then each aggregate's result.
    fn finish(self, schema: &Arc<Schema>) -> Result<RecordBatch> {
        let results = self.accs.into_iter().map(|acc| acc.finish());
        let columns = self.key_stores.into_iter().chain(results).map(Arc::new);
        Ok(RecordBatch::try_new(schema.clone(), columns.collect())?)
    }
}

/// Hash aggregate: consumes all input, groups by key expressions, and emits
/// one row per group (first-appearance order). The context's workers pull
/// batches through a shared source into per-worker states that merge — in
/// worker order, so output order stays deterministic — at the end; one
/// worker runs inline on the calling thread.
pub struct HashAggregateExec {
    input: Box<dyn Operator>,
    group_by: Vec<Expr>,
    aggs: Vec<AggExpr>,
    schema: Arc<Schema>,
    key_types: Vec<DataType>,
    agg_input_types: Vec<DataType>,
    ctx: ExecContext,
    stats: OpStats,
    meter: SpillMeter,
    done: bool,
}

impl HashAggregateExec {
    /// Build an aggregation over `input`, run with the context's workers
    /// and budget and recorded into `stats`. When the budget's shared total
    /// crosses the limit, grouped aggregation partitions its hash-table
    /// state by key hash and spills to disk.
    pub fn new(
        input: Box<dyn Operator>,
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
        ctx: &ExecContext,
        stats: OpStats,
    ) -> Result<HashAggregateExec> {
        let in_schema = input.schema();
        let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
        let mut key_types = Vec::with_capacity(group_by.len());
        for g in &group_by {
            let dt = g.data_type(&in_schema)?;
            key_types.push(dt);
            fields.push(Field::nullable(g.output_name(), dt));
        }
        let mut agg_input_types = Vec::with_capacity(aggs.len());
        for a in &aggs {
            fields.push(Field::nullable(a.name.clone(), a.data_type(&in_schema)?));
            agg_input_types.push(a.input.data_type(&in_schema).unwrap_or(DataType::Int64));
        }
        Ok(HashAggregateExec {
            input,
            group_by,
            aggs,
            schema: Schema::new(fields),
            key_types,
            agg_input_types,
            meter: ctx.spill_meter(&stats),
            ctx: ctx.clone(),
            stats,
            done: false,
        })
    }

    /// Re-aggregate one spilled partition. A partition whose merged state
    /// itself exceeds the budget repartitions with deeper hash bits and
    /// recurses, up to [`MAX_SPILL_DEPTH`]; past the cap, or when all its
    /// rows are one group (no deeper bits can split it), it finishes in
    /// memory (correctness over the ceiling).
    fn process_partition(
        &self,
        file: &mut SpillFile,
        depth: usize,
        out: &mut Vec<RecordBatch>,
    ) -> Result<()> {
        if file.is_empty() {
            return Ok(());
        }
        let mut st = AggState::new(&self.key_types, &self.aggs, &self.agg_input_types);
        let schema = st.take_batch()?.schema().clone();
        let key_idx: Vec<usize> = (0..self.key_types.len()).collect();
        let batches = file.read_all(&schema, &self.meter)?;
        let splittable = depth < MAX_SPILL_DEPTH && !one_key_hash(&batches, &key_idx);
        let mut lease = self.ctx.lease();
        let mut batches = batches.into_iter();
        while let Some(b) = batches.next() {
            st.merge(b)?;
            if let Some(l) = &mut lease {
                l.set(st.mem_bytes());
                if l.over() && splittable {
                    let mut sub = SpillSet::new();
                    st.spill(&mut sub, depth, &self.meter)?;
                    l.set(st.mem_bytes());
                    for rest in batches {
                        sub.append_partitioned(&rest, &key_idx, depth, &self.meter)?;
                    }
                    for mut f in sub.into_files() {
                        self.process_partition(&mut f, depth + 1, out)?;
                    }
                    return Ok(());
                }
            }
        }
        if st.n_groups > 0 {
            out.push(st.finish(&self.schema)?);
        }
        Ok(())
    }

    /// Build per-worker partial states, then merge them in worker order.
    /// Workers share the budget accountant; a worker whose state pushes the
    /// shared total over the limit spills it into the shared partition
    /// files under one lock.
    fn build_state(&mut self, spill: &mut Option<SpillSet>) -> Result<AggState> {
        let ctx = &self.ctx;
        let meter = &self.meter;
        let stats = &self.stats;
        let group_by = &self.group_by;
        let aggs = &self.aggs;
        let key_types = &self.key_types;
        let agg_input_types = &self.agg_input_types;
        let shared_spill: Mutex<&mut Option<SpillSet>> = Mutex::new(spill);
        let source = SharedSource::new(self.input.as_mut());
        let states: Vec<Result<AggState>> = super::pool::run_workers(ctx.workers, |w| {
            // Per-thread handle so eval kernels report here too.
            let _kernel = crate::kernel_metrics::install(ctx);
            let mut lease = ctx.lease();
            let mut st = AggState::new(key_types, aggs, agg_input_types);
            while let Some(batch) = source.next()? {
                st.consume(group_by, aggs, &batch)?;
                if group_by.is_empty() {
                    continue;
                }
                if let Some(l) = &mut lease {
                    l.set(st.mem_bytes());
                    if l.over() {
                        let mut guard = shared_spill.lock().expect("spill lock");
                        st.spill(guard.get_or_insert_with(SpillSet::new), 0, meter)?;
                        drop(guard);
                        l.set(st.mem_bytes());
                    }
                }
            }
            st.record(ctx, stats, w);
            Ok(st)
        });
        let t0 = Instant::now();
        let mut states = states.into_iter();
        let mut merged = states.next().expect("at least one worker")?;
        for st in states {
            merged.merge(st?.take_batch()?)?;
        }
        let merge_ns = t0.elapsed().as_nanos() as u64;
        self.stats.workers.add(ctx.workers as u64);
        self.stats.merge_ns.add(merge_ns);
        ctx.counters.agg_merge_ns.add(merge_ns);
        Ok(merged)
    }
}

impl Operator for HashAggregateExec {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;

        let nkeys = self.group_by.len();
        let mut spill: Option<SpillSet> = None;
        let mut state = self.build_state(&mut spill)?;

        // The merge of per-worker partials can itself cross the budget even
        // when no worker spilled mid-stream.
        let budget = self.ctx.budget.as_ref();
        if spill.is_none() && nkeys > 0 && budget.is_some_and(|b| state.mem_bytes() > b.limit()) {
            spill = Some(SpillSet::new());
        }

        // Global aggregation over an empty input still yields one row
        // (COUNT(*) = 0, SUM = NULL, ...), matching SQL.
        if state.n_groups == 0 && nkeys == 0 {
            state.new_group();
        }

        // When anything spilled, every group flows through the partitions:
        // the in-memory residual is flushed too, so a group spilled earlier
        // cannot also be emitted from memory. Output group order becomes
        // per-partition instead of first-appearance.
        let out = match spill {
            Some(mut set) => {
                state.spill(&mut set, 0, &self.meter)?;
                let mut parts = Vec::new();
                for mut f in set.into_files() {
                    self.process_partition(&mut f, 1, &mut parts)?;
                }
                RecordBatch::concat(self.schema.clone(), &parts)?
            }
            None => state.finish(&self.schema)?,
        };
        self.ctx.counters.agg_groups.add(out.num_rows() as u64);
        Ok(Some(out))
    }

    fn name(&self) -> &'static str {
        "HashAggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{avg, col, count, count_star, lit, max, min, sum};
    use crate::physical::drain_one;
    use crate::physical::test_util::{ctx, ctx_with, int_batch, BatchSource};
    use backbone_storage::{Metrics, Value};

    #[test]
    fn grouped_sums() {
        let batch = int_batch(&[("g", vec![1, 2, 1, 2, 1]), ("v", vec![10, 20, 30, 40, 50])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![col("g")],
            vec![sum(col("v")).alias("total"), count_star().alias("n")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.num_rows(), 2);
        let rows = out.to_rows();
        let g1 = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(g1[1], Value::Int(90));
        assert_eq!(g1[2], Value::Int(3));
        let g2 = rows.iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(g2[1], Value::Int(60));
    }

    #[test]
    fn global_aggregate_no_groups() {
        let batch = int_batch(&[("v", vec![1, 2, 3, 4])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![],
            vec![
                sum(col("v")),
                min(col("v")),
                max(col("v")),
                avg(col("v")),
                count(col("v")),
            ],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.num_rows(), 1);
        let r = out.row(0);
        assert_eq!(r[0], Value::Int(10));
        assert_eq!(r[1], Value::Int(1));
        assert_eq!(r[2], Value::Int(4));
        assert_eq!(r[3], Value::Float(2.5));
        assert_eq!(r[4], Value::Int(4));
    }

    #[test]
    fn empty_input_global_aggregate() {
        let batch = int_batch(&[("v", vec![])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![],
            vec![count_star().alias("n"), sum(col("v")).alias("s")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(0));
        assert!(out.row(0)[1].is_null());
    }

    #[test]
    fn empty_input_grouped_aggregate_yields_no_rows() {
        let batch = int_batch(&[("g", vec![]), ("v", vec![])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![col("g")],
            vec![count_star()],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        use backbone_storage::{Column, DataType, Field};
        let schema = Schema::new(vec![Field::nullable("v", DataType::Int64)]);
        let batch = RecordBatch::try_new(
            schema,
            vec![Arc::new(Column::from_opt_i64(vec![Some(1), None, Some(3)]))],
        )
        .unwrap();
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![],
            vec![count(col("v")).alias("c"), count_star().alias("cs")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.row(0)[0], Value::Int(2));
        assert_eq!(out.row(0)[1], Value::Int(3));
    }

    #[test]
    fn expression_group_keys() {
        let batch = int_batch(&[("v", vec![1, 2, 3, 4, 5, 6])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![col("v").modulo(lit(2i64)).alias("parity")],
            vec![count_star().alias("n")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert!(out.to_rows().iter().all(|r| r[1] == Value::Int(3)));
    }

    #[test]
    fn aggregate_across_batches() {
        let b1 = int_batch(&[("g", vec![1, 2]), ("v", vec![1, 1])]);
        let b2 = int_batch(&[("g", vec![1, 2]), ("v", vec![10, 10])]);
        let src = BatchSource::new(b1.schema().clone(), vec![b1, b2]);
        let mut agg = HashAggregateExec::new(
            Box::new(src),
            vec![col("g")],
            vec![sum(col("v")).alias("s")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        let rows = out.to_rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == Value::Int(1) && r[1] == Value::Int(11)));
    }

    #[test]
    fn sum_int_overflow_detected() {
        let batch = int_batch(&[("v", vec![i64::MAX, 1])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![],
            vec![sum(col("v"))],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        assert!(matches!(agg.next(), Err(QueryError::Arithmetic(_))));
    }

    #[test]
    fn groups_emit_in_first_appearance_order() {
        let batch = int_batch(&[("g", vec![7, 3, 7, 9, 3]), ("v", vec![1, 1, 1, 1, 1])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![col("g")],
            vec![count_star().alias("n")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        let keys: Vec<Value> = (0..out.num_rows()).map(|i| out.row(i)[0].clone()).collect();
        assert_eq!(keys, vec![Value::Int(7), Value::Int(3), Value::Int(9)]);
    }

    #[test]
    fn null_keys_group_together() {
        use backbone_storage::{Column, DataType, Field};
        let schema = Schema::new(vec![
            Field::nullable("g", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let batch = RecordBatch::try_new(
            schema,
            vec![
                Arc::new(Column::from_opt_i64(vec![None, Some(1), None, Some(1)])),
                Arc::new(Column::from_i64(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap();
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![col("g")],
            vec![sum(col("v")).alias("s")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.num_rows(), 2);
        let rows = out.to_rows();
        assert!(rows
            .iter()
            .any(|r| r[0].is_null() && r[1] == Value::Int(40)));
        assert!(rows
            .iter()
            .any(|r| r[0] == Value::Int(1) && r[1] == Value::Int(60)));
    }

    #[test]
    fn parallel_matches_serial_grouped() {
        let make = || {
            let batches: Vec<_> = (0..8)
                .map(|b| {
                    int_batch(&[
                        ("g", (0..100).map(|i| (b * 7 + i) % 13).collect()),
                        ("v", (0..100).map(|i| b * 100 + i).collect()),
                    ])
                })
                .collect();
            BatchSource::new(batches[0].schema().clone(), batches)
        };
        let run = |workers: usize| {
            let mut agg = HashAggregateExec::new(
                Box::new(make()),
                vec![col("g")],
                vec![
                    sum(col("v")).alias("s"),
                    count_star().alias("n"),
                    min(col("v")).alias("lo"),
                    max(col("v")).alias("hi"),
                    avg(col("v")).alias("a"),
                ],
                &ctx(workers),
                OpStats::default(),
            )
            .unwrap();
            let mut rows = drain_one(&mut agg).unwrap().to_rows();
            rows.sort_by_key(|r| format!("{:?}", r[0]));
            rows
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(3));
    }

    #[test]
    fn parallel_global_aggregate_and_profile() {
        let batches: Vec<_> = (0..4)
            .map(|b| int_batch(&[("v", (b * 10..b * 10 + 10).collect())]))
            .collect();
        let src = BatchSource::new(batches[0].schema().clone(), batches);
        let stats = OpStats::default();
        let metrics = Metrics::new();
        let mut agg = HashAggregateExec::new(
            Box::new(src),
            vec![],
            vec![sum(col("v")).alias("s"), count_star().alias("n")],
            &ctx_with(2, None, Some(metrics.clone())),
            stats.clone(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.row(0)[0], Value::Int((0..40).sum()));
        assert_eq!(out.row(0)[1], Value::Int(40));
        assert_eq!(stats.workers.get(), 2);
        assert_eq!(stats.morsels.get(), 4);
        assert_eq!(worker_total(&metrics, "morsels"), 4);
        // Merging the two partials is not input.
        assert_eq!(worker_total(&metrics, "rows"), 40);
        assert_eq!(metrics.value("op.aggregate.kernel.groups"), 1);
        assert_eq!(metrics.value("op.aggregate.kernel.dict_key_rows"), 0);
    }

    /// `op.aggregate.worker.{0,1}.<key>` summed: a two-worker total.
    fn worker_total(metrics: &Metrics, key: &str) -> u64 {
        (0..2)
            .map(|w| metrics.value(&format!("op.aggregate.worker.{w}.{key}")))
            .sum()
    }

    #[test]
    fn parallel_empty_global_still_one_row() {
        let batch = int_batch(&[("v", vec![])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![],
            vec![count_star().alias("n"), sum(col("v")).alias("s")],
            &ctx(2),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(0));
        assert!(out.row(0)[1].is_null());
    }

    #[test]
    fn aggregates_respect_selection_views() {
        let batch = int_batch(&[("g", vec![1, 1, 2, 2]), ("v", vec![10, 20, 30, 40])]);
        let view = batch.with_selection(Arc::new(vec![0, 3])).unwrap();
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::new(view.schema().clone(), vec![view])),
            vec![col("g")],
            vec![sum(col("v")).alias("s"), count_star().alias("n")],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        let rows = out.to_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|r| r[0] == Value::Int(1) && r[1] == Value::Int(10) && r[2] == Value::Int(1)));
        assert!(rows
            .iter()
            .any(|r| r[0] == Value::Int(2) && r[1] == Value::Int(40) && r[2] == Value::Int(1)));
    }

    fn dict_col(values: &[Option<&str>]) -> Column {
        let vals: Vec<Value> = values
            .iter()
            .map(|v| v.map_or(Value::Null, Value::str))
            .collect();
        Column::from_values(DataType::Utf8, &vals)
            .unwrap()
            .dict_encode()
            .unwrap()
    }

    #[test]
    fn code_space_hash_matches_hash_combine() {
        let keys = vec![
            Arc::new(dict_col(&[Some("a"), None, Some("bb"), Some("a")])),
            Arc::new(dict_col(&[None, Some("x"), Some("x"), Some("y")])),
        ];
        let mut hashes = vec![0u64; 4];
        for k in &keys {
            k.hash_combine(None, &mut hashes);
        }
        for (row, &h) in hashes.iter().enumerate() {
            assert_eq!(tuple_hash(&keys, row), h, "row {row}");
        }
        // Domain (2+1)*(2+1) = 9 exceeds 4 rows; one key alone fits.
        assert_eq!(code_domain(&keys, 4), None);
        assert_eq!(code_domain(&keys[..1], 4), Some(3));
        assert_eq!(code_domain(&[Arc::new(Column::from_i64(vec![1]))], 4), None);
    }

    /// Sorted row images for order-insensitive comparison: spilled output is
    /// emitted per partition, not in first-appearance order.
    fn sorted_rows(b: &RecordBatch) -> Vec<String> {
        let mut rows: Vec<String> = b.to_rows().iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    }

    /// 800 rows over 157 groups with a mixed accumulator set; integer-valued
    /// sums stay exact in f64, so avg is merge-order independent.
    fn many_groups(workers: usize, budget: Option<usize>, metrics: Option<Metrics>) -> RecordBatch {
        let ctx = ctx_with(workers, budget, metrics);
        let batches: Vec<_> = (0..8)
            .map(|b| {
                int_batch(&[
                    ("g", (0..100).map(|i| (b * 100 + i) % 157).collect()),
                    ("v", (0..100).map(|i| b * 100 + i).collect()),
                ])
            })
            .collect();
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::new(batches[0].schema().clone(), batches)),
            vec![col("g")],
            vec![
                sum(col("v")).alias("s"),
                count_star().alias("n"),
                min(col("v")).alias("lo"),
                avg(col("v")).alias("a"),
            ],
            &ctx,
            OpStats::default(),
        )
        .unwrap();
        drain_one(&mut agg).unwrap()
    }

    #[test]
    fn spilling_aggregate_matches_in_memory() {
        let expect = sorted_rows(&many_groups(1, None, None));
        let metrics = Metrics::new();
        let spilled = many_groups(1, Some(4096), Some(metrics.clone()));
        assert_eq!(sorted_rows(&spilled), expect);
        assert!(
            metrics.value("storage.spill.partitions") > 0,
            "a 4 KiB budget must force a spill"
        );
        assert!(metrics.value("storage.spill.bytes_written") > 0);
        assert!(metrics.value("storage.spill.bytes_read") > 0);
    }

    #[test]
    fn parallel_spilling_aggregate_matches_serial() {
        let expect = sorted_rows(&many_groups(1, None, None));
        let metrics = Metrics::new();
        let spilled = many_groups(4, Some(4096), Some(metrics.clone()));
        assert_eq!(sorted_rows(&spilled), expect);
        assert!(metrics.value("storage.spill.partitions") > 0);
        // Two workers under a one-byte budget merge spilled partials with
        // each other's; only the eight input batches count as input.
        let metrics = Metrics::new();
        let spilled = many_groups(2, Some(1), Some(metrics.clone()));
        assert_eq!(sorted_rows(&spilled), expect);
        assert!(metrics.value("storage.spill.partitions") > 0);
        assert_eq!(worker_total(&metrics, "morsels"), 8);
        assert_eq!(worker_total(&metrics, "rows"), 800);
        assert_eq!(metrics.value("op.aggregate.kernel.groups"), 157);
        assert_eq!(metrics.value("op.aggregate.kernel.dict_key_rows"), 0);
    }

    #[test]
    fn one_byte_budget_recursion_stays_correct() {
        // Every partition is always "over", so repartitioning recurses until
        // a partition holds one group, or MAX_SPILL_DEPTH, and then finishes
        // in memory.
        let expect = sorted_rows(&many_groups(1, None, None));
        assert_eq!(sorted_rows(&many_groups(1, Some(1), None)), expect);
    }

    #[test]
    fn single_group_partitions_finish_without_recursing() {
        // One group: every spilled row shares its key hash, so no depth can
        // split the partition. It must finish at depth 1, writing no file
        // beyond the first level.
        let batches: Vec<_> = (0..4)
            .map(|b| int_batch(&[("g", vec![7; 50]), ("v", vec![b; 50])]))
            .collect();
        let metrics = Metrics::new();
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::new(batches[0].schema().clone(), batches)),
            vec![col("g")],
            vec![sum(col("v")).alias("s")],
            &ctx_with(1, Some(1), Some(metrics.clone())),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.to_rows(), vec![vec![Value::Int(7), Value::Int(300)]]);
        assert_eq!(metrics.value("storage.spill.partitions"), 1);
    }

    #[test]
    fn generous_budget_never_spills() {
        let metrics = Metrics::new();
        let out = many_groups(1, Some(64 << 20), Some(metrics.clone()));
        assert_eq!(sorted_rows(&out), sorted_rows(&many_groups(1, None, None)));
        assert_eq!(metrics.value("storage.spill.partitions"), 0);
    }

    #[test]
    fn global_aggregate_ignores_budget() {
        // No group keys: nothing to partition by, so the (tiny) budget must
        // not trigger spilling and the single-row result stays exact.
        let metrics = Metrics::new();
        let batch = int_batch(&[("v", vec![1, 2, 3, 4])]);
        let mut agg = HashAggregateExec::new(
            Box::new(BatchSource::single(batch)),
            vec![],
            vec![sum(col("v")).alias("s")],
            &ctx_with(1, Some(1), Some(metrics.clone())),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut agg).unwrap();
        assert_eq!(out.row(0)[0], Value::Int(10));
        assert_eq!(metrics.value("storage.spill.partitions"), 0);
    }

    /// Row images with floats as their bits, sorted: -0.0 differs from 0.0
    /// and every NaN payload is its own value.
    fn exact_rows(b: &RecordBatch) -> Vec<String> {
        let mut rows: Vec<String> = b
            .to_rows()
            .iter()
            .map(|r| {
                let lanes: Vec<String> = r
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("f{:016x}", f.to_bits()),
                        v => format!("{v:?}"),
                    })
                    .collect();
                lanes.join("|")
            })
            .collect();
        rows.sort();
        rows
    }

    /// Eight 64-row batches: an int key `k` (NULL now and then) and a
    /// dictionary key `d` derived from it, so both keyings see the same
    /// per-group shape; plain ints `i`, frame-of-reference ints `e`, exactly
    /// representable floats `f`, floats `x` whose groups take NaN, ±0, ±∞
    /// and NULL as their extremes, and strings `s` (plain) and `ds`
    /// (dictionary) and bools `b` with NULLs. A class 4 group has only NULL
    /// `x`, `s`, `ds` and `b`. No group holds both zeros in `x` unless a
    /// smaller and a greater value are there too, so every answer is the
    /// same in every merge order.
    fn merge_batches() -> Vec<RecordBatch> {
        const WORDS: [&str; 7] = ["pear", "fig", "apple", "kiwi", "plum", "date", "lime"];
        const NAMES: [&str; 6] = ["c0", "c1", "c2", "c3", "c4", "c5"];
        let schema = Schema::new(vec![
            Field::nullable("k", DataType::Int64),
            Field::nullable("d", DataType::Utf8),
            Field::nullable("i", DataType::Int64),
            Field::nullable("e", DataType::Int64),
            Field::nullable("f", DataType::Float64),
            Field::nullable("x", DataType::Float64),
            Field::nullable("s", DataType::Utf8),
            Field::nullable("ds", DataType::Utf8),
            Field::nullable("b", DataType::Bool),
        ]);
        (0..8)
            .map(|batch| {
                let rows: Vec<i64> = (batch * 64..batch * 64 + 64).collect();
                let key = |r: i64| (r % 29 != 3).then_some(r % 41);
                let class = |r: i64| key(r).map(|k| k % 6);
                let x = |r: i64| {
                    let v = r as f64 * 0.25;
                    match class(r) {
                        None => Some(v),
                        Some(0) => Some(if r % 3 == 0 { f64::NAN } else { v }),
                        Some(1) => Some(match r % 4 {
                            0 => f64::INFINITY,
                            1 => f64::NEG_INFINITY,
                            _ => v,
                        }),
                        Some(2) => Some(if r % 3 == 0 { -0.0 } else { v + 1.0 }),
                        Some(3) => Some(if r % 3 == 0 { 0.0 } else { -v - 1.0 }),
                        Some(4) => None,
                        _ => (r % 2 == 0).then_some(-0.0),
                    }
                };
                let s = |r: i64| {
                    (class(r) != Some(4) && r % 5 != 0).then(|| WORDS[(r * 13 % 7) as usize])
                };
                let b = |r: i64| match class(r) {
                    Some(4) => None,
                    Some(5) => Some(true),
                    _ => (r % 3 != 0).then_some(r % 2 == 0),
                };
                let strs = |f: &dyn Fn(i64) -> Option<&'static str>| {
                    let vals: Vec<Value> = rows
                        .iter()
                        .map(|&r| f(r).map_or(Value::Null, Value::str))
                        .collect();
                    Column::from_values(DataType::Utf8, &vals).unwrap()
                };
                let e = Column::from_i64(rows.iter().map(|r| 1_000_000 + r * 37 % 200).collect())
                    .int64_encode()
                    .unwrap();
                assert!(matches!(
                    &e,
                    Column::Int64Encoded {
                        data: EncodedInts::For(_),
                        ..
                    }
                ));
                let cols = vec![
                    Column::from_opt_i64(rows.iter().map(|&r| key(r)).collect()),
                    strs(&|r| class(r).map(|c| NAMES[c as usize]))
                        .dict_encode()
                        .unwrap(),
                    Column::from_opt_i64(
                        rows.iter()
                            .map(|&r| (r % 11 != 0).then_some(r * 3 - 700))
                            .collect(),
                    ),
                    e,
                    Column::from_opt_f64(
                        rows.iter()
                            .map(|&r| (r % 13 != 0).then_some(r as f64 * 0.5 - 100.0))
                            .collect(),
                    ),
                    Column::from_opt_f64(rows.iter().map(|&r| x(r)).collect()),
                    strs(&s),
                    strs(&s).dict_encode().unwrap(),
                    Column::from_values(
                        DataType::Bool,
                        &rows
                            .iter()
                            .map(|&r| b(r).map_or(Value::Null, Value::Bool))
                            .collect::<Vec<_>>(),
                    )
                    .unwrap(),
                ];
                RecordBatch::try_new(schema.clone(), cols.into_iter().map(Arc::new).collect())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn partial_states_merge_like_one_pass() {
        let aggs = || {
            let mut aggs = vec![count_star(), count(col("i")), count(col("x"))];
            for c in ["i", "f"] {
                aggs.extend([sum(col(c)), avg(col(c))]);
            }
            for c in ["i", "e", "x", "s", "ds", "b"] {
                aggs.extend([min(col(c)), max(col(c))]);
            }
            aggs.into_iter()
                .enumerate()
                .map(|(i, a)| a.alias(format!("a{i}")))
                .collect::<Vec<_>>()
        };
        let batches = merge_batches();
        let input_rows: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
        // Keys, their group count (41 ints and NULL; six classes and NULL)
        // and the input rows keyed by a dictionary.
        let keyings = [
            (vec![], 1, 0),
            (vec![col("k")], 42, 0),
            (vec![col("d")], 7, input_rows),
        ];
        for (keys, groups, dict_rows) in keyings {
            let run = |workers: usize, budget: Option<usize>| {
                let metrics = Metrics::new();
                let mut agg = HashAggregateExec::new(
                    Box::new(BatchSource::new(
                        batches[0].schema().clone(),
                        batches.clone(),
                    )),
                    keys.clone(),
                    aggs(),
                    &ctx_with(workers, budget, Some(metrics.clone())),
                    OpStats::default(),
                )
                .unwrap();
                let out = drain_one(&mut agg).unwrap();
                assert_eq!(
                    metrics.value("op.aggregate.kernel.dict_key_rows"),
                    dict_rows
                );
                assert_eq!(
                    metrics.value("op.aggregate.kernel.groups"),
                    out.num_rows() as u64
                );
                if budget == Some(1) && !keys.is_empty() {
                    assert!(
                        metrics.value("storage.spill.partitions") > 0,
                        "{keys:?} must spill"
                    );
                }
                exact_rows(&out)
            };
            let expect = run(1, None);
            assert_eq!(expect.len(), groups);
            for workers in [1, 2, 8] {
                for budget in [None, Some(1), Some(16 << 10)] {
                    assert_eq!(
                        run(workers, budget),
                        expect,
                        "{keys:?} workers {workers} budget {budget:?}"
                    );
                }
            }
        }
        // Each batch's sum fits in an i64, both together do not: a partial
        // merge (workers or spill partitions) must overflow as one pass does.
        let half = 1i64 << 61;
        let overflow: Vec<_> = (0..2)
            .map(|_| int_batch(&[("g", vec![1, 1]), ("v", vec![half, half])]))
            .collect();
        for keys in [vec![], vec![col("g")]] {
            for workers in [1, 2, 8] {
                for budget in [None, Some(1), Some(16 << 10)] {
                    let mut agg = HashAggregateExec::new(
                        Box::new(BatchSource::new(
                            overflow[0].schema().clone(),
                            overflow.clone(),
                        )),
                        keys.clone(),
                        vec![sum(col("v"))],
                        &ctx_with(workers, budget, None),
                        OpStats::default(),
                    )
                    .unwrap();
                    let res = drain_one(&mut agg);
                    assert!(
                        matches!(res, Err(QueryError::Arithmetic(_))),
                        "{keys:?} workers {workers} budget {budget:?}: {res:?}"
                    );
                }
            }
        }
    }
}
