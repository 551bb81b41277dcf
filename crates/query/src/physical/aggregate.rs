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
use backbone_storage::{Bitmap, Column, DataType, Field, RecordBatch, Schema, Value};
use std::borrow::Borrow;
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
fn better<T: PartialOrd>(min: bool, x: &T, cur: &T) -> bool {
    let ord = x.partial_cmp(cur).unwrap_or(std::cmp::Ordering::Equal);
    if min {
        ord == std::cmp::Ordering::Less
    } else {
        ord == std::cmp::Ordering::Greater
    }
}

/// [`better`] for floats in ORDER BY order (`Value::sort_cmp`): NaN after
/// every number. So MAX is NaN if any value is, MIN only if every value
/// is, as `ORDER BY … LIMIT 1` answers, in every input order.
fn better_f64(min: bool, x: f64, cur: f64) -> bool {
    match (x.is_nan(), cur.is_nan()) {
        (false, false) => better(min, &x, &cur),
        // NaN is the greatest: it wins a MAX and loses a MIN to any number.
        (nan_x, nan_cur) => nan_x != nan_cur && nan_x != min,
    }
}

/// One typed accumulator vector per aggregate, indexed by group id.
enum AccVec {
    /// COUNT / COUNT(*).
    Count(Vec<i64>),
    SumI {
        sums: Vec<i64>,
        seen: Vec<bool>,
    },
    SumF {
        sums: Vec<f64>,
        seen: Vec<bool>,
    },
    Avg {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    MinMaxI {
        vals: Vec<i64>,
        seen: Vec<bool>,
        min: bool,
    },
    MinMaxF {
        vals: Vec<f64>,
        seen: Vec<bool>,
        min: bool,
    },
    MinMaxS {
        vals: Vec<String>,
        seen: Vec<bool>,
        min: bool,
    },
    MinMaxB {
        vals: Vec<bool>,
        seen: Vec<bool>,
        min: bool,
    },
}

impl AccVec {
    fn new(func: AggFunc, input_dt: DataType) -> AccVec {
        match func {
            AggFunc::Count | AggFunc::CountStar => AccVec::Count(Vec::new()),
            AggFunc::Sum => match input_dt {
                DataType::Float64 => AccVec::SumF {
                    sums: Vec::new(),
                    seen: Vec::new(),
                },
                // Non-numeric SUM is rejected at plan time (AggExpr::data_type).
                _ => AccVec::SumI {
                    sums: Vec::new(),
                    seen: Vec::new(),
                },
            },
            AggFunc::Avg => AccVec::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            AggFunc::Min | AggFunc::Max => {
                let min = func == AggFunc::Min;
                match input_dt {
                    DataType::Int64 => AccVec::MinMaxI {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        min,
                    },
                    DataType::Float64 => AccVec::MinMaxF {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        min,
                    },
                    DataType::Utf8 => AccVec::MinMaxS {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        min,
                    },
                    DataType::Bool => AccVec::MinMaxB {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        min,
                    },
                }
            }
        }
    }

    /// Append default state for one newly created group.
    fn push_group(&mut self) {
        match self {
            AccVec::Count(c) => c.push(0),
            AccVec::SumI { sums, seen } => {
                sums.push(0);
                seen.push(false);
            }
            AccVec::SumF { sums, seen } => {
                sums.push(0.0);
                seen.push(false);
            }
            AccVec::Avg { sums, counts } => {
                sums.push(0.0);
                counts.push(0);
            }
            AccVec::MinMaxI { vals, seen, .. } => {
                vals.push(0);
                seen.push(false);
            }
            AccVec::MinMaxF { vals, seen, .. } => {
                vals.push(0.0);
                seen.push(false);
            }
            AccVec::MinMaxS { vals, seen, .. } => {
                vals.push(String::new());
                seen.push(false);
            }
            AccVec::MinMaxB { vals, seen, .. } => {
                vals.push(false);
                seen.push(false);
            }
        }
    }

    /// Fold one batch's lanes into the accumulators. `gids[pos]` is the group
    /// for logical row `pos`; `input` is `None` only for COUNT(*).
    fn update_batch(
        &mut self,
        gids: &[u32],
        sel: Option<&[u32]>,
        input: Option<&Column>,
    ) -> Result<()> {
        match self {
            AccVec::Count(counts) => match input {
                None => {
                    // COUNT(*): every lane counts.
                    for &g in gids {
                        counts[g as usize] += 1;
                    }
                }
                Some(col) => for_each_valid(gids, sel, col.validity(), |g, _| counts[g] += 1),
            },
            AccVec::SumI { sums, seen } => {
                let col = input.expect("SUM has an input");
                let mut overflow = false;
                let add = |g: usize, x: i64| match sums[g].checked_add(x) {
                    Some(s) => {
                        sums[g] = s;
                        seen[g] = true;
                    }
                    None => overflow = true,
                };
                if !for_each_valid_int(gids, sel, col, add) {
                    return Err(QueryError::InvalidExpression(format!(
                        "SUM over {}",
                        col.data_type()
                    )));
                }
                if overflow {
                    return Err(QueryError::Arithmetic("SUM integer overflow".into()));
                }
            }
            AccVec::SumF { sums, seen } => {
                let col = input.expect("SUM has an input");
                let mut add = |g: usize, x: f64| {
                    sums[g] += x;
                    seen[g] = true;
                };
                match col {
                    Column::Float64(v, bm) => {
                        for_each_valid(gids, sel, bm, |g, row| add(g, v[row]))
                    }
                    other => {
                        if !for_each_valid_int(gids, sel, other, |g, x| add(g, x as f64)) {
                            return Err(QueryError::InvalidExpression(format!(
                                "SUM over {}",
                                other.data_type()
                            )));
                        }
                    }
                }
            }
            AccVec::Avg { sums, counts } => {
                let col = input.expect("AVG has an input");
                let mut add = |g: usize, x: f64| {
                    sums[g] += x;
                    counts[g] += 1;
                };
                match col {
                    Column::Float64(v, bm) => {
                        for_each_valid(gids, sel, bm, |g, row| add(g, v[row]))
                    }
                    other if for_each_valid_int(gids, sel, other, |g, x| add(g, x as f64)) => {}
                    other => {
                        // Mirror the row-at-a-time error: only raised when a
                        // non-null value actually arrives.
                        let mut bad: Option<Value> = None;
                        for_each_lane(sel, gids.len(), |_, base| {
                            if bad.is_none() && !other.is_null(base) {
                                bad = Some(other.value(base));
                            }
                        });
                        if let Some(v) = bad {
                            return Err(QueryError::InvalidExpression(format!(
                                "AVG over non-numeric value {v}"
                            )));
                        }
                    }
                }
            }
            AccVec::MinMaxI { vals, seen, min } => {
                let min = *min;
                let fold = |g: usize, x: i64| {
                    if !seen[g] || (min && x < vals[g]) || (!min && x > vals[g]) {
                        vals[g] = x;
                        seen[g] = true;
                    }
                };
                if let Some(col) = input {
                    for_each_valid_int(gids, sel, col, fold);
                }
            }
            AccVec::MinMaxF { vals, seen, min } => {
                if let Some(Column::Float64(v, bm)) = input {
                    let min = *min;
                    for_each_valid(gids, sel, bm, |g, row| {
                        let x = v[row];
                        if !seen[g] || better_f64(min, x, vals[g]) {
                            vals[g] = x;
                            seen[g] = true;
                        }
                    });
                }
            }
            AccVec::MinMaxS { vals, seen, min } => {
                let min = *min;
                let mut fold = |g: usize, x: &str| {
                    if !seen[g] || (min && x < vals[g].as_str()) || (!min && x > vals[g].as_str()) {
                        vals[g] = x.to_string();
                        seen[g] = true;
                    }
                };
                match input {
                    Some(Column::Utf8(v, bm)) => {
                        for_each_valid(gids, sel, bm, |g, row| fold(g, &v[row]))
                    }
                    Some(c @ Column::DictUtf8 { .. }) => {
                        let (dict, codes, bm) = c.dict_parts().expect("matched dict");
                        for_each_valid(gids, sel, bm, |g, row| fold(g, &dict[codes[row] as usize]))
                    }
                    _ => {}
                }
            }
            AccVec::MinMaxB { vals, seen, min } => {
                if let Some(Column::Bool(v, bm)) = input {
                    let min = *min;
                    for_each_valid(gids, sel, bm, |g, row| {
                        let x = v[row];
                        if !seen[g] || (min && !x & vals[g]) || (!min && x & !vals[g]) {
                            vals[g] = x;
                            seen[g] = true;
                        }
                    });
                }
            }
        }
        Ok(())
    }

    /// Fold source group `sg` of `src` (a partial state for the same
    /// aggregate) into group `dst` of `self` — the merge phase of parallel
    /// aggregation. Same semantics as feeding `src`'s inputs through
    /// `update_batch`, so COUNT adds, SUM re-checks overflow, MIN/MAX keep
    /// the better extreme, and never-seen source groups stay NULL.
    fn merge_from(&mut self, dst: usize, src: &AccVec, sg: usize) -> Result<()> {
        match (self, src) {
            (AccVec::Count(a), AccVec::Count(b)) => a[dst] += b[sg],
            (AccVec::SumI { sums, seen }, AccVec::SumI { sums: s2, seen: e2 }) => {
                if e2[sg] {
                    sums[dst] = sums[dst]
                        .checked_add(s2[sg])
                        .ok_or_else(|| QueryError::Arithmetic("SUM integer overflow".into()))?;
                    seen[dst] = true;
                }
            }
            (AccVec::SumF { sums, seen }, AccVec::SumF { sums: s2, seen: e2 }) => {
                if e2[sg] {
                    sums[dst] += s2[sg];
                    seen[dst] = true;
                }
            }
            (
                AccVec::Avg { sums, counts },
                AccVec::Avg {
                    sums: s2,
                    counts: c2,
                },
            ) => {
                sums[dst] += s2[sg];
                counts[dst] += c2[sg];
            }
            (
                AccVec::MinMaxI { vals, seen, min },
                AccVec::MinMaxI {
                    vals: v2, seen: e2, ..
                },
            ) => {
                if e2[sg] && (!seen[dst] || better(*min, &v2[sg], &vals[dst])) {
                    vals[dst] = v2[sg];
                    seen[dst] = true;
                }
            }
            (
                AccVec::MinMaxF { vals, seen, min },
                AccVec::MinMaxF {
                    vals: v2, seen: e2, ..
                },
            ) => {
                if e2[sg] && (!seen[dst] || better_f64(*min, v2[sg], vals[dst])) {
                    vals[dst] = v2[sg];
                    seen[dst] = true;
                }
            }
            (
                AccVec::MinMaxS { vals, seen, min },
                AccVec::MinMaxS {
                    vals: v2, seen: e2, ..
                },
            ) => {
                if e2[sg] && (!seen[dst] || better(*min, &v2[sg], &vals[dst])) {
                    vals[dst] = v2[sg].clone();
                    seen[dst] = true;
                }
            }
            (
                AccVec::MinMaxB { vals, seen, min },
                AccVec::MinMaxB {
                    vals: v2, seen: e2, ..
                },
            ) => {
                if e2[sg] && (!seen[dst] || better(*min, &v2[sg], &vals[dst])) {
                    vals[dst] = v2[sg];
                    seen[dst] = true;
                }
            }
            _ => unreachable!("partial aggregate states share one spec"),
        }
        Ok(())
    }

    /// Approximate resident bytes, for budget accounting.
    fn byte_size(&self) -> usize {
        match self {
            AccVec::Count(c) => c.len() * 8,
            AccVec::SumI { sums, seen } => sums.len() * 8 + seen.len(),
            AccVec::SumF { sums, seen } => sums.len() * 8 + seen.len(),
            AccVec::Avg { sums, counts } => sums.len() * 8 + counts.len() * 8,
            AccVec::MinMaxI { vals, seen, .. } => vals.len() * 8 + seen.len(),
            AccVec::MinMaxF { vals, seen, .. } => vals.len() * 8 + seen.len(),
            AccVec::MinMaxS { vals, seen, .. } => {
                vals.iter().map(|s| s.capacity() + 24).sum::<usize>() + seen.len()
            }
            AccVec::MinMaxB { vals, seen, .. } => vals.len() + seen.len(),
        }
    }

    /// Data types of this accumulator's serialized partial state. AVG keeps
    /// sums and counts as separate columns so re-merged partials stay exact.
    fn state_types(&self) -> Vec<DataType> {
        match self {
            AccVec::Count(_) => vec![DataType::Int64],
            AccVec::SumI { .. } => vec![DataType::Int64],
            AccVec::SumF { .. } => vec![DataType::Float64],
            AccVec::Avg { .. } => vec![DataType::Float64, DataType::Int64],
            AccVec::MinMaxI { .. } => vec![DataType::Int64],
            AccVec::MinMaxF { .. } => vec![DataType::Float64],
            AccVec::MinMaxS { .. } => vec![DataType::Utf8],
            AccVec::MinMaxB { .. } => vec![DataType::Bool],
        }
    }

    /// Serialize the partial state for spilling. `seen` becomes the validity
    /// bitmap, so a codec round trip that zeroes data under nulls cannot
    /// change the merge result ([`AccVec::merge_from`] checks `seen` first).
    fn state_columns(&self) -> Vec<Column> {
        match self {
            AccVec::Count(c) => vec![Column::from_i64(c.clone())],
            AccVec::SumI { sums, seen } => {
                vec![Column::Int64(sums.clone(), Bitmap::from_bools(seen))]
            }
            AccVec::SumF { sums, seen } => {
                vec![Column::Float64(sums.clone(), Bitmap::from_bools(seen))]
            }
            AccVec::Avg { sums, counts } => vec![
                Column::from_f64(sums.clone()),
                Column::from_i64(counts.clone()),
            ],
            AccVec::MinMaxI { vals, seen, .. } => {
                vec![Column::Int64(vals.clone(), Bitmap::from_bools(seen))]
            }
            AccVec::MinMaxF { vals, seen, .. } => {
                vec![Column::Float64(vals.clone(), Bitmap::from_bools(seen))]
            }
            AccVec::MinMaxS { vals, seen, .. } => {
                vec![Column::Utf8(vals.clone(), Bitmap::from_bools(seen))]
            }
            AccVec::MinMaxB { vals, seen, .. } => {
                vec![Column::Bool(vals.clone(), Bitmap::from_bools(seen))]
            }
        }
    }

    /// Rebuild partial state from spilled columns (inverse of
    /// [`AccVec::state_columns`]); consumes as many columns from the
    /// iterator as [`AccVec::state_types`] declares.
    fn load_state<'a>(&mut self, cols: &mut impl Iterator<Item = &'a Arc<Column>>) -> Result<()> {
        fn seen_of(col: &Column) -> Vec<bool> {
            let bm = col.validity();
            (0..col.len()).map(|i| bm.get(i)).collect()
        }
        let mut next = || {
            cols.next().ok_or_else(|| {
                QueryError::InvalidPlan("missing spilled aggregate state column".into())
            })
        };
        match self {
            AccVec::Count(c) => *c = next()?.i64_data()?.to_vec(),
            AccVec::SumI { sums, seen } => {
                let col = next()?;
                *sums = col.i64_data()?.to_vec();
                *seen = seen_of(col);
            }
            AccVec::SumF { sums, seen } => {
                let col = next()?;
                *sums = col.f64_data()?.to_vec();
                *seen = seen_of(col);
            }
            AccVec::Avg { sums, counts } => {
                *sums = next()?.f64_data()?.to_vec();
                *counts = next()?.i64_data()?.to_vec();
            }
            AccVec::MinMaxI { vals, seen, .. } => {
                let col = next()?;
                *vals = col.i64_data()?.to_vec();
                *seen = seen_of(col);
            }
            AccVec::MinMaxF { vals, seen, .. } => {
                let col = next()?;
                *vals = col.f64_data()?.to_vec();
                *seen = seen_of(col);
            }
            AccVec::MinMaxS { vals, seen, .. } => {
                let col = next()?;
                *vals = col.utf8_data()?.to_vec();
                *seen = seen_of(col);
            }
            AccVec::MinMaxB { vals, seen, .. } => {
                let col = next()?;
                *vals = col.bool_data()?.to_vec();
                *seen = seen_of(col);
            }
        }
        Ok(())
    }

    /// Emit the output column across all groups.
    fn finish(self) -> Column {
        fn with_seen<T>(
            vals: Vec<T>,
            seen: Vec<bool>,
            build: impl Fn(Vec<T>, Bitmap) -> Column,
        ) -> Column {
            let bm = Bitmap::from_bools(&seen);
            build(vals, bm)
        }
        match self {
            AccVec::Count(c) => Column::from_i64(c),
            AccVec::SumI { sums, seen } => with_seen(sums, seen, Column::Int64),
            AccVec::SumF { sums, seen } => with_seen(sums, seen, Column::Float64),
            AccVec::Avg { sums, counts } => {
                let seen: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
                let vals: Vec<f64> = sums
                    .iter()
                    .zip(&counts)
                    .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                    .collect();
                with_seen(vals, seen, Column::Float64)
            }
            AccVec::MinMaxI { vals, seen, .. } => with_seen(vals, seen, Column::Int64),
            AccVec::MinMaxF { vals, seen, .. } => with_seen(vals, seen, Column::Float64),
            AccVec::MinMaxS { vals, seen, .. } => with_seen(vals, seen, Column::Utf8),
            AccVec::MinMaxB { vals, seen, .. } => with_seen(vals, seen, Column::Bool),
        }
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

/// [`for_each_valid`] over an integer column's values: `f(group, value)`
/// per valid lane. Frame-of-reference lanes are read as a slice, once per
/// lane width. `false` (and no calls) for a non-integer column.
fn for_each_valid_int(
    gids: &[u32],
    sel: Option<&[u32]>,
    col: &Column,
    mut f: impl FnMut(usize, i64),
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
/// key hashes to dense group ids. Each worker builds its own and the states
/// merge pairwise afterwards.
struct AggState {
    key_stores: Vec<Column>,
    accs: Vec<AccVec>,
    table: GroupTable,
    n_groups: u32,
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
                .map(|(a, &dt)| AccVec::new(a.func, dt))
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
        let mut gids = std::mem::take(&mut self.gids);
        gids.clear();
        gids.resize(n, 0);
        self.assign_groups(&key_cols, sel, batch.base_rows(), &mut gids)?;
        self.hash_ns += t0.elapsed().as_nanos() as u64;

        // Pass 2: columnar accumulator update, one aggregate at a time.
        let t1 = Instant::now();
        for (acc, col) in self.accs.iter_mut().zip(&agg_cols) {
            acc.update_batch(&gids, sel, col.as_deref())?;
        }
        self.update_ns += t1.elapsed().as_nanos() as u64;
        self.gids = gids;
        Ok(())
    }

    /// Fill `gids[pos]` with the group of logical row `pos`. Dictionary keys
    /// with a small code domain resolve in code space; an all-valid RLE key
    /// without a selection resolves once per run; anything else hashes every
    /// lane with [`Column::hash_combine`].
    fn assign_groups(
        &mut self,
        key_cols: &[Arc<Column>],
        sel: Option<&[u32]>,
        base_rows: usize,
        gids: &mut [u32],
    ) -> Result<()> {
        if key_cols.is_empty() {
            // Global aggregate: one group, no hashing.
            if self.n_groups == 0 && !gids.is_empty() {
                self.new_group();
            }
            return Ok(());
        }
        if key_cols.iter().any(|kc| kc.is_dict()) {
            self.dict_key_rows += gids.len() as u64;
        }
        if let Some(domain) = code_domain(key_cols, gids.len()) {
            return self.code_space_groups(key_cols, sel, domain, gids);
        }
        let mut hashes = std::mem::take(&mut self.hashes);
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
        Ok(())
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
        let mut lut = std::mem::take(&mut self.lut);
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
    fn group_of<C: Borrow<Column>>(&mut self, hash: u64, keys: &[C], row: usize) -> Result<u32> {
        let stores = &self.key_stores;
        let (gid, inserted) = self.table.find_or_insert(hash, self.n_groups, |g| {
            stores
                .iter()
                .zip(keys)
                .all(|(store, k)| store.eq_rows_null_eq(g as usize, k.borrow(), row))
        });
        if inserted {
            for (store, k) in self.key_stores.iter_mut().zip(keys) {
                store.push_from(k.borrow(), row)?;
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

    /// Merge another worker's partial state into this one. Key stores hold
    /// decoded values, and [`Column::hash_combine`]'s hash is value-
    /// compatible between plain and dict columns, so rehashing the stored
    /// keys reproduces the hashes the per-worker tables were built from.
    fn absorb(&mut self, other: &AggState, nkeys: usize) -> Result<()> {
        self.hash_ns += other.hash_ns;
        self.update_ns += other.update_ns;
        self.dict_key_rows += other.dict_key_rows;
        self.morsels += other.morsels;
        self.rows += other.rows;
        if other.n_groups == 0 {
            return Ok(());
        }
        if nkeys == 0 {
            if self.n_groups == 0 {
                self.new_group();
            }
            for (acc, src) in self.accs.iter_mut().zip(&other.accs) {
                acc.merge_from(0, src, 0)?;
            }
            return Ok(());
        }
        let mut hashes = vec![0u64; other.n_groups as usize];
        for ks in &other.key_stores {
            ks.hash_combine(None, &mut hashes);
        }
        for (sg, &hash) in hashes.iter().enumerate() {
            let gid = self.group_of(hash, &other.key_stores, sg)?;
            for (acc, src) in self.accs.iter_mut().zip(&other.accs) {
                acc.merge_from(gid as usize, src, sg)?;
            }
        }
        Ok(())
    }

    /// Approximate resident bytes of this grouping state (keys +
    /// accumulators + hash table), for budget accounting.
    fn mem_bytes(&self) -> usize {
        let keys: usize = self.key_stores.iter().map(|c| c.byte_size()).sum();
        let accs: usize = self.accs.iter().map(|a| a.byte_size()).sum();
        keys + accs + self.table.slots.len() * 12
    }

    /// Serialize every group as one partial-state row: key columns first,
    /// then each accumulator's state columns, matching the spill schema.
    fn state_batch(&self, spill_schema: &Arc<Schema>) -> Result<RecordBatch> {
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(spill_schema.len());
        for ks in &self.key_stores {
            cols.push(Arc::new(ks.clone()));
        }
        for acc in &self.accs {
            for c in acc.state_columns() {
                cols.push(Arc::new(c));
            }
        }
        Ok(RecordBatch::try_new(spill_schema.clone(), cols)?)
    }

    /// Merge one spilled partial-state batch back in (inverse of
    /// [`AggState::state_batch`], routed through [`AggState::absorb`] so the
    /// merge semantics are identical to the parallel worker merge).
    fn absorb_batch(&mut self, batch: &RecordBatch, spec: &AggSpec<'_>) -> Result<()> {
        let mut partial = AggState::new(spec.key_types, spec.aggs, spec.agg_input_types);
        partial.n_groups = batch.num_rows() as u32;
        partial.key_stores = (0..spec.nkeys())
            .map(|i| batch.column(i).as_ref().clone())
            .collect();
        let mut it = batch.columns().iter().skip(spec.nkeys());
        for acc in &mut partial.accs {
            acc.load_state(&mut it)?;
        }
        self.absorb(&partial, spec.nkeys())
    }
}

/// The aggregate's type spec, bundled so spill helpers stay callable from
/// worker closures that cannot borrow the whole operator.
struct AggSpec<'a> {
    key_types: &'a [DataType],
    aggs: &'a [AggExpr],
    agg_input_types: &'a [DataType],
}

impl AggSpec<'_> {
    fn nkeys(&self) -> usize {
        self.key_types.len()
    }
}

/// Flush `state`'s groups into `spill` partitioned by key hash at `depth`,
/// leaving a fresh state that keeps the running timing counters.
fn spill_state_into(
    state: &mut AggState,
    spill: &mut SpillSet,
    spill_schema: &Arc<Schema>,
    spec: &AggSpec<'_>,
    depth: usize,
    meter: &SpillMeter,
) -> Result<()> {
    if state.n_groups == 0 {
        return Ok(());
    }
    let batch = state.state_batch(spill_schema)?;
    let key_idx: Vec<usize> = (0..spec.nkeys()).collect();
    spill.append_partitioned(&batch, &key_idx, depth, meter)?;
    let mut fresh = AggState::new(spec.key_types, spec.aggs, spec.agg_input_types);
    fresh.hash_ns = state.hash_ns;
    fresh.update_ns = state.update_ns;
    fresh.dict_key_rows = state.dict_key_rows;
    fresh.morsels = state.morsels;
    fresh.rows = state.rows;
    *state = fresh;
    Ok(())
}

/// Emit a finished state as an output batch (keys + aggregate results).
fn finish_batch(state: AggState, schema: &Arc<Schema>) -> Result<RecordBatch> {
    let mut columns: Vec<Arc<Column>> =
        Vec::with_capacity(state.key_stores.len() + state.accs.len());
    for store in state.key_stores {
        columns.push(Arc::new(store));
    }
    for acc in state.accs {
        columns.push(Arc::new(acc.finish()));
    }
    Ok(RecordBatch::try_new(schema.clone(), columns)?)
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

    /// Schema of spilled partial-state batches: group keys, then each
    /// accumulator's state columns.
    fn spill_schema(&self) -> Arc<Schema> {
        let mut fields = Vec::new();
        for (i, &dt) in self.key_types.iter().enumerate() {
            fields.push(Field::nullable(format!("k{i}"), dt));
        }
        for (ai, (a, &dt)) in self.aggs.iter().zip(&self.agg_input_types).enumerate() {
            let proto = AccVec::new(a.func, dt);
            for (si, sdt) in proto.state_types().into_iter().enumerate() {
                fields.push(Field::nullable(format!("a{ai}s{si}"), sdt));
            }
        }
        Schema::new(fields)
    }

    fn spec(&self) -> AggSpec<'_> {
        AggSpec {
            key_types: &self.key_types,
            aggs: &self.aggs,
            agg_input_types: &self.agg_input_types,
        }
    }

    /// Re-aggregate one spilled partition. A partition whose merged state
    /// itself exceeds the budget repartitions with deeper hash bits and
    /// recurses, up to [`MAX_SPILL_DEPTH`]; past the cap, or when all its
    /// rows are one group (no deeper bits can split it), it finishes in
    /// memory (correctness over the ceiling).
    fn process_partition(
        &self,
        file: &mut SpillFile,
        spill_schema: &Arc<Schema>,
        depth: usize,
        out: &mut Vec<RecordBatch>,
    ) -> Result<()> {
        if file.is_empty() {
            return Ok(());
        }
        let spec = self.spec();
        let key_idx: Vec<usize> = (0..spec.nkeys()).collect();
        let batches = file.read_all(spill_schema, &self.meter)?;
        let splittable = depth < MAX_SPILL_DEPTH && !one_key_hash(&batches, &key_idx);
        let mut lease = self.ctx.lease();
        let mut st = AggState::new(&self.key_types, &self.aggs, &self.agg_input_types);
        for (i, b) in batches.iter().enumerate() {
            st.absorb_batch(b, &spec)?;
            if let Some(l) = &mut lease {
                l.set(st.mem_bytes());
                if l.over() && splittable {
                    let mut sub = SpillSet::new();
                    spill_state_into(&mut st, &mut sub, spill_schema, &spec, depth, &self.meter)?;
                    l.set(st.mem_bytes());
                    for rest in &batches[i + 1..] {
                        sub.append_partitioned(rest, &key_idx, depth, &self.meter)?;
                    }
                    for mut f in sub.into_files() {
                        self.process_partition(&mut f, spill_schema, depth + 1, out)?;
                    }
                    return Ok(());
                }
            }
        }
        if st.n_groups > 0 {
            out.push(finish_batch(st, &self.schema)?);
        }
        Ok(())
    }

    /// Build per-worker partial states, then merge them in worker order.
    /// Workers share the budget accountant; a worker whose state pushes the
    /// shared total over the limit serializes it into the shared partition
    /// files under one lock.
    fn build_state(
        &mut self,
        spill: &mut Option<SpillSet>,
        spill_schema: &Arc<Schema>,
    ) -> Result<AggState> {
        let ctx = &self.ctx;
        let meter = &self.meter;
        let group_by = &self.group_by;
        let aggs = &self.aggs;
        let key_types = &self.key_types;
        let agg_input_types = &self.agg_input_types;
        let nkeys = group_by.len();
        let shared_spill: Mutex<&mut Option<SpillSet>> = Mutex::new(spill);
        let source = SharedSource::new(self.input.as_mut());
        let states: Vec<Result<AggState>> = super::pool::run_workers(ctx.workers, |w| {
            // Per-thread handle so eval kernels report here too.
            let _kernel = crate::kernel_metrics::install(ctx);
            let spec = AggSpec {
                key_types,
                aggs,
                agg_input_types,
            };
            let mut lease = ctx.lease();
            let mut st = AggState::new(key_types, aggs, agg_input_types);
            while let Some(batch) = source.next()? {
                st.consume(group_by, aggs, &batch)?;
                if nkeys > 0 {
                    if let Some(l) = &mut lease {
                        l.set(st.mem_bytes());
                        if l.over() {
                            let mut guard = shared_spill.lock().expect("spill lock");
                            let set = guard.get_or_insert_with(SpillSet::new);
                            spill_state_into(&mut st, set, spill_schema, &spec, 0, meter)?;
                            drop(guard);
                            l.set(st.mem_bytes());
                        }
                    }
                }
            }
            ctx.record_worker(Scope::Aggregate, w, st.morsels, st.rows);
            Ok(st)
        });
        let t0 = Instant::now();
        let mut merged: Option<AggState> = None;
        for st in states {
            let st = st?;
            match &mut merged {
                None => merged = Some(st),
                Some(m) => m.absorb(&st, nkeys)?,
            }
        }
        let merged = merged.expect("at least one worker");
        let merge_ns = t0.elapsed().as_nanos() as u64;
        self.stats.workers.add(ctx.workers as u64);
        self.stats.morsels.add(merged.morsels);
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
        let spill_schema = self.spill_schema();
        let mut spill: Option<SpillSet> = None;
        let mut state = self.build_state(&mut spill, &spill_schema)?;

        // The merge of per-worker partials can itself cross the budget even
        // when no worker spilled mid-stream.
        if spill.is_none() && nkeys > 0 {
            if let Some(b) = &self.ctx.budget {
                if state.mem_bytes() > b.limit() {
                    spill = Some(SpillSet::new());
                }
            }
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
        let spilled_out = if let Some(mut set) = spill.take() {
            let spec = self.spec();
            spill_state_into(&mut state, &mut set, &spill_schema, &spec, 0, &self.meter)?;
            let mut out = Vec::new();
            for mut f in set.into_files() {
                self.process_partition(&mut f, &spill_schema, 1, &mut out)?;
            }
            Some(out)
        } else {
            None
        };

        let groups_total = match &spilled_out {
            Some(bs) => bs.iter().map(|b| b.num_rows() as u64).sum(),
            None => state.n_groups as u64,
        };
        let c = &self.ctx.counters;
        c.agg_hash_ns.add(state.hash_ns);
        c.agg_update_ns.add(state.update_ns);
        c.agg_groups.add(groups_total);
        c.agg_dict_key_rows.add(state.dict_key_rows);

        match spilled_out {
            Some(bs) => Ok(Some(RecordBatch::concat(self.schema.clone(), &bs)?)),
            None => Ok(Some(finish_batch(state, &self.schema)?)),
        }
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
    use backbone_storage::Metrics;

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
        let worker_morsels: u64 = (0..2)
            .map(|w| metrics.value(&format!("op.aggregate.worker.{w}.morsels")))
            .sum();
        assert_eq!(worker_morsels, 4);
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
}
