//! Typed, nullable column vectors — the unit of storage and execution.

use crate::compress::{EncodedInts, IntShape};
use crate::error::{Result, StorageError};
use crate::types::{DataType, Value};
use crate::with_lanes;
use std::collections::HashMap;
use std::sync::Arc;

/// A validity bitmap: one bit per row, set = valid (non-null).
///
/// Backed by `u64` words; all-valid bitmaps are represented without
/// allocating (the common case for generated workloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    /// Number of set (valid) bits, maintained incrementally.
    ones: usize,
}

impl Bitmap {
    /// An all-valid bitmap of the given length.
    pub fn all_valid(len: usize) -> Self {
        let nwords = len.div_ceil(64);
        let mut words = vec![u64::MAX; nwords];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap {
            words,
            len,
            ones: len,
        }
    }

    /// An all-null bitmap of the given length.
    pub fn all_null(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Build from a slice of booleans (`true` = valid).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bm = Bitmap::all_null(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.set(i, true);
            }
        }
        bm
    }

    /// A bitmap of `len` bits from packed words: bit `i % 64` of word
    /// `i / 64` is bit `i`. Missing words read as clear and bits past `len`
    /// are dropped; the set bits are counted once, by popcount.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Bitmap { words, len, ones }
    }

    /// The packed words (see [`Bitmap::from_words`]); bits past
    /// [`Bitmap::len`] are clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Positions of the set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.words)
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set (row is valid).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was = *word & mask != 0;
        if valid && !was {
            *word |= mask;
            self.ones += 1;
        } else if !valid && was {
            *word &= !mask;
            self.ones -= 1;
        }
    }

    /// Append one bit.
    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if valid {
            let i = self.len - 1;
            self.words[i / 64] |= 1u64 << (i % 64);
            self.ones += 1;
        }
    }

    /// Append every bit of `other`, a word at a time.
    pub(crate) fn append(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            self.words.reserve(other.words.len());
            for &w in &other.words {
                *self.words.last_mut().expect("a partial word exists") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        self.ones += other.ones;
        // Bits past `other.len` are clear, so the dropped word is all zero.
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Append bits `[at, at + n)` of `other`, a word at a time.
    pub(crate) fn append_range(&mut self, other: &Bitmap, at: usize, n: usize) {
        if at == 0 && n == other.len {
            return self.append(other);
        }
        let (first, shift) = (at / 64, at % 64);
        let word = |k: usize| other.words.get(k).copied().unwrap_or(0);
        let words = (first..first + n.div_ceil(64))
            .map(|k| match shift {
                0 => word(k),
                s => word(k) >> s | word(k + 1) << (64 - s),
            })
            .collect();
        self.append(&Bitmap::from_words(words, n));
    }

    /// The bitmaps of `parts` end to end.
    pub(crate) fn concat<'a>(parts: impl IntoIterator<Item = &'a Bitmap>) -> Bitmap {
        let mut out = Bitmap::all_valid(0);
        for part in parts {
            out.append(part);
        }
        out
    }

    /// Number of valid (set) bits.
    pub fn count_valid(&self) -> usize {
        self.ones
    }

    /// Number of null (unset) bits.
    pub fn count_null(&self) -> usize {
        self.len - self.ones
    }

    /// Whether every row is valid.
    pub fn all_set(&self) -> bool {
        self.ones == self.len
    }
}

/// Positions of the set bits of packed words (bit `i % 64` of word `i / 64`
/// is position `i`), ascending: one `trailing_zeros` per set bit, none per
/// clear one.
pub fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// A typed column of values with a validity bitmap.
///
/// Null slots hold an arbitrary placeholder in the values vector; consumers
/// must consult the bitmap. This keeps the data arrays dense and branch-free
/// for vectorized kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>, Bitmap),
    /// 64-bit floats.
    Float64(Vec<f64>, Bitmap),
    /// UTF-8 strings.
    Utf8(Vec<String>, Bitmap),
    /// Booleans.
    Bool(Vec<bool>, Bitmap),
    /// Dictionary-encoded UTF-8: `codes[i]` indexes into the shared `dict`.
    ///
    /// Logically identical to [`Column::Utf8`] (`data_type()` reports
    /// `Utf8`); kernels that understand the encoding stay in u32 code space
    /// and evaluate string work once per distinct entry. The dictionary is
    /// `Arc`-shared so gathers, slices, and joins of the same row group can
    /// compare codes directly (`Arc::ptr_eq`). Code slots for NULL rows hold
    /// an arbitrary value; consult the validity bitmap first.
    DictUtf8 {
        /// Distinct values, in first-occurrence order.
        dict: Arc<Vec<String>>,
        /// Per-row indexes into `dict`.
        codes: Vec<u32>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// Encoded 64-bit integers: RLE runs or frame-of-reference lanes.
    ///
    /// Logically identical to [`Column::Int64`] (`data_type()` reports
    /// `Int64`) — the numeric mirror of [`Column::DictUtf8`]. Sealed row
    /// groups adopt this representation when it compresses well. Kernels
    /// that understand the encoding never materialize the plain vector:
    /// comparisons run once per RLE run, or over the `u8`/`u16`/`u32` lane
    /// slice of a [`crate::compress::ForLanes`] against a literal translated
    /// into residual space; hashing and accumulators read `reference +
    /// lanes[i]` in loops monomorphized per lane width. NULL slots hold a
    /// placeholder (the minimum valid value); consult the validity bitmap
    /// first. Immutable: the row-at-a-time append paths reject it,
    /// gathers/takes decode to plain `Int64` (outputs are materializations),
    /// and slices stay encoded.
    Int64Encoded {
        /// The encoded value body.
        data: EncodedInts,
        /// Per-row validity.
        validity: Bitmap,
    },
}

/// Borrowed pieces of a dictionary column: entries, per-row codes, validity.
pub type DictParts<'a> = (&'a Arc<Vec<String>>, &'a [u32], &'a Bitmap);

/// Borrowed pieces of an encoded integer column: body, validity.
pub type EncodedParts<'a> = (&'a EncodedInts, &'a Bitmap);

impl Column {
    /// Build a non-null Int64 column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        let bm = Bitmap::all_valid(values.len());
        Column::Int64(values, bm)
    }

    /// Build a non-null Float64 column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        let bm = Bitmap::all_valid(values.len());
        Column::Float64(values, bm)
    }

    /// Build a non-null Utf8 column.
    pub fn from_strings(values: Vec<String>) -> Self {
        let bm = Bitmap::all_valid(values.len());
        Column::Utf8(values, bm)
    }

    /// Build a non-null Bool column.
    pub fn from_bools(values: Vec<bool>) -> Self {
        let bm = Bitmap::all_valid(values.len());
        Column::Bool(values, bm)
    }

    /// Build an Int64 column from options (None = NULL).
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut bm = Bitmap::all_null(values.len());
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(x) => {
                    data.push(x);
                    bm.set(i, true);
                }
                None => data.push(0),
            }
        }
        Column::Int64(data, bm)
    }

    /// Build a Float64 column from options (None = NULL).
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut bm = Bitmap::all_null(values.len());
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(x) => {
                    data.push(x);
                    bm.set(i, true);
                }
                None => data.push(0.0),
            }
        }
        Column::Float64(data, bm)
    }

    /// Build an empty column of the given type.
    pub fn empty(dt: DataType) -> Self {
        match dt {
            DataType::Int64 => Column::Int64(Vec::new(), Bitmap::all_valid(0)),
            DataType::Float64 => Column::Float64(Vec::new(), Bitmap::all_valid(0)),
            DataType::Utf8 => Column::Utf8(Vec::new(), Bitmap::all_valid(0)),
            DataType::Bool => Column::Bool(Vec::new(), Bitmap::all_valid(0)),
        }
    }

    /// Build a column of the given type from dynamic values.
    ///
    /// Integers widen to floats when the target type is `Float64`.
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Self> {
        let mut col = Column::empty(dt);
        for v in values {
            col.push_value(v)?;
        }
        Ok(col)
    }

    /// The column's data type. Dictionary-encoded strings report `Utf8` and
    /// encoded integers report `Int64`: the encoding is a physical detail,
    /// not a logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(..) | Column::Int64Encoded { .. } => DataType::Int64,
            Column::Float64(..) => DataType::Float64,
            Column::Utf8(..) | Column::DictUtf8 { .. } => DataType::Utf8,
            Column::Bool(..) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Utf8(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::DictUtf8 { codes, .. } => codes.len(),
            Column::Int64Encoded { data, .. } => data.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Int64(_, b)
            | Column::Float64(_, b)
            | Column::Utf8(_, b)
            | Column::Bool(_, b) => b,
            Column::DictUtf8 { validity, .. } | Column::Int64Encoded { validity, .. } => validity,
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        !self.validity().get(i)
    }

    /// Read row `i` as a dynamic value.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Column::Int64(v, _) => Value::Int(v[i]),
            Column::Float64(v, _) => Value::Float(v[i]),
            Column::Utf8(v, _) => Value::str(&v[i]),
            Column::Bool(v, _) => Value::Bool(v[i]),
            Column::DictUtf8 { dict, codes, .. } => Value::str(&dict[codes[i] as usize]),
            Column::Int64Encoded { data, .. } => Value::Int(data.get(i)),
        }
    }

    /// Append a dynamic value, checking types (ints widen to float columns).
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int64(data, bm), Value::Int(x)) => {
                data.push(*x);
                bm.push(true);
            }
            (Column::Float64(data, bm), Value::Float(x)) => {
                data.push(*x);
                bm.push(true);
            }
            (Column::Float64(data, bm), Value::Int(x)) => {
                data.push(*x as f64);
                bm.push(true);
            }
            (Column::Utf8(data, bm), Value::Str(s)) => {
                data.push(s.to_string());
                bm.push(true);
            }
            (Column::Bool(data, bm), Value::Bool(x)) => {
                data.push(*x);
                bm.push(true);
            }
            (
                Column::DictUtf8 {
                    dict,
                    codes,
                    validity,
                },
                Value::Str(s),
            ) => {
                codes.push(dict_intern(dict, s));
                validity.push(true);
            }
            (col, Value::Null) => match col {
                Column::Int64(data, bm) => {
                    data.push(0);
                    bm.push(false);
                }
                Column::Float64(data, bm) => {
                    data.push(0.0);
                    bm.push(false);
                }
                Column::Utf8(data, bm) => {
                    data.push(String::new());
                    bm.push(false);
                }
                Column::Bool(data, bm) => {
                    data.push(false);
                    bm.push(false);
                }
                Column::DictUtf8 {
                    codes, validity, ..
                } => {
                    codes.push(0);
                    validity.push(false);
                }
                Column::Int64Encoded { .. } => return Err(encoded_immutable()),
            },
            (Column::Int64Encoded { .. }, _) => return Err(encoded_immutable()),
            (col, v) => {
                return Err(StorageError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    found: v
                        .data_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "NULL".into()),
                })
            }
        }
        Ok(())
    }

    /// Append rows `[at, at + n)` of `src`, a plain column of this plain
    /// column's type: values by slice copy, validity a word at a time.
    /// Strings are moved out of `src` when this is its only owner (their
    /// slots are left empty), and cloned otherwise.
    pub(crate) fn append_range(&mut self, src: &mut Arc<Column>, at: usize, n: usize) {
        let rows = at..at + n;
        if let (Column::Utf8(out, bm), Some(Column::Utf8(values, from))) =
            (&mut *self, Arc::get_mut(src))
        {
            out.extend(values[rows].iter_mut().map(std::mem::take));
            return bm.append_range(from, at, n);
        }
        let bm = match (self, &**src) {
            (Column::Int64(out, bm), Column::Int64(v, _)) => {
                out.extend_from_slice(&v[rows]);
                bm
            }
            (Column::Float64(out, bm), Column::Float64(v, _)) => {
                out.extend_from_slice(&v[rows]);
                bm
            }
            (Column::Utf8(out, bm), Column::Utf8(v, _)) => {
                out.extend_from_slice(&v[rows]);
                bm
            }
            (Column::Bool(out, bm), Column::Bool(v, _)) => {
                out.extend_from_slice(&v[rows]);
                bm
            }
            _ => unreachable!("appends copy between plain columns of one type"),
        };
        bm.append_range(src.validity(), at, n);
    }

    /// Borrow the raw i64 data, failing on other types. Encoded integer
    /// columns fail too (the plain vector doesn't exist); call
    /// [`Column::decoded`] first when a flat view is required.
    pub fn i64_data(&self) -> Result<&[i64]> {
        match self {
            Column::Int64(v, _) => Ok(v),
            Column::Int64Encoded { .. } => Err(StorageError::TypeMismatch {
                expected: "INT64".into(),
                found: "ENC(INT64)".into(),
            }),
            other => Err(StorageError::TypeMismatch {
                expected: "INT64".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow the raw f64 data, failing on other types.
    pub fn f64_data(&self) -> Result<&[f64]> {
        match self {
            Column::Float64(v, _) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: "FLOAT64".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow the raw string data, failing on other types. Dictionary
    /// columns fail too (the per-row strings don't exist contiguously);
    /// call [`Column::decoded`] first when a flat view is required.
    pub fn utf8_data(&self) -> Result<&[String]> {
        match self {
            Column::Utf8(v, _) => Ok(v),
            Column::DictUtf8 { .. } => Err(StorageError::TypeMismatch {
                expected: "UTF8".into(),
                found: "DICT(UTF8)".into(),
            }),
            other => Err(StorageError::TypeMismatch {
                expected: "UTF8".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow the raw bool data, failing on other types.
    pub fn bool_data(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v, _) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: "BOOL".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// An all-NULL column of the given type and length.
    pub fn nulls(dt: DataType, n: usize) -> Self {
        let bm = Bitmap::all_null(n);
        match dt {
            DataType::Int64 => Column::Int64(vec![0; n], bm),
            DataType::Float64 => Column::Float64(vec![0.0; n], bm),
            DataType::Utf8 => Column::Utf8(vec![String::new(); n], bm),
            DataType::Bool => Column::Bool(vec![false; n], bm),
        }
    }

    /// Append row `i` of `src` to this column without a `Value` round-trip.
    /// Integers widen into float columns, mirroring [`Column::push_value`].
    pub fn push_from(&mut self, src: &Column, i: usize) -> Result<()> {
        if src.is_null(i) {
            match self {
                Column::Int64(d, b) => {
                    d.push(0);
                    b.push(false);
                }
                Column::Float64(d, b) => {
                    d.push(0.0);
                    b.push(false);
                }
                Column::Utf8(d, b) => {
                    d.push(String::new());
                    b.push(false);
                }
                Column::Bool(d, b) => {
                    d.push(false);
                    b.push(false);
                }
                Column::DictUtf8 {
                    codes, validity, ..
                } => {
                    codes.push(0);
                    validity.push(false);
                }
                Column::Int64Encoded { .. } => return Err(encoded_immutable()),
            }
            return Ok(());
        }
        match (&mut *self, src) {
            (Column::Int64(d, b), Column::Int64(s, _)) => {
                d.push(s[i]);
                b.push(true);
            }
            (Column::Float64(d, b), Column::Float64(s, _)) => {
                d.push(s[i]);
                b.push(true);
            }
            (Column::Float64(d, b), Column::Int64(s, _)) => {
                d.push(s[i] as f64);
                b.push(true);
            }
            (Column::Utf8(d, b), Column::Utf8(s, _)) => {
                d.push(s[i].clone());
                b.push(true);
            }
            (Column::Utf8(d, b), Column::DictUtf8 { dict, codes, .. }) => {
                d.push(dict[codes[i] as usize].clone());
                b.push(true);
            }
            (
                Column::DictUtf8 {
                    dict,
                    codes,
                    validity,
                },
                Column::DictUtf8 {
                    dict: sd,
                    codes: sc,
                    ..
                },
            ) => {
                if Arc::ptr_eq(dict, sd) {
                    codes.push(sc[i]);
                } else {
                    codes.push(dict_intern(dict, &sd[sc[i] as usize]));
                }
                validity.push(true);
            }
            (
                Column::DictUtf8 {
                    dict,
                    codes,
                    validity,
                },
                Column::Utf8(s, _),
            ) => {
                codes.push(dict_intern(dict, &s[i]));
                validity.push(true);
            }
            (Column::Bool(d, b), Column::Bool(s, _)) => {
                d.push(s[i]);
                b.push(true);
            }
            (Column::Int64(d, b), Column::Int64Encoded { data, .. }) => {
                d.push(data.get(i));
                b.push(true);
            }
            (Column::Float64(d, b), Column::Int64Encoded { data, .. }) => {
                d.push(data.get(i) as f64);
                b.push(true);
            }
            (dst, src) => {
                return Err(StorageError::TypeMismatch {
                    expected: dst.data_type().to_string(),
                    found: src.data_type().to_string(),
                })
            }
        }
        Ok(())
    }

    /// Gather rows at `indices` (as `u32`) — the selection-vector output path.
    /// One pass per column; no `Value` boxing.
    pub fn gather(&self, indices: &[u32]) -> Column {
        match self {
            Column::Int64(v, bm) => {
                let (data, out_bm) = gather_copy(v, bm, indices);
                Column::Int64(data, out_bm)
            }
            Column::Float64(v, bm) => {
                let (data, out_bm) = gather_copy(v, bm, indices);
                Column::Float64(data, out_bm)
            }
            Column::Utf8(v, bm) => {
                let (data, out_bm) = gather_clone(v, bm, indices);
                Column::Utf8(data, out_bm)
            }
            Column::Bool(v, bm) => {
                let (data, out_bm) = gather_copy(v, bm, indices);
                Column::Bool(data, out_bm)
            }
            // Dictionary columns gather in code space: the dictionary is
            // shared untouched, only the u32 codes move.
            Column::DictUtf8 {
                dict,
                codes,
                validity,
            } => {
                let (out_codes, out_bm) = gather_copy(codes, validity, indices);
                Column::DictUtf8 {
                    dict: dict.clone(),
                    codes: out_codes,
                    validity: out_bm,
                }
            }
            // Encoded integers decode on gather: outputs are materializations
            // and re-encoding a scattered subset rarely pays.
            Column::Int64Encoded { data, validity } => {
                take_encoded(data, validity, indices.iter().map(|&i| i as usize))
            }
        }
    }

    /// Mix this column's values into per-row hash lanes, visiting only the
    /// rows in `sel` (or every row when `sel` is `None`). Hashing mirrors
    /// [`crate::types::Value`]'s `Hash`/`PartialEq` exactly: integers hash as
    /// their `f64` bit pattern so `Int(2)` and `Float(2.0)` collide, floats
    /// hash bitwise, NULL hashes as a fixed tag. `hashes` is indexed by base
    /// row: `hashes[i]` must be valid for every visited `i`.
    pub fn hash_combine(&self, sel: Option<&[u32]>, hashes: &mut [u64]) {
        macro_rules! lanes {
            ($f:expr) => {
                match sel {
                    Some(s) => {
                        for &i in s {
                            let i = i as usize;
                            hashes[i] = mix64(hashes[i] ^ $f(i));
                        }
                    }
                    None => {
                        for (i, h) in hashes.iter_mut().enumerate() {
                            *h = mix64(*h ^ $f(i));
                        }
                    }
                }
            };
        }
        match self {
            Column::Int64(v, bm) => {
                lanes!(|i: usize| if bm.get(i) {
                    (v[i] as f64).to_bits()
                } else {
                    NULL_TAG
                });
            }
            Column::Float64(v, bm) => {
                lanes!(|i: usize| if bm.get(i) { v[i].to_bits() } else { NULL_TAG });
            }
            Column::Utf8(v, bm) => {
                lanes!(|i: usize| if bm.get(i) {
                    fnv1a(v[i].as_bytes())
                } else {
                    NULL_TAG
                });
            }
            Column::Bool(v, bm) => {
                lanes!(|i: usize| if bm.get(i) { v[i] as u64 + 1 } else { NULL_TAG });
            }
            // Hash each distinct entry once, then look lanes up by code.
            // Using the same FNV-1a over the entry bytes keeps dictionary
            // columns hash-compatible with plain Utf8, so mixed-encoding
            // group-bys and joins still collide correctly.
            Column::DictUtf8 {
                dict,
                codes,
                validity,
            } => {
                let entry_hashes: Vec<u64> = dict.iter().map(|s| fnv1a(s.as_bytes())).collect();
                lanes!(|i: usize| if validity.get(i) {
                    entry_hashes[codes[i] as usize]
                } else {
                    NULL_TAG
                });
            }
            // Hashing mirrors Int64 ((v as f64).to_bits()), so mixed-encoding
            // group-bys and joins still collide correctly. Frame-of-reference
            // lanes are read as a slice, once per lane width; full all-valid
            // RLE sweeps hash each run's value once and fill the span.
            Column::Int64Encoded {
                data: EncodedInts::For(f),
                validity,
            } => with_lanes!(&f.lanes, s => lanes!(|i: usize| if validity.get(i) {
                (f.reference.wrapping_add(s[i] as i64) as f64).to_bits()
            } else {
                NULL_TAG
            })),
            Column::Int64Encoded { data, validity } => match data.runs() {
                Some(runs) if sel.is_none() && validity.all_set() => {
                    let mut pos = 0usize;
                    for &(v, n) in runs {
                        let hv = (v as f64).to_bits();
                        for h in &mut hashes[pos..pos + n as usize] {
                            *h = mix64(*h ^ hv);
                        }
                        pos += n as usize;
                    }
                }
                _ => {
                    lanes!(|i: usize| if validity.get(i) {
                        (data.get(i) as f64).to_bits()
                    } else {
                        NULL_TAG
                    });
                }
            },
        }
    }

    /// Typed row equality with NULL == NULL (hash/group key semantics,
    /// mirroring `Value`'s structural `PartialEq`: cross-type numerics
    /// compare by `f64` bit pattern, floats bitwise).
    pub fn eq_rows_null_eq(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (self, other) {
            (Column::Int64(a, _), Column::Int64(b, _)) => a[i] == b[j],
            (Column::Float64(a, _), Column::Float64(b, _)) => a[i].to_bits() == b[j].to_bits(),
            (Column::Int64(a, _), Column::Float64(b, _)) => {
                (a[i] as f64).to_bits() == b[j].to_bits()
            }
            (Column::Float64(a, _), Column::Int64(b, _)) => {
                a[i].to_bits() == (b[j] as f64).to_bits()
            }
            (Column::Utf8(a, _), Column::Utf8(b, _)) => a[i] == b[j],
            (Column::Bool(a, _), Column::Bool(b, _)) => a[i] == b[j],
            (
                Column::DictUtf8 {
                    dict: da,
                    codes: ca,
                    ..
                },
                Column::DictUtf8 {
                    dict: db,
                    codes: cb,
                    ..
                },
            ) => {
                // Shared dictionary: equal codes iff equal strings.
                if Arc::ptr_eq(da, db) {
                    ca[i] == cb[j]
                } else {
                    da[ca[i] as usize] == db[cb[j] as usize]
                }
            }
            (Column::DictUtf8 { dict, codes, .. }, Column::Utf8(b, _)) => {
                dict[codes[i] as usize] == b[j]
            }
            (Column::Utf8(a, _), Column::DictUtf8 { dict, codes, .. }) => {
                a[i] == dict[codes[j] as usize]
            }
            (Column::Int64Encoded { data, .. }, Column::Int64(b, _)) => data.get(i) == b[j],
            (Column::Int64(a, _), Column::Int64Encoded { data, .. }) => a[i] == data.get(j),
            (Column::Int64Encoded { data: a, .. }, Column::Int64Encoded { data: b, .. }) => {
                a.get(i) == b.get(j)
            }
            (Column::Int64Encoded { data, .. }, Column::Float64(b, _)) => {
                (data.get(i) as f64).to_bits() == b[j].to_bits()
            }
            (Column::Float64(a, _), Column::Int64Encoded { data, .. }) => {
                a[i].to_bits() == (data.get(j) as f64).to_bits()
            }
            _ => false,
        }
    }

    /// A contiguous slice `[offset, offset+len)` of this column.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        // Encoded integers slice in their encoded form — a morsel boundary
        // must not decode a column the kernels consume directly.
        if let Column::Int64Encoded { data, validity } = self {
            let mut vbm = Bitmap::all_null(len);
            for i in 0..len {
                if validity.get(offset + i) {
                    vbm.set(i, true);
                }
            }
            return Column::encoded_from_parts(data.slice(offset, len), vbm);
        }
        let indices: Vec<u32> = (offset as u32..(offset + len) as u32).collect();
        self.gather(&indices)
    }

    /// Concatenate columns of the same type.
    ///
    /// Utf8 parts may mix physical encodings: all-dictionary inputs merge
    /// into one dictionary (a shared `Arc` passes through untouched, else
    /// codes are remapped), while a dict/plain mix decodes to flat strings —
    /// operators on hot paths should count that fallback before calling.
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        let Some(first) = parts.first() else {
            return Err(StorageError::SchemaMismatch(
                "concat of zero columns".into(),
            ));
        };
        let dt = first.data_type();
        for part in parts {
            if part.data_type() != dt {
                return Err(StorageError::TypeMismatch {
                    expected: dt.to_string(),
                    found: part.data_type().to_string(),
                });
            }
        }
        if dt == DataType::Utf8 {
            return concat_utf8(parts);
        }
        // One copy per part: values by `extend_from_slice`, validity a word
        // at a time.
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let validity = Bitmap::concat(parts.iter().map(|c| c.validity()));
        Ok(match dt {
            DataType::Int64 => {
                let mut data = Vec::with_capacity(total);
                for part in parts {
                    match part {
                        Column::Int64(s, _) => data.extend_from_slice(s),
                        // Mixed plain/encoded integers decode into the output.
                        Column::Int64Encoded { data: enc, .. } => {
                            data.extend_from_slice(&enc.decode())
                        }
                        _ => unreachable!("type checked above"),
                    }
                }
                Column::Int64(data, validity)
            }
            DataType::Float64 => Column::Float64(concat_slices(parts, |c| c.f64_data()), validity),
            DataType::Bool => Column::Bool(concat_slices(parts, |c| c.bool_data()), validity),
            DataType::Utf8 => unreachable!("handled above"),
        })
    }

    /// Approximate in-memory size in bytes (for scale accounting in benches).
    pub fn byte_size(&self) -> usize {
        let bm = self.validity().words.len() * 8;
        bm + match self {
            Column::Int64(v, _) => v.len() * 8,
            Column::Float64(v, _) => v.len() * 8,
            Column::Utf8(v, _) => v.iter().map(|s| s.len() + 24).sum(),
            Column::Bool(v, _) => v.len(),
            Column::DictUtf8 { dict, codes, .. } => {
                codes.len() * 4 + dict.iter().map(|s| s.len() + 24).sum::<usize>()
            }
            Column::Int64Encoded { data, .. } => data.byte_size(),
        }
    }

    /// Whether this column is dictionary-encoded.
    pub fn is_dict(&self) -> bool {
        matches!(self, Column::DictUtf8 { .. })
    }

    /// Whether this column holds encoded integers.
    pub fn is_encoded(&self) -> bool {
        matches!(self, Column::Int64Encoded { .. })
    }

    /// Borrow the encoded-integer parts, or `None` for other
    /// representations.
    pub fn encoded_parts(&self) -> Option<EncodedParts<'_>> {
        match self {
            Column::Int64Encoded { data, validity } => Some((data, validity)),
            _ => None,
        }
    }

    /// Build an encoded integer column from pre-computed parts (checkpoint
    /// replay, tests). `data.len()` must equal `validity.len()`.
    pub fn encoded_from_parts(data: EncodedInts, validity: Bitmap) -> Column {
        debug_assert_eq!(data.len(), validity.len());
        Column::Int64Encoded { data, validity }
    }

    /// Encode a plain Int64 column ([`EncodedInts::encode`] picks RLE or
    /// frame-of-reference lanes). Returns `None` for non-Int64 or
    /// already-encoded columns. NULL placeholders are normalized to the
    /// minimum valid value first, so a NULL never widens the frame of
    /// reference (and hence the lane width).
    pub fn int64_encode(&self) -> Option<Column> {
        let Column::Int64(values, bm) = self else {
            return None;
        };
        let parts = [(values.as_slice(), bm)];
        let values = null_filled(&parts);
        Some(Column::Int64Encoded {
            data: EncodedInts::build(&IntShape::of(values.clone()), values),
            validity: bm.clone(),
        })
    }

    /// Borrow the dictionary parts, or `None` for other representations.
    pub fn dict_parts(&self) -> Option<DictParts<'_>> {
        match self {
            Column::DictUtf8 {
                dict,
                codes,
                validity,
            } => Some((dict, codes, validity)),
            _ => None,
        }
    }

    /// Build a dictionary column from pre-computed parts (checkpoint replay,
    /// tests). Every valid row's code must index into `dict`.
    pub fn dict_from_parts(dict: Arc<Vec<String>>, codes: Vec<u32>, validity: Bitmap) -> Column {
        debug_assert_eq!(codes.len(), validity.len());
        debug_assert!(codes
            .iter()
            .enumerate()
            .all(|(i, &c)| !validity.get(i) || (c as usize) < dict.len()));
        Column::DictUtf8 {
            dict,
            codes,
            validity,
        }
    }

    /// Dictionary-encode a plain Utf8 column (first-occurrence entry order).
    /// Returns `None` for non-Utf8 or already-encoded columns.
    pub fn dict_encode(&self) -> Option<Column> {
        let Column::Utf8(values, bm) = self else {
            return None;
        };
        let mut dict: Vec<String> = Vec::new();
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for (i, s) in values.iter().enumerate() {
            if !bm.get(i) {
                codes.push(0);
                continue;
            }
            let code = *index.entry(s.as_str()).or_insert_with(|| {
                dict.push(s.clone());
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        Some(Column::DictUtf8 {
            dict: Arc::new(dict),
            codes,
            validity: bm.clone(),
        })
    }

    /// Number of distinct non-null values in a Utf8 column (the encoding
    /// decision input). Dictionary columns answer from their entry count.
    pub fn utf8_distinct(&self) -> Option<usize> {
        match self {
            Column::Utf8(values, bm) => {
                let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
                for (i, s) in values.iter().enumerate() {
                    if bm.get(i) {
                        seen.insert(s.as_str());
                    }
                }
                Some(seen.len())
            }
            Column::DictUtf8 { dict, .. } => Some(dict.len()),
            _ => None,
        }
    }

    /// Decode a dictionary column to flat strings or an encoded integer
    /// column to a plain vector; other representations return `None` (they
    /// are already in their canonical form).
    pub fn decoded(&self) -> Option<Column> {
        match self {
            Column::DictUtf8 {
                dict,
                codes,
                validity,
            } => {
                let data = codes
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        if validity.get(i) {
                            dict[c as usize].clone()
                        } else {
                            String::new()
                        }
                    })
                    .collect();
                Some(Column::Utf8(data, validity.clone()))
            }
            Column::Int64Encoded { data, validity } => {
                Some(Column::Int64(data.decode(), validity.clone()))
            }
            _ => None,
        }
    }
}

/// The rows at `indices` of an encoded integer column, decoded into a plain
/// one. Lanes are read as a slice, once per lane width; bulk takes from an
/// RLE column decode the runs once and index the flat vector — O(n + k)
/// beats k binary searches.
fn take_encoded(
    data: &EncodedInts,
    validity: &Bitmap,
    indices: impl ExactSizeIterator<Item = usize> + Clone,
) -> Column {
    let n = indices.len();
    let values: Vec<i64> = match data {
        EncodedInts::For(f) => with_lanes!(&f.lanes, s => indices
            .clone()
            .map(|i| f.reference.wrapping_add(s[i] as i64))
            .collect()),
        EncodedInts::Rle { rle, .. } if n >= rle.runs.len() => {
            let flat = data.decode();
            indices.clone().map(|i| flat[i]).collect()
        }
        EncodedInts::Rle { .. } => indices.clone().map(|i| data.get(i)).collect(),
    };
    let out_bm = if validity.all_set() {
        Bitmap::all_valid(n)
    } else {
        let mut bm = Bitmap::all_null(n);
        for (k, i) in indices.enumerate() {
            if validity.get(i) {
                bm.set(k, true);
            }
        }
        bm
    };
    Column::Int64(values, out_bm)
}

/// The values of integer `parts` end to end, each NULL slot read as the
/// smallest valid value (0 when none is valid), so a NULL never widens the
/// frame of reference (and hence the lane width) of an encoding.
pub(crate) fn null_filled<'a>(
    parts: &'a [(&'a [i64], &'a Bitmap)],
) -> impl Iterator<Item = i64> + Clone + 'a {
    let fill = if parts.iter().all(|(_, bm)| bm.all_set()) {
        0
    } else {
        parts
            .iter()
            .flat_map(|&(v, bm)| bm.iter_ones().map(move |i| v[i]))
            .min()
            .unwrap_or(0)
    };
    parts.iter().flat_map(move |&(v, bm)| {
        let all = bm.all_set();
        v.iter()
            .enumerate()
            .map(move |(i, &x)| if all || bm.get(i) { x } else { fill })
    })
}

/// The error every append path raises for sealed encoded-integer columns.
fn encoded_immutable() -> StorageError {
    StorageError::TypeMismatch {
        expected: "appendable INT64".into(),
        found: "ENC(INT64)".into(),
    }
}

/// Code for `s` in `dict`, appending a new entry when absent. Linear probe:
/// only cold row-at-a-time paths (`push_value`, cross-dictionary
/// `push_from`) intern; batch kernels never do.
fn dict_intern(dict: &mut Arc<Vec<String>>, s: &str) -> u32 {
    if let Some(code) = dict.iter().position(|e| e == s) {
        return code as u32;
    }
    let entries = Arc::make_mut(dict);
    entries.push(s.to_string());
    (entries.len() - 1) as u32
}

/// [`Column::concat`] for logical-Utf8 parts that may mix encodings.
fn concat_utf8(parts: &[&Column]) -> Result<Column> {
    let total: usize = parts.iter().map(|c| c.len()).sum();
    let validity = Bitmap::concat(parts.iter().map(|c| c.validity()));
    if parts.iter().all(|c| c.is_dict()) {
        let Some((first_dict, ..)) = parts[0].dict_parts() else {
            unreachable!("all parts are dict");
        };
        let shared = parts
            .iter()
            .all(|c| matches!(c.dict_parts(), Some((d, ..)) if Arc::ptr_eq(d, first_dict)));
        let mut codes = Vec::with_capacity(total);
        if shared {
            for part in parts {
                let Some((_, pc, _)) = part.dict_parts() else {
                    unreachable!("all parts are dict");
                };
                codes.extend_from_slice(pc);
            }
            return Ok(Column::DictUtf8 {
                dict: first_dict.clone(),
                codes,
                validity,
            });
        }
        // Different dictionaries: merge entries and remap codes per part.
        let mut merged: Vec<String> = Vec::new();
        let mut index: HashMap<String, u32> = HashMap::new();
        for part in parts {
            let Some((dict, pc, pv)) = part.dict_parts() else {
                unreachable!("all parts are dict");
            };
            let remap: Vec<u32> = dict
                .iter()
                .map(|s| {
                    *index.entry(s.clone()).or_insert_with(|| {
                        merged.push(s.clone());
                        (merged.len() - 1) as u32
                    })
                })
                .collect();
            codes.extend(
                pc.iter()
                    .enumerate()
                    .map(|(i, &c)| if pv.get(i) { remap[c as usize] } else { 0 }),
            );
        }
        return Ok(Column::DictUtf8 {
            dict: Arc::new(merged),
            codes,
            validity,
        });
    }
    // Mixed encodings or all plain: emit flat strings.
    let mut data = Vec::with_capacity(total);
    for part in parts {
        match part {
            Column::Utf8(s, _) => data.extend_from_slice(s),
            Column::DictUtf8 {
                dict,
                codes,
                validity,
            } => data.extend(codes.iter().enumerate().map(|(i, &c)| {
                if validity.get(i) {
                    dict[c as usize].clone()
                } else {
                    String::new()
                }
            })),
            _ => unreachable!("type checked by concat"),
        }
    }
    Ok(Column::Utf8(data, validity))
}

/// The typed slices of `parts` end to end; `data` borrows one part's values.
fn concat_slices<T: Copy>(parts: &[&Column], data: impl Fn(&Column) -> Result<&[T]>) -> Vec<T> {
    let mut out = Vec::with_capacity(parts.iter().map(|c| c.len()).sum());
    for part in parts {
        out.extend_from_slice(data(part).expect("type checked by concat"));
    }
    out
}

/// The lane value [`Column::hash_combine`] mixes in for a NULL key, so
/// code-space group-bys can reproduce its hashes without a column.
pub const NULL_TAG: u64 = 0x9e37_79b9_7f4a_7c15;

/// Finalizer from splitmix64: full-avalanche 64-bit mixer, so combining
/// per-column hashes by XOR-then-mix keeps multi-key distributions flat.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over raw bytes, for string key lanes.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn gather_copy<T: Copy + Default>(data: &[T], bm: &Bitmap, indices: &[u32]) -> (Vec<T>, Bitmap) {
    let mut out = Vec::with_capacity(indices.len());
    if bm.all_set() {
        for &i in indices {
            out.push(data[i as usize]);
        }
        return (out, Bitmap::all_valid(indices.len()));
    }
    let mut out_bm = Bitmap::all_null(indices.len());
    for (k, &i) in indices.iter().enumerate() {
        let i = i as usize;
        if bm.get(i) {
            out.push(data[i]);
            out_bm.set(k, true);
        } else {
            out.push(T::default());
        }
    }
    (out, out_bm)
}

fn gather_clone(data: &[String], bm: &Bitmap, indices: &[u32]) -> (Vec<String>, Bitmap) {
    let mut out = Vec::with_capacity(indices.len());
    if bm.all_set() {
        for &i in indices {
            out.push(data[i as usize].clone());
        }
        return (out, Bitmap::all_valid(indices.len()));
    }
    let mut out_bm = Bitmap::all_null(indices.len());
    for (k, &i) in indices.iter().enumerate() {
        let i = i as usize;
        if bm.get(i) {
            out.push(data[i].clone());
            out_bm.set(k, true);
        } else {
            out.push(String::new());
        }
    }
    (out, out_bm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_roundtrip() {
        let mut bm = Bitmap::all_null(130);
        assert_eq!(bm.count_valid(), 0);
        bm.set(0, true);
        bm.set(64, true);
        bm.set(129, true);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(128));
        assert_eq!(bm.count_valid(), 3);
        bm.set(64, false);
        assert_eq!(bm.count_valid(), 2);
    }

    #[test]
    fn bitmap_all_valid_tail_word() {
        let bm = Bitmap::all_valid(70);
        assert_eq!(bm.count_valid(), 70);
        assert!(bm.get(69));
        assert!(bm.all_set());
    }

    #[test]
    fn bitmap_push() {
        let mut bm = Bitmap::all_valid(0);
        for i in 0..100 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_valid(), 34);
        assert!(bm.get(0) && bm.get(99));
        assert!(!bm.get(1));
    }

    #[test]
    fn bitmap_concat_matches_pushes() {
        // Parts of every length around a word edge, at every starting
        // offset: the words, length and count equal bit-by-bit pushes.
        let bits = |n: usize, seed: usize| (0..n).map(move |i| !(i * 7 + seed).is_multiple_of(3));
        for lens in [
            [0, 1, 63],
            [1, 64, 2],
            [63, 65, 130],
            [64, 64, 1],
            [5, 0, 70],
        ] {
            let parts: Vec<Bitmap> = lens
                .iter()
                .enumerate()
                .map(|(k, &n)| Bitmap::from_bools(&bits(n, k).collect::<Vec<_>>()))
                .collect();
            let mut pushed = Bitmap::all_valid(0);
            for (k, &n) in lens.iter().enumerate() {
                bits(n, k).for_each(|b| pushed.push(b));
            }
            assert_eq!(Bitmap::concat(&parts), pushed, "lengths {lens:?}");
        }
    }

    #[test]
    fn column_push_and_read() {
        let mut c = Column::empty(DataType::Int64);
        c.push_value(&Value::Int(5)).unwrap();
        c.push_value(&Value::Null).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(0), Value::Int(5));
        assert_eq!(c.value(1), Value::Null);
        assert!(c.is_null(1));
    }

    #[test]
    fn column_type_mismatch() {
        let mut c = Column::empty(DataType::Int64);
        let err = c.push_value(&Value::str("x")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut c = Column::empty(DataType::Float64);
        c.push_value(&Value::Int(3)).unwrap();
        assert_eq!(c.value(0), Value::Float(3.0));
    }

    #[test]
    fn take_preserves_nulls() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3), None]);
        let t = c.gather(&[3, 0, 1]);
        assert_eq!(t.value(0), Value::Null);
        assert_eq!(t.value(1), Value::Int(1));
        assert_eq!(t.value(2), Value::Null);
    }

    #[test]
    fn slice_column() {
        let c = Column::from_strings(vec!["a".into(), "b".into(), "c".into(), "d".into()]);
        let s = c.slice(1, 2);
        assert_eq!(s.utf8_data().unwrap(), &["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn slice_encoded_column_stays_encoded() {
        let vals: Vec<Option<i64>> = (0..200)
            .map(|i| if i % 7 == 0 { None } else { Some(i / 32) })
            .collect();
        let plain = Column::from_opt_i64(vals);
        let enc = plain.int64_encode().expect("int64 columns encode");
        let s = enc.slice(40, 101);
        assert!(matches!(s, Column::Int64Encoded { .. }));
        assert_eq!(s.len(), 101);
        for i in 0..101 {
            assert_eq!(s.value(i), plain.value(40 + i), "row {i}");
        }
    }

    #[test]
    fn concat_columns() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_opt_i64(vec![None, Some(4)]);
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.value(2), Value::Null);
        assert_eq!(c.value(3), Value::Int(4));
    }

    #[test]
    fn concat_type_mismatch_errors() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_bools(vec![true]);
        assert!(Column::concat(&[&a, &b]).is_err());
    }

    #[test]
    fn byte_size_positive() {
        let c = Column::from_strings(vec!["hello".into()]);
        assert!(c.byte_size() > 5);
    }

    fn opt_strings(vals: &[Option<&str>]) -> Column {
        let mut c = Column::empty(DataType::Utf8);
        for v in vals {
            let v = v.map(Value::str).unwrap_or(Value::Null);
            c.push_value(&v).unwrap();
        }
        c
    }

    #[test]
    fn dict_encode_roundtrip() {
        let plain = opt_strings(&[Some("a"), Some("b"), None, Some("a"), Some("a")]);
        let dict = plain.dict_encode().unwrap();
        assert!(dict.is_dict());
        assert_eq!(dict.data_type(), DataType::Utf8);
        assert_eq!(dict.utf8_distinct(), Some(2));
        for i in 0..plain.len() {
            assert_eq!(dict.value(i), plain.value(i));
        }
        assert_eq!(dict.decoded().unwrap(), plain);
    }

    #[test]
    fn dict_gather_take_share_dictionary() {
        let dict = Column::from_strings(vec!["x".into(), "y".into(), "x".into(), "z".into()])
            .dict_encode()
            .unwrap();
        let (d0, ..) = dict.dict_parts().unwrap();
        let d0 = d0.clone();
        let g = dict.gather(&[3, 0]);
        let (d1, codes, _) = g.dict_parts().unwrap();
        assert!(Arc::ptr_eq(&d0, d1));
        assert_eq!(codes, &[2, 0]);
        let t = dict.slice(1, 1);
        assert!(Arc::ptr_eq(&d0, t.dict_parts().unwrap().0));
        assert_eq!(t.value(0), Value::str("y"));
    }

    #[test]
    fn dict_hashes_match_plain() {
        let plain = opt_strings(&[Some("a"), Some("bb"), None, Some("a")]);
        let dict = plain.dict_encode().unwrap();
        let mut h_plain = vec![7u64; 4];
        let mut h_dict = vec![7u64; 4];
        plain.hash_combine(None, &mut h_plain);
        dict.hash_combine(None, &mut h_dict);
        assert_eq!(h_plain, h_dict);
        let sel = [1u32, 3];
        let mut s_plain = vec![0u64; 4];
        let mut s_dict = vec![0u64; 4];
        plain.hash_combine(Some(&sel), &mut s_plain);
        dict.hash_combine(Some(&sel), &mut s_dict);
        assert_eq!(s_plain, s_dict);
    }

    #[test]
    fn dict_eq_rows_cross_encoding() {
        let plain = opt_strings(&[Some("a"), Some("b"), None]);
        let dict = plain.dict_encode().unwrap();
        let other = opt_strings(&[Some("b"), None]).dict_encode().unwrap();
        for i in 0..3 {
            assert!(dict.eq_rows_null_eq(i, &plain, i));
            assert!(plain.eq_rows_null_eq(i, &dict, i));
        }
        assert!(dict.eq_rows_null_eq(1, &other, 0));
        assert!(dict.eq_rows_null_eq(2, &other, 1));
        assert!(!dict.eq_rows_null_eq(0, &other, 0));
    }

    #[test]
    fn concat_all_dict_shared_stays_dict() {
        let base = Column::from_strings(vec!["a".into(), "b".into()])
            .dict_encode()
            .unwrap();
        let left = base.gather(&[0, 1]);
        let right = base.gather(&[1]);
        let out = Column::concat(&[&left, &right]).unwrap();
        let (d, codes, _) = out.dict_parts().unwrap();
        assert!(Arc::ptr_eq(d, base.dict_parts().unwrap().0));
        assert_eq!(codes, &[0, 1, 1]);
    }

    #[test]
    fn concat_dict_merges_dictionaries() {
        let a = opt_strings(&[Some("x"), None]).dict_encode().unwrap();
        let b = opt_strings(&[Some("y"), Some("x")]).dict_encode().unwrap();
        let out = Column::concat(&[&a, &b]).unwrap();
        let (d, codes, bm) = out.dict_parts().unwrap();
        assert_eq!(d.as_slice(), &["x".to_string(), "y".to_string()]);
        assert_eq!(codes, &[0, 0, 1, 0]);
        assert!(!bm.get(1));
        assert_eq!(out.value(3), Value::str("x"));
    }

    #[test]
    fn concat_mixed_encoding_decodes() {
        let dict = opt_strings(&[Some("a"), None]).dict_encode().unwrap();
        let plain = opt_strings(&[Some("b")]);
        let out = Column::concat(&[&dict, &plain]).unwrap();
        assert!(!out.is_dict());
        assert_eq!(out.value(0), Value::str("a"));
        assert_eq!(out.value(1), Value::Null);
        assert_eq!(out.value(2), Value::str("b"));
    }

    fn opt_ints(vals: &[Option<i64>]) -> Column {
        Column::from_opt_i64(vals.to_vec())
    }

    #[test]
    fn int64_encode_roundtrip() {
        let plain = opt_ints(&[Some(5), Some(5), None, Some(7), Some(5)]);
        let enc = plain.int64_encode().unwrap();
        assert!(enc.is_encoded());
        assert_eq!(enc.data_type(), DataType::Int64);
        assert_eq!(enc.len(), 5);
        for i in 0..plain.len() {
            assert_eq!(enc.value(i), plain.value(i), "row {i}");
        }
        let back = enc.decoded().unwrap();
        for i in 0..plain.len() {
            assert_eq!(back.value(i), plain.value(i), "decoded row {i}");
        }
    }

    #[test]
    fn null_placeholder_leaves_lane_width_unchanged() {
        let near: Vec<Option<i64>> = (0..200).map(|i| Some(1_000_000_000 + i % 200)).collect();
        let mut with_null = near.clone();
        with_null[17] = None;
        let width = |vals: Vec<Option<i64>>| {
            let enc = Column::from_opt_i64(vals).int64_encode().unwrap();
            let (data, _) = enc.encoded_parts().unwrap();
            data.lanes()
                .expect("a 200-value range seals as lanes")
                .lane_bytes()
        };
        assert_eq!(width(near), 1);
        assert_eq!(width(with_null.clone()), 1);
        let enc = Column::from_opt_i64(with_null.clone())
            .int64_encode()
            .unwrap();
        for (i, v) in with_null.iter().enumerate() {
            assert_eq!(enc.value(i), v.map_or(Value::Null, Value::Int), "row {i}");
        }
    }

    #[test]
    fn encoded_hashes_match_plain() {
        let plain = opt_ints(&[Some(1), Some(1), None, Some(900), Some(-3)]);
        let enc = plain.int64_encode().unwrap();
        let mut h_plain = vec![7u64; 5];
        let mut h_enc = vec![7u64; 5];
        plain.hash_combine(None, &mut h_plain);
        enc.hash_combine(None, &mut h_enc);
        assert_eq!(h_plain, h_enc);
        let sel = [1u32, 3];
        let mut s_plain = vec![0u64; 5];
        let mut s_enc = vec![0u64; 5];
        plain.hash_combine(Some(&sel), &mut s_plain);
        enc.hash_combine(Some(&sel), &mut s_enc);
        assert_eq!(s_plain, s_enc);
    }

    #[test]
    fn encoded_eq_rows_cross_encoding() {
        let plain = opt_ints(&[Some(2), Some(9), None]);
        let enc = plain.int64_encode().unwrap();
        let floats = Column::from_opt_f64(vec![Some(2.0), Some(9.0), None]);
        for i in 0..3 {
            assert!(enc.eq_rows_null_eq(i, &plain, i));
            assert!(plain.eq_rows_null_eq(i, &enc, i));
            assert!(enc.eq_rows_null_eq(i, &enc, i));
            assert!(enc.eq_rows_null_eq(i, &floats, i));
            assert!(floats.eq_rows_null_eq(i, &enc, i));
        }
        assert!(!enc.eq_rows_null_eq(0, &plain, 1));
    }

    #[test]
    fn encoded_gather_take_concat_decode() {
        let plain = opt_ints(&[Some(10), None, Some(30), Some(30)]);
        let enc = plain.int64_encode().unwrap();
        let g = enc.gather(&[3, 1, 0]);
        assert!(!g.is_encoded());
        assert_eq!(g.value(0), Value::Int(30));
        assert_eq!(g.value(1), Value::Null);
        let out = Column::concat(&[&enc, &plain]).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(out.value(2), Value::Int(30));
        assert_eq!(out.value(5), Value::Null);
    }

    #[test]
    fn encoded_rejects_appends() {
        let mut enc = opt_ints(&[Some(1), Some(2)]).int64_encode().unwrap();
        assert!(enc.push_value(&Value::Int(3)).is_err());
        assert!(enc.push_value(&Value::Null).is_err());
        let src = opt_ints(&[Some(4), None]);
        assert!(enc.push_from(&src, 0).is_err());
        assert!(enc.push_from(&src, 1).is_err());
        assert!(enc.i64_data().is_err());
    }

    #[test]
    fn dict_push_from_and_push_value() {
        let src = opt_strings(&[Some("a"), Some("b"), None])
            .dict_encode()
            .unwrap();
        // Utf8 destination decodes per row.
        let mut flat = Column::empty(DataType::Utf8);
        for i in 0..3 {
            flat.push_from(&src, i).unwrap();
        }
        assert_eq!(flat, src.decoded().unwrap());
        // Dict destination with a foreign dictionary interns.
        let mut d = opt_strings(&[Some("b")]).dict_encode().unwrap();
        for i in 0..3 {
            d.push_from(&src, i).unwrap();
        }
        d.push_value(&Value::str("c")).unwrap();
        d.push_value(&Value::Null).unwrap();
        assert_eq!(d.value(1), Value::str("a"));
        assert_eq!(d.value(2), Value::str("b"));
        assert_eq!(d.value(3), Value::Null);
        assert_eq!(d.value(4), Value::str("c"));
        assert!(d.is_null(5));
        assert_eq!(d.utf8_distinct(), Some(3));
    }
}
