//! The storage layer's one byte codec.
//!
//! Everything the engine turns into bytes goes through this module: CRC-32
//! checksums, length-prefixed primitives, tagged scalar [`Value`]s (WAL
//! insert records and zone-map bounds), schemas, and the column-chunk batch
//! format of [`put_batch`]/[`read_batch`], which checkpoint row groups and
//! tails, operator spill frames and result-cache entries all share.
//! Decoding never panics, and no decoder allocates for a count the bytes
//! left cannot hold ([`Cursor::count`]): every malformed input surfaces as
//! [`StorageError::Corrupt`].

use crate::batch::RecordBatch;
use crate::column::{Bitmap, Column};
use crate::compress::{BitPackedI64, EncodedInts, ForLanes, RleI64};
use crate::error::{Result, StorageError};
use crate::schema::{Field, Schema};
use crate::types::{DataType, Value};
use std::sync::Arc;

/// CRC-32 (IEEE 802.3) lookup table, computed at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Streaming CRC-32 (IEEE): feed chunks with [`Crc32::update`], read the
/// digest with [`Crc32::finish`]. Equal to [`crc32`] over the concatenated
/// chunks — this is what lets the paged checkpoint reader validate a file
/// it never holds in memory all at once.
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb the next chunk.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = CRC_TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// The CRC of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Append a `u32` in little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over encoded bytes.
///
/// Every accessor returns [`StorageError::Corrupt`] instead of panicking
/// when the buffer is shorter than the encoding claims.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed every byte.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// `n`, a count read from the input, as a `usize` — or `Corrupt` unless
    /// the bytes left can hold `n` items of at least `min_size` bytes each.
    /// Decoders check a count with this before allocating for it, so a
    /// forged count cannot ask for more memory than the input's size backs.
    pub fn count(&self, n: u64, min_size: usize) -> Result<usize> {
        usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(min_size)
                    .is_some_and(|b| b <= self.remaining())
            })
            .ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "count {n} of {min_size}-byte items exceeds the {} bytes left",
                    self.remaining()
                ))
            })
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Corrupt(format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StorageError::Corrupt("invalid utf-8 in encoded string".into()))
    }
}

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;
const VALUE_BOOL: u8 = 4;

/// Append one tagged scalar value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VALUE_NULL),
        Value::Int(i) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(VALUE_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(VALUE_BOOL);
            out.push(*b as u8);
        }
    }
}

/// Decode one tagged scalar value.
pub fn read_value(cur: &mut Cursor<'_>) -> Result<Value> {
    match cur.u8()? {
        VALUE_NULL => Ok(Value::Null),
        VALUE_INT => Ok(Value::Int(cur.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(f64::from_bits(cur.u64()?))),
        VALUE_STR => Ok(Value::str(cur.str()?)),
        VALUE_BOOL => Ok(Value::Bool(cur.u8()? != 0)),
        tag => Err(StorageError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
    }
}

fn type_of_tag(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Utf8),
        3 => Ok(DataType::Bool),
        _ => Err(StorageError::Corrupt(format!("unknown type tag {tag}"))),
    }
}

/// Append an encoded schema (field names, types, nullability).
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.len() as u32);
    for f in schema.fields() {
        put_str(out, &f.name);
        out.push(type_tag(f.data_type));
        out.push(f.nullable as u8);
    }
}

/// Decode a schema written by [`put_schema`].
pub fn read_schema(cur: &mut Cursor<'_>) -> Result<Arc<Schema>> {
    // A field is at least a name length, a type tag and a nullable flag.
    let n = cur.u32()?;
    let n = cur.count(n.into(), 6)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = cur.str()?.to_string();
        let data_type = type_of_tag(cur.u8()?)?;
        let nullable = cur.u8()? != 0;
        fields.push(Field {
            name,
            data_type,
            nullable,
        });
    }
    Ok(Schema::new(fields))
}

/// Column-chunk tags in a [`put_batch`] payload.
const COL_PLAIN: u8 = 0;
const COL_DICT: u8 = 1;
const COL_INT: u8 = 2;

/// Sub-tags for the two [`EncodedInts`] representations under [`COL_INT`].
/// Frame-of-reference lanes are stored bit-packed at their exact width
/// ([`ForLanes::packed`]) and widened back to byte-aligned lanes on read.
const INT_RLE: u8 = 0;
const INT_PACKED: u8 = 1;

/// Append one materialized batch: its row count, then one chunk per column
/// in the column's physical encoding, each ending in the validity words
/// ([`Bitmap::words`]). A plain chunk holds the typed values (little-endian
/// `i64`/`f64`, a byte per bool, length-prefixed strings), NULL slots'
/// placeholders included; a dictionary chunk its entries and bit-packed
/// codes; an integer chunk its RLE runs or bit-packed lanes. Callers
/// materialize any selection first.
pub fn put_batch(out: &mut Vec<u8>, batch: &RecordBatch) {
    debug_assert!(batch.selection().is_none(), "put_batch takes a dense batch");
    put_u64(out, batch.num_rows() as u64);
    for col in batch.columns() {
        put_column(out, col);
    }
}

fn put_column(out: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Int64(v, _) => put_fixed(out, v, |x| x.to_le_bytes()),
        Column::Float64(v, _) => put_fixed(out, v, |x| x.to_le_bytes()),
        Column::Bool(v, _) => put_fixed(out, v, |&b| [b as u8]),
        Column::Utf8(v, _) => {
            out.push(COL_PLAIN);
            v.iter().for_each(|s| put_str(out, s));
        }
        Column::DictUtf8 { dict, codes, .. } => {
            out.push(COL_DICT);
            put_u32(out, dict.len() as u32);
            dict.iter().for_each(|s| put_str(out, s));
            let ints: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
            put_packed(out, &BitPackedI64::encode(&ints));
        }
        Column::Int64Encoded { data, .. } => {
            out.push(COL_INT);
            match data {
                EncodedInts::Rle { rle, .. } => {
                    out.push(INT_RLE);
                    put_u64(out, rle.len as u64);
                    put_u32(out, rle.runs.len() as u32);
                    for &(v, n) in &rle.runs {
                        put_u64(out, v as u64);
                        put_u32(out, n);
                    }
                }
                EncodedInts::For(lanes) => {
                    out.push(INT_PACKED);
                    put_packed(out, &lanes.packed());
                }
            }
        }
    }
    put_words(out, col.validity().words());
}

/// Append a plain chunk's fixed-width values.
fn put_fixed<T, const N: usize>(out: &mut Vec<u8>, values: &[T], bytes: impl Fn(&T) -> [u8; N]) {
    out.push(COL_PLAIN);
    values.iter().for_each(|v| out.extend_from_slice(&bytes(v)));
}

/// Append a word count and the words.
fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    put_u32(out, words.len() as u32);
    words.iter().for_each(|&w| put_u64(out, w));
}

/// Append one bit-packed vector: reference, width, length, words.
fn put_packed(out: &mut Vec<u8>, packed: &BitPackedI64) {
    put_u64(out, packed.reference as u64);
    out.push(packed.width);
    put_u64(out, packed.len as u64);
    put_words(out, &packed.words);
}

/// Decode one batch written by [`put_batch`] against the schema it was
/// written with.
pub fn read_batch(cur: &mut Cursor<'_>, schema: &Arc<Schema>) -> Result<RecordBatch> {
    let rows = cur.u64()?;
    // Every chunk ends in a validity word per 64 rows, so the bytes left
    // bound the row count before anything is sized by it.
    cur.count(rows.div_ceil(64), 8 * schema.len())?;
    let rows = rows as usize;
    let cols = schema
        .fields()
        .iter()
        .map(|f| read_column(cur, f.data_type, rows).map(Arc::new))
        .collect::<Result<Vec<_>>>()?;
    RecordBatch::try_new(schema.clone(), cols)
}

fn read_column(cur: &mut Cursor<'_>, dt: DataType, rows: usize) -> Result<Column> {
    let tag = cur.u8()?;
    Ok(match (tag, dt) {
        (COL_PLAIN, DataType::Int64) => Column::Int64(
            read_fixed(cur, rows, i64::from_le_bytes)?,
            read_validity(cur, rows)?,
        ),
        (COL_PLAIN, DataType::Float64) => Column::Float64(
            read_fixed(cur, rows, f64::from_le_bytes)?,
            read_validity(cur, rows)?,
        ),
        (COL_PLAIN, DataType::Bool) => Column::Bool(
            read_fixed(cur, rows, |[b]: [u8; 1]| b != 0)?,
            read_validity(cur, rows)?,
        ),
        (COL_PLAIN, DataType::Utf8) => {
            Column::Utf8(read_strings(cur, rows)?, read_validity(cur, rows)?)
        }
        (COL_DICT, DataType::Utf8) => {
            let n = cur.u32()?;
            let dict = read_strings(cur, n as usize)?;
            let codes = read_packed(cur, rows)?.decode();
            let validity = read_validity(cur, rows)?;
            // An empty dictionary belongs to an all-NULL chunk.
            let in_range = |c: &i64| (0..dict.len() as i64).contains(c);
            if !(codes.iter().all(in_range) || (dict.is_empty() && validity.count_valid() == 0)) {
                return Err(StorageError::Corrupt("dict code out of range".into()));
            }
            let codes = codes.into_iter().map(|c| c as u32).collect();
            Column::dict_from_parts(Arc::new(dict), codes, validity)
        }
        (COL_INT, DataType::Int64) => {
            let data = match cur.u8()? {
                INT_PACKED => {
                    let lanes = ForLanes::from_packed(&read_packed(cur, rows)?);
                    // Lanes are at most 32 bits wide, and so is their packing.
                    EncodedInts::For(lanes.ok_or_else(|| {
                        StorageError::Corrupt("packed lanes wider than 32 bits".into())
                    })?)
                }
                INT_RLE => {
                    let len = cur.u64()?;
                    let n = cur.u32()?;
                    let n = cur.count(n.into(), 12)?;
                    let runs = (0..n)
                        .map(|_| Ok((cur.i64()?, cur.u32()?)))
                        .collect::<Result<Vec<_>>>()?;
                    // Run ends are indexed as u32.
                    let total: u64 = runs.iter().map(|&(_, n)| u64::from(n)).sum();
                    if total != len || len != rows as u64 || len > u64::from(u32::MAX) {
                        return Err(StorageError::Corrupt("RLE run total mismatch".into()));
                    }
                    EncodedInts::from_rle(RleI64 { runs, len: rows })
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unknown int encoding sub-tag {other}"
                    )))
                }
            };
            Column::encoded_from_parts(data, read_validity(cur, rows)?)
        }
        _ => {
            return Err(StorageError::Corrupt(format!(
                "column chunk tag {tag} does not fit a {dt} column"
            )))
        }
    })
}

/// `n` fixed-width little-endian values.
fn read_fixed<const N: usize, T>(
    cur: &mut Cursor<'_>,
    n: usize,
    from: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>> {
    let n = cur.count(n as u64, N)?;
    Ok(cur
        .take(n * N)?
        .chunks_exact(N)
        .map(|c| from(c.try_into().expect("chunks_exact yields N bytes")))
        .collect())
}

/// `n` length-prefixed strings.
fn read_strings(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<String>> {
    let n = cur.count(n as u64, 4)?;
    (0..n).map(|_| cur.str().map(str::to_owned)).collect()
}

/// Inverse of [`put_words`].
fn read_words(cur: &mut Cursor<'_>) -> Result<Vec<u64>> {
    let n = cur.u32()?;
    read_fixed(cur, n as usize, u64::from_le_bytes)
}

/// A chunk's validity: exactly one word per 64 rows.
fn read_validity(cur: &mut Cursor<'_>, rows: usize) -> Result<Bitmap> {
    let words = read_words(cur)?;
    if words.len() != rows.div_ceil(64) {
        return Err(StorageError::Corrupt("bitmap word count mismatch".into()));
    }
    Ok(Bitmap::from_words(words, rows))
}

/// Inverse of [`put_packed`] for a vector of `rows` values; a word count
/// that disagrees with the length and width is corruption, caught before
/// anything is unpacked.
fn read_packed(cur: &mut Cursor<'_>, rows: usize) -> Result<BitPackedI64> {
    let packed = BitPackedI64 {
        reference: cur.i64()?,
        width: cur.u8()?,
        len: cur.u64()? as usize,
        words: read_words(cur)?,
    };
    if packed.len != rows || !packed.is_well_formed() {
        return Err(StorageError::Corrupt(
            "bit-packed length or word count mismatch".into(),
        ));
    }
    Ok(packed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn streaming_crc_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        for chunk in [1usize, 3, 64, 997, 1000] {
            let mut c = Crc32::new();
            for piece in data.chunks(chunk) {
                c.update(piece);
            }
            assert_eq!(c.finish(), crc32(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn values_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::str("héllo"),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for v in &vals {
            assert_eq!(&read_value(&mut cur).unwrap(), v);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn schema_round_trips() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
            Field::nullable("flag", DataType::Bool),
        ]);
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let back = read_schema(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(*back, *schema);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::str("long enough to truncate"));
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            assert!(read_value(&mut cur).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tags_error() {
        assert!(matches!(
            read_value(&mut Cursor::new(&[9u8])),
            Err(StorageError::Corrupt(_))
        ));
        let buf = [1u8, 0, 0, 0, b'x', 9, 0];
        assert!(read_schema(&mut Cursor::new(&buf)).is_err());
    }
}
