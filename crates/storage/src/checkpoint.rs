//! Checkpoint snapshots of table state.
//!
//! A checkpoint is a point-in-time serialization of every table (schema +
//! rows) plus the WAL LSN the snapshot corresponds to. Recovery loads the
//! newest checkpoint and replays only WAL records with a higher LSN, so the
//! log can be truncated after each checkpoint instead of growing forever.
//!
//! The file is written atomically: serialize to `<path>.tmp`, fsync, then
//! rename over the live file. A crash at any point leaves either the old
//! checkpoint or the new one — never a half-written hybrid — and the
//! whole-body CRC-32 trailer rejects torn or bit-flipped files that slip
//! through anyway.

use crate::codec::{self, Cursor};
use crate::column::{Bitmap, Column};
use crate::compress::{BitPackedI64, EncodedInts, ForLanes, RleI64};
use crate::error::{Result, StorageError};
use crate::pager::PagedFile;
use crate::table::{Table, ZoneMap};
use crate::types::Value;
use crate::RecordBatch;
use crate::Schema;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic: "BCKP".
const MAGIC: u32 = u32::from_le_bytes(*b"BCKP");
/// Format version. Version 3 prefixes every row group with a small
/// directory — row count, per-column zone statistics (min/max/null-count),
/// and the byte length of the column payload — so a paged reader can learn
/// group boundaries and pruning bounds without decoding any column data.
/// Version 2 serialized row groups columnar (dictionary columns write their
/// dictionary once plus frame-of-reference bit-packed codes); version 1 was
/// row-at-a-time values. Both remain readable.
const VERSION: u32 = 3;

/// Per-column encoding tags in a versioned group.
const COL_PLAIN: u8 = 0;
const COL_DICT: u8 = 1;
const COL_INT: u8 = 2;

/// Sub-tags for the two [`EncodedInts`] representations under [`COL_INT`].
/// Frame-of-reference lanes are stored bit-packed at their exact width
/// ([`ForLanes::packed`]) and widened back to byte-aligned lanes on read.
const INT_RLE: u8 = 0;
const INT_PACKED: u8 = 1;

/// A decoded checkpoint: the WAL position it covers and the table snapshot.
pub struct CheckpointData {
    /// WAL records with LSN ≤ this value are already reflected in `tables`.
    pub lsn: u64,
    /// Every table at snapshot time: sealed groups plus its unsealed tail.
    pub tables: Vec<(String, Table)>,
}

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{ctx}: {e}"))
}

/// Serialize one validity bitmap as packed u64 words.
fn put_bitmap(out: &mut Vec<u8>, bm: &Bitmap, rows: usize) {
    let mut words = vec![0u64; rows.div_ceil(64)];
    for (i, word) in words.iter_mut().enumerate() {
        for bit in 0..64.min(rows - i * 64) {
            if bm.get(i * 64 + bit) {
                *word |= 1u64 << bit;
            }
        }
    }
    codec::put_u32(out, words.len() as u32);
    for w in words {
        codec::put_u64(out, w);
    }
}

fn read_bitmap(cur: &mut Cursor<'_>, rows: usize) -> Result<Bitmap> {
    let nwords = cur.u32()? as usize;
    if nwords != rows.div_ceil(64) {
        return Err(StorageError::Corrupt("bitmap word count mismatch".into()));
    }
    let mut bm = Bitmap::all_null(rows);
    for i in 0..nwords {
        let w = cur.u64()?;
        for bit in 0..64.min(rows - i * 64) {
            if (w >> bit) & 1 == 1 {
                bm.set(i * 64 + bit, true);
            }
        }
    }
    Ok(bm)
}

/// Serialize one column of a sealed row group, preserving its encoding.
fn put_column(out: &mut Vec<u8>, col: &Column, rows: usize) {
    if let Some((dict, codes, validity)) = col.dict_parts() {
        out.push(COL_DICT);
        codec::put_u32(out, dict.len() as u32);
        for s in dict.iter() {
            codec::put_str(out, s);
        }
        let ints: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
        put_packed(out, &BitPackedI64::encode(&ints));
        put_bitmap(out, validity, rows);
    } else if let Some((data, validity)) = col.encoded_parts() {
        out.push(COL_INT);
        match data {
            EncodedInts::Rle { .. } => {
                let runs = data.runs().expect("Rle variant exposes runs");
                out.push(INT_RLE);
                codec::put_u64(out, data.len() as u64);
                codec::put_u32(out, runs.len() as u32);
                for &(v, n) in runs {
                    codec::put_u64(out, v as u64);
                    codec::put_u32(out, n);
                }
            }
            EncodedInts::For(lanes) => {
                out.push(INT_PACKED);
                put_packed(out, &lanes.packed());
            }
        }
        put_bitmap(out, validity, rows);
    } else {
        out.push(COL_PLAIN);
        for i in 0..rows {
            codec::put_value(out, &col.value(i));
        }
    }
}

/// Serialize one bit-packed vector: reference, width, length, words.
fn put_packed(out: &mut Vec<u8>, packed: &BitPackedI64) {
    codec::put_u64(out, packed.reference as u64);
    out.push(packed.width);
    codec::put_u64(out, packed.len as u64);
    codec::put_u32(out, packed.words.len() as u32);
    for w in &packed.words {
        codec::put_u64(out, *w);
    }
}

/// Inverse of [`put_packed`]; a word count that disagrees with the length
/// and width is corruption, caught before anything is unpacked.
fn read_packed(cur: &mut Cursor<'_>) -> Result<BitPackedI64> {
    let reference = cur.u64()? as i64;
    let width = cur.u8()?;
    let len = cur.u64()? as usize;
    let nwords = cur.u32()? as usize;
    let mut words = Vec::with_capacity(nwords.min(cur.remaining() / 8));
    for _ in 0..nwords {
        words.push(cur.u64()?);
    }
    let packed = BitPackedI64 {
        reference,
        width,
        words,
        len,
    };
    if !packed.is_well_formed() {
        return Err(StorageError::Corrupt(
            "bit-packed word count mismatch".into(),
        ));
    }
    Ok(packed)
}

fn read_column(cur: &mut Cursor<'_>, dt: crate::DataType, rows: usize) -> Result<Column> {
    match cur.u8()? {
        COL_PLAIN => {
            let mut vals = Vec::with_capacity(rows);
            for _ in 0..rows {
                vals.push(codec::read_value(cur)?);
            }
            Column::from_values(dt, &vals)
        }
        COL_DICT => {
            let dict_len = cur.u32()? as usize;
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(cur.str()?.to_string());
            }
            let packed = read_packed(cur)?;
            if packed.len != rows {
                return Err(StorageError::Corrupt("dict code count mismatch".into()));
            }
            let codes: Vec<u32> = packed.decode().into_iter().map(|v| v as u32).collect();
            if codes
                .iter()
                .any(|&c| c as usize >= dict.len() && dict_len > 0)
            {
                return Err(StorageError::Corrupt("dict code out of range".into()));
            }
            let validity = read_bitmap(cur, rows)?;
            Ok(Column::dict_from_parts(Arc::new(dict), codes, validity))
        }
        COL_INT => {
            let data = match cur.u8()? {
                INT_PACKED => {
                    let packed = read_packed(cur)?;
                    if packed.len != rows {
                        return Err(StorageError::Corrupt("encoded int count mismatch".into()));
                    }
                    let validity = read_bitmap(cur, rows)?;
                    // A range wider than 32 bits has no lane width; such a
                    // column reopens plain.
                    return Ok(match ForLanes::from_packed(&packed) {
                        Some(lanes) => {
                            Column::encoded_from_parts(EncodedInts::For(lanes), validity)
                        }
                        None => Column::Int64(packed.decode(), validity),
                    });
                }
                INT_RLE => {
                    let len = cur.u64()? as usize;
                    let n_runs = cur.u32()? as usize;
                    let mut runs = Vec::with_capacity(n_runs);
                    for _ in 0..n_runs {
                        runs.push((cur.u64()? as i64, cur.u32()?));
                    }
                    let rle = RleI64 { runs, len };
                    if rle.runs.iter().map(|&(_, n)| n as usize).sum::<usize>() != len {
                        return Err(StorageError::Corrupt("RLE run total mismatch".into()));
                    }
                    EncodedInts::from_rle(rle)
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unknown int encoding sub-tag {other}"
                    )))
                }
            };
            if data.len() != rows {
                return Err(StorageError::Corrupt("encoded int count mismatch".into()));
            }
            let validity = read_bitmap(cur, rows)?;
            Ok(Column::encoded_from_parts(data, validity))
        }
        other => Err(StorageError::Corrupt(format!(
            "unknown column encoding tag {other}"
        ))),
    }
}

/// Serialize one sealed, materialized batch (row count + tagged columns),
/// preserving physical encodings. This is also the on-disk unit operator
/// spill files use; callers must materialize any selection first.
pub fn put_batch(out: &mut Vec<u8>, batch: &RecordBatch) {
    let rows = batch.num_rows();
    codec::put_u64(out, rows as u64);
    for col in batch.columns() {
        put_column(out, col, rows);
    }
}

/// Inverse of [`put_batch`].
pub fn read_batch(cur: &mut Cursor<'_>, schema: &Arc<Schema>) -> Result<RecordBatch> {
    let rows = cur.u64()? as usize;
    let mut cols = Vec::with_capacity(schema.len());
    for f in schema.fields() {
        cols.push(Arc::new(read_column(cur, f.data_type, rows)?));
    }
    RecordBatch::try_new(schema.clone(), cols)
}

/// Serialize one zone-map entry of a version-3 group directory.
fn put_zone(out: &mut Vec<u8>, z: &ZoneMap) {
    codec::put_value(out, z.min.as_ref().unwrap_or(&Value::Null));
    codec::put_value(out, z.max.as_ref().unwrap_or(&Value::Null));
    codec::put_u64(out, z.null_count as u64);
}

/// Read one zone-map entry of a version-3 group directory.
fn read_zone(cur: &mut Cursor<'_>, rows: usize) -> Result<ZoneMap> {
    let min = match codec::read_value(cur)? {
        Value::Null => None,
        v => Some(v),
    };
    let max = match codec::read_value(cur)? {
        Value::Null => None,
        v => Some(v),
    };
    let null_count = cur.u64()? as usize;
    Ok(ZoneMap {
        min,
        max,
        null_count,
        row_count: rows,
    })
}

/// Serialize `tables` as a checkpoint covering WAL position `lsn` and
/// atomically replace the file at `path` with it.
pub fn write_checkpoint(path: &Path, lsn: u64, tables: &[(&str, &Table)]) -> Result<()> {
    let mut body = Vec::new();
    codec::put_u32(&mut body, MAGIC);
    codec::put_u32(&mut body, VERSION);
    codec::put_u64(&mut body, lsn);
    codec::put_u32(&mut body, tables.len() as u32);
    for (name, table) in tables {
        codec::put_str(&mut body, name);
        codec::put_schema(&mut body, table.schema());
        codec::put_u32(&mut body, table.num_groups() as u32);
        for gi in 0..table.num_groups() {
            // Paged groups materialize one at a time here and are dropped
            // after serialization — checkpointing a paged table never holds
            // more than one group in memory.
            let g = table.group(gi)?;
            let batch = g.batch();
            let rows = batch.num_rows();
            // Group directory: row count + per-column zones + payload length,
            // so a paged reader can skip payloads it never needs to pin.
            codec::put_u64(&mut body, rows as u64);
            for i in 0..batch.columns().len() {
                put_zone(&mut body, g.zone(i));
            }
            let mut payload = Vec::new();
            put_batch(&mut payload, batch);
            codec::put_u32(&mut body, payload.len() as u32);
            body.extend_from_slice(&payload);
        }
        // The unsealed tail rides along in row form and is restored as a
        // tail, so checkpoints never fragment a table into short groups.
        codec::put_u64(&mut body, table.tail_rows() as u64);
        for chunk in table.tail_batches() {
            for i in 0..chunk.num_rows() {
                for v in chunk.row(i) {
                    codec::put_value(&mut body, &v);
                }
            }
        }
    }
    let crc = codec::crc32(&body);
    codec::put_u32(&mut body, crc);

    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| io_err("create checkpoint tmp", e))?;
        f.write_all(&body)
            .map_err(|e| io_err("write checkpoint", e))?;
        f.sync_data().map_err(|e| io_err("sync checkpoint", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err("publish checkpoint", e))?;
    Ok(())
}

/// Load the checkpoint at `path`; `Ok(None)` when no checkpoint exists yet.
///
/// A corrupt file (bad magic, bad CRC, truncated body) is an error, not a
/// silent empty state — the caller decides whether to fall back.
pub fn read_checkpoint(path: &Path) -> Result<Option<CheckpointData>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read checkpoint", e)),
    };
    if bytes.len() < 4 {
        return Err(StorageError::Corrupt("checkpoint shorter than CRC".into()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if codec::crc32(body) != stored_crc {
        return Err(StorageError::Corrupt("checkpoint CRC mismatch".into()));
    }
    let mut cur = Cursor::new(body);
    if cur.u32()? != MAGIC {
        return Err(StorageError::Corrupt("not a checkpoint file".into()));
    }
    let version = cur.u32()?;
    if !(1..=VERSION).contains(&version) {
        return Err(StorageError::Corrupt(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let lsn = cur.u64()?;
    let n_tables = cur.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = cur.str()?.to_string();
        let schema = codec::read_schema(&mut cur)?;
        let width = schema.len();
        let mut table = Table::new(schema.clone());
        if version == 1 {
            let rows = cur.u64()? as usize;
            for _ in 0..rows {
                let mut row = Vec::with_capacity(width);
                for _ in 0..width {
                    row.push(codec::read_value(&mut cur)?);
                }
                table.append_row(row)?;
            }
        } else {
            let n_groups = cur.u32()? as usize;
            for _ in 0..n_groups {
                let batch = if version == 2 {
                    let rows = cur.u64()? as usize;
                    let mut cols = Vec::with_capacity(width);
                    for f in schema.fields() {
                        cols.push(Arc::new(read_column(&mut cur, f.data_type, rows)?));
                    }
                    RecordBatch::try_new(schema.clone(), cols)?
                } else {
                    let rows = cur.u64()? as usize;
                    for _ in 0..width {
                        read_zone(&mut cur, rows)?;
                    }
                    let payload_len = cur.u32()? as usize;
                    let start = cur.position();
                    let batch = read_batch(&mut cur, &schema)?;
                    if batch.num_rows() != rows || cur.position() - start != payload_len {
                        return Err(StorageError::Corrupt(
                            "group directory disagrees with payload".into(),
                        ));
                    }
                    batch
                };
                table.push_sealed_batch(batch)?;
            }
            let pending = cur.u64()? as usize;
            for _ in 0..pending {
                let mut row = Vec::with_capacity(width);
                for _ in 0..width {
                    row.push(codec::read_value(&mut cur)?);
                }
                table.append_row(row)?;
            }
        }
        tables.push((name, table));
    }
    Ok(Some(CheckpointData { lsn, tables }))
}

/// Parse a sequentially-encoded region starting at absolute offset `pos`
/// without knowing its length up front: read a small window, try to parse,
/// and double the window on a bounds shortfall. Returns the parsed value
/// and how many bytes it consumed. Genuine corruption still surfaces once
/// the window covers everything that remains.
fn parse_window<T>(
    pager: &PagedFile,
    pos: u64,
    body_len: u64,
    f: impl Fn(&mut Cursor<'_>) -> Result<T>,
) -> Result<(T, usize)> {
    let mut window = 256usize;
    loop {
        let avail = (body_len.saturating_sub(pos)) as usize;
        let take = window.min(avail);
        let bytes = pager.read_at(pos, take)?;
        let mut cur = Cursor::new(&bytes);
        match f(&mut cur) {
            Ok(v) => return Ok((v, cur.position())),
            Err(StorageError::Corrupt(_)) if take < avail => window *= 2,
            Err(e) => return Err(e),
        }
    }
}

/// Open the checkpoint at `path` *paged*: row-group payloads stay on disk
/// and stream through a [`BufferPool`](crate::bufferpool::BufferPool) of
/// `pool_pages` frames on demand; only schemas, zone maps, and tail rows are
/// materialized. `Ok(None)` when no checkpoint exists.
///
/// Two passes, both in `O(pool)` memory: a streaming CRC-32 over the whole
/// file (same corruption guarantee as [`read_checkpoint`], without the
/// whole-file read), then a structure walk that parses each group's
/// directory and *skips* its payload by length, recording `(offset, len)`
/// windows for [`Table::group`] to re-read later. Version 1/2 files have no
/// group directory, so they fall back to the in-memory reader.
pub fn open_checkpoint_paged(
    path: &Path,
    pool_pages: usize,
    metrics: &crate::metrics::Metrics,
) -> Result<Option<CheckpointData>> {
    use crate::bufferpool::BufferPool;
    use crate::disk::DiskManager;
    use crate::eviction::PolicyKind;
    use crate::page::PAGE_SIZE;

    if !path.exists() {
        return Ok(None);
    }
    let disk = Arc::new(DiskManager::open_file(path)?);
    let len = disk.len_bytes();
    if len < 4 {
        return Err(StorageError::Corrupt("checkpoint shorter than CRC".into()));
    }
    let pool = BufferPool::with_metrics(disk, pool_pages.max(2), PolicyKind::Lru, metrics);
    let pager = Arc::new(PagedFile::new(pool, len));
    let body_len = len - 4;

    // Pass 1: whole-file checksum, one pinned page at a time.
    let mut crc = codec::Crc32::new();
    let mut pos = 0u64;
    while pos < body_len {
        let take = ((body_len - pos) as usize).min(PAGE_SIZE);
        crc.update(&pager.read_at(pos, take)?);
        pos += take as u64;
    }
    let trailer = pager.read_at(body_len, 4)?;
    if crc.finish() != u32::from_le_bytes(trailer.as_slice().try_into().unwrap()) {
        return Err(StorageError::Corrupt("checkpoint CRC mismatch".into()));
    }

    // Pass 2: walk the structure, skipping group payloads by length.
    let header = pager.read_at(0, 20.min(body_len) as usize)?;
    let mut cur = Cursor::new(&header);
    if cur.u32()? != MAGIC {
        return Err(StorageError::Corrupt("not a checkpoint file".into()));
    }
    let version = cur.u32()?;
    if !(1..=VERSION).contains(&version) {
        return Err(StorageError::Corrupt(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    if version < 3 {
        // No group directory to page over; load it the old way.
        return read_checkpoint(path);
    }
    let lsn = cur.u64()?;
    let n_tables = cur.u32()? as usize;
    let mut pos = 20u64;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let ((name, schema, n_groups), used) = parse_window(&pager, pos, body_len, |cur| {
            let name = cur.str()?.to_string();
            let schema = codec::read_schema(cur)?;
            let n_groups = cur.u32()? as usize;
            Ok((name, schema, n_groups))
        })?;
        pos += used as u64;
        let width = schema.len();
        let mut table = Table::new(schema.clone());
        for _ in 0..n_groups {
            let ((rows, zones, payload_len), used) = parse_window(&pager, pos, body_len, |cur| {
                let rows = cur.u64()? as usize;
                let mut zones = Vec::with_capacity(width);
                for _ in 0..width {
                    zones.push(read_zone(cur, rows)?);
                }
                let payload_len = cur.u32()? as usize;
                Ok((rows, zones, payload_len))
            })?;
            pos += used as u64;
            if pos + payload_len as u64 > body_len {
                return Err(StorageError::Corrupt(
                    "group payload extends past checkpoint body".into(),
                ));
            }
            table.push_paged_group(pager.clone(), pos, payload_len, rows, zones);
            pos += payload_len as u64;
        }
        let (pending, used) = parse_window(&pager, pos, body_len, |cur| {
            let count = cur.u64()? as usize;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                let mut row = Vec::with_capacity(width);
                for _ in 0..width {
                    row.push(codec::read_value(cur)?);
                }
                rows.push(row);
            }
            Ok(rows)
        })?;
        pos += used as u64;
        table.append_rows(&pending)?;
        tables.push((name, table));
    }
    if pos != body_len {
        return Err(StorageError::Corrupt(format!(
            "checkpoint body has {} trailing bytes",
            body_len - pos
        )));
    }
    Ok(Some(CheckpointData { lsn, tables }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    fn sample_table(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
        ]);
        let mut t = Table::new(schema);
        for i in 0..rows {
            let name = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(format!("row-{i}"))
            };
            t.append_row(vec![Value::Int(i as i64), name]).unwrap();
        }
        t.flush().unwrap();
        t
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("backbone-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_tables_and_lsn() {
        let path = temp_path("roundtrip");
        let t = sample_table(10);
        write_checkpoint(&path, 42, &[("items", &t)]).unwrap();
        let back = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(back.lsn, 42);
        assert_eq!(back.tables.len(), 1);
        let (name, rt) = &back.tables[0];
        assert_eq!(name, "items");
        assert_eq!(rt.num_rows(), 10);
        assert_eq!(rt.to_batch().unwrap().row(4), t.to_batch().unwrap().row(4));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_none() {
        let path = temp_path("missing");
        let _ = fs::remove_file(&path);
        assert!(read_checkpoint(&path).unwrap().is_none());
    }

    #[test]
    fn corruption_is_rejected() {
        let path = temp_path("corrupt");
        let t = sample_table(4);
        write_checkpoint(&path, 7, &[("t", &t)]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StorageError::Corrupt(_))
        ));
        let _ = fs::remove_file(&path);
    }

    fn tagged_table(rows: usize, policy: crate::table::EncodingPolicy) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("tag", DataType::Utf8),
        ]);
        let mut t = Table::new(schema).with_encoding(policy);
        for i in 0..rows {
            let tag = match i % 7 {
                0 => Value::Null,
                j => Value::str(format!("region-{}", j % 3)),
            };
            t.append_row(vec![Value::Int(i as i64), tag]).unwrap();
        }
        t.flush().unwrap();
        t
    }

    #[test]
    fn v2_preserves_dictionary_encoding() {
        use crate::table::EncodingPolicy;
        let path = temp_path("dict");
        let t = tagged_table(512, EncodingPolicy::Auto);
        let (dict_cols, dict_rows) = t.encoding_stats();
        assert_eq!((dict_cols, dict_rows), (1, 512), "seal must encode");
        write_checkpoint(&path, 3, &[("tagged", &t)]).unwrap();
        let back = read_checkpoint(&path).unwrap().unwrap();
        let rt = &back.tables[0].1;
        assert_eq!(rt.encoding_stats(), (1, 512), "recovery must not decode");
        assert_eq!(
            rt.to_batch().unwrap().to_rows(),
            t.to_batch().unwrap().to_rows()
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn dictionary_checkpoint_is_smaller_than_plain() {
        use crate::table::EncodingPolicy;
        let dict_path = temp_path("size-dict");
        let plain_path = temp_path("size-plain");
        write_checkpoint(
            &dict_path,
            1,
            &[("t", &tagged_table(2048, EncodingPolicy::Auto))],
        )
        .unwrap();
        write_checkpoint(
            &plain_path,
            1,
            &[("t", &tagged_table(2048, EncodingPolicy::Plain))],
        )
        .unwrap();
        let dict_bytes = fs::metadata(&dict_path).unwrap().len();
        let plain_bytes = fs::metadata(&plain_path).unwrap().len();
        assert!(
            dict_bytes * 2 < plain_bytes,
            "dict checkpoint {dict_bytes}B should be well under plain {plain_bytes}B"
        );
        let _ = fs::remove_file(&dict_path);
        let _ = fs::remove_file(&plain_path);
    }

    #[test]
    fn v3_preserves_int_encoding() {
        let path = temp_path("encint");
        let schema = Schema::new(vec![
            Field::new("grp", DataType::Int64),
            Field::nullable("amt", DataType::Int64),
        ]);
        let mut t = Table::new(schema);
        for i in 0..512i64 {
            let amt = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            t.append_row(vec![Value::Int(i / 128), amt]).unwrap();
        }
        t.flush().unwrap();
        let (cols, rows) = t.int_encoding_stats();
        assert!(cols >= 1 && rows >= 512, "seal must int-encode");
        write_checkpoint(&path, 8, &[("enc", &t)]).unwrap();
        let back = read_checkpoint(&path).unwrap().unwrap();
        let rt = &back.tables[0].1;
        assert_eq!(
            rt.int_encoding_stats(),
            t.int_encoding_stats(),
            "recovery must not decode"
        );
        assert_eq!(
            rt.to_batch().unwrap().to_rows(),
            t.to_batch().unwrap().to_rows()
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn batch_round_trips_standalone() {
        // put_batch/read_batch back operator spill files: no header, no CRC,
        // just one batch after another in a shared buffer.
        let t = sample_table(9);
        let batch = t.to_batch().unwrap();
        let mut buf = Vec::new();
        put_batch(&mut buf, &batch);
        put_batch(&mut buf, &batch);
        let mut cur = Cursor::new(&buf);
        for _ in 0..2 {
            let back = read_batch(&mut cur, batch.schema()).unwrap();
            assert_eq!(back.to_rows(), batch.to_rows());
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn pending_rows_survive_checkpoint() {
        let path = temp_path("pending");
        let mut t = sample_table(6);
        // Rows appended after the last flush must round-trip too.
        t.append_row(vec![Value::Int(100), Value::str("tail")])
            .unwrap();
        write_checkpoint(&path, 5, &[("t", &t)]).unwrap();
        let back = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(back.tables[0].1.num_rows(), 7);
        let rows = back.tables[0].1.to_batch().unwrap().to_rows();
        assert_eq!(rows[6][1], Value::str("tail"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn paged_open_matches_in_memory_read() {
        use crate::metrics::Metrics;
        let path = temp_path("paged");
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
        ]);
        let mut t = Table::with_group_size(schema, 128);
        for i in 0..1000i64 {
            let name = if i % 5 == 0 {
                Value::Null
            } else {
                Value::str(format!("row-{i}"))
            };
            t.append_row(vec![Value::Int(i), name]).unwrap();
        }
        // Leave pending rows unsealed so both paths exercise that branch.
        write_checkpoint(&path, 21, &[("items", &t)]).unwrap();

        let metrics = Metrics::new();
        let paged = open_checkpoint_paged(&path, 4, &metrics).unwrap().unwrap();
        let plain = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(paged.lsn, 21);
        let (pname, pt) = &paged.tables[0];
        assert_eq!(pname, "items");
        assert_eq!(pt.num_rows(), 1000);
        assert!(
            pt.num_paged_groups() >= 7,
            "sealed groups must stay on disk"
        );
        assert_eq!(
            pt.to_batch().unwrap().to_rows(),
            plain.tables[0].1.to_batch().unwrap().to_rows()
        );
        // Zone maps are resident and match a materialized group's.
        let g0 = pt.group(0).unwrap();
        assert_eq!(pt.group_zones(0)[0].min, g0.zone(0).min);
        assert_eq!(pt.group_rows(0), g0.num_rows());
        // The pool actually served the traffic.
        assert!(metrics.value("bufferpool.misses") > 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn paged_open_rejects_corruption_and_handles_missing() {
        use crate::metrics::Metrics;
        let missing = temp_path("paged-missing");
        let _ = fs::remove_file(&missing);
        assert!(open_checkpoint_paged(&missing, 4, &Metrics::new())
            .unwrap()
            .is_none());

        let path = temp_path("paged-corrupt");
        write_checkpoint(&path, 7, &[("t", &sample_table(64))]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            open_checkpoint_paged(&path, 4, &Metrics::new()),
            Err(StorageError::Corrupt(_))
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn paged_table_checkpoints_again() {
        use crate::metrics::Metrics;
        let path = temp_path("paged-rewrite");
        let t = sample_table(300);
        write_checkpoint(&path, 1, &[("t", &t)]).unwrap();
        let paged = open_checkpoint_paged(&path, 4, &Metrics::new())
            .unwrap()
            .unwrap();
        // Writing a checkpoint *from* a paged table must materialize groups
        // one at a time and produce an equivalent file.
        let path2 = temp_path("paged-rewrite-2");
        write_checkpoint(&path2, 2, &[("t", &paged.tables[0].1)]).unwrap();
        let back = read_checkpoint(&path2).unwrap().unwrap();
        assert_eq!(
            back.tables[0].1.to_batch().unwrap().to_rows(),
            t.to_batch().unwrap().to_rows()
        );
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&path2);
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let path = temp_path("rewrite");
        write_checkpoint(&path, 1, &[("a", &sample_table(2))]).unwrap();
        write_checkpoint(&path, 9, &[("b", &sample_table(5))]).unwrap();
        let back = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(back.lsn, 9);
        assert_eq!(back.tables[0].0, "b");
        assert_eq!(back.tables[0].1.num_rows(), 5);
        let _ = fs::remove_file(&path);
    }
}
