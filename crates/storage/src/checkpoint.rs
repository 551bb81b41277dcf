//! Checkpoint snapshots of table state.
//!
//! A checkpoint is a point-in-time serialization of every table (schema,
//! sealed row groups and unsealed tail) plus the WAL LSN the snapshot
//! corresponds to. Recovery loads the newest checkpoint and replays only WAL
//! records with a higher LSN, so the log can be truncated after each
//! checkpoint instead of growing forever.
//!
//! The file is written atomically: serialize to `<path>.tmp`, fsync, then
//! rename over the live file. A crash at any point leaves either the old
//! checkpoint or the new one — never a half-written hybrid — and the
//! whole-body CRC-32 trailer rejects torn or bit-flipped files that slip
//! through anyway.
//!
//! Both opens — resident ([`read_checkpoint`]) and paged
//! ([`open_checkpoint_paged`]) — are one walk over the file: it checks the
//! CRC, parses each table's header and group directory once, and then
//! either decodes each group payload into a resident group that keeps the
//! directory's zone maps, or records the payload's window for
//! [`Table::group`] to read through the buffer pool on demand.

use crate::bufferpool::BufferPool;
use crate::codec::{self, Cursor};
use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::PAGE_SIZE;
use crate::pager::PagedFile;
use crate::table::{GroupSlot, RowGroup, Table, ZoneMap};
use crate::types::Value;
use std::borrow::Cow;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic: "BCKP".
const MAGIC: u32 = u32::from_le_bytes(*b"BCKP");
/// Format version. After the 16-byte head (magic, version, LSN), every
/// table is four regions, each prefixed by its `u64` byte length: a header
/// (name, schema), the group payloads end to end, the group directory (per
/// group: row count, per-column zone statistics, payload length), and the
/// tail. Payloads and tail are [`codec::put_batch`] column chunks; the tail
/// is its chunks end to end. The directory follows the payloads so the
/// writer streams them into the file and keeps only the directory aside.
/// Nothing writes the earlier versions, so no reader accepts them.
const VERSION: u32 = 4;

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

/// Serialize one zone-map entry of a group directory.
fn put_zone(out: &mut Vec<u8>, z: &ZoneMap) {
    codec::put_value(out, z.min.as_ref().unwrap_or(&Value::Null));
    codec::put_value(out, z.max.as_ref().unwrap_or(&Value::Null));
    codec::put_u64(out, z.null_count as u64);
}

/// Read one zone-map entry of a group directory.
fn read_zone(cur: &mut Cursor<'_>, rows: usize) -> Result<ZoneMap> {
    Ok(ZoneMap {
        min: Some(codec::read_value(cur)?).filter(|v| !v.is_null()),
        max: Some(codec::read_value(cur)?).filter(|v| !v.is_null()),
        null_count: cur.u64()? as usize,
        row_count: rows,
    })
}

/// Append a region written by `fill`, prefixed by its `u64` byte length.
fn put_region<R>(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let at = out.len();
    codec::put_u64(out, 0);
    let r = fill(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    r
}

/// Serialize `tables` as a checkpoint covering WAL position `lsn` and
/// atomically replace the file at `path` with it.
pub fn write_checkpoint(path: &Path, lsn: u64, tables: &[(&str, &Table)]) -> Result<()> {
    let mut body = Vec::new();
    codec::put_u32(&mut body, MAGIC);
    codec::put_u32(&mut body, VERSION);
    codec::put_u64(&mut body, lsn);
    for (name, table) in tables {
        put_region(&mut body, |out| {
            codec::put_str(out, name);
            codec::put_schema(out, table.schema());
        });
        let mut dir = Vec::new();
        put_region(&mut body, |out| -> Result<()> {
            for gi in 0..table.num_groups() {
                // Paged groups materialize one at a time here and are
                // dropped after serialization — checkpointing a paged table
                // never holds more than one group in memory.
                let g = table.group(gi)?;
                codec::put_u64(&mut dir, g.num_rows() as u64);
                g.zones().iter().for_each(|z| put_zone(&mut dir, z));
                let start = out.len();
                codec::put_batch(out, g.batch());
                codec::put_u64(&mut dir, (out.len() - start) as u64);
            }
            Ok(())
        })?;
        put_region(&mut body, |out| out.extend_from_slice(&dir));
        // The unsealed tail is restored as a tail, so checkpoints never
        // fragment a table into short groups.
        put_region(&mut body, |out| {
            table
                .tail_batches()
                .for_each(|chunk| codec::put_batch(out, &chunk));
        });
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

/// Load the checkpoint at `path` into memory; `Ok(None)` when no checkpoint
/// exists yet.
///
/// A corrupt file (bad magic, bad CRC, truncated body) is an error, not a
/// silent empty state — the caller decides whether to fall back.
pub fn read_checkpoint(path: &Path) -> Result<Option<CheckpointData>> {
    match fs::read(path) {
        Ok(bytes) => walk(&Source::Bytes(bytes)).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("read checkpoint", e)),
    }
}

/// Open the checkpoint at `path` *paged*: row-group payloads stay on disk
/// and stream through a [`BufferPool`] of `pool_pages` frames on demand;
/// only schemas, zone maps, and tail rows are materialized. `Ok(None)` when
/// no checkpoint exists. The open itself holds `O(pool)` memory beyond
/// those: the CRC streams through the pool a page at a time.
pub fn open_checkpoint_paged(
    path: &Path,
    pool_pages: usize,
    metrics: &crate::metrics::Metrics,
) -> Result<Option<CheckpointData>> {
    if !path.exists() {
        return Ok(None);
    }
    let disk = Arc::new(DiskManager::open_file(path)?);
    let len = disk.len_bytes();
    let pool = BufferPool::with_metrics(disk, pool_pages.max(2), metrics);
    walk(&Source::Paged(Arc::new(PagedFile::new(pool, len)))).map(Some)
}

/// Where [`walk`] reads a checkpoint from.
enum Source {
    /// The whole file, read once: groups decode into resident groups.
    Bytes(Vec<u8>),
    /// The file through a buffer pool: groups stay paged windows.
    Paged(Arc<PagedFile>),
}

impl Source {
    /// Bytes `[at, at + len)`, which the caller keeps inside the file.
    fn read(&self, at: u64, len: u64) -> Result<Cow<'_, [u8]>> {
        Ok(match self {
            Source::Bytes(b) => Cow::Borrowed(&b[at as usize..(at + len) as usize]),
            Source::Paged(p) => Cow::Owned(p.read_at(at, len as usize)?),
        })
    }
}

/// A forward reader over `[pos, end)` of a [`Source`].
struct Reader<'a> {
    src: &'a Source,
    pos: u64,
    end: u64,
}

impl<'a> Reader<'a> {
    /// Step over `len` bytes, returning their offset.
    fn skip(&mut self, len: u64) -> Result<u64> {
        if len > self.end - self.pos {
            return Err(StorageError::Corrupt(format!(
                "checkpoint region of {len} bytes at {} runs past the body",
                self.pos
            )));
        }
        self.pos += len;
        Ok(self.pos - len)
    }

    /// The next `len` bytes.
    fn take(&mut self, len: u64) -> Result<Cow<'a, [u8]>> {
        let at = self.skip(len)?;
        self.src.read(at, len)
    }

    /// The next region's length prefix.
    fn prefix(&mut self) -> Result<u64> {
        Cursor::new(&self.take(8)?).u64()
    }

    /// The next length-prefixed region.
    fn region(&mut self) -> Result<Cow<'a, [u8]>> {
        let len = self.prefix()?;
        self.take(len)
    }
}

/// The one checkpoint walk behind both opens.
fn walk(src: &Source) -> Result<CheckpointData> {
    let file_len = match src {
        Source::Bytes(b) => b.len() as u64,
        Source::Paged(p) => p.len(),
    };
    let body_len = file_len
        .checked_sub(4)
        .ok_or_else(|| StorageError::Corrupt("checkpoint shorter than CRC".into()))?;
    // A page at a time, so a paged file is never in memory whole.
    let mut crc = codec::Crc32::new();
    for pos in (0..body_len).step_by(PAGE_SIZE) {
        crc.update(&src.read(pos, (body_len - pos).min(PAGE_SIZE as u64))?);
    }
    if crc.finish() != Cursor::new(&src.read(body_len, 4)?).u32()? {
        return Err(StorageError::Corrupt("checkpoint CRC mismatch".into()));
    }
    let mut body = Reader {
        src,
        pos: 0,
        end: body_len,
    };
    let head = body.take(16)?;
    let mut cur = Cursor::new(&head);
    if cur.u32()? != MAGIC {
        return Err(StorageError::Corrupt("not a checkpoint file".into()));
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let lsn = cur.u64()?;
    let mut tables = Vec::new();
    while body.pos < body.end {
        let header = body.region()?;
        let mut cur = Cursor::new(&header);
        let name = cur.str()?.to_string();
        let schema = codec::read_schema(&mut cur)?;
        let width = schema.len() as u64;
        let mut table = Table::new(schema.clone());
        let len = body.prefix()?;
        let at = body.skip(len)?;
        let mut payloads = Reader {
            src,
            pos: at,
            end: at + len,
        };
        let dir = body.region()?;
        let mut cur = Cursor::new(&dir);
        while !cur.is_empty() {
            let rows = cur.u64()?;
            let zones = Arc::new(
                (0..width)
                    .map(|_| read_zone(&mut cur, rows as usize))
                    .collect::<Result<Vec<_>>>()?,
            );
            let len = cur.u64()?;
            // A payload ends every column in a validity word per 64 rows,
            // so its length bounds the row count the directory claims.
            if rows.div_ceil(64).saturating_mul(8 * width.max(1)) > len {
                return Err(StorageError::Corrupt(
                    "group directory claims more rows than its payload holds".into(),
                ));
            }
            table.push_group(match src {
                Source::Bytes(_) => GroupSlot::Mem(Arc::new(RowGroup::decode(
                    &payloads.take(len)?,
                    &schema,
                    rows as usize,
                    zones,
                )?)),
                Source::Paged(pager) => GroupSlot::Paged {
                    pager: pager.clone(),
                    offset: payloads.skip(len)?,
                    len: len as usize,
                    rows: rows as usize,
                    zones,
                },
            });
        }
        if payloads.pos != payloads.end {
            return Err(StorageError::Corrupt(
                "group payloads disagree with the directory".into(),
            ));
        }
        let tail = body.region()?;
        let mut cur = Cursor::new(&tail);
        while !cur.is_empty() {
            // The writer stores plain tail chunks; an encoded one is refused.
            table
                .append_batch(codec::read_batch(&mut cur, &schema)?)
                .map_err(|e| StorageError::Corrupt(format!("checkpoint tail chunk: {e}")))?;
        }
        tables.push((name, table));
    }
    Ok(CheckpointData { lsn, tables })
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
        codec::put_batch(&mut buf, &batch);
        codec::put_batch(&mut buf, &batch);
        let mut cur = Cursor::new(&buf);
        for _ in 0..2 {
            let back = codec::read_batch(&mut cur, batch.schema()).unwrap();
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
    fn other_versions_are_a_typed_error_from_both_readers() {
        use crate::metrics::Metrics;
        let path = temp_path("version-2");
        write_checkpoint(&path, 3, &[("t", &sample_table(64))]).unwrap();
        // Restamp the version word (after the magic) as 2 and reseal the CRC,
        // so only the version can be what either reader refuses.
        let mut bytes = fs::read(&path).unwrap();
        let body = bytes.len() - 4;
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let crc = codec::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let unsupported = |r: Result<Option<CheckpointData>>| matches!(r, Err(StorageError::Corrupt(m)) if m == "unsupported checkpoint version 2");
        assert!(unsupported(read_checkpoint(&path)));
        assert!(unsupported(open_checkpoint_paged(
            &path,
            4,
            &Metrics::new()
        )));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn both_opens_keep_the_directory_zone_maps() {
        use crate::metrics::Metrics;
        let path = temp_path("dir-zones");
        write_checkpoint(&path, 1, &[("t", &sample_table(10))]).unwrap();
        // Restamp the first group's `id` minimum in the directory (after the
        // header and payload regions, the group's row count and the value
        // tag) and reseal the CRC: an open that recomputed zone maps from
        // the payload would report 0 again.
        let mut bytes = fs::read(&path).unwrap();
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let header = u64_at(16) as usize;
        let dir = 24 + header + 8 + u64_at(24 + header) as usize + 8;
        let min_at = dir + 8 + 1;
        assert_eq!(bytes[min_at..min_at + 8], 0i64.to_le_bytes());
        bytes[min_at..min_at + 8].copy_from_slice(&(-7i64).to_le_bytes());
        let body = bytes.len() - 4;
        let crc = codec::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let resident = read_checkpoint(&path).unwrap().unwrap();
        let paged = open_checkpoint_paged(&path, 4, &Metrics::new())
            .unwrap()
            .unwrap();
        for data in [resident, paged] {
            assert_eq!(data.tables[0].1.group_zones(0)[0].min, Some(Value::Int(-7)));
        }
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
