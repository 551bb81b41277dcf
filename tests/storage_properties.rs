//! Property tests for the storage layer: encodings are lossless, batch
//! operators agree with a naive row model, zone maps never lie, and the
//! byte codec round-trips every batch exactly while hostile bytes — crafted
//! counts, mutated checkpoints, random batch payloads — give a typed error,
//! never a panic or an allocation the process cannot survive.

use backbone_core::durability::{decode_op, encode_insert};
use backbone_lab::cache::CacheSim;
use backbone_lab::eviction::PolicyKind;
use backbone_storage::bufferpool::BufferPool;
use backbone_storage::checkpoint::{
    open_checkpoint_paged, read_checkpoint, write_checkpoint, CheckpointData,
};
use backbone_storage::codec::{self, put_batch, read_batch, Cursor};
use backbone_storage::compress::{EncodedInts, ForLanes, RleI64};
use backbone_storage::disk::DiskManager;
use backbone_storage::page::PAGE_SIZE;
use backbone_storage::table::ZoneMap;
use backbone_storage::{
    Bitmap, Column, DataType, Field, Metrics, RecordBatch, Schema, StorageError, Table, Value,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The bytes of a `pages`-page file whose every page differs.
fn page_file_bytes(pages: usize) -> Vec<u8> {
    (0..pages * PAGE_SIZE).map(|i| (i % 251) as u8).collect()
}

/// A fresh path in the temp directory, unique within this process.
fn temp_file() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "backbone-storage-properties-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A pool of `capacity` frames over a fresh file holding `bytes`. The file
/// is unlinked once open; the pool's handle keeps it readable.
fn file_pool(bytes: &[u8], capacity: usize, metrics: &Metrics) -> Arc<BufferPool> {
    let path = temp_file();
    std::fs::write(&path, bytes).unwrap();
    let disk = Arc::new(DiskManager::open_file(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    BufferPool::with_metrics(disk, capacity, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rle_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..300)) {
        let enc = RleI64::encode(&values);
        prop_assert_eq!(enc.decode(), values.clone());
        // Random access through the run ends agrees with decode.
        let enc = EncodedInts::from_rle(enc);
        for (i, &v) in values.iter().enumerate().step_by(7) {
            prop_assert_eq!(enc.get(i), v);
        }
    }

    #[test]
    fn for_lanes_roundtrip(
        base in any::<i64>(),
        shift in 0u32..34,
        deltas in proptest::collection::vec(any::<u64>(), 1..300),
    ) {
        // Residuals up to 33 bits over any reference: up to 32 bits encode
        // as lanes of the narrowest width, past that there is no lane.
        let values: Vec<i64> = deltas
            .iter()
            .map(|&d| base.saturating_add((d >> (63 - shift) >> 1) as i64))
            .collect();
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let span = hi.wrapping_sub(lo) as u64;
        match ForLanes::encode(&values) {
            Some(enc) => {
                prop_assert!(span <= u32::MAX as u64);
                let want = if span <= 0xff { 1 } else if span <= 0xffff { 2 } else { 4 };
                prop_assert_eq!(enc.lane_bytes(), want);
                prop_assert_eq!(enc.reference, lo);
                prop_assert_eq!(enc.decode(), values.clone());
                for (i, &v) in values.iter().enumerate().step_by(5) {
                    prop_assert_eq!(enc.get(i), v);
                }
                prop_assert_eq!(ForLanes::from_packed(&enc.packed()), Some(enc));
            }
            None => prop_assert!(span > u32::MAX as u64),
        }
        prop_assert_eq!(EncodedInts::encode(&values).decode(), values);
    }

    #[test]
    fn for_lanes_small_domain_compresses(values in proptest::collection::vec(0i64..16, 64..256)) {
        let enc = EncodedInts::encode(&values);
        prop_assert!(enc.byte_size() < values.len() * 8 / 2,
            "expected >2x compression on 4-bit data: {} vs {}", enc.byte_size(), values.len() * 8);
    }

    #[test]
    fn dict_roundtrip(values in proptest::collection::vec("[a-d]{0,3}", 0..200)) {
        let plain = Column::from_strings(values.clone());
        let dict = plain.dict_encode().unwrap();
        prop_assert_eq!(dict.decoded().unwrap(), plain);
        prop_assert!(dict.utf8_distinct().unwrap() <= values.len().max(1));
    }

    /// selection ∘ take ∘ slice agree with a naive Vec<Vec<Value>> model.
    #[test]
    fn batch_ops_match_model(
        rows in proptest::collection::vec((any::<i64>(), proptest::option::of(-100i64..100)), 0..80),
        mask_seed in any::<u64>(),
    ) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::nullable("b", DataType::Int64),
        ]);
        let model: Vec<Vec<Value>> = rows
            .iter()
            .map(|(a, b)| vec![Value::Int(*a), b.map(Value::Int).unwrap_or(Value::Null)])
            .collect();
        let batch = RecordBatch::from_rows(schema, &model).unwrap();

        // filter: a selection of the masked rows, then one materialization
        let mask: Vec<bool> = (0..rows.len()).map(|i| (mask_seed >> (i % 64)) & 1 == 1).collect();
        let kept: Vec<u32> = (0..rows.len() as u32).filter(|&i| mask[i as usize]).collect();
        let filtered = batch.with_selection(Arc::new(kept)).unwrap().materialize();
        let model_filtered: Vec<&Vec<Value>> =
            model.iter().zip(&mask).filter(|(_, &m)| m).map(|(r, _)| r).collect();
        prop_assert_eq!(filtered.num_rows(), model_filtered.len());
        for (i, want) in model_filtered.iter().enumerate() {
            prop_assert_eq!(&filtered.row(i), *want);
        }

        // take of reversed indices
        if !rows.is_empty() {
            let idx: Vec<u32> = (0..rows.len() as u32).rev().collect();
            let taken = batch.take(&idx).unwrap();
            for (i, &j) in idx.iter().enumerate() {
                prop_assert_eq!(taken.row(i), model[j as usize].clone());
            }
        }

        // slice halves
        let half = rows.len() / 2;
        let sliced = batch.slice(half, rows.len() - half).unwrap();
        for i in 0..sliced.num_rows() {
            prop_assert_eq!(sliced.row(i), model[half + i].clone());
        }
    }

    /// Zone maps never refute a value that is actually present.
    #[test]
    fn zone_maps_are_sound(values in proptest::collection::vec(proptest::option::of(-50i64..50), 1..100)) {
        let col = Column::from_opt_i64(values.clone());
        let z = ZoneMap::from_column(&col);
        for v in values.iter().flatten() {
            prop_assert!(z.may_contain_eq(&Value::Int(*v)), "zone refuted existing value {v}");
            prop_assert!(z.may_contain_lt(&Value::Int(v + 1), false));
            prop_assert!(z.may_contain_gt(&Value::Int(v - 1), false));
        }
        prop_assert_eq!(z.null_count, values.iter().filter(|v| v.is_none()).count());
    }

    /// Tables reassemble exactly regardless of row-group size.
    #[test]
    fn table_grouping_is_transparent(
        rows in proptest::collection::vec(any::<i64>(), 0..120),
        group_size in 1usize..40,
    ) {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let mut t = Table::with_group_size(schema, group_size);
        for &x in &rows {
            t.append_row(vec![Value::Int(x)]).unwrap();
        }
        let batch = t.to_batch().unwrap();
        prop_assert_eq!(batch.num_rows(), rows.len());
        let got: Vec<i64> = (0..batch.num_rows())
            .map(|i| batch.row(i)[0].as_int().unwrap())
            .collect();
        prop_assert_eq!(got, rows);
    }

    /// For any trace and capacity, the pool never holds more than its
    /// capacity and every fetch returns the file's page — also while the
    /// caller keeps earlier pages alive past their eviction.
    #[test]
    fn pool_stays_bounded_and_serves_file_pages(
        trace in proptest::collection::vec(0u64..12, 1..200),
        capacity in 1usize..6,
        hold in 0usize..8,
    ) {
        let bytes = page_file_bytes(12);
        let pool = file_pool(&bytes, capacity, &Metrics::new());
        let mut held = Vec::new();
        for &id in &trace {
            let page = pool.fetch(id).unwrap();
            let start = id as usize * PAGE_SIZE;
            prop_assert_eq!(page.read_at(0, PAGE_SIZE), &bytes[start..start + PAGE_SIZE]);
            prop_assert!(pool.resident() <= capacity);
            if held.len() < hold {
                held.push((id, page));
            }
        }
        for (id, page) in &held {
            let start = *id as usize * PAGE_SIZE;
            prop_assert_eq!(page.read_at(0, PAGE_SIZE), &bytes[start..start + PAGE_SIZE]);
        }
    }

    /// The product pool is the lab's LRU: on any trace and capacity, its
    /// `bufferpool.{hits,misses,evictions}` equal `CacheSim`'s under
    /// `PolicyKind::Lru`, so E4's LRU row describes the pool the engine runs.
    #[test]
    fn product_pool_matches_lab_lru(
        trace in proptest::collection::vec(0u64..16, 1..300),
        capacity in 1usize..12,
    ) {
        let metrics = Metrics::new();
        let pool = file_pool(&page_file_bytes(16), capacity, &metrics);
        for &id in &trace {
            pool.fetch(id).unwrap();
        }
        let lab = CacheSim::new(capacity, PolicyKind::Lru.build(capacity, None)).run(&trace);
        let v = |c: &str| metrics.value(&format!("bufferpool.{c}"));
        prop_assert_eq!(
            (v("hits"), v("misses"), v("evictions")),
            (lab.hits, lab.misses, lab.evictions)
        );
    }

    /// Column concat is associative with respect to content.
    #[test]
    fn concat_associativity(
        a in proptest::collection::vec(any::<i64>(), 0..40),
        b in proptest::collection::vec(any::<i64>(), 0..40),
        c in proptest::collection::vec(any::<i64>(), 0..40),
    ) {
        let ca = Column::from_i64(a.clone());
        let cb = Column::from_i64(b.clone());
        let cc = Column::from_i64(c.clone());
        let left = Column::concat(&[&Column::concat(&[&ca, &cb]).unwrap(), &cc]).unwrap();
        let right = Column::concat(&[&ca, &Column::concat(&[&cb, &cc]).unwrap()]).unwrap();
        prop_assert_eq!(left.i64_data().unwrap(), right.i64_data().unwrap());
        let expected: Vec<i64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(left.i64_data().unwrap(), &expected[..]);
    }
}

#[test]
fn buffer_pool_hit_rate_monotone_in_capacity() {
    let trace: Vec<u64> = (0..500).map(|i| (i * i) % 16).collect();
    let bytes = page_file_bytes(16);
    let mut previous = -1.0f64;
    for cap in [2usize, 4, 8, 16] {
        let metrics = Metrics::new();
        let pool = file_pool(&bytes, cap, &metrics);
        for &id in &trace {
            pool.fetch(id).unwrap();
        }
        let rate =
            metrics.value("bufferpool.hits") as f64 / metrics.value("bufferpool.lookups") as f64;
        assert!(rate >= previous, "hit rate dropped with capacity {cap}");
        previous = rate;
    }
}

/// Bit-exact column equality: floats compare by `to_bits`, so NaN payloads
/// and −0.0 count; every other representation compares whole (values, NULL
/// placeholders, validity and encoding).
fn same_column(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::Float64(x, xv), Column::Float64(y, yv)) => {
            xv == yv
                && x.iter()
                    .map(|f| f.to_bits())
                    .eq(y.iter().map(|f| f.to_bits()))
        }
        _ => a == b,
    }
}

/// A generated table row: one optional value per plain type.
type PlainRow = (Option<i64>, Option<f64>, Option<String>, Option<bool>);

fn plain_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::nullable("i", DataType::Int64),
        Field::nullable("f", DataType::Float64),
        Field::nullable("s", DataType::Utf8),
        Field::nullable("b", DataType::Bool),
    ])
}

/// `rows` as typed columns built directly, not through `Value`s.
fn plain_batch(rows: &[PlainRow]) -> RecordBatch {
    let validity = |valid: &dyn Fn(&PlainRow) -> bool| {
        Bitmap::from_bools(&rows.iter().map(valid).collect::<Vec<_>>())
    };
    let columns = vec![
        Column::from_opt_i64(rows.iter().map(|r| r.0).collect()),
        Column::from_opt_f64(rows.iter().map(|r| r.1).collect()),
        Column::Utf8(
            rows.iter()
                .map(|r| r.2.clone().unwrap_or_default())
                .collect(),
            validity(&|r| r.2.is_some()),
        ),
        Column::Bool(
            rows.iter().map(|r| r.3.unwrap_or(false)).collect(),
            validity(&|r| r.3.is_some()),
        ),
    ];
    RecordBatch::try_new(plain_schema(), columns.into_iter().map(Arc::new).collect()).unwrap()
}

fn same_batches(
    a: impl Iterator<Item = RecordBatch>,
    b: impl Iterator<Item = RecordBatch>,
) -> bool {
    let (a, b): (Vec<_>, Vec<_>) = (a.collect(), b.collect());
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.num_columns() == y.num_columns()
                && x.columns()
                    .iter()
                    .zip(y.columns())
                    .all(|(p, q)| same_column(p, q))
        })
}

/// Sealed groups (columns and zone maps) and tail chunks of `a` and `b`.
fn same_table(a: &Table, b: &Table) -> bool {
    a.num_rows() == b.num_rows()
        && a.num_groups() == b.num_groups()
        && (0..a.num_groups()).all(|g| {
            let (x, y) = (a.group(g).unwrap(), b.group(g).unwrap());
            format!("{:?}", x.zones()) == format!("{:?}", y.zones())
                && same_batches(
                    std::iter::once(x.batch().clone()),
                    std::iter::once(y.batch().clone()),
                )
        })
        && same_batches(a.tail_batches(), b.tail_batches())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Typed batches cut at random sizes land exactly as the same rows
    /// appended as `Value`s: the same sealed groups, zone maps and tail
    /// chunks (at 1,100 rows a group, chunks freeze inside the tail), which
    /// read back as the rows. A
    /// batch of the wrong arity or type, or with an encoded column, is a
    /// typed error that leaves the table untouched.
    #[test]
    fn append_batch_matches_append_rows(
        rows in proptest::collection::vec(
            (
                proptest::option::of(any::<i64>()),
                proptest::option::of(awkward_f64()),
                proptest::option::of("[a-zλ]{0,6}"),
                proptest::option::of(any::<bool>()),
            ),
            0..2500,
        ),
        cuts in proptest::collection::vec(1usize..1500, 1..8),
    ) {
        let values: Vec<Vec<Value>> = rows
            .iter()
            .map(|(i, f, s, b)| {
                vec![
                    i.map_or(Value::Null, Value::Int),
                    f.map_or(Value::Null, Value::Float),
                    s.as_ref().map_or(Value::Null, Value::str),
                    b.map_or(Value::Null, Value::Bool),
                ]
            })
            .collect();
        for group in [64, 100, 1100] {
            let mut by_rows = Table::with_group_size(plain_schema(), group);
            by_rows.append_rows(&values).unwrap();
            let mut by_batches = Table::with_group_size(plain_schema(), group);
            let (mut at, mut k) = (0, 0);
            while at < rows.len() {
                let n = cuts[k % cuts.len()].min(rows.len() - at);
                by_batches
                    .append_batch(plain_batch(&rows[at..at + n]))
                    .unwrap();
                at += n;
                k += 1;
            }
            prop_assert!(same_table(&by_rows, &by_batches), "group size {group}");
            prop_assert!(by_batches.to_batch().unwrap().to_rows() == values, "group size {group}");

            // Bad batches over up to 70 of the rows: the last three
            // columns; `i` and `f` swapped; `s` dictionary-encoded; `i`
            // encoded (frame-of-reference lanes or RLE runs).
            let good = plain_batch(&rows[..rows.len().min(70)]);
            let columns = good.columns();
            let with = |schema: Arc<Schema>, columns: Vec<Arc<Column>>| {
                RecordBatch::try_new(schema, columns).unwrap()
            };
            let mut swapped = plain_schema().fields().to_vec();
            swapped.swap(0, 1);
            let encoded = |c: usize, col: Column| {
                let mut columns = columns.to_vec();
                columns[c] = Arc::new(col);
                with(plain_schema(), columns)
            };
            let bad = [
                (
                    "arity",
                    with(
                        Schema::new(plain_schema().fields()[1..].to_vec()),
                        columns[1..].to_vec(),
                    ),
                ),
                (
                    "type",
                    with(
                        Schema::new(swapped),
                        vec![
                            columns[1].clone(),
                            columns[0].clone(),
                            columns[2].clone(),
                            columns[3].clone(),
                        ],
                    ),
                ),
                ("dictionary", encoded(2, columns[2].dict_encode().unwrap())),
                ("encoded ints", encoded(0, columns[0].int64_encode().unwrap())),
            ];
            for (case, batch) in bad {
                let before = by_batches.clone();
                let got = by_batches.append_batch(batch);
                let typed = matches!(
                    got,
                    Err(StorageError::SchemaMismatch(_) | StorageError::TypeMismatch { .. })
                );
                prop_assert!(typed, "group size {group}, {case}: {got:?}");
                prop_assert!(same_table(&before, &by_batches), "group size {group}, {case}");
            }
        }
    }
}

/// A generated row: one optional value per plain type, then a key in
/// `0..4` that drives the dictionary, lane and RLE columns and their NULLs.
type CodecRow = (Option<i64>, Option<f64>, Option<String>, Option<bool>, u8);

/// One plain column per type with NULLs, then a dictionary, a
/// frame-of-reference and an RLE column over the same rows.
fn codec_batch(rows: &[CodecRow]) -> RecordBatch {
    let n = rows.len();
    let validity =
        |valid: &dyn Fn(usize) -> bool| Bitmap::from_bools(&(0..n).map(valid).collect::<Vec<_>>());
    let strings = ["", "ünïcødé €😀", "a", "λ"];
    let utf8 = Column::Utf8(
        rows.iter()
            .map(|r| r.2.clone().unwrap_or_default())
            .collect(),
        validity(&|i| rows[i].2.is_some()),
    );
    let bools = Column::Bool(
        rows.iter().map(|r| r.3.unwrap_or(false)).collect(),
        validity(&|i| rows[i].3.is_some()),
    );
    let dict = Column::Utf8(
        rows.iter()
            .map(|r| strings[r.4 as usize].to_string())
            .collect(),
        validity(&|i| rows[i].4 != 1),
    )
    .dict_encode()
    .unwrap();
    let lane_values: Vec<i64> = (0..n as i64)
        .map(|i| 1_000 * i64::from(rows[i as usize].4) + i % 7)
        .collect();
    let lanes = Column::encoded_from_parts(
        EncodedInts::For(ForLanes::encode(&lane_values).unwrap()),
        validity(&|i| rows[i].4 != 2),
    );
    let run_values: Vec<i64> = (0..n as i64).map(|i| (i / 16) << 40).collect();
    let runs = Column::encoded_from_parts(
        EncodedInts::from_rle(RleI64::encode(&run_values)),
        validity(&|i| rows[i].4 != 3),
    );
    let schema = Schema::new(vec![
        Field::nullable("i", DataType::Int64),
        Field::nullable("f", DataType::Float64),
        Field::nullable("s", DataType::Utf8),
        Field::nullable("b", DataType::Bool),
        Field::nullable("d", DataType::Utf8),
        Field::nullable("l", DataType::Int64),
        Field::nullable("r", DataType::Int64),
    ]);
    let columns = vec![
        Column::from_opt_i64(rows.iter().map(|r| r.0).collect()),
        Column::from_opt_f64(rows.iter().map(|r| r.1).collect()),
        utf8,
        bools,
        dict,
        lanes,
        runs,
    ];
    RecordBatch::try_new(schema, columns.into_iter().map(Arc::new).collect()).unwrap()
}

/// Floats the codec must keep bit for bit: NaNs with payloads, both zeros,
/// infinities, ordinary values.
fn awkward_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        (0u64..1 << 51).prop_map(|p| f64::from_bits(0x7ff8_0000_0000_0000 | p)),
        (0u64..1 << 51).prop_map(|p| f64::from_bits(0xfff0_0000_0000_0001 | p)),
        Just(-0.0),
        Just(0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `put_batch`/`read_batch` give back the batch exactly: values, NULL
    /// placeholders, validity and physical encoding. A slice comes back
    /// with the same values and encodings, except that lanes reopen at the
    /// narrowest width the slice's residuals need (lanes are stored
    /// bit-packed at the exact width of the largest residual).
    #[test]
    fn batch_codec_round_trips_values_validity_and_encodings(
        rows in proptest::collection::vec(
            (
                proptest::option::of(any::<i64>()),
                proptest::option::of(awkward_f64()),
                proptest::option::of("[a-zλ]{0,8}"),
                proptest::option::of(any::<bool>()),
                0u8..4,
            ),
            1..300,
        ),
        cut in (any::<u16>(), any::<u16>()),
    ) {
        let batch = codec_batch(&rows);
        let offset = cut.0 as usize % rows.len();
        let len = cut.1 as usize % (rows.len() - offset + 1);
        let sliced = batch.slice(offset, len).unwrap();
        let plain = |c: &Column| c.decoded().unwrap_or_else(|| c.clone());
        let lane_bytes = |c: &Column| {
            c.encoded_parts().and_then(|(data, _)| data.lanes()).map(|l| l.lane_bytes())
        };
        for (batch, whole) in [(&batch, true), (&sliced, false)] {
            let mut buf = Vec::new();
            put_batch(&mut buf, batch);
            let mut cur = Cursor::new(&buf);
            let back = read_batch(&mut cur, batch.schema()).unwrap();
            prop_assert!(cur.is_empty());
            prop_assert_eq!(back.num_rows(), batch.num_rows());
            for (a, b) in batch.columns().iter().zip(back.columns()) {
                if whole {
                    prop_assert!(same_column(a, b), "{a:?} came back as {b:?}");
                } else {
                    prop_assert!(same_column(&plain(a), &plain(b)), "{a:?} came back as {b:?}");
                    prop_assert_eq!(std::mem::discriminant(&**a), std::mem::discriminant(&**b));
                    prop_assert!(lane_bytes(b) <= lane_bytes(a));
                }
            }
        }
    }
}

/// `bytes` with the CRC trailer recomputed over everything before it, so a
/// reader can refuse them only for what they say.
fn reseal(bytes: &mut [u8]) {
    if let Some(body) = bytes.len().checked_sub(4) {
        let crc = codec::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The bytes of a checkpoint of `tables`.
fn checkpoint_bytes(tables: &[(&str, &Table)]) -> Vec<u8> {
    let path = temp_file();
    write_checkpoint(&path, 7, tables).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Open checkpoint `bytes` resident and paged. Each table an open returns
/// is read whole, so paged groups decode too; that read's error is the
/// open's.
fn open_both(bytes: &[u8]) -> [backbone_storage::error::Result<()>; 2] {
    let path = temp_file();
    std::fs::write(&path, bytes).unwrap();
    let read_all = |data: backbone_storage::error::Result<Option<CheckpointData>>| {
        for (_, t) in data?.expect("the file exists").tables {
            t.to_batch()?;
        }
        Ok(())
    };
    let opened = [
        read_all(read_checkpoint(&path)),
        read_all(open_checkpoint_paged(&path, 4, &Metrics::new())),
    ];
    std::fs::remove_file(&path).unwrap();
    opened
}

fn events_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::nullable("region", DataType::Utf8),
        Field::nullable("amount", DataType::Int64),
        Field::nullable("price", DataType::Float64),
        Field::nullable("flag", DataType::Bool),
    ])
}

/// `events` seals three encoded 64-row groups (dictionary, RLE and
/// frame-of-reference columns) and keeps a 9-row tail with NULLs; `notes`
/// is a tail alone.
fn fuzz_tables() -> (Table, Table) {
    let mut events = Table::with_group_size(events_schema(), 64);
    for i in 0..201i64 {
        let null_or = |v: Value| if i % 5 == 0 { Value::Null } else { v };
        events
            .append_row(vec![
                Value::Int(i / 16),
                null_or(Value::str(["north", "south", "east"][i as usize % 3])),
                null_or(Value::Int(1_000 + i % 37)),
                null_or(Value::Float(i as f64 / 4.0)),
                null_or(Value::Bool(i % 2 == 0)),
            ])
            .unwrap();
    }
    let mut notes = Table::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::nullable("text", DataType::Utf8),
    ]));
    for i in 0..5i64 {
        let text = if i == 2 {
            Value::Null
        } else {
            Value::str(format!("note {i} ü"))
        };
        notes.append_row(vec![Value::Int(i), text]).unwrap();
    }
    (events, notes)
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Every count the decoders read is checked against the bytes left before
/// anything is sized by it: each crafted input is `Corrupt`, not an
/// allocation that aborts the process. So is a checkpoint tail chunk in an
/// encoding the writer never stores there.
#[test]
fn crafted_counts_are_corrupt_not_allocations() {
    fn corrupt<T>(r: backbone_storage::error::Result<T>) -> bool {
        matches!(r, Err(StorageError::Corrupt(_)))
    }
    let int = Schema::new(vec![Field::nullable("x", DataType::Int64)]);
    let text = Schema::new(vec![Field::nullable("s", DataType::Utf8)]);
    let max32 = &u32::MAX.to_le_bytes()[..];
    let one = &1u64.to_le_bytes()[..];
    let huge = &(1u64 << 40).to_le_bytes()[..];
    let batches: [(&str, &Arc<Schema>, Vec<u8>); 7] = [
        // A zero-width packing has no words to bound its length: only the
        // row count's own bound stops a 2^40-value decode.
        (
            "2^40 rows in a zero-width packed chunk",
            &int,
            [huge, &[2, 1], &[0; 9], huge, &[0; 4]].concat(),
        ),
        ("2^40 rows, then a plain chunk", &int, [huge, &[0]].concat()),
        (
            "u32::MAX dictionary entries",
            &text,
            [one, &[1], max32, &[0; 16]].concat(),
        ),
        (
            "u32::MAX RLE runs",
            &int,
            [one, &[2, 0], one, max32, &[0; 16]].concat(),
        ),
        (
            "u32::MAX validity words",
            &int,
            [one, &[0], &[7; 8], max32, &[0; 8]].concat(),
        ),
        (
            "u32::MAX bit-packed words",
            &int,
            [one, &[2, 1], &[0; 9], one, max32, &[0; 8]].concat(),
        ),
        (
            "64 strings in 8 bytes",
            &text,
            [&64u64.to_le_bytes()[..], &[0], &[0; 8]].concat(),
        ),
    ];
    for (case, schema, bytes) in &batches {
        assert!(
            corrupt(read_batch(&mut Cursor::new(bytes), schema)),
            "batch: {case}"
        );
    }
    let fields = [max32, &[0; 8]].concat();
    assert!(
        corrupt(codec::read_schema(&mut Cursor::new(&fields))),
        "u32::MAX schema fields"
    );

    // WAL insert records: the row count, then one row's width, as u32::MAX.
    for rows in [vec![], vec![vec![]]] {
        let mut record = encode_insert("t", &rows);
        let at = record.len() - 4;
        record[at..].copy_from_slice(max32);
        let got = decode_op(&record);
        assert!(
            matches!(
                got,
                Err(backbone_core::Error::Storage(StorageError::Corrupt(_)))
            ),
            "WAL insert of {} rows with a u32::MAX count",
            rows.len()
        );
    }

    // Checkpoints, CRC resealed, through both opens. Table 0's header
    // region starts at 16: its u64 length, then the name and the schema's
    // field count. The payload, directory and tail regions follow, each
    // after its u64 length.
    let (events, notes) = fuzz_tables();
    let sealed = checkpoint_bytes(&[("events", &events)]);
    let tail_only = checkpoint_bytes(&[("notes", &notes)]);
    let header = u64_at(&sealed, 16);
    let fields_at = 24 + 4 + "events".len();
    let dir_at = 32 + header + u64_at(&sealed, 24 + header);
    let tail_header = u64_at(&tail_only, 16);
    // `notes` has no groups: empty payload and directory regions, then
    // the tail region, whose first chunk starts with its row count.
    let tail_rows_at = 24 + tail_header + 3 * 8;
    let cases: [(&str, &[u8], usize, Vec<u8>); 4] = [
        (
            "header region of u64::MAX bytes",
            &sealed,
            16,
            u64::MAX.to_le_bytes().to_vec(),
        ),
        ("u32::MAX schema fields", &sealed, fields_at, max32.to_vec()),
        (
            "a group of u64::MAX rows",
            &sealed,
            dir_at + 8,
            u64::MAX.to_le_bytes().to_vec(),
        ),
        (
            "a tail chunk of 2^40 rows",
            &tail_only,
            tail_rows_at,
            (1u64 << 40).to_le_bytes().to_vec(),
        ),
    ];
    for (case, base, at, patch) in cases {
        assert!(
            open_both(base).iter().all(|r| r.is_ok()),
            "{case}: the unpatched file opens"
        );
        let mut bytes = base.to_vec();
        bytes[at..at + patch.len()].copy_from_slice(&patch);
        reseal(&mut bytes);
        for (open, got) in ["resident", "paged"].iter().zip(open_both(&bytes)) {
            assert!(corrupt(got), "checkpoint, {open} open: {case}");
        }
    }

    // The writer stores plain tail chunks, and the tail seals from plain
    // chunks alone: a tail region holding a dictionary or frame-of-reference
    // chunk is refused at the open, not left to panic at the seal.
    let ids = Arc::new(Column::from_i64((0..70).collect()));
    let texts = Column::from_strings((0..70).map(|i| format!("t{}", i % 3)).collect());
    let encoded = [
        (
            "dictionary",
            vec![ids.clone(), Arc::new(texts.dict_encode().unwrap())],
        ),
        (
            "frame-of-reference",
            vec![Arc::new(ids.int64_encode().unwrap()), Arc::new(texts)],
        ),
    ];
    for (case, columns) in encoded {
        let chunk = RecordBatch::try_new(notes.schema().clone(), columns).unwrap();
        let mut region = Vec::new();
        put_batch(&mut region, &chunk);
        let at = tail_rows_at - 8;
        let mut bytes = [
            &tail_only[..at],
            &(region.len() as u64).to_le_bytes(),
            &region,
            &[0; 4],
        ]
        .concat();
        reseal(&mut bytes);
        for (open, got) in ["resident", "paged"].iter().zip(open_both(&bytes)) {
            assert!(corrupt(got), "checkpoint, {open} open: a {case} tail chunk");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// A checkpoint with one byte flipped, cut short, or one u32/u64
    /// overwritten anywhere — CRC resealed, so the structure is what gets
    /// tested — opens resident and paged to `Ok` or a typed error.
    #[test]
    fn mutated_checkpoints_open_or_fail_typed(
        kind in 0u8..3,
        at in any::<u64>(),
        value in any::<u64>(),
        shift in 0u32..64,
        wide in any::<bool>(),
    ) {
        let (events, notes) = fuzz_tables();
        let mut bytes = checkpoint_bytes(&[("events", &events), ("notes", &notes)]);
        let body = bytes.len() - 4;
        let at = (at % body as u64) as usize;
        // Small values as often as huge ones: counts near the truth get
        // further into the decoders.
        let value = value >> shift;
        match kind {
            0 => bytes[at] ^= (value % 255) as u8 + 1,
            1 => bytes.truncate(at),
            _ => {
                let width = if wide { 8 } else { 4 };
                let at = at.min(body - width);
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
        }
        reseal(&mut bytes);
        // A panic fails the test; any `Err` is a typed `StorageError`.
        let _ = open_both(&bytes);
    }

    /// Random bytes after a small row count decode against a fixed schema
    /// to a batch or a typed error.
    #[test]
    fn random_bytes_read_batch_or_fail_typed(
        rows in 0u64..200,
        bytes in proptest::collection::vec(prop_oneof![0u8..4, any::<u8>()], 0..400),
    ) {
        let buf = [&rows.to_le_bytes()[..], &bytes].concat();
        let _ = read_batch(&mut Cursor::new(&buf), &events_schema());
    }
}
