//! Property tests for the storage layer: encodings are lossless, batch
//! operators agree with a naive row model, and zone maps never lie.

use backbone_lab::cache::CacheSim;
use backbone_lab::eviction::PolicyKind;
use backbone_storage::bufferpool::BufferPool;
use backbone_storage::compress::{EncodedInts, ForLanes, RleI64};
use backbone_storage::disk::DiskManager;
use backbone_storage::page::PAGE_SIZE;
use backbone_storage::table::ZoneMap;
use backbone_storage::{Column, DataType, Field, Metrics, RecordBatch, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The bytes of a `pages`-page file whose every page differs.
fn page_file_bytes(pages: usize) -> Vec<u8> {
    (0..pages * PAGE_SIZE).map(|i| (i % 251) as u8).collect()
}

/// A pool of `capacity` frames over a fresh file holding `bytes`. The file
/// is unlinked once open; the pool's handle keeps it readable.
fn file_pool(bytes: &[u8], capacity: usize, metrics: &Metrics) -> Arc<BufferPool> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "backbone-storage-properties-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
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
