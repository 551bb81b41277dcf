//! TPC-H-like data generation.
//!
//! Same schema shape and cardinality ratios as TPC-H, deterministic
//! synthetic value distributions (dbgen's text pools are not available
//! offline). Dates are integer day offsets from 1992-01-01; the classic
//! 7-year window spans days `0..=2405`.
//!
//! Loading builds columns, not rows: each value is drawn straight into a
//! typed buffer, and every [`TAIL_CHUNK_ROWS`] rows the buffers go to
//! [`Table::append_batch`] as one batch, which the table keeps as a tail
//! chunk without copying it. The draws keep the order of the row-at-a-time
//! generator this replaced, so every table is bit-identical to it
//! (`tests::generate_matches_row_path` keeps that generator as the
//! reference).

use backbone_query::MemCatalog;
use backbone_storage::table::TAIL_CHUNK_ROWS;
use backbone_storage::{Column, DataType, Field, RecordBatch, Schema, Table};
use rand::prelude::*;
use std::sync::Arc;

/// Day offset of 1998-12-01 minus 90 days — Q1's classic cutoff.
pub const Q1_CUTOFF_DAY: i64 = 2406 - 120;
/// Total days in the order-date window.
pub const DATE_DAYS: i64 = 2406;

/// Market segments (TPC-H has 5).
pub const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
/// Region names.
pub const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"];
/// Return flags.
pub const RETURN_FLAGS: &[&str] = &["A", "N", "R"];
/// Line statuses.
pub const LINE_STATUSES: &[&str] = &["F", "O"];

/// Row counts at a given scale factor (TPC-H ratios, fractional SF allowed).
#[derive(Debug, Clone, Copy)]
pub struct TpchSizes {
    /// `supplier` rows.
    pub supplier: usize,
    /// `customer` rows.
    pub customer: usize,
    /// `part` rows.
    pub part: usize,
    /// `orders` rows.
    pub orders: usize,
    /// Expected `lineitem` rows (actual count varies ±, avg 4 lines/order).
    pub lineitem_approx: usize,
}

impl TpchSizes {
    /// Sizes at scale factor `sf`.
    pub fn at(sf: f64) -> TpchSizes {
        let n = |base: f64| ((base * sf).round() as usize).max(1);
        TpchSizes {
            supplier: n(10_000.0),
            customer: n(150_000.0),
            part: n(200_000.0),
            orders: n(1_500_000.0),
            lineitem_approx: n(6_000_000.0),
        }
    }
}

/// Generate all eight tables at scale factor `sf` into a fresh catalog.
///
/// Deterministic for a given `(sf, seed)`. Rows are drawn one at a time
/// into typed column buffers, and each table gets one batch per tail
/// chunk: no `Value` per cell.
pub fn generate(sf: f64, seed: u64) -> MemCatalog {
    let sizes = TpchSizes::at(sf);
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = MemCatalog::new();

    // region
    let mut region = Loader::new(Schema::new(vec![
        Field::new("r_regionkey", DataType::Int64),
        Field::new("r_name", DataType::Utf8),
    ]));
    for (i, name) in REGIONS.iter().enumerate() {
        region.int(i as i64).str(*name).end_row();
    }
    catalog.register("region", region.finish());

    // nation: 25 nations, 5 per region.
    let mut nation = Loader::new(Schema::new(vec![
        Field::new("n_nationkey", DataType::Int64),
        Field::new("n_name", DataType::Utf8),
        Field::new("n_regionkey", DataType::Int64),
    ]));
    for i in 0..25i64 {
        nation
            .int(i)
            .str(format!("NATION_{i:02}"))
            .int(i % 5)
            .end_row();
    }
    catalog.register("nation", nation.finish());

    // supplier
    let mut supplier = Loader::new(Schema::new(vec![
        Field::new("s_suppkey", DataType::Int64),
        Field::new("s_name", DataType::Utf8),
        Field::new("s_nationkey", DataType::Int64),
        Field::new("s_acctbal", DataType::Float64),
    ]));
    for i in 0..sizes.supplier as i64 {
        supplier
            .int(i)
            .str(format!("Supplier#{i:09}"))
            .int(rng.gen_range(0..25))
            .float((rng.gen_range(-99_999..1_000_000) as f64) / 100.0)
            .end_row();
    }
    catalog.register("supplier", supplier.finish());

    // part
    let mut part = Loader::new(Schema::new(vec![
        Field::new("p_partkey", DataType::Int64),
        Field::new("p_name", DataType::Utf8),
        Field::new("p_retailprice", DataType::Float64),
        Field::new("p_size", DataType::Int64),
    ]));
    for i in 0..sizes.part as i64 {
        part.int(i)
            .str(format!("part {} {}", COLORS[i as usize % COLORS.len()], i))
            .float(900.0 + (i % 1000) as f64 / 10.0)
            .int(rng.gen_range(1..=50))
            .end_row();
    }
    catalog.register("part", part.finish());

    // customer
    let mut customer = Loader::new(Schema::new(vec![
        Field::new("c_custkey", DataType::Int64),
        Field::new("c_name", DataType::Utf8),
        Field::new("c_nationkey", DataType::Int64),
        Field::new("c_acctbal", DataType::Float64),
        Field::new("c_mktsegment", DataType::Utf8),
    ]));
    for i in 0..sizes.customer as i64 {
        customer
            .int(i)
            .str(format!("Customer#{i:09}"))
            .int(rng.gen_range(0..25))
            .float((rng.gen_range(-99_999..1_000_000) as f64) / 100.0)
            .str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())])
            .end_row();
    }
    catalog.register("customer", customer.finish());

    // orders + lineitem
    let mut orders = Loader::new(Schema::new(vec![
        Field::new("o_orderkey", DataType::Int64),
        Field::new("o_custkey", DataType::Int64),
        Field::new("o_orderdate", DataType::Int64),
        Field::new("o_totalprice", DataType::Float64),
        Field::new("o_orderstatus", DataType::Utf8),
        Field::new("o_shippriority", DataType::Int64),
    ]));
    let mut lineitem = Loader::new(Schema::new(vec![
        Field::new("l_orderkey", DataType::Int64),
        Field::new("l_partkey", DataType::Int64),
        Field::new("l_suppkey", DataType::Int64),
        Field::new("l_linenumber", DataType::Int64),
        Field::new("l_quantity", DataType::Float64),
        Field::new("l_extendedprice", DataType::Float64),
        Field::new("l_discount", DataType::Float64),
        Field::new("l_tax", DataType::Float64),
        Field::new("l_returnflag", DataType::Utf8),
        Field::new("l_linestatus", DataType::Utf8),
        Field::new("l_shipdate", DataType::Int64),
    ]));
    for o in 0..sizes.orders as i64 {
        let orderdate = rng.gen_range(0..DATE_DAYS - 151);
        let custkey = rng.gen_range(0..sizes.customer as i64);
        let lines = rng.gen_range(1..=7);
        let mut total = 0.0;
        for l in 0..lines {
            let quantity = rng.gen_range(1..=50) as f64;
            let partkey = rng.gen_range(0..sizes.part as i64);
            let price = quantity * (900.0 + (partkey % 1000) as f64 / 10.0) / 10.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = orderdate + rng.gen_range(1..=121);
            // Past shipments skew to returned/filled like the spec's
            // date-correlated flags.
            let returnflag = if shipdate < DATE_DAYS / 2 {
                RETURN_FLAGS[rng.gen_range(0..2)]
            } else {
                "N"
            };
            let linestatus = if shipdate < DATE_DAYS - 200 { "F" } else { "O" };
            total += price * (1.0 - discount) * (1.0 + tax);
            lineitem
                .int(o)
                .int(partkey)
                .int(rng.gen_range(0..sizes.supplier as i64))
                .int(l + 1)
                .float(quantity)
                .float(price)
                .float(discount)
                .float(tax)
                .str(returnflag)
                .str(linestatus)
                .int(shipdate)
                .end_row();
        }
        orders
            .int(o)
            .int(custkey)
            .int(orderdate)
            .float(total)
            .str(if orderdate < DATE_DAYS / 2 { "F" } else { "O" })
            .int(rng.gen_range(0..5))
            .end_row();
    }
    catalog.register("orders", orders.finish());
    catalog.register("lineitem", lineitem.finish());
    catalog
}

/// One table being generated: a typed buffer per column, filled a row at a
/// time in schema order and appended to the table as one batch every
/// [`TAIL_CHUNK_ROWS`] rows, so each batch becomes a tail chunk as it is.
struct Loader {
    table: Table,
    buffers: Vec<Buffer>,
    /// The column the next value goes to.
    next: usize,
    rows: usize,
}

/// One column's values since the last batch.
enum Buffer {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
}

impl Loader {
    fn new(schema: Arc<Schema>) -> Loader {
        let buffers = schema
            .fields()
            .iter()
            .map(|f| match f.data_type {
                DataType::Int64 => Buffer::Int(Vec::with_capacity(TAIL_CHUNK_ROWS)),
                DataType::Float64 => Buffer::Float(Vec::with_capacity(TAIL_CHUNK_ROWS)),
                DataType::Utf8 => Buffer::Str(Vec::with_capacity(TAIL_CHUNK_ROWS)),
                DataType::Bool => unreachable!("no TPC-H column is boolean"),
            })
            .collect();
        Loader {
            table: Table::new(schema),
            buffers,
            next: 0,
            rows: 0,
        }
    }

    /// The next column's buffer.
    fn buffer(&mut self) -> &mut Buffer {
        self.next += 1;
        &mut self.buffers[self.next - 1]
    }

    fn int(&mut self, v: i64) -> &mut Loader {
        let Buffer::Int(values) = self.buffer() else {
            unreachable!("the schema's column is INT64")
        };
        values.push(v);
        self
    }

    fn float(&mut self, v: f64) -> &mut Loader {
        let Buffer::Float(values) = self.buffer() else {
            unreachable!("the schema's column is FLOAT64")
        };
        values.push(v);
        self
    }

    fn str(&mut self, v: impl Into<String>) -> &mut Loader {
        let Buffer::Str(values) = self.buffer() else {
            unreachable!("the schema's column is UTF8")
        };
        values.push(v.into());
        self
    }

    /// Close a row that set every column.
    fn end_row(&mut self) {
        assert_eq!(self.next, self.buffers.len(), "a row sets every column");
        self.next = 0;
        self.rows += 1;
        if self.rows == TAIL_CHUNK_ROWS {
            self.append();
        }
    }

    /// Append the buffered rows as one batch.
    fn append(&mut self) {
        fn take<T>(v: &mut Vec<T>) -> Vec<T> {
            std::mem::replace(v, Vec::with_capacity(TAIL_CHUNK_ROWS))
        }
        let columns = self
            .buffers
            .iter_mut()
            .map(|b| {
                Arc::new(match b {
                    Buffer::Int(v) => Column::from_i64(take(v)),
                    Buffer::Float(v) => Column::from_f64(take(v)),
                    Buffer::Str(v) => Column::from_strings(take(v)),
                })
            })
            .collect();
        let batch = RecordBatch::try_new(self.table.schema().clone(), columns)
            .expect("the buffers follow the schema");
        self.table
            .append_batch(batch)
            .expect("plain columns of the schema's types");
        self.rows = 0;
    }

    /// The table, with every buffered row appended.
    fn finish(mut self) -> Table {
        self.append();
        self.table
    }
}

const COLORS: &[&str] = &[
    "almond",
    "azure",
    "beige",
    "blush",
    "chiffon",
    "coral",
    "cream",
    "drab",
    "firebrick",
    "forest",
    "ghost",
    "honeydew",
    "ivory",
    "khaki",
    "lace",
    "lavender",
];

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_query::Catalog;
    use backbone_storage::Value;

    /// The generator before it built columns, kept as the reference the
    /// typed loader must match bit for bit: a `Vec<Value>` per row, one
    /// `append_row` per row, the same draws in the same order. Schemas come
    /// from `like`, the catalog under test.
    fn reference_generate(sf: f64, seed: u64, like: &MemCatalog) -> MemCatalog {
        let sizes = TpchSizes::at(sf);
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = MemCatalog::new();
        let table = |name: &str| Table::new(like.table(name).unwrap().schema().clone());
        let mut region = table("region");
        for (i, name) in REGIONS.iter().enumerate() {
            region
                .append_row(vec![Value::Int(i as i64), Value::str(*name)])
                .unwrap();
        }
        catalog.register("region", region);
        let mut nation = table("nation");
        for i in 0..25i64 {
            nation
                .append_row(vec![
                    Value::Int(i),
                    Value::str(format!("NATION_{i:02}")),
                    Value::Int(i % 5),
                ])
                .unwrap();
        }
        catalog.register("nation", nation);
        let mut supplier = table("supplier");
        for i in 0..sizes.supplier as i64 {
            supplier
                .append_row(vec![
                    Value::Int(i),
                    Value::str(format!("Supplier#{i:09}")),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Float((rng.gen_range(-99_999..1_000_000) as f64) / 100.0),
                ])
                .unwrap();
        }
        catalog.register("supplier", supplier);
        let mut part = table("part");
        for i in 0..sizes.part as i64 {
            part.append_row(vec![
                Value::Int(i),
                Value::str(format!("part {} {}", COLORS[i as usize % COLORS.len()], i)),
                Value::Float(900.0 + (i % 1000) as f64 / 10.0),
                Value::Int(rng.gen_range(1..=50)),
            ])
            .unwrap();
        }
        catalog.register("part", part);
        let mut customer = table("customer");
        for i in 0..sizes.customer as i64 {
            customer
                .append_row(vec![
                    Value::Int(i),
                    Value::str(format!("Customer#{i:09}")),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Float((rng.gen_range(-99_999..1_000_000) as f64) / 100.0),
                    Value::str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                ])
                .unwrap();
        }
        catalog.register("customer", customer);
        let mut orders = table("orders");
        let mut lineitem = table("lineitem");
        for o in 0..sizes.orders as i64 {
            let orderdate = rng.gen_range(0..DATE_DAYS - 151);
            let custkey = rng.gen_range(0..sizes.customer as i64);
            let lines = rng.gen_range(1..=7);
            let mut total = 0.0;
            for l in 0..lines {
                let quantity = rng.gen_range(1..=50) as f64;
                let partkey = rng.gen_range(0..sizes.part as i64);
                let price = quantity * (900.0 + (partkey % 1000) as f64 / 10.0) / 10.0;
                let discount = rng.gen_range(0..=10) as f64 / 100.0;
                let tax = rng.gen_range(0..=8) as f64 / 100.0;
                let shipdate = orderdate + rng.gen_range(1..=121);
                let returnflag = if shipdate < DATE_DAYS / 2 {
                    RETURN_FLAGS[rng.gen_range(0..2)]
                } else {
                    "N"
                };
                let linestatus = if shipdate < DATE_DAYS - 200 { "F" } else { "O" };
                total += price * (1.0 - discount) * (1.0 + tax);
                lineitem
                    .append_row(vec![
                        Value::Int(o),
                        Value::Int(partkey),
                        Value::Int(rng.gen_range(0..sizes.supplier as i64)),
                        Value::Int(l + 1),
                        Value::Float(quantity),
                        Value::Float(price),
                        Value::Float(discount),
                        Value::Float(tax),
                        Value::str(returnflag),
                        Value::str(linestatus),
                        Value::Int(shipdate),
                    ])
                    .unwrap();
            }
            orders
                .append_row(vec![
                    Value::Int(o),
                    Value::Int(custkey),
                    Value::Int(orderdate),
                    Value::Float(total),
                    Value::str(if orderdate < DATE_DAYS / 2 { "F" } else { "O" }),
                    Value::Int(rng.gen_range(0..5)),
                ])
                .unwrap();
        }
        catalog.register("orders", orders);
        catalog.register("lineitem", lineitem);
        catalog
    }

    #[test]
    fn generate_matches_row_path() {
        // At SF 0.05 lineitem spans four full groups and a partial one.
        for seed in [1, 42, 7] {
            let got = generate(0.05, seed);
            let want = reference_generate(0.05, seed, &got);
            assert!(got.table("lineitem").unwrap().num_groups() >= 5);
            for name in got.table_names() {
                let (g, w) = (got.table(&name).unwrap(), want.table(&name).unwrap());
                assert_eq!(g.num_rows(), w.num_rows(), "seed {seed}, {name}");
                assert_eq!(g.num_groups(), w.num_groups(), "seed {seed}, {name}");
                assert_eq!(g.tail_rows(), 0, "seed {seed}, {name}");
                for i in 0..g.num_groups() {
                    let at = format!("seed {seed}, {name}, group {i}");
                    let (gg, wg) = (g.group(i).unwrap(), w.group(i).unwrap());
                    // `Column`'s `PartialEq` compares the encoding variant too.
                    assert_eq!(gg.batch().columns(), wg.batch().columns(), "{at}");
                    // `Debug` prints every zone-map field, floats exactly.
                    assert_eq!(
                        format!("{:?}", gg.zones()),
                        format!("{:?}", wg.zones()),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn sizes_scale_linearly() {
        let s1 = TpchSizes::at(0.01);
        let s10 = TpchSizes::at(0.1);
        assert_eq!(s1.customer, 1500);
        assert_eq!(s10.customer, 15_000);
        assert_eq!(s10.orders, 150_000);
    }

    #[test]
    fn generates_all_tables() {
        let cat = generate(0.001, 1);
        for t in [
            "region", "nation", "supplier", "part", "customer", "orders", "lineitem",
        ] {
            assert!(cat.table(t).is_some(), "missing table {t}");
        }
        assert_eq!(cat.table("region").unwrap().num_rows(), 5);
        assert_eq!(cat.table("nation").unwrap().num_rows(), 25);
        assert_eq!(cat.table("orders").unwrap().num_rows(), 1500);
        // Avg 4 lines per order.
        let li = cat.table("lineitem").unwrap().num_rows();
        assert!((4500..=7500).contains(&li), "lineitem rows {li}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(0.001, 7);
        let b = generate(0.001, 7);
        let batch_a = a.table("orders").unwrap().to_batch().unwrap();
        let batch_b = b.table("orders").unwrap().to_batch().unwrap();
        assert_eq!(batch_a.to_rows(), batch_b.to_rows());
    }

    #[test]
    fn foreign_keys_in_range() {
        let cat = generate(0.001, 2);
        let cust = cat.table("customer").unwrap().num_rows() as i64;
        let orders = cat.table("orders").unwrap().to_batch().unwrap();
        let custkeys = orders.column_by_name("o_custkey").unwrap();
        for i in 0..orders.num_rows() {
            let k = custkeys.value(i).as_int().unwrap();
            assert!((0..cust).contains(&k));
        }
        let nations = cat.table("nation").unwrap().to_batch().unwrap();
        let regkeys = nations.column_by_name("n_regionkey").unwrap();
        for i in 0..nations.num_rows() {
            assert!((0..5).contains(&regkeys.value(i).as_int().unwrap()));
        }
    }

    #[test]
    fn shipdate_follows_orderdate() {
        let cat = generate(0.001, 3);
        // Every lineitem ships after day 0 and within the window + 121.
        let li = cat.table("lineitem").unwrap().to_batch().unwrap();
        let ship = li.column_by_name("l_shipdate").unwrap();
        for i in 0..li.num_rows() {
            let d = ship.value(i).as_int().unwrap();
            assert!(d > 0 && d < DATE_DAYS + 121);
        }
    }
}
