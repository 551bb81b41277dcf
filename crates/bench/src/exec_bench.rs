//! Machine-readable execution-kernel baseline (`repro bench`).
//!
//! Measures the operator hot paths this crate's experiments lean on — E1's
//! Q1/Q6 aggregation scans, E8's declarative-vs-hand-rolled gap, and a LIKE
//! micro-benchmark over the compiled-pattern matcher — and records the
//! numbers as JSON (`BENCH_exec.json`); [`GATES`] holds the verdicts CI
//! enforces through `repro bench`'s exit code.
//! Every measured query also asserts result identity against an independent
//! evaluation, so a speedup can never silently change answers.

use crate::ledger::{measure, Gate, Over, Rung};
use crate::time;
use backbone_query::{
    col, count_star, execute, lit, sum, ExecOptions, JoinType, LogicalPlan, MemCatalog, Parallelism,
};
use backbone_storage::column::mix64;
use backbone_storage::{
    Bitmap, Column, DataType, Field, Metrics, RecordBatch, Schema, Table, Value,
};
use backbone_workloads::{queries, tpch};
use std::sync::Arc;

/// Rows match within floating-point tolerance (sums may reassociate when the
/// optimizer reshapes a plan).
fn rows_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => va == vb,
                })
        })
}

/// A corpus of order-comment strings for the LIKE micro-benchmark; roughly
/// 10% contain the needle.
fn like_catalog(rows: usize) -> MemCatalog {
    let schema = Schema::new(vec![Field::new("note", DataType::Utf8)]);
    let mut table = Table::new(schema);
    for i in 0..rows {
        let note = if i % 10 == 3 {
            format!("order {i} flagged acme priority review")
        } else {
            format!("order {i} routine fulfilment batch {}", i % 97)
        };
        table
            .append_row(vec![Value::str(note)])
            .expect("schema matches");
    }
    table.flush().expect("flush in-memory table");
    let catalog = MemCatalog::new();
    catalog.register("notes", table);
    catalog
}

/// Number of distinct region tags in the dictionary benchmark tables.
const DICT_REGIONS: usize = 16;

/// Twin fact tables (`events_plain` / `events_dict`) with identical rows —
/// a low-cardinality `region` string column (plain vs dictionary-encoded)
/// and an `amount` integer — plus twin dimension tables keyed by region.
/// The dict dimension shares the fact table's dictionary `Arc`, so the join
/// exercises the shared-encoding probe path.
fn dict_catalog(rows: usize) -> MemCatalog {
    let schema = Schema::new(vec![
        Field::new("region", DataType::Utf8),
        Field::new("amount", DataType::Int64),
    ]);
    let regions: Vec<Value> = (0..rows)
        .map(|i| Value::str(format!("region-{:02}", (i * 7) % DICT_REGIONS)))
        .collect();
    let amounts: Vec<Value> = (0..rows).map(|i| Value::Int((i % 1000) as i64)).collect();
    let plain = Column::from_values(DataType::Utf8, &regions).expect("utf8 column");
    let dict = plain.dict_encode().expect("utf8 columns encode");
    let shared = Arc::clone(dict.dict_parts().expect("encoded").0);
    let amount = Column::from_values(DataType::Int64, &amounts).expect("int column");
    let catalog = MemCatalog::new();
    for (name, scol) in [("events_plain", plain), ("events_dict", dict)] {
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![Arc::new(scol), Arc::new(amount.clone())],
        )
        .expect("columns match schema");
        let mut table = Table::new(schema.clone());
        table.push_sealed_batch(batch).expect("sealed batch");
        catalog.register(name, table);
    }

    let dim_schema = Schema::new(vec![
        Field::new("rname", DataType::Utf8),
        Field::new("weight", DataType::Int64),
    ]);
    let names: Vec<String> = shared.to_vec();
    let weights = Column::from_i64((0..names.len() as i64).collect());
    let dim_plain = Column::from_strings(names.clone());
    let dim_dict = Column::dict_from_parts(
        shared,
        (0..names.len() as u32).collect(),
        Bitmap::all_valid(names.len()),
    );
    for (name, scol) in [("dim_plain", dim_plain), ("dim_dict", dim_dict)] {
        let batch = RecordBatch::try_new(
            dim_schema.clone(),
            vec![Arc::new(scol), Arc::new(weights.clone())],
        )
        .expect("columns match schema");
        let mut table = Table::new(dim_schema.clone());
        table.push_sealed_batch(batch).expect("sealed batch");
        catalog.register(name, table);
    }
    catalog
}

/// Twin fact tables (`ints_plain` / `ints_enc`) with identical rows: a
/// run-heavy `status` integer (plain vs `Int64Encoded` at rest — runs of
/// 512 keep it in the RLE arm, where kernels evaluate once per run), a
/// `code` integer of uniform random 12-bit values (plain vs
/// frame-of-reference `u16` lanes — no runs to exploit, so kernels compare
/// every lane) and a plain `amount` integer that both twins share.
/// `int_dim` keys 20 weights by status for the join rung.
fn int_catalog(rows: usize) -> MemCatalog {
    let schema = Schema::new(vec![
        Field::new("status", DataType::Int64),
        Field::new("code", DataType::Int64),
        Field::new("amount", DataType::Int64),
    ]);
    let plain = Column::from_i64((0..rows).map(|i| ((i / 512) % 20) as i64).collect());
    let enc = plain.int64_encode().expect("plain Int64 columns encode");
    let code_plain = Column::from_i64(
        (0..rows as u64)
            .map(|i| (mix64(i) & 0xfff) as i64)
            .collect(),
    );
    let code_enc = code_plain
        .int64_encode()
        .expect("plain Int64 columns encode");
    assert!(
        code_enc
            .encoded_parts()
            .and_then(|(d, _)| d.lanes())
            .is_some(),
        "uniform 12-bit integers seal as frame-of-reference lanes"
    );
    let amount = Column::from_i64((0..rows).map(|i| (i % 1000) as i64).collect());
    let catalog = MemCatalog::new();
    for (name, scol, ccol) in [
        ("ints_plain", plain, code_plain),
        ("ints_enc", enc, code_enc),
    ] {
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![Arc::new(scol), Arc::new(ccol), Arc::new(amount.clone())],
        )
        .expect("columns match schema");
        let mut table = Table::new(schema.clone());
        table.push_sealed_batch(batch).expect("sealed batch");
        catalog.register(name, table);
    }
    let dim_schema = Schema::new(vec![
        Field::new("sid", DataType::Int64),
        Field::new("weight", DataType::Int64),
    ]);
    let mut dim = Table::new(dim_schema);
    for s in 0..20i64 {
        dim.append_row(vec![Value::Int(s), Value::Int(s * 3 + 1)])
            .expect("schema matches");
    }
    dim.flush().expect("flush in-memory table");
    catalog.register("int_dim", dim);
    catalog
}

/// Worker counts the thread-scaling ladder measures, with the static rung
/// names each rung publishes (`<query>_p<workers>_ms`).
const SCALING_RUNGS: [(usize, &str, &str, &str); 4] = [
    (1, "e1_q1_p1_ms", "e1_q6_p1_ms", "e8_declarative_p1_ms"),
    (2, "e1_q1_p2_ms", "e1_q6_p2_ms", "e8_declarative_p2_ms"),
    (4, "e1_q1_p4_ms", "e1_q6_p4_ms", "e8_declarative_p4_ms"),
    (8, "e1_q1_p8_ms", "e1_q6_p8_ms", "e8_declarative_p8_ms"),
];

/// Run the baseline suite. `quick` shrinks data sizes for CI smoke runs.
pub fn run(quick: bool) -> Vec<Rung> {
    let mut out = Vec::new();

    // How many cores this run had, so the scaling floor can skip.
    out.push(Rung::cores());

    // E1 Q1/Q6: aggregation-dominated scans over lineitem. Serial is the
    // committed baseline; the morsel-parallel ladder (1/2/4/8 workers) runs
    // the identical plans and every rung re-checks the answer.
    let sf = if quick { 0.005 } else { 0.05 };
    let catalog = tpch::generate(sf, 42);
    let serial = ExecOptions::serial();
    let baseline_opts = ExecOptions::unoptimized();
    let plan = |q: &str| {
        queries::all_queries(&catalog)
            .expect("query build")
            .into_iter()
            .find(|(l, _)| *l == q)
            .expect("known query")
            .1
    };
    // Warm the worker pool (thread + allocator-arena startup is one-time
    // process cost, not per-query cost) so the first parallel rung isn't
    // charged for it.
    let warm = ExecOptions::serial().parallel(Parallelism::Fixed(8));
    for _ in 0..2 {
        let _ = execute(plan("Q1"), &catalog, &warm).expect("warmup run");
    }
    let mut references: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
    for (label, name) in [("Q1", "e1_q1_ms"), ("Q6", "e1_q6_ms")] {
        let (result, ms) = measure(|| execute(plan(label), &catalog, &serial).expect("query run"));
        let reference = execute(plan(label), &catalog, &baseline_opts).expect("reference run");
        assert!(
            rows_equal(&result.to_rows(), &reference.to_rows()),
            "{label}: kernelized result diverged from unoptimized reference"
        );
        references.push((label, reference.to_rows()));
        out.push(Rung::ms(name, ms, result.num_rows()));
    }
    for (workers, q1_name, q6_name, _) in SCALING_RUNGS {
        let opts = ExecOptions::serial().parallel(Parallelism::Fixed(workers));
        for (label, name) in [("Q1", q1_name), ("Q6", q6_name)] {
            let (result, ms) =
                measure(|| execute(plan(label), &catalog, &opts).expect("parallel query run"));
            let reference = &references.iter().find(|(l, _)| *l == label).expect("ref").1;
            assert!(
                rows_equal(&result.to_rows(), reference),
                "{label} at {workers} workers diverged from the serial answer"
            );
            out.push(Rung::ms(name, ms, result.num_rows()));
        }
    }

    // Out-of-core ceiling: Q3 (two hash joins feeding a wide group-by) under
    // a 32 KiB budget — a working set far past the ceiling at either scale
    // factor, so the joins Grace-partition and the aggregate spills partial
    // states. The rung asserts the budgeted answer equals the unbudgeted one
    // and that the spill counters actually fired; a [`GATES`] row turns the
    // budgeted/unbudgeted wall-time ratio into a catastrophic-regression
    // ceiling.
    let (q3_reference, q3_ms) =
        measure(|| execute(plan("Q3"), &catalog, &serial).expect("Q3 serial run"));
    let spill_metrics = Metrics::new();
    let budgeted = ExecOptions::serial()
        .with_mem_budget(32 * 1024)
        .with_metrics(spill_metrics.clone());
    let (q3_budgeted, q3_budget_ms) =
        measure(|| execute(plan("Q3"), &catalog, &budgeted).expect("budgeted Q3 run"));
    assert!(
        rows_equal(&q3_budgeted.to_rows(), &q3_reference.to_rows()),
        "Q3 under a 32 KiB budget diverged from the unbudgeted answer"
    );
    let spill_partitions = spill_metrics.value("storage.spill.partitions");
    assert!(
        spill_partitions > 0 && spill_metrics.value("storage.spill.bytes_read") > 0,
        "budgeted Q3 never touched disk; the rung is not out-of-core"
    );
    out.push(Rung::ms("e1_q3_ms", q3_ms, q3_reference.num_rows()));
    out.push(Rung::ms(
        "e1_q3_budget_ms",
        q3_budget_ms,
        q3_budgeted.num_rows(),
    ));
    // Cumulative across warmups + samples; the gate only needs nonzero.
    out.push(Rung::count(
        "e1_q3_spill_partitions",
        spill_partitions as usize,
    ));

    // Paired 1-worker overhead measurement: interleave serial and 1-worker
    // blocks, then compare the best sample each mode achieved anywhere in
    // the window. On a shared box noise only ever *adds* time, so the global
    // minima converge to the true per-mode cost while the absolute rungs
    // above drift with the machine — this ratio is what [`GATES`] verdicts
    // on. Blocks (rather than strict alternation) let allocator arenas
    // re-warm after each mode switch before a sample can count.
    // A window whose ratio clears the 1.10x ceiling ends the measurement; a
    // polluted window (host-wide slowdown landing on one mode) gets up to
    // two retries. A genuine regression fails every window, so the gate
    // still catches real overhead while absorbing scheduler noise.
    let p1 = ExecOptions::serial().parallel(Parallelism::Fixed(1));
    let rounds = 4;
    let reps = 4;
    let mut ratio = f64::INFINITY;
    for _window in 0..3 {
        let mut best_serial = f64::INFINITY;
        let mut best_p1 = f64::INFINITY;
        for _ in 0..rounds {
            for (opts, best) in [(&serial, &mut best_serial), (&p1, &mut best_p1)] {
                for _ in 0..reps {
                    let (_, a) = time(|| execute(plan("Q1"), &catalog, opts).expect("query run"));
                    let (_, b) = time(|| execute(plan("Q6"), &catalog, opts).expect("query run"));
                    *best = best.min(a + b);
                }
            }
        }
        ratio = ratio.min(best_p1 / best_serial);
        if ratio <= 1.10 {
            break;
        }
    }
    out.push(Rung::new(
        "parallel_overhead_ratio",
        ratio,
        "x",
        rounds * reps,
    ));

    // E8: the declarative plan vs the hand-rolled client loop, then the
    // declarative plan again at each parallelism rung.
    let sf = if quick { 0.002 } else { 0.02 };
    let catalog = tpch::generate(sf, 42);
    let date = 1500;
    let (decl, decl_ms) = measure(|| crate::e8_usability::declarative(&catalog, date));
    let (manual, manual_ms) = measure(|| crate::e8_usability::manual(&catalog, date));
    assert_eq!(
        decl, manual,
        "E8: declarative and hand-rolled answers differ"
    );
    out.push(Rung::ms("e8_declarative_ms", decl_ms, decl.len()));
    out.push(Rung::ms("e8_manual_ms", manual_ms, manual.len()));
    for (workers, _, _, e8_name) in SCALING_RUNGS {
        let opts = ExecOptions::serial().parallel(Parallelism::Fixed(workers));
        let (got, ms) = measure(|| crate::e8_usability::declarative_with(&catalog, date, &opts));
        // Tolerant compare: parallel aggregation may reassociate the sums.
        assert_eq!(got.len(), decl.len(), "E8 at {workers} workers: row count");
        for ((gs, gv), (ds, dv)) in got.iter().zip(&decl) {
            assert_eq!(gs, ds, "E8 at {workers} workers: segment order");
            assert!(
                (gv - dv).abs() <= 1e-9 * gv.abs().max(dv.abs()).max(1.0),
                "E8 at {workers} workers: revenue {gv} vs {dv}"
            );
        }
        out.push(Rung::ms(e8_name, ms, got.len()));
    }

    // LIKE micro-benchmark: a fast-path pattern (contains) and a generic one.
    let rows = if quick { 20_000 } else { 200_000 };
    let catalog = like_catalog(rows);
    let opts = ExecOptions::default();
    for (pattern, name, expect) in [
        ("%acme%", "like_contains_ms", rows / 10),
        ("%a_me p%iority%", "like_generic_ms", rows / 10),
    ] {
        let plan = || {
            LogicalPlan::scan("notes", &catalog)
                .unwrap()
                .filter(col("note").like(pattern))
                .aggregate(vec![], vec![count_star().alias("n")])
        };
        let (result, ms) = measure(|| execute(plan(), &catalog, &opts).expect("like run"));
        let n = result.row(0)[0].as_int().expect("count") as usize;
        assert_eq!(n, expect, "LIKE '{pattern}' matched an unexpected count");
        out.push(Rung::ms(name, ms, n));
    }

    // Dictionary encoding: the same scans over plain vs encoded strings. The
    // plain run is the control; [`GATES`] turns the ratios into verdicts.
    let rows = if quick { 40_000 } else { 400_000 };
    let catalog = dict_catalog(rows);
    let opts = ExecOptions::default();
    let mut results: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
    for (events, dim, suffix) in [
        ("events_plain", "dim_plain", "plain"),
        ("events_dict", "dim_dict", "dict"),
    ] {
        let scan = || LogicalPlan::scan(events, &catalog).expect("events table");
        let rungs: Vec<(&'static str, LogicalPlan)> = vec![
            (
                "filter",
                scan()
                    .filter(col("region").eq(lit("region-07")))
                    .aggregate(vec![], vec![count_star().alias("n")]),
            ),
            (
                "group",
                scan().aggregate(
                    vec![col("region")],
                    vec![count_star().alias("n"), sum(col("amount")).alias("total")],
                ),
            ),
            (
                "join",
                scan()
                    .join(
                        LogicalPlan::scan(dim, &catalog).expect("dim table"),
                        vec![("region", "rname")],
                        JoinType::Inner,
                    )
                    .aggregate(vec![], vec![sum(col("weight")).alias("w")]),
            ),
        ];
        for (kind, plan) in rungs {
            let (result, ms) =
                measure(|| execute(plan.clone(), &catalog, &opts).expect("dict bench run"));
            let rows_out = result.to_rows();
            match results.iter().find(|(k, _)| *k == kind) {
                Some((_, control)) => assert!(
                    rows_equal(&rows_out, control),
                    "{kind}: encoded result diverged from plain control"
                ),
                None => results.push((kind, rows_out.clone())),
            }
            let name = match (kind, suffix) {
                ("filter", "plain") => "plain_filter_ms",
                ("filter", "dict") => "dict_filter_ms",
                ("group", "plain") => "plain_group_ms",
                ("group", "dict") => "dict_group_ms",
                ("join", "plain") => "plain_join_ms",
                _ => "dict_join_ms",
            };
            out.push(Rung::ms(name, ms, result.num_rows()));
        }
    }

    // Numeric encoding: the same scans over plain vs RLE-encoded integers.
    // The filter rung hits the run-aware comparison kernel (one verdict per
    // run); the group rung hits run-aware key hashing. Plain is the control.
    let rows = if quick { 40_000 } else { 400_000 };
    let int_cat = int_catalog(rows);
    let opts = ExecOptions::default();
    let mut results: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
    for (events, suffix) in [("ints_plain", "plain"), ("ints_enc", "enc")] {
        let scan = || LogicalPlan::scan(events, &int_cat).expect("ints table");
        let rungs: Vec<(&'static str, LogicalPlan)> = vec![
            (
                "filter",
                scan()
                    .filter(col("status").eq(lit(7)))
                    .aggregate(vec![], vec![count_star().alias("n")]),
            ),
            (
                "group",
                scan().aggregate(
                    vec![col("status")],
                    vec![count_star().alias("n"), sum(col("amount")).alias("total")],
                ),
            ),
            (
                "join",
                scan()
                    .join(
                        LogicalPlan::scan("int_dim", &int_cat).expect("dim table"),
                        vec![("status", "sid")],
                        JoinType::Inner,
                    )
                    .aggregate(vec![], vec![sum(col("weight")).alias("w")]),
            ),
        ];
        for (kind, plan) in rungs {
            let (result, ms) =
                measure(|| execute(plan.clone(), &int_cat, &opts).expect("int bench run"));
            let rows_out = result.to_rows();
            match results.iter().find(|(k, _)| *k == kind) {
                Some((_, control)) => assert!(
                    rows_equal(&rows_out, control),
                    "{kind}: encoded-int result diverged from plain control"
                ),
                None => results.push((kind, rows_out.clone())),
            }
            let name = match (kind, suffix) {
                ("filter", "plain") => "plain_int_filter_ms",
                ("filter", "enc") => "enc_int_filter_ms",
                ("group", "plain") => "plain_int_group_ms",
                ("group", "enc") => "enc_int_group_ms",
                ("join", "plain") => "plain_int_join_ms",
                _ => "enc_int_join_ms",
            };
            out.push(Rung::ms(name, ms, result.num_rows()));
        }
    }

    // Frame-of-reference lanes: a range filter over uniform 12-bit `code`
    // (no runs to exploit) compares raw u16 lanes against the range
    // translated into residual space. Plain and lanes run in alternating
    // blocks, best of each, so host-wide noise lands on both sides.
    let for_filter = |table: &str| {
        LogicalPlan::scan(table, &int_cat)
            .expect("ints table")
            .filter(col("code").gt_eq(lit(1024)).and(col("code").lt(lit(3072))))
            .aggregate(vec![], vec![count_star().alias("n")])
    };
    let mut best = [f64::INFINITY; 2];
    let mut answers: Vec<Vec<Vec<Value>>> = vec![Vec::new(); 2];
    for _ in 0..8 {
        for (side, table) in ["ints_plain", "ints_enc"].into_iter().enumerate() {
            for _ in 0..4 {
                let (result, s) =
                    time(|| execute(for_filter(table), &int_cat, &opts).expect("FOR bench run"));
                best[side] = best[side].min(s * 1000.0);
                answers[side] = result.to_rows();
            }
        }
    }
    assert!(
        rows_equal(&answers[1], &answers[0]),
        "FOR filter: lane result diverged from plain control"
    );
    out.push(Rung::ms("plain_for_filter_ms", best[0], 1));
    out.push(Rung::ms("enc_for_filter_ms", best[1], 1));

    // Checkpoint footprint: the same table's on-disk bytes, plain vs encoded.
    let dir = std::env::temp_dir().join(format!("backbone-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (table, name) in [
        ("events_plain", "plain_checkpoint_bytes"),
        ("events_dict", "dict_checkpoint_bytes"),
    ] {
        let path = dir.join(table).with_extension("ckpt");
        let t = backbone_query::Catalog::table(&catalog, table).expect("bench table");
        backbone_storage::checkpoint::write_checkpoint(&path, 0, &[(table, &*t)])
            .expect("checkpoint write");
        let bytes = std::fs::metadata(&path).expect("checkpoint stat").len() as usize;
        out.push(Rung::new(name, bytes as f64, "bytes", 1));
    }
    let _ = std::fs::remove_dir_all(&dir);

    out
}

/// Floor on plain/lane time for the FOR filter rung. Twelve
/// `repro bench --quick` runs on a 2-core x86-64 host put the ratio at
/// 1.14-1.26 (median 1.15); the same rung over bit-packed lanes read
/// 0.53-0.62 in ten runs. Like the other encoding gates, lanes must never
/// lose to plain: the floor sits 0.14 below the lowest lane reading, more
/// than the 0.12 range of the readings.
const FOR_FILTER_FLOOR: f64 = 1.0;

/// The verdicts `repro bench` enforces.
pub const GATES: &[Gate] = &[
    // Catastrophic-regression alarm, not a tuning target: the declarative
    // engine must stay within 8x of the hand-rolled loop.
    Gate::ceiling(
        "declarative/hand-rolled gap",
        Over::Ratio("e8_declarative_ms", "e8_manual_ms"),
        8.0,
    ),
    // Encoding gates: encoded kernels must never lose to the plain path.
    Gate::floor(
        "dict filter speedup over plain",
        Over::Ratio("plain_filter_ms", "dict_filter_ms"),
        1.0,
    ),
    Gate::floor(
        "dict group-by speedup over plain",
        Over::Ratio("plain_group_ms", "dict_group_ms"),
        1.0,
    ),
    Gate::floor(
        "encoded int filter speedup over plain",
        Over::Ratio("plain_int_filter_ms", "enc_int_filter_ms"),
        1.0,
    ),
    Gate::floor(
        "encoded int group-by speedup over plain",
        Over::Ratio("plain_int_group_ms", "enc_int_group_ms"),
        1.0,
    ),
    Gate::floor(
        "encoded int join speedup over plain",
        Over::Ratio("plain_int_join_ms", "enc_int_join_ms"),
        1.0,
    ),
    // Frame-of-reference lanes against plain on a range filter with no runs
    // to exploit: u16 lanes must keep pace with i64, where bit-packed lanes
    // ran at about 0.6x of plain.
    Gate::floor(
        "FOR lane filter speedup over plain",
        Over::Ratio("plain_for_filter_ms", "enc_for_filter_ms"),
        FOR_FILTER_FLOOR,
    ),
    // Out-of-core: a memory budget must force spilling, not a blow-up. The
    // budgeted Q3 run pays partitioning I/O and recursive repartitioning,
    // so the ceiling is a catastrophic-regression alarm.
    Gate::ceiling(
        "budgeted Q3 overhead of unbudgeted",
        Over::Ratio("e1_q3_budget_ms", "e1_q3_ms"),
        20.0,
    ),
    Gate::floor(
        "budgeted Q3 spilled",
        Over::Rung("e1_q3_spill_partitions"),
        1.0,
    ),
    // One worker costs at most 10% over serial, on the paired ratio so
    // host-wide noise cancels; the Q1 scaling floor needs the cores.
    Gate::ceiling(
        "parallel 1-worker overhead of serial",
        Over::Rung("parallel_overhead_ratio"),
        1.10,
    ),
    Gate::floor(
        "parallel Q1 scaling at 4 workers",
        Over::Ratio("e1_q1_ms", "e1_q1_p4_ms"),
        2.5,
    )
    .min_cores(4),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Verdict;

    fn verdict(label: &str, rungs: &[Rung]) -> Verdict {
        let gate = GATES.iter().find(|g| g.label.starts_with(label));
        gate.expect("known gate").evaluate(rungs)
    }

    #[test]
    fn quick_suite_runs_and_serializes() {
        let rungs = run(true);
        assert_eq!(rungs.len(), 39);
        let json = crate::ledger::to_json(&rungs, true);
        for name in [
            "cores",
            "e1_q1_ms",
            "e1_q3_budget_ms",
            "e1_q3_spill_partitions",
            "enc_int_filter_ms",
            "enc_int_group_ms",
            "enc_int_join_ms",
            "enc_for_filter_ms",
            "e1_q1_p4_ms",
            "e1_q6_p8_ms",
            "e8_declarative_p2_ms",
            "like_generic_ms",
            "dict_filter_ms",
            "dict_checkpoint_bytes",
        ] {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
        // Every gate finds its rungs. Timing verdicts are not enforced on a
        // debug build at quick sizes, but the spill count is not a timing.
        for gate in GATES {
            let v = gate.evaluate(&rungs);
            assert!(!matches!(v, Verdict::Missing(_)), "{}: {v:?}", gate.label);
        }
        assert!(matches!(
            verdict("budgeted Q3 spilled", &rungs),
            Verdict::Ok(_)
        ));
        // The encoded checkpoint must be materially smaller than the plain one.
        let bytes = |name: &str| {
            rungs
                .iter()
                .find(|r| r.name == name)
                .expect("checkpoint rung")
                .value
        };
        assert!(
            bytes("dict_checkpoint_bytes") * 2.0 < bytes("plain_checkpoint_bytes"),
            "dictionary checkpoint not smaller: {} vs {}",
            bytes("dict_checkpoint_bytes"),
            bytes("plain_checkpoint_bytes")
        );
    }

    #[test]
    fn parallel_overhead_ceiling_enforced() {
        // A paired ratio of 2x must trip the 1.10x ceiling; 1.05x passes.
        let ratio = |x: f64| [Rung::new("parallel_overhead_ratio", x, "x", 9)];
        assert_eq!(
            verdict("parallel 1-worker", &ratio(2.0)),
            Verdict::Fail(2.0)
        );
        assert_eq!(
            verdict("parallel 1-worker", &ratio(1.05)),
            Verdict::Ok(1.05)
        );
    }

    #[test]
    fn scaling_floor_gated_on_cores() {
        let rungs = |cores: usize, p4_ms: f64| {
            vec![
                Rung::ms("e1_q1_ms", 100.0, 4),
                Rung::ms("e1_q6_ms", 10.0, 1),
                Rung::ms("e8_declarative_ms", 10.0, 3),
                Rung::ms("e1_q1_p1_ms", 100.0, 4),
                Rung::ms("e1_q6_p1_ms", 10.0, 1),
                Rung::ms("e8_declarative_p1_ms", 10.0, 3),
                Rung::ms("e1_q1_p4_ms", p4_ms, 4),
                Rung::count("cores", cores),
            ]
        };
        // Only 1.25x, below the 2.5x floor: skipped on one core, failed on 8.
        assert_eq!(
            verdict("parallel Q1 scaling", &rungs(1, 80.0)),
            Verdict::Skip { cores: 1 }
        );
        assert_eq!(
            verdict("parallel Q1 scaling", &rungs(8, 80.0)),
            Verdict::Fail(1.25)
        );
        // And a genuine 2.5x+ speedup passes.
        assert_eq!(
            verdict("parallel Q1 scaling", &rungs(8, 30.0)),
            Verdict::Ok(100.0 / 30.0)
        );
    }

    #[test]
    fn gap_threshold_enforced() {
        let rungs = |decl_ms: f64| {
            [
                Rung::ms("e8_declarative_ms", decl_ms, 3),
                Rung::ms("e8_manual_ms", 1.0, 3),
            ]
        };
        assert_eq!(verdict("declarative", &rungs(100.0)), Verdict::Fail(100.0));
        assert_eq!(verdict("declarative", &rungs(8.0)), Verdict::Ok(8.0));
    }
}
