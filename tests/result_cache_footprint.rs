//! Memory a result-cache entry retains, measured with a counting global
//! allocator.
//!
//! A serving workload that keeps meeting new statements grows the result
//! cache by one entry each, so the entry's footprint sets how fast resident
//! memory climbs. The measurement: warm a session past the plan cache's LRU
//! capacity (so plan-cache memory is flat), then serve distinct 1-row,
//! 5-column point statements and divide the growth in live heap bytes by
//! their count — once with the result cache on, once with it off. The
//! difference is what one cached result retains.
//!
//! This file holds a single test so no other test allocates concurrently.

use backbone_core::Database;
use backbone_query::{Catalog, ExecOptions};
use backbone_workloads::tpch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes retained per distinct point statement served under
/// `opts`, after a warm-up of `warm` statements.
fn retained_per_statement(opts: ExecOptions, warm: i64, measured: i64) -> f64 {
    let generated = tpch::generate(0.01, 7);
    let orders = generated.table("orders").expect("TPC-H has orders");
    let keys = orders.num_rows() as i64;
    let db = Database::new();
    db.register_table("orders", (*orders).clone())
        .expect("register orders");
    let session = db.session().with_options(opts);
    let point = |k: i64| {
        let sql = format!(
            "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderstatus \
             FROM orders WHERE o_orderkey = {}",
            k % keys
        );
        let batch = session.sql(&sql).expect("point read");
        assert_eq!((batch.num_rows(), batch.num_columns()), (1, 5));
    };
    (0..warm).for_each(point);
    let before = LIVE.load(Ordering::Relaxed);
    (warm..warm + measured).for_each(point);
    let after = LIVE.load(Ordering::Relaxed);
    (after - before) as f64 / measured as f64
}

#[test]
fn one_cached_point_result_retains_under_800_bytes() {
    let (warm, measured) = (300, 2000);
    let without =
        retained_per_statement(ExecOptions::serial().without_result_cache(), warm, measured);
    let with = retained_per_statement(ExecOptions::serial(), warm, measured);
    let per_entry = with - without;
    assert!(
        without < 16.0,
        "with the result cache off, serving retains {without:.1} B per statement"
    );
    assert!(
        per_entry <= 800.0,
        "one cached 1-row, 5-column result retains {per_entry:.1} B (bound 800 B)"
    );
}
