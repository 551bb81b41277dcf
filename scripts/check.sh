#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite.
#
#   scripts/check.sh
#
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q =="
cargo test --workspace -q

echo "== fault-injection / crash-recovery suite =="
cargo test -q -p backbone-txn fault
cargo test -q -p backbone-bench --test recovery

echo "== kernel equivalence property suite =="
cargo test -q -p backbone-bench --test kernel_equivalence

echo "== parallel vs serial equivalence (workers 1/2/8) =="
cargo test -q -p backbone-bench --test kernel_equivalence parallel

echo "== out-of-core spill smoke (budget-capped, serial + Fixed(4)) =="
cargo test -q -p backbone-bench --test kernel_equivalence budget
cargo test -q -p backbone-bench --test kernel_equivalence tiny_budget

echo "== serving: server crate + concurrent-session property suite =="
cargo test -q -p backbone-server
cargo test -q -p backbone-bench --test serving

echo "== serving-path caches: unit + property suite =="
cargo test -q -p backbone-core cache
# Cached results must be byte-identical to cold execution at the same epoch,
# and post-commit reads must never serve stale hits — under concurrent writers.
cargo test -q -p backbone-bench --test serving cached_hits_equal_cold_execution
cargo test -q -p backbone-bench --test serving post_commit_reads_never_serve_stale
# Plan cache shares logical plans across physical budgets (spill decisions
# stay per-execution), and PREPARE/EXECUTE round-trips over the wire.
cargo test -q -p backbone-bench --test serving plan_cache_shares_logical_plans
cargo test -q -p backbone-bench --test serving prepare_execute_roundtrip

# The gated suites print their rungs and one verdict line per gate, and exit
# non-zero when a gate fails or a rung is missing (see bench::ledger).
echo "== serve smoke (quick) =="
cargo run -q --release -p backbone-bench --bin repro -- serve --quick

echo "== repro smoke (quick) =="
out="$(cargo run -q -p backbone-bench --bin repro -- e5 --quick)"
echo "$out"
# The durable ladder must still report WAL fsync counts, including the
# file-backed group-commit rung.
echo "$out" | grep -q "fsyncs" || { echo "repro e5: missing fsyncs column"; exit 1; }
echo "$out" | grep -q "MVCC+grp+file" || { echo "repro e5: missing file-backed WAL rung"; exit 1; }

echo "== perf smoke (quick) =="
out="$(cargo run -q --release -p backbone-bench --bin repro -- e8 --quick)"
echo "$out"
echo "$out" | grep -q "declarative" || { echo "repro e8: missing declarative row"; exit 1; }
cargo run -q --release -p backbone-bench --bin repro -- bench --quick

echo "== ANN kernel/parallel equivalence property suite =="
cargo test -q -p backbone-bench --test ann_equivalence

echo "== vector & hybrid smoke (quick) =="
out="$(cargo run -q --release -p backbone-bench --bin repro -- e9 --quick)"
echo "$out"
echo "$out" | grep -q "hnsw(ef=200)" || { echo "repro e9: missing hnsw sweep row"; exit 1; }
out="$(cargo run -q --release -p backbone-bench --bin repro -- e3 --quick)"
echo "$out"
echo "$out" | grep -q "EXPLAIN hybrid" || { echo "repro e3: missing EXPLAIN readout"; exit 1; }
echo "$out" | grep -q "strategy:" || { echo "repro e3: missing strategy decision"; exit 1; }
cargo run -q --release -p backbone-bench --bin repro -- ann --quick

echo "OK"
