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

echo "== serve smoke (quick) =="
out="$(cargo run -q --release -p backbone-bench --bin repro -- serve --quick)"
echo "$out"
# Snapshot gate: readers must not stall on writers.
echo "$out" | grep -q "PERF_OK serve reader stalls" || { echo "repro serve: readers stalled on writers"; exit 1; }
# Group-commit gate: concurrent commits must share fsyncs.
echo "$out" | grep -q "PERF_OK serve batched commits" || { echo "repro serve: fsyncs not batched across commits"; exit 1; }
# Concurrency gate: the bench must actually drive >=8 live sessions.
echo "$out" | grep -q "PERF_OK serve concurrency" || { echo "repro serve: concurrent-session floor not met"; exit 1; }
# Hot-mix gate: serving-path caches must beat the no-cache baseline at
# identical wire responses (the bench asserts transcript identity).
echo "$out" | grep -q "PERF_OK serve hot-mix" || { echo "repro serve: hot-mix speedup floor not met"; exit 1; }
# Hit-rate gate: an 80%-repeated statement mix must mostly hit the result cache.
echo "$out" | grep -q "PERF_OK serve cache hit rate" || { echo "repro serve: cache hit-rate floor not met"; exit 1; }
# Tail-growth gate: a commit must cost O(rows inserted), not O(unsealed tail).
echo "$out" | grep -q "PERF_OK serve tail growth" || { echo "repro serve: commit latency grows with the tail"; exit 1; }

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
out="$(cargo run -q --release -p backbone-bench --bin repro -- bench --quick)"
echo "$out"
# Generous catastrophic-regression gate: the declarative engine must stay
# within 8x of the hand-rolled loop (see exec_bench::report).
echo "$out" | grep -q "PERF_OK declarative" || { echo "repro bench: declarative/hand-rolled gap regressed"; exit 1; }
# Encoding gate: dictionary kernels must never lose to the plain-string path.
echo "$out" | grep -q "PERF_OK dict filter" || { echo "repro bench: dict filter slower than plain"; exit 1; }
echo "$out" | grep -q "PERF_OK dict group-by" || { echo "repro bench: dict group-by slower than plain"; exit 1; }
# Numeric encoding gate: encoded-int kernels must never lose to plain ints.
echo "$out" | grep -q "PERF_OK encoded int filter" || { echo "repro bench: encoded int filter slower than plain"; exit 1; }
echo "$out" | grep -q "PERF_OK encoded int group-by" || { echo "repro bench: encoded int group-by slower than plain"; exit 1; }
echo "$out" | grep -q "PERF_OK encoded int join" || { echo "repro bench: encoded int join slower than plain"; exit 1; }
# Out-of-core gate: the budget-capped Q3 rung must spill and stay within the
# wall-time ceiling of the unbudgeted run (result identity is asserted inside
# the bench itself).
echo "$out" | grep -q "PERF_OK budgeted Q3 overhead" || { echo "repro bench: budgeted Q3 blew the wall-time ceiling"; exit 1; }
echo "$out" | grep -q "PERF_OK budgeted Q3 spilled" || { echo "repro bench: budgeted Q3 did not spill"; exit 1; }
# Parallelism gate: one morsel worker must stay within 10% of serial; the
# >=2.5x scaling floor self-gates on core count (PERF_SKIP below 4 cores).
echo "$out" | grep -q "PERF_OK parallel" || { echo "repro bench: parallel 1-worker overhead regressed"; exit 1; }
if echo "$out" | grep -q "PERF_FAIL"; then
  echo "repro bench: PERF_FAIL verdict present"
  exit 1
fi

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
out="$(cargo run -q --release -p backbone-bench --bin repro -- ann --quick)"
echo "$out"
# Kernel gate: the blocked distance loops must hold a 2x win over the
# scalar reference (the tentpole claim).
echo "$out" | grep -q "PERF_OK blocked kernel" || { echo "repro ann: blocked kernel floor not met"; exit 1; }
# Recall gates: approximate indexes must stay above their pinned floors.
echo "$out" | grep -q "PERF_OK ivf recall" || { echo "repro ann: ivf recall below floor"; exit 1; }
echo "$out" | grep -q "PERF_OK hnsw recall" || { echo "repro ann: hnsw recall below floor"; exit 1; }
# Strategy gates: the cost model's pick must never be the losing plan, and
# its answers must match the exhaustive pre-filtered truth.
echo "$out" | grep -q "PERF_OK hybrid selective pick" || { echo "repro ann: selective strategy pick lost"; exit 1; }
echo "$out" | grep -q "PERF_OK hybrid permissive pick" || { echo "repro ann: permissive strategy pick lost"; exit 1; }
echo "$out" | grep -q "PERF_OK hybrid selective overlap" || { echo "repro ann: selective overlap below floor"; exit 1; }
echo "$out" | grep -q "PERF_OK hybrid permissive overlap" || { echo "repro ann: permissive overlap below floor"; exit 1; }
# Parallel floors self-gate on core count (PERF_SKIP below 4 cores); any
# hard failure still trips here.
echo "$out" | grep -Eq "PERF_(OK|SKIP) exact parallel" || { echo "repro ann: missing exact parallel verdict"; exit 1; }
if echo "$out" | grep -q "PERF_FAIL"; then
  echo "repro ann: PERF_FAIL verdict present"
  exit 1
fi

echo "OK"
