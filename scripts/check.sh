#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc, and the full test suite.
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

# Broken intra-doc links (e.g. to a deleted API) fail the gate.
echo "== cargo doc --workspace --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The experiment rigs live in backbone-lab; no engine crate may depend on it.
echo "== product crates do not depend on the lab crate =="
for product in backbone-server backbone-core; do
  deps="$(cargo tree -e normal -p "$product")"
  if grep -q "backbone-lab" <<<"$deps"; then
    echo "$product depends on backbone-lab"; exit 1
  fi
done

echo "== cargo test -q =="
cargo test --workspace -q

echo "== fault-injection / crash-recovery suite =="
cargo test -q -p backbone-txn fault
cargo test -q -p backbone-bench --test recovery

# Replacement policies, cache simulator, KV-cache study and the KV
# transaction ladder, with their property and isolation suites.
echo "== lab crate (E4/E5 substrates) =="
cargo test -q -p backbone-lab

echo "== kernel equivalence property suite =="
cargo test -q -p backbone-bench --test kernel_equivalence

echo "== parallel vs serial equivalence (workers 1/2/8) =="
cargo test -q -p backbone-bench --test kernel_equivalence parallel

echo "== out-of-core spill smoke (budget-capped, serial + Fixed(4)) =="
cargo test -q -p backbone-bench --test kernel_equivalence budget
cargo test -q -p backbone-bench --test kernel_equivalence tiny_budget

# Nesting a client can send — SQL expressions and wire JSON — is capped with a
# typed error, so no request can overflow a worker's stack.
echo "== hostile input: SQL and JSON nesting depth =="
cargo test -q -p backbone-bench --test sql_robustness sql_depth_is_a_typed_error_not_a_stack_overflow
cargo test -q -p backbone-server deep_nesting_is_a_typed_error_not_a_stack_overflow
cargo test -q -p backbone-server deeply_nested

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
out="$(cargo run -q --release -p backbone-bench --bin repro -- e4 --quick)"
echo "$out"
# The policy table must keep its Belady bound and the pinning extension.
echo "$out" | grep -q "BELADY" || { echo "repro e4: missing Belady row"; exit 1; }
echo "$out" | grep -q "LRU+pin" || { echo "repro e4: missing pinning table"; exit 1; }

echo "== perf smoke (quick) =="
out="$(cargo run -q --release -p backbone-bench --bin repro -- e8 --quick)"
echo "$out"
echo "$out" | grep -q "declarative" || { echo "repro e8: missing declarative row"; exit 1; }
cargo run -q --release -p backbone-bench --bin repro -- bench --quick

echo "== ANN kernel/parallel equivalence property suite =="
cargo test -q -p backbone-bench --test ann_equivalence

# The engine's every hybrid plan against a from-scratch reference (also under
# concurrent commits), then the example that drives the engine, the bolt-on
# baseline and the Threshold Algorithm together.
echo "== hybrid: reference suite + example =="
cargo test -q -p backbone-bench --test hybrid_consistency
cargo run -q --release --example hybrid_search

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
