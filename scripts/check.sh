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

# perfbench is its own package, outside the workspace, and builds against the
# crates' public APIs; an API change that breaks it must fail here, not first in
# a benchmark run. Cargo rewrites perfbench/Cargo.lock when a workspace crate's
# dependencies changed, so the lock file is restored byte-for-byte afterwards
# (also when the check fails). Its self-tests run too, and so does a one-second
# hybrid run (about 5 s): perfbench checks every answer against a brute-force
# scan, so the result line must report all of them correct.
echo "== perfbench compiles against the workspace, passes its self-tests, answers correctly =="
lock_backup="$(mktemp)"
cp perfbench/Cargo.lock "$lock_backup"
restore_lock() { cp "$lock_backup" perfbench/Cargo.lock && rm -f "$lock_backup"; }
trap restore_lock EXIT
export CARGO_TARGET_DIR=target/perfbench-check
cargo check --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml
out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload hybrid --seconds 1 | tail -n 1)"
unset CARGO_TARGET_DIR
echo "$out"
grep -q '"correct": true' <<<"$out" && grep -q '"failed": 0,' <<<"$out" ||
  { echo "perfbench hybrid: an answer disagreed with the brute-force scan"; exit 1; }
restore_lock
trap - EXIT

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

# One differential oracle: random tables and SQL over a fixed seed set, run
# at a sample of the physical-knob product (encoding, layout, residency,
# workers, memory budget, optimizer rules, caches) against a row-at-a-time
# reference, plus the TLP and NoREC metamorphic relations.
echo "== differential oracle (fixed seed set, sampled knob product) =="
cargo test -q -p backbone-bench --test oracle

echo "== oracle: parallel workers 1/2/8/auto vs the reference =="
cargo test -q -p backbone-bench --test oracle parallel

# A one-byte budget must spill every hash aggregate and hash join that gets
# input (storage.spill.partitions > 0), serially and at two workers.
echo "== oracle: budget-capped execution spills and matches the reference =="
cargo test -q -p backbone-bench --test oracle budget

# Partial aggregate states, a morsel worker's or a spilled partition's, fold in
# through one merge: every function over every column kind, three key shapes,
# one to eight workers and three budgets against one serial pass (floats bit for
# bit), and a SUM that overflows only once its halves merge. Run by exact name,
# so a renamed test fails here.
echo "== aggregate merges: partial states merge like one pass =="
t=physical::aggregate::tests::partial_states_merge_like_one_pass
out="$(cargo test -q -p backbone-query --lib "$t" -- --exact 2>&1)" || { echo "$out"; exit 1; }
echo "$out"
grep -q " 1 passed" <<<"$out" || { echo "aggregate: $t did not run"; exit 1; }

# The selection kernels called directly on every column kind, operator and
# literal against the three-valued row reference (also NULL-heavy), every
# frame-of-reference lane width, and a guarded division through the scan's
# pushed-down filters; each runs by exact name, so a renamed test fails here.
echo "== selection kernels: reference, lane widths, guarded scan filters =="
for t in selection_kernels_match_three_valued_reference selection_kernels_match_reference_null_heavy \
  lane_widths_match_plain_and_reference guarded_division_in_scan_filters_matches_reference; do
  out="$(cargo test -q -p backbone-bench --test kernel_equivalence "$t" -- --exact 2>&1)" || { echo "$out"; exit 1; }
  echo "$out"
  grep -q " 1 passed" <<<"$out" || { echo "kernel_equivalence: $t did not run"; exit 1; }
done

# The optimizer keeps Q5's written join order: no join on the nation key
# alone, never a hash table built on lineitem, every join building on its
# smaller estimated input. Run by exact name, so a renamed test fails here.
echo "== optimizer: Q5 plan shape =="
t=q5_never_builds_on_lineitem_or_joins_on_the_nation_key_alone
out="$(cargo test -q -p backbone-bench --test optimizer_equivalence "$t" -- --exact 2>&1)" || { echo "$out"; exit 1; }
echo "$out"
grep -q " 1 passed" <<<"$out" || { echo "optimizer_equivalence: $t did not run"; exit 1; }

# Index builds and row-group seals stay bit-identical to their reference
# formulations: IVF training against a Lloyd loop that assigns with `min_by`
# (tied centroids, an infinite component, dims off the lane multiple, inserts
# after the build), the text index against `tokenize_with` plus per-document
# counting, and the column-by-column seal against concatenate, re-encode and
# per-row zone maps (also after checkpoint replay, resident and paged). The
# TPC-H generator's column chunks match its row-at-a-time form at three
# seeds, and reads of a paged group share its zone maps.
echo "== index builds and seals: IVF, text postings, row groups match their references =="
for spec in backbone-vector:ivf::tests::build_matches_reference_lloyd \
  backbone-text:index::tests::postings_match_reference_tokenizer \
  backbone-storage:table::tests::seal_matches_reference_pipeline \
  backbone-storage:table::tests::typed_zone_maps_survive_checkpoint_replay \
  backbone-storage:table::tests::paged_groups_share_their_zone_maps \
  backbone-workloads:tpch::tests::generate_matches_row_path; do
  crate="${spec%%:*}" t="${spec#*:}"
  out="$(cargo test -q -p "$crate" --lib "$t" -- --exact 2>&1)" || { echo "$out"; exit 1; }
  echo "$out"
  grep -q " 1 passed" <<<"$out" || { echo "$crate: $t did not run"; exit 1; }
done

# Nesting a client can send — SQL expressions and wire JSON — is capped with a
# typed error, so no request can overflow a worker's stack; so is the length of
# a request line, so no request can grow a buffer without bound. A request that
# panics the engine gets a typed internal error, and its worker keeps serving.
echo "== hostile input: SQL and JSON nesting depth, request line length, panics, stored bytes =="
cargo test -q -p backbone-bench --test sql_robustness sql_depth_is_a_typed_error_not_a_stack_overflow
cargo test -q -p backbone-server deep_nesting_is_a_typed_error_not_a_stack_overflow
cargo test -q -p backbone-server deeply_nested
cargo test -q -p backbone-server overlong_request_line
cargo test -q -p backbone-server panicking_request_is_a_typed_error_and_the_worker_survives
# Stored bytes are hostile input too: counts crafted in batch chunks,
# schemas, WAL records and resealed checkpoints are `Corrupt`, never an
# allocation that aborts the process, and mutated checkpoints and random
# batch bytes open to `Ok` or a typed error. Typed batch appends land as the
# same rows appended one value at a time, and a malformed batch is a typed
# error. Run by exact name, so a renamed test fails here.
for t in crafted_counts_are_corrupt_not_allocations mutated_checkpoints_open_or_fail_typed \
  random_bytes_read_batch_or_fail_typed append_batch_matches_append_rows; do
  out="$(cargo test -q -p backbone-bench --test storage_properties "$t" -- --exact 2>&1)" || { echo "$out"; exit 1; }
  echo "$out"
  grep -q " 1 passed" <<<"$out" || { echo "storage_properties: $t did not run"; exit 1; }
done

# EXPLAIN ANALYZE's spill line counts its own query alone, even while another
# session spills into the same registry; and perfbench's per-layer
# query.kernel.* readouts come from op.*.kernel.* counters a renamed counter
# would silently zero, so the names are pinned by a test.
echo "== per-query counters: spill-line isolation, perfbench counter names =="
for t in spill_line_is_per_query_under_a_shared_registry perfbench_kernel_counters_are_recorded_by_name; do
  out="$(cargo test -q -p backbone-core --test query_counters "$t" -- --exact 2>&1)" || { echo "$out"; exit 1; }
  echo "$out"
  grep -q " 1 passed" <<<"$out" || { echo "query_counters: $t did not run"; exit 1; }
done

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

# `repro --help` prints the usage and exits 0; an unknown flag, a second
# experiment or an unknown one exits 2 with nothing on stdout, running nothing.
echo "== repro: --help exits 0, unknown arguments exit 2 and run nothing =="
cargo build -q --release -p backbone-bench --bin repro
out="$(target/release/repro --help)"
grep -q "^usage: repro" <<<"$out" || { echo "repro --help: no usage line"; exit 1; }
for bad in "--bogus" "e5 e4" "nope" "e5 --quick --bogus"; do
  status=0
  out="$(target/release/repro $bad 2>/dev/null)" || status=$?
  [ "$status" -eq 2 ] && [ -z "$out" ] ||
    { echo "repro $bad: exit $status, stdout '$out' (want 2 and nothing)"; exit 1; }
done

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
