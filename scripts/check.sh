#!/usr/bin/env bash
# Tier-1 verify plus sanitizer builds of the concurrency-adjacent code:
# an AddressSanitizer pass over the memory-lifetime hot spots and a
# ThreadSanitizer pass over the MVCC / multi-instance scheduler suites.
# Run from the repository root:
#
#   scripts/check.sh               # regular build + full ctest, then ASan + TSan
#   SKIP_ASAN=1 scripts/check.sh   # skip the ASan section
#   SKIP_TSAN=1 scripts/check.sh   # skip the TSan section
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: regular build + ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== ASan: sanitized build + obs/integration/plan tests =="
  cmake -B build-asan -S . -DSQLFLOW_SANITIZE=address
  cmake --build build-asan -j --target sqlflow_obs_tests \
    sqlflow_integration_tests sqlflow_sql_tests \
    sqlflow_sql_range_tests sqlflow_sql_fuzz_tests sqlflow_vec_exec_tests \
    sqlflow_chaos_tests sqlflow_introspect_tests \
    sqlflow_mvcc_tests sqlflow_concurrency_tests \
    sqlflow_durability_tests sqlflow_net_tests pattern_matrix
  ./build-asan/tests/sqlflow_obs_tests
  ./build-asan/tests/sqlflow_integration_tests
  # The optimizer differential battery (index/hash-join/plan-cache paths
  # exercise raw slot bookkeeping — worth the sanitized pass), plus the
  # typed key hash table: join-key hashing, join pair order for both
  # build sides, group identity with the optimizer on and off, and the
  # per-group evaluation of observable aggregate arguments.
  ./build-asan/tests/sqlflow_sql_tests \
    --gtest_filter='PlansTest.*:LookupKeyTest.*:JoinOrderTest.*:*GroupKey*:ObservableAggregateTest.*'
  # Range/boundary semantics + the index-consistency property battery,
  # then the 600-query differential fuzzer (ordered-map slot vectors get
  # spliced on every DML — exactly the code ASan should watch).
  ./build-asan/tests/sqlflow_sql_range_tests
  # Differential fuzzer (optimizer on and off, against the reference
  # evaluator) — the vectorized pipeline borrows row storage and string
  # pointers in place, so the 600-query battery runs sanitized.
  ./build-asan/tests/sqlflow_sql_fuzz_tests
  # Columnar batch primitives and window-boundary differentials: null
  # bitmaps, selection compaction, kNullSlot padded reads — raw index
  # arithmetic over borrowed vectors, exactly ASan's beat.
  ./build-asan/tests/sqlflow_vec_exec_tests
  # Fault injection, retry replay, compensation, and the rollback
  # invariant — transaction undo logs and re-executed statements are
  # fresh memory-lifetime territory, so the whole suite runs sanitized.
  ./build-asan/tests/sqlflow_chaos_tests
  # Introspection surface: EXPLAIN ANALYZE profiling hooks, sys.* virtual
  # table materialization, and the synthetic chaos history generator all
  # hand rows across layer boundaries — run the battery sanitized.
  ./build-asan/tests/sqlflow_introspect_tests
  # Cross-layer chaos sweep: all fault layers (statement, mid-statement
  # partial writes, service invoke + adapter bridge) armed at five
  # seeds; Table II and the order-process confirmations must stay
  # byte-identical, with mid-statement rollback running under ASan.
  for seed in 1 2 3 4 5; do
    ./build-asan/examples/pattern_matrix --chaos="$seed" > /dev/null
  done
  # The layer filter must hold the invariant with each layer alone.
  ./build-asan/examples/pattern_matrix --chaos=1 --chaos-sites=mid > /dev/null
  ./build-asan/examples/pattern_matrix --chaos=1 --chaos-sites=service \
    --chaos-prob=0.3 > /dev/null
  # MVCC snapshot isolation and the deterministic interleaving harness
  # (five-seed sweeps live inside the suites) — sanitized for memory
  # lifetime first; the TSan section below covers the data races.
  ./build-asan/tests/sqlflow_mvcc_tests
  ./build-asan/tests/sqlflow_concurrency_tests
  # Crash-recovery sweep: WAL replay, torn-tail truncation, snapshot
  # load, and workflow rehydration all re-read bytes the previous
  # incarnation wrote — the five-seed kill-at-LSN matrices live inside
  # the suite, so the whole durability battery runs sanitized.
  ./build-asan/tests/sqlflow_durability_tests
  # Wire protocol: frame codec buffers, per-connection sessions handed
  # between reader and worker threads, the protocol-hardening battery
  # (malformed frames, CRC flips, half-closes), and the five-seed
  # network-fault + server-crash chaos matrices — socket-lifetime and
  # buffer arithmetic are exactly ASan's beat.
  ./build-asan/tests/sqlflow_net_tests
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== TSan: sanitized build + mvcc/conc/chaos/fuzz suites =="
  # Any data race fails the section at its first report.
  export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
  cmake -B build-tsan -S . -DSQLFLOW_SANITIZE=thread
  cmake --build build-tsan -j --target sqlflow_mvcc_tests \
    sqlflow_concurrency_tests sqlflow_chaos_tests sqlflow_sql_fuzz_tests \
    sqlflow_durability_tests sqlflow_net_tests
  # The free-running worker pool and the concurrent fuzz replay are the
  # genuinely racy schedules; mvcc + chaos pin the lock discipline of
  # the statement latch, version stash, and fault injector.
  ./build-tsan/tests/sqlflow_mvcc_tests
  ./build-tsan/tests/sqlflow_concurrency_tests
  ./build-tsan/tests/sqlflow_chaos_tests
  ./build-tsan/tests/sqlflow_sql_fuzz_tests \
    --gtest_filter='SqlFuzzTest.ConcurrentReplayMatchesSingleThreadedOracle'
  # Durability under TSan: group commit batches appends from concurrent
  # connections behind the WAL mutex, and the cross-connection fuzz
  # replay (above) plus the journal/resume paths share that lock with
  # the statement latch — run the suite to pin the discipline.
  ./build-tsan/tests/sqlflow_durability_tests
  # The server is the raciest schedule in the tree: reader threads
  # that execute requests inline and a shared worker pool contend for
  # the execution slots under the queue mutex, sessions pass between
  # readers and workers, per-connection write mutexes serialize
  # replies, admission gates run on atomics, and the group-commit
  # coalescing wait interleaves with all of it under the chaos
  # matrices — run the suite to pin them.
  ./build-tsan/tests/sqlflow_net_tests
fi

echo "== bench smoke: sql plans + range + exec + chaos + introspect + conc + dur + server =="
./build/bench/bench_sql_plans --quick > /dev/null
./build/bench/bench_sql_range --quick > /dev/null
./build/bench/bench_sql_exec --quick > /dev/null
./build/bench/bench_chaos --quick > /dev/null
./build/bench/bench_introspect --quick > /dev/null
./build/bench/bench_concurrency --quick > /dev/null
./build/bench/bench_durability --quick > /dev/null
# The server smoke also enforces the overload envelope: the binary
# aborts if the 2x-admission run sees a non-transient failure or the
# server is not serving afterwards.
./build/bench/bench_server --quick > /dev/null

echo "== chaos smoke: Table II invariant under seed 1 =="
./build/examples/pattern_matrix --chaos=1 > /dev/null

echo "== metrics dump smoke: registry JSON lands on disk =="
metrics_tmp="$(mktemp)"
./build/examples/pattern_matrix --metrics="$metrics_tmp" > /dev/null
grep -q '"sql.plan.' "$metrics_tmp"
rm -f "$metrics_tmp"

echo "== all checks passed =="
