#!/usr/bin/env bash
# CI entry point: build + test the default configuration, then rerun the
# suite under the feature gates (caches off, vectorized execution off,
# resource accounting off, paged out-of-core storage with a deliberately
# tiny buffer pool), then rebuild under ThreadSanitizer and
# AddressSanitizer+UBSan and rerun everything again. The TSAN pass is what shakes out data races in the
# morsel-parallel relational paths (filters, join probe, hash aggregation,
# batched nUDFs), the sharded cross-query caches, and the buffer pool's
# sharded pin/evict protocol.
#
# Passes are REGISTERED in the list at the bottom and banner numbers are
# derived from it, so adding a pass cannot silently reuse or skip a number.
# DL2SQL_CI_SKIP is an extended-regex over pass names for hosts that cannot
# run a pass (e.g. DL2SQL_CI_SKIP='sanitizer' on a box without TSAN); the
# summary line names every skipped pass so a green run that skipped work
# cannot masquerade as a full one.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "${JOBS}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

pass_default_build() {
  run_suite build-ci
}

pass_cache_off() {
  # The plan and nUDF result caches must be pure performance changes:
  # rerunning the whole suite with DL2SQL_CACHE=OFF proves no result depends
  # on whether a cached plan or memoized nUDF answer was served.
  DL2SQL_CACHE=OFF ctest --test-dir build-ci --output-on-failure -j "${JOBS}"
}

pass_vector_off() {
  # The batch-at-a-time engine must be a pure performance change: rerunning
  # the whole suite with DL2SQL_VECTOR=OFF pins the row-path fallback and
  # proves nothing observable depends on which execution mode ran.
  DL2SQL_VECTOR=OFF ctest --test-dir build-ci --output-on-failure -j "${JOBS}"
}

pass_mem_tracker_off() {
  # Per-query accounting must be a pure observability change: rerunning the
  # suite with DL2SQL_MEM_TRACKER=OFF pins the untracked path and proves no
  # result depends on whether charges/limits/profiles were live.
  DL2SQL_MEM_TRACKER=OFF ctest --test-dir build-ci --output-on-failure \
    -j "${JOBS}"
}

pass_paged_storage() {
  # Paged storage must be bit-identical to the in-memory path: the whole
  # suite reruns with a deliberately tiny pool (2 MB), an aggressive paging
  # threshold, and a query memory budget, so eviction, the grace hash join,
  # and external aggregation all run on every merge — not just the happy
  # in-memory path. Tests that assert in-memory accounting semantics pin
  # StorageMode::kInMemory themselves.
  DL2SQL_STORAGE=paged \
  DL2SQL_BUFFER_POOL_BYTES=2097152 \
  DL2SQL_PAGE_MIN_BYTES=4096 \
  DL2SQL_QUERY_MEM_LIMIT=67108864 \
    ctest --test-dir build-ci --output-on-failure -j "${JOBS}"
}

pass_tsan_build() {
  run_suite build-ci-tsan -DDL2SQL_SANITIZE=thread
}

pass_tsan_pinned() {
  # Redundant with the full TSAN suite above, but pinned by name so the
  # concurrency-sensitive observability, caching, vectorized-kernel,
  # resource-accounting, and out-of-core tests (buffer-pool frames are
  # pinned and evicted from concurrent query threads) cannot silently drop
  # out of coverage if the suite layout changes. The name regex lives in
  # scripts/tsan_pinned_tests.regex, read by .github/workflows/ci.yml too.
  ctest --test-dir build-ci-tsan --output-on-failure \
    -R "$(< scripts/tsan_pinned_tests.regex)"
}

pass_asan_build() {
  # UBSan also proves the SIMD-friendly batch kernels clean: the float->int64
  # canonicalization in the hash/compare kernels guards its casts explicitly.
  run_suite build-ci-asan -DDL2SQL_SANITIZE=address
}

pass_trace_overhead() {
  # Tracing compiled in but runtime-disabled must stay under the overhead
  # budget (default 5%; DL2SQL_TRACE_OVERHEAD_PCT overrides on noisy hosts),
  # and enabled tracing must actually record spans. Uses the default
  # (unsanitized) build: TSAN timing is meaningless for an overhead guard.
  cmake --build build-ci -j "${JOBS}" --target bench_trace_overhead
  ./build-ci/bench/bench_trace_overhead
  ./build-ci/bench/bench_trace_overhead --enabled
}

pass_profile_overhead() {
  # Fully-enabled per-query accounting must stay within budget of the
  # DL2SQL_MEM_TRACKER=OFF path on the fig8-style mix (default 5%;
  # DL2SQL_PROFILE_OVERHEAD_PCT overrides on noisy hosts). Runs from the
  # build dir so the emitted BENCH_profile.json never clobbers the committed
  # snapshot at the repo root. The distributed tracing leg runs AFTER the
  # profile bench (which rewrites BENCH_profile.json) and merges its
  # dist_mix_on_sec/dist_mix_off_sec keys into the same file.
  cmake --build build-ci -j "${JOBS}" --target bench_profile_overhead \
    bench_trace_overhead
  (cd build-ci && ./bench/bench_profile_overhead)
  (cd build-ci && ./bench/bench_trace_overhead --distributed)
}

pass_oocore_scale() {
  # Out-of-core scale guard: a fig8-style mix over data >= 10x the buffer
  # pool must complete bit-identical to the in-memory run with bounded RSS
  # and visible spills. Runs from the build dir (emits BENCH_oocore.json).
  cmake --build build-ci -j "${JOBS}" --target bench_oocore_scale
  (cd build-ci && ./bench/bench_oocore_scale --quick)
}

pass_perfbench_selfcheck() {
  # The benchmark builds the library from src/ and gates its own results:
  # short runs of every workload must build, print every BENCHMARK.json
  # metric with its unit, report no failed operation, and count a planted
  # wrong result as exactly one failure.
  python3 perfbench/selfcheck.py --seconds 3
}

pass_batching_ablation() {
  # Batched DL2SQL pipelines must predict the per-image pipeline's classes
  # at every sub-batch size swept, the runner's automatic one included
  # (BENCH_CHECK aborts the binary otherwise).
  cmake --build build-ci -j "${JOBS}" --target bench_ablation_batching
  ./build-ci/bench/bench_ablation_batching
}

pass_server_smoke() {
  # Boots lindb_server, drives it with lindb_client through a query script,
  # diffs the output against the committed golden file, scrapes /metrics over
  # HTTP (Prometheus text exposition) and scans system.queries (both must be
  # non-empty), and checks SIGTERM shutdown is clean.
  cmake --build build-ci -j "${JOBS}" --target lindb_server lindb_client
  scripts/server_smoke.sh build-ci
}

pass_cluster_smoke() {
  # Boots a coordinator + 2 shard lindb_servers on loopback, loads a
  # hash-partitioned table through the coordinator, and requires the fig8
  # mix to render byte-identical to a single-node server over the same data.
  # Also checks system.shards health, federated system.queries, and clean
  # SIGTERM shutdown of all processes.
  cmake --build build-ci -j "${JOBS}" --target lindb_server lindb_client
  scripts/cluster_smoke.sh build-ci
}

# --- registered pass list: banner numbers derive from position here. ---
PASS_NAMES=()
PASS_FUNCS=()
register_pass() {
  PASS_NAMES+=("$1")
  PASS_FUNCS+=("$2")
}
register_pass "default build" pass_default_build
register_pass "caches off (results must stay identical)" pass_cache_off
register_pass "vectorized execution off (results must stay identical)" \
  pass_vector_off
register_pass "resource accounting off (results must stay identical)" \
  pass_mem_tracker_off
register_pass "paged storage, tiny pool (results must stay identical)" \
  pass_paged_storage
register_pass "ThreadSanitizer build" pass_tsan_build
register_pass "concurrency-sensitive tests pinned under ThreadSanitizer" \
  pass_tsan_pinned
register_pass "AddressSanitizer+UBSan build" pass_asan_build
register_pass "tracing-overhead guard" pass_trace_overhead
register_pass "resource-accounting overhead guard" pass_profile_overhead
register_pass "out-of-core scale guard" pass_oocore_scale
register_pass "benchmark self-check" pass_perfbench_selfcheck
register_pass "batching ablation smoke" pass_batching_ablation
register_pass "server smoke over TCP" pass_server_smoke
register_pass "cluster smoke: scatter-gather vs single node" \
  pass_cluster_smoke

TOTAL="${#PASS_NAMES[@]}"
SKIPPED=()
for ((i = 0; i < TOTAL; ++i)) do
  name="${PASS_NAMES[$i]}"
  if [[ -n "${DL2SQL_CI_SKIP:-}" ]] && [[ "${name}" =~ ${DL2SQL_CI_SKIP} ]]
  then
    echo "== CI pass $((i + 1))/${TOTAL}: ${name} == SKIPPED (DL2SQL_CI_SKIP)"
    SKIPPED+=("${name}")
    continue
  fi
  echo "== CI pass $((i + 1))/${TOTAL}: ${name} =="
  "${PASS_FUNCS[$i]}"
done

if ((${#SKIPPED[@]} > 0)); then
  echo "== CI: green with ${#SKIPPED[@]} pass(es) SKIPPED:" \
    "$(printf '[%s] ' "${SKIPPED[@]}")=="
else
  echo "== CI: all ${TOTAL} passes green =="
fi
