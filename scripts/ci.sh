#!/usr/bin/env bash
# Continuous-integration driver: a warnings-as-errors release build with the
# full test suite, the kernel bit-identity suites on the scalar SIMD
# fallback, the full suite again under ASan+UBSan and under fatal
# UBSan, the threading tests under TSan, clang-tidy and the Clang
# thread-safety analysis (both when clang is available), the repo-invariant
# lint, the trace race-checker over both renderers, and a smoke run of the
# kernel benchmarks (JSON report, to catch bit-rot in the --json path). The
# serving, network and cluster load gates (failures, protocol errors, wire
# ratio, cache placement, trace trees, allocations per frame) are ctest
# cases in test_serve, test_net and test_cluster, so every stage that runs
# those suites runs them.
# Usage: scripts/ci.sh [build-root]   (default: ./ci-build)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-"$root/ci-build"}
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

echo "==> Release build (-Werror) + tests"
cmake -B "$out/release" -S "$root" -DCMAKE_BUILD_TYPE=Release -DPSW_WERROR=ON
cmake --build "$out/release" -j "$jobs"
ctest --test-dir "$out/release" --output-on-failure -j "$jobs"

echo "==> Scalar SIMD fallback (-DPSW_SIMD=OFF) + kernel bit-identity tests"
# util/simd.hpp's scalar backend claims the same bits as SSE2/NEON; this
# tree builds it and runs the suites that compare the fast compositing and
# warp kernels against their references and the renderers against each
# other.
scalar_tests=(test_warp test_fastpath test_compositor test_renderer
  test_parallel_renderers test_integration)
cmake -B "$out/scalar" -S "$root" -DCMAKE_BUILD_TYPE=Release -DPSW_WERROR=ON \
  -DPSW_SIMD=OFF
cmake --build "$out/scalar" -j "$jobs" --target "${scalar_tests[@]}"
for t in "${scalar_tests[@]}"; do "$out/scalar/tests/$t"; done

echo "==> Paper claims at half scale (figures; ctest checks quarter scale)"
# Every figure, with the claims pinned to half scale; exits 1 on a failed
# claim.
(cd "$out/release/bench" && ./figures --scale=half >/dev/null)

echo "==> ASan+UBSan build + tests"
cmake -B "$out/sanitize" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPSW_WERROR=ON -DPSW_SANITIZE=address
cmake --build "$out/sanitize" -j "$jobs"
ctest --test-dir "$out/sanitize" --output-on-failure -j "$jobs"

echo "==> UBSan build (every finding fatal) + tests"
# The ASan tree above already runs UBSan in recoverable mode; this tree sets
# -fno-sanitize-recover=all so any UB aborts the test instead of printing.
cmake -B "$out/ubsan" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPSW_WERROR=ON -DPSW_SANITIZE=undefined
cmake --build "$out/ubsan" -j "$jobs"
ctest --test-dir "$out/ubsan" --output-on-failure -j "$jobs"

echo "==> TSan build + threading tests"
# TSan is incompatible with ASan, hence its own tree. Only the tests that
# exercise real threads matter here; the serial/tracing suites are covered
# above and would only slow this stage down.
cmake -B "$out/tsan" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPSW_WERROR=ON -DPSW_SANITIZE=thread
cmake --build "$out/tsan" -j "$jobs" \
  --target test_parallel_infra test_parallel_renderers test_fastpath test_serve \
  test_prepare test_net test_cluster test_buffer_pool test_sync test_obs
# The annotated Mutex/CondVar wrappers themselves (adopt/release handoff
# across the condvar sleep) under the race detector.
"$out/tsan/tests/test_sync"
"$out/tsan/tests/test_parallel_infra"
"$out/tsan/tests/test_parallel_renderers"
"$out/tsan/tests/test_fastpath"
# test_prepare under TSan covers the slab-parallel classifier and the
# concurrent per-axis chunked encoders (disjoint writes, seam stitching).
"$out/tsan/tests/test_prepare"
"$out/tsan/tests/test_serve"
# test_net under TSan covers the poll loop, the completion queue handoff,
# the drop-oldest backpressure path and concurrent streams with real sockets.
"$out/tsan/tests/test_net"
# test_cluster under TSan covers the router's poll thread against client
# threads, the probe/eject/rejoin lifecycle and the mid-stream shard-loss
# path (real shards, real sockets).
"$out/tsan/tests/test_cluster"
# Buffer/frame pool concurrency: the multi-threaded acquire/release hammers
# run here under TSan (and under ASan in the full suite above).
"$out/tsan/tests/test_buffer_pool"
# The span recorder's striped rings and seqlock slots under the race
# detector: many writer threads against a concurrent snapshot reader.
"$out/tsan/tests/test_obs"

echo "==> clang-tidy"
"$root/scripts/lint.sh" "$out/lint"

echo "==> Clang thread-safety analysis (-Werror=thread-safety)"
# The capability annotations in util/sync.hpp only do work under Clang;
# this stage proves every GUARDED_BY/REQUIRES contract holds (and the
# configure re-runs tests/compile_fail, whose negative cases only bite
# here). Skips gracefully on toolchains without clang, like lint above.
clangxx=${PSW_CLANGXX:-clang++}
if command -v "$clangxx" >/dev/null 2>&1; then
  cmake -B "$out/tsa" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="$clangxx" -DPSW_THREAD_SAFETY=ON
  cmake --build "$out/tsa" -j "$jobs"
else
  echo "thread-safety: $clangxx not found, skipping (install clang to run locally)"
fi

echo "==> Repo invariants (lock discipline, zero-alloc delivery, relaxed audit)"
"$root/scripts/check_invariants.sh" "$out/invariants"

echo "==> Trace-level race check (both renderers, MRI+CT, 8-32^3, 1-64 procs)"
# Small volumes at high processor counts leave compositing partitions empty,
# the shape that once hid a missing neighbour wait. racecheck traces
# simulated processors; it starts no threads.
for size in 8 16 32; do
  "$out/release/tools/racecheck" --size="$size" --procs=1,4,16,32,64
done

echo "==> Kernel benchmark smoke run (JSON report)"
(cd "$out/release/bench" && ./kernels --json "$out/BENCH_kernels.json" \
  --benchmark_min_time=0.01 >/dev/null)
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/BENCH_kernels.json"

echo "CI OK"
