#!/usr/bin/env bash
# CI entry point: regular build + full test suite + metrics-name lint,
# then a ThreadSanitizer build of the concurrency-bearing test binaries
# (the capture lanes and their event merge, the API dispatch buffer, the epoll
# API plane — event loops, worker pool, response cache, rate limiter,
# streaming export, keep-alive, stop-while-serving — the source-partitioned
# traffic producer, parallel forest training, the annotate passes whose
# threads annotate while the calling thread commits in submit order, the
# durability layer's WAL appends inside those commits including the
# kill-at-random-commit recovery test, and concurrent banner-rule
# matching), and finally an ASan+UBSan build
# running the full test suite, where any UBSan report fails the job.
#
#   tools/ci.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
ASAN_BUILD="${3:-build-asan}"

echo "== build + test =="
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j"$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

echo "== metrics name lint =="
bash tools/check_metrics_names.sh

echo "== bench regression (non-TSan build) =="
cmake --build "$BUILD" -j"$(nproc)" \
  --target bench_ingest_throughput bench_annotate_throughput \
           bench_api_concurrency bench_wal_overhead bench_hotpath \
           bench_federation
BENCH_OUT=$(mktemp -d)
for b in bench_ingest_throughput bench_annotate_throughput \
         bench_api_concurrency bench_wal_overhead bench_hotpath \
         bench_federation; do
  echo "-- bench: $b"
  EXIOT_BENCH_DIR="$BENCH_OUT" "$BUILD/bench/$b" > /dev/null
done
sh tools/check_bench_regression.sh "$BENCH_OUT"
rm -rf "$BENCH_OUT"

echo "== ThreadSanitizer: pipeline / producer / lanes / annotate / federation / tracing / durability / fingerprint / flow / telescope / ml / api / batch tests =="
cmake -B "$TSAN_BUILD" -S . -DEXIOT_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j"$(nproc)" \
  --target pipeline_test producer_test lanes_test annotate_test \
           federation_test tracing_test durability_test fingerprint_test \
           flow_test telescope_test ml_test api_test api_cache_test \
           api_epoll_test robustness_test batch_test
for t in pipeline_test producer_test lanes_test annotate_test federation_test \
         tracing_test durability_test fingerprint_test flow_test \
         telescope_test ml_test api_test api_cache_test api_epoll_test \
         robustness_test batch_test; do
  echo "-- tsan: $t"
  "$TSAN_BUILD/tests/$t"
done

echo "== AddressSanitizer + UndefinedBehaviorSanitizer: full test suite =="
cmake -B "$ASAN_BUILD" -S . -DEXIOT_SANITIZE=address,undefined
cmake --build "$ASAN_BUILD" -j"$(nproc)"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j"$(nproc)"

echo "CI OK"
