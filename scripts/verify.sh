#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the ctest suite, which
# holds every blocking check (unit tests, experiment selfchecks, the
# bench/baselines/ gates, out-of-core parity, the wire round trip). The
# one gate left here is a wall-clock one that `ctest -j` would measure
# under contention, so it runs alone after the suite. Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo
echo "=== wall-clock gate: query_throughput K=32 vs K=1 queries/s ==="
# Every K is served on one host thread, so the ratio is batching's gain
# alone: at K=32 the batched path must serve >= 1.5x the queries/s of
# K=1 on at least one symbol x mode.
./build/emogi_bench run query_throughput --scale 16384 --sources 1 \
  --format=csv --out build/BENCH_query_throughput.csv
awk -F, '$4 == "queries_per_sec_speedup_k32" && $5 > max { max = $5 }
         END {
           printf "max queries_per_sec_speedup_k32: %.2fx\n", max
           exit (max >= 1.5 ? 0 : 1)
         }' build/BENCH_query_throughput.csv
