#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the ctest suite, then
# exercise the ingestion subsystem (parser + CSR cache round trip) and
# route the bench smoke runs and selfchecks through emogi_bench, the one
# experiment binary (table + schema-versioned JSON reports, generated
# analogs + real fixture edge lists). Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo
echo "=== ingestion tests ==="
# ctest above already ran these; the explicit reruns make an ingestion
# regression fail loudly on its own named line (and cost milliseconds).
./build/test_edge_list_parser
./build/test_csr_cache

echo
echo "=== fixture round trip: parse -> CSR -> cache -> reload ==="
# Clean slate (rm -rf) forces a full re-ingest rather than reusing the
# CSR cache a previous run left behind. --check fails loudly if an
# ingested fixture violates the invariants the generated-analog path
# guarantees (valid CSR, symmetric undirected adjacency) or if the
# cache round trip is not byte-identical.
rm -rf build/fixtures
./build/make_fixtures --check build/fixtures

echo
echo "=== experiment registry ==="
./build/emogi_bench list

echo
echo "=== smoke: fig09 via the driver at --scale 4096 (generated analogs) ==="
./build/emogi_bench run fig09 --scale 4096

echo
echo "=== smoke: fig09 JSON report on real fixture edge lists ==="
./build/emogi_bench run fig09 --scale 4096 --data-dir build/fixtures \
  --cache-dir build/fixtures/emogi-cache \
  --format=json --out build/BENCH_fig09.json
grep -q '"schema": "emogi-bench-report"' build/BENCH_fig09.json
grep -q '"schema_version": 2' build/BENCH_fig09.json
grep -q '"duration_ns"' build/BENCH_fig09.json
echo "build/BENCH_fig09.json: schema-versioned report OK"

echo
echo "=== regression gate: fig09 vs checked-in baseline ==="
# Deterministic simulated metrics must match the checked-in baseline
# exactly; wall-clock metrics get a 20% band (none in fig09). A
# legitimate model change means regenerating bench/baselines/.
./build/emogi_bench run fig09 --scale 4096 --sources 2 \
  --format=json --out build/BENCH_fig09_analogs.json
./build/bench_compare bench/baselines/BENCH_fig09.json \
  build/BENCH_fig09_analogs.json

echo
echo "=== regression gate: fig11 vs checked-in baseline ==="
# Same contract as fig09: the BFS/SSSP/CC application sweep is a
# deterministic function of (scale, sources), so every metric must match
# the checked-in baseline byte-for-byte.
./build/emogi_bench run fig11 --scale 4096 --sources 2 \
  --format=json --out build/BENCH_fig11_analogs.json
./build/bench_compare bench/baselines/BENCH_fig11.json \
  build/BENCH_fig11_analogs.json

echo
echo "=== scan throughput: host edges/s of DispatchRun per app x mode ==="
# --selfcheck gates that every access mode scans the same edge count per
# app (frontier evolution never depends on the cost model); the timed
# run records host edges/s in BENCH_scan_throughput.json.
./build/emogi_bench run scan_throughput --scale 16384 --sources 1 --selfcheck
./build/emogi_bench run scan_throughput --scale 16384 --sources 1 \
  --format=json --out build/BENCH_scan_throughput.json

echo
echo "=== regression gate: scan_throughput vs checked-in baseline ==="
# The checked-in baseline keeps only the deterministic rows (per-app
# simulated edges_replayed counts); every edges/s row is wall-clock and
# was stripped when it was generated, so the compared
# metrics must match exactly on any machine.
./build/emogi_bench run scan_throughput --scale 4096 --sources 2 \
  --format=json --out build/BENCH_scan_throughput_analogs.json
./build/bench_compare bench/baselines/BENCH_scan_throughput.json \
  build/BENCH_scan_throughput_analogs.json

echo
echo "=== query throughput: K-lane batched serving vs sequential ==="
# --selfcheck gates parity: every batched query's levels/distances and
# per-query visit counts must be byte-identical to a dedicated
# single-source run, at every K and access mode. The timed run then
# records queries/s and the scan-amortization ratio; at K=32 the batched
# path must amortize >= 2x the edge scans and serve >= 1.5x the
# queries/s of K=1 on at least one symbol x mode.
./build/emogi_bench run query_throughput --scale 16384 --sources 1 --selfcheck
./build/emogi_bench run query_throughput --scale 16384 --sources 1 \
  --format=json --out build/BENCH_query_throughput.json
./build/emogi_bench run query_throughput --scale 16384 --sources 1 \
  --format=csv --out build/BENCH_query_throughput.csv
awk -F, '$4 == "amortization_k32" && $5 > max { max = $5 }
         END {
           printf "max amortization_k32: %.2fx\n", max
           exit (max >= 2.0 ? 0 : 1)
         }' build/BENCH_query_throughput.csv
awk -F, '$4 == "queries_per_sec_speedup_k32" && $5 > max { max = $5 }
         END {
           printf "max queries_per_sec_speedup_k32: %.2fx\n", max
           exit (max >= 1.5 ? 0 : 1)
         }' build/BENCH_query_throughput.csv

echo
echo "=== regression gate: query_throughput vs checked-in baseline ==="
# The checked-in baseline keeps only the deterministic rows (per-K edge
# charges, amortization ratios, wave counts); the wall-clock queries/s
# rows were stripped when it was generated, so every compared metric
# must match exactly on any machine.
./build/emogi_bench run query_throughput --scale 4096 --sources 2 \
  --format=json --out build/BENCH_query_throughput_analogs.json
./build/bench_compare bench/baselines/BENCH_query_throughput.json \
  build/BENCH_query_throughput_analogs.json

echo
echo "=== serving latency: admission control + simulated tail latency ==="
# --selfcheck gates: every served answer byte-identical to a dedicated
# sequential run, the admission gates hold, and the multi-shard outcome
# is byte-identical at thread counts {1, 2, 5}. The CSV gates then pin
# the admission-control contract structurally: the nominal trace (its
# count fits the queue bound) must reject nothing, and the overload
# burst (whole trace at t=0 against a bound of 8) must reject > 0 --
# both deterministic, not tuning-sensitive.
./build/emogi_bench run serving_latency --scale 16384 --sources 1 --selfcheck
./build/emogi_bench run serving_latency --scale 16384 --sources 1 \
  --format=json --out build/BENCH_serving_latency.json
./build/emogi_bench run serving_latency --scale 16384 --sources 1 \
  --format=csv --out build/BENCH_serving_latency.csv
awk -F, '$4 == "reject_rate" && $5 + 0 != 0 { bad = 1 }
         END {
           print (bad ? "nominal reject_rate != 0" : "nominal reject_rate: 0 everywhere")
           exit bad
         }' build/BENCH_serving_latency.csv
awk -F, '$4 == "reject_rate_overload" && $5 > max { max = $5 }
         END {
           printf "max reject_rate_overload: %.3f\n", max
           exit (max > 0 ? 0 : 1)
         }' build/BENCH_serving_latency.csv

echo
echo "=== regression gate: serving_latency vs checked-in baseline ==="
# The checked-in baseline keeps only the deterministic rows (simulated
# p50/p95/p99, reject rates, wave occupancy); the wall-clock queries/s
# rows were stripped when it was generated, so every compared metric
# must match exactly on any machine.
./build/emogi_bench run serving_latency --scale 4096 --sources 2 \
  --format=json --out build/BENCH_serving_latency_analogs.json
./build/bench_compare bench/baselines/BENCH_serving_latency.json \
  build/BENCH_serving_latency_analogs.json

echo
echo "=== out-of-core ingestion: container decode + chunked build ==="
# --selfcheck gates the whole subsystem: gzip/bin containers round-trip
# to the same CSR as plain text, a truncated gzip stream is rejected,
# the chunked external-memory build is byte-identical to the in-memory
# cache writer while holding peak resident edge bytes <= the budget
# (>= 2 chunks under the auto budget), and the mmap-paged view serves
# identical arrays. The timed run records container decode and build
# rates in BENCH_ingest_throughput.json.
./build/emogi_bench run ingest_throughput --scale 16384 --selfcheck
./build/emogi_bench run ingest_throughput --scale 16384 \
  --format=json --out build/BENCH_ingest_throughput.json

echo
echo "=== regression gate: ingest_throughput vs checked-in baseline ==="
# The checked-in baseline keeps only the deterministic rows (chunk count,
# auto budget, peak resident edge bytes, spill bytes, cache file size and
# pages, selfcheck_ok); the edges/s, *_duration_ns and resident_pages
# rows were stripped when it was generated, so every compared metric
# must match exactly on any machine.
./build/emogi_bench run ingest_throughput --scale 16384 --sources 2 \
  --selfcheck --format=json --out build/BENCH_ingest_throughput_gate.json
./build/bench_compare bench/baselines/BENCH_ingest_throughput.json \
  build/BENCH_ingest_throughput_gate.json

echo
echo "=== out-of-core parity: fig09 paged + budgeted vs resident ==="
# The same fixture graph served two ways -- classic resident CSR, then a
# fresh chunked (1 MiB budget) cache build served as an mmap-ed view --
# must produce byte-identical deterministic fig09 metrics. rm between
# runs forces the second ingest through the external-memory builder.
rm -rf build/ooc-cache
./build/emogi_bench run fig09 --scale 4096 --sources 2 \
  --data-dir build/fixtures --cache-dir build/ooc-cache \
  --format=json --out build/BENCH_fig09_resident.json
rm -rf build/ooc-cache
./build/emogi_bench run fig09 --scale 4096 --sources 2 \
  --data-dir build/fixtures --cache-dir build/ooc-cache \
  --memory-budget 1M --paged-csr 1 \
  --format=json --out build/BENCH_fig09_paged.json
./build/bench_compare build/BENCH_fig09_resident.json \
  build/BENCH_fig09_paged.json

echo
echo "=== wire serving: protocol + weighted fair dispatch over live sockets ==="
# --selfcheck gates: trace-replay answers over a live Unix socket (and
# single queries over TCP loopback) byte-identical to a dedicated
# in-process QueryService, exact typed kOverloaded/kInvalidSource
# rejections, the weight-4 tenant >= 3x the weight-1 tenant inside the
# saturated window of runtime::Dispatcher's DRR with no starvation, and
# a clean drain.
./build/emogi_bench run net_serving --scale 8192 --sources 2 --selfcheck
./build/emogi_bench run net_serving --scale 8192 --sources 2 \
  --format=json --out build/BENCH_net_serving.json
grep -q '"schema": "emogi-bench-report"' build/BENCH_net_serving.json

echo
echo "=== regression gate: net_serving vs checked-in baseline ==="
# The checked-in baseline keeps only the deterministic rows (replayed
# query count, both parity flags, the DRR window and total service
# counts, the overload rejections, the window throughput ratio); the
# wall-clock replay_queries_per_sec row was stripped when it was
# generated, so every compared metric must match exactly on any machine.
./build/bench_compare bench/baselines/BENCH_net_serving.json \
  build/BENCH_net_serving.json

echo
echo "=== wire serving: emogi_serve <-> emogi_client round trip ==="
# Launches emogi_serve --listen on a scratch Unix socket, replays a
# seeded trace through the real emogi_client binary with --check
# (parity against a dedicated in-process service) and --require-ok,
# then SIGINT-drains the server and requires exit 0.
EMOGI_SCALE=8192 EMOGI_SOURCES=2 scripts/serve_roundtrip.sh \
  build/emogi_serve build/emogi_client build/serve_roundtrip_verify

echo
echo "=== bench history ledger: fig09 trajectory (dry run) ==="
# Appends nothing (--dry-run keeps the tree clean); prints the stable /
# drifted / wall-clock breakdown against bench/history/fig09.jsonl. The
# ledger records, it does not gate -- drift shows up here, regressions
# are caught by the baseline gates above.
./build/emogi_bench run fig09 --scale 8192 --sources 2 \
  --format=json --out build/BENCH_fig09_history.json
./build/bench_history build/BENCH_fig09_history.json --dry-run

echo
echo "=== multi-GPU sanity: 1-vs-4-device parity and speedup ==="
# --selfcheck exits nonzero unless the 1-device run is byte-identical to
# the single-device engine and zero-copy speedup is monotonically
# non-decreasing from 1 to 4 devices on at least two dataset symbols.
./build/emogi_bench run fig13 --scale 4096 --selfcheck
