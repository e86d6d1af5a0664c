// Dataset and sweep helpers shared by the experiments (promoted from
// the old bench/bench_util.*).

#ifndef EMOGI_BENCH_WORKLOAD_H_
#define EMOGI_BENCH_WORKLOAD_H_

#include <functional>
#include <string>
#include <vector>

#include "bench/options.h"
#include "core/config.h"
#include "core/stats.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "runtime/query_service.h"
#include "serve/server.h"

namespace emogi::bench {

// Loads (or generates+caches) a dataset at the bench scale with the GPU
// memory scale factor applied to `device` configs by the caller. The
// reference is into the process-lifetime cache; copy it to mutate.
const graph::Csr& LoadDataset(const std::string& symbol,
                              const Options& options);

// Deterministic sources for the dataset.
std::vector<graph::VertexId> Sources(const graph::Csr& csr,
                                     const Options& options);

// The dataset symbols this run covers: all of them, restricted to
// `options.symbols` when a --filter was given (paper order preserved).
std::vector<std::string> SelectedSymbols(const Options& options);

// The undirected subset of SelectedSymbols (CC runs only on these).
std::vector<std::string> SelectedUndirectedSymbols(const Options& options);

// True when `symbol` passes the --filter restriction (always true
// without one) -- for experiments with hardcoded workload rows.
bool IsSymbolSelected(const Options& options, const std::string& symbol);

// Factory configs for `modes` with the bench scale factor applied --
// the shared replacement for the per-figure {"UVM", Uvm()}, ... tables.
std::vector<core::EmogiConfig> ScaledConfigs(
    const std::vector<core::AccessMode>& modes, std::uint64_t scale);

// Mean over per-run simulated times, in ns.
double MeanTimeNs(const std::vector<core::TraversalStats>& runs);

// Mean simulated time of `run_one` over the sources, fanned across
// `threads` sweep workers with deterministic (source-order) accumulation.
// `run_one` must be safe to call concurrently.
double MeanTimeOverSourcesNs(
    const std::vector<graph::VertexId>& sources, int threads,
    const std::function<double(graph::VertexId)>& run_one);

// Deterministic serving workload for the batching experiments: `count`
// traversal queries whose sources are drawn pseudo-randomly (seeded,
// splitmix64) from the graph's nonzero-out-degree vertices, with
// `sssp_fraction` of them SSSP and the rest BFS. The same (graph, count,
// seed, fraction) always yields the same stream, so batched and
// sequential servings of it are directly comparable.
std::vector<runtime::Request> GenerateQueryWorkload(
    const graph::Csr& csr, int count, std::uint64_t seed,
    double sssp_fraction);

// Shape of a serving trace: how many queries, what mix, and how they
// arrive. The same spec over the same graphs always yields the same
// trace (seeded splitmix64 throughout, no std:: distributions).
struct ServeTraceSpec {
  int count = 64;
  std::uint64_t seed = 1;
  // Query mix: cc_fraction of the stream is CC, sssp_fraction SSSP, the
  // rest BFS. Callers keep cc_fraction at 0 for directed graphs.
  double sssp_fraction = 0.25;
  double cc_fraction = 0.0;
  // Open-loop Poisson arrivals with this mean inter-arrival gap, in
  // simulated ns; <= 0 makes a burst trace (everything arrives at
  // t = 0, the admission-control stress case).
  double mean_interarrival_ns = 0.0;
  // Queueing deadline stamped on every request (0 = none).
  std::uint64_t deadline_ns = 0;
};

// Timestamped open-loop trace for serve::Server::ServeTrace, spread
// pseudo-uniformly over `graphs` (index = shard id); sources are drawn
// from each graph's nonzero-out-degree vertices like
// GenerateQueryWorkload. Entries are in arrival-time order.
std::vector<serve::TimestampedRequest> GenerateArrivalTrace(
    const std::vector<const graph::Csr*>& graphs, const ServeTraceSpec& spec);

}  // namespace emogi::bench

#endif  // EMOGI_BENCH_WORKLOAD_H_
