// Scan throughput: host-side edges/second of the simulator's engine path,
// core::DispatchRun, per app x access mode. This is the one experiment
// that measures the simulator itself rather than the simulated GPU:
// wall-clock derived, so its edges/s values are machine-dependent and
// excluded from the byte-identity gates (schema v2 marks them via the
// edges/s unit).
//
// Method: per (app x mode), one DispatchRun per selected dataset (first
// source), best of 3 wall-clock, single-threaded. Policies are built
// before the clock starts, so the timing covers the frontier loop and
// the mode's accountant only.
//
// `--selfcheck` exits nonzero unless every access mode scans the same
// edge count per app: frontier evolution depends only on (policy,
// graph), never on the cost model (deliberately NOT a speed gate, so
// Debug and sanitizer builds stay green).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "core/engine.h"

namespace emogi::bench {
namespace {

struct ModeResult {
  std::uint64_t edges = 0;  // Edges the accountant charged compute for.
  double best_ns = 0;       // Best-of-reps wall clock over all datasets.
};

// Times DispatchRun of `make(graph, source)`'s policy on every graph.
template <typename MakePolicy>
ModeResult MeasureMode(const MakePolicy& make,
                       const std::vector<const graph::Csr*>& graphs,
                       const std::vector<graph::VertexId>& sources,
                       const core::EmogiConfig& config) {
  using Policy = decltype(make(*graphs[0], sources[0]));
  ModeResult result;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<Policy> policies;
    policies.reserve(graphs.size());
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      policies.push_back(make(*graphs[g], sources[g]));
    }
    std::uint64_t edges = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const core::TraversalStats stats =
          core::DispatchRun(*graphs[g], config, policies[g]);
      edges += static_cast<std::uint64_t>(std::llround(
          stats.compute_ns / config.device.compute_ns_per_edge));
    }
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (rep == 0 || ns < result.best_ns) result.best_ns = ns;
    result.edges = edges;
  }
  return result;
}

double EdgesPerSec(std::uint64_t edges, double ns) {
  return ns > 0 ? static_cast<double>(edges) * 1e9 / ns : 0.0;
}

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  report->Banner("Scan throughput",
                 "DispatchRun per app x access mode (host edges/s, best of "
                 "3, scale 1/" +
                     std::to_string(options.scale) + ")");

  const std::vector<core::AccessMode>& modes = core::AllAccessModes();
  const std::vector<core::EmogiConfig> configs =
      ScaledConfigs(modes, options.scale);

  // BFS/SSSP run every selected dataset; CC only the undirected subset
  // (as everywhere else in the suite). First source only: throughput is
  // per-engine-run, not a sweep statistic.
  std::vector<const graph::Csr*> graphs, undirected_graphs;
  std::vector<graph::VertexId> sources, undirected_sources;
  for (const std::string& symbol : SelectedSymbols(options)) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    graphs.push_back(&csr);
    sources.push_back(Sources(csr, options)[0]);
  }
  for (const std::string& symbol : SelectedUndirectedSymbols(options)) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    undirected_graphs.push_back(&csr);
    undirected_sources.push_back(Sources(csr, options)[0]);
  }

  std::vector<std::string> header;
  for (const core::AccessMode mode : modes) {
    header.push_back(core::ToString(mode));
  }
  report->Row("app", header, 20, 16);

  bool edges_agree = true;
  const auto measure_app = [&](const std::string& app, const auto& make,
                               const std::vector<const graph::Csr*>& gs,
                               const std::vector<graph::VertexId>& ss) {
    if (gs.empty()) return;  // --filter can empty CC's undirected subset.
    std::vector<std::string> cells;
    std::uint64_t edges = 0;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const ModeResult result = MeasureMode(make, gs, ss, configs[m]);
      if (m == 0) edges = result.edges;
      edges_agree = edges_agree && result.edges == edges;
      const double rate = EdgesPerSec(result.edges, result.best_ns);
      report->Metric(app, core::ToString(modes[m]), "edges_per_sec", rate,
                     kUnitEdgesPerSec);
      cells.push_back(FormatDouble(rate / 1e6, 1) + " Me/s");
    }
    // The one deterministic metric in this experiment: the simulated
    // edge count each mode's runs scan. It anchors the checked-in
    // baseline (all edges/s rows are wall-clock and stripped from it).
    report->Metric(app, "All", "edges_replayed", static_cast<double>(edges),
                   "");
    report->Row(app, cells, 20, 16);
  };

  measure_app("BFS",
              [](const graph::Csr& csr, graph::VertexId source) {
                return core::BfsPolicy(csr, source);
              },
              graphs, sources);
  measure_app("SSSP",
              [](const graph::Csr& csr, graph::VertexId source) {
                return core::SsspPolicy(csr, source);
              },
              graphs, sources);
  measure_app("CC",
              [](const graph::Csr& csr, graph::VertexId /*source*/) {
                return core::CcPolicy(csr);
              },
              undirected_graphs, undirected_sources);

  report->Text(
      "\nnote: wall-clock host throughput of the simulator's engine path "
      "(not a paper figure): edges scanned per second of core::DispatchRun "
      "with each mode's accountant.\n");

  if (ctx.selfcheck) {
    report->Metric("", "", "selfcheck_ok", edges_agree ? 1 : 0, "");
    if (!edges_agree) {
      std::fprintf(stderr,
                   "selfcheck FAILED: access modes scanned different edge "
                   "counts for one app\n");
      return 1;
    }
    report->Text("selfcheck OK: every access mode scans the same edges per "
                 "app\n");
  }
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(scan_throughput, {
    /*id=*/"scan_throughput",
    /*title=*/"Perf: host edges/s of the engine scan path per app x mode",
    /*tags=*/{"perf", "engine"},
    /*has_selfcheck=*/true,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
