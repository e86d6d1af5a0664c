#include "bench/workload.h"

#include <cmath>

#include "runtime/sweep_runner.h"

namespace emogi::bench {
namespace {

// splitmix64: tiny, seedable, and identical everywhere (no
// implementation-defined std:: distribution behavior in workloads that
// parity gates depend on).
struct SplitMix {
  std::uint64_t state;
  std::uint64_t Next() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1] -- never 0, so -log(u) stays finite.
  double NextUnit() {
    return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740993.0;
  }
};

// Linear-probe from a random start to the next vertex with outgoing
// edges -- a source with none would answer trivially and distort the
// amortization measurement.
graph::VertexId PickNonTrivialSource(SplitMix& rng, const graph::Csr& csr) {
  const graph::VertexId num_vertices = csr.num_vertices();
  if (num_vertices == 0) return 0;
  graph::VertexId source =
      static_cast<graph::VertexId>(rng.Next() % num_vertices);
  for (graph::VertexId probe = 0;
       probe < num_vertices && csr.Degree(source) == 0; ++probe) {
    source = source + 1 == num_vertices ? 0 : source + 1;
  }
  return source;
}

// Draws one request's kind and source for shard `g` of `graphs`
// according to the spec's mix.
runtime::Request PickRequest(SplitMix& rng,
                             const std::vector<const graph::Csr*>& graphs,
                             int g, const ServeTraceSpec& spec) {
  runtime::Request request;
  request.graph = g;
  request.deadline_ns = spec.deadline_ns;
  const double roll = static_cast<double>(rng.Next() % 1000000) / 1000000.0;
  if (roll < spec.cc_fraction) {
    request.kind = runtime::QueryKind::kCc;
    request.source = 0;  // CC ignores the source.
  } else {
    request.kind = roll < spec.cc_fraction + spec.sssp_fraction
                       ? runtime::QueryKind::kSssp
                       : runtime::QueryKind::kBfs;
    request.source = PickNonTrivialSource(rng, *graphs[g]);
  }
  return request;
}

std::vector<std::string> Filtered(const std::vector<std::string>& all,
                                  const std::vector<std::string>& filter) {
  if (filter.empty()) return all;
  std::vector<std::string> selected;
  for (const std::string& symbol : all) {
    for (const std::string& wanted : filter) {
      if (symbol == wanted) {
        selected.push_back(symbol);
        break;
      }
    }
  }
  return selected;
}

}  // namespace

const graph::Csr& LoadDataset(const std::string& symbol,
                              const Options& options) {
  return graph::LoadOrGenerateDataset(symbol, options.scale, options.data);
}

std::vector<graph::VertexId> Sources(const graph::Csr& csr,
                                     const Options& options) {
  return graph::PickSources(csr, options.sources);
}

std::vector<std::string> SelectedSymbols(const Options& options) {
  return Filtered(graph::AllDatasetSymbols(), options.symbols);
}

std::vector<std::string> SelectedUndirectedSymbols(const Options& options) {
  return Filtered(graph::UndirectedDatasetSymbols(), options.symbols);
}

bool IsSymbolSelected(const Options& options, const std::string& symbol) {
  if (options.symbols.empty()) return true;
  for (const std::string& wanted : options.symbols) {
    if (wanted == symbol) return true;
  }
  return false;
}

std::vector<core::EmogiConfig> ScaledConfigs(
    const std::vector<core::AccessMode>& modes, std::uint64_t scale) {
  std::vector<core::EmogiConfig> configs;
  configs.reserve(modes.size());
  for (const core::AccessMode mode : modes) {
    core::EmogiConfig config = core::EmogiConfig::ForMode(mode);
    config.device.scale_factor = scale;
    configs.push_back(config);
  }
  return configs;
}

double MeanTimeNs(const std::vector<core::TraversalStats>& runs) {
  if (runs.empty()) return 0;
  double total = 0;
  for (const auto& r : runs) total += r.total_time_ns;
  return total / static_cast<double>(runs.size());
}

std::vector<runtime::Request> GenerateQueryWorkload(
    const graph::Csr& csr, int count, std::uint64_t seed,
    double sssp_fraction) {
  SplitMix rng{seed};
  std::vector<runtime::Request> queries;
  queries.reserve(static_cast<std::size_t>(count > 0 ? count : 0));
  for (int q = 0; q < count && csr.num_vertices() > 0; ++q) {
    const graph::VertexId source = PickNonTrivialSource(rng, csr);
    const bool sssp =
        static_cast<double>(rng.Next() % 1000000) < sssp_fraction * 1000000.0;
    queries.push_back(runtime::Request{
        sssp ? runtime::QueryKind::kSssp : runtime::QueryKind::kBfs, source});
  }
  return queries;
}

std::vector<serve::TimestampedRequest> GenerateArrivalTrace(
    const std::vector<const graph::Csr*>& graphs, const ServeTraceSpec& spec) {
  std::vector<serve::TimestampedRequest> trace;
  if (graphs.empty() || spec.count <= 0) return trace;
  trace.reserve(static_cast<std::size_t>(spec.count));
  SplitMix rng{spec.seed};
  double now_ns = 0.0;
  for (int q = 0; q < spec.count; ++q) {
    serve::TimestampedRequest entry;
    if (spec.mean_interarrival_ns > 0) {
      // Poisson process: exponential gaps of mean `mean_interarrival_ns`.
      now_ns += -std::log(rng.NextUnit()) * spec.mean_interarrival_ns;
      entry.arrival_ns = static_cast<std::uint64_t>(std::llround(now_ns));
    }  // else: burst, everything at t = 0.
    const int g = static_cast<int>(rng.Next() % graphs.size());
    entry.request = PickRequest(rng, graphs, g, spec);
    trace.push_back(entry);
  }
  return trace;
}

double MeanTimeOverSourcesNs(
    const std::vector<graph::VertexId>& sources, int threads,
    const std::function<double(graph::VertexId)>& run_one) {
  if (sources.empty()) return 0;
  runtime::SweepRunner runner(threads);
  const std::vector<double> times =
      runner.Run(sources.size(), [&](std::size_t i) {
        return run_one(sources[i]);
      });
  double total = 0;
  for (const double t : times) total += t;
  return total / static_cast<double>(times.size());
}

}  // namespace emogi::bench
