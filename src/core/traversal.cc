#include "core/traversal.h"

#include <array>
#include <utility>

#include "runtime/sweep_runner.h"

namespace emogi::core {

std::uint64_t DialSssp(const graph::Csr& csr, graph::VertexId source,
                       std::vector<std::uint64_t>* distances) {
  // A weight below the ring size never lands an entry in the bucket
  // being drained.
  constexpr std::uint64_t kBuckets = graph::kMaxEdgeWeight + 1;
  std::array<std::vector<graph::VertexId>, kBuckets> buckets;
  distances->assign(csr.num_vertices(), kInfDistance);
  std::uint64_t* const dist = distances->data();
  const std::uint8_t* const weights = csr.EdgeWeights();
  dist[source] = 0;
  buckets[0].push_back(source);
  std::uint64_t queued = 1;
  std::uint64_t scanned = 0;
  for (std::uint64_t d = 0; queued > 0; ++d) {
    std::vector<graph::VertexId>& bucket = buckets[d % kBuckets];
    for (const graph::VertexId v : bucket) {
      if (dist[v] != d) continue;  // Left behind by a later improvement.
      const graph::EdgeIndex begin = csr.NeighborBegin(v);
      const std::uint64_t degree = csr.Degree(v);
      scanned += degree;
      const graph::VertexId* neighbor = csr.NeighborData(begin);
      const graph::VertexId* const end = neighbor + degree;
      const std::uint8_t* weight = weights + begin;
      for (; neighbor != end; ++neighbor, ++weight) {
        const graph::VertexId w = *neighbor;
        const std::uint64_t candidate = d + *weight;
        if (candidate < dist[w]) {
          dist[w] = candidate;
          buckets[candidate % kBuckets].push_back(w);
          ++queued;
        }
      }
    }
    queued -= bucket.size();
    bucket.clear();
  }
  return scanned;
}

Traversal::Traversal(const graph::Csr& csr, const EmogiConfig& config)
    : csr_(csr), config_(config) {}

BfsRun Traversal::Bfs(graph::VertexId source) const {
  BfsPolicy policy(csr_, source);
  BfsRun run;
  run.stats = DispatchRun(csr_, config_, policy);
  run.levels = std::move(policy.levels());
  return run;
}

SsspRun Traversal::Sssp(graph::VertexId source) const {
  SsspPolicy policy(csr_, source);
  SsspRun run;
  run.stats = DispatchRun(csr_, config_, policy);
  run.distances = std::move(policy.distances());
  return run;
}

CcRun Traversal::Cc() const {
  CcPolicy policy(csr_);
  CcRun run;
  run.stats = DispatchRun(csr_, config_, policy);
  run.labels = std::move(policy.labels());
  return run;
}

std::vector<TraversalStats> Traversal::BfsSweep(
    const std::vector<graph::VertexId>& sources, int threads) const {
  runtime::SweepRunner runner(threads);
  return runner.Run(sources.size(),
                    [&](std::size_t i) { return Bfs(sources[i]).stats; });
}

std::vector<TraversalStats> Traversal::SsspSweep(
    const std::vector<graph::VertexId>& sources, int threads) const {
  runtime::SweepRunner runner(threads);
  return runner.Run(sources.size(),
                    [&](std::size_t i) { return Sssp(sources[i]).stats; });
}

}  // namespace emogi::core
