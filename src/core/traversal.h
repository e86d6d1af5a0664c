// Graph traversal applications (BFS, SSSP, CC) executed functionally on
// the CPU while every neighbor-list access is charged to the configured
// access model (UVM paging or one of the zero-copy request patterns).
// One frontier iteration == one simulated kernel launch; the vertex-state
// arrays (levels/distances/labels, frontier flags) live in device memory
// and are free, exactly as in the paper's kernels -- only the edge list
// (and SSSP's weight array) crosses the PCIe link.
//
// This is a thin facade: the frontier loop lives in core/engine.h and
// runs through DispatchRun, which picks the access mode's monomorphized
// accountant (core/static_accountant.h); the per-source fan-out runs on
// the runtime/ thread pool. DialSssp, beside it, is a host-side
// label-setting SSSP for callers that read only the answer (the wire's
// SSSP lanes).

#ifndef EMOGI_CORE_TRAVERSAL_H_
#define EMOGI_CORE_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "core/stats.h"
#include "graph/csr.h"

namespace emogi::core {

struct BfsRun {
  std::vector<std::uint32_t> levels;  // kNoLevel if unreachable.
  TraversalStats stats;
};

struct SsspRun {
  std::vector<std::uint64_t> distances;  // kInfDistance if unreachable.
  TraversalStats stats;
};

struct CcRun {
  // Per-vertex component label: the smallest vertex id in the component
  // (edges treated as undirected).
  std::vector<graph::VertexId> labels;
  TraversalStats stats;
};

// Answer-only single-source SSSP, label-setting: Dial's bucket queue
// (R. Dial, CACM 12(11), 1969; the delta = 1 case of Meyer and Sanders'
// delta-stepping). Edge weights are integers in 1..graph::kMaxEdgeWeight,
// so every tentative distance pending at once lies within
// kMaxEdgeWeight of the smallest, and kMaxEdgeWeight + 1 circular
// buckets indexed by distance modulo their count hold the queue. A
// vertex is queued again each time its distance improves; the entries
// it leaves behind are skipped when their bucket comes up, so each
// reached vertex is settled, and its list scanned, exactly once.
// Weights come from csr.EdgeWeights(). Writes the distances
// (kInfDistance if unreachable) into `*distances`, resized to the
// vertex count, and returns the edges it scanned: the degree sum of the
// vertices `source` reaches. The distances equal SsspPolicy's; the edge
// count is not Bellman-Ford's, which rescans a vertex on every
// improvement. Charges no cost model: the charged runs stay
// Bellman-Ford, as the modelled GPU kernels are. Pure: safe to call
// concurrently.
std::uint64_t DialSssp(const graph::Csr& csr, graph::VertexId source,
                       std::vector<std::uint64_t>* distances);

class Traversal {
 public:
  Traversal(const graph::Csr& csr, const EmogiConfig& config);

  // Single runs are pure: safe to call concurrently on one Traversal.
  BfsRun Bfs(graph::VertexId source) const;
  SsspRun Sssp(graph::VertexId source) const;
  CcRun Cc() const;

  // One run per source; each run starts from a cold device (empty UVM
  // residency), as in the paper's per-source measurements. Runs fan out
  // across `threads` pool workers (<= 0: the hardware default) with
  // results in source order, so output is identical at any thread count.
  std::vector<TraversalStats> BfsSweep(
      const std::vector<graph::VertexId>& sources, int threads = 0) const;
  std::vector<TraversalStats> SsspSweep(
      const std::vector<graph::VertexId>& sources, int threads = 0) const;

 private:
  const graph::Csr& csr_;
  EmogiConfig config_;
};

}  // namespace emogi::core

#endif  // EMOGI_CORE_TRAVERSAL_H_
