// Plain CPU reference implementations of the three traversal apps.
// These are the correctness oracles: the simulated kernels in core/ must
// produce identical levels/distances/labels. The SSSP kernels read
// their weights from graph::Csr::EdgeWeights(); the oracle hashes
// graph::EdgeWeight(e) on purpose, so a wrong table cannot also be the
// reference it is checked against.

#ifndef EMOGI_REF_REFERENCE_H_
#define EMOGI_REF_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace emogi::ref {

inline constexpr std::uint32_t kUnreachable = 0xffffffffu;
inline constexpr std::uint64_t kInfDistance = ~0ull;

// Queue-based BFS; levels[v] == kUnreachable when v is not reachable.
std::vector<std::uint32_t> BfsLevels(const graph::Csr& csr,
                                     graph::VertexId source);

// Dijkstra over graph::EdgeWeight (hashed per edge, not the table).
std::vector<std::uint64_t> SsspDistances(const graph::Csr& csr,
                                         graph::VertexId source);

// Union-find connected components over the undirected closure of the
// edge set; labels[v] is the smallest vertex id in v's component.
std::vector<graph::VertexId> CcLabels(const graph::Csr& csr);

}  // namespace emogi::ref

#endif  // EMOGI_REF_REFERENCE_H_
