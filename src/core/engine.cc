#include "core/engine.h"

#include <algorithm>
#include <numeric>

namespace emogi::core {

// --- BFS --------------------------------------------------------------------

BfsPolicy::BfsPolicy(const graph::Csr& csr, graph::VertexId source)
    : csr_(csr), source_(source), levels_(csr.num_vertices(), kNoLevel) {}

void BfsPolicy::InitFrontier(std::vector<graph::VertexId>* frontier) {
  levels_[source_] = 0;
  frontier->assign(1, source_);
}

void BfsPolicy::Expand(graph::VertexId v,
                       std::vector<graph::VertexId>* next) {
  const std::uint32_t next_level = levels_[v] + 1;
  for (graph::EdgeIndex e = csr_.NeighborBegin(v); e < csr_.NeighborEnd(v);
       ++e) {
    const graph::VertexId w = csr_.Neighbor(e);
    if (levels_[w] == kNoLevel) {
      levels_[w] = next_level;
      next->push_back(w);
    }
  }
}

void BfsPolicy::NextFrontier(std::vector<graph::VertexId>* frontier,
                             std::vector<graph::VertexId>* next) {
  frontier->swap(*next);
}

std::uint64_t BfsPolicy::DatasetBytes() const { return csr_.EdgeListBytes(); }

// --- SSSP -------------------------------------------------------------------

SsspPolicy::SsspPolicy(const graph::Csr& csr, graph::VertexId source)
    : csr_(csr),
      weights_(csr.EdgeWeights()),
      source_(source),
      distances_(csr.num_vertices(), kInfDistance),
      queued_(csr.num_vertices(), 0) {}

void SsspPolicy::InitFrontier(std::vector<graph::VertexId>* frontier) {
  distances_[source_] = 0;
  frontier->assign(1, source_);
}

void SsspPolicy::Expand(graph::VertexId v,
                        std::vector<graph::VertexId>* next) {
  queued_[v] = 0;
  const std::uint64_t base_distance = distances_[v];
  const graph::EdgeIndex begin = csr_.NeighborBegin(v);
  const graph::VertexId* neighbor = csr_.NeighborData(begin);
  const graph::VertexId* const end = neighbor + csr_.Degree(v);
  const std::uint8_t* weight = weights_ + begin;
  // Locals, not members: a store through `queued` (a byte pointer, which
  // may alias anything) would otherwise force a reload on every edge.
  std::uint64_t* const distances = distances_.data();
  std::uint8_t* const queued = queued_.data();
  for (; neighbor != end; ++neighbor, ++weight) {
    const graph::VertexId w = *neighbor;
    const std::uint64_t candidate = base_distance + *weight;
    if (candidate < distances[w]) {
      distances[w] = candidate;
      if (!queued[w]) {
        queued[w] = 1;
        next->push_back(w);
      }
    }
  }
}

void SsspPolicy::NextFrontier(std::vector<graph::VertexId>* frontier,
                              std::vector<graph::VertexId>* next) {
  frontier->swap(*next);
}

std::uint64_t SsspPolicy::DatasetBytes() const {
  return csr_.EdgeListBytes() + csr_.num_edges() * kWeightBytes;
}

// --- CC ---------------------------------------------------------------------

CcPolicy::CcPolicy(const graph::Csr& csr)
    : csr_(csr), labels_(csr.num_vertices()) {
  std::iota(labels_.begin(), labels_.end(), graph::VertexId{0});
}

void CcPolicy::InitFrontier(std::vector<graph::VertexId>* frontier) {
  frontier->resize(csr_.num_vertices());
  std::iota(frontier->begin(), frontier->end(), graph::VertexId{0});
}

void CcPolicy::Expand(graph::VertexId v,
                      std::vector<graph::VertexId>* /*next*/) {
  graph::VertexId best = labels_[v];
  for (graph::EdgeIndex e = csr_.NeighborBegin(v); e < csr_.NeighborEnd(v);
       ++e) {
    best = std::min(best, labels_[csr_.Neighbor(e)]);
  }
  if (best < labels_[v]) {
    labels_[v] = best;
    changed_ = true;
  }
  for (graph::EdgeIndex e = csr_.NeighborBegin(v); e < csr_.NeighborEnd(v);
       ++e) {
    const graph::VertexId w = csr_.Neighbor(e);
    if (best < labels_[w]) {
      labels_[w] = best;
      changed_ = true;
    }
  }
}

void CcPolicy::NextFrontier(std::vector<graph::VertexId>* frontier,
                            std::vector<graph::VertexId>* /*next*/) {
  // Sweep again only if the last sweep moved a label; the converged
  // sweep's (empty) successor ends the run.
  if (!changed_) {
    frontier->clear();
    return;
  }
  changed_ = false;
  InitFrontier(frontier);
}

std::uint64_t CcPolicy::DatasetBytes() const { return csr_.EdgeListBytes(); }

}  // namespace emogi::core
