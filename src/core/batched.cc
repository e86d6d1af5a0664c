#include "core/batched.h"

#include <cassert>

namespace emogi::core {

// --- Batched BFS ------------------------------------------------------------

BatchedBfsPolicy::BatchedBfsPolicy(const graph::Csr& csr,
                                   const std::vector<graph::VertexId>& sources)
    : csr_(csr),
      lanes_(static_cast<int>(sources.size())),
      sources_(sources),
      frontier_mask_(csr.num_vertices(), 0),
      next_mask_(csr.num_vertices(), 0),
      seen_(csr.num_vertices(), 0),
      levels_(sources.size(),
              std::vector<std::uint32_t>(csr.num_vertices(), kNoLevel)),
      lane_edges_(sources.size(), 0) {
  assert(lanes_ >= 1 && lanes_ <= kMaxBatchLanes);
}

void BatchedBfsPolicy::InitFrontier(std::vector<graph::VertexId>* frontier) {
  frontier->clear();
  for (int lane = 0; lane < lanes_; ++lane) {
    const graph::VertexId s = sources_[lane];
    if (seen_[s] == 0) frontier->push_back(s);
    const LaneMask bit = LaneMask{1} << lane;
    seen_[s] |= bit;
    frontier_mask_[s] |= bit;
    levels_[lane][s] = 0;
  }
  depth_ = 0;
}

void BatchedBfsPolicy::Expand(graph::VertexId v,
                              std::vector<graph::VertexId>* next) {
  const LaneMask scanning = frontier_mask_[v];
  const std::uint64_t degree = csr_.Degree(v);
  union_edges_ += degree;
  for (LaneMask m = scanning; m != 0; m &= m - 1) {
    lane_edges_[LowestLane(m)] += degree;
  }
  const std::uint32_t next_level = depth_ + 1;
  for (graph::EdgeIndex e = csr_.NeighborBegin(v); e < csr_.NeighborEnd(v);
       ++e) {
    const graph::VertexId w = csr_.Neighbor(e);
    const LaneMask discovered = scanning & ~seen_[w];
    if (discovered == 0) continue;
    if (next_mask_[w] == 0) next->push_back(w);
    next_mask_[w] |= discovered;
    seen_[w] |= discovered;
    for (LaneMask m = discovered; m != 0; m &= m - 1) {
      levels_[LowestLane(m)][w] = next_level;
    }
  }
}

void BatchedBfsPolicy::NextFrontier(std::vector<graph::VertexId>* frontier,
                                    std::vector<graph::VertexId>* next) {
  for (const graph::VertexId v : *frontier) frontier_mask_[v] = 0;
  frontier_mask_.swap(next_mask_);  // next_mask_ is now all zero again.
  frontier->swap(*next);
  ++depth_;
}

std::uint64_t BatchedBfsPolicy::DatasetBytes() const {
  return csr_.EdgeListBytes();
}

// --- Batched SSSP -----------------------------------------------------------

BatchedSsspPolicy::BatchedSsspPolicy(
    const graph::Csr& csr, const std::vector<graph::VertexId>& sources)
    : csr_(csr),
      weights_(csr.EdgeWeights()),
      lanes_(static_cast<int>(sources.size())),
      sources_(sources),
      frontier_mask_(csr.num_vertices(), 0),
      next_mask_(csr.num_vertices(), 0),
      dist_(static_cast<std::size_t>(csr.num_vertices()) * sources.size(),
            kInfDistance),
      base_(dist_.size(), kInfDistance),
      lane_edges_(sources.size(), 0) {
  assert(lanes_ >= 1 && lanes_ <= kMaxBatchLanes);
}

void BatchedSsspPolicy::InitFrontier(std::vector<graph::VertexId>* frontier) {
  frontier->clear();
  for (int lane = 0; lane < lanes_; ++lane) {
    const graph::VertexId s = sources_[lane];
    if (frontier_mask_[s] == 0) frontier->push_back(s);
    frontier_mask_[s] |= LaneMask{1} << lane;
    dist_[Slot(s, lane)] = 0;
    base_[Slot(s, lane)] = 0;
  }
}

void BatchedSsspPolicy::Expand(graph::VertexId v,
                               std::vector<graph::VertexId>* next) {
  const std::uint64_t degree = csr_.Degree(v);
  union_edges_ += degree;
  // Compact the scanning lanes and the distances they relax from once
  // per list: the edge loop below then reads no mask and no base row.
  int lane_of[kMaxBatchLanes];
  LaneMask bit_of[kMaxBatchLanes];
  std::uint64_t base_of[kMaxBatchLanes];
  int count = 0;
  const std::uint64_t* base_row = base_.data() + Slot(v, 0);
  for (LaneMask m = frontier_mask_[v]; m != 0; m &= m - 1) {
    const int lane = LowestLane(m);
    lane_edges_[lane] += degree;
    lane_of[count] = lane;
    bit_of[count] = m & -m;
    base_of[count] = base_row[lane];
    ++count;
  }
  const graph::EdgeIndex begin = csr_.NeighborBegin(v);
  const graph::VertexId* neighbor = csr_.NeighborData(begin);
  const graph::VertexId* const end = neighbor + degree;
  const std::uint8_t* weight = weights_ + begin;
  // Locals, not members: next->push_back could alias them, which would
  // force a reload on every edge.
  const std::size_t row_width = lanes_;
  std::uint64_t* const dist = dist_.data();
  LaneMask* const next_mask = next_mask_.data();
  for (; neighbor != end; ++neighbor, ++weight) {
    const graph::VertexId w = *neighbor;
    const std::uint64_t edge_weight = *weight;
    std::uint64_t* const dist_row = dist + w * row_width;
    LaneMask improved = 0;
    for (int j = 0; j < count; ++j) {
      const std::uint64_t candidate = base_of[j] + edge_weight;
      if (candidate < dist_row[lane_of[j]]) {
        dist_row[lane_of[j]] = candidate;
        improved |= bit_of[j];
      }
    }
    if (improved == 0) continue;
    if (next_mask[w] == 0) next->push_back(w);
    next_mask[w] |= improved;
  }
}

void BatchedSsspPolicy::NextFrontier(std::vector<graph::VertexId>* frontier,
                                     std::vector<graph::VertexId>* next) {
  for (const graph::VertexId v : *frontier) frontier_mask_[v] = 0;
  frontier_mask_.swap(next_mask_);
  frontier->swap(*next);
  // Install the iteration-start relaxation snapshot for the new
  // frontier: each improved vertex relaxes from the distance it settled
  // on this iteration, whatever order later scans run in.
  for (const graph::VertexId v : *frontier) {
    for (LaneMask m = frontier_mask_[v]; m != 0; m &= m - 1) {
      const std::size_t slot = Slot(v, LowestLane(m));
      base_[slot] = dist_[slot];
    }
  }
}

std::vector<std::uint64_t> BatchedSsspPolicy::distances(int lane) const {
  std::vector<std::uint64_t> lane_distances(csr_.num_vertices());
  for (graph::VertexId v = 0; v < csr_.num_vertices(); ++v) {
    lane_distances[v] = dist_[Slot(v, lane)];
  }
  return lane_distances;
}

std::uint64_t BatchedSsspPolicy::DatasetBytes() const {
  return csr_.EdgeListBytes() + csr_.num_edges() * kWeightBytes;
}

}  // namespace emogi::core
