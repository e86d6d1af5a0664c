#include "core/batched.h"

#include <cassert>
#include <type_traits>

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

void BatchedBfsPolicy::PushFrom(graph::VertexId v,
                                std::vector<graph::VertexId>* next) {
  const LaneMask scanning = frontier_mask_[v];
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

void BatchedBfsPolicy::PullAll(const graph::Csr& reverse, LaneMask active,
                               std::vector<graph::VertexId>* next) {
  const std::uint32_t next_level = depth_ + 1;
  const LaneMask* const frontier_mask = frontier_mask_.data();
  const graph::VertexId vertex_count = csr_.num_vertices();
  for (graph::VertexId v = 0; v < vertex_count; ++v) {
    const LaneMask miss = active & ~seen_[v];
    if (miss == 0) continue;
    // The lanes with an in-neighbor of v on their frontier; stop once
    // they cover every lane still missing v.
    LaneMask found = 0;
    const graph::VertexId* in = reverse.NeighborData(reverse.NeighborBegin(v));
    const graph::VertexId* const end = in + reverse.Degree(v);
    for (; in != end; ++in) {
      found |= frontier_mask[*in];
      if ((found & miss) == miss) break;
    }
    const LaneMask discovered = found & miss;
    if (discovered == 0) continue;
    next->push_back(v);
    next_mask_[v] = discovered;
    seen_[v] |= discovered;
    for (LaneMask m = discovered; m != 0; m &= m - 1) {
      levels_[LowestLane(m)][v] = next_level;
    }
  }
}

void BatchedBfsPolicy::CountLaneEdgesFromSeen(LaneMask all_lanes) {
  std::uint64_t seen_by_all = 0;
  for (graph::VertexId v = 0; v < csr_.num_vertices(); ++v) {
    const LaneMask seen = seen_[v];
    if (seen == 0) continue;
    const std::uint64_t degree = csr_.Degree(v);
    if (seen == all_lanes) {
      seen_by_all += degree;
      continue;
    }
    for (LaneMask m = seen; m != 0; m &= m - 1) {
      lane_edges_[LowestLane(m)] += degree;
    }
  }
  for (int lane = 0; lane < lanes_; ++lane) lane_edges_[lane] += seen_by_all;
}

void BatchedBfsPolicy::Expand(graph::VertexId v,
                              std::vector<graph::VertexId>* next) {
  const std::uint64_t degree = csr_.Degree(v);
  union_edges_ += degree;
  for (LaneMask m = frontier_mask_[v]; m != 0; m &= m - 1) {
    lane_edges_[LowestLane(m)] += degree;
  }
  PushFrom(v, next);
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

// --- Direction-optimizing answer-only BFS -----------------------------------

namespace {

// Beamer, Asanovic and Patterson's switch thresholds (SC'12): go
// bottom-up once the frontier's out-edges exceed 1/alpha of the edges
// left to check, and back top-down once the frontier holds fewer than
// 1/beta of the vertices.
constexpr std::uint64_t kBottomUpAlpha = 14;
constexpr std::uint64_t kTopDownBeta = 24;

}  // namespace

void RunUncharged(const graph::Csr& csr, BatchedBfsPolicy& policy) {
  const graph::Csr& reverse = csr.Reverse();
  const LaneMask all_lanes = policy.lanes_ == kMaxBatchLanes
                                 ? ~LaneMask{0}
                                 : (LaneMask{1} << policy.lanes_) - 1;
  // In-edges of the vertices some lane has not seen yet: what bottom-up
  // steps may still check. A vertex leaves once every lane has seen it.
  std::uint64_t unexplored_edges = csr.num_edges();
  const auto retire_seen = [&](const std::vector<graph::VertexId>& found) {
    for (const graph::VertexId v : found) {
      if (policy.seen_[v] == all_lanes) unexplored_edges -= reverse.Degree(v);
    }
  };

  std::vector<graph::VertexId> frontier;
  std::vector<graph::VertexId> next;
  policy.InitFrontier(&frontier);
  retire_seen(frontier);
  bool bottom_up = false;
  while (!frontier.empty()) {
    // Whichever direction found it, this is the frontier a top-down run
    // scans, so union_edges counts its degrees as the charged run does.
    std::uint64_t frontier_edges = 0;
    LaneMask active = 0;
    for (const graph::VertexId v : frontier) {
      frontier_edges += csr.Degree(v);
      active |= policy.frontier_mask_[v];
    }
    policy.union_edges_ += frontier_edges;
    if (bottom_up) {
      bottom_up = frontier.size() * kTopDownBeta >= csr.num_vertices();
    } else {
      bottom_up = frontier_edges * kBottomUpAlpha > unexplored_edges;
    }
    next.clear();
    if (bottom_up) {
      policy.PullAll(reverse, active, &next);
      ++policy.bottom_up_steps_;
    } else {
      for (const graph::VertexId v : frontier) policy.PushFrom(v, &next);
    }
    retire_seen(next);
    policy.NextFrontier(&frontier, &next);
  }
  policy.CountLaneEdgesFromSeen(all_lanes);
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

namespace {

// Relaxes one adjacency list ([neighbor, end) with its weights) for the
// `count` lanes set in `scanning`, each from its base distance in
// `base_row`. Edges run in order, and a vertex is pushed onto `next` at
// its first improving edge, so the next frontier's order does not depend
// on Width. Width > 0 fixes count == Width at compile time: the lane
// loops unroll and the compacted lanes stay in registers. Width == 0 is
// the loop for any count.
template <int Width>
void RelaxList(LaneMask scanning, int count, std::uint64_t degree,
               const std::uint64_t* base_row, const graph::VertexId* neighbor,
               const graph::VertexId* const end, const std::uint8_t* weight,
               std::size_t row_width, std::uint64_t* const dist,
               LaneMask* const next_mask, std::uint64_t* const lane_edges,
               std::vector<graph::VertexId>* next) {
  const int width = Width > 0 ? Width : count;
  // Compact the scanning lanes and the distances they relax from once
  // per list: the edge loop below then reads no mask and no base row.
  int lane_of[Width > 0 ? Width : kMaxBatchLanes];
  LaneMask bit_of[Width > 0 ? Width : kMaxBatchLanes];
  std::uint64_t base_of[Width > 0 ? Width : kMaxBatchLanes];
  for (int j = 0; j < width; ++j) {
    const int lane = LowestLane(scanning);
    lane_edges[lane] += degree;
    lane_of[j] = lane;
    bit_of[j] = scanning & -scanning;
    base_of[j] = base_row[lane];
    scanning &= scanning - 1;
  }
  for (; neighbor != end; ++neighbor, ++weight) {
    const graph::VertexId w = *neighbor;
    const std::uint64_t edge_weight = *weight;
    std::uint64_t* const dist_row = dist + w * row_width;
    LaneMask improved = 0;
    for (int j = 0; j < width; ++j) {
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

}  // namespace

void BatchedSsspPolicy::Expand(graph::VertexId v,
                               std::vector<graph::VertexId>* next) {
  const std::uint64_t degree = csr_.Degree(v);
  union_edges_ += degree;
  const LaneMask scanning = frontier_mask_[v];
  const int count = __builtin_popcountll(scanning);
  const graph::EdgeIndex begin = csr_.NeighborBegin(v);
  const graph::VertexId* const neighbor = csr_.NeighborData(begin);
  // Pointers and the row width go in by value, not as members:
  // next->push_back could alias a member, which would force a reload on
  // every edge.
  const auto relax = [&](auto width) {
    RelaxList<decltype(width)::value>(
        scanning, count, degree, base_.data() + Slot(v, 0), neighbor,
        neighbor + degree, weights_ + begin, lanes_, dist_.data(),
        next_mask_.data(), lane_edges_.data(), next);
  };
  switch (count) {
    case 1: return relax(std::integral_constant<int, 1>{});
    case 2: return relax(std::integral_constant<int, 2>{});
    case 3: return relax(std::integral_constant<int, 3>{});
    case 4: return relax(std::integral_constant<int, 4>{});
    case 5: return relax(std::integral_constant<int, 5>{});
    case 6: return relax(std::integral_constant<int, 6>{});
    case 7: return relax(std::integral_constant<int, 7>{});
    case 8: return relax(std::integral_constant<int, 8>{});
    default: return relax(std::integral_constant<int, 0>{});
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
