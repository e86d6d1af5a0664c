// Multi-source (batched) traversal policies: K concurrent queries as
// one amortized frontier sweep.
//
// When K queries run against the same resident CSR, the expensive part
// of every iteration -- streaming a frontier vertex's neighbor list over
// the PCIe link -- is identical work for every query whose frontier
// contains that vertex. The policies here run MS-BFS-style: per-vertex
// state is a K-wide lane bitmask (`LaneMask`, one bit per query, K <=
// 64 per wave), the engine's frontier is the *union* of the per-lane
// frontiers, and one `OnListScan` of a vertex's adjacency list expands
// every lane whose bit is set -- so the accountant is charged exactly
// once for the shared scan while per-lane bookkeeping (levels,
// distances, per-query visit counts) stays exact.
//
// Lane state layout: BatchedBfsPolicy keeps one level vector per lane
// ([lane][vertex]). BatchedSsspPolicy keeps its distances as one
// contiguous K-wide row per vertex ([vertex][lane]), so relaxing an
// edge for every scanning lane touches one row of the neighbor, and it
// compacts a frontier vertex's scanning lanes (and the distances they
// relax from) once per list scan, not once per edge. The relax loop is
// chosen once per list by that lane count: a kernel with the count fixed
// at compile time for 1 to 8 lanes (its lane loop unrolled, the
// compacted lanes held in registers), and a loop over any count for
// wider lists. Every kernel relaxes the list in edge order and pushes a
// vertex at its first improving edge, so the next frontier's order --
// which the charged cost sums depend on -- does not depend on which
// kernel ran. Its `distances(lane)` returns a copy gathered from the
// rows. It reads each edge's weight from the graph's table
// (graph::Csr::EdgeWeights()), fetched once at construction, as the
// single-source SsspPolicy does.
//
// BatchedSsspPolicy runs only charged (runtime::QueryService's charged
// waves, serving_latency, query_throughput's mixed rows): it is the
// modelled GPU kernel. Answer-only SSSP does not batch; it runs one
// label-setting core::DialSssp per lane (core/traversal.h), which
// settles each reached vertex once where this Bellman-Ford sweep
// rescans a vertex on every improvement.
//
// These are ordinary engine policies (the frontier-loop contract of
// core/engine.h), so they ride the existing monomorphization for free:
// `DispatchRun(csr, config, batched_policy)` instantiates the static
// (batched-policy x access-mode) engine the same way the single-source
// policies do, with the mode's cost model inlined into the shared scan.
// Charged runs are top-down, as the modelled GPU kernels are.
//
// Answer-only runs of BatchedBfsPolicy (`RunUncharged` below, what the
// wire's waves run) are direction-optimizing: Beamer, Asanovic and
// Patterson's BFS (SC'12) in the bit-parallel multi-source form of Then
// et al. (PVLDB 8(4), 2014). At each depth the union frontier either
// pushes along its out-lists (top-down) or every vertex some active
// lane has not seen pulls from its in-lists (bottom-up, over the
// graph's reverse index, graph::Csr::Reverse()), stopping once it has
// found a frontier in-neighbor for every such lane. The rule, with
// Beamer's alpha = 14 and beta = 24: step bottom-up once the union
// frontier's out-edges exceed 1/alpha of the in-edges of the vertices
// not yet seen by every lane, and return top-down once the union
// frontier holds fewer than 1/beta of the vertices. The union frontier
// at each depth is the same set whichever direction found it, so every
// lane's levels, lane_edges and union_edges equal DispatchRun's: the
// edge counts are still the union frontier's degree sums, the edges a
// top-down run scans, not the in-edges a bottom-up step reads. A lane
// scans each vertex it reaches exactly once, so rather than counting
// lane by lane at every depth, the run gives each lane, after the last
// depth, the degree sum of the vertices its bit is set on in the final
// seen masks (vertices every lane saw are summed once for all lanes).
//
// Lane-exactness contracts (enforced by tests/test_query_batcher.cc):
//
//  * BatchedBfsPolicy: level-synchronous, all lanes advance in lockstep
//    by depth. For every lane, `levels(lane)` and `lane_edges(lane)`
//    are byte-identical to a single-source BfsPolicy run from that
//    lane's source, for any K and any lane packing; at K = 1 the whole
//    scan sequence (and therefore TraversalStats) is byte-identical to
//    BfsPolicy's. The uncharged, direction-optimizing run gives the same
//    levels, lane_edges and union_edges as the charged one.
//
//  * BatchedSsspPolicy: Bellman-Ford with *iteration-start* relaxation
//    (each frontier vertex relaxes from the distance it had when the
//    iteration's frontier was installed). That makes every lane's
//    trajectory independent of the union frontier's scan order, so a
//    K-lane run is byte-identical -- distances and per-lane visit
//    counts -- to K independent 1-lane runs of this same policy. The
//    single-source SsspPolicy instead relaxes from live distances
//    (in-iteration improvements propagate within the same kernel), so
//    against it only the converged `distances(lane)` are guaranteed
//    equal (both run min-relaxation to the same fixpoint); visit counts
//    can legitimately differ by a few in-iteration shortcuts. CC is
//    not batched: it has no per-query source, so K lanes would be K
//    copies of one run and batching cannot help. runtime::QueryService
//    instead computes each shard's CC answer once and serves every CC
//    lane from it (runtime/query_service.h).

#ifndef EMOGI_CORE_BATCHED_H_
#define EMOGI_CORE_BATCHED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "graph/csr.h"

namespace emogi::core {

// One bit per concurrent query in a wave.
using LaneMask = std::uint64_t;

// Hard per-wave lane limit (the LaneMask width).
inline constexpr int kMaxBatchLanes = 64;

// Index of the lowest set bit; `mask` must be nonzero.
inline int LowestLane(LaneMask mask) { return __builtin_ctzll(mask); }

// Multi-source level-synchronous BFS: one engine run answers
// sources.size() BFS queries. Per-vertex lane masks track which queries
// have the vertex on their current/next frontier and which have already
// discovered it.
class BatchedBfsPolicy {
 public:
  static constexpr bool kStreamsWeights = false;

  // 1 <= sources.size() <= kMaxBatchLanes; lane i answers sources[i].
  // Duplicate sources are allowed (the lanes simply shadow each other).
  BatchedBfsPolicy(const graph::Csr& csr,
                   const std::vector<graph::VertexId>& sources);

  void InitFrontier(std::vector<graph::VertexId>* frontier);
  void Expand(graph::VertexId v, std::vector<graph::VertexId>* next);
  void NextFrontier(std::vector<graph::VertexId>* frontier,
                    std::vector<graph::VertexId>* next);
  std::uint64_t DatasetBytes() const;

  int lanes() const { return lanes_; }
  // Lane `lane`'s BFS levels (kNoLevel if unreachable), identical to a
  // single-source run from sources[lane].
  std::vector<std::uint32_t>& levels(int lane) { return levels_[lane]; }
  // Edges this lane's own frontier scanned: the degree sum of the
  // vertices it expanded -- what a dedicated single-source run would
  // have charged the accountant for.
  std::uint64_t lane_edges(int lane) const { return lane_edges_[lane]; }
  // Edges the shared sweep actually scanned (union frontiers, each
  // shared scan once) -- what the accountant was charged for. The
  // amortization ratio is sum(lane_edges) / union_edges.
  std::uint64_t union_edges() const { return union_edges_; }
  // Levels an answer-only run stepped bottom-up (always 0 after a
  // charged run).
  int bottom_up_steps() const { return bottom_up_steps_; }

 private:
  friend void RunUncharged(const graph::Csr& csr, BatchedBfsPolicy& policy);

  // Adds to each lane's lane_edges_ the degrees of the vertices it has
  // seen (see the header comment); `all_lanes` has every lane's bit set.
  void CountLaneEdgesFromSeen(LaneMask all_lanes);
  // Top-down: discovers v's out-neighbors for the lanes scanning v.
  void PushFrom(graph::VertexId v, std::vector<graph::VertexId>* next);
  // Bottom-up: every vertex some `active` lane has not seen looks for a
  // frontier vertex among its in-neighbors in `reverse`.
  void PullAll(const graph::Csr& reverse, LaneMask active,
               std::vector<graph::VertexId>* next);

  const graph::Csr& csr_;
  int lanes_;
  std::vector<graph::VertexId> sources_;
  std::uint32_t depth_ = 0;
  int bottom_up_steps_ = 0;
  std::vector<LaneMask> frontier_mask_;  // Lanes scanning v this kernel.
  std::vector<LaneMask> next_mask_;      // Lanes that discovered v this kernel.
  std::vector<LaneMask> seen_;           // Lanes that ever discovered v.
  std::vector<std::vector<std::uint32_t>> levels_;  // [lane][vertex].
  std::vector<std::uint64_t> lane_edges_;           // [lane].
  std::uint64_t union_edges_ = 0;
};

// Answer-only run of a batched BFS, direction-optimizing (see the
// header comment): levels, lane_edges and union_edges equal those of
// DispatchRun on the same policy, under any access mode. As a
// non-template overload it takes precedence over the generic
// RunUncharged of core/engine.h. `csr` must be the policy's graph; the
// first call on a graph builds its reverse index (graph::Csr::Reverse).
void RunUncharged(const graph::Csr& csr, BatchedBfsPolicy& policy);

// Multi-source Bellman-Ford SSSP with iteration-start relaxation (see
// the header comment for the exactness contract). Lane state is
// vertex-major: vertex v's K lanes are the row [v * K, v * K + K) of
// `dist_` and `base_`.
class BatchedSsspPolicy {
 public:
  static constexpr bool kStreamsWeights = true;

  BatchedSsspPolicy(const graph::Csr& csr,
                    const std::vector<graph::VertexId>& sources);

  void InitFrontier(std::vector<graph::VertexId>* frontier);
  void Expand(graph::VertexId v, std::vector<graph::VertexId>* next);
  void NextFrontier(std::vector<graph::VertexId>* frontier,
                    std::vector<graph::VertexId>* next);
  std::uint64_t DatasetBytes() const;

  int lanes() const { return lanes_; }
  // Lane `lane`'s shortest-path distances (kInfDistance if
  // unreachable), equal to a single-source run from sources[lane]: a
  // copy gathered from the vertex rows, so call it once per lane.
  std::vector<std::uint64_t> distances(int lane) const;
  std::uint64_t lane_edges(int lane) const { return lane_edges_[lane]; }
  std::uint64_t union_edges() const { return union_edges_; }

 private:
  // Index of lane `lane` in vertex v's row.
  std::size_t Slot(graph::VertexId v, int lane) const {
    return static_cast<std::size_t>(v) * lanes_ + lane;
  }

  const graph::Csr& csr_;
  const std::uint8_t* weights_;  // csr_.EdgeWeights().
  int lanes_;
  std::vector<graph::VertexId> sources_;
  std::vector<LaneMask> frontier_mask_;
  std::vector<LaneMask> next_mask_;
  std::vector<std::uint64_t> dist_;  // [vertex][lane], live.
  // [vertex][lane]: the distance a frontier vertex relaxes from this
  // iteration -- snapshotted when the frontier is installed, so lane
  // trajectories are independent of the union frontier's scan order.
  std::vector<std::uint64_t> base_;
  std::vector<std::uint64_t> lane_edges_;
  std::uint64_t union_edges_ = 0;
};

}  // namespace emogi::core

#endif  // EMOGI_CORE_BATCHED_H_
