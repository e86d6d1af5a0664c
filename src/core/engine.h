// Generic frontier engine for the simulated traversal kernels.
//
// The engine owns everything the three applications used to copy-paste:
// the frontier loop (one iteration == one simulated kernel launch),
// charging every neighbor-list scan to the accountant, accumulating the
// per-kernel scanned-edge count for the compute charge, and finalizing
// the run's stats. An algorithm is a small *policy* that owns only its
// relax/label logic:
//
//   static constexpr bool kStreamsWeights;   // also scan the weight array
//   void InitFrontier(std::vector<graph::VertexId>* frontier);
//   void Expand(graph::VertexId v, std::vector<graph::VertexId>* next);
//   void NextFrontier(std::vector<graph::VertexId>* frontier,
//                     std::vector<graph::VertexId>* next);
//   std::uint64_t DatasetBytes() const;      // bytes the app asked for
//
// Expand() does the per-edge work for one frontier vertex and pushes the
// vertices activated for the next kernel; NextFrontier() installs the
// next frontier (an empty frontier ends the run -- sweep-style policies
// like CC refill it until a fixpoint). Adding an algorithm (PageRank,
// Afforest CC, ...) is a new ~40-line policy, not a new loop.
//
// The engine is also templated on the *accountant* type
// (core/static_accountant.h): one instantiation per (policy x access
// mode) exists, with the mode's cost model inlined into the scan loop.
// `DispatchRun` is the run entry picking that instantiation from
// config.mode once per run. `RunUncharged` is the entry for callers
// that read only the policy's answers: it charges nothing, and a
// batched BFS may take another route to the same answers there
// (core/batched.h).

#ifndef EMOGI_CORE_ENGINE_H_
#define EMOGI_CORE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/accountant.h"
#include "core/config.h"
#include "core/static_accountant.h"
#include "core/stats.h"
#include "graph/csr.h"

namespace emogi::core {

inline constexpr std::uint32_t kNoLevel = 0xffffffffu;
inline constexpr std::uint64_t kInfDistance = ~0ull;

// The one frontier loop, monomorphized on (Policy, AccountantT). The
// accountant is passed in (not made here) so callers control its
// concrete type.
template <typename Policy, typename AccountantT>
TraversalStats RunFrontierEngine(const graph::Csr& csr, Policy& policy,
                                 AccountantT& accountant) {
  const std::uint64_t weight_base = WeightBase(csr);

  std::vector<graph::VertexId> frontier;
  std::vector<graph::VertexId> next;
  policy.InitFrontier(&frontier);
  while (!frontier.empty()) {
    next.clear();
    std::uint64_t scanned_edges = 0;
    for (const graph::VertexId v : frontier) {
      accountant.OnListScan(0, csr.NeighborBegin(v), csr.NeighborEnd(v),
                            csr.edge_elem_bytes());
      if (Policy::kStreamsWeights) {
        accountant.OnListScan(weight_base, csr.NeighborBegin(v),
                              csr.NeighborEnd(v), kWeightBytes);
      }
      scanned_edges += csr.Degree(v);
      policy.Expand(v, &next);
    }
    accountant.CloseKernel(scanned_edges);
    policy.NextFrontier(&frontier, &next);
  }

  TraversalStats stats = *accountant.mutable_stats();
  stats.dataset_bytes = policy.DatasetBytes();
  return stats;
}

// Monomorphized run entry: selects the static (policy x access-mode)
// engine instantiation once from config.mode, then runs with zero
// per-scan dispatch. This is what the traversal facade and the
// experiments route through (the multi-GPU engine has its own entry
// over the same WithStaticAccountant mapping).
template <typename Policy>
TraversalStats DispatchRun(const graph::Csr& csr, const EmogiConfig& config,
                           Policy& policy) {
  const std::uint64_t managed_bytes = ManagedGraphBytes(csr);
  return WithStaticAccountant(config.mode, [&](auto tag) {
    typename decltype(tag)::type accountant(config, managed_bytes);
    return RunFrontierEngine(csr, policy, accountant);
  });
}

// Answer-only run entry: builds no accountant and reports no cost.
// This generic version runs the same frontier loop charged to
// NoCostAccountant, so the policy ends in exactly the state DispatchRun
// leaves it in, under any access mode (no policy reads the cost model).
// core/batched.h overloads it for BatchedBfsPolicy with a
// direction-optimizing run, which ends with the same answers and edge
// counts (levels, lane_edges, union_edges) but not the same internal
// state. Single-source BfsPolicy stays top-down here: it is the
// independent reference the batched answers are checked against.
template <typename Policy>
void RunUncharged(const graph::Csr& csr, Policy& policy) {
  NoCostAccountant accountant;
  RunFrontierEngine(csr, policy, accountant);
}

// --- Algorithm policies -----------------------------------------------------

// Level-synchronous BFS: a vertex joins the next frontier the first time
// it is discovered.
class BfsPolicy {
 public:
  static constexpr bool kStreamsWeights = false;

  BfsPolicy(const graph::Csr& csr, graph::VertexId source);

  void InitFrontier(std::vector<graph::VertexId>* frontier);
  void Expand(graph::VertexId v, std::vector<graph::VertexId>* next);
  void NextFrontier(std::vector<graph::VertexId>* frontier,
                    std::vector<graph::VertexId>* next);
  std::uint64_t DatasetBytes() const;

  std::vector<std::uint32_t>& levels() { return levels_; }

 private:
  const graph::Csr& csr_;
  graph::VertexId source_;
  std::vector<std::uint32_t> levels_;
};

// Bellman-Ford-style SSSP: a vertex re-enters the frontier whenever its
// distance improves; `queued_` dedups within one iteration. The kernel
// streams both the neighbor ids and their weights; the host reads each
// weight from the graph's table (graph::Csr::EdgeWeights()), fetched
// once at construction, instead of hashing it per relaxation.
class SsspPolicy {
 public:
  static constexpr bool kStreamsWeights = true;

  SsspPolicy(const graph::Csr& csr, graph::VertexId source);

  void InitFrontier(std::vector<graph::VertexId>* frontier);
  void Expand(graph::VertexId v, std::vector<graph::VertexId>* next);
  void NextFrontier(std::vector<graph::VertexId>* frontier,
                    std::vector<graph::VertexId>* next);
  std::uint64_t DatasetBytes() const;

  std::vector<std::uint64_t>& distances() { return distances_; }

 private:
  const graph::Csr& csr_;
  const std::uint8_t* weights_;  // csr_.EdgeWeights().
  graph::VertexId source_;
  std::vector<std::uint64_t> distances_;
  std::vector<std::uint8_t> queued_;
};

// Min-label propagation with edges treated as undirected: every sweep
// scans the full edge list, pulling the minimum over out-neighbors and
// pushing it back to them, until a sweep changes nothing. At the
// fixpoint both directions of every edge carry equal labels, so each
// weakly-connected component settles on its minimum vertex id. (A
// frontier version would need the reverse graph to re-notify
// in-neighbors; full sweeps are also how the streaming CC kernels the
// paper measures behave, which is what gives UVM its locality here.)
class CcPolicy {
 public:
  static constexpr bool kStreamsWeights = false;

  explicit CcPolicy(const graph::Csr& csr);

  void InitFrontier(std::vector<graph::VertexId>* frontier);
  void Expand(graph::VertexId v, std::vector<graph::VertexId>* next);
  void NextFrontier(std::vector<graph::VertexId>* frontier,
                    std::vector<graph::VertexId>* next);
  std::uint64_t DatasetBytes() const;

  std::vector<graph::VertexId>& labels() { return labels_; }

 private:
  const graph::Csr& csr_;
  std::vector<graph::VertexId> labels_;
  bool changed_ = false;
};

}  // namespace emogi::core

#endif  // EMOGI_CORE_ENGINE_H_
