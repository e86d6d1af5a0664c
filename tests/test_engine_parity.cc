// The policy-based frontier engine must (a) compute exactly the oracle
// answers under every access mode, (b) charge compute from the edges it
// actually scanned: BFS expands each reached vertex once, so its
// compute charge is the summed degree of the reached set; CC's
// full-graph sweeps each charge the whole edge list (no hardcoded
// per-sweep constant), and (c) be *monomorphization-safe*: the static
// (policy x access-mode) instantiations core::DispatchRun selects must
// produce byte-identical TraversalStats, byte-identical per-kernel
// KernelCosts, and equal answers to the retained virtual-dispatch
// reference, for every mode x app and at every thread count.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/traversal.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "ref/reference.h"
#include "test_util.h"

namespace emogi {
namespace {

const std::vector<core::EmogiConfig>& AllModes() {
  static const std::vector<core::EmogiConfig>* modes =
      new std::vector<core::EmogiConfig>{
          core::EmogiConfig::Uvm(), core::EmogiConfig::Naive(),
          core::EmogiConfig::Merged(), core::EmogiConfig::MergedAligned()};
  return *modes;
}

void CheckParityOn(const graph::Csr& csr) {
  const auto sources = graph::PickSources(csr, 2);
  const auto ref_levels = ref::BfsLevels(csr, sources[0]);
  const auto ref_distances = ref::SsspDistances(csr, sources[0]);
  const auto ref_labels = ref::CcLabels(csr);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;  // Out-of-memory regime.
    const core::Traversal traversal(csr, config);
    const double ns_per_edge = config.device.compute_ns_per_edge;

    const core::BfsRun bfs = traversal.Bfs(sources[0]);
    CHECK(bfs.levels == ref_levels);
    // Every reached vertex is expanded in exactly one kernel, so the
    // engine's accumulated compute charge is the reached set's degree sum.
    std::uint64_t reached_degree = 0;
    for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (bfs.levels[v] != core::kNoLevel) reached_degree += csr.Degree(v);
    }
    CHECK_NEAR(bfs.stats.compute_ns,
               static_cast<double>(reached_degree) * ns_per_edge,
               1e-6 * bfs.stats.compute_ns + 1e-9);

    const core::SsspRun sssp = traversal.Sssp(sources[0]);
    CHECK(sssp.distances == ref_distances);
    // Relaxation revisits vertices, so SSSP scans at least BFS's edges.
    CHECK(sssp.stats.compute_ns >= bfs.stats.compute_ns);

    const core::CcRun cc = traversal.Cc();
    CHECK(cc.labels == ref_labels);
    // Each sweep scans every vertex's list once: the accumulated charge
    // is exactly sweeps * |E|, with no hardcoded constant.
    CHECK(cc.stats.kernels > 0);
    CHECK_NEAR(cc.stats.compute_ns,
               static_cast<double>(cc.stats.kernels) *
                   static_cast<double>(csr.num_edges()) * ns_per_edge,
               1e-6 * cc.stats.compute_ns + 1e-9);
  }
}

// The engine must preserve CC's against-edge-direction label flow: with
// edges 1->2 and 2->0 only (plus an isolated chain 4->3), vertex 1
// learns label 0 only through its out-neighbor's later update.
void TestCcAgainstEdgeDirection() {
  const graph::Csr csr({0, 0, 1, 2, 2, 3}, {2, 0, 3}, true, "chain");
  const auto ref_labels = ref::CcLabels(csr);
  CHECK(ref_labels == (std::vector<graph::VertexId>{0, 0, 0, 3, 3}));
  for (const core::EmogiConfig& config : AllModes()) {
    const core::Traversal traversal(csr, config);
    CHECK(traversal.Cc().labels == ref_labels);
  }
}

void TestParity() {
  TestCcAgainstEdgeDirection();
  CheckParityOn(graph::GenerateUniformRandom(1 << 12, 16, 42));
  CheckParityOn(graph::LoadOrGenerateDataset("GK", 16384));
  CheckParityOn(graph::LoadOrGenerateDataset("ML", 16384));
}

// --- Monomorphization safety: static dispatch == virtual dispatch -----------

// Wraps any accountant (static or virtual) and records every
// CloseKernel return, so two engine runs can be compared kernel by
// kernel, not just on the folded totals.
template <typename Inner>
class RecordingAccountant {
 public:
  explicit RecordingAccountant(Inner& inner) : inner_(inner) {}

  void OnListScan(sim::Addr base_addr, std::uint64_t elem_begin,
                  std::uint64_t elem_end, std::uint32_t elem_bytes) {
    inner_.OnListScan(base_addr, elem_begin, elem_end, elem_bytes);
  }
  core::KernelCost CloseKernel(std::uint64_t work_edges) {
    costs_.push_back(inner_.CloseKernel(work_edges));
    return costs_.back();
  }
  const core::TraversalStats& stats() const { return inner_.stats(); }
  core::TraversalStats* mutable_stats() { return inner_.mutable_stats(); }

  const std::vector<core::KernelCost>& costs() const { return costs_; }

 private:
  Inner& inner_;
  std::vector<core::KernelCost> costs_;
};

// Runs `make_policy(csr)`'s app once through the given static accountant
// type and once through the virtual reference, asserting byte-identical
// folded stats and byte-identical per-kernel costs.
template <typename StaticAccountant, typename MakePolicy>
void CheckKernelCostParity(const graph::Csr& csr,
                           const core::EmogiConfig& config,
                           const MakePolicy& make_policy) {
  auto static_policy = make_policy(csr);
  StaticAccountant fast(config, core::ManagedGraphBytes(csr));
  RecordingAccountant<StaticAccountant> fast_recorder(fast);
  const core::TraversalStats fast_stats =
      core::RunFrontierEngine(csr, static_policy, fast_recorder);

  auto virtual_policy = make_policy(csr);
  const std::unique_ptr<core::Accountant> reference =
      core::MakeAccountant(csr, config);
  RecordingAccountant<core::Accountant> reference_recorder(*reference);
  const core::TraversalStats reference_stats =
      core::RunFrontierEngine(csr, virtual_policy, reference_recorder);

  CHECK(fast_stats == reference_stats);
  CHECK(fast_recorder.costs().size() == reference_recorder.costs().size());
  for (std::size_t k = 0; k < fast_recorder.costs().size(); ++k) {
    const core::KernelCost& a = fast_recorder.costs()[k];
    const core::KernelCost& b = reference_recorder.costs()[k];
    CHECK(a.total_ns == b.total_ns);
    CHECK(a.wire_ns == b.wire_ns);
    CHECK(a.latency_ns == b.latency_ns);
    CHECK(a.compute_ns == b.compute_ns);
    CHECK(a.fault_ns == b.fault_ns);
  }
}

template <typename MakePolicy>
void CheckKernelCostParityAllModes(const graph::Csr& csr,
                                   const core::EmogiConfig& config,
                                   const MakePolicy& make_policy) {
  core::WithStaticAccountant(config.mode, [&](auto tag) {
    CheckKernelCostParity<typename decltype(tag)::type>(csr, config,
                                                        make_policy);
  });
}

// All 4 modes x 3 policies: DispatchRun's monomorphized run must match
// the virtual-dispatch reference bitwise in stats, per-kernel costs,
// and answers.
void TestStaticDispatchParity() {
  const graph::Csr csr = graph::LoadOrGenerateDataset("GK", 16384);
  const auto sources = graph::PickSources(csr, 2);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;  // Out-of-memory regime.

    core::BfsPolicy bfs_fast(csr, sources[0]);
    const core::TraversalStats bfs_static =
        core::DispatchRun(csr, config, bfs_fast);
    core::BfsPolicy bfs_reference(csr, sources[0]);
    const core::TraversalStats bfs_virtual =
        core::RunFrontierEngineVirtual(csr, config, bfs_reference);
    CHECK(bfs_static == bfs_virtual);
    CHECK(bfs_fast.levels() == bfs_reference.levels());

    core::SsspPolicy sssp_fast(csr, sources[0]);
    const core::TraversalStats sssp_static =
        core::DispatchRun(csr, config, sssp_fast);
    core::SsspPolicy sssp_reference(csr, sources[0]);
    const core::TraversalStats sssp_virtual =
        core::RunFrontierEngineVirtual(csr, config, sssp_reference);
    CHECK(sssp_static == sssp_virtual);
    CHECK(sssp_fast.distances() == sssp_reference.distances());

    core::CcPolicy cc_fast(csr);
    const core::TraversalStats cc_static =
        core::DispatchRun(csr, config, cc_fast);
    core::CcPolicy cc_reference(csr);
    const core::TraversalStats cc_virtual =
        core::RunFrontierEngineVirtual(csr, config, cc_reference);
    CHECK(cc_static == cc_virtual);
    CHECK(cc_fast.labels() == cc_reference.labels());

    const graph::VertexId source = sources[0];
    CheckKernelCostParityAllModes(
        csr, config,
        [source](const graph::Csr& g) { return core::BfsPolicy(g, source); });
    CheckKernelCostParityAllModes(csr, config, [source](const graph::Csr& g) {
      return core::SsspPolicy(g, source);
    });
    CheckKernelCostParityAllModes(
        csr, config, [](const graph::Csr& g) { return core::CcPolicy(g); });
  }
}

// The sweep facade (Traversal::BfsSweep) routes every per-source run
// through DispatchRun; at any worker count each run must still be
// byte-identical to a serial virtual-dispatch run of the same source.
void TestSweepMatchesVirtualAtAnyThreadCount() {
  const graph::Csr csr = graph::LoadOrGenerateDataset("GK", 16384);
  const auto sources = graph::PickSources(csr, 4);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;
    const core::Traversal traversal(csr, config);
    for (const int threads : {1, 3}) {
      const std::vector<core::TraversalStats> runs =
          traversal.BfsSweep(sources, threads);
      CHECK(runs.size() == sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        core::BfsPolicy policy(csr, sources[i]);
        const core::TraversalStats reference =
            core::RunFrontierEngineVirtual(csr, config, policy);
        CHECK(runs[i] == reference);
      }
    }
  }
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestParity();
  emogi::TestStaticDispatchParity();
  emogi::TestSweepMatchesVirtualAtAnyThreadCount();
  std::printf("test_engine_parity: OK\n");
  return 0;
}
