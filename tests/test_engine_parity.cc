// The policy-based frontier engine must (a) compute exactly the oracle
// answers under every access mode, (b) charge compute from the edges it
// actually scanned: BFS expands each reached vertex once, so its
// compute charge is the summed degree of the reached set; CC's
// full-graph sweeps each charge the whole edge list (no hardcoded
// per-sweep constant), and (c) give the same per-source stats through
// the parallel sweep facade at any thread count as a serial run.

#include <cstdio>
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

// The sweep facade (Traversal::BfsSweep) fans per-source runs across
// workers; at any worker count each run must still be byte-identical to
// a serial run of the same source.
void TestSweepMatchesSerialAtAnyThreadCount() {
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
        CHECK(runs[i] == traversal.Bfs(sources[i]).stats);
      }
    }
  }
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestParity();
  emogi::TestSweepMatchesSerialAtAnyThreadCount();
  std::printf("test_engine_parity: OK\n");
  return 0;
}
