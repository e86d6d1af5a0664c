// Multi-GPU subsystem invariants: partitions cover every vertex exactly
// once and the edge-balanced cuts stay near the ideal scanned-edge
// share even on skewed graphs, and edgeless graphs still partition and
// traverse; the 1-device MultiDeviceEngine is byte-identical to the
// single-device engine for all four access modes;
// N-device runs still compute oracle answers and charge a nonzero
// boundary exchange.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/engine.h"
#include "core/traversal.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "multigpu/engine.h"
#include "multigpu/partition.h"
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

void CheckStatsIdentical(const core::TraversalStats& a,
                         const core::TraversalStats& b) {
  // One shared exact-equality definition (core/stats.cc) backs every
  // parity/determinism gate, so new fields are checked everywhere.
  CHECK(a == b);
}

void CheckPartitionInvariants(const graph::Csr& csr, int devices) {
  const multigpu::Partition partition = multigpu::MakePartition(csr, devices);
  CHECK(partition.devices() == devices);
  // Contiguous ranges cover [0, V) exactly once.
  CHECK(partition.Begin(0) == 0);
  CHECK(partition.End(devices - 1) == csr.num_vertices());
  std::uint64_t covered_vertices = 0;
  std::uint64_t covered_edges = 0;
  for (int d = 0; d < devices; ++d) {
    CHECK(partition.Begin(d) <= partition.End(d));
    if (d > 0) CHECK(partition.Begin(d) == partition.End(d - 1));
    covered_vertices += partition.VertexCount(d);
    covered_edges += partition.RangeEdges(csr, d);
  }
  CHECK(covered_vertices == csr.num_vertices());
  CHECK(covered_edges == csr.num_edges());
  // OwnerOf agrees with the ranges at every boundary and interior point.
  for (int d = 0; d < devices; ++d) {
    if (partition.VertexCount(d) == 0) continue;
    CHECK(partition.OwnerOf(partition.Begin(d)) == d);
    CHECK(partition.OwnerOf(partition.End(d) - 1) == d);
    CHECK(partition.OwnerOf(
              (partition.Begin(d) + partition.End(d)) / 2) == d);
  }
}

void TestPartitioner() {
  // A heavy-tailed Pareto analog: hubs would make equal-vertex splits
  // lopsided, which is what edge-balanced cuts avoid.
  const graph::Csr& skewed = graph::LoadOrGenerateDataset("GK", 16384);
  for (const int devices : {1, 2, 3, 4, 8}) {
    CheckPartitionInvariants(skewed, devices);
  }

  // Every device's scanned-edge share is within one vertex's degree of
  // the ideal E/N (cuts land on vertex boundaries), so max_degree is the
  // stated tolerance.
  graph::EdgeIndex max_degree = 0;
  for (graph::VertexId v = 0; v < skewed.num_vertices(); ++v) {
    max_degree = std::max(max_degree, skewed.Degree(v));
  }
  for (const int devices : {2, 4, 8}) {
    const multigpu::Partition partition =
        multigpu::MakePartition(skewed, devices);
    const std::uint64_t ideal = skewed.num_edges() / devices;
    for (int d = 0; d < devices; ++d) {
      CHECK(partition.RangeEdges(skewed, d) <= ideal + max_degree);
    }
  }

  // Degenerate shapes stay covered: fewer vertices than devices, and an
  // edgeless graph.
  CheckPartitionInvariants(graph::Csr({0, 1, 2}, {1, 0}, false, "pair"), 8);
  const graph::Csr edgeless(std::vector<graph::EdgeIndex>(6, 0), {}, false,
                            "edgeless");
  for (const int devices : {1, 4, 8}) {
    CheckPartitionInvariants(edgeless, devices);
  }
}

// An edgeless graph takes the edge-balanced cut code too: every cut is 0,
// so the last device owns every vertex, and multi-device BFS and CC still
// give the oracle's answers.
void TestEdgelessGraphs() {
  for (const graph::VertexId vertices : {1u, 5u, 16u}) {
    const graph::Csr csr(std::vector<graph::EdgeIndex>(vertices + 1, 0), {},
                         false, "edgeless");
    const auto ref_levels = ref::BfsLevels(csr, 0);
    const auto ref_labels = ref::CcLabels(csr);
    for (const int devices : {1, 4, 8}) {
      const multigpu::Partition partition =
          multigpu::MakePartition(csr, devices);
      CHECK(partition.VertexCount(devices - 1) == vertices);
      multigpu::MultiGpuConfig multi_config;
      multi_config.devices = devices;
      const multigpu::MultiDeviceTraversal multi(
          csr, core::EmogiConfig::MergedAligned(), multi_config);
      CHECK(multi.Bfs(0).levels == ref_levels);
      CHECK(multi.Cc().labels == ref_labels);
    }
  }
}

void TestOneDeviceParity() {
  const graph::Csr& csr = graph::LoadOrGenerateDataset("GK", 16384);
  const auto sources = graph::PickSources(csr, 2);
  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;  // Out-of-memory regime.
    const core::Traversal single(csr, config);
    multigpu::MultiGpuConfig multi_config;
    multi_config.devices = 1;
    const multigpu::MultiDeviceTraversal multi(csr, config, multi_config);

    const auto bfs_single = single.Bfs(sources[0]);
    const auto bfs_multi = multi.Bfs(sources[0]);
    CHECK(bfs_multi.levels == bfs_single.levels);
    CheckStatsIdentical(bfs_multi.stats.merged, bfs_single.stats);
    CHECK(bfs_multi.stats.exchanged_records == 0);

    const auto sssp_single = single.Sssp(sources[0]);
    const auto sssp_multi = multi.Sssp(sources[0]);
    CHECK(sssp_multi.distances == sssp_single.distances);
    CheckStatsIdentical(sssp_multi.stats.merged, sssp_single.stats);

    const auto cc_single = single.Cc();
    const auto cc_multi = multi.Cc();
    CHECK(cc_multi.labels == cc_single.labels);
    CheckStatsIdentical(cc_multi.stats.merged, cc_single.stats);
  }
}

void TestMultiDeviceCorrectnessAndExchange() {
  const graph::Csr& csr = graph::LoadOrGenerateDataset("ML", 16384);
  const auto sources = graph::PickSources(csr, 2);
  const auto ref_levels = ref::BfsLevels(csr, sources[0]);
  const auto ref_distances = ref::SsspDistances(csr, sources[0]);
  const auto ref_labels = ref::CcLabels(csr);

  for (core::EmogiConfig config :
       {core::EmogiConfig::Uvm(), core::EmogiConfig::MergedAligned()}) {
    config.device.scale_factor = 1 << 14;
    double previous_ns = 0;
    for (const int devices : {2, 4}) {
      multigpu::MultiGpuConfig multi_config;
      multi_config.devices = devices;
      const multigpu::MultiDeviceTraversal multi(csr, config, multi_config);

      const auto bfs = multi.Bfs(sources[0]);
      CHECK(bfs.levels == ref_levels);
      CHECK(multi.Sssp(sources[0]).distances == ref_distances);
      CHECK(multi.Cc().labels == ref_labels);

      // BFS on a partitioned frontier must cross device boundaries, and
      // every exchanged byte shows up in the per-device and merged
      // accounting consistently.
      CHECK(bfs.stats.exchanged_records > 0);
      CHECK(bfs.stats.exchange_ns > 0);
      std::uint64_t device_bytes = 0;
      std::uint64_t egress = 0;
      std::uint64_t ingress = 0;
      for (const multigpu::DeviceStats& d : bfs.stats.devices) {
        device_bytes += d.traversal.bytes_moved;
        egress += d.exchange_bytes_out;
        ingress += d.exchange_bytes_in;
      }
      CHECK(egress == bfs.stats.exchange_bytes);
      CHECK(ingress == bfs.stats.exchange_bytes);
      CHECK(bfs.stats.merged.bytes_moved ==
            device_bytes + bfs.stats.exchange_bytes);
      // More devices never slow the modeled traversal down at this
      // scale (fig13's selfcheck applies this gate across symbols).
      if (previous_ns > 0) {
        CHECK(bfs.stats.merged.total_time_ns <= previous_ns);
      }
      previous_ns = bfs.stats.merged.total_time_ns;
    }
  }
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestPartitioner();
  emogi::TestEdgelessGraphs();
  emogi::TestOneDeviceParity();
  emogi::TestMultiDeviceCorrectnessAndExchange();
  std::printf("test_multigpu: OK\n");
  return 0;
}
