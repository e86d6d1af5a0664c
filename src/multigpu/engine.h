// Multi-device frontier engine: runs any core/engine.h traversal policy
// (BFS/SSSP/CC) across N simulated devices, each owning one partition of
// the graph (multigpu/partition.h) and one PCIe link of the modeled
// fabric (multigpu/topology.h).
//
// One round == one synchronized multi-GPU kernel launch:
//
//   1. the global frontier is split by owner (order-preserving);
//   2. every device scans its chunk's neighbor lists, charging its own
//      accountant -- a *static* (monomorphized) accountant selected once
//      per run from config.mode, exactly like the single-device
//      DispatchRun, so the per-scan cost model inlines into the scan
//      loop on every device;
//   3. the policy's Expand runs in device order, so the label updates
//      and the next frontier are deterministic (and, for N=1, identical
//      to the single-device engine);
//   4. discovered vertices owned by another device become boundary
//      exchange records, charged to the links they cross;
//   5. the round's wall time is the topology's view of the concurrent
//      per-device kernels plus the exchange.
//
// Devices run one after another on the calling thread; host parallelism
// belongs to callers fanning independent runs (fig13's sources over
// runtime::SweepRunner).
//
// With devices=1 this degenerates to RunFrontierEngine bit-for-bit: one
// accountant sees the same OnListScan/CloseKernel sequence, the exchange
// is empty, and the topology passes the kernel cost through unchanged
// (test_multigpu asserts byte-identical stats for all four modes).

#ifndef EMOGI_MULTIGPU_ENGINE_H_
#define EMOGI_MULTIGPU_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/accountant.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/static_accountant.h"
#include "core/stats.h"
#include "graph/csr.h"
#include "multigpu/partition.h"
#include "multigpu/topology.h"

namespace emogi::multigpu {

struct MultiGpuConfig {
  int devices = 1;
  LinkTopologyConfig topology;
};

// Per-device view of one run.
struct DeviceStats {
  core::TraversalStats traversal;  // This device's kernel-side accounting.
  std::uint64_t owned_vertices = 0;
  std::uint64_t owned_edges = 0;  // Degree sum of the owned range.
  std::uint64_t exchange_bytes_out = 0;
  std::uint64_t exchange_bytes_in = 0;
};

struct MultiDeviceStats {
  // Cluster view: total_time_ns is the modeled wall time (sum of round
  // times); the occupancy/byte/request fields aggregate all devices,
  // with exchange traffic included in bytes_moved.
  core::TraversalStats merged;
  std::vector<DeviceStats> devices;
  std::uint64_t rounds = 0;
  std::uint64_t exchanged_records = 0;
  std::uint64_t exchange_bytes = 0;
  double exchange_ns = 0;
};

// The round loop, monomorphized on (Policy, AccountantT): every device
// owns one concrete accountant of the same static type, so the scan
// phase below is the same inlined hot loop as the single-device engine.
template <typename Policy, typename AccountantT>
MultiDeviceStats RunMultiDeviceEngineWith(const graph::Csr& csr,
                                          const core::EmogiConfig& config,
                                          const MultiGpuConfig& multi,
                                          Policy& policy) {
  const int devices = std::max(1, multi.devices);
  const Partition partition = MakePartition(csr, devices);
  const LinkTopology topology(multi.topology, config.device.link);
  const std::uint64_t weight_base = core::WeightBase(csr);
  const std::uint32_t record_bytes = multi.topology.exchange_record_bytes;
  const std::uint64_t managed_bytes = core::ManagedGraphBytes(csr);

  std::vector<AccountantT> accountants;
  accountants.reserve(devices);
  for (int d = 0; d < devices; ++d) {
    accountants.emplace_back(config, managed_bytes);
  }

  MultiDeviceStats stats;
  stats.devices.resize(devices);
  for (int d = 0; d < devices; ++d) {
    stats.devices[d].owned_vertices = partition.VertexCount(d);
    stats.devices[d].owned_edges = partition.RangeEdges(csr, d);
  }

  std::vector<std::vector<graph::VertexId>> chunks(devices);
  std::vector<std::vector<graph::VertexId>> nexts(devices);
  std::vector<std::uint64_t> scanned(devices);
  std::vector<std::uint64_t> egress(devices);
  std::vector<std::uint64_t> ingress(devices);
  std::vector<core::KernelCost> costs(devices);
  std::vector<graph::VertexId> frontier;
  std::vector<graph::VertexId> next;
  policy.InitFrontier(&frontier);

  while (!frontier.empty()) {
    for (int d = 0; d < devices; ++d) chunks[d].clear();
    for (const graph::VertexId v : frontier) {
      chunks[partition.OwnerOf(v)].push_back(v);
    }

    // Scan phase: each device charges its own accountant.
    for (int d = 0; d < devices; ++d) {
      std::uint64_t edges = 0;
      AccountantT& accountant = accountants[d];
      for (const graph::VertexId v : chunks[d]) {
        accountant.OnListScan(0, csr.NeighborBegin(v), csr.NeighborEnd(v),
                              csr.edge_elem_bytes());
        if (Policy::kStreamsWeights) {
          accountant.OnListScan(weight_base, csr.NeighborBegin(v),
                                csr.NeighborEnd(v), core::kWeightBytes);
        }
        edges += csr.Degree(v);
      }
      scanned[d] = edges;
    }

    // Expand phase in device order: deterministic merging.
    for (int d = 0; d < devices; ++d) {
      nexts[d].clear();
      for (const graph::VertexId v : chunks[d]) policy.Expand(v, &nexts[d]);
    }

    // Idle devices (empty chunk) launch no kernel this round.
    for (int d = 0; d < devices; ++d) {
      costs[d] = chunks[d].empty() ? core::KernelCost{}
                                   : accountants[d].CloseKernel(scanned[d]);
    }

    // Boundary exchange: a vertex discovered by d but owned by o != d is
    // one record over d's link up and o's link down.
    std::fill(egress.begin(), egress.end(), 0);
    std::fill(ingress.begin(), ingress.end(), 0);
    for (int d = 0; d < devices; ++d) {
      for (const graph::VertexId w : nexts[d]) {
        const int owner = partition.OwnerOf(w);
        if (owner == d) continue;
        ++stats.exchanged_records;
        egress[d] += record_bytes;
        ingress[owner] += record_bytes;
      }
      stats.devices[d].exchange_bytes_out += egress[d];
    }
    for (int d = 0; d < devices; ++d) {
      stats.devices[d].exchange_bytes_in += ingress[d];
      stats.exchange_bytes += egress[d];
    }

    double exchange_ns = 0;
    stats.merged.total_time_ns +=
        topology.RoundNs(costs, egress, ingress, &exchange_ns);
    stats.exchange_ns += exchange_ns;
    ++stats.rounds;

    next.clear();
    for (int d = 0; d < devices; ++d) {
      next.insert(next.end(), nexts[d].begin(), nexts[d].end());
    }
    policy.NextFrontier(&frontier, &next);
  }

  // Fold the per-device accounting into the cluster view. total_time_ns
  // is already the round-based wall time; everything else sums.
  for (int d = 0; d < devices; ++d) {
    core::TraversalStats& device = stats.devices[d].traversal;
    device = *accountants[d].mutable_stats();
    stats.merged.wire_ns += device.wire_ns;
    stats.merged.latency_ns += device.latency_ns;
    stats.merged.compute_ns += device.compute_ns;
    stats.merged.fault_ns += device.fault_ns;
    stats.merged.bytes_moved += device.bytes_moved;
    stats.merged.page_faults += device.page_faults;
    stats.merged.kernels += device.kernels;
    stats.merged.requests.Merge(device.requests);
  }
  stats.merged.bytes_moved += stats.exchange_bytes;
  stats.merged.dataset_bytes = policy.DatasetBytes();
  return stats;
}

// Run entry: like core::DispatchRun, selects the static (policy x
// access-mode) instantiation once from config.mode.
template <typename Policy>
MultiDeviceStats RunMultiDeviceEngine(const graph::Csr& csr,
                                      const core::EmogiConfig& config,
                                      const MultiGpuConfig& multi,
                                      Policy& policy) {
  return core::WithStaticAccountant(config.mode, [&](auto tag) {
    return RunMultiDeviceEngineWith<Policy, typename decltype(tag)::type>(
        csr, config, multi, policy);
  });
}

// Facade mirroring core::Traversal for the three stock applications.
class MultiDeviceTraversal {
 public:
  MultiDeviceTraversal(const graph::Csr& csr, const core::EmogiConfig& config,
                       const MultiGpuConfig& multi);

  struct BfsResult {
    std::vector<std::uint32_t> levels;
    MultiDeviceStats stats;
  };
  struct SsspResult {
    std::vector<std::uint64_t> distances;
    MultiDeviceStats stats;
  };
  struct CcResult {
    std::vector<graph::VertexId> labels;
    MultiDeviceStats stats;
  };

  // Pure (cold per-device accountants each call): safe to call
  // concurrently on one MultiDeviceTraversal.
  BfsResult Bfs(graph::VertexId source) const;
  SsspResult Sssp(graph::VertexId source) const;
  CcResult Cc() const;

 private:
  const graph::Csr& csr_;
  core::EmogiConfig config_;
  MultiGpuConfig multi_;
};

}  // namespace emogi::multigpu

#endif  // EMOGI_MULTIGPU_ENGINE_H_
