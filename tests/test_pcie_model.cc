// PCIe timing model checks: the paper's section-3.3 arithmetic, the
// monotonicity properties the traversal conclusions depend on (more
// coalescing => fewer requests and more bandwidth; longer RTT hurts
// small requests most), and the accountants against a plain oracle of
// the same cost model: sim::ForEachSpanRequest plus
// PcieTimingModel::RequestWireNs per request for zero-copy, and
// uvm::PageTable residency with per-kernel fault dedupe for UVM. Costs
// and folded stats must match the oracle with `==`, doubles included.
//
// The zero-copy oracle is itself checked by a second, independent one,
// the lanes oracle: CoalesceLanes models one warp instruction from its
// per-lane addresses (touched sectors deduplicated, then contiguous
// sectors merged within a cacheline). Every merged-mode window the
// oracle splits must coalesce from its contiguous lanes into exactly the
// same requests, and every naive-mode element, read by one lane, into
// one 32B sector.

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <set>
#include <vector>

#include "core/accountant.h"
#include "core/config.h"
#include "core/static_accountant.h"
#include "graph/generators.h"
#include "sim/coalescer.h"
#include "sim/pcie.h"
#include "test_util.h"
#include "uvm/page_table.h"

namespace emogi {
namespace {

void TestPaperArithmetic() {
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  sim::PcieLinkConfig link = sim::PcieLinkConfig::Gen3x16();
  link.round_trip_ns = 1000.0;
  const sim::PcieTimingModel at_1us(link);
  // 256 tags * 32B / 1.0us = 7.63 GiB/s (paper section 3.3).
  CHECK_NEAR(at_1us.TheoreticalBandwidth(32) * 1e9 / kGiB, 7.63, 0.02);

  link.round_trip_ns = 1600.0;
  const sim::PcieTimingModel at_1600ns(link);
  CHECK_NEAR(at_1600ns.TheoreticalBandwidth(32) * 1e9 / kGiB, 4.77, 0.02);

  const sim::PcieTimingModel gen3(sim::PcieLinkConfig::Gen3x16());
  CHECK(gen3.OverheadRatio(32) >= 0.36);
  CHECK_NEAR(gen3.OverheadRatio(128), 0.123, 0.01);
  CHECK_NEAR(gen3.PeakBulkBandwidth(), 12.3, 0.2);

  const sim::PcieTimingModel gen4(sim::PcieLinkConfig::Gen4x16());
  CHECK_NEAR(gen4.PeakBulkBandwidth(), 24.6, 0.4);
  CHECK(gen4.PeakBulkBandwidth() > 1.9 * gen3.PeakBulkBandwidth());
}

void TestMonotonicity() {
  const sim::PcieTimingModel model(sim::PcieLinkConfig::Gen3x16());
  // Larger requests always help, on both bounds.
  for (int bytes = 32; bytes < 128; bytes += 32) {
    CHECK(model.SteadyStateBandwidth(bytes + 32) >
          model.SteadyStateBandwidth(bytes));
    CHECK(model.OverheadRatio(bytes + 32) < model.OverheadRatio(bytes));
  }
  // Longer RTT only lowers the tag-window bound.
  sim::PcieLinkConfig slow = sim::PcieLinkConfig::Gen3x16();
  slow.round_trip_ns *= 2;
  const sim::PcieTimingModel slow_model(slow);
  CHECK(slow_model.TheoreticalBandwidth(32) <
        model.TheoreticalBandwidth(32));
  CHECK_NEAR(slow_model.WireBandwidth(128), model.WireBandwidth(128), 1e-9);
}

// Total requests one kernel scanning every list of `csr` issues.
template <core::AccessMode kMode>
std::uint64_t TotalRequests(const graph::Csr& csr,
                            const core::EmogiConfig& config) {
  core::StaticZeroCopyAccountant<kMode> accountant(config,
                                                   /*managed_bytes=*/0);
  for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
    accountant.OnListScan(sim::kPageBytes, csr.NeighborBegin(v),
                          csr.NeighborEnd(v), csr.edge_elem_bytes());
  }
  accountant.CloseKernel(csr.num_edges());
  return accountant.stats().requests.TotalRequests();
}

// More coalescing => fewer PCIe transactions, across the three zero-copy
// modes, measured end to end through the accountant on a real list mix.
void TestCoalescingReducesRequests() {
  const graph::Csr csr = graph::GenerateUniformRandom(1 << 10, 48, 7);

  const std::uint64_t naive = TotalRequests<core::AccessMode::kNaive>(
      csr, core::EmogiConfig::Naive());
  const std::uint64_t merged = TotalRequests<core::AccessMode::kMerged>(
      csr, core::EmogiConfig::Merged());
  const std::uint64_t aligned =
      TotalRequests<core::AccessMode::kMergedAligned>(
          csr, core::EmogiConfig::MergedAligned());
  CHECK(naive > merged);
  CHECK(merged > aligned);

  // And narrower workers can only increase the request count.
  core::EmogiConfig narrow = core::EmogiConfig::MergedAligned();
  narrow.worker_lanes = 8;
  CHECK(TotalRequests<core::AccessMode::kMergedAligned>(csr, narrow) >=
        aligned);
}

void CheckSameCost(const core::KernelCost& a, const core::KernelCost& b) {
  CHECK(a.total_ns == b.total_ns);
  CHECK(a.wire_ns == b.wire_ns);
  CHECK(a.latency_ns == b.latency_ns);
  CHECK(a.compute_ns == b.compute_ns);
  CHECK(a.fault_ns == b.fault_ns);
}

// --- Lanes oracle -------------------------------------------------------------

struct Request {
  sim::Addr addr = 0;
  std::uint32_t bytes = 0;

  bool operator==(const Request& other) const {
    return addr == other.addr && bytes == other.bytes;
  }
};

constexpr std::uint32_t kFullLaneMask = 0xffffffffu;

// Coalesces one warp instruction: active lane i (bit i of `mask`) reads
// [lanes[i], lanes[i] + elem_bytes). Touched sectors are deduplicated and
// contiguous sectors within a cacheline merge into one request.
void CoalesceLanes(const sim::Addr lanes[sim::kWarpSize], std::uint32_t mask,
                   std::uint32_t elem_bytes, std::vector<Request>* out) {
  // An element can straddle a sector boundary, so each lane contributes
  // every sector its range overlaps.
  std::vector<sim::Addr> sectors;
  for (int lane = 0; lane < sim::kWarpSize; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const sim::Addr first = lanes[lane] / sim::kSectorBytes;
    const sim::Addr last = (lanes[lane] + elem_bytes - 1) / sim::kSectorBytes;
    for (sim::Addr s = first; s <= last; ++s) sectors.push_back(s);
  }
  if (sectors.empty()) return;
  std::sort(sectors.begin(), sectors.end());
  sectors.erase(std::unique(sectors.begin(), sectors.end()), sectors.end());

  constexpr sim::Addr kSectorsPerLine = sim::kCachelineBytes / sim::kSectorBytes;
  sim::Addr run_start = sectors[0];
  sim::Addr prev = sectors[0];
  for (std::size_t i = 1; i <= sectors.size(); ++i) {
    const bool extends =
        i < sectors.size() && sectors[i] == prev + 1 &&
        sectors[i] / kSectorsPerLine == run_start / kSectorsPerLine;
    if (extends) {
      prev = sectors[i];
      continue;
    }
    out->push_back({run_start * sim::kSectorBytes,
                    static_cast<std::uint32_t>((prev - run_start + 1) *
                                               sim::kSectorBytes)});
    if (i < sectors.size()) {
      run_start = sectors[i];
      prev = sectors[i];
    }
  }
}

void TestLanesDedupe() {
  // All 32 lanes read inside one sector -> one 32B request.
  sim::Addr lanes[sim::kWarpSize] = {};
  std::vector<Request> out;
  CoalesceLanes(lanes, kFullLaneMask, 8, &out);
  CHECK(out.size() == 1);
  CHECK(out[0].bytes == 32);
}

void TestLanesContiguous() {
  // 32 lanes * 8B contiguous from an aligned base -> two 128B requests.
  sim::Addr lanes[sim::kWarpSize];
  for (int i = 0; i < sim::kWarpSize; ++i) {
    lanes[i] = static_cast<sim::Addr>(i) * 8;
  }
  std::vector<Request> out;
  CoalesceLanes(lanes, kFullLaneMask, 8, &out);
  CHECK(out.size() == 2);
  CHECK(out[0] == (Request{0, 128}));
  CHECK(out[1] == (Request{128, 128}));
}

void TestLanesScattered() {
  // Scattered lanes (one per cacheline) -> one sector request each.
  sim::Addr lanes[sim::kWarpSize];
  for (int i = 0; i < sim::kWarpSize; ++i) {
    lanes[i] = static_cast<sim::Addr>(i) * 4096;
  }
  std::vector<Request> out;
  CoalesceLanes(lanes, kFullLaneMask, 8, &out);
  CHECK(out.size() == sim::kWarpSize);
  for (const Request& r : out) CHECK(r.bytes == 32);
}

void TestLanesMaskRespected() {
  sim::Addr lanes[sim::kWarpSize] = {};
  std::vector<Request> out;
  CoalesceLanes(lanes, 0, 8, &out);
  CHECK(out.empty());
}

// The requests sim::ForEachSpanRequest splits [begin, end) into must be
// what the lanes reading it element by element coalesce into.
void CheckSpanMatchesLanes(sim::Addr begin, sim::Addr end,
                           std::uint32_t elem_bytes) {
  CHECK((end - begin) % elem_bytes == 0);
  CHECK((end - begin) / elem_bytes <= sim::kWarpSize);
  sim::Addr lanes[sim::kWarpSize] = {};
  std::uint32_t mask = 0;
  for (int lane = 0; begin + lane * elem_bytes < end; ++lane) {
    lanes[lane] = begin + lane * elem_bytes;
    mask |= 1u << lane;
  }
  std::vector<Request> coalesced;
  CoalesceLanes(lanes, mask, elem_bytes, &coalesced);
  std::vector<Request> split;
  sim::ForEachSpanRequest(begin, end,
                          [&split](sim::Addr addr, std::uint32_t bytes) {
                            split.push_back({addr, bytes});
                          });
  CHECK(coalesced == split);
}

// --- Zero-copy oracle ---------------------------------------------------------

// The zero-copy model in its plainest form: walk the mode's warp
// windows, split each with sim::ForEachSpanRequest, and charge
// RequestWireNs per request, in order. Each window (each naive element)
// is also checked against the lanes oracle.
class ZeroCopyOracle {
 public:
  explicit ZeroCopyOracle(const core::EmogiConfig& config)
      : config_(config), pcie_(config.device.link) {}

  void OnListScan(sim::Addr base_addr, std::uint64_t elem_begin,
                  std::uint64_t elem_end, std::uint32_t elem_bytes) {
    const sim::Addr begin = base_addr + elem_begin * elem_bytes;
    const sim::Addr end = base_addr + elem_end * elem_bytes;
    if (config_.mode == core::AccessMode::kNaive) {
      const std::uint64_t elems = elem_end - elem_begin;
      for (std::uint64_t i = 0; i < elems; ++i) {
        const sim::Addr lanes[sim::kWarpSize] = {begin + i * elem_bytes};
        std::vector<Request> sector;
        CoalesceLanes(lanes, /*mask=*/1, elem_bytes, &sector);
        CHECK(sector.size() == 1 && sector[0].bytes == sim::kSectorBytes);
      }
      requests_.Add(sim::kSectorBytes, elems);
      request_count_ += elems;
      bytes_ += elems * sim::kSectorBytes;
      wire_ns_ += static_cast<double>(elems) *
                  pcie_.RequestWireNs(sim::kSectorBytes);
      return;
    }
    const sim::Addr window =
        static_cast<sim::Addr>(config_.worker_lanes) * elem_bytes;
    // Merged windows start at the list head; merged+aligned windows sit
    // on the absolute grid.
    const sim::Addr anchor = config_.mode == core::AccessMode::kMergedAligned
                                 ? begin - begin % window
                                 : begin;
    for (sim::Addr w = anchor; w < end; w += window) {
      CheckSpanMatchesLanes(std::max(w, begin), std::min(w + window, end),
                            elem_bytes);
      sim::ForEachSpanRequest(
          std::max(w, begin), std::min(w + window, end),
          [this](sim::Addr /*addr*/, std::uint32_t bytes) {
            requests_.Add(bytes);
            ++request_count_;
            bytes_ += bytes;
            wire_ns_ += pcie_.RequestWireNs(bytes);
          });
    }
  }

  core::KernelCost CloseKernel(std::uint64_t work_edges) {
    core::KernelCost cost;
    cost.wire_ns = wire_ns_;
    cost.latency_ns =
        static_cast<double>(request_count_) * pcie_.RequestLatencyNs();
    cost.compute_ns = static_cast<double>(work_edges) *
                      config_.device.compute_ns_per_edge;
    cost.total_ns =
        std::max({cost.wire_ns, cost.latency_ns, cost.compute_ns}) +
        config_.device.kernel_launch_ns;
    stats_.total_time_ns += cost.total_ns;
    stats_.wire_ns += cost.wire_ns;
    stats_.latency_ns += cost.latency_ns;
    stats_.compute_ns += cost.compute_ns;
    stats_.bytes_moved += bytes_;
    stats_.requests.Merge(requests_);
    ++stats_.kernels;
    requests_ = core::RequestHistogram();
    request_count_ = 0;
    bytes_ = 0;
    wire_ns_ = 0;
    return cost;
  }

  const core::TraversalStats& stats() const { return stats_; }

 private:
  core::EmogiConfig config_;
  sim::PcieTimingModel pcie_;
  core::TraversalStats stats_;
  core::RequestHistogram requests_;
  std::uint64_t request_count_ = 0;
  std::uint64_t bytes_ = 0;
  double wire_ns_ = 0;
};

// Every span with a byte begin in [0, 256) and a byte length in [1, 600]
// at element granularity, one kernel each, for every worker width and
// element size: per-kernel costs and the folded stats must equal the
// oracle's exactly.
template <core::AccessMode kMode>
void CheckZeroCopyAgainstOracle(core::EmogiConfig config) {
  CHECK(config.mode == kMode);
  for (const int lanes : {1, 8, 32}) {
    config.worker_lanes = lanes;
    for (const std::uint32_t elem_bytes : {4u, 8u}) {
      for (std::uint64_t begin = 0; begin < 256; begin += elem_bytes) {
        core::StaticZeroCopyAccountant<kMode> accountant(config,
                                                         /*managed_bytes=*/0);
        ZeroCopyOracle oracle(config);
        const std::uint64_t elem_begin = begin / elem_bytes;
        for (std::uint64_t length = elem_bytes; length <= 600;
             length += elem_bytes) {
          const std::uint64_t elems = length / elem_bytes;
          accountant.OnListScan(sim::kPageBytes, elem_begin,
                                elem_begin + elems, elem_bytes);
          oracle.OnListScan(sim::kPageBytes, elem_begin, elem_begin + elems,
                            elem_bytes);
          CheckSameCost(accountant.CloseKernel(elems),
                        oracle.CloseKernel(elems));
          CHECK(accountant.stats() == oracle.stats());
        }
      }
    }
  }
}

void TestZeroCopyMatchesOracle() {
  CheckZeroCopyAgainstOracle<core::AccessMode::kNaive>(
      core::EmogiConfig::Naive());
  CheckZeroCopyAgainstOracle<core::AccessMode::kMerged>(
      core::EmogiConfig::Merged());
  CheckZeroCopyAgainstOracle<core::AccessMode::kMergedAligned>(
      core::EmogiConfig::MergedAligned());
}

// --- UVM oracle -----------------------------------------------------------------

// Managed memory in its plainest form: uvm::PageTable decides residency,
// a page faults at most once per kernel, and a kernel costs
// max(compute, migration at bulk bandwidth + serial fault service) plus
// the launch charge.
class UvmOracle {
 public:
  UvmOracle(const core::EmogiConfig& config, std::uint64_t pages,
            std::uint64_t resident_pages)
      : config_(config),
        bulk_bandwidth_(sim::PcieTimingModel(config.device.link)
                            .PeakBulkBandwidth()),
        table_(pages, resident_pages) {}

  void OnListScan(sim::Addr base_addr, std::uint64_t elem_begin,
                  std::uint64_t elem_end, std::uint32_t elem_bytes) {
    const std::uint64_t first =
        (base_addr + elem_begin * elem_bytes) / sim::kPageBytes;
    const std::uint64_t last =
        (base_addr + elem_end * elem_bytes - 1) / sim::kPageBytes;
    for (std::uint64_t page = first; page <= last; ++page) {
      if (touched_.insert(page).second && table_.Touch(page)) ++faults_;
    }
  }

  core::KernelCost CloseKernel(std::uint64_t work_edges) {
    core::KernelCost cost;
    cost.wire_ns =
        static_cast<double>(faults_ * sim::kPageBytes) / bulk_bandwidth_;
    cost.fault_ns =
        static_cast<double>(faults_) * config_.device.fault_service_ns;
    cost.compute_ns = static_cast<double>(work_edges) *
                      config_.device.compute_ns_per_edge;
    cost.total_ns = std::max(cost.compute_ns, cost.wire_ns + cost.fault_ns) +
                    config_.device.kernel_launch_ns;
    stats_.total_time_ns += cost.total_ns;
    stats_.wire_ns += cost.wire_ns;
    stats_.fault_ns += cost.fault_ns;
    stats_.compute_ns += cost.compute_ns;
    stats_.bytes_moved += faults_ * sim::kPageBytes;
    stats_.page_faults += faults_;
    stats_.requests.Add(static_cast<std::uint32_t>(sim::kPageBytes), faults_);
    ++stats_.kernels;
    touched_.clear();
    faults_ = 0;
    return cost;
  }

  const core::TraversalStats& stats() const { return stats_; }

 private:
  core::EmogiConfig config_;
  double bulk_bandwidth_;
  uvm::PageTable table_;
  std::set<std::uint64_t> touched_;
  std::uint64_t faults_ = 0;
  core::TraversalStats stats_;
};

// A four-page allocation with room for two resident pages: scripted
// kernels exercise the per-kernel dedupe, eviction and refault, and both
// arms of the max(compute, transfer) bound.
void TestUvmMatchesOracle() {
  constexpr std::uint64_t kPages = 4;
  constexpr std::uint64_t kResidentPages = 2;
  constexpr std::uint32_t kElemBytes = 8;
  constexpr std::uint64_t kPageElems = sim::kPageBytes / kElemBytes;
  core::EmogiConfig config = core::EmogiConfig::Uvm();
  config.device.uvm_resident_fraction = 1.0;
  config.device.memory_bytes = kResidentPages * sim::kPageBytes;

  core::StaticUvmAccountant accountant(config, kPages * sim::kPageBytes);
  UvmOracle oracle(config, kPages, kResidentPages);

  struct Scan {
    std::uint64_t elem_begin;
    std::uint64_t elem_end;
  };
  // Scans `scans` in one kernel on both sides; returns the kernel's faults.
  const auto run_kernel = [&](std::initializer_list<Scan> scans,
                              std::uint64_t work_edges) {
    const std::uint64_t faults_before = accountant.stats().page_faults;
    for (const Scan& scan : scans) {
      accountant.OnListScan(0, scan.elem_begin, scan.elem_end, kElemBytes);
      oracle.OnListScan(0, scan.elem_begin, scan.elem_end, kElemBytes);
    }
    CheckSameCost(accountant.CloseKernel(work_edges),
                  oracle.CloseKernel(work_edges));
    CHECK(accountant.stats() == oracle.stats());
    CHECK(accountant.stats().bytes_moved ==
          accountant.stats().page_faults * sim::kPageBytes);
    return accountant.stats().page_faults - faults_before;
  };
  const auto page = [](std::uint64_t p, std::uint64_t offset) {
    return Scan{p * kPageElems + offset, p * kPageElems + offset + 4};
  };

  // Page 0 twice in one kernel faults once; page 1 once.
  CHECK(run_kernel({page(0, 0), page(0, 64), page(1, 0)}, 8) == 2);
  // Page 2 evicts page 0 (FIFO); page 1 is still resident.
  CHECK(run_kernel({page(2, 0), page(1, 8)}, 8) == 1);
  // The evicted page faults again in a later kernel.
  CHECK(run_kernel({page(0, 8)}, 4) == 1);
  // One span across pages 1..3 faults on all three; page 1, evicted by
  // page 3 inside this kernel, is not refaulted before the kernel ends.
  CHECK(run_kernel({{kPageElems + 10, 3 * kPageElems + 10}, page(1, 32)},
                   2 * kPageElems) == 3);
  // Compute-bound kernel over a resident page: no faults, compute wins.
  CHECK(run_kernel({page(3, 0)}, 1u << 20) == 0);
  CHECK(accountant.stats().page_faults == 7);
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestPaperArithmetic();
  emogi::TestMonotonicity();
  emogi::TestCoalescingReducesRequests();
  emogi::TestLanesDedupe();
  emogi::TestLanesContiguous();
  emogi::TestLanesScattered();
  emogi::TestLanesMaskRespected();
  emogi::TestZeroCopyMatchesOracle();
  emogi::TestUvmMatchesOracle();
  std::printf("test_pcie_model: OK\n");
  return 0;
}
