#include "core/toy.h"

#include "core/accountant.h"
#include "core/static_accountant.h"
#include "sim/pcie.h"

namespace emogi::core {
namespace {

constexpr std::uint32_t kElemBytes = 8;

// Device-DRAM traffic per wire byte, calibrated to the paper's measured
// DRAM/PCIe ratios (figure 4): the strided kernel's scattered sector
// landings force read-modify-write staging on the device side (~1.84x),
// while the merged kernels stream full lines straight through (~1x).
double DramFactor(ToyPattern pattern) {
  switch (pattern) {
    case ToyPattern::kStrided:
      return 1.84;
    case ToyPattern::kMergedAligned:
      return 0.99;
    case ToyPattern::kMergedMisaligned:
      return 0.98;
  }
  return 1.0;
}

// The toy kernel is one scan of the whole array under the access mode
// each pattern stands for. The misaligned pattern starts the array one
// sector past a cacheline boundary, so every warp window splits across
// three lines.
AccessMode ModeFor(ToyPattern pattern) {
  switch (pattern) {
    case ToyPattern::kStrided:
      return AccessMode::kNaive;
    case ToyPattern::kMergedAligned:
      return AccessMode::kMergedAligned;
    case ToyPattern::kMergedMisaligned:
      return AccessMode::kMerged;
  }
  return AccessMode::kMerged;
}

}  // namespace

const char* ToString(ToyPattern pattern) {
  switch (pattern) {
    case ToyPattern::kStrided:
      return "Strided (naive)";
    case ToyPattern::kMergedAligned:
      return "Merged+Aligned";
    case ToyPattern::kMergedMisaligned:
      return "Merged misaligned";
  }
  return "?";
}

// The copy kernel body, monomorphized on the accountant type so the
// whole-array scan inlines the pattern's cost model (mirrors the
// frontier engine's DispatchRun seam, one closed-form kernel instead of
// a frontier loop).
template <typename AccountantT>
ToyResult RunToyCopyWith(ToyPattern pattern, std::uint64_t array_bytes,
                         AccountantT& accountant) {
  const sim::Addr base =
      pattern == ToyPattern::kMergedMisaligned ? sim::kSectorBytes : 0;
  const std::uint64_t elems = array_bytes / kElemBytes;
  accountant.OnListScan(base, 0, elems, kElemBytes);
  const KernelCost cost = accountant.CloseKernel(elems);

  ToyResult result;
  result.requests = accountant.stats().requests;
  result.time_ns = cost.total_ns;
  result.pcie_bandwidth_gbps =
      static_cast<double>(accountant.stats().bytes_moved) / result.time_ns;
  result.dram_bandwidth_gbps =
      result.pcie_bandwidth_gbps * DramFactor(pattern);
  return result;
}

ToyResult RunToyCopy(ToyPattern pattern, std::uint64_t array_bytes,
                     const EmogiConfig& config) {
  EmogiConfig pattern_config = config;
  pattern_config.mode = ModeFor(pattern);
  const std::uint64_t managed_bytes = array_bytes + sim::kSectorBytes;

  // Every toy pattern stands for a zero-copy mode (the UVM reference has
  // its own closed form below), so the UVM branch is never taken.
  return WithStaticAccountant(pattern_config.mode, [&](auto tag) {
    typename decltype(tag)::type accountant(pattern_config, managed_bytes);
    return RunToyCopyWith(pattern, array_bytes, accountant);
  });
}

double UvmToyBandwidth(std::uint64_t array_bytes, const EmogiConfig& config) {
  const sim::PcieTimingModel pcie(config.device.link);
  const double pages = static_cast<double>(
      (array_bytes + sim::kPageBytes - 1) / sim::kPageBytes);
  const double time_ns =
      static_cast<double>(array_bytes) / pcie.PeakBulkBandwidth() +
      pages * config.device.fault_service_ns +
      config.device.kernel_launch_ns;
  return static_cast<double>(array_bytes) / time_ns;
}

}  // namespace emogi::core
