// The toy 1D-array copy kernel of figures 3 and 4: copy a
// host-pinned array into device memory with a grid of warps, under the
// three zero-copy access patterns the paper contrasts, plus the UVM
// reference. Everything is closed-form over the PCIe model -- the array
// is never materialized.

#ifndef EMOGI_CORE_TOY_H_
#define EMOGI_CORE_TOY_H_

#include <cstdint>

#include "core/config.h"
#include "core/stats.h"

namespace emogi::core {

enum class ToyPattern {
  kStrided,           // Thread-per-chunk: scattered 32B sector requests.
  kMergedAligned,     // Warp-per-window from a 128B-aligned base.
  kMergedMisaligned,  // Warp-per-window from a sector-misaligned base.
};

const char* ToString(ToyPattern pattern);

struct ToyResult {
  double time_ns = 0;
  double pcie_bandwidth_gbps = 0;  // Wire bytes / time.
  double dram_bandwidth_gbps = 0;  // Device-memory side of the copy.
  RequestHistogram requests;
};

ToyResult RunToyCopy(ToyPattern pattern, std::uint64_t array_bytes,
                     const EmogiConfig& config);

// Bandwidth of the same copy through UVM: page-granular streaming
// migration with the serial fault handler in the loop.
double UvmToyBandwidth(std::uint64_t array_bytes, const EmogiConfig& config);

}  // namespace emogi::core

#endif  // EMOGI_CORE_TOY_H_
