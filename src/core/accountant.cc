#include "core/accountant.h"

#include "sim/pcie.h"

namespace emogi::core {

std::uint64_t WeightBase(const graph::Csr& csr) {
  const std::uint64_t edge_bytes = csr.EdgeListBytes();
  return (edge_bytes + sim::kPageBytes - 1) / sim::kPageBytes *
         sim::kPageBytes;
}

std::uint64_t ManagedGraphBytes(const graph::Csr& csr) {
  return WeightBase(csr) + csr.num_edges() * kWeightBytes;
}

}  // namespace emogi::core
