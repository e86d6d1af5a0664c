// Shared vocabulary of the traffic accountants (core/static_accountant.h):
// the per-kernel cost record they return, and the host-memory layout of
// the managed/pinned graph arrays their byte addresses refer to.

#ifndef EMOGI_CORE_ACCOUNTANT_H_
#define EMOGI_CORE_ACCOUNTANT_H_

#include <cstdint>

#include "graph/csr.h"

namespace emogi::core {

struct KernelCost {
  double total_ns = 0;
  double wire_ns = 0;
  double latency_ns = 0;
  double compute_ns = 0;
  double fault_ns = 0;
};

// --- Host-memory layout of the managed/pinned graph arrays ------------------
// The edge list sits at offset 0; SSSP's 4-byte weight array starts on
// the next page boundary. Every accountant construction path shares this
// layout so traversal, the batched engine and the multi-GPU engine agree
// on what a byte address means.

inline constexpr std::uint32_t kWeightBytes = 4;

// Byte address of the weight array: the edge list rounded up to a page.
std::uint64_t WeightBase(const graph::Csr& csr);

// Total bytes of the managed/pinned allocation for `csr` (edge list plus
// the weight array; sized for SSSP so one layout serves all three apps).
std::uint64_t ManagedGraphBytes(const graph::Csr& csr);

}  // namespace emogi::core

#endif  // EMOGI_CORE_ACCOUNTANT_H_
