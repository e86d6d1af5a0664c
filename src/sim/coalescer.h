// Warp-level memory coalescing model.
//
// A GPU warp instruction that touches zero-copy (host-pinned) memory is
// split by the coalescing unit into PCIe read requests: the 128-byte
// cacheline is the largest request, and requests are built from 32-byte
// sectors, so every request is one of 32/64/96/128 bytes and never
// crosses a cacheline boundary. This file models that splitting for the
// two shapes the traversal kernels produce: a contiguous byte span (the
// merged, warp-per-vertex kernels) and a set of per-lane addresses (the
// general case, e.g. the naive vertex-per-thread kernel).

#ifndef EMOGI_SIM_COALESCER_H_
#define EMOGI_SIM_COALESCER_H_

#include <cstdint>
#include <vector>

namespace emogi::sim {

using Addr = std::uint64_t;

inline constexpr int kWarpSize = 32;
inline constexpr std::uint32_t kFullLaneMask = 0xffffffffu;
inline constexpr Addr kSectorBytes = 32;
inline constexpr Addr kCachelineBytes = 128;

// One PCIe read request produced by the coalescer: `bytes` is a multiple
// of kSectorBytes in [32, 128] and [addr, addr+bytes) never crosses a
// 128-byte cacheline boundary.
struct Transaction {
  Addr addr = 0;
  std::uint32_t bytes = 0;
};

// Splits the byte span [begin, end) into sector-rounded,
// cacheline-bounded requests, calling fn(addr, bytes) for each. This is
// the one definition of the splitting arithmetic: Coalescer::CoalesceSpan
// materializes the transactions through it. The zero-copy accountant
// (core/static_accountant.h) emits the same sequence in straight-line
// form without allocating, and tests/test_pcie_model.cc checks it
// against this loop.
template <typename Fn>
inline void ForEachSpanRequest(Addr begin, Addr end, Fn&& fn) {
  if (begin >= end) return;
  Addr cursor = begin - begin % kSectorBytes;
  const Addr limit =
      end % kSectorBytes ? end + kSectorBytes - end % kSectorBytes : end;
  while (cursor < limit) {
    const Addr line_end =
        cursor - cursor % kCachelineBytes + kCachelineBytes;
    const Addr piece_end = limit < line_end ? limit : line_end;
    fn(cursor, static_cast<std::uint32_t>(piece_end - cursor));
    cursor = piece_end;
  }
}

class Coalescer {
 public:
  // Splits the byte span [begin, end) into sector-rounded, cacheline-bounded
  // transactions and appends them to `out`.
  static void CoalesceSpan(Addr begin, Addr end, std::vector<Transaction>* out);

  // Coalesces one warp instruction: active lane i (bit i of `mask`) reads
  // [lanes[i], lanes[i] + elem_bytes). Touched sectors are deduplicated and
  // contiguous sectors within a cacheline merge into one transaction.
  static void CoalesceLanes(const Addr lanes[kWarpSize], std::uint32_t mask,
                            std::uint32_t elem_bytes,
                            std::vector<Transaction>* out);
};

}  // namespace emogi::sim

#endif  // EMOGI_SIM_COALESCER_H_
