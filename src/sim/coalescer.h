// Warp-level memory coalescing model.
//
// A GPU warp instruction that touches zero-copy (host-pinned) memory is
// split by the coalescing unit into PCIe read requests: the 128-byte
// cacheline is the largest request, and requests are built from 32-byte
// sectors, so every request is one of 32/64/96/128 bytes and never
// crosses a cacheline boundary. The merged kernels' warps read
// contiguous byte spans (a worker's window of a neighbor list), so this
// file models the splitting of one span. (The naive kernel's lone-lane
// loads are one 32B sector each; the accountant charges those directly.)

#ifndef EMOGI_SIM_COALESCER_H_
#define EMOGI_SIM_COALESCER_H_

#include <cstdint>

namespace emogi::sim {

using Addr = std::uint64_t;

inline constexpr int kWarpSize = 32;
inline constexpr Addr kSectorBytes = 32;
inline constexpr Addr kCachelineBytes = 128;

// Splits the byte span [begin, end) into sector-rounded,
// cacheline-bounded requests, calling fn(addr, bytes) for each: `bytes`
// is a multiple of kSectorBytes in [32, 128] and [addr, addr+bytes)
// never crosses a cacheline boundary. This is the one definition of the
// splitting arithmetic. The zero-copy accountant
// (core/static_accountant.h) emits the same sequence in straight-line
// form without allocating; tests/test_pcie_model.cc checks it against
// this loop, and this loop against a per-lane sector coalescer.
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

}  // namespace emogi::sim

#endif  // EMOGI_SIM_COALESCER_H_
