// Span-splitting unit tests for sim::ForEachSpanRequest: sector
// rounding, cacheline splitting, and the alignment monotonicity the
// model's conclusions rest on.

#include <cstdio>
#include <vector>

#include "sim/coalescer.h"
#include "test_util.h"

namespace emogi {
namespace {

using sim::Addr;

struct Request {
  Addr addr = 0;
  std::uint32_t bytes = 0;
};

std::vector<Request> SplitSpan(Addr begin, Addr end) {
  std::vector<Request> out;
  sim::ForEachSpanRequest(begin, end, [&out](Addr addr, std::uint32_t bytes) {
    out.push_back({addr, bytes});
  });
  return out;
}

std::uint64_t TotalBytes(const std::vector<Request>& requests) {
  std::uint64_t total = 0;
  for (const Request& r : requests) total += r.bytes;
  return total;
}

void CheckWellFormed(const std::vector<Request>& requests) {
  for (const Request& r : requests) {
    CHECK(r.bytes >= 32 && r.bytes <= 128);
    CHECK(r.bytes % 32 == 0);
    CHECK(r.addr % 32 == 0);
    // Never crosses a cacheline boundary.
    CHECK(r.addr / 128 == (r.addr + r.bytes - 1) / 128);
  }
}

void TestSpanAligned() {
  const std::vector<Request> out = SplitSpan(0, 256);
  CHECK(out.size() == 2);
  CHECK(out[0].bytes == 128 && out[1].bytes == 128);
  CheckWellFormed(out);
}

void TestSpanMisaligned() {
  // The paper's 32B+96B split: a 256B window starting one sector past a
  // cacheline boundary covers 3 lines as 96 + 128 + 32.
  const std::vector<Request> out = SplitSpan(32, 288);
  CHECK(out.size() == 3);
  CHECK(out[0].bytes == 96);
  CHECK(out[1].bytes == 128);
  CHECK(out[2].bytes == 32);
  CheckWellFormed(out);
}

void TestSpanSubSector() {
  // An 8-byte read still costs a full sector.
  std::vector<Request> out = SplitSpan(8, 16);
  CHECK(out.size() == 1);
  CHECK(out[0].bytes == 32);
  // A read straddling a sector boundary costs both sectors (merged into
  // one 64B request within the cacheline).
  out = SplitSpan(28, 36);
  CHECK(out.size() == 1);
  CHECK(TotalBytes(out) == 64);
  CheckWellFormed(out);
}

void TestAlignmentMonotonicity() {
  // More coalescing opportunity => fewer requests: an aligned span
  // never takes more requests than any misaligned placement of the same
  // length.
  for (const Addr length : {96ull, 256ull, 1000ull, 4096ull}) {
    const std::size_t aligned = SplitSpan(0, length).size();
    for (Addr shift = 8; shift < 128; shift += 8) {
      CHECK(aligned <= SplitSpan(shift, shift + length).size());
    }
  }
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestSpanAligned();
  emogi::TestSpanMisaligned();
  emogi::TestSpanSubSector();
  emogi::TestAlignmentMonotonicity();
  std::printf("test_coalescer: OK\n");
  return 0;
}
