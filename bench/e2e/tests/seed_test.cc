// e2e_seed: a workload's arrival and source schedules are a pure
// function of the seed -- the same seed gives byte-identical schedules,
// a different seed a different one.

#include <cstdio>
#include <string>
#include <vector>

#include "e2e.h"
#include "graph/datasets.h"

namespace {

int failures = 0;

// a and b come from the same seed, c from another.
void Check(const std::string& what, const std::string& a, const std::string& b,
           const std::string& c) {
  if (a.empty() || a != b) {
    std::fprintf(stderr, "FAIL %s: one seed gave two schedules\n",
                 what.c_str());
    ++failures;
  }
  if (a == c) {
    std::fprintf(stderr, "FAIL %s: two seeds gave one schedule\n",
                 what.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  using emogi::e2e::ScheduleBytes;
  using emogi::e2e::SourcePool;
  for (const emogi::e2e::WorkloadSpec& spec : emogi::e2e::Workloads()) {
    if (!spec.streams.empty()) {
      Check(spec.name + " arrivals", ScheduleBytes(spec, 7, 256),
            ScheduleBytes(spec, 7, 256), ScheduleBytes(spec, 8, 256));
    }
    for (const std::string& symbol : spec.symbols) {
      const emogi::graph::Csr& csr = emogi::graph::LoadOrGenerateDataset(
          symbol, 65536, emogi::graph::DataSource());
      const auto bytes = [&](std::uint64_t seed) {
        const std::vector<emogi::graph::VertexId> pool =
            SourcePool(csr, symbol, spec.pool, seed);
        return std::string(reinterpret_cast<const char*>(pool.data()),
                           pool.size() * sizeof(pool[0]));
      };
      Check(spec.name + " " + symbol + " sources", bytes(7), bytes(7),
            bytes(8));
    }
  }
  if (failures == 0) std::printf("e2e_seed: OK\n");
  return failures == 0 ? 0 : 1;
}
