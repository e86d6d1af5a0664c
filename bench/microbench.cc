// google-benchmark microbenchmarks for the simulator's hot paths: the
// coalescer, the page table, the traffic accountants, and a full BFS.

#include <benchmark/benchmark.h>

#include "core/static_accountant.h"
#include "core/traversal.h"
#include "graph/generators.h"
#include "sim/coalescer.h"
#include "uvm/page_table.h"

namespace emogi {
namespace {

void BM_CoalesceSpan(benchmark::State& state) {
  const sim::Addr span = static_cast<sim::Addr>(state.range(0));
  std::vector<sim::Transaction> out;
  for (auto _ : state) {
    out.clear();
    sim::Coalescer::CoalesceSpan(24, 24 + span, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(span));
}
BENCHMARK(BM_CoalesceSpan)->Arg(256)->Arg(1024)->Arg(16384);

void BM_CoalesceLanes(benchmark::State& state) {
  sim::Addr lanes[sim::kWarpSize];
  for (int i = 0; i < sim::kWarpSize; ++i) lanes[i] = 32 + i * 8;
  std::vector<sim::Transaction> out;
  for (auto _ : state) {
    out.clear();
    sim::Coalescer::CoalesceLanes(lanes, sim::kFullLaneMask, 8, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CoalesceLanes);

void BM_PageTableTouch(benchmark::State& state) {
  const std::uint64_t pages = 1 << 16;
  uvm::PageTable table(pages, pages / 2);
  graph::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Touch(rng.Below(pages)));
  }
}
BENCHMARK(BM_PageTableTouch);

void BM_ZeroCopyScan(benchmark::State& state) {
  core::StaticZeroCopyAccountant<core::AccessMode::kMergedAligned> accountant(
      core::EmogiConfig::MergedAligned(), /*managed_bytes=*/0);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    accountant.OnListScan(4096, offset, offset + 38, 8);
    offset += 38;
    if (offset > (1u << 20)) {
      offset = 0;
      accountant.CloseKernel(1u << 20);
    }
  }
}
BENCHMARK(BM_ZeroCopyScan);

void BM_BfsMergedAligned(benchmark::State& state) {
  const graph::Csr csr =
      graph::GenerateUniformRandom(1 << state.range(0), 16, 42);
  core::EmogiConfig config = core::EmogiConfig::MergedAligned();
  for (auto _ : state) {
    core::Traversal traversal(csr, config);
    benchmark::DoNotOptimize(traversal.Bfs(0).stats.total_time_ns);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csr.num_edges()));
}
BENCHMARK(BM_BfsMergedAligned)->Arg(12)->Arg(14);

void BM_BfsUvm(benchmark::State& state) {
  const graph::Csr csr =
      graph::GenerateUniformRandom(1 << state.range(0), 16, 42);
  core::EmogiConfig config = core::EmogiConfig::Uvm();
  for (auto _ : state) {
    core::Traversal traversal(csr, config);
    benchmark::DoNotOptimize(traversal.Bfs(0).stats.total_time_ns);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csr.num_edges()));
}
BENCHMARK(BM_BfsUvm)->Arg(12)->Arg(14);

}  // namespace
}  // namespace emogi

BENCHMARK_MAIN();
