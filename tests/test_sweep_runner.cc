// The runtime layer must be a pure speedup: the thread pool runs every
// submitted task, and a SweepRunner fan-out returns results in index
// order with per-source TraversalStats identical at any thread count
// (each run owns a cold accountant, so nothing is shared).

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/traversal.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace emogi {
namespace {

void CheckStatsIdentical(const core::TraversalStats& a,
                         const core::TraversalStats& b) {
  // One shared exact-equality definition (core/stats.cc) backs every
  // parity/determinism gate, so new fields are checked everywhere.
  CHECK(a == b);
}

void TestThreadPoolRunsEverything() {
  std::atomic<int> done{0};
  {
    runtime::ThreadPool pool(4);
    CHECK(pool.thread_count() == 4);
    for (int i = 0; i < 256; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destruction finishes the queue before joining.
  }
  CHECK(done.load() == 256);
}

void TestResolveThreadCount() {
  CHECK(runtime::ResolveThreadCount(7) == 7);
  CHECK(runtime::ResolveThreadCount(0) >= 1);
  CHECK(runtime::ResolveThreadCount(-3) == runtime::ResolveThreadCount(0));
}

void TestRunnerOrdering() {
  runtime::SweepRunner runner(4);
  const std::vector<std::size_t> out =
      runner.Run(100, [](std::size_t i) { return i * i; });
  CHECK(out.size() == 100);
  for (std::size_t i = 0; i < out.size(); ++i) CHECK(out[i] == i * i);
  runtime::SweepRunner empty_ok(4);
  CHECK(empty_ok.Run(0, [](std::size_t i) { return i; }).empty());
}

// The degenerate cases must stay inline: a single-thread runner and a
// one-job batch on a wider runner both execute every job on the calling
// thread, spawning nothing (EMOGI_THREADS=1 pays no pool overhead and is
// single-threaded under TSan by construction).
void TestSingleWorkerRunsInline() {
  const std::thread::id caller = std::this_thread::get_id();
  const auto thread_id = [](std::size_t) { return std::this_thread::get_id(); };

  for (const std::thread::id id : runtime::SweepRunner(1).Run(8, thread_id)) {
    CHECK(id == caller);
  }
  const std::vector<std::thread::id> one_job =
      runtime::SweepRunner(4).Run(1, thread_id);
  CHECK(one_job.size() == 1 && one_job[0] == caller);
}

// A pooled Run publishes every write its jobs made, not only their
// results, to the caller once it returns.
void TestRunnerPublishesWrites() {
  std::vector<std::size_t> side(100, 0);
  runtime::SweepRunner(4).Run(100, [&](std::size_t i) {
    side[i] = i * i;
    return i;
  });
  for (std::size_t i = 0; i < side.size(); ++i) CHECK(side[i] == i * i);
}

// The process-lifetime dataset cache must serve concurrent workers: all
// callers of one (symbol, scale) key get the same cached instance.
void TestConcurrentDatasetCache() {
  runtime::SweepRunner runner(4);
  const std::vector<const graph::Csr*> csrs =
      runner.Run(8, [](std::size_t i) {
        return &graph::LoadOrGenerateDataset(i % 2 ? "GK" : "GU", 16384);
      });
  for (std::size_t i = 2; i < csrs.size(); ++i) CHECK(csrs[i] == csrs[i - 2]);
}

void TestSweepDeterminism() {
  const graph::Csr csr = graph::GenerateUniformRandom(1 << 12, 24, 7);
  const auto sources = graph::PickSources(csr, 8);

  for (core::EmogiConfig config :
       {core::EmogiConfig::Uvm(), core::EmogiConfig::Naive(),
        core::EmogiConfig::MergedAligned()}) {
    config.device.scale_factor = 1 << 14;  // Out-of-memory regime.
    const core::Traversal traversal(csr, config);

    const auto bfs_serial = traversal.BfsSweep(sources, 1);
    const auto bfs_pooled = traversal.BfsSweep(sources, 4);
    CHECK(bfs_serial.size() == sources.size());
    CHECK(bfs_pooled.size() == sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      CheckStatsIdentical(bfs_serial[i], bfs_pooled[i]);
    }

    const auto sssp_serial = traversal.SsspSweep(sources, 1);
    const auto sssp_pooled = traversal.SsspSweep(sources, 4);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      CheckStatsIdentical(sssp_serial[i], sssp_pooled[i]);
    }
  }
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestThreadPoolRunsEverything();
  emogi::TestResolveThreadCount();
  emogi::TestRunnerOrdering();
  emogi::TestSingleWorkerRunsInline();
  emogi::TestRunnerPublishesWrites();
  emogi::TestConcurrentDatasetCache();
  emogi::TestSweepDeterminism();
  std::printf("test_sweep_runner: OK\n");
  return 0;
}
