// Fans an indexed batch of independent jobs (one simulated traversal per
// source, each with its own cold accountant) across a worker pool.
// Results are placed by index, so the output order -- and therefore
// every printed figure -- is identical at any thread count; only wall
// time changes. Jobs must be independent pure functions of their index
// and must not throw.

#ifndef EMOGI_RUNTIME_SWEEP_RUNNER_H_
#define EMOGI_RUNTIME_SWEEP_RUNNER_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.h"

namespace emogi::runtime {

class SweepRunner {
 public:
  // `threads` <= 0 picks the hardware default.
  explicit SweepRunner(int threads) : threads_(ResolveThreadCount(threads)) {}

  // Runs fn(0), ..., fn(count - 1) and returns their results in index
  // order. The pool is sized min(threads, count) per call -- a 4-source
  // sweep never spawns more than 4 workers -- and a single-worker batch
  // runs inline on the calling thread (no pool at all).
  template <typename Fn>
  auto Run(std::size_t count, Fn fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using Result = std::invoke_result_t<Fn&, std::size_t>;
    // Workers write disjoint indices with no lock, which needs real
    // elements: vector<bool> packs bits and adjacent writes would race.
    static_assert(!std::is_same_v<Result, bool>,
                  "SweepRunner::Run cannot return bool; wrap it in a struct");
    std::vector<Result> results(count);
    ForEach(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  // Calls fn(0), ..., fn(count - 1) and returns once every call has
  // returned, with their writes visible to the caller.
  void ForEach(std::size_t count,
               const std::function<void(std::size_t)>& fn) const;

  int threads_;
};

}  // namespace emogi::runtime

#endif  // EMOGI_RUNTIME_SWEEP_RUNNER_H_
