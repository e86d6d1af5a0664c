#include "runtime/sweep_runner.h"

namespace emogi::runtime {

void SweepRunner::ForEach(std::size_t count,
                          const std::function<void(std::size_t)>& fn) const {
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads_), count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // The pool's destructor runs every submitted job before joining its
  // workers, and the joins publish the jobs' writes to the caller.
  ThreadPool pool(workers);
  for (std::size_t i = 0; i < count; ++i) pool.Submit([&fn, i] { fn(i); });
}

}  // namespace emogi::runtime
