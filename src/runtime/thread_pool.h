// Fixed-size worker pool with a FIFO task queue. Workers drain the queue
// until the pool is destroyed; destruction finishes every task already
// submitted before joining. Tasks must not throw. Built only by
// runtime::SweepRunner (per batch of jobs) and net::Listener (its wave
// workers).

#ifndef EMOGI_RUNTIME_THREAD_POOL_H_
#define EMOGI_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace emogi::runtime {

// `threads` <= 0 picks the hardware default (hardware_concurrency,
// clamped >= 1).
int ResolveThreadCount(int threads);

class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace emogi::runtime

#endif  // EMOGI_RUNTIME_THREAD_POOL_H_
