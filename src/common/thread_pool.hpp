// A fixed pool of std::jthread workers draining a FIFO work queue, used
// by the design-space sweep engine (sim::Sweep, one job per
// configuration point) and fault campaigns (one job per experiment).
// Those jobs last milliseconds to seconds; the manycore engine's ~50 µs
// quantum rounds use its own persistent round workers instead
// (core/manycore.hpp).
// Destroying the pool stops the workers after their current job; jobs
// still queued are abandoned (call wait_idle() first to drain).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mbcosim {

class ThreadPool {
 public:
  /// `threads` == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job);
  /// Block until the queue is empty and every worker is idle.
  void wait_idle();
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void work(std::stop_token token);

  std::mutex mutex_;
  std::condition_variable_any wake_;   ///< workers wait here for jobs
  std::condition_variable idle_;       ///< wait_idle() waits here
  std::deque<std::function<void()>> queue_;
  unsigned running_ = 0;
  std::vector<std::jthread> workers_;  ///< last member: joins first
};

}  // namespace mbcosim
