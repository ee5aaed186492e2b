// Work-sharing thread pool for the design-space exploration engine.
//
// The pool executes *batches*: run_batch() blocks until every job of the
// batch has run exactly once. The calling thread always participates in its
// own batch, which gives two properties the sweep engine relies on:
//   * nested batches cannot deadlock — a pool thread that issues a batch of
//     its own (e.g. a job whose evaluate() speculates saturation probes
//     through the same pool) drains that batch itself even when every
//     worker is busy, and
//   * ThreadPool(1) degenerates to plain sequential execution, the baseline
//     that multi-threaded sweeps must reproduce bit for bit.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "noc/simulator.hpp"

namespace hm::explore {

/// Fixed-size pool; implements noc::ProbeExecutor so the same pool that
/// fans designs out across cores also parallelizes the probes inside one
/// design evaluation.
class ThreadPool final : public noc::ProbeExecutor {
 public:
  /// `threads` is the total concurrency including the caller of
  /// run_batch(): the pool spawns threads-1 workers. 0 means
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  [[nodiscard]] unsigned thread_count() const noexcept { return threads_; }

  /// Runs every job exactly once and returns when all have finished. Jobs
  /// are claimed in index order, so with thread_count() == 1 this is a
  /// plain sequential loop. The first exception a job throws is rethrown
  /// here after the batch has drained.
  void run_batch(std::vector<std::function<void()>>& jobs) override;

 private:
  struct Batch;

  void worker_loop();
  static void drain(Batch& batch);

  unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> open_batches_;
  bool stop_ = false;
};

}  // namespace hm::explore
