#include "explore/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "noc/arena.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::explore {

/// One batch of jobs. Threads claim jobs by atomically bumping `next`; the
/// batch is done when `done` reaches the job count. The first exception is
/// captured and rethrown by the thread that issued the batch.
///
/// `jobs` points at memory owned by the run_batch caller, which may be gone
/// the moment every job has finished (run_batch returns and its caller's
/// vector goes out of scope while a straggler worker still holds this Batch
/// via shared_ptr). `size` is therefore a plain copy, and `jobs` is only
/// dereferenced after a successful claim (i < size) — a claimed job cannot
/// have been counted done, so run_batch is still blocked and the vector is
/// still alive.
struct ThreadPool::Batch {
  explicit Batch(std::vector<std::function<void()>>& j)
      : jobs(&j), size(j.size()) {}

  std::vector<std::function<void()>>* jobs;
  const std::size_t size;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure, guarded by mu
};

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

// HM_HOT: every sweep/search/saturation job funnels through here —
// job claim and completion accounting must not allocate or throw
// (the jobs themselves may; the catch block only captures).
void ThreadPool::drain(Batch& batch) {
  const std::size_t n = batch.size;
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    static telemetry::Counter jobs_run("pool.jobs_run");
    jobs_run.add();
    try {
      telemetry::Span span("pool.job");
      (*batch.jobs)[i]();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(batch.mu);
      if (!batch.error) batch.error = std::current_exception();
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      const std::lock_guard<std::mutex> lock(batch.mu);
      batch.cv.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      telemetry::Span idle_span("pool.idle");
      cv_.wait(lock, [this] { return stop_ || !open_batches_.empty(); });
      if (stop_) {
        // Release this worker's cached simulation networks: after the pool
        // dies nothing can reuse them, and dropping the leases also lets
        // the weak-ptr TopologyContext intern cache free shared tables.
        noc::SimulationArena::local().clear();
        return;
      }
      batch = open_batches_.front();
      if (batch->next.load(std::memory_order_relaxed) >= batch->size) {
        // Exhausted batch still waiting for in-flight jobs; retire it from
        // the help queue and look again.
        open_batches_.pop_front();
        continue;
      }
    }
    drain(*batch);
  }
}

void ThreadPool::run_batch(std::vector<std::function<void()>>& jobs) {
  if (jobs.empty()) return;
  if (workers_.empty() || jobs.size() == 1) {
    // Sequential baseline; exceptions propagate. Same job accounting as
    // drain() so pool.jobs_run means "jobs the pool executed" at any
    // thread count, not "jobs that went through a Batch".
    // HM_LINT allow(telemetry-name): deliberate alias of drain()'s counter —
    // the inline path must feed the same pool.jobs_run slot
    static telemetry::Counter jobs_run("pool.jobs_run");
    for (auto& job : jobs) {
      jobs_run.add();
      telemetry::Span span("pool.job");
      job();
    }
    return;
  }

  auto batch = std::make_shared<Batch>(jobs);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    open_batches_.push_back(batch);
  }
  cv_.notify_all();

  drain(*batch);  // the issuing thread always helps with its own batch

  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->size;
    });
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::erase(open_batches_, batch);
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace hm::explore
