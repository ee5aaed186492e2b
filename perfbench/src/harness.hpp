// Workload-independent pieces of the benchmark: a fixed set of
// worker threads, the closed-loop op runner, the in-memory span tracer,
// summary statistics and result digests.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"

namespace pb {

/// Monotonic nanoseconds since an arbitrary process-wide origin.
[[nodiscard]] std::int64_t now_ns();

/// Process user+system CPU seconds and peak resident set size.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------------ tracing

/// One finished span. `parent` indexes the same SpanLog's records, or is
/// -1 for a root; `cross_parent` names a parent recorded on another thread
/// (a candidate evaluation fanned out from a search step), else -1.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;  ///< duration minus same-thread children
  int parent = -1;
  std::int64_t cross_parent = -1;
  std::uint64_t op = 0;
  int thread = 0;
};

/// Per-thread span recorder. Spans nest strictly on one thread, so self
/// time is the duration minus the time of the spans opened inside it.
/// Records are kept in memory (up to kMaxRecords; aggregates keep counting
/// past the cap) and written out by Tracer::write_json at exit.
class SpanLog {
 public:
  static constexpr std::size_t kMaxRecords = 50000;

  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanLog(int thread) : thread_(thread) {}

  /// Opens a span; returns its handle for end().
  int begin(const char* name, std::uint64_t op,
            std::int64_t cross_parent = -1);
  void end(int handle);

  /// Global id of the innermost open span (for cross-thread parents).
  [[nodiscard]] std::int64_t current_global_id() const;

  /// Per-name totals, keyed by the span-name literal.
  [[nodiscard]] const std::vector<std::pair<const char*, Agg>>& aggregates()
      const {
    return agg_;
  }
  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Self time of every span that ran on its op's own thread.
  [[nodiscard]] std::int64_t root_thread_self_ns() const noexcept {
    return root_thread_self_ns_;
  }

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t op;
    std::int64_t cross_parent;
    int record;  ///< index into records_ or -1 past the cap
  };
  void finish(const Open& o, std::int64_t end_ns);
  Agg& agg_for(const char* name);

  int thread_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> records_;
  std::vector<std::pair<const char*, Agg>> agg_;  ///< few names: linear
  std::uint64_t dropped_ = 0;
  std::int64_t root_thread_self_ns_ = 0;
};

/// RAII span; a null log makes it a no-op (the untraced path).
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t op,
       std::int64_t cross_parent = -1)
      : log_(log),
        handle_(log != nullptr ? log->begin(name, op, cross_parent) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->end(handle_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int handle_;
};

/// Owns one SpanLog per thread that records (threads register lazily).
class Tracer {
 public:
  /// The calling thread's log (created on first use).
  SpanLog* local();
  /// Sum of every thread's aggregates.
  [[nodiscard]] std::map<std::string, SpanLog::Agg> merged() const;
  /// Sum over root spans of (self time of every span on the root's
  /// thread) — by strict nesting, the traced wall time of the ops.
  [[nodiscard]] std::int64_t root_thread_self_ns() const;
  /// {"spans": [...], "dropped": n} with name/start/end/parent/op/thread.
  void write_json(const std::string& path, const std::string& host) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::map<std::thread::id, SpanLog*> by_thread_;
};

// ----------------------------------------------------------------- workers

/// A fixed set of threads that each run the same function, used for both
/// per-worker set-up (arena warm-up must happen on the thread that later
/// evaluates) and the closed measurement loop. Thread count is explicit —
/// never hardware_concurrency().
class Workers {
 public:
  explicit Workers(int n);
  ~Workers();
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(threads_.size());
  }
  /// Runs fn(worker_index) on every worker; returns when all are done.
  /// The first exception thrown is rethrown here.
  void run(const std::function<void(int)>& fn);

 private:
  void loop(int index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

/// Context of one op: which worker runs it, its index in the workload's
/// deterministic op sequence, and the span log when tracing.
struct OpCtx {
  int worker = 0;
  std::uint64_t op = 0;
  SpanLog* log = nullptr;
};

/// Outcome of one closed measurement loop.
struct LoopStats {
  std::vector<float> op_ms;   ///< op latencies, ascending
  std::uint64_t ops = 0;      ///< ops completed
  std::uint64_t failed = 0;   ///< ops whose output check failed
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double busy_s = 0.0;        ///< summed op time over all workers
  /// Closed-loop throughput: the sum over workers of ops / (loop start to
  /// that worker's last completion), so a straggling last op on one worker
  /// does not dilute the rate of the others.
  double ops_per_s = 0.0;
};

/// Closed loop: every worker claims the next op index and runs it until
/// `seconds` have passed (seconds > 0) or `count` ops were claimed
/// (count > 0). `op` returns false when the op's output check failed.
/// `workers == nullptr` runs on the calling thread.
LoopStats closed_loop(Workers* workers, double seconds, std::uint64_t count,
                      const std::function<bool(OpCtx&)>& op,
                      Tracer* tracer = nullptr);

// -------------------------------------------------------------- statistics

/// Linear-interpolated percentile (q in [0, 100]) of ascending samples.
template <typename T>
[[nodiscard]] double sorted_percentile(const std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         static_cast<double>(v[hi] - v[lo]) * frac;
}
[[nodiscard]] double median(std::vector<double> v);
/// Highest percentile with at least ten samples beyond it.
[[nodiscard]] double admissible_tail_percentile(std::size_t samples);

// ----------------------------------------------------------------- digests

/// Stable digest of an EvaluationResult (its store codec bytes).
[[nodiscard]] std::uint64_t result_digest(const hm::core::EvaluationResult& r);
[[nodiscard]] std::uint64_t bytes_digest(const std::string& bytes);
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace pb
