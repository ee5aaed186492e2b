#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "store/record.hpp"
#include "util/stable_hash.hpp"

namespace pb {

namespace {
/// Latency samples kept per loop (16 MiB of floats); ops past it still
/// count, they only go unsampled.
constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------------ SpanLog

int SpanLog::begin(const char* name, std::uint64_t op,
                   std::int64_t cross_parent) {
  int record = -1;
  if (records_.size() < kMaxRecords) {
    record = static_cast<int>(records_.size());
    SpanRecord r;
    r.name = name;
    r.op = op;
    r.thread = thread_;
    r.cross_parent = cross_parent;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, now_ns(), 0, op, cross_parent, record});
  return static_cast<int>(stack_.size()) - 1;
}

void SpanLog::end(int handle) {
  // Spans are RAII-scoped, so the one ending is always the innermost.
  (void)handle;
  const Open o = stack_.back();
  stack_.pop_back();
  finish(o, now_ns());
}

void SpanLog::finish(const Open& o, std::int64_t end_ns) {
  const std::int64_t dur = end_ns - o.start_ns;
  const std::int64_t self = dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.record >= 0) {
    SpanRecord& r = records_[static_cast<std::size_t>(o.record)];
    r.start_ns = o.start_ns;
    r.end_ns = end_ns;
    r.self_ns = self;
  }
  Agg& a = agg_for(o.name);
  ++a.count;
  a.total_ns += dur;
  a.self_ns += self;
  // Self time on an op's own thread: spans whose outermost ancestor here
  // is a root rather than a fan-out child of another thread's span.
  const bool cross = stack_.empty() ? o.cross_parent >= 0
                                    : stack_.front().cross_parent >= 0;
  if (!cross) root_thread_self_ns_ += self;
}

SpanLog::Agg& SpanLog::agg_for(const char* name) {
  for (auto& [n, a] : agg_) {
    if (n == name || std::strcmp(n, name) == 0) return a;
  }
  agg_.emplace_back(name, Agg{});
  return agg_.back().second;
}

std::int64_t SpanLog::current_global_id() const {
  if (stack_.empty() || stack_.back().record < 0) return -1;
  return (static_cast<std::int64_t>(thread_) << 32) | stack_.back().record;
}

// ------------------------------------------------------------------- Tracer

SpanLog* Tracer::local() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = std::this_thread::get_id();
  if (const auto it = by_thread_.find(id); it != by_thread_.end()) {
    return it->second;
  }
  logs_.push_back(std::make_unique<SpanLog>(static_cast<int>(logs_.size())));
  by_thread_[id] = logs_.back().get();
  return logs_.back().get();
}

std::map<std::string, SpanLog::Agg> Tracer::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanLog::Agg> out;
  for (const auto& log : logs_) {
    for (const auto& [name, a] : log->aggregates()) {
      SpanLog::Agg& m = out[name];
      m.count += a.count;
      m.total_ns += a.total_ns;
      m.self_ns += a.self_ns;
    }
  }
  return out;
}

std::int64_t Tracer::root_thread_self_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (const auto& log : logs_) sum += log->root_thread_self_ns();
  return sum;
}

void Tracer::write_json(const std::string& path,
                        const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  std::uint64_t dropped = 0;
  for (const auto& log : logs_) {
    for (const auto& r : log->records()) origin = std::min(origin, r.start_ns);
    dropped += log->dropped();
  }
  std::fprintf(f, "{\"host\": %s, \"dropped\": %llu, \"spans\": [\n",
               host.c_str(), static_cast<unsigned long long>(dropped));
  bool first = true;
  for (const auto& log : logs_) {
    const auto& recs = log->records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      const std::int64_t id = (static_cast<std::int64_t>(r.thread) << 32) |
                              static_cast<std::int64_t>(i);
      const std::int64_t parent =
          r.parent >= 0 ? ((static_cast<std::int64_t>(r.thread) << 32) |
                           r.parent)
                        : r.cross_parent;
      std::fprintf(f,
                   "%s{\"id\":%lld,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"self_us\":%.3f,\"parent\":%lld,"
                   "\"op\":%llu,\"thread\":%d}",
                   first ? "" : ",\n", static_cast<long long>(id), r.name,
                   static_cast<double>(r.start_ns - origin) / 1e3,
                   static_cast<double>(r.end_ns - origin) / 1e3,
                   static_cast<double>(r.self_ns) / 1e3,
                   static_cast<long long>(parent),
                   static_cast<unsigned long long>(r.op), r.thread);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ------------------------------------------------------------------ Workers

Workers::Workers(int n) {
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { loop(i); });
}

Workers::~Workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Workers::run(const std::function<void(int)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  error_ = nullptr;
  pending_ = size();
  ++generation_;
  cv_.notify_all();
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

void Workers::loop(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr err;
    try {
      (*job)(index);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (err && !error_) error_ = err;
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

// -------------------------------------------------------------- closed loop

LoopStats closed_loop(Workers* workers, double seconds, std::uint64_t count,
                      const std::function<bool(OpCtx&)>& op, Tracer* tracer) {
  const int n = workers != nullptr ? workers->size() : 1;
  // One sample buffer, sized and touched up front, so peak RSS does not
  // follow the number of ops a run happens to complete.
  std::vector<float> lat(kMaxSamples);
  std::atomic<std::size_t> filled{0};
  std::vector<std::uint64_t> fails(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> done(static_cast<std::size_t>(n), 0);
  std::vector<double> busy(static_cast<std::size_t>(n), 0.0);
  std::vector<std::int64_t> last_end(static_cast<std::size_t>(n), 0);
  std::atomic<std::uint64_t> next{0};
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline =
      seconds > 0.0 ? t0 + static_cast<std::int64_t>(seconds * 1e9)
                    : std::numeric_limits<std::int64_t>::max();
  const double cpu0 = process_cpu_s();

  const std::function<void(int)> body = [&](int w) {
    const auto i = static_cast<std::size_t>(w);
    OpCtx ctx;
    ctx.worker = w;
    ctx.log = tracer != nullptr ? tracer->local() : nullptr;
    for (;;) {
      if (now_ns() >= deadline) break;
      const std::uint64_t k = next.fetch_add(1);
      if (count > 0 && k >= count) break;
      ctx.op = k;
      const std::int64_t s = now_ns();
      const bool ok = op(ctx);
      const std::int64_t e = now_ns();
      const std::size_t slot = filled.fetch_add(1);
      if (slot < lat.size()) lat[slot] = static_cast<float>(e - s) / 1e6f;
      ++done[i];
      busy[i] += static_cast<double>(e - s) / 1e9;
      if (!ok) ++fails[i];
      last_end[i] = e;
    }
  };
  if (workers != nullptr) {
    workers->run(body);
  } else {
    body(0);
  }

  LoopStats st;
  st.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  st.cpu_s = process_cpu_s() - cpu0;
  for (std::size_t w = 0; w < static_cast<std::size_t>(n); ++w) {
    st.ops += done[w];
    st.failed += fails[w];
    st.busy_s += busy[w];
    const std::int64_t span = last_end[w] - t0;
    if (span > 0) {
      st.ops_per_s += static_cast<double>(done[w]) /
                      (static_cast<double>(span) / 1e9);
    }
  }
  lat.resize(std::min(filled.load(), lat.size()));
  std::sort(lat.begin(), lat.end());
  st.op_ms = std::move(lat);
  return st;
}

// --------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return sorted_percentile(v, 50.0);
}

double admissible_tail_percentile(std::size_t samples) {
  if (samples <= 10) return 0.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(samples));
}

// ------------------------------------------------------------------ digests

std::uint64_t result_digest(const hm::core::EvaluationResult& r) {
  std::vector<std::uint8_t> bytes;
  hm::store::encode_result(r, bytes);
  return bytes_digest(std::string(bytes.begin(), bytes.end()));
}

std::uint64_t bytes_digest(const std::string& bytes) {
  hm::util::StableHash h;
  h.mix(bytes.size());
  for (const char c : bytes) h.mix(static_cast<unsigned char>(c));
  return h.value();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace pb
