// Workloads (all closed loops; thread counts fixed, never derived from the
// host):
//
//   fig7-sat        saturation-only core::evaluate of grid / brickwall /
//                   HexaMesh at N=37 over a fixed set of simulator seeds in
//                   seeded order, no result cache; 2 workers. Busy-network
//                   probes.
//   search-latency  a SearchEngine (anneal, 4 candidates/step) search, then
//                   a TemperingEngine (K=2, 2 candidates/step) search, on
//                   the zero-load-latency objective from HexaMesh N=37, pool
//                   threads 2, fresh engines and a fresh seed per op. One op
//                   is both 4-step searches (4 latency-only evaluations per
//                   step). The traced run measures the anneal searches only.
//   analytic-scale  core::evaluate_analytic over every grid / brickwall /
//                   HexaMesh arrangement of N = 2..640, in seeded
//                   random order, each graph at most once per process (the
//                   evaluator memoizes bisections process-wide); 1 thread.
//   server-warm     in-process server::Server (2 pool threads, a store
//                   directory) driven over a Unix socket by 2 client
//                   connections; every request hits the warm cache.
//
// End-to-end metrics (untraced run): setup_s (median of several cold
// set-ups), ops_per_s, op_p50_ms, op_p90_ms, cpu_ms_per_op, peak_rss_mb.
// Failed or refused ops are reported as `failed` of `attempted`.
//
// Per-layer metrics (traced run, telemetry counters enabled): every op
// index runs twice, untraced and traced (spans from the mirrors in
// mirror.cpp), so traced and untraced time cover identical work under the
// same host conditions. Span-time metrics are the layer's time per traced
// op (per set-up for set-up layers); counts come from the seed-independent
// reference check and repeat exactly.
#include "workloads.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/cached_eval.hpp"
#include "explore/result_cache.hpp"
#include "mirror.hpp"
#include "noc/rng.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "search/search.hpp"
#include "search/tempering.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stable_hash.hpp"

namespace pb {
namespace {

namespace core = hm::core;
namespace noc = hm::noc;
namespace search = hm::search;
namespace srv = hm::server;

constexpr int kWorkers = 2;

const std::array<core::ArrangementType, 3> kFamilies = {
    core::ArrangementType::kGrid, core::ArrangementType::kBrickwall,
    core::ArrangementType::kHexaMesh};

const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"core.make_arrangement_ms", "ms"},
    {"core.evaluate_analytic_ms", "ms"},
    {"graph.distance_ms", "ms"},
    {"partition.bisection_ms", "ms"},
    {"noc.topology_acquire_ms", "ms"},
    {"noc.arena_reuse_ratio", "ratio"},
    {"noc.sat_search_ms", "ms"},
    {"noc.sat_probes", "count"},
    {"noc.router_steps", "count"},
    {"noc.idle_skipped_cycles", "count"},
    {"noc.flits_routed", "count"},
    {"noc.ns_per_router_step", "ns"},
    {"noc.latency_run_ms", "ms"},
    {"noc.topology_rebuild_ms", "ms"},
    {"noc.incremental_builds", "count"},
    {"noc.full_builds", "count"},
    {"noc.rows_reused", "count"},
    {"search.propose_us", "us"},
    {"search.evals_per_step", "count"},
    {"explore.pool_busy_ratio", "ratio"},
    {"explore.cache_hit_ratio", "ratio"},
    {"explore.cached_evaluate_hit_us", "us"},
    {"store.open_ms", "ms"},
    {"store.flush_ms", "ms"},
    {"store.records", "count"},
    {"server.codec_us", "us"},
    {"server.transport_us", "us"},
    {"server.requests_per_batch", "count"},
    {"server.rejects", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.self_time_ratio", "ratio"},
};

// ---------------------------------------------------------------- helpers

using Counters = std::map<std::string, std::uint64_t>;

Counters counters() { return hm::telemetry::snapshot().counters; }

/// Sum of (after - before) over counters named prefix*suffix.
double delta(const Counters& before, const Counters& after,
             const std::string& prefix, const std::string& suffix = "") {
  double sum = 0.0;
  for (const auto& [name, v] : after) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const auto it = before.find(name);
    sum += static_cast<double>(v - (it == before.end() ? 0 : it->second));
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Seeded Fisher-Yates over 0..n-1 (portable, unlike std::shuffle).
std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[noc::derive_seed(seed, i) % i]);
  }
  return order;
}

using Aggs = std::map<std::string, SpanLog::Agg>;

/// Total time of span `name`, in `scale` units (1e6 = ms), divided by `per`.
double span_per(const Aggs& aggs, const char* name, double per, double scale) {
  const auto it = aggs.find(name);
  if (it == aggs.end() || per <= 0.0) return 0.0;
  return static_cast<double>(it->second.total_ns) / scale / per;
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  Aggs setup;        ///< set-up spans over all repetitions
  int setup_reps = 0;
  Aggs ops;          ///< spans of the traced executions
  LoopStats loop;    ///< the closed loop (each op index run twice)
  double traced_ops = 0.0;     ///< ops run traced
  double traced_s = 0.0;       ///< their summed time
  double untraced_ops = 0.0;   ///< the same ops run untraced
  double untraced_s = 0.0;
  Counters b0, b1;   ///< telemetry around the loop (both executions)
  Counters r0, r1;   ///< telemetry around the reference check
};

/// Runs one op index twice, untraced and traced, alternating which goes
/// first so neither execution systematically inherits the other's warm
/// state; both see the same host conditions, which makes the traced/
/// untraced comparison robust to slow phases of a shared machine.
class PairedOp {
 public:
  template <typename Op>
  bool run(OpCtx& ctx, const Op& op) {
    OpCtx half = ctx;
    bool ok = true;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (ctx.op % 2 == 1);
      half.log = traced ? ctx.log : nullptr;
      const std::int64_t t0 = now_ns();
      ok = op(half) && ok;
      const double dt = static_cast<double>(now_ns() - t0) / 1e9;
      std::lock_guard<std::mutex> lock(mu_);
      (traced ? traced_s_ : untraced_s_) += dt;
      (traced ? traced_ops_ : untraced_ops_) += 1.0;
    }
    return ok;
  }

  void fill(LayerInputs& in) {
    std::lock_guard<std::mutex> lock(mu_);
    in.traced_ops = traced_ops_;
    in.traced_s = traced_s_;
    in.untraced_ops = untraced_ops_;
    in.untraced_s = untraced_s_;
  }

 private:
  std::mutex mu_;
  double traced_ops_ = 0.0, traced_s_ = 0.0;
  double untraced_ops_ = 0.0, untraced_s_ = 0.0;
};

using Values = std::map<std::string, double>;

/// Counts of the simulator layers over the reference check (exact: the
/// reference inputs do not depend on the seed or on timing).
void reference_sim_counts(const LayerInputs& in, Values& v) {
  v["noc.sat_probes"] = delta(in.r0, in.r1, "sat.probes");
  v["noc.router_steps"] = delta(in.r0, in.r1, "sim.router_steps");
  v["noc.idle_skipped_cycles"] = delta(in.r0, in.r1, "sim.idle_skipped_cycles");
  v["noc.flits_routed"] = delta(in.r0, in.r1, "sim.flits_routed");
}

double arena_reuse(const Counters& c0, const Counters& c1) {
  const double reused = delta(c0, c1, "arena.networks_reused");
  return ratio(reused, reused + delta(c0, c1, "arena.networks_built") +
                           delta(c0, c1, "arena.oneoff_networks"));
}

/// The traced run executes every op twice, traced and untraced: the first
/// execution records the op's output digest, the second must reproduce it.
/// Untraced runs never call it.
class DigestLog {
 public:
  bool record_or_compare(std::uint64_t op, std::uint64_t d) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, first] = digests_.emplace(op, d);
    if (first) return true;
    const bool same = it->second == d;
    digests_.erase(it);
    return same;
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> digests_;
};

std::uint64_t expected_digest(const Env& env, const std::string& key,
                              std::vector<std::string>* problems) {
  const auto it = env.expected.find(key);
  if (it == env.expected.end()) {
    if (problems != nullptr) problems->push_back("no expected digest: " + key);
    return 0;
  }
  return std::stoull(it->second, nullptr, 16);
}

void check_digest(const Env& env, const std::string& key, std::uint64_t got,
                  Report& rep) {
  const std::uint64_t want = expected_digest(env, key, &rep.problems);
  if (want != 0 && want != got) {
    rep.problems.push_back(key + ": digest " + hex64(got) + " != expected " +
                           hex64(want));
  }
}

void report_missing(const std::vector<std::string>& missing, Report& rep) {
  if (!missing.empty()) {
    rep.problems.push_back(missing.front() + " (and " +
                           std::to_string(missing.size() - 1) + " more)");
  }
}

// --------------------------------------------------------------- Workload

class Workload {
 public:
  explicit Workload(const Env& env) : env_(env) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Cold set-up; run_workload calls teardown() first, so every repetition
  /// pays the full cost.
  virtual void setup(SpanLog* log) = 0;
  virtual void teardown() {}
  /// Threads of the closed loop (nullptr = the calling thread).
  virtual Workers* workers() { return nullptr; }
  /// Cold set-ups per run; setup_s is their median. Set-ups of tens of
  /// milliseconds repeat more often, as their median moves more between
  /// runs.
  [[nodiscard]] virtual int setup_reps() const { return 15; }
  /// Upper bound on op indices (0 = unbounded).
  [[nodiscard]] virtual std::uint64_t unit_limit() const { return 0; }
  /// One op; traced when ctx.log != nullptr. False = output check failed.
  virtual bool op(OpCtx& ctx) = 0;
  /// Called just before and just after the traced closed loop.
  virtual void around_traced_loop(bool starting) { (void)starting; }
  /// Seed-independent output check after the timed loop.
  virtual void reference_check(bool traced, Report& rep) = 0;
  virtual void layer_metrics(const LayerInputs& in, Values& v) = 0;
  /// "key hex" lines of this workload's reference digests.
  virtual void print_expected() = 0;

  void set_tracer(Tracer* t) { tracer_ = t; }

 protected:
  const Env& env_;
  Tracer* tracer_ = nullptr;
  DigestLog digests_;
};

// --------------------------------------------------------------- fig7-sat

class Fig7Sat final : public Workload {
 public:
  static constexpr std::size_t kN = 37;
  /// The op set: every family with each of kPoolSeeds simulator seeds.
  /// Probe counts, and so op cost, vary a lot with the simulator seed; a
  /// fixed op set keeps the simulated work equal across runs, and --seed
  /// orders it (a fresh permutation per pass over the set).
  static constexpr std::size_t kPoolSeeds = 16;
  static constexpr std::size_t kPool = 3 * kPoolSeeds;
  static constexpr std::uint64_t kPoolBase = 20230717;
  static constexpr std::uint64_t kReferenceSeed = 20230718;

  explicit Fig7Sat(const Env& env) : Workload(env) {
    base_.measure_latency = false;
    base_.measure_saturation = true;
    base_.throughput_warmup = 500;
    base_.throughput_measure = 500;
    for (std::size_t pick = 0; pick < kPool; ++pick) {
      expected_.push_back(expected_digest(env_, key(pick), &missing_));
    }
  }

  void teardown() override {
    workers_.reset();  // thread-local arenas die with their threads
    ctx_.clear();      // ... and with them the last topology references
    arrs_.clear();
  }

  void setup(SpanLog* log) override {
    workers_ = std::make_unique<Workers>(kWorkers);
    for (const auto f : kFamilies) {
      Span s(log, "core.make_arrangement", 0);
      arrs_.push_back(core::make_arrangement(f, kN));
    }
    for (const auto& arr : arrs_) {
      Span s(log, "noc.topology_acquire", 0);
      ctx_.push_back(noc::TopologyContext::acquire(arr.graph()));
    }
    // One throwaway probe per graph per worker leases (builds) the
    // network each worker's arena will recycle for every later probe.
    Span s(log, "noc.arena_warmup", 0);
    workers_->run([&](int) {
      for (const auto& ctx : ctx_) {
        noc::Simulator sim(noc::SimulationArena::local(), ctx, base_.sim);
        (void)sim.run_throughput(0.05, base_.throughput_warmup,
                                 base_.throughput_measure);
      }
    });
  }

  Workers* workers() override { return workers_.get(); }

  core::EvaluationResult evaluate(std::size_t family, std::uint64_t sim_seed,
                                  SpanLog* log, std::uint64_t op,
                                  bool traced) {
    core::EvaluationParams p = base_;
    p.sim.seed = sim_seed;
    if (!traced) {
      return core::evaluate(arrs_[family], p, traffic_, nullptr,
                            ctx_[family]);
    }
    Span root(log, "core.evaluate", op);
    return mirror_evaluate(arrs_[family], p, traffic_, ctx_[family], memo_,
                           log, op);
  }

  static std::string key(std::size_t pick) {
    return "fig7-sat." + core::to_string(kFamilies[pick % kFamilies.size()]) +
           "." + std::to_string(pick / kFamilies.size());
  }

  core::EvaluationResult evaluate_pick(std::size_t pick, SpanLog* log,
                                       std::uint64_t op) {
    return evaluate(pick % kFamilies.size(), noc::derive_seed(kPoolBase, pick),
                    log, op, log != nullptr);
  }

  bool op(OpCtx& ctx) override {
    const std::size_t pick = seeded_permutation(
        kPool, noc::derive_seed(env_.seed, ctx.op / kPool))[ctx.op % kPool];
    return result_digest(evaluate_pick(pick, ctx.log, ctx.op)) ==
           expected_[pick];
  }

  std::uint64_t reference_digest(bool traced) {
    std::array<std::uint64_t, 3> d{};
    workers_->run([&](int w) {
      for (std::size_t f = 0; f < kFamilies.size(); ++f) {
        if (static_cast<int>(f % kWorkers) != w) continue;
        d[f] = result_digest(evaluate(f, kReferenceSeed, nullptr, 0, traced));
      }
    });
    return hm::util::hash_combine(hm::util::hash_combine(d[0], d[1]), d[2]);
  }

  void reference_check(bool traced, Report& rep) override {
    report_missing(missing_, rep);
    check_digest(env_, "fig7-sat.reference", reference_digest(traced), rep);
  }

  void layer_metrics(const LayerInputs& in, Values& v) override {
    const double ops = in.traced_ops;
    const double reps = in.setup_reps;
    v["core.make_arrangement_ms"] =
        span_per(in.setup, "core.make_arrangement", reps, 1e6);
    v["noc.topology_acquire_ms"] =
        span_per(in.setup, "noc.topology_acquire", reps, 1e6);
    v["core.evaluate_analytic_ms"] =
        span_per(in.ops, "core.evaluate_analytic", ops, 1e6);
    v["graph.distance_ms"] = span_per(in.ops, "graph.distance", ops, 1e6);
    v["partition.bisection_ms"] =
        span_per(in.ops, "partition.bisection", ops, 1e6);
    v["noc.sat_search_ms"] = span_per(in.ops, "noc.sat_search", ops, 1e6);
    v["noc.arena_reuse_ratio"] = arena_reuse(in.b0, in.b1);
    // Both executions of each op simulate identical work; the spans cover
    // the traced one, i.e. half the router steps counted.
    v["noc.ns_per_router_step"] =
        span_per(in.ops, "noc.sat_search",
                 delta(in.b0, in.b1, "sim.router_steps") / 2.0, 1.0);
    reference_sim_counts(in, v);
  }

  void print_expected() override {
    setup(nullptr);
    std::printf("fig7-sat.reference %s\n",
                hex64(reference_digest(false)).c_str());
    std::vector<std::uint64_t> d(kPool);
    workers_->run([&](int w) {
      for (std::size_t pick = static_cast<std::size_t>(w); pick < kPool;
           pick += kWorkers) {
        d[pick] = result_digest(evaluate_pick(pick, nullptr, 0));
      }
    });
    for (std::size_t pick = 0; pick < kPool; ++pick) {
      std::printf("%s %s\n", key(pick).c_str(), hex64(d[pick]).c_str());
    }
  }

 private:
  core::EvaluationParams base_;
  noc::TrafficSpec traffic_;
  std::unique_ptr<Workers> workers_;
  std::vector<core::Arrangement> arrs_;
  std::vector<std::shared_ptr<const noc::TopologyContext>> ctx_;
  std::vector<std::uint64_t> expected_;  ///< digest of each pool op
  std::vector<std::string> missing_;
  BisectionMemo memo_;
};

// ---------------------------------------------------------- search-latency

class SearchLatency final : public Workload {
 public:
  static constexpr std::size_t kN = 37;
  /// One op is a whole anneal search followed by a whole tempering search
  /// of kSteps steps each. Single step times cluster (around 13 and 18 ms
  /// on a 4-vCPU Xeon), and so would ops of one engine or the other, so a
  /// p50 over them jumps between clusters from run to run; a sum over
  /// both engines' steps does not.
  static constexpr std::size_t kSteps = 4;
  static constexpr std::uint64_t kReferenceSeed = 20230719;

  explicit SearchLatency(const Env& env) : Workload(env) {
    params_.latency_warmup = 1000;
    params_.latency_measure = 3000;
  }

  void teardown() override {
    noc::SimulationArena::local().clear();
    ctx_.reset();
    start_.reset();
  }

  void setup(SpanLog* log) override {
    {
      Span s(log, "core.make_arrangement", 0);
      start_ = std::make_unique<core::Arrangement>(
          core::make_arrangement(core::ArrangementType::kHexaMesh, kN));
    }
    {
      Span s(log, "noc.topology_acquire", 0);
      ctx_ = noc::TopologyContext::acquire(start_->graph());
    }
    // Every search first scores the start state: evaluate it once (the
    // latency run the engines repeat per search) as the warm-up.
    Span s(log, "noc.arena_warmup", 0);
    core::EvaluationParams p = params_;
    p.measure_saturation = false;
    (void)core::evaluate(*start_, p, {}, nullptr, ctx_);
  }

  search::SearchOptions anneal_options(std::uint64_t seed) const {
    search::SearchOptions o;
    o.schedule = search::Schedule::kAnneal;
    o.objective = search::Objective::kZeroLoadLatency;
    o.steps = kSteps;
    o.candidates_per_step = 4;
    o.threads = kWorkers;
    o.seed = seed;
    o.params = params_;
    return o;
  }

  search::TemperingOptions tempering_options(std::uint64_t seed) const {
    search::TemperingOptions o;
    o.replicas = 2;
    o.candidates_per_step = 2;
    o.objective = search::Objective::kZeroLoadLatency;
    o.steps = kSteps;
    o.threads = kWorkers;
    o.seed = seed;
    o.params = params_;
    return o;
  }

  bool op(OpCtx& ctx) override {
    const std::uint64_t seed = noc::derive_seed(env_.seed, ctx.op);
    std::string csv;
    std::size_t rows = 0;
    if (ctx.log != nullptr) {
      const Counters c0 = counters();
      const auto r =
          mirror_search(anneal_options(seed), *start_, memo_, *tracer_, ctx.op);
      mirrored_router_steps_ += delta(c0, counters(), "sim.router_steps");
      csv = search::trace_to_csv(r.trace);
      rows = r.trace.size();
    } else {
      const auto r = search::SearchEngine(anneal_options(seed)).run(*start_);
      csv = search::trace_to_csv(r.trace);
      rows = r.trace.size();
    }
    // The traced run measures anneal searches only: the mirror reproduces
    // SearchEngine, and both halves of the run must do the same work from
    // the same memo state (the evaluator's process-wide bisection memo
    // would turn a replayed tempering search into lookups).
    if (!env_.trace) {
      const auto t =
          search::TemperingEngine(tempering_options(seed)).run(*start_);
      csv += search::trace_to_csv(t.trace);
      rows += t.trace.size() / 2;
    }
    const std::size_t want = env_.trace ? kSteps : 2 * kSteps;
    return (!env_.trace ||
            digests_.record_or_compare(ctx.op, bytes_digest(csv))) &&
           rows == want;
  }

  /// Fixed-seed anneal + tempering searches; returns the digest of their
  /// trace CSVs and keeps their evaluation and cache-hit counts.
  std::uint64_t run_reference() {
    const auto a = search::SearchEngine(anneal_options(kReferenceSeed))
                       .run(*start_);
    const auto t = search::TemperingEngine(tempering_options(kReferenceSeed))
                       .run(*start_);
    ref_evals_ = static_cast<double>(a.evaluations + t.evaluations);
    ref_hits_ = static_cast<double>(a.cache_hits + t.cache_hits);
    ref_steps_ = static_cast<double>(2 * kSteps);
    return bytes_digest(search::trace_to_csv(a.trace) +
                        search::trace_to_csv(t.trace));
  }

  void reference_check(bool traced, Report& rep) override {
    (void)traced;
    check_digest(env_, "search-latency.reference", run_reference(), rep);
  }

  void layer_metrics(const LayerInputs& in, Values& v) override {
    // Step layers are spanned in the mirrored (anneal) searches.
    const auto it = in.ops.find("search.step");
    const double steps =
        it == in.ops.end() ? 0.0 : static_cast<double>(it->second.count);
    v["core.make_arrangement_ms"] =
        span_per(in.setup, "core.make_arrangement", in.setup_reps, 1e6);
    v["noc.topology_acquire_ms"] =
        span_per(in.setup, "noc.topology_acquire", in.setup_reps, 1e6);
    v["search.propose_us"] = span_per(in.ops, "search.propose", steps, 1e3);
    v["noc.topology_rebuild_ms"] =
        span_per(in.ops, "noc.topology_rebuild", steps, 1e6);
    v["noc.latency_run_ms"] = span_per(in.ops, "noc.latency_run", steps, 1e6);
    v["core.evaluate_analytic_ms"] =
        span_per(in.ops, "core.evaluate_analytic", steps, 1e6);
    v["graph.distance_ms"] = span_per(in.ops, "graph.distance", steps, 1e6);
    v["partition.bisection_ms"] =
        span_per(in.ops, "partition.bisection", steps, 1e6);
    v["noc.ns_per_router_step"] =
        span_per(in.ops, "noc.latency_run", mirrored_router_steps_, 1.0);
    v["noc.arena_reuse_ratio"] = arena_reuse(in.r0, in.r1);
    v["noc.incremental_builds"] = delta(in.r0, in.r1, "topo.incremental_builds");
    v["noc.full_builds"] = delta(in.r0, in.r1, "topo.full_builds");
    v["noc.rows_reused"] =
        delta(in.r0, in.r1, "routing.incremental_rows_reused");
    // The baseline evaluation of each reference search is not a step's.
    v["search.evals_per_step"] = ratio(ref_evals_ - 2.0, ref_steps_);
    v["explore.cache_hit_ratio"] = ratio(ref_hits_, ref_evals_);
    reference_sim_counts(in, v);
  }

  void print_expected() override {
    setup(nullptr);
    std::printf("search-latency.reference %s\n",
                hex64(run_reference()).c_str());
  }

 private:
  core::EvaluationParams params_;
  std::unique_ptr<core::Arrangement> start_;
  std::shared_ptr<const noc::TopologyContext> ctx_;
  BisectionMemo memo_;
  double mirrored_router_steps_ = 0.0;
  double ref_evals_ = 0.0;
  double ref_hits_ = 0.0;
  double ref_steps_ = 0.0;
};

// ---------------------------------------------------------- analytic-scale

class AnalyticScale final : public Workload {
 public:
  static constexpr std::size_t kMaxN = 640;

  explicit AnalyticScale(const Env& env) : Workload(env) {
    for (const auto f : kFamilies) {
      for (std::size_t n = 2; n <= kMaxN; ++n) pool_.push_back({f, n});
    }
    // Which points a run reaches within its window is a uniform sample.
    order_ = seeded_permutation(pool_.size(), env.seed);
    for (const auto& p : pool_) {
      expected_.push_back(expected_digest(env_, key(p), &missing_));
    }
  }

  static std::string key(const std::pair<core::ArrangementType,
                                          std::size_t>& p) {
    return "analytic-scale." + core::to_string(p.first) + "." +
           std::to_string(p.second);
  }

  void teardown() override { arrs_.clear(); }
  [[nodiscard]] int setup_reps() const override { return 5; }

  void setup(SpanLog* log) override {
    arrs_.reserve(pool_.size());
    for (const auto& [f, n] : pool_) {
      Span s(log, "core.make_arrangement", 0);
      arrs_.push_back(core::make_arrangement(f, n));
    }
  }

  [[nodiscard]] std::uint64_t unit_limit() const override {
    return pool_.size();
  }

  bool op(OpCtx& ctx) override {
    const std::size_t i = order_[ctx.op];
    const auto r = ctx.log == nullptr
                       ? core::evaluate_analytic(arrs_[i], params_)
                       : mirror_analytic(arrs_[i], params_, memo_, ctx.log,
                                         ctx.op);
    return result_digest(r) == expected_[i];
  }

  void reference_check(bool traced, Report& rep) override {
    (void)traced;
    report_missing(missing_, rep);
  }

  void layer_metrics(const LayerInputs& in, Values& v) override {
    const double ops = in.traced_ops;
    v["core.make_arrangement_ms"] =
        span_per(in.setup, "core.make_arrangement", in.setup_reps, 1e6);
    v["core.evaluate_analytic_ms"] =
        span_per(in.ops, "core.evaluate_analytic", ops, 1e6);
    v["graph.distance_ms"] = span_per(in.ops, "graph.distance", ops, 1e6);
    v["partition.bisection_ms"] =
        span_per(in.ops, "partition.bisection", ops, 1e6);
  }

  void print_expected() override {
    for (const auto& p : pool_) {
      const auto r =
          core::evaluate_analytic(core::make_arrangement(p.first, p.second));
      std::printf("%s %s\n", key(p).c_str(), hex64(result_digest(r)).c_str());
    }
  }

 private:
  core::EvaluationParams params_;
  std::vector<std::pair<core::ArrangementType, std::size_t>> pool_;
  std::vector<std::size_t> order_;
  std::vector<core::Arrangement> arrs_;
  std::vector<std::uint64_t> expected_;
  std::vector<std::string> missing_;
  BisectionMemo memo_;
};

// ------------------------------------------------------------- server-warm

class ServerWarm final : public Workload {
 public:
  static constexpr std::size_t kN = 16;
  static constexpr std::size_t kSeedsPerFamily = 8;
  static constexpr int kSideRounds = 200;

  explicit ServerWarm(const Env& env) : Workload(env) {
    const std::string tag = std::to_string(::getpid());
    dir_ = env.work_dir + "/store-" + tag;
    sock_ = env.work_dir + "/srv-" + tag + ".sock";
    opts_.unix_path = sock_;
    opts_.threads = kWorkers;
    opts_.cache_dir = dir_;
    opts_.params.latency_warmup = 300;
    opts_.params.latency_measure = 700;
    opts_.params.latency_drain_limit = 20000;
    for (const auto f : kFamilies) {
      for (std::size_t s = 0; s < kSeedsPerFamily; ++s) {
        srv::EvaluateRequest r;
        r.type = f;
        r.chiplet_count = kN;
        r.seed = noc::derive_seed(env.seed, reqs_.size());
        r.measure_latency = true;
        r.measure_saturation = false;
        reqs_.push_back(r);
      }
    }
  }

  ~ServerWarm() override { teardown(); }

  /// The server's evaluate handler, in process (the reply reference).
  core::EvaluationResult evaluate_in_process(const srv::EvaluateRequest& r,
                                             hm::explore::ResultCache& cache,
                                             const core::Arrangement& arr) {
    core::EvaluationParams p = opts_.params;
    p.measure_latency = r.measure_latency;
    p.measure_saturation = r.measure_saturation;
    p.sim.seed = r.seed;
    return hm::explore::cached_evaluate(arr, p, opts_.traffic, &cache);
  }

  void teardown() override {
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (server_) server_->stop();
    server_.reset();
    workers_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove(sock_, ec);
  }

  void setup(SpanLog* log) override {
    // Cold: evaluate the request set into a fresh store and flush it.
    expected_.assign(reqs_.size(), {});
    {
      hm::explore::ResultCache cache;
      cache.attach_store(hm::store::ResultStore::open(dir_));
      for (std::size_t j = 0; j < reqs_.size(); ++j) {
        const auto arr = [&] {
          Span s(log, "core.make_arrangement", 0);
          return core::make_arrangement(reqs_[j].type, kN);
        }();
        hm::store::encode_result(evaluate_in_process(reqs_[j], cache, arr),
                                 expected_[j]);
      }
      Span s(log, "store.flush", 0);
      cache.flush_to_store();
    }
    // Warm: a fresh server opens that store; both connections touch
    // every request once, so the timed loop only sees cache hits.
    {
      Span s(log, "store.open", 0);
      server_ = std::make_unique<srv::Server>(opts_);
    }
    server_->start();
    for (int& fd : fds_) fd = connect_unix(sock_);
    workers_ = std::make_unique<Workers>(kWorkers);
    workers_->run([&](int w) {
      for (std::size_t j = 0; j < reqs_.size(); ++j) {
        if (!request(w, j, nullptr, 0)) {
          throw std::runtime_error("server-warm: warm-up request failed");
        }
      }
    });
  }

  Workers* workers() override { return workers_.get(); }

  bool op(OpCtx& ctx) override {
    Span root(ctx.log, "server.request", ctx.op);
    return request(ctx.worker, ctx.op % reqs_.size(), ctx.log, ctx.op);
  }

  void around_traced_loop(bool starting) override {
    (starting ? loop0_ : loop1_) = server_->stats_snapshot();
  }

  void reference_check(bool traced, Report& rep) override {
    (void)traced;
    // Every reply was compared byte for byte with the in-process
    // evaluation of the same point; here only the refusals are summed.
    rejects_ = static_cast<double>(server_->stats_snapshot().rejects);
    if (rejects_ > 0) {
      rep.problems.push_back(
          "server refused " +
          std::to_string(static_cast<std::uint64_t>(rejects_)) + " requests");
    }
  }

  void layer_metrics(const LayerInputs& in, Values& v) override {
    const double ops = in.traced_ops;
    v["store.open_ms"] = span_per(in.setup, "store.open", in.setup_reps, 1e6);
    v["store.flush_ms"] = span_per(in.setup, "store.flush", in.setup_reps, 1e6);
    v["store.records"] = static_cast<double>(
        hm::store::ResultStore::open(dir_)->entry_count());
    v["core.make_arrangement_ms"] =
        span_per(in.setup, "core.make_arrangement", in.setup_reps, 1e6);
    v["server.requests_per_batch"] =
        ratio(static_cast<double>(loop1_.requests - loop0_.requests),
              static_cast<double>(loop1_.batches - loop0_.batches));
    v["server.rejects"] = rejects_;
    const double hits = delta(in.b0, in.b1, "cache.", ".hits");
    v["explore.cache_hit_ratio"] =
        ratio(hits, hits + delta(in.b0, in.b1, "cache.", ".misses"));
    const double hit_us = cached_hit_us();
    const double codec_us =
        span_per(in.ops, "server.codec", ops, 1e3) + server_codec_us();
    v["explore.cached_evaluate_hit_us"] = hit_us;
    v["server.codec_us"] = codec_us;
    v["server.transport_us"] =
        span_per(in.ops, "server.request", ops, 1e3) - codec_us - hit_us;
  }

  void print_expected() override {}

 private:
  struct Buffers {
    std::vector<std::uint8_t> payload, frame, reply;
  };

  static int connect_unix(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("server-warm: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw std::runtime_error("server-warm: connect failed: " + path);
    }
    return fd;
  }

  /// One evaluate round trip on connection `w`; true when the reply is kOk
  /// and byte-identical to the in-process evaluation of request `j`.
  bool request(int w, std::size_t j, SpanLog* log, std::uint64_t op) {
    Buffers& b = bufs_[static_cast<std::size_t>(w)];
    const int fd = fds_[static_cast<std::size_t>(w)];
    {
      Span s(log, "server.codec", op);
      b.payload.clear();
      srv::encode_evaluate_request(reqs_[j], b.payload);
      b.frame.clear();
      srv::encode_frame(srv::kRequestMagic, srv::Command::kEvaluate, b.payload,
                        b.frame);
    }
    srv::FrameHeader header;
    {
      Span s(log, "server.transport", op);
      if (!srv::write_all(fd, b.frame.data(), b.frame.size())) return false;
      if (srv::read_frame(fd, srv::kReplyMagic, &header, &b.reply) !=
          srv::ReadResult::kOk) {
        return false;
      }
    }
    Span s(log, "server.codec", op);
    const auto view = srv::parse_reply_payload(b.reply.data(), b.reply.size());
    if (!view || view->status != srv::Status::kOk) return false;
    const auto& want = expected_[j];
    return view->body_size == want.size() &&
           std::memcmp(view->body, want.data(), want.size()) == 0 &&
           hm::store::decode_result(view->body, view->body_size).has_value();
  }

  /// Side measurement: explore::cached_evaluate hitting a warm cache over
  /// the same store, per call.
  double cached_hit_us() {
    hm::explore::ResultCache cache;
    cache.attach_store(hm::store::ResultStore::open(dir_));
    std::vector<core::Arrangement> arrs;
    for (const auto& r : reqs_) {
      arrs.push_back(core::make_arrangement(r.type, kN));
      (void)evaluate_in_process(r, cache, arrs.back());
    }
    const std::int64_t t0 = now_ns();
    for (int round = 0; round < kSideRounds; ++round) {
      for (std::size_t j = 0; j < reqs_.size(); ++j) {
        (void)evaluate_in_process(reqs_[j], cache, arrs[j]);
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e3 /
           (kSideRounds * static_cast<double>(reqs_.size()));
  }

  /// Side measurement: the server half of the codec per request (request
  /// decode, record + reply encode, reply framing).
  double server_codec_us() {
    std::vector<std::vector<std::uint8_t>> payloads(reqs_.size());
    for (std::size_t j = 0; j < reqs_.size(); ++j) {
      srv::encode_evaluate_request(reqs_[j], payloads[j]);
    }
    std::vector<std::uint8_t> body, reply, frame;
    bool ok = true;
    const std::int64_t t0 = now_ns();
    for (int round = 0; round < kSideRounds; ++round) {
      for (std::size_t j = 0; j < reqs_.size(); ++j) {
        const auto req = srv::decode_evaluate_request(payloads[j].data(),
                                                      payloads[j].size());
        const auto r = hm::store::decode_result(expected_[j].data(),
                                                expected_[j].size());
        ok = ok && req.has_value() && r.has_value();
        body.clear();
        hm::store::encode_result(*r, body);
        reply.clear();
        srv::encode_reply_payload(srv::Status::kOk, body, reply);
        frame.clear();
        srv::encode_frame(srv::kReplyMagic, srv::Command::kEvaluate, reply,
                          frame);
      }
    }
    const double us = static_cast<double>(now_ns() - t0) / 1e3 /
                      (kSideRounds * static_cast<double>(reqs_.size()));
    return ok ? us : 0.0;
  }

  srv::ServerOptions opts_;
  std::string dir_;
  std::string sock_;
  std::vector<srv::EvaluateRequest> reqs_;
  std::vector<std::vector<std::uint8_t>> expected_;
  std::unique_ptr<srv::Server> server_;
  std::array<int, kWorkers> fds_{-1, -1};
  std::array<Buffers, kWorkers> bufs_;
  std::unique_ptr<Workers> workers_;
  srv::Server::StatsSnapshot loop0_, loop1_;
  double rejects_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env) {
  if (name == "fig7-sat") return std::make_unique<Fig7Sat>(env);
  if (name == "search-latency") return std::make_unique<SearchLatency>(env);
  if (name == "analytic-scale") return std::make_unique<AnalyticScale>(env);
  if (name == "server-warm") return std::make_unique<ServerWarm>(env);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace

Report run_workload(const std::string& name, const Env& env,
                    Tracer& setup_tracer, Tracer& op_tracer) {
  const auto w = make_workload(name, env);
  w->set_tracer(&op_tracer);
  Report rep;
  hm::telemetry::set_enabled(false);

  const int reps = env.smoke ? 1 : w->setup_reps();
  std::vector<double> setup_s;
  SpanLog* setup_log = env.trace ? setup_tracer.local() : nullptr;
  for (int i = 0; i < reps; ++i) {
    w->teardown();
    const std::int64_t t0 = now_ns();
    w->setup(setup_log);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const auto op = [&](OpCtx& ctx) { return w->op(ctx); };
  LayerInputs in;
  in.setup_reps = reps;
  if (!env.trace) {
    in.loop = closed_loop(w->workers(), env.seconds, w->unit_limit(), op);
    rep.attempted = in.loop.ops;
  } else {
    PairedOp paired;
    hm::telemetry::set_enabled(true);
    w->around_traced_loop(true);
    in.b0 = counters();
    in.loop = closed_loop(
        w->workers(), env.seconds, w->unit_limit(),
        [&](OpCtx& ctx) { return paired.run(ctx, op); }, &op_tracer);
    in.b1 = counters();
    w->around_traced_loop(false);
    paired.fill(in);
    rep.attempted =
        static_cast<std::uint64_t>(in.traced_ops + in.untraced_ops);
  }
  rep.failed = in.loop.failed;
  in.r0 = counters();
  w->reference_check(env.trace, rep);
  in.r1 = counters();

  const double ops = static_cast<double>(in.loop.ops);
  rep.info["samples"] = ops;
  rep.info["tail_percentile_admissible"] =
      admissible_tail_percentile(in.loop.ops);
  rep.info["fail_ratio"] =
      ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted));
  rep.info["window_s"] = in.loop.wall_s;
  for (const double q : {10.0, 25.0, 75.0, 95.0, 99.0, 100.0}) {
    rep.info["p" + std::to_string(static_cast<int>(q))] =
        sorted_percentile(in.loop.op_ms, q);
  }
  if (!env.trace) {
    rep.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ops_per_s", in.loop.ops_per_s, "1/s"},
        {"op_p50_ms", sorted_percentile(in.loop.op_ms, 50.0), "ms"},
        {"op_p90_ms", sorted_percentile(in.loop.op_ms, 90.0), "ms"},
        {"cpu_ms_per_op", ratio(in.loop.cpu_s * 1e3, ops), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    in.setup = setup_tracer.merged();
    in.ops = op_tracer.merged();
    Values v;
    for (const auto& [metric, unit] : kLayerMetrics) v[metric] = 0.0;
    const double workers = w->workers() != nullptr ? w->workers()->size() : 1;
    v["explore.pool_busy_ratio"] =
        ratio(in.loop.busy_s, workers * in.loop.wall_s);
    v["trace.overhead_ratio"] = ratio(ratio(in.traced_ops, in.traced_s),
                                      ratio(in.untraced_ops, in.untraced_s));
    // The same ops ran untraced, so the traced executions' same-thread
    // self times must add up to the untraced executions' time.
    v["trace.self_time_ratio"] =
        ratio(static_cast<double>(op_tracer.root_thread_self_ns()) / 1e9,
              in.untraced_s);
    w->layer_metrics(in, v);
    for (const auto& [metric, unit] : kLayerMetrics) {
      rep.metrics.push_back({metric, v[metric], unit});
    }
    const double st = v["trace.self_time_ratio"];
    if (std::abs(st - 1.0) > 0.10) {
      rep.info["self_time_check_failed"] = 1.0;
    }
  }
  hm::telemetry::set_enabled(false);
  w->teardown();
  return rep;
}

void print_expected(const std::string& name, const Env& env) {
  make_workload(name, env)->print_expected();
}

}  // namespace pb
