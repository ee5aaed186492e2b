// Tests for the design-space exploration engine: thread-pool semantics,
// stable hashing, the result cache, and — the load-bearing guarantee —
// that multi-threaded sweeps are bit-identical to single-threaded ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/export.hpp"
#include "explore/hash.hpp"
#include "explore/result_cache.hpp"
#include "explore/sweep.hpp"
#include "explore/thread_pool.hpp"
#include "noc/rng.hpp"

namespace {

using namespace hm;
using namespace hm::explore;

// Short simulation windows: the determinism guarantees under test are
// independent of window length, so keep the suite fast.
core::EvaluationParams tiny_sim_params() {
  core::EvaluationParams p;
  p.latency_warmup = 200;
  p.latency_measure = 500;
  p.latency_drain_limit = 30000;
  p.throughput_warmup = 300;
  p.throughput_measure = 300;
  return p;
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  constexpr int kJobs = 100;
  std::vector<std::atomic<int>> runs(kJobs);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back([&runs, i] { runs[i].fetch_add(1); });
  }
  pool.run_batch(jobs);
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(runs[i].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsSequentiallyInOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back([&order, i] { order.push_back(i); });
  }
  pool.run_batch(jobs);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedBatchesDoNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<int> inner_runs{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 8; ++i) {
    outer.push_back([&pool, &inner_runs] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back([&inner_runs] { inner_runs.fetch_add(1); });
      }
      pool.run_batch(inner);
    });
  }
  pool.run_batch(outer);
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] {});
  jobs.push_back([]() { throw std::runtime_error("boom"); });
  jobs.push_back([] {});
  EXPECT_THROW(pool.run_batch(jobs), std::runtime_error);
}

// ----------------------------------------------------------- derive_seed

TEST(DeriveSeed, DeterministicAndSaltSensitive) {
  EXPECT_EQ(noc::derive_seed(42, 7), noc::derive_seed(42, 7));
  EXPECT_NE(noc::derive_seed(42, 7), noc::derive_seed(42, 8));
  EXPECT_NE(noc::derive_seed(42, 7), noc::derive_seed(43, 7));
  // Consecutive salts must give well-spread seeds (no accidental reuse).
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(noc::derive_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

// ----------------------------------------------------------------- hashes

TEST(StableHashing, ArrangementIdentityAndSensitivity) {
  const auto a1 = core::make_arrangement(core::ArrangementType::kHexaMesh, 19);
  const auto a2 = core::make_arrangement(core::ArrangementType::kHexaMesh, 19);
  const auto b = core::make_arrangement(core::ArrangementType::kHexaMesh, 20);
  const auto c = core::make_arrangement(core::ArrangementType::kGrid, 19);
  EXPECT_EQ(hash_arrangement(a1), hash_arrangement(a2));
  EXPECT_NE(hash_arrangement(a1), hash_arrangement(b));
  EXPECT_NE(hash_arrangement(a1), hash_arrangement(c));
}

TEST(StableHashing, ParamsSensitivity) {
  core::EvaluationParams p;
  core::EvaluationParams q;
  EXPECT_EQ(hash_analytic_params(p), hash_analytic_params(q));
  EXPECT_EQ(hash_simulation_params(p), hash_simulation_params(q));
  q.bump_pitch_mm *= 2.0;
  EXPECT_NE(hash_analytic_params(p), hash_analytic_params(q));
  q = p;
  q.sim.seed += 1;  // seeds matter for simulation, not analytic
  EXPECT_EQ(hash_analytic_params(p), hash_analytic_params(q));
  EXPECT_NE(hash_simulation_params(p), hash_simulation_params(q));
}

TEST(StableHashing, TrafficSensitivity) {
  noc::TrafficSpec a;
  noc::TrafficSpec b;
  EXPECT_EQ(hash_traffic(a), hash_traffic(b));
  b.pattern = noc::TrafficPattern::kHotspot;
  EXPECT_NE(hash_traffic(a), hash_traffic(b));
  noc::TrafficSpec c = b;
  c.hotspots = {0, 3};
  EXPECT_NE(hash_traffic(b), hash_traffic(c));
}

// ------------------------------------------------------------ ResultCache

TEST(ResultCache, HitReturnsIdenticalResult) {
  ResultCache cache;
  const auto arr = core::make_arrangement(core::ArrangementType::kGrid, 16);
  const auto r = core::evaluate_analytic(arr);
  const std::uint64_t key = hash_arrangement(arr);
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, r);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->chiplet_count, r.chiplet_count);
  EXPECT_EQ(hit->diameter, r.diameter);
  EXPECT_EQ(hit->bisection_links, r.bisection_links);
  EXPECT_DOUBLE_EQ(hit->per_link_bandwidth_bps, r.per_link_bandwidth_bps);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, GetOrComputeComputesOnce) {
  ResultCache cache;
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return core::evaluate_analytic(
        core::make_arrangement(core::ArrangementType::kGrid, 9));
  };
  const auto a = cache.get_or_compute(123, compute);
  const auto b = cache.get_or_compute(123, compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(a.diameter, b.diameter);
}

// ------------------------------------------------------------ SweepEngine

SweepSpec small_analytic_spec() {
  SweepSpec spec;
  spec.types = {core::ArrangementType::kGrid,
                core::ArrangementType::kHexaMesh};
  for (std::size_t n = 2; n <= 13; ++n) spec.chiplet_counts.push_back(n);
  spec.simulate = false;
  return spec;
}

SweepSpec small_sim_spec() {
  SweepSpec spec;
  spec.types = {core::ArrangementType::kGrid,
                core::ArrangementType::kHexaMesh};
  spec.chiplet_counts = {4, 7, 9};
  spec.param_grid = {tiny_sim_params()};
  return spec;
}

TEST(SweepEngine, AnalyticSweepByteIdenticalAcrossThreadCounts) {
  // >= 20 design points, evaluated at 1 and 4 threads.
  SweepEngine::Options one;
  one.threads = 1;
  SweepEngine::Options four;
  four.threads = 4;
  const auto spec = small_analytic_spec();
  ASSERT_GE(spec.points().size(), 20u);
  const auto csv1 = to_csv(SweepEngine(one).run(spec));
  const auto csv4 = to_csv(SweepEngine(four).run(spec));
  EXPECT_EQ(csv1, csv4);
  EXPECT_NE(csv1.find("hexamesh"), std::string::npos);
}

TEST(SweepEngine, SimulatedSweepByteIdenticalAcrossThreadCounts) {
  SweepEngine::Options one;
  one.threads = 1;
  SweepEngine::Options three;
  three.threads = 3;
  const auto spec = small_sim_spec();
  const auto csv1 = to_csv(SweepEngine(one).run(spec));
  const auto csv3 = to_csv(SweepEngine(three).run(spec));
  EXPECT_EQ(csv1, csv3);
  const auto json1 = to_json(SweepEngine(one).run(spec));
  const auto json3 = to_json(SweepEngine(three).run(spec));
  EXPECT_EQ(json1, json3);
}

TEST(SweepEngine, SecondRunServedFromCache) {
  SweepEngine::Options opt;
  opt.threads = 2;
  SweepEngine engine(opt);
  const auto spec = small_sim_spec();
  const auto first = engine.run(spec);
  const auto second = engine.run(spec);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache) << "record " << i;
    EXPECT_DOUBLE_EQ(second[i].result.saturation_fraction,
                     first[i].result.saturation_fraction);
    EXPECT_DOUBLE_EQ(second[i].result.zero_load_latency_cycles,
                     first[i].result.zero_load_latency_cycles);
  }
  // And the export is identical either way (cache flags are not exported).
  EXPECT_EQ(to_csv(first), to_csv(second));
}

TEST(SweepEngine, AnalyticResultSharedAcrossTrafficAblations) {
  SweepEngine::Options opt;
  opt.threads = 1;
  SweepEngine engine(opt);
  SweepSpec spec;
  spec.types = {core::ArrangementType::kGrid};
  spec.chiplet_counts = {4};
  spec.param_grid = {tiny_sim_params()};
  noc::TrafficSpec uniform;
  noc::TrafficSpec bitcomp;
  bitcomp.pattern = noc::TrafficPattern::kBitComplement;
  spec.traffic_grid = {uniform, bitcomp};
  const auto records = engine.run(spec);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].error.empty());
  EXPECT_TRUE(records[1].error.empty());
  // One analytic entry + two full entries: the analytic half was shared.
  EXPECT_EQ(engine.cache().size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].result.link_area_mm2,
                   records[1].result.link_area_mm2);
}

TEST(SweepEngine, ProgressCallbackCoversEveryJob) {
  SweepEngine::Options opt;
  opt.threads = 3;
  std::vector<std::size_t> completions;
  opt.on_progress = [&](const SweepProgress& p) {
    completions.push_back(p.completed);
    EXPECT_EQ(p.total, 24u);
    ASSERT_NE(p.last, nullptr);
  };
  SweepEngine engine(opt);
  const auto records = engine.run(small_analytic_spec());
  EXPECT_EQ(records.size(), 24u);
  ASSERT_EQ(completions.size(), 24u);
  // Serialized callback sees a strictly increasing completion count.
  for (std::size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i], i + 1);
  }
}

TEST(SweepEngine, ErrorsAreRecordedNotThrown) {
  SweepSpec spec;
  spec.types = {core::ArrangementType::kGrid};
  spec.chiplet_counts = {0};  // make_arrangement rejects n = 0
  spec.param_grid = {tiny_sim_params()};
  SweepEngine::Options opt;
  opt.threads = 1;
  const auto records = SweepEngine(opt).run(spec);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].error.empty());
}

TEST(SweepEngine, PerJobSeedsAreDerivedAndStable) {
  const auto spec = small_sim_spec();
  const auto points1 = spec.points();
  const auto points2 = spec.points();
  ASSERT_EQ(points1.size(), points2.size());
  std::set<unsigned long long> seeds;
  for (std::size_t i = 0; i < points1.size(); ++i) {
    EXPECT_EQ(points1[i].params.sim.seed, points2[i].params.sim.seed);
    EXPECT_EQ(points1[i].params.sim.seed,
              noc::derive_seed(spec.base_seed, i));
    seeds.insert(points1[i].params.sim.seed);
  }
  EXPECT_EQ(seeds.size(), points1.size());
}

// --------------------------------------------- parallel evaluate() probes

TEST(ParallelEvaluate, ExecutorMatchesSequentialBitForBit) {
  const auto arr = core::make_arrangement(core::ArrangementType::kHexaMesh, 7);
  const auto params = tiny_sim_params();
  const auto seq = core::evaluate(arr, params);
  ThreadPool pool(4);
  const auto par = core::evaluate(arr, params, {}, &pool);
  EXPECT_EQ(par.zero_load_latency_cycles, seq.zero_load_latency_cycles);
  EXPECT_EQ(par.saturation_fraction, seq.saturation_fraction);
  EXPECT_EQ(par.saturation_throughput_bps, seq.saturation_throughput_bps);
  EXPECT_EQ(par.latency_run_drained, seq.latency_run_drained);
}

TEST(ParallelEvaluate, MeasurementSelectionFlags) {
  const auto arr = core::make_arrangement(core::ArrangementType::kGrid, 4);
  auto params = tiny_sim_params();
  params.measure_saturation = false;
  const auto lat_only = core::evaluate(arr, params);
  EXPECT_GT(lat_only.zero_load_latency_cycles, 0.0);
  EXPECT_EQ(lat_only.saturation_fraction, 0.0);
  params = tiny_sim_params();
  params.measure_latency = false;
  const auto sat_only = core::evaluate(arr, params);
  EXPECT_EQ(sat_only.zero_load_latency_cycles, 0.0);
  EXPECT_GT(sat_only.saturation_fraction, 0.0);
}

// ----------------------------------------------------------------- export

TEST(Export, CsvShapeAndJsonWellFormedness) {
  SweepEngine::Options opt;
  opt.threads = 1;
  SweepSpec spec = small_analytic_spec();
  spec.chiplet_counts = {4, 9};
  const auto records = SweepEngine(opt).run(spec);
  const auto csv = to_csv(records);
  // Header + one line per record.
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), records.size() + 1);
  EXPECT_EQ(csv.find("index,arrangement,regularity,chiplets"), 0u);
  const auto json = to_json(records);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            static_cast<long>(records.size()));
  EXPECT_EQ(std::count(json.begin(), json.end(), '}'),
            static_cast<long>(records.size()));
  EXPECT_NE(json.find("\"arrangement\": \"grid\""), std::string::npos);
}

}  // namespace
