// Tests for the population-based parallel-tempering engine
// (search/tempering.hpp): thread-count-independent traces, the geometric
// (floored) temperature ladder, replica-exchange bookkeeping, the global
// monotone-best invariant, option validation, and warm-started sweeps
// (SweepEngine::add_arrangement) riding searched arrangements alongside
// the stock families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "search/tempering.hpp"

namespace {

using hm::core::Arrangement;
using hm::core::ArrangementType;
using hm::core::make_arrangement;
using hm::search::TemperingEngine;
using hm::search::TemperingOptions;

/// Interactive-speed measurement windows shared by every tempering test
/// (mirrors test_search's fast_options).
TemperingOptions fast_options() {
  TemperingOptions opt;
  opt.replicas = 3;
  opt.steps = 4;
  opt.candidates_per_step = 2;
  opt.exchange_interval = 2;
  opt.seed = 7;
  opt.params.throughput_warmup = 250;
  opt.params.throughput_measure = 250;
  opt.params.latency_warmup = 250;
  opt.params.latency_measure = 500;
  return opt;
}

TEST(TemperingEngine, TraceIsThreadCountIndependent) {
  std::string reference;
  for (const unsigned threads : {1u, 4u, 8u}) {
    auto opt = fast_options();
    opt.threads = threads;
    TemperingEngine engine(opt);
    const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 9));
    const std::string csv = hm::search::trace_to_csv(res.trace);
    if (reference.empty()) {
      reference = csv;
      EXPECT_EQ(res.trace.size(), opt.steps * opt.replicas);
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

TEST(TemperingEngine, LadderIsGeometricColdestFirstAndFloored) {
  auto opt = fast_options();
  opt.replicas = 4;
  opt.steps = 1;
  opt.initial_temperature = 0.08;
  opt.ladder_ratio = 0.5;
  TemperingEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kHexaMesh, 13));

  ASSERT_EQ(res.temperatures.size(), 4u);
  const double hot = std::abs(res.baseline_score) * opt.initial_temperature;
  EXPECT_GT(hot, 0.0);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(res.temperatures[k], hot * std::pow(0.5, 3 - k),
                1e-6 * hot);
    if (k > 0) {
      EXPECT_GT(res.temperatures[k], res.temperatures[k - 1]);
    }
  }
  // Trace rows carry each replica's fixed rung.
  for (const auto& row : res.trace) {
    EXPECT_DOUBLE_EQ(row.temperature, res.temperatures[row.replica]);
  }

  // A (hypothetical) zero baseline cannot collapse the ladder: rungs are
  // floored. Simulated via a custom zero objective.
  auto zopt = fast_options();
  zopt.steps = 1;
  zopt.min_temperature = 0.5;
  zopt.objective.custom = [](const hm::core::EvaluationResult&) {
    return 0.0;
  };
  TemperingEngine zengine(zopt);
  const auto zres =
      zengine.run(make_arrangement(ArrangementType::kGrid, 9));
  EXPECT_EQ(zres.baseline_score, 0.0);
  for (const double t : zres.temperatures) EXPECT_DOUBLE_EQ(t, 0.5);
}

TEST(TemperingEngine, GlobalBestIsMonotoneAndReproducible) {
  auto opt = fast_options();
  opt.steps = 6;
  TemperingEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kHexaMesh, 13));

  double best = res.baseline_score;
  for (const auto& row : res.trace) {
    EXPECT_GE(row.best_score, best);
    EXPECT_GE(row.best_score, row.current_score);
    best = row.best_score;
  }
  EXPECT_EQ(best, res.best_score);
  EXPECT_GE(res.best_score, res.baseline_score);
  EXPECT_TRUE(hm::search::is_legal_arrangement(res.best));
  EXPECT_EQ(res.best_result.saturation_throughput_bps, res.best_score);
  ASSERT_EQ(res.replica_scores.size(), opt.replicas);
  EXPECT_EQ(res.evaluations,
            1 + opt.steps * opt.replicas * opt.candidates_per_step);
}

TEST(TemperingEngine, ExchangeBookkeepingIsConsistent) {
  auto opt = fast_options();
  opt.steps = 8;
  opt.exchange_interval = 2;
  opt.replicas = 3;
  TemperingEngine engine(opt);
  const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 9));

  // 4 exchange sweeps; parity alternates, so sweeps attempt pair (0,1) or
  // (1,2) — one pair per sweep with K=3.
  EXPECT_EQ(res.exchange_attempts, 4u);
  EXPECT_LE(res.exchange_accepts, res.exchange_attempts);

  std::size_t exchanged_rows = 0;
  for (const auto& row : res.trace) {
    if (!row.exchanged) {
      EXPECT_EQ(row.exchange_partner, -1);
      continue;
    }
    ++exchanged_rows;
    // Partner symmetry within the same step.
    const auto partner = static_cast<std::size_t>(row.exchange_partner);
    const auto& mirror = res.trace[row.step * opt.replicas + partner];
    EXPECT_TRUE(mirror.exchanged);
    EXPECT_EQ(static_cast<std::size_t>(mirror.exchange_partner),
              row.replica);
    // Exchanges only happen on sweep steps.
    EXPECT_EQ((row.step + 1) % opt.exchange_interval, 0u);
  }
  EXPECT_EQ(exchanged_rows, 2 * res.exchange_accepts);
}

TEST(TemperingEngine, SingleReplicaNeverExchanges) {
  auto opt = fast_options();
  opt.replicas = 1;
  opt.steps = 4;
  TemperingEngine engine(opt);
  const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 8));
  EXPECT_EQ(res.exchange_attempts, 0u);
  EXPECT_EQ(res.trace.size(), 4u);
  EXPECT_GE(res.best_score, res.baseline_score);
}

TEST(TemperingEngine, RejectsDegenerateOptions) {
  const auto start = make_arrangement(ArrangementType::kGrid, 9);
  // A NaN initial_temperature would make the whole ladder NaN (no downhill
  // move or exchange ever accepted); zero proposal tries would propose
  // nothing.
  const std::vector<std::function<void(TemperingOptions&)>> bad = {
      [](auto& o) { o.replicas = 0; },
      [](auto& o) { o.exchange_interval = 0; },
      [](auto& o) { o.ladder_ratio = 0.0; },
      [](auto& o) { o.min_temperature = 0.0; },
      [](auto& o) { o.objective.area_weight = -1.0; },
      [](auto& o) { o.max_proposal_tries = 0; },
      [](auto& o) {
        o.initial_temperature = std::numeric_limits<double>::quiet_NaN();
      },
      [](auto& o) {
        o.initial_temperature = -std::numeric_limits<double>::infinity();
      },
      [](auto& o) { o.initial_temperature = -0.5; },
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    auto opt = fast_options();
    bad[i](opt);
    EXPECT_THROW((void)TemperingEngine(opt).run(start), std::invalid_argument)
        << "case " << i;
  }
  EXPECT_THROW((void)TemperingEngine(fast_options())
                   .run(make_arrangement(ArrangementType::kGrid, 1)),
               std::invalid_argument);
}

// --- Warm-started sweeps --------------------------------------------------------

hm::explore::SweepSpec small_spec() {
  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kGrid, ArrangementType::kHexaMesh};
  spec.chiplet_counts = {7};
  hm::core::EvaluationParams params;
  params.throughput_warmup = 250;
  params.throughput_measure = 250;
  params.latency_warmup = 250;
  params.latency_measure = 500;
  spec.param_grid = {params};
  return spec;
}

TEST(WarmStartedSweep, AddArrangementAppendsLabelledPoints) {
  hm::explore::SweepEngine engine;
  engine.add_arrangement(make_arrangement(ArrangementType::kHexaMesh, 7),
                         "my-searched-point");
  EXPECT_EQ(engine.arrangement_count(), 1u);
  const auto records = engine.run(small_spec());

  // 2 family points + 1 extra, indices continuous.
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].point.index, i);
    EXPECT_TRUE(records[i].error.empty()) << records[i].error;
  }
  const auto& extra = records.back();
  ASSERT_TRUE(extra.point.custom != nullptr);
  EXPECT_EQ(extra.point.label, "my-searched-point");
  EXPECT_EQ(extra.point.chiplet_count, 7u);
  // The custom point is a real evaluation, and — being the stock hexamesh
  // here — matches the family point evaluated under its own derived seed.
  EXPECT_GT(extra.result.saturation_throughput_bps, 0.0);

  // Exports carry the label instead of the family name.
  const std::string csv = hm::explore::to_csv(records);
  EXPECT_NE(csv.find("my-searched-point"), std::string::npos);
  const std::string json = hm::explore::to_json(records);
  EXPECT_NE(json.find("\"arrangement\": \"my-searched-point\""),
            std::string::npos);

  engine.clear_arrangements();
  EXPECT_EQ(engine.arrangement_count(), 0u);
  EXPECT_EQ(engine.run(small_spec()).size(), 2u);
}

TEST(WarmStartedSweep, SearchThenSweepIsThreadCountIndependent) {
  // The three calls design_sweep --search makes: search, register the best
  // arrangement as a labelled sweep point, run the sweep.
  const auto start = make_arrangement(ArrangementType::kHexaMesh, 7);
  const std::string label = "searched:" + start.name();
  std::string reference;
  for (const unsigned threads : {1u, 4u}) {
    auto topt = fast_options();
    topt.steps = 2;
    topt.threads = threads;
    const auto searched = TemperingEngine(topt).run(start);
    EXPECT_GE(searched.best_score, searched.baseline_score);

    hm::explore::SweepEngine::Options sopt;
    sopt.threads = threads;
    hm::explore::SweepEngine engine(sopt);
    engine.add_arrangement(searched.best, label);
    const auto records = engine.run(small_spec());

    ASSERT_EQ(records.size(), 3u);
    EXPECT_TRUE(records.back().point.custom != nullptr);
    EXPECT_EQ(records.back().point.label, label);

    const std::string csv = hm::explore::to_csv(records);
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
