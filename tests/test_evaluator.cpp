// Tests for the end-to-end evaluator (Sec. VI pipeline): analytic fields,
// link-model wiring, full-global-bandwidth accounting and the cycle-accurate
// path on small designs.
#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/grid.hpp"
#include "core/hexamesh.hpp"
#include "core/proxies.hpp"

namespace {

using namespace hm::core;

EvaluationParams fast_sim_params() {
  EvaluationParams p;
  p.latency_warmup = 500;
  p.latency_measure = 3000;
  p.latency_drain_limit = 100000;
  p.throughput_warmup = 2000;
  p.throughput_measure = 3000;
  return p;
}

TEST(EvaluatorAnalytic, GridFieldsAt100) {
  const auto arr = make_grid(100);
  const auto r = evaluate_analytic(arr);
  EXPECT_EQ(r.chiplet_count, 100u);
  EXPECT_EQ(r.regularity, RegularityClass::kRegular);
  EXPECT_EQ(r.diameter, 18);
  EXPECT_EQ(r.bisection_links, 10u);
  EXPECT_DOUBLE_EQ(r.chiplet_area_mm2, 8.0);
  EXPECT_DOUBLE_EQ(r.link_area_mm2, 0.6 * 8.0 / 4.0);
  // 41 data wires * 16 GHz per link; x 200 endpoints for full global BW.
  EXPECT_DOUBLE_EQ(r.per_link_bandwidth_bps, 41.0 * 16e9);
  EXPECT_DOUBLE_EQ(r.full_global_bandwidth_bps, 200.0 * 41.0 * 16e9);
}

TEST(EvaluatorAnalytic, HexameshUsesHexShape) {
  const auto arr = make_hexamesh(91);
  const auto r = evaluate_analytic(arr);
  EXPECT_DOUBLE_EQ(r.chiplet_area_mm2, 800.0 / 91.0);
  EXPECT_NEAR(r.link_area_mm2, 0.6 * (800.0 / 91.0) / 6.0, 1e-12);
  EXPECT_EQ(r.diameter, 10);  // 2r with r = 5
  EXPECT_EQ(r.bisection_links, 21u);  // 4r + 1
}

TEST(EvaluatorAnalytic, IrregularUsesPartitioner) {
  const auto arr = make_grid(13);  // irregular
  const auto r = evaluate_analytic(arr);
  EXPECT_EQ(r.regularity, RegularityClass::kIrregular);
  EXPECT_GE(r.bisection_links, 3u);
  EXPECT_LE(r.bisection_links, 6u);
}

TEST(EvaluatorAnalytic, HexameshBeatsGridOnProxies) {
  const auto grid = evaluate_analytic(make_grid(100));
  const auto hexa = evaluate_analytic(make_hexamesh(100));
  EXPECT_LT(hexa.diameter, grid.diameter);
  EXPECT_GT(hexa.bisection_links, grid.bisection_links);
  // ...but pays with a lower per-link bandwidth (Sec. VI-C).
  EXPECT_LT(hexa.per_link_bandwidth_bps, grid.per_link_bandwidth_bps);
}

TEST(EvaluatorAnalytic, SmallNUsesTheGeneralFormula) {
  // Two grid chiplets share one link, yet each link still gets one of the
  // square chiplet's four sectors.
  const auto r = evaluate_analytic(make_grid(2));
  EXPECT_DOUBLE_EQ(r.link_area_mm2, 0.6 * 400.0 / 4.0);
}

TEST(Evaluator, FullPipelineOnSmallGrid) {
  const auto arr = make_grid(9);
  const auto r = evaluate(arr, fast_sim_params());
  EXPECT_TRUE(r.latency_run_drained);
  EXPECT_GT(r.zero_load_latency_cycles, 30.0);   // at least one hop
  EXPECT_LT(r.zero_load_latency_cycles, 200.0);  // 3x3 grid is small
  EXPECT_GT(r.saturation_fraction, 0.05);
  EXPECT_LE(r.saturation_fraction, 1.0);
  EXPECT_NEAR(r.saturation_throughput_bps,
              r.saturation_fraction * r.full_global_bandwidth_bps, 1e-3);
}

TEST(Evaluator, SingleChipletRejected) {
  EXPECT_THROW((void)evaluate(make_grid(1), fast_sim_params()),
               std::invalid_argument);
  EXPECT_NO_THROW((void)evaluate_analytic(make_grid(1)));
}

TEST(Evaluator, ZeroLoadLatencyScalesWithDiameter) {
  const auto small = evaluate(make_grid(4), fast_sim_params());
  const auto large = evaluate(make_grid(25), fast_sim_params());
  EXPECT_GT(large.zero_load_latency_cycles, small.zero_load_latency_cycles);
}

TEST(Evaluator, LinkAreaForUsesTheSectorFormulaAtEveryN) {
  // HexaMesh chiplets split their usable area into six link sectors, at
  // N <= 7 as beyond it.
  const EvaluationParams p;
  EXPECT_DOUBLE_EQ(link_area_for(make_hexamesh(7), 14.0, p), 0.6 * 14.0 / 6.0);
  EXPECT_DOUBLE_EQ(link_area_for(make_hexamesh(19), 10.0, p),
                   0.6 * 10.0 / 6.0);
}

}  // namespace
