// Perf harness for the arrangement-search subsystem: short end-to-end
// single-chain and tempering searches on the paper's 37-chiplet HexaMesh.
// (The routing-table build each candidate pays is bench_perf_micro's
// routing_tables_build.* key.) Metrics merge into BENCH_perf.json under the
// search.* prefix; the CI perf gate tracks them warn-only while the
// baseline settles (tools/check_perf_regression.py).
//
// Usage: bench_search [--smoke]   (--smoke: shorter searches)
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "core/arrangement.hpp"
#include "search/search.hpp"
#include "search/tempering.hpp"
#include "perf_json.hpp"

namespace {

using hm::core::ArrangementType;
using hm::core::make_arrangement;

bool g_smoke = false;
std::map<std::string, double> g_metrics;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs a short search with `Engine` from the paper's headline 37-chiplet
/// HexaMesh and records what every engine reports under `prefix`:
/// wall-clock, evaluation throughput, and the best/baseline score ratio
/// (>= 1 by the monotonic-best invariant — recorded so a scoring or
/// acceptance regression shows up as a dropped ratio). `evals_key` names
/// the evaluation count.
template <typename Engine, typename Options>
auto run_e2e(Options opt, const std::string& prefix,
             const std::string& evals_key) {
  opt.steps = g_smoke ? 4 : 12;
  opt.candidates_per_step = 2;
  opt.threads = 0;  // hardware concurrency
  opt.params.throughput_warmup = 1000;
  opt.params.throughput_measure = 1000;
  Engine engine(opt);
  const double t0 = now_seconds();
  auto res = engine.run(make_arrangement(ArrangementType::kHexaMesh, 37));
  const double wall = now_seconds() - t0;

  const double evals = static_cast<double>(res.evaluations);
  const double ratio =
      res.baseline_score > 0.0 ? res.best_score / res.baseline_score : 0.0;
  std::printf("%-40s %12.3f s\n", (prefix + "e2e_wall_s.n37hm").c_str(),
              wall);
  std::printf("%-40s %12.1f evals\n", (prefix + evals_key).c_str(), evals);
  std::printf("%-40s %12.4f\n", (prefix + "best_over_baseline.n37hm").c_str(),
              ratio);
  g_metrics[prefix + "e2e_wall_s.n37hm"] = wall;
  g_metrics[prefix + evals_key] = evals;
  g_metrics[prefix + "e2e_evals_per_s.n37hm"] =
      wall > 0.0 ? evals / wall : 0.0;
  g_metrics[prefix + "best_over_baseline.n37hm"] = ratio;
  return res;
}

/// Population-based counterpart of the single-chain run on the same start:
/// a short parallel-tempering run (3 replicas) with a comparable
/// per-replica budget. The acceptance bar of the tempering PR is
/// search.tempering.best_over_baseline.n37hm >= the single-chain
/// search.best_over_baseline.n37hm recorded in the same run (printed
/// below; the monotone-best invariant plus the bigger evaluated population
/// make the tempering ratio the easier side of the comparison).
void bench_tempering_e2e() {
  hm::search::TemperingOptions opt;
  opt.replicas = 3;
  opt.exchange_interval = 3;
  // Short-budget ladder: the cold replica near-greedy (~0.3% of the
  // baseline score), the hot one at ~3% — at 12 steps a hotter ladder
  // random-walks its whole budget away.
  opt.initial_temperature = 0.03;
  opt.ladder_ratio = 0.3;
  const auto res = run_e2e<hm::search::TemperingEngine>(
      opt, "search.tempering.", "evaluations.n37hm");

  const double ratio = g_metrics["search.tempering.best_over_baseline.n37hm"];
  const double exchange_rate =
      res.exchange_attempts > 0
          ? static_cast<double>(res.exchange_accepts) /
                static_cast<double>(res.exchange_attempts)
          : 0.0;
  std::printf("%-40s %12.4f\n", "search.tempering.exchange_accept_rate.n37hm",
              exchange_rate);
  const double single_chain = g_metrics["search.best_over_baseline.n37hm"];
  std::printf("%-40s %12s (tempering %.4f vs single-chain %.4f)\n",
              "tempering vs single-chain", ratio >= single_chain ? "OK"
                                                                 : "BEHIND",
              ratio, single_chain);
  g_metrics["search.tempering.exchange_accept_rate.n37hm"] = exchange_rate;
}

}  // namespace

int main(int argc, char** argv) {
  hm::bench::parse_perf_args(argc, argv, &g_smoke);
  std::printf("== search perf: e2e local search%s ==\n",
              g_smoke ? " (smoke)" : "");
  (void)run_e2e<hm::search::SearchEngine>(hm::search::SearchOptions{},
                                          "search.", "e2e_evaluations.n37hm");
  bench_tempering_e2e();
  hm::bench::update_perf_json(g_metrics);
  return 0;
}
