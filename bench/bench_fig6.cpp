// Reproduces Fig. 6: network diameter (6a, the latency proxy) and estimated
// bisection bandwidth in links (6b, the throughput proxy) of grid /
// brickwall / HexaMesh for chiplet counts 1..100, with the regularity class
// of each point, plus the asymptotic ratios behind the abstract's -42% and
// +130%. Every number comes from one analytic SweepEngine pass, i.e. from
// evaluate_analytic: closed-form bisections for regular arrangements, the
// balanced partitioner (the paper uses METIS) otherwise (Sec. IV-D).
#include <cstdio>

#include "bench_util.hpp"
#include "core/proxies.hpp"
#include "explore/sweep.hpp"

int main() {
  using namespace hm::core;
  hm::bench::header(
      "Fig. 6 — diameter and bisection bandwidth vs chiplet count",
      "Fig. 6a (diameter) and Fig. 6b (bisection BW in links): the latency "
      "and throughput proxies of Sec. III-C");

  hm::explore::SweepSpec spec;
  spec.types = hm::bench::compared_types();
  spec.chiplet_counts = hm::bench::analytic_sweep();
  spec.simulate = false;
  const auto records = hm::bench::run_sweep(spec);

  const auto table = [&](const char* title, auto proxy) {
    std::printf("%s\n%4s | %8s %-10s | %8s %-10s | %8s %-10s\n", title, "N",
                "grid", "class", "brickw", "class", "hexamesh", "class");
    hm::bench::rule(72);
    for (std::size_t n : spec.chiplet_counts) {
      std::printf("%4zu", n);
      for (auto type : spec.types) {
        const auto& r = hm::bench::record_or_die(records, type, n).result;
        std::printf(" | %8zu %-10s", proxy(r),
                    hm::bench::class_tag(r.regularity));
      }
      std::printf("\n");
    }
  };
  table("Fig. 6a — network diameter [hops]", [](const EvaluationResult& r) {
    return static_cast<std::size_t>(r.diameter);
  });
  table("\nFig. 6b — bisection bandwidth [links]",
        [](const EvaluationResult& r) { return r.bisection_links; });

  std::printf(
      "\nAsymptotic ratios vs grid (paper: diameter BW -25%%, HM -42%%; "
      "bisection BW +100%%, HM +130%%):\n");
  std::printf("  D_BW/D_G -> %.4f (reduction %.0f%%)\n",
              asymptotic_diameter_ratio_bw(),
              100.0 * (1.0 - asymptotic_diameter_ratio_bw()));
  std::printf("  D_HM/D_G -> %.4f (reduction %.0f%%)  [the Fig. 6a 'x0.6']\n",
              asymptotic_diameter_ratio_hm(),
              100.0 * (1.0 - asymptotic_diameter_ratio_hm()));
  std::printf("  B_BW/B_G -> %.4f (improvement %.0f%%)\n",
              asymptotic_bisection_ratio_bw(),
              100.0 * (asymptotic_bisection_ratio_bw() - 1.0));
  std::printf("  B_HM/B_G -> %.4f (improvement %.0f%%)  [the Fig. 6b 'x2.3']\n",
              asymptotic_bisection_ratio_hm(),
              100.0 * (asymptotic_bisection_ratio_hm() - 1.0));
  hm::bench::maybe_export(records);
  return 0;
}
