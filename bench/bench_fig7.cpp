// Reproduces Fig. 7 and the abstract's headline numbers from one
// cycle-accurate sweep of grid / brickwall / HexaMesh with the paper's
// parameters (Sec. VI-A config): zero-load latency (7a), saturation
// throughput (7b: simulated saturation fraction x full global bandwidth
// N x 2 endpoints x per-link bandwidth from the D2D link model), both
// relative to the grid (7c/d) with their N >= 10 averages, and the two
// factors every throughput ratio is the product of. Chiplet counts 2..100
// are decimated unless HM_FULL_SWEEP=1. Every design simulates with the same
// fixed seed, like the paper's BookSim setup.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/proxies.hpp"
#include "explore/sweep.hpp"

int main() {
  using namespace hm::core;
  hm::bench::header("Fig. 7 — zero-load latency and saturation throughput",
                    "Fig. 7a-d (BookSim2-style cycle-accurate simulation, "
                    "Sec. VI-A config) and the abstract's headline numbers",
                    /*simulation_counts=*/true);

  hm::explore::SweepSpec spec;  // paper-default EvaluationParams
  spec.types = hm::bench::compared_types();
  spec.chiplet_counts = hm::bench::simulation_sweep();
  spec.derive_per_job_seeds = false;
  const auto records = hm::bench::run_sweep(spec);
  const auto result = [&](ArrangementType type, std::size_t n) {
    return hm::bench::record_or_die(records, type, n).result;
  };

  std::printf("Fig. 7a — zero-load latency [cycles]\n");
  std::printf("%4s | %10s %-10s | %10s %-10s | %10s %-10s\n", "N", "grid",
              "class", "brickw", "class", "hexamesh", "class");
  hm::bench::rule(78);
  for (std::size_t n : spec.chiplet_counts) {
    std::printf("%4zu", n);
    for (auto type : spec.types) {
      const auto r = result(type, n);
      std::printf(" | %10.1f %-10s", r.zero_load_latency_cycles,
                  hm::bench::class_tag(r.regularity));
    }
    std::printf("\n");
  }

  std::printf("\nFig. 7b — saturation throughput [Tb/s] (fraction)\n");
  std::printf("%4s | %9s %8s | %9s %8s | %9s %8s\n", "N", "grid", "(rel)",
              "brickw", "(rel)", "hexamesh", "(rel)");
  hm::bench::rule(70);
  for (std::size_t n : spec.chiplet_counts) {
    std::printf("%4zu", n);
    for (auto type : spec.types) {
      const auto r = result(type, n);
      std::printf(" | %9.2f %7.1f%%", r.saturation_throughput_bps / 1e12,
                  100.0 * r.saturation_fraction);
    }
    std::printf("\n");
  }

  const auto print_row = [](const std::string& label,
                            const hm::bench::RatioRow& v) {
    std::printf("%4s | %8.1f%% %8.1f%% | %8.1f%% %8.1f%% | %6.3f %6.3f |"
                " %6.3f %6.3f | %6.3f %6.3f",
                label.c_str(), v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7],
                v[8], v[9]);
  };
  std::printf("\nFig. 7c/d — relative to grid, with the throughput factors\n");
  std::printf("%4s | %9s %9s | %9s %9s | %6s %6s | %6s %6s | %6s %6s\n", "N",
              "BW lat%", "HM lat%", "BW thr%", "HM thr%", "BW lnk", "HM lnk",
              "BW sat", "HM sat", "BW bis", "HM bis");
  hm::bench::rule(96);
  const auto fig7 = hm::bench::fig7_summary(records, spec.chiplet_counts);
  for (std::size_t i = 0; i < fig7.rows.size(); ++i) {
    print_row(std::to_string(spec.chiplet_counts[i]), fig7.rows[i]);
    std::printf("\n");
  }
  const auto& avg = fig7.mean;
  hm::bench::rule(96);
  print_row("AVG", avg);
  std::printf("   (N >= 10)\n");
  std::printf(
      "thr = 100 x lnk x sat: lnk is the per-link bandwidth ratio (link "
      "model),\nsat the saturation-fraction ratio (simulation); bis is the "
      "bisection-links ratio\n(the Fig. 6b proxy).\n");

  std::printf("\nHeadline claims (theory: asymptotic, Sec. IV-D; practice: "
              "HM vs grid, AVG above):\n");
  std::printf("  diameter reduction:        %5.1f%%   (paper: 42%%)\n",
              100.0 * (1.0 - asymptotic_diameter_ratio_hm()));
  std::printf("  bisection BW improvement:  %5.1f%%   (paper: 130%%)\n",
              100.0 * (asymptotic_bisection_ratio_hm() - 1.0));
  std::printf("  latency reduction:         %5.1f%%   (paper: 19%%)\n",
              100.0 - avg[1]);
  std::printf("  throughput improvement:    %5.1f%%   (paper: 34%%)\n",
              avg[3] - 100.0);
  std::printf(
      "\nPaper (Sec. VI-C): BW/HM latency ~80%% of grid for N >= 10; "
      "throughput on\naverage 112%% (BW) and 134%% (HM) of the grid. "
      "Absolute throughput falls with N\n(per-link bandwidth shrinks as "
      "A_C = A_all/N).\n");
  hm::bench::maybe_export(records);
  return 0;
}
