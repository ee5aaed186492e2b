// Ablation: traffic pattern vs saturation throughput. The paper evaluates
// uniform random traffic only; this sweep adds the classic adversarial
// patterns (hotspot, bit-complement, random permutation) to show that the
// HexaMesh advantage is not an artifact of the uniform pattern. One
// SweepEngine run covers the whole (arrangement x pattern) grid in
// parallel, and the result cache shares each design's analytic half across
// all four patterns.
#include <cstdio>

#include "bench_util.hpp"
#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/sweep.hpp"

int main() {
  using namespace hm::core;
  using hm::noc::TrafficPattern;
  using hm::noc::TrafficSpec;

  hm::bench::header("Ablation — traffic pattern vs saturation throughput",
                    "robustness of the Fig. 7b comparison beyond uniform "
                    "traffic");

  TrafficSpec uniform;
  TrafficSpec hotspot;
  hotspot.pattern = TrafficPattern::kHotspot;
  hotspot.hotspot_fraction = 0.2;
  // Chiplet 0's two endpoints. Chiplet 0 is the grid's corner (lattice
  // (0,0)) but HexaMesh's centre (ball() puts id 0 there).
  hotspot.hotspots = {0, 1};
  TrafficSpec bitcomp;
  bitcomp.pattern = TrafficPattern::kBitComplement;
  TrafficSpec perm;
  perm.pattern = TrafficPattern::kPermutation;
  perm.permutation_seed = 7;

  EvaluationParams params;
  params.measure_latency = false;
  params.throughput_warmup = 3000;
  params.throughput_measure = 3000;

  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kGrid, ArrangementType::kHexaMesh};
  spec.chiplet_counts = {36, 37};
  spec.param_grid = {params};
  spec.traffic_grid = {uniform, hotspot, bitcomp, perm};
  spec.derive_per_job_seeds = false;  // one fixed seed across the ablation
  const auto records = hm::bench::run_sweep(spec);

  std::printf("%-30s | %9s | %9s | %9s | %9s\n", "arrangement", "uniform",
              "hotspot", "bitcomp", "perm");
  hm::bench::rule(80);
  for (std::size_t n : spec.chiplet_counts) {
    for (auto type : spec.types) {
      const auto name = make_arrangement(type, n).name();
      std::printf("%-30s", name.c_str());
      for (std::size_t ti = 0; ti < spec.traffic_grid.size(); ++ti) {
        const auto& rec = hm::bench::record_or_die(records, type, n, 0, ti);
        std::printf(" | %9.4f", rec.result.saturation_fraction);
      }
      std::printf("\n");
    }
  }

  std::printf(
      "\nExpected: hotspot saturates at the hotspot's ejection capacity for\n"
      "both arrangements; HM keeps its edge under bit-complement and\n"
      "permutation (long-haul patterns stress the diameter).\n");
  hm::bench::maybe_export(records);
  return 0;
}
