// Fig. 7's practical headline under simulator ablations. A named table of
// EvaluationParams variants runs as one SweepEngine pass over bench_fig7's
// designs, chiplet counts and fixed seed. Per variant it prints the N >= 10
// means of the latency and throughput ratios over the grid (HexaMesh, and
// brickwall's throughput), then each family's mean zero-load latency and
// saturation fraction over the same N. The variants cover the routing mode,
// the virtual channels, the buffer depth, the packet length, the D2D link
// latency and the throughput windows; the paper-default row repeats
// bench_fig7's headline digits. Chiplet counts are decimated unless
// HM_FULL_SWEEP=1.
#include <cstdio>
#include <iterator>

#include "bench_util.hpp"
#include "explore/sweep.hpp"

namespace {

using hm::core::EvaluationParams;
using hm::noc::RoutingMode;

struct Variant {
  const char* name;
  void (*apply)(EvaluationParams&);  ///< edits the paper-default params
};

constexpr Variant kVariants[] = {
    {"paper default", [](EvaluationParams&) {}},
    {"up*/down*-only routing",
     [](EvaluationParams& p) { p.sim.routing = RoutingMode::kUpDownOnly; }},
    {"deterministic minimal routing",
     [](EvaluationParams& p) {
       p.sim.routing = RoutingMode::kDeterministicMinimal;
     }},
    {"4 VCs", [](EvaluationParams& p) { p.sim.vcs = 4; }},
    {"16 VCs", [](EvaluationParams& p) { p.sim.vcs = 16; }},
    {"32-flit buffers", [](EvaluationParams& p) { p.sim.buffer_depth = 32; }},
    {"1-flit packets", [](EvaluationParams& p) { p.sim.packet_length = 1; }},
    {"8-flit packets", [](EvaluationParams& p) { p.sim.packet_length = 8; }},
    {"9-cycle links", [](EvaluationParams& p) { p.sim.link_latency = 9; }},
    {"45-cycle links", [](EvaluationParams& p) { p.sim.link_latency = 45; }},
    {"10k+10k-cycle windows",
     [](EvaluationParams& p) {
       p.throughput_warmup = 10000;
       p.throughput_measure = 10000;
     }},
};

}  // namespace

int main() {
  hm::bench::header("Fig. 7 ablations — the headline under simulator variants",
                    "sensitivity of Fig. 7c/d's N >= 10 averages to the "
                    "Sec. VI-A simulator settings",
                    /*simulation_counts=*/true);

  hm::explore::SweepSpec spec;
  spec.types = hm::bench::compared_types();
  spec.chiplet_counts = hm::bench::simulation_sweep();
  spec.param_grid.clear();
  for (const auto& v : kVariants) v.apply(spec.param_grid.emplace_back());
  spec.derive_per_job_seeds = false;
  const auto records = hm::bench::run_sweep(spec);

  std::printf("%-29s | %-23s | %-20s | %s\n", "",
              "ratio to grid (N >= 10)", "zero-load lat [cyc]",
              "saturation fraction");
  std::printf("%-29s | %7s %7s %7s | %6s %6s %6s | %6s %6s %6s\n", "variant",
              "HM lat", "HM thr", "BW thr", "grid", "brickw", "hexa", "grid",
              "brickw", "hexa");
  hm::bench::rule(101);
  for (std::size_t v = 0; v < std::size(kVariants); ++v) {
    const auto s = hm::bench::fig7_summary(records, spec.chiplet_counts, v);
    std::printf("%-29s | %+6.1f%% %+6.1f%% %+6.1f%% | %6.1f %6.1f %6.1f |"
                " %6.3f %6.3f %6.3f\n",
                kVariants[v].name, s.mean[1] - 100.0, s.mean[3] - 100.0,
                s.mean[2] - 100.0, s.latency[0], s.latency[1], s.latency[2],
                s.fraction[0], s.fraction[1], s.fraction[2]);
  }
  std::printf(
      "\nThe ratios are bench_fig7's AVG columns (HM lat%%, HM thr%%, BW "
      "thr%%) minus 100%%;\nthe paper reports -19%%, +34%% and +12%% "
      "(Sec. VI-C). Each row changes one\nsetting of the paper default.\n");
  hm::bench::maybe_export(records);
  return 0;
}
