// Wall-clock scaling of the parallel sweep engine: a Fig. 7-style sweep
// (grid / brickwall / HexaMesh, full cycle-accurate evaluation) over >= 20
// design points, run at 1/2/4/8 threads. Verifies on the way that every
// thread count produces byte-identical CSV output — the determinism
// guarantee that makes the parallel engine a drop-in replacement for the
// sequential loops — and reports the speedup per thread count.
//
// Shortened measurement windows keep the absolute runtime benchable; the
// parallel structure (independent designs, fresh simulators, per-job seeds)
// is identical to the paper-length sweep.
//
// Usage: bench_sweep_scaling   (no arguments)
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "perf_json.hpp"

int main(int argc, char** argv) {
  hm::bench::parse_perf_args(argc, argv, nullptr);
  using namespace hm::core;
  hm::bench::header("Sweep-engine scaling — wall-clock speedup vs threads",
                    "engineering metric for the Fig. 7 sweeps (not a paper "
                    "figure)");

  EvaluationParams params;
  params.latency_warmup = 500;
  params.latency_measure = 1500;
  params.latency_drain_limit = 100000;
  params.throughput_warmup = 1000;
  params.throughput_measure = 1000;

  hm::explore::SweepSpec spec;
  spec.types = hm::bench::compared_types();
  spec.chiplet_counts = {4, 7, 9, 12, 16, 19, 25};
  spec.param_grid = {params};
  const std::size_t points = spec.points().size();
  std::printf("sweep: %zu design points, full evaluation (latency + "
              "saturation search)\n",
              points);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  std::printf("%8s | %10s | %8s | %s\n", "threads", "wall [s]", "speedup",
              "output vs 1-thread");
  hm::bench::rule(56);

  std::map<std::string, double> metrics;
  metrics["sweep21.points"] = static_cast<double>(points);
  // Recorded so the CI perf gate can tell real scaling regressions from
  // runs on hosts with too few cores to scale at all.
  metrics["host.hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  double base_seconds = 0.0;
  bool all_identical = true;
  std::string base_csv;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    hm::explore::SweepEngine::Options opt;
    opt.threads = threads;
    opt.use_cache = false;  // every run does the full work, fair comparison
    hm::explore::SweepEngine engine(opt);

    const auto start = std::chrono::steady_clock::now();
    const auto records = engine.run(spec);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    const std::string csv = hm::explore::to_csv(records);
    if (threads == 1) {
      base_seconds = seconds;
      base_csv = csv;
    }
    all_identical = all_identical && csv == base_csv;
    metrics["sweep21.wall_s.t" + std::to_string(threads)] = seconds;
    metrics["sweep21.speedup.t" + std::to_string(threads)] =
        base_seconds / seconds;
    std::printf("%8u | %10.2f | %7.2fx | %s\n", threads, seconds,
                base_seconds / seconds,
                csv == base_csv ? "byte-identical" : "MISMATCH");
    std::fflush(stdout);
  }
  metrics["sweep21.csv_byte_identical"] = all_identical ? 1.0 : 0.0;
  // Perf trajectory across PRs: BENCH_perf.json carries reference
  // wall-clocks of earlier engines (sweep21.seed_wall_s.t8 = the
  // pre-topology-sharing engine on this sweep); report the speedup of the
  // current engine against them when present.
  const auto existing =
      hm::bench::load_perf_json(hm::bench::perf_json_path());
  if (const auto it = existing.find("sweep21.seed_wall_s.t8");
      it != existing.end()) {
    metrics["sweep21.speedup_vs_seed.t8"] =
        it->second / metrics["sweep21.wall_s.t8"];
  }
  hm::bench::update_perf_json(metrics);

  std::printf(
      "\nExpected: near-linear speedup up to the physical core count\n"
      "(>2x at 4 threads on >= 4 cores); identical CSV at every thread\n"
      "count. On fewer cores the speedup saturates at the core count.\n");
  return 0;
}
