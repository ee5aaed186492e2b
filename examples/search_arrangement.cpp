// Arrangement search: start from a stock family arrangement and hunt for a
// better one with the mutation-based optimizers, scoring candidates with
// the paper's cycle-accurate pipeline. Two engines run on one chain core
// (search/chain.hpp) with the same move set and objective: the
// single-chain local search (hill climb / simulated annealing) and the
// population-based parallel tempering of search/tempering.hpp. Prints the
// baseline vs. the best state found (coldest-first final ladder for
// tempering) and, optionally, exports the deterministic step-by-step trace.
//
//   ./search_arrangement [grid|brickwall|hexamesh] [N] [steps]
//       --anneal            simulated annealing instead of hill climbing
//       --tempering K       parallel tempering with K replicas
//       --exchange I        tempering swap attempt every I steps (default 4)
//       --objective O       throughput (default) | latency |
//                           throughput-per-area (thr per mm^2 of D2D links) |
//                           robust (worst-case thr over a fault scenario)
//       --area-weight W     scalarization knob of throughput-per-area
//       --latency           shorthand for --objective latency
//       --fault-kills K     robust objective: score each candidate under K
//                           seeded single-link kills (default 2)
//       --threads K         candidate-evaluation concurrency (default: hw)
//       --seed S            search RNG base seed (default 42)
//       --trace out.csv     export the search trace (.json for JSON)
//       --cache-dir DIR     persist candidate results in an on-disk store
//                           (also via HM_CACHE_DIR; the flag wins)
//       --telemetry         print the metrics snapshot on exit
//       --chrome-trace F    record a Chrome trace (load in Perfetto);
//                           distinct from --trace, which stays the
//                           deterministic step-by-step search CSV
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_util.hpp"
#include "core/arrangement.hpp"
#include "noc/routing.hpp"
#include "search/search.hpp"
#include "search/tempering.hpp"
#include "store/result_store.hpp"

namespace {

void usage_and_exit(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [grid|brickwall|hexamesh] [N] [steps] [--anneal] "
      "[--tempering K] [--exchange I] [--objective thr|latency|"
      "thr-per-area|robust] [--area-weight W] [--latency] "
      "[--fault-kills K] [--threads K] "
      "[--seed S] [--trace out.csv] [--cache-dir DIR] [--telemetry] "
      "[--chrome-trace out.json]\n",
      argv0);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hm;
  // --trace here is the deterministic search CSV (CI diffs it across
  // thread counts), so the Chrome trace rides on --chrome-trace instead.
  const auto tcli =
      hm::cli::TelemetryCli::extract(argc, argv, "--chrome-trace");
  tcli.begin();

  std::string family = "hexamesh";
  std::size_t n = 37;
  std::size_t steps = 32;
  std::size_t tempering_replicas = 0;  // 0 = single-chain engine
  std::size_t exchange_interval = 4;
  bool exchange_set = false;
  bool anneal = false;
  hm::search::ObjectiveSpec objective;
  int fault_kills = 0;  // 0 = objective default (robust: 2 single kills)
  unsigned threads = 0;
  unsigned long long seed = 42;
  std::string trace_path;
  std::string cache_dir;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--anneal") == 0) {
      anneal = true;
    } else if (std::strcmp(argv[i], "--tempering") == 0) {
      tempering_replicas = hm::cli::require_size(
          need_value("--tempering"), "--tempering replica count", 1, 64);
    } else if (std::strcmp(argv[i], "--exchange") == 0) {
      exchange_interval = hm::cli::require_size(
          need_value("--exchange"), "--exchange interval", 1, 1000000);
      exchange_set = true;
    } else if (std::strcmp(argv[i], "--objective") == 0) {
      const std::string o = need_value("--objective");
      if (o == "thr" || o == "throughput") {
        objective.kind = hm::search::Objective::kSaturationThroughput;
      } else if (o == "latency") {
        objective.kind = hm::search::Objective::kZeroLoadLatency;
      } else if (o == "thr-per-area" || o == "throughput-per-area") {
        objective.kind = hm::search::Objective::kThroughputPerLinkArea;
      } else if (o == "robust" || o == "robust-throughput") {
        objective.kind = hm::search::Objective::kRobustThroughput;
      } else {
        usage_and_exit(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--area-weight") == 0) {
      objective.area_weight = hm::cli::require_double(
          need_value("--area-weight"), "--area-weight", 0.0, 16.0);
    } else if (std::strcmp(argv[i], "--latency") == 0) {
      objective.kind = hm::search::Objective::kZeroLoadLatency;
    } else if (std::strcmp(argv[i], "--fault-kills") == 0) {
      fault_kills = static_cast<int>(hm::cli::require_size(
          need_value("--fault-kills"), "--fault-kills", 1, 64));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = hm::cli::require_unsigned(need_value("--threads"),
                                          "--threads", 0, 4096);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = hm::cli::require_u64(need_value("--seed"), "--seed");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = need_value("--trace");
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      cache_dir = need_value("--cache-dir");
    } else if (positional == 0) {
      family = argv[i];
      ++positional;
    } else if (positional == 1) {
      n = hm::cli::require_size(argv[i], "N", 1, hm::cli::kMaxChiplets);
      ++positional;
    } else if (positional == 2) {
      steps = hm::cli::require_size(argv[i], "steps", 1, 1000000);
      ++positional;
    } else {
      usage_and_exit(argv[0]);
    }
  }

  // Reject silently-inert flag combinations instead of misleading the
  // user about which schedule actually ran.
  if (tempering_replicas > 0 && anneal) {
    std::fprintf(stderr,
                 "--anneal applies to the single-chain engine only; "
                 "parallel tempering runs fixed-temperature replicas "
                 "(drop one of --anneal / --tempering)\n");
    return 1;
  }
  if (exchange_set && tempering_replicas == 0) {
    std::fprintf(stderr,
                 "--exchange requires --tempering (replica exchange has "
                 "no effect on the single-chain engine)\n");
    return 1;
  }

  core::ArrangementType type;
  if (family == "grid") {
    type = core::ArrangementType::kGrid;
  } else if (family == "brickwall") {
    type = core::ArrangementType::kBrickwall;
  } else if (family == "hexamesh") {
    type = core::ArrangementType::kHexaMesh;
  } else {
    usage_and_exit(argv[0]);
    return 1;  // unreachable
  }

  if (fault_kills > 0 &&
      objective.kind != hm::search::Objective::kRobustThroughput) {
    std::fprintf(stderr,
                 "--fault-kills requires --objective robust (other "
                 "objectives never run the fault scenario)\n");
    return 1;
  }

  // Interactive-speed measurement windows (the defaults are paper-length).
  core::EvaluationParams params;
  params.throughput_warmup = 2000;
  params.throughput_measure = 2000;
  params.latency_measure = 6000;
  if (fault_kills > 0) params.faults.single_link_kills = fault_kills;

  const bool robust =
      objective.kind == hm::search::Objective::kRobustThroughput;
  const bool thr =
      objective.kind != hm::search::Objective::kZeroLoadLatency;
  const auto value = [&](const core::EvaluationResult& r) {
    if (robust) return r.fault_robust_throughput_bps / 1e12;
    return thr ? r.saturation_throughput_bps / 1e12
               : r.zero_load_latency_cycles;
  };
  const char* unit = thr ? "Tb/s" : "cycles";

  try {
    const core::Arrangement start = core::make_arrangement(type, n);
    // The options both engines share; --cache-dir wins over HM_CACHE_DIR,
    // either arms the persistent store under whichever engine runs.
    const auto configure = [&](hm::search::ChainOptions& opt) {
      opt.objective = objective;
      opt.steps = steps;
      opt.threads = threads;
      opt.seed = seed;
      opt.params = params;
      opt.cache_dir = hm::store::ResultStore::resolve_dir(cache_dir);
    };
    const auto progress = [](const auto& p) {
      std::fprintf(stderr, "\r[%zu/%zu] best %.4g", p.step, p.total,
                   p.best_score);
      if (p.step == p.total) std::fprintf(stderr, "\n");
      std::fflush(stderr);
    };
    // Prints either engine's result and exports its trace.
    const auto report = [&](const hm::search::ChainResult& res,
                            const std::string& summary, const auto& trace) {
      std::printf("start:  %s — %.4g %s\n", start.name().c_str(),
                  value(res.baseline_result), unit);
      std::printf("best:   %s, %zu links — %.4g %s (%+.2f%% score)\n",
                  res.best.name().c_str(), res.best.graph().edge_count(),
                  value(res.best_result), unit,
                  100.0 * (res.best_score - res.baseline_score) /
                      std::abs(res.baseline_score));
      std::printf(
          "search: %s, %zu evaluations (%llu cache hits), %llu incremental "
          "table rebuilds, %.1f s\n",
          summary.c_str(), res.evaluations,
          static_cast<unsigned long long>(res.cache_hits),
          static_cast<unsigned long long>(res.incremental_rebuilds),
          res.wall_seconds);
      if (!trace_path.empty()) {
        hm::search::export_trace_file(trace_path, trace);
        std::printf("trace exported: %s\n", trace_path.c_str());
      }
    };

    if (tempering_replicas > 0) {
      hm::search::TemperingOptions opt;
      configure(opt);
      opt.replicas = tempering_replicas;
      opt.exchange_interval = exchange_interval;
      opt.on_progress = progress;
      const auto res = hm::search::TemperingEngine(opt).run(start);
      std::string summary = std::to_string(steps) + " steps x " +
                            std::to_string(opt.replicas) + " replicas, " +
                            std::to_string(res.exchange_accepts) + "/" +
                            std::to_string(res.exchange_attempts) +
                            " exchanges accepted, final ladder";
      for (const double t : res.temperatures) {
        char rung[32];
        std::snprintf(rung, sizeof(rung), " %.3g", t);
        summary += rung;
      }
      report(res, summary, res.trace);
    } else {
      hm::search::SearchOptions opt;
      configure(opt);
      opt.schedule = anneal ? hm::search::Schedule::kAnneal
                            : hm::search::Schedule::kHillClimb;
      opt.on_progress = progress;
      const auto res = hm::search::SearchEngine(opt).run(start);
      const auto accepted =
          std::count_if(res.trace.begin(), res.trace.end(),
                        [](const auto& s) { return s.accepted; });
      report(res,
             std::to_string(res.trace.size()) + " steps, " +
                 std::to_string(accepted) + " accepted",
             res.trace);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  tcli.finish();
  return 0;
}
