// Design sweep: for a range of chiplet counts, evaluate grid vs HexaMesh
// end to end (simulation included) and recommend the better arrangement per
// design point — the decision a 2.5D system architect faces. The sweep runs
// through the explore::SweepEngine: all design points in parallel, with
// deterministic per-job seeding (the output is identical at any thread
// count) and optional CSV export of the raw records.
//
// With --search S, every HexaMesh start is first improved by a short
// parallel-tempering run (S steps; search/tempering.hpp) and the searched
// arrangements ride in the same sweep as extra labelled points
// (SweepEngine::add_arrangement), so the CSV compares searched vs. stock
// families under identical seeding.
//
//   ./design_sweep [N1 N2 ...]              (default: 16 25 37 64)
//   ./design_sweep --threads K [N...]       sweep with K threads
//   ./design_sweep --csv out.csv [N...]     export raw records as CSV
//                                           (.json exports JSON; with
//                                           --telemetry the JSON gains a
//                                           "telemetry" snapshot block)
//   ./design_sweep --search S [N...]        add tempering-searched points
//   ./design_sweep --faults K [N...]        score every point under K seeded
//                                           single-link kills too (adds the
//                                           fault_* columns to the export)
//   ./design_sweep --telemetry [N...]       print the metrics snapshot
//   ./design_sweep --trace out.json [N...]  record a Chrome trace (Perfetto)
//   ./design_sweep --cache-dir DIR [N...]   persist results in an on-disk
//                                           store (also via HM_CACHE_DIR;
//                                           the flag wins) — a warm re-run
//                                           skips every simulation
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "search/tempering.hpp"
#include "store/result_store.hpp"

int main(int argc, char** argv) {
  using namespace hm::core;
  const auto tcli = hm::cli::TelemetryCli::extract(argc, argv);
  tcli.begin();
  std::vector<std::size_t> sweep;
  unsigned threads = 0;  // hardware concurrency
  std::size_t search_steps = 0;
  std::size_t fault_kills = 0;
  std::string csv_path;
  std::string cache_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 ||
        std::strcmp(argv[i], "--csv") == 0 ||
        std::strcmp(argv[i], "--search") == 0 ||
        std::strcmp(argv[i], "--cache-dir") == 0 ||
        std::strcmp(argv[i], "--faults") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        return 1;
      }
      if (std::strcmp(argv[i], "--threads") == 0) {
        threads = hm::cli::require_unsigned(argv[++i], "--threads", 0, 4096);
      } else if (std::strcmp(argv[i], "--search") == 0) {
        search_steps =
            hm::cli::require_size(argv[++i], "--search steps", 1, 1000000);
      } else if (std::strcmp(argv[i], "--faults") == 0) {
        fault_kills =
            hm::cli::require_size(argv[++i], "--faults kill count", 1, 64);
      } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
        cache_dir = argv[++i];
      } else {
        csv_path = argv[++i];
      }
      continue;
    }
    sweep.push_back(hm::cli::require_size(argv[i], "chiplet count", 2,
                                          hm::cli::kMaxChiplets));
  }
  if (sweep.empty()) sweep = {16, 25, 37, 64};

  EvaluationParams params;
  params.latency_measure = 6000;  // quick interactive settings
  params.throughput_warmup = 5000;
  params.throughput_measure = 5000;
  if (fault_kills > 0) {
    params.faults.single_link_kills = static_cast<int>(fault_kills);
  }

  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kGrid, ArrangementType::kHexaMesh};
  spec.chiplet_counts = sweep;
  spec.param_grid = {params};

  hm::explore::SweepEngine::Options opt;
  opt.threads = threads;
  // --cache-dir wins over the HM_CACHE_DIR environment variable; either
  // arms the persistent result store under the sweep cache.
  opt.cache_dir = hm::store::ResultStore::resolve_dir(cache_dir);
  opt.on_progress = [](const hm::explore::SweepProgress& p) {
    std::fprintf(stderr, "\r[%zu/%zu] designs evaluated", p.completed,
                 p.total);
    if (p.completed == p.total) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  };
  hm::explore::SweepEngine engine(opt);

  try {
    if (search_steps > 0) {
      // Short tempering runs warm-start the sweep: the searched best of
      // every HexaMesh start joins the sweep as a labelled extra point.
      hm::search::TemperingOptions topt;
      topt.replicas = 3;
      topt.steps = search_steps;
      topt.threads = threads;
      topt.params = params;
      topt.params.throughput_warmup = 2000;  // search-speed windows
      topt.params.throughput_measure = 2000;
      topt.cache_dir = opt.cache_dir;  // share the persistent store
      // One engine for every sweep size: runs share the worker pool and
      // the sharded result cache (TemperingEngine::run is re-entrant).
      hm::search::TemperingEngine searcher(topt);
      for (const std::size_t n : sweep) {
        const auto res =
            searcher.run(make_arrangement(ArrangementType::kHexaMesh, n));
        engine.add_arrangement(res.best,
                               "hexamesh-searched-N" + std::to_string(n));
        std::fprintf(stderr,
                     "searched N=%zu: best/baseline = %.4f (%zu evals)\n", n,
                     res.baseline_score > 0.0
                         ? res.best_score / res.baseline_score
                         : 0.0,
                     res.evaluations);
      }
    }

    const auto records = engine.run(spec);

    std::printf("%4s | %-26s | %-26s | %s\n", "N", "grid (lat, thr)",
                "hexamesh (lat, thr)", "recommendation");
    for (int i = 0; i < 84; ++i) std::putchar('-');
    std::putchar('\n');

    const auto find = [&records](ArrangementType type, std::size_t n)
        -> const hm::explore::SweepRecord& {
      for (const auto& r : records) {
        if (r.point.type == type && r.point.chiplet_count == n &&
            !r.point.custom) {
          return r;
        }
      }
      std::abort();  // every requested point has a record
    };

    for (std::size_t n : sweep) {
      const auto& g = find(ArrangementType::kGrid, n).result;
      const auto& h = find(ArrangementType::kHexaMesh, n).result;
      const double lat_gain = 1.0 - h.zero_load_latency_cycles /
                                        g.zero_load_latency_cycles;
      const double thr_gain = h.saturation_throughput_bps /
                                  g.saturation_throughput_bps -
                              1.0;
      const bool hm_wins = lat_gain > 0.0 && thr_gain > 0.0;
      std::printf("%4zu | %7.1f cyc, %7.2f Tb/s | %7.1f cyc, %7.2f Tb/s | "
                  "%s (lat %+.0f%%, thr %+.0f%%)\n",
                  n, g.zero_load_latency_cycles,
                  g.saturation_throughput_bps / 1e12,
                  h.zero_load_latency_cycles,
                  h.saturation_throughput_bps / 1e12,
                  hm_wins ? "HexaMesh" : "mixed", -100.0 * lat_gain,
                  100.0 * thr_gain);
    }

    if (fault_kills > 0) {
      std::printf("\nresilience (%zu single-link kills, worst case):\n",
                  fault_kills);
      for (std::size_t n : sweep) {
        const auto& g = find(ArrangementType::kGrid, n).result;
        const auto& h = find(ArrangementType::kHexaMesh, n).result;
        std::printf("%4zu | grid %6.2f Tb/s | hexamesh %6.2f Tb/s\n", n,
                    g.fault_robust_throughput_bps / 1e12,
                    h.fault_robust_throughput_bps / 1e12);
      }
    }

    if (search_steps > 0) {
      std::printf("\nsearched points (tempering, %zu steps):\n",
                  search_steps);
      for (const auto& r : records) {
        if (!r.point.custom) continue;
        std::printf("%4zu | searched: %7.1f cyc, %7.2f Tb/s (%s)\n",
                    r.point.chiplet_count,
                    r.result.zero_load_latency_cycles,
                    r.result.saturation_throughput_bps / 1e12,
                    r.point.label.c_str());
      }
    }

    if (!csv_path.empty()) {
      if (tcli.telemetry && hm::explore::is_json_path(csv_path)) {
        // Opt-in richer export: the plain record array plus the current
        // telemetry snapshot. Plain exports stay byte-identical (goldens).
        std::ofstream os(csv_path);
        if (!os) throw std::runtime_error("cannot open " + csv_path);
        hm::explore::write_json_with_telemetry(os, records);
      } else {
        hm::explore::export_file(csv_path, records);
      }
      std::printf("\nraw records exported: %s\n", csv_path.c_str());
    }

    if (!opt.cache_dir.empty()) {
      engine.cache().flush_to_store();
      const auto stats =
          hm::store::ResultStore::open(opt.cache_dir)->stats();
      std::fprintf(stderr,
                   "store %s: %zu entries, %zu segments, %llu bytes\n",
                   opt.cache_dir.c_str(), stats.entries, stats.segments,
                   static_cast<unsigned long long>(stats.disk_bytes));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  tcli.finish();
  return 0;
}
