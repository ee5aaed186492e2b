// Shared helpers for the reproduction harnesses: sweep selection, parallel
// evaluation through the explore::SweepEngine, result export, the Fig. 7
// ratios, and table formatting. Each bench binary regenerates one
// table/figure of the paper. Environment knobs:
//   HM_THREADS=K      sweep with K threads (default: hardware concurrency)
//   HM_CSV=path       additionally export the raw sweep records as CSV
//   HM_JSON=path      additionally export the raw sweep records as JSON
//   HM_FULL_SWEEP=1   run every chiplet count instead of the decimated set;
//                     read only by simulation_sweep(), so only drivers
//                     whose counts come from it (bench_fig7,
//                     bench_ablation_fig7) honour it
#pragma once

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "../examples/cli_util.hpp"
#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"

namespace hm::bench {

/// True when the environment requests the full N = 2..100 sweep.
inline bool full_sweep_requested() {
  const char* env = std::getenv("HM_FULL_SWEEP");
  return env != nullptr && std::string(env) == "1";
}

/// Chiplet counts used by the simulation figures (Fig. 7). The decimated
/// default covers all regularity classes of each arrangement and all paper-
/// relevant scales; the full sweep reproduces every point.
inline std::vector<std::size_t> simulation_sweep() {
  if (full_sweep_requested()) {
    std::vector<std::size_t> all;
    for (std::size_t n = 2; n <= 100; ++n) all.push_back(n);
    return all;
  }
  return {2, 4, 7, 9, 16, 19, 25, 36, 37, 49, 64, 91, 100};
}

/// Chiplet counts used by the analytic figures (Fig. 6); cheap, so always
/// the full range the paper plots.
inline std::vector<std::size_t> analytic_sweep() {
  std::vector<std::size_t> all;
  for (std::size_t n = 1; n <= 100; ++n) all.push_back(n);
  return all;
}

/// Short class tag matching the paper's legend entries.
inline const char* class_tag(core::RegularityClass c) {
  switch (c) {
    case core::RegularityClass::kRegular: return "regular";
    case core::RegularityClass::kSemiRegular: return "semi-reg";
    case core::RegularityClass::kIrregular: return "irregular";
  }
  return "?";
}

/// The three rectangular arrangement families compared throughout Sec. VI.
inline const std::vector<core::ArrangementType>& compared_types() {
  static const std::vector<core::ArrangementType> kTypes = {
      core::ArrangementType::kGrid, core::ArrangementType::kBrickwall,
      core::ArrangementType::kHexaMesh};
  return kTypes;
}

/// Prints a horizontal rule sized for `width` columns.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Prints the standard bench header. Drivers whose chiplet counts come from
/// simulation_sweep() pass `simulation_counts` to say which N list runs; no
/// other driver's counts depend on HM_FULL_SWEEP.
inline void header(const std::string& what, const std::string& paper_ref,
                   bool simulation_counts = false) {
  std::printf("== %s ==\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  if (simulation_counts) {
    std::printf("sweep: %s\n",
                full_sweep_requested()
                    ? "full"
                    : "decimated (set HM_FULL_SWEEP=1 for every N)");
  }
  std::printf("\n");
}

/// Sweep concurrency: HM_THREADS, defaulting to the hardware (0, as for
/// design_sweep --threads). A malformed value exits 1 with a message.
inline unsigned sweep_threads() {
  const char* env = std::getenv("HM_THREADS");
  if (env == nullptr) return 0;  // ThreadPool resolves 0 to the hardware
  return cli::require_unsigned(env, "HM_THREADS", 0, 4096);
}

/// Runs `spec` on a fresh SweepEngine with the standard bench options and
/// a one-line progress ticker on stderr.
inline std::vector<explore::SweepRecord> run_sweep(
    const explore::SweepSpec& spec) {
  explore::SweepEngine::Options opt;
  opt.threads = sweep_threads();
  opt.on_progress = [](const explore::SweepProgress& p) {
    std::fprintf(stderr, "\r[%zu/%zu] designs evaluated", p.completed,
                 p.total);
    if (p.completed == p.total) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  };
  explore::SweepEngine engine(opt);
  return engine.run(spec);
}

/// Honours HM_CSV / HM_JSON: exports the raw records next to the printed
/// table so plots can be regenerated without re-simulating. The env var
/// selects the format regardless of the path's extension. An unwritable
/// path is reported on stderr, not allowed to abort a bench whose
/// simulations already ran.
inline void maybe_export(const std::vector<explore::SweepRecord>& records) {
  const auto attempt = [&](const char* env,
                           void (*write)(const std::string&,
                                         const std::vector<
                                             explore::SweepRecord>&)) {
    const char* path = std::getenv(env);
    if (path == nullptr) return;
    try {
      write(path, records);
      std::printf("\nraw records exported: %s\n", path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s export failed: %s\n", env, e.what());
    }
  };
  attempt("HM_CSV", explore::write_csv_file);
  attempt("HM_JSON", explore::write_json_file);
}

/// Finds the record for (type, n, param set, traffic set) in sweep output.
inline const explore::SweepRecord* find_record(
    const std::vector<explore::SweepRecord>& records,
    core::ArrangementType type, std::size_t n, std::size_t param_index = 0,
    std::size_t traffic_index = 0) {
  for (const auto& r : records) {
    if (r.point.type == type && r.point.chiplet_count == n &&
        r.point.param_index == param_index &&
        r.point.traffic_index == traffic_index) {
      return &r;
    }
  }
  return nullptr;
}

/// find_record, but fail-loud: a bench table must never print silent
/// zeros for a design whose evaluation failed or is missing.
inline const explore::SweepRecord& record_or_die(
    const std::vector<explore::SweepRecord>& records,
    core::ArrangementType type, std::size_t n, std::size_t param_index = 0,
    std::size_t traffic_index = 0) {
  const auto* rec = find_record(records, type, n, param_index, traffic_index);
  if (rec == nullptr) {
    std::fprintf(stderr, "no sweep record for %s N=%zu\n",
                 core::to_string(type).c_str(), n);
    std::exit(1);
  }
  if (!rec->error.empty()) {
    std::fprintf(stderr, "evaluation failed for %s N=%zu: %s\n",
                 core::to_string(type).c_str(), n, rec->error.c_str());
    std::exit(1);
  }
  return *rec;
}

/// Brickwall and HexaMesh over the grid at one N, as column pairs (BW, HM):
/// latency and throughput in percent, then per-link bandwidth, saturation
/// fraction and bisection links as plain ratios.
using RatioRow = std::array<double, 10>;

/// The Fig. 7 numbers of one parameter set of a sweep over compared_types():
/// the per-N ratio rows and their means over N >= 10, the paper's averaging
/// (Sec. VI-C), plus each family's own means over the same N.
struct Fig7Summary {
  std::vector<RatioRow> rows;  ///< one per chiplet count, in sweep order
  RatioRow mean{};             ///< of the rows with N >= 10
  /// Per family in compared_types() order (grid, brickwall, HexaMesh):
  /// mean zero-load latency [cycles] and mean saturation fraction.
  std::array<double, 3> latency{};
  std::array<double, 3> fraction{};
};

/// Summarizes parameter set `param_index` of `records` over `counts`. Exits
/// 1 (record_or_die) when a design's record is missing or failed.
inline Fig7Summary fig7_summary(
    const std::vector<explore::SweepRecord>& records,
    const std::vector<std::size_t>& counts, std::size_t param_index = 0) {
  Fig7Summary s;
  std::size_t tail = 0;
  for (std::size_t n : counts) {
    std::array<core::EvaluationResult, 3> r;
    for (std::size_t f = 0; f < r.size(); ++f) {
      r[f] = record_or_die(records, compared_types()[f], n, param_index)
                 .result;
    }
    const auto& [g, b, h] = r;
    s.rows.push_back(
        {100.0 * b.zero_load_latency_cycles / g.zero_load_latency_cycles,
         100.0 * h.zero_load_latency_cycles / g.zero_load_latency_cycles,
         100.0 * b.saturation_throughput_bps / g.saturation_throughput_bps,
         100.0 * h.saturation_throughput_bps / g.saturation_throughput_bps,
         b.per_link_bandwidth_bps / g.per_link_bandwidth_bps,
         h.per_link_bandwidth_bps / g.per_link_bandwidth_bps,
         b.saturation_fraction / g.saturation_fraction,
         h.saturation_fraction / g.saturation_fraction,
         static_cast<double>(b.bisection_links) / g.bisection_links,
         static_cast<double>(h.bisection_links) / g.bisection_links});
    if (n < 10) continue;
    ++tail;
    for (std::size_t c = 0; c < s.mean.size(); ++c) {
      s.mean[c] += s.rows.back()[c];
    }
    for (std::size_t f = 0; f < r.size(); ++f) {
      s.latency[f] += r[f].zero_load_latency_cycles;
      s.fraction[f] += r[f].saturation_fraction;
    }
  }
  const auto divide = [&](auto& sums) {
    for (double& v : sums) v /= static_cast<double>(tail);
  };
  divide(s.mean);
  divide(s.latency);
  divide(s.fraction);
  return s;
}

}  // namespace hm::bench
