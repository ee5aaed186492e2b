// Shared helpers for the reproduction harnesses: sweep selection, parallel
// evaluation through the explore::SweepEngine, result export, and table
// formatting. Each bench binary regenerates one table/figure of the paper.
// Environment knobs honoured by every sweep-engine-based driver:
//   HM_FULL_SWEEP=1   run every chiplet count instead of the decimated set
//   HM_THREADS=K      sweep with K threads (default: hardware concurrency)
//   HM_CSV=path       additionally export the raw sweep records as CSV
//   HM_JSON=path      additionally export the raw sweep records as JSON
#pragma once

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

/// Prints the standard bench header.
inline void header(const std::string& what, const std::string& paper_ref) {
  std::printf("== %s ==\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  if (!full_sweep_requested()) {
    std::printf("sweep: decimated (set HM_FULL_SWEEP=1 for every N)\n");
  } else {
    std::printf("sweep: full\n");
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

}  // namespace hm::bench
