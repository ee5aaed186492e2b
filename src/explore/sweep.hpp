// Parallel design-space exploration engine.
//
// A SweepSpec describes a cartesian product
//     arrangement types x chiplet counts x EvaluationParams x TrafficSpec
// and the SweepEngine fans its points out across a ThreadPool, evaluating
// each with the Sec. VI pipeline (analytic proxies + cycle-accurate
// simulation). Three properties make the engine a measurement tool rather
// than just a speedup:
//   * Determinism — every job's RNG seed is derived from (base_seed, job
//     index) before execution, and each evaluation owns fresh simulators,
//     so an N-thread sweep is bit-identical to the 1-thread sweep (the CSV
//     exports compare equal byte for byte).
//   * Caching — results are keyed by stable content hashes, so the analytic
//     half of a design shared across traffic ablations is computed once,
//     and re-running an extended sweep only simulates the new points. The
//     cycle-accurate half runs on a shared immutable noc::TopologyContext,
//     so the routing tables of a design are built once per job chain (and
//     shared across jobs ablating the same graph), not once per probe.
//   * Collection — results arrive as an index-ordered SweepRecord vector
//     with CSV/JSON writers (explore/export.hpp) and a progress callback,
//     replacing the hand-rolled printf loops of the bench drivers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/result_cache.hpp"
#include "explore/thread_pool.hpp"
#include "noc/traffic.hpp"

namespace hm::explore {

/// One fully resolved design point of a sweep (after the cartesian
/// expansion and per-job seed derivation).
struct SweepPoint {
  std::size_t index = 0;  ///< stable job index within the sweep
  core::ArrangementType type = core::ArrangementType::kGrid;
  std::size_t chiplet_count = 0;
  std::size_t param_index = 0;    ///< position in SweepSpec::param_grid
  std::size_t traffic_index = 0;  ///< position in SweepSpec::traffic_grid
  core::EvaluationParams params;  ///< sim.seed already derived per job
  noc::TrafficSpec traffic;

  /// Warm-start point: when set, this exact arrangement is evaluated
  /// instead of make_arrangement(type, chiplet_count) — the mechanism that
  /// lets searched arrangements (SweepEngine::add_arrangement, as
  /// design_sweep --search uses it) ride in the same sweep as the stock
  /// families. `type`/`chiplet_count` mirror the custom arrangement;
  /// `label` replaces the family name in the CSV/JSON exports.
  std::shared_ptr<const core::Arrangement> custom;
  std::string label;
};

/// The sweep description. Empty grids default to a single entry.
struct SweepSpec {
  std::vector<core::ArrangementType> types = {
      core::ArrangementType::kGrid, core::ArrangementType::kBrickwall,
      core::ArrangementType::kHexaMesh};
  std::vector<std::size_t> chiplet_counts;
  std::vector<core::EvaluationParams> param_grid = {core::EvaluationParams{}};
  std::vector<noc::TrafficSpec> traffic_grid = {noc::TrafficSpec{}};

  /// false = analytic proxies + link model only (cheap, Fig. 4/6 style);
  /// true = full cycle-accurate evaluation (Fig. 7 style). Designs with a
  /// single chiplet are always analytic-only (no ICI to simulate).
  bool simulate = true;

  /// Base of the per-job seed derivation: job i simulates with
  /// sim.seed = noc::derive_seed(base_seed, i). Stable across thread
  /// counts by construction. Set derive_per_job_seeds = false to keep the
  /// seeds given in param_grid instead.
  unsigned long long base_seed = 42;
  bool derive_per_job_seeds = true;

  /// Expands the cartesian product in deterministic order (types outer,
  /// then counts, params, traffic) and derives per-job seeds. Throws
  /// std::invalid_argument when a traffic spec is malformed or a grid that
  /// must be non-empty is empty.
  [[nodiscard]] std::vector<SweepPoint> points() const;
};

/// Outcome of one sweep job. `error` is non-empty when the evaluation threw
/// (the sweep continues; the record keeps its slot).
struct SweepRecord {
  SweepPoint point;
  core::EvaluationResult result;
  bool analytic_only = false;
  /// True when the result came out of the cache. Timing-dependent under
  /// concurrency (two threads may both miss on a racing key), so exports
  /// exclude it — everything the CSV/JSON writers emit is deterministic.
  bool from_cache = false;
  double wall_seconds = 0.0;  ///< also nondeterministic; excluded from exports
  std::string error;
};

/// Progress snapshot passed to the callback after every completed job.
struct SweepProgress {
  std::size_t completed = 0;
  std::size_t total = 0;
  const SweepRecord* last = nullptr;  ///< the record that just finished
};

/// Fans sweep jobs out across a thread pool, with result caching shared
/// across runs of the same engine.
class SweepEngine {
 public:
  struct Options {
    /// Total worker concurrency (see ThreadPool); 0 = hardware threads.
    unsigned threads = 0;
    bool use_cache = true;
    /// Directory of a persistent store::ResultStore attached under the
    /// cache (opened/created in the constructor; empty = memory only).
    /// A warm store turns re-runs of the same sweep into pure lookups.
    /// Flushed to disk when the engine is destroyed; flush earlier via
    /// cache().flush_to_store().
    std::string cache_dir;
    /// Called after every completed job, serialized (never concurrently).
    std::function<void(const SweepProgress&)> on_progress;
  };

  SweepEngine();
  explicit SweepEngine(Options options);

  /// Registers an explicit arrangement (e.g. the best state of a
  /// search/tempering run) as an extra sweep point. Every subsequent run()
  /// appends one point per (registered arrangement x param_grid x
  /// traffic_grid entry) after the cartesian family points, with per-job
  /// seeds derived from the continued index sequence — so warm-started
  /// sweeps stay deterministic at any thread count and searched points
  /// share the cache with everything else. `label` replaces the family
  /// name in exports (empty = the arrangement's name()). Registered
  /// arrangements persist across run() calls; clear_arrangements() resets.
  void add_arrangement(core::Arrangement arrangement, std::string label = "");
  void clear_arrangements() noexcept { extra_.clear(); }
  [[nodiscard]] std::size_t arrangement_count() const noexcept {
    return extra_.size();
  }

  /// Runs every point of the sweep (the spec's cartesian product plus any
  /// arrangements registered via add_arrangement); records are returned in
  /// point order regardless of completion order. Re-entrant per engine:
  /// call run() repeatedly to reuse the cache across related sweeps.
  [[nodiscard]] std::vector<SweepRecord> run(const SweepSpec& spec);

  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_.thread_count();
  }

 private:
  struct ExtraArrangement {
    std::shared_ptr<const core::Arrangement> arrangement;
    std::string label;
  };

  SweepRecord evaluate_point(const SweepPoint& point);

  Options options_;
  ThreadPool pool_;
  ResultCache cache_;
  std::vector<ExtraArrangement> extra_;
  std::mutex progress_mu_;
};

}  // namespace hm::explore
