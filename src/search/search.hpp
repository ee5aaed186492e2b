// Local-search arrangement optimizer (hill climbing + simulated annealing).
//
// The sweep engine (explore/sweep.hpp) *enumerates* the three fixed
// arrangement families; SearchEngine *searches* the wider space of
// (site occupancy, link subset) states around a start arrangement using the
// mutation operators of search/mutation.hpp, scoring every candidate
// through the same Sec. VI evaluate() pipeline the sweeps use.
//
// It is the single-chain (K = 1) case of the chain core in
// search/chain.hpp, on a cooling schedule: hill climbing runs at
// temperature 0 (strict improvements only), annealing at a geometrically
// cooled temperature scaled off the baseline score. Step s draws from
// noc::derive_seed(options.seed, s); the trace is bit-identical at any
// thread count — pinned by test_search.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "search/chain.hpp"

namespace hm::search {

/// Acceptance schedules.
enum class Schedule {
  kHillClimb,  ///< accept strictly improving candidates only
  kAnneal,     ///< Metropolis acceptance with geometric cooling
};

struct SearchProgress;

struct SearchOptions : ChainOptions {
  Schedule schedule = Schedule::kHillClimb;

  /// Per-step decay of the annealing temperature, in (0, 1].
  double cooling = 0.92;

  /// Called after every completed step, on the calling thread.
  std::function<void(const SearchProgress&)> on_progress;
};

/// One step of the search trace (see ChainStep).
struct SearchStep : ChainStep {
  bool temperature_floored = false;  ///< min_temperature bound this step's
                                     ///< temperature
};

struct SearchProgress {
  std::size_t step = 0;   ///< steps completed
  std::size_t total = 0;  ///< total steps
  double best_score = 0.0;
  const SearchStep* last = nullptr;
};

struct SearchResult : ChainResult {
  using ChainResult::ChainResult;

  std::vector<SearchStep> trace;  ///< one entry per step, deterministic
};

/// Runs the configured local search from a start arrangement.
class SearchEngine {
 public:
  SearchEngine();
  explicit SearchEngine(SearchOptions options);

  /// Searches from `start` (>= 2 chiplets, legal per
  /// is_legal_arrangement). Re-entrant per engine: repeated runs share the
  /// result cache, so re-searching a neighbourhood is mostly lookups.
  [[nodiscard]] SearchResult run(const core::Arrangement& start);

 private:
  SearchOptions options_;
  detail::Chain core_;  ///< holds a reference to options_
};

/// Trace serialization (with the chain core, in search/chain.cpp), on
/// explore/export.hpp's row writer: deterministic fields only,
/// shortest-round-trip doubles, so traces compare byte-for-byte across
/// thread counts.
[[nodiscard]] std::string trace_to_csv(const std::vector<SearchStep>& trace);
[[nodiscard]] std::string trace_to_json(const std::vector<SearchStep>& trace);

/// Writes the trace to `path`: ".json" gets JSON, everything else CSV.
/// Throws std::runtime_error when the file cannot be opened.
void export_trace_file(const std::string& path,
                       const std::vector<SearchStep>& trace);

}  // namespace hm::search
