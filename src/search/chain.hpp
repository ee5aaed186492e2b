// Chain core shared by the arrangement-search engines.
//
// A chain is one Markov chain over arrangement states: every step it
// proposes candidates_per_step mutations of its current state
// (search/mutation.hpp), scores them through the same Sec. VI evaluate()
// pipeline the sweeps use, and accepts the best one by the Metropolis rule
// at its temperature. SearchEngine (search/search.hpp) runs one chain on a
// cooling schedule, where hill climbing is temperature 0; TemperingEngine
// (search/tempering.hpp) runs K chains on a temperature ladder and swaps
// their states. What both need lives here, once:
//
//   * validation of the options they share (ChainOptions);
//   * scoring memoized in a sharded explore::ResultCache (optionally backed
//     by an on-disk store) keyed by the stable (arrangement, params,
//     traffic) content hashes, so revisited states cost a lookup;
//   * the step: every chain's candidates get their contexts from the
//     chain's current one and the mutation's edit
//     (noc::TopologyContext::rebuild_from, interned like acquire()) and
//     are scored in one explore::ThreadPool batch, each probe chain
//     leasing its network from the per-worker SimulationArena; then each
//     chain accepts, in index order, while the best-so-far across all
//     chains is tracked.
//
// Determinism contract (pinned by test_search, test_tempering and the
// trace goldens of test_golden_sweep): chain k's proposals and Metropolis
// draw at step s come from Rng(derive_seed(stream_k, s)) on the calling
// thread; the uniform is drawn only when the best candidate is not an
// improvement and the temperature is > 0. Every candidate is scored with
// the same fixed simulator seed, a pure function of the candidate, so
// traces are byte-identical at any thread count.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/result_cache.hpp"
#include "explore/thread_pool.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"
#include "search/mutation.hpp"
#include "search/objective.hpp"

namespace hm::search {

/// Options both engines share; SearchOptions and TemperingOptions add
/// their schedule, and TemperingOptions starts from its own defaults for
/// candidates_per_step (2) and initial_temperature (0.08).
struct ChainOptions {
  ObjectiveSpec objective;  ///< see search/objective.hpp; defaults to
                            ///< saturation throughput

  /// Mutation steps; each step proposes and scores a batch of candidates
  /// per chain and accepts at most one per chain.
  std::size_t steps = 48;

  /// Candidates per chain per step, scored as one parallel batch. Fixed by
  /// the options — never by the thread count — so traces are thread-count
  /// independent.
  std::size_t candidates_per_step = 4;

  /// Proposal redraws per candidate slot before the slot is skipped
  /// (>= 1).
  std::size_t max_proposal_tries = 8;

  /// Starting (SearchEngine) or hottest (TemperingEngine) temperature, as
  /// a fraction of the baseline score magnitude so the knob is
  /// design-independent; finite and >= 0.
  double initial_temperature = 0.02;

  /// Absolute floor on every effective temperature, in score units (> 0).
  /// The relative scaling above degenerates silently when the baseline
  /// score is zero or near zero; the floor keeps Metropolis acceptance
  /// alive regardless of the baseline magnitude. Trace rows record the
  /// post-floor temperature.
  double min_temperature = 1e-9;

  /// Worker concurrency for candidate evaluation (see explore::ThreadPool);
  /// 0 = hardware threads.
  unsigned threads = 0;

  /// Directory of a persistent store::ResultStore attached under the
  /// result cache (empty = memory only). Re-searching a neighbourhood with
  /// a warm store serves revisited states from disk instead of simulating.
  std::string cache_dir;

  /// Base of every RNG derivation (see the determinism contract above).
  unsigned long long seed = 42;

  /// Evaluation pipeline configuration. The measurement-selection flags are
  /// overridden to match `objective` (only the needed half runs).
  core::EvaluationParams params;
  noc::TrafficSpec traffic;
};

/// The trace fields of one chain's step. Only deterministic fields: scores,
/// the selected mutation and the post-step state identity — never
/// wall-clock times or cache statistics (those are timing-dependent
/// under concurrency and live in ChainResult instead).
struct ChainStep {
  std::size_t step = 0;
  double temperature = 0.0;     ///< effective (post-floor) temperature;
                                ///< 0 = hill climb
  MutationKind kind = MutationKind::kNone;  ///< selected candidate's op
  std::size_t candidates = 0;   ///< legal proposals evaluated this step
  bool accepted = false;        ///< candidate became the chain's state
  bool improved_best = false;   ///< candidate beat the best-so-far
  double candidate_score = 0.0; ///< best candidate of the step (0 if none)
  double current_score = 0.0;   ///< post-step chain state
  double best_score = 0.0;      ///< post-step best-so-far (monotone)
  std::uint64_t graph_digest = 0;  ///< post-step chain graph digest
  std::size_t edge_count = 0;      ///< post-step chain link count
};

/// What a run of either engine returns besides its trace.
struct ChainResult {
  /// Seeded with the start arrangement; `best` is replaced whenever a
  /// candidate beats the best-so-far score.
  explicit ChainResult(core::Arrangement initial) : best(std::move(initial)) {}

  core::Arrangement best;  ///< best-scoring arrangement across all chains
  core::EvaluationResult best_result{};
  double best_score = 0.0;
  core::EvaluationResult baseline_result{};  ///< the start arrangement
  double baseline_score = 0.0;

  // Observability; timing-dependent under concurrency, excluded from the
  // trace exports.
  std::size_t evaluations = 0;       ///< simulated or cache-served scores
  std::uint64_t cache_hits = 0;      ///< ResultCache hits during this run
  double wall_seconds = 0.0;
};

namespace detail {

/// A chain's current state.
struct ChainState {
  core::Arrangement arrangement;
  std::shared_ptr<const noc::TopologyContext> ctx;
  double score = 0.0;
};

/// The loop both engines share. Owns the engine's worker pool and result
/// cache, so repeated runs of one engine share memoized scores.
class Chain {
 public:
  /// Keeps a reference to `options`: engines pass their own options
  /// member, which outlives the chain core.
  explicit Chain(const ChainOptions& options);

  /// Validates the shared options and `start` (std::invalid_argument,
  /// message prefixed with `engine`), scores `start`, and records it in
  /// `result` as baseline and best. Returns the start state.
  [[nodiscard]] ChainState begin(const char* engine,
                                 const core::Arrangement& start,
                                 ChainResult& result);

  /// Advances every chain by one step: chain k proposes from
  /// derive_seed(streams[k], step), all candidates are scored in one
  /// batch, and chain k accepts at rows[k]->temperature. Fills each row's
  /// step and selection fields; the post-step state is record_state's.
  void step(std::size_t step, const std::vector<std::uint64_t>& streams,
            std::vector<ChainState>& chains,
            const std::vector<ChainStep*>& rows, ChainResult& result);

  /// Records the run's cache hits and wall time.
  void finish(ChainResult& result) const;

 private:
  [[nodiscard]] core::EvaluationResult evaluate(
      const core::Arrangement& arr,
      std::shared_ptr<const noc::TopologyContext> ctx);

  const ChainOptions& options_;
  explore::ThreadPool pool_;
  explore::ResultCache cache_;

  // Per-run state, set by begin().
  core::EvaluationParams params_;  ///< after measurement selection
  std::uint64_t param_key_ = 0;    ///< hash of (params_, traffic)
  std::chrono::steady_clock::time_point wall_start_;
  std::uint64_t cache_hits0_ = 0;
};

/// Fills the post-step fields of `row` from `chain`'s state.
void record_state(ChainStep& row, const ChainState& chain, double best_score);

}  // namespace detail
}  // namespace hm::search
