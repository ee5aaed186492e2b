// Population-based parallel-tempering search over chiplet arrangements.
//
// Where search/search.hpp runs ONE chain (hill climb or a cooling anneal),
// TemperingEngine runs K chains of the chain core (search/chain.hpp) —
// replicas — concurrently, each at a temperature of a geometric ladder:
//
//     T_k = max(T_hot * ladder_ratio^(K-1-k), min_temperature)
//
// with replica K-1 the hottest (T_hot = |baseline| * initial_temperature,
// floored) and replica 0 the coldest, near-greedy one. Hot replicas cross
// score barriers the cold ones cannot; every `exchange_interval` steps
// adjacent replicas attempt a configuration swap with the classical
// Metropolis exchange rule
//
//     p = min(1, exp((1/T_cold - 1/T_hot) * (S_hot - S_cold)))
//
// so improvements found at high temperature percolate down to the cold
// replica while the population keeps exploring. Alternating even/odd pair
// sweeps let a configuration traverse the whole ladder.
//
// The ladder adapts: after each exchange sweep the ratio moves toward the
// value that keeps adjacent replicas swapping at 30% acceptance,
// deterministically, from the sweep's own (deterministic) acceptance count.
// The hottest rung stays fixed; only the spacing adapts.
//
// Determinism contract (pinned by test_tempering): replica k's
// proposal/acceptance RNG for step s is seeded
// derive_seed(derive_seed(seed, kReplicaSalt + k), s); the exchange RNG for
// (step s, pair p) is seeded
// derive_seed(derive_seed(derive_seed(seed, kExchangeSalt), s), p). All
// proposals, acceptances and swaps run on the calling thread in fixed
// order; candidates are evaluated with the same fixed simulator seed. The
// trace is byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "search/chain.hpp"

namespace hm::search {

struct TemperingProgress;

struct TemperingOptions : ChainOptions {
  TemperingOptions() {
    candidates_per_step = 2;    // per replica per step
    initial_temperature = 0.08;  // of the hottest replica
  }

  /// Replica count K (>= 1; K == 1 is a single fixed-temperature chain).
  /// Every step advances all K replicas by one propose/evaluate/accept
  /// round (one parallel batch of K * candidates_per_step evaluations).
  std::size_t replicas = 4;

  /// Steps between replica-exchange sweeps (>= 1). Pair parity alternates
  /// between sweeps (0-1/2-3/... then 1-2/3-4/...).
  std::size_t exchange_interval = 4;

  /// Initial geometric ratio between adjacent rungs, in (0, 1].
  double ladder_ratio = 0.5;

  /// Called after every completed step (all replicas advanced, exchanges
  /// done), on the calling thread.
  std::function<void(const TemperingProgress&)> on_progress;
};

/// One (step, replica) row of the tempering trace (see ChainStep; the
/// temperature is the replica's rung at this step).
struct TemperingStep : ChainStep {
  std::size_t replica = 0;
  bool exchanged = false;     ///< replica swapped configurations
  int exchange_partner = -1;  ///< partner replica index (-1 = none)
};

struct TemperingProgress {
  std::size_t step = 0;   ///< steps completed
  std::size_t total = 0;  ///< total steps
  double best_score = 0.0;
  /// The completed step's rows (one per replica), coldest first.
  const TemperingStep* first = nullptr;
  std::size_t replicas = 0;
};

struct TemperingResult : ChainResult {
  using ChainResult::ChainResult;

  /// Temperature ladder in effect when the run ended, coldest first (after
  /// flooring). Adaptation may have moved the spacing away from the
  /// initial ladder_ratio; trace rows carry the rung each step actually
  /// used.
  std::vector<double> temperatures;
  /// Ladder ratio in effect when the run ended.
  double final_ladder_ratio = 0.0;
  /// Final per-replica current scores, coldest first.
  std::vector<double> replica_scores;

  /// Steps-major, replica-minor: trace[s * K + k] is step s, replica k.
  std::vector<TemperingStep> trace;

  std::size_t exchange_attempts = 0;
  std::size_t exchange_accepts = 0;
};

/// Runs parallel tempering from a start arrangement (all replicas start
/// there; they decorrelate through their per-replica RNG streams).
class TemperingEngine {
 public:
  TemperingEngine();
  explicit TemperingEngine(TemperingOptions options);

  /// Searches from `start` (>= 2 chiplets, legal per
  /// is_legal_arrangement). Re-entrant per engine: repeated runs share the
  /// result cache.
  [[nodiscard]] TemperingResult run(const core::Arrangement& start);

 private:
  TemperingOptions options_;
  detail::Chain core_;  ///< holds a reference to options_
};

/// Trace serialization (with the chain core, in search/chain.cpp),
/// mirroring search/search.hpp: deterministic fields only,
/// shortest-round-trip doubles.
[[nodiscard]] std::string trace_to_csv(const std::vector<TemperingStep>& trace);
[[nodiscard]] std::string trace_to_json(
    const std::vector<TemperingStep>& trace);

/// Writes the trace to `path`: ".json" gets JSON, everything else CSV.
/// Throws std::runtime_error when the file cannot be opened.
void export_trace_file(const std::string& path,
                       const std::vector<TemperingStep>& trace);

}  // namespace hm::search
