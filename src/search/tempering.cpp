#include "search/tempering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "noc/rng.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::search {

namespace {

// Salt tags keeping the per-replica proposal streams and the per-(step,
// pair) exchange streams disjoint under noc::derive_seed.
constexpr std::uint64_t kReplicaSalt = 0x5245504c49434100ULL;   // "REPLICA"
constexpr std::uint64_t kExchangeSalt = 0x45584348414e4745ULL;  // "EXCHANGE"

/// Per-pair exchange acceptance the ladder adapts toward.
constexpr double kTargetExchangeAcceptance = 0.3;

}  // namespace

TemperingEngine::TemperingEngine() : TemperingEngine(TemperingOptions{}) {}

TemperingEngine::TemperingEngine(TemperingOptions options)
    : options_(std::move(options)), core_(options_) {}

TemperingResult TemperingEngine::run(const core::Arrangement& start) {
  if (options_.replicas == 0) {
    throw std::invalid_argument("TemperingEngine: replicas must be >= 1");
  }
  if (options_.exchange_interval == 0) {
    throw std::invalid_argument(
        "TemperingEngine: exchange_interval must be >= 1");
  }
  if (!(options_.ladder_ratio > 0.0) || options_.ladder_ratio > 1.0) {
    throw std::invalid_argument(
        "TemperingEngine: ladder_ratio must be in (0, 1]");
  }
  const std::size_t K = options_.replicas;
  TemperingResult result{start};
  // Every replica starts from the same evaluated configuration.
  std::vector<detail::ChainState> replicas(
      K, core_.begin("TemperingEngine", start, result));
  std::vector<std::uint64_t> streams(K);
  for (std::size_t k = 0; k < K; ++k) {
    streams[k] = noc::derive_seed(options_.seed, kReplicaSalt + k);
  }

  // Geometric ladder, coldest first; every rung floored so a zero/near-zero
  // baseline cannot collapse the population into K hill climbers. The
  // hottest rung is pinned; adaptation only re-spaces the rungs below it.
  const double hot = std::max(
      std::abs(result.baseline_score) * options_.initial_temperature,
      options_.min_temperature);
  double ladder_ratio = options_.ladder_ratio;
  result.temperatures.resize(K);
  const auto rebuild_ladder = [&] {
    for (std::size_t k = 0; k < K; ++k) {
      result.temperatures[k] = std::max(
          hot * std::pow(ladder_ratio, static_cast<double>(K - 1 - k)),
          options_.min_temperature);
    }
  };
  rebuild_ladder();
  result.trace.reserve(options_.steps * K);

  static telemetry::Counter steps_run("tempering.steps");
  static telemetry::Counter exchange_sweeps("tempering.exchange_sweeps");
  std::vector<ChainStep*> rows(K);
  for (std::size_t step = 0; step < options_.steps; ++step) {
    telemetry::Span step_span("tempering.step");
    steps_run.add();
    // Every replica steps at its rung of the current ladder.
    const std::size_t row0 = result.trace.size();
    result.trace.resize(row0 + K);
    for (std::size_t k = 0; k < K; ++k) {
      TemperingStep& row = result.trace[row0 + k];
      row.replica = k;
      row.temperature = result.temperatures[k];
      rows[k] = &row;
    }
    core_.step(step, streams, replicas, rows, result);

    // Replica exchange every exchange_interval steps. Alternating pair
    // parity (0-1/2-3/..., then 1-2/3-4/...) lets a configuration
    // traverse the whole ladder; each pair's RNG is seeded per (step,
    // pair), so the swap pattern is independent of thread count and of
    // the replica streams.
    if ((step + 1) % options_.exchange_interval == 0 && K > 1) {
      telemetry::Span exchange_span("tempering.exchange");
      exchange_sweeps.add();
      const std::size_t round = (step + 1) / options_.exchange_interval;
      const std::uint64_t sweep_base = noc::derive_seed(
          noc::derive_seed(options_.seed, kExchangeSalt), step);
      std::size_t pair = 0;
      std::size_t sweep_attempts = 0;
      std::size_t sweep_accepts = 0;
      for (std::size_t k = (round - 1) % 2; k + 1 < K; k += 2, ++pair) {
        noc::Rng xrng(noc::derive_seed(sweep_base, pair));
        ++sweep_attempts;
        // Maximization form of the exchange rule: with energies E = -S,
        // p = min(1, exp((1/T_cold - 1/T_hot) * (S_hot - S_cold))) — an
        // improvement moving down-ladder is always accepted.
        const double delta =
            (1.0 / result.temperatures[k] - 1.0 / result.temperatures[k + 1]) *
            (replicas[k + 1].score - replicas[k].score);
        if (delta >= 0.0 || xrng.uniform() < std::exp(delta)) {
          std::swap(replicas[k], replicas[k + 1]);
          ++sweep_accepts;
          result.trace[row0 + k].exchanged = true;
          result.trace[row0 + k].exchange_partner = static_cast<int>(k + 1);
          result.trace[row0 + k + 1].exchanged = true;
          result.trace[row0 + k + 1].exchange_partner = static_cast<int>(k);
        }
      }
      result.exchange_attempts += sweep_attempts;
      result.exchange_accepts += sweep_accepts;

      // Ladder adaptation: nudge the geometric ratio toward the target
      // per-pair exchange acceptance. Too few swaps means adjacent rungs
      // are too far apart -> ratio up (closer rungs); too many means the
      // ladder is wastefully dense -> ratio down (broader temperature
      // range). Multiplicative-in-log update, clamped so the ladder never
      // degenerates; a pure function of the sweep's deterministic accept
      // count, so traces stay thread-independent.
      if (sweep_attempts > 0) {
        const double acceptance = static_cast<double>(sweep_accepts) /
                                  static_cast<double>(sweep_attempts);
        constexpr double kAdaptGain = 0.2;
        ladder_ratio = std::clamp(
            ladder_ratio * std::exp(kAdaptGain * (kTargetExchangeAcceptance -
                                                  acceptance)),
            0.05, 0.98);
        rebuild_ladder();
      }
    }

    // The rows record the post-exchange state.
    for (std::size_t k = 0; k < K; ++k) {
      detail::record_state(result.trace[row0 + k], replicas[k],
                           result.best_score);
    }

    if (options_.on_progress) {
      options_.on_progress({step + 1, options_.steps, result.best_score,
                            &result.trace[row0], K});
    }
  }

  result.final_ladder_ratio = ladder_ratio;
  result.replica_scores.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    result.replica_scores[k] = replicas[k].score;
  }
  core_.finish(result);
  return result;
}

}  // namespace hm::search
