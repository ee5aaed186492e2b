#include "search/chain.hpp"

#include <cmath>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "explore/export.hpp"
#include "explore/hash.hpp"
#include "noc/rng.hpp"
#include "noc/routing.hpp"
#include "search/search.hpp"
#include "search/tempering.hpp"
#include "store/result_store.hpp"

namespace hm::search {
namespace detail {

Chain::Chain(const ChainOptions& options)
    : options_(options), pool_(options.threads) {
  if (!options.cache_dir.empty()) {
    cache_.attach_store(store::ResultStore::open(options.cache_dir));
  }
}

ChainState Chain::begin(const char* engine, const core::Arrangement& start,
                        ChainResult& result) {
  const auto reject = [engine](const char* what) {
    throw std::invalid_argument(std::string(engine) + ": " + what);
  };
  if (start.chiplet_count() < 2) {
    reject("search needs >= 2 chiplets (nothing to simulate)");
  }
  if (!is_legal_arrangement(start)) {
    reject("start arrangement is not a legal search state");
  }
  if (options_.candidates_per_step == 0) {
    reject("candidates_per_step must be >= 1");
  }
  // Zero tries would propose nothing, and a NaN temperature never accepts
  // a downhill move: a search that silently stops searching.
  if (options_.max_proposal_tries == 0) {
    reject("max_proposal_tries must be >= 1");
  }
  if (!std::isfinite(options_.initial_temperature) ||
      options_.initial_temperature < 0.0) {
    reject("initial_temperature must be finite and >= 0");
  }
  if (!(options_.min_temperature > 0.0)) {
    reject("min_temperature must be > 0");
  }
  options_.objective.validate();

  // Only the half of the pipeline the objective scores is simulated.
  params_ = options_.params;
  apply_measurement_selection(options_.objective, params_);
  param_key_ = explore::hash_combine(
      explore::hash_combine(explore::hash_analytic_params(params_),
                            explore::hash_simulation_params(params_)),
      explore::hash_traffic(options_.traffic));

  wall_start_ = std::chrono::steady_clock::now();
  cache_hits0_ = cache_.hits();
  incremental_builds0_ = noc::RoutingTables::incremental_builds();

  ChainState state{start, noc::TopologyContext::acquire(start.graph())};
  result.baseline_result = evaluate(start, state.ctx);
  state.score = score(options_.objective, result.baseline_result);
  result.baseline_score = state.score;
  result.best_result = result.baseline_result;
  result.best_score = state.score;
  result.evaluations = 1;
  return state;
}

void Chain::step(std::size_t step, const std::vector<std::uint64_t>& streams,
                 std::vector<ChainState>& chains,
                 const std::vector<ChainStep*>& rows, ChainResult& result) {
  // Propose. All nondeterminism of chain k's step flows from rng[k], on
  // this thread; chain k's candidates are batch[first[k] .. first[k+1]).
  struct Scored {
    Candidate candidate;
    std::size_t chain = 0;
    std::shared_ptr<const noc::TopologyContext> ctx{};
    core::EvaluationResult eval{};
    double score = 0.0;
  };
  const std::size_t k_chains = chains.size();
  std::vector<noc::Rng> rng;
  rng.reserve(k_chains);
  std::vector<Scored> batch;
  std::vector<std::size_t> first(k_chains + 1, 0);
  for (std::size_t k = 0; k < k_chains; ++k) {
    rng.emplace_back(noc::derive_seed(streams[k], step));
    first[k] = batch.size();
    for (std::size_t slot = 0; slot < options_.candidates_per_step; ++slot) {
      for (std::size_t t = 0; t < options_.max_proposal_tries; ++t) {
        if (auto c = propose_mutation(chains[k].arrangement, rng[k])) {
          batch.push_back({std::move(*c), k});
          break;
        }
      }
    }
  }
  first[k_chains] = batch.size();

  // Score every chain's candidates in one parallel fan-out. Each job
  // delta-builds (or adopts from the intern cache) its candidate's topology
  // from its chain's current context and scores it — a pure function of
  // the candidate, so scores are identical at any thread count.
  std::vector<std::function<void()>> jobs;
  jobs.reserve(batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    jobs.push_back([&, j] {
      Scored& s = batch[j];
      s.ctx = noc::TopologyContext::rebuild_from(chains[s.chain].ctx,
                                                 s.candidate.edit);
      s.eval = evaluate(s.candidate.arrangement, s.ctx);
      s.score = score(options_.objective, s.eval);
    });
  }
  pool_.run_batch(jobs);
  result.evaluations += batch.size();

  // Accept per chain, in index order, on this thread: the best candidate
  // (ties to the lowest index) by the Metropolis rule at the row's
  // temperature.
  for (std::size_t k = 0; k < k_chains; ++k) {
    ChainStep& row = *rows[k];
    row.step = step;
    row.candidates = first[k + 1] - first[k];
    if (row.candidates == 0) continue;
    std::size_t pick = first[k];
    for (std::size_t j = pick + 1; j < first[k + 1]; ++j) {
      if (batch[j].score > batch[pick].score) pick = j;
    }
    Scored& best = batch[pick];
    ChainState& chain = chains[k];
    row.kind = best.candidate.kind;
    row.candidate_score = best.score;
    row.accepted = best.score > chain.score;
    if (!row.accepted && row.temperature > 0.0) {
      row.accepted = rng[k].uniform() <
                     std::exp((best.score - chain.score) / row.temperature);
    }
    if (!row.accepted) continue;
    chain = {std::move(best.candidate.arrangement), std::move(best.ctx),
             best.score};
    if (best.score > result.best_score) {
      result.best = chain.arrangement;
      result.best_result = best.eval;
      result.best_score = best.score;
      row.improved_best = true;
    }
  }
}

void Chain::finish(ChainResult& result) const {
  result.cache_hits = cache_.hits() - cache_hits0_;
  result.incremental_rebuilds =
      noc::RoutingTables::incremental_builds() - incremental_builds0_;
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start_)
                            .count();
}

core::EvaluationResult Chain::evaluate(
    const core::Arrangement& arr,
    std::shared_ptr<const noc::TopologyContext> ctx) {
  // The key layout is what an existing --cache-dir store holds.
  const std::uint64_t key =
      explore::hash_combine(explore::hash_arrangement(arr), param_key_);
  return cache_.get_or_compute(key, [&] {
    return core::evaluate(arr, params_, options_.traffic, nullptr,
                          std::move(ctx));
  });
}

void record_state(ChainStep& row, const ChainState& chain,
                  double best_score) {
  row.current_score = chain.score;
  row.best_score = best_score;
  row.graph_digest = noc::graph_digest(chain.arrangement.graph());
  row.edge_count = chain.arrangement.graph().edge_count();
}

}  // namespace detail

// --- Trace exports of both engines -------------------------------------------
//
// Deterministic fields only, through the sweep exports' row writer
// (explore/export.hpp), so traces compare byte for byte across thread
// counts.

namespace {

using explore::Cell;
using explore::flag;
using explore::num;
using explore::text;

std::vector<Cell> cells(const SearchStep& s) {
  return {num("step", s.step),
          text("mutation", to_string(s.kind)),
          num("candidates", s.candidates),
          flag("accepted", s.accepted),
          flag("improved_best", s.improved_best),
          num("candidate_score", s.candidate_score),
          num("current_score", s.current_score),
          num("best_score", s.best_score),
          num("temperature", s.temperature),
          flag("temperature_floored", s.temperature_floored),
          num("graph_digest", s.graph_digest),
          num("edge_count", s.edge_count)};
}

std::vector<Cell> cells(const TemperingStep& s) {
  return {num("step", s.step),
          num("replica", s.replica),
          num("temperature", s.temperature),
          text("mutation", to_string(s.kind)),
          num("candidates", s.candidates),
          flag("accepted", s.accepted),
          flag("improved_best", s.improved_best),
          num("candidate_score", s.candidate_score),
          num("current_score", s.current_score),
          num("best_score", s.best_score),
          flag("exchanged", s.exchanged),
          num("exchange_partner", s.exchange_partner),
          num("graph_digest", s.graph_digest),
          num("edge_count", s.edge_count)};
}

template <typename Step>
void write(std::ostream& os, const std::vector<Step>& trace, bool json) {
  explore::write_rows(os, trace, json,
                      [](const Step& s) { return cells(s); });
}

template <typename Step>
std::string to_text(const std::vector<Step>& trace, bool json) {
  std::ostringstream os;
  write(os, trace, json);
  return os.str();
}

template <typename Step>
void export_file(const std::string& path, const std::vector<Step>& trace) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("export_trace_file: cannot open " + path);
  }
  write(os, trace, explore::is_json_path(path));
}

}  // namespace

std::string trace_to_csv(const std::vector<SearchStep>& trace) {
  return to_text(trace, false);
}
std::string trace_to_json(const std::vector<SearchStep>& trace) {
  return to_text(trace, true);
}
void export_trace_file(const std::string& path,
                       const std::vector<SearchStep>& trace) {
  export_file(path, trace);
}

std::string trace_to_csv(const std::vector<TemperingStep>& trace) {
  return to_text(trace, false);
}
std::string trace_to_json(const std::vector<TemperingStep>& trace) {
  return to_text(trace, true);
}
void export_trace_file(const std::string& path,
                       const std::vector<TemperingStep>& trace) {
  export_file(path, trace);
}

}  // namespace hm::search
