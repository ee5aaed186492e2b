#include "search/search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::search {

SearchEngine::SearchEngine() : SearchEngine(SearchOptions{}) {}

SearchEngine::SearchEngine(SearchOptions options)
    : options_(std::move(options)), core_(options_) {}

SearchResult SearchEngine::run(const core::Arrangement& start) {
  if (!(options_.cooling > 0.0) || options_.cooling > 1.0) {
    throw std::invalid_argument("SearchEngine: cooling must be in (0, 1]");
  }
  SearchResult result{start};
  std::vector<detail::ChainState> chain{
      core_.begin("SearchEngine", start, result)};
  const std::vector<std::uint64_t> stream{options_.seed};
  result.trace.reserve(options_.steps);

  // Temperature in absolute score units, scaled off the baseline magnitude
  // so the initial_temperature knob transfers across designs/objectives.
  const double temp_scale =
      std::abs(result.baseline_score) * options_.initial_temperature;

  static telemetry::Counter steps_run("search.steps");
  for (std::size_t step = 0; step < options_.steps; ++step) {
    telemetry::Span step_span("search.step");
    steps_run.add();
    SearchStep rec;
    if (options_.schedule == Schedule::kAnneal) {
      const double cooled =
          temp_scale * std::pow(options_.cooling, static_cast<double>(step));
      rec.temperature = std::max(cooled, options_.min_temperature);
      rec.temperature_floored = cooled < options_.min_temperature;
    }
    core_.step(step, stream, chain, {&rec}, result);
    detail::record_state(rec, chain[0], result.best_score);
    result.trace.push_back(rec);

    if (options_.on_progress) {
      options_.on_progress({step + 1, options_.steps, result.best_score,
                            &result.trace.back()});
    }
  }
  core_.finish(result);
  return result;
}

}  // namespace hm::search
