#include "mirror.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "core/link_model.hpp"
#include "core/proxies.hpp"
#include "explore/hash.hpp"
#include "explore/result_cache.hpp"
#include "explore/thread_pool.hpp"
#include "graph/algorithms.hpp"
#include "noc/rng.hpp"
#include "noc/simulator.hpp"
#include "partition/partitioner.hpp"
#include "search/mutation.hpp"
#include "search/objective.hpp"

namespace pb {

namespace core = hm::core;
namespace noc = hm::noc;
namespace search = hm::search;

std::size_t BisectionMemo::width(const hm::graph::Graph& g) {
  const std::uint64_t key = noc::graph_digest(g);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = widths_.find(key); it != widths_.end()) {
      return it->second;
    }
  }
  const std::size_t w = hm::partition::bisection_width(g);
  std::lock_guard<std::mutex> lock(mu_);
  widths_.emplace(key, w);
  return w;
}

core::EvaluationResult mirror_analytic(const core::Arrangement& arr,
                                       const core::EvaluationParams& params,
                                       BisectionMemo& memo, SpanLog* log,
                                       std::uint64_t op) {
  Span span(log, "core.evaluate_analytic", op);
  core::EvaluationResult r;
  const std::size_t n = arr.chiplet_count();
  r.chiplet_count = n;
  r.regularity = arr.regularity();
  {
    Span s(log, "graph.distance", op);
    r.diameter = hm::graph::diameter(arr.graph());
    r.avg_hop_distance = hm::graph::average_distance(arr.graph());
  }
  if (arr.regularity() == core::RegularityClass::kRegular && n >= 2) {
    r.bisection_links = static_cast<std::size_t>(
        std::llround(core::analytic_bisection(arr.type(), n)));
  } else if (n >= 2) {
    Span s(log, "partition.bisection", op);
    r.bisection_links = memo.width(arr.graph());
  }
  r.link_count = arr.graph().edge_count();
  r.chiplet_area_mm2 = params.total_area_mm2 / static_cast<double>(n);
  r.link_area_mm2 = core::link_area_for(arr, r.chiplet_area_mm2, params);
  core::LinkModelParams lp;
  lp.link_area_mm2 = r.link_area_mm2;
  lp.bump_pitch_mm = params.bump_pitch_mm;
  lp.non_data_wires = params.non_data_wires;
  lp.frequency_hz = params.frequency_hz;
  r.per_link_bandwidth_bps = core::estimate_link(lp).bandwidth_bps;
  r.full_global_bandwidth_bps =
      static_cast<double>(n) *
      static_cast<double>(params.sim.endpoints_per_chiplet) *
      r.per_link_bandwidth_bps;
  return r;
}

core::EvaluationResult mirror_evaluate(
    const core::Arrangement& arr, const core::EvaluationParams& params,
    const noc::TrafficSpec& traffic,
    const std::shared_ptr<const noc::TopologyContext>& topology,
    BisectionMemo& memo, SpanLog* log, std::uint64_t op, int* probes) {
  if (params.faults.enabled()) {
    throw std::invalid_argument("mirror_evaluate: fault scenarios unmirrored");
  }
  core::EvaluationResult r = mirror_analytic(arr, params, memo, log, op);
  if (params.measure_latency) {
    Span s(log, "noc.latency_run", op);
    noc::Simulator sim(noc::SimulationArena::local(), topology, params.sim);
    sim.set_traffic(traffic);
    const auto lat =
        sim.run_latency(params.zero_load_injection_rate, params.latency_warmup,
                        params.latency_measure, params.latency_drain_limit);
    r.zero_load_latency_cycles = lat.avg_packet_latency;
    r.latency_run_drained = lat.drained;
  }
  if (params.measure_saturation) {
    Span s(log, "noc.sat_search", op);
    noc::SaturationSearchOptions opts;
    opts.warmup = params.throughput_warmup;
    opts.measure = params.throughput_measure;
    opts.surrogate_rate = core::analytic_saturation_estimate(r, params);
    const auto sat =
        noc::find_saturation(topology, params.sim, opts, traffic, nullptr);
    r.saturation_fraction = sat.accepted_flit_rate;
    r.saturation_throughput_bps =
        r.saturation_fraction * r.full_global_bandwidth_bps;
    if (probes != nullptr) *probes = sat.probes;
  }
  return r;
}

MirrorSearchResult mirror_search(const search::SearchOptions& options,
                                 const core::Arrangement& start,
                                 BisectionMemo& memo, Tracer& tracer,
                                 std::uint64_t op) {
  if (options.schedule != search::Schedule::kAnneal &&
      options.schedule != search::Schedule::kHillClimb) {
    throw std::invalid_argument("mirror_search: unknown schedule");
  }
  hm::explore::ThreadPool pool(options.threads);
  hm::explore::ResultCache cache;
  SpanLog* log = tracer.local();

  core::EvaluationParams params = options.params;
  search::apply_measurement_selection(options.objective, params);
  const std::uint64_t param_key = hm::explore::hash_combine(
      hm::explore::hash_combine(hm::explore::hash_analytic_params(params),
                                hm::explore::hash_simulation_params(params)),
      hm::explore::hash_traffic(options.traffic));
  const auto evaluate_cached =
      [&](const core::Arrangement& arr,
          const std::shared_ptr<const noc::TopologyContext>& ctx,
          SpanLog* lg, std::int64_t cross_parent) {
        Span s(lg, "explore.cached_evaluate", op, cross_parent);
        const std::uint64_t key = hm::explore::hash_combine(
            hm::explore::hash_arrangement(arr), param_key);
        return cache.get_or_compute(key, [&] {
          return mirror_evaluate(arr, params, options.traffic, ctx, memo, lg,
                                 op);
        });
      };
  const auto score_of = [&](const core::EvaluationResult& r) {
    return search::score(options.objective, r);
  };

  MirrorSearchResult out;
  int step_span = log->begin("search.step", op);

  auto current_ctx = noc::TopologyContext::acquire(start.graph());
  core::Arrangement current = start;
  const std::uint64_t hits0 = cache.hits();
  double current_score = score_of(evaluate_cached(current, current_ctx, log, -1));
  double best_score = current_score;
  out.evaluations = 1;
  const double temp_scale = std::abs(best_score) * options.initial_temperature;

  for (std::size_t step = 0; step < options.steps; ++step) {
    noc::Rng rng(noc::derive_seed(options.seed, step));
    std::vector<search::Candidate> cands;
    {
      Span s(log, "search.propose", op);
      cands.reserve(options.candidates_per_step);
      for (std::size_t slot = 0; slot < options.candidates_per_step; ++slot) {
        for (std::size_t t = 0; t < options.max_proposal_tries; ++t) {
          if (auto c = search::propose_mutation(current, rng)) {
            cands.push_back(std::move(*c));
            break;
          }
        }
      }
    }

    search::SearchStep rec;
    rec.step = step;
    rec.candidates = cands.size();
    if (options.schedule == search::Schedule::kAnneal) {
      const double cooled =
          temp_scale * std::pow(options.cooling, static_cast<double>(step));
      rec.temperature = std::max(cooled, options.min_temperature);
      rec.temperature_floored = cooled < options.min_temperature;
    }

    if (!cands.empty()) {
      std::vector<double> scores(cands.size(), 0.0);
      std::vector<std::shared_ptr<const noc::TopologyContext>> contexts(
          cands.size());
      const std::int64_t parent_id = log->current_global_id();
      std::vector<std::function<void()>> jobs;
      jobs.reserve(cands.size());
      for (std::size_t i = 0; i < cands.size(); ++i) {
        jobs.push_back([&, i] {
          SpanLog* lg = tracer.local();
          {
            Span s(lg, "noc.topology_rebuild", op, parent_id);
            contexts[i] =
                noc::TopologyContext::rebuild_from(current_ctx, cands[i].edit);
          }
          scores[i] = score_of(evaluate_cached(cands[i].arrangement,
                                               contexts[i], lg, parent_id));
        });
      }
      pool.run_batch(jobs);
      out.evaluations += cands.size();

      std::size_t pick = 0;
      for (std::size_t i = 1; i < cands.size(); ++i) {
        if (scores[i] > scores[pick]) pick = i;
      }
      rec.kind = cands[pick].kind;
      rec.candidate_score = scores[pick];
      bool accept = scores[pick] > current_score;
      if (!accept && options.schedule == search::Schedule::kAnneal &&
          rec.temperature > 0.0) {
        accept = rng.uniform() <
                 std::exp((scores[pick] - current_score) / rec.temperature);
      }
      if (accept) {
        current = cands[pick].arrangement;
        current_ctx = contexts[pick];
        current_score = scores[pick];
        rec.accepted = true;
        if (scores[pick] > best_score) {
          best_score = scores[pick];
          rec.improved_best = true;
        }
      }
    }
    rec.current_score = current_score;
    rec.best_score = best_score;
    rec.graph_digest = noc::graph_digest(current.graph());
    rec.edge_count = current.graph().edge_count();
    out.trace.push_back(rec);

    log->end(step_span);
    if (step + 1 < options.steps) step_span = log->begin("search.step", op);
  }
  out.cache_hits = cache.hits() - hits0;
  return out;
}

}  // namespace pb
