#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/proxies.hpp"
#include "graph/algorithms.hpp"
#include "partition/partitioner.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"

namespace hm::core {

double link_area_for(const Arrangement& arr, double chiplet_area_mm2,
                     const EvaluationParams& params) {
  const double usable = (1.0 - params.power_fraction) * chiplet_area_mm2;
  if (params.hand_optimized_small_n && arr.chiplet_count() <= 7) {
    const std::size_t sectors = std::max<std::size_t>(
        1, arr.graph().max_degree());
    return usable / static_cast<double>(sectors);
  }
  const ShapeParams sp{chiplet_area_mm2, params.power_fraction};
  return solve_shape(arr.type() == ArrangementType::kHoneycomb
                         ? ArrangementType::kBrickwall
                         : arr.type(),
                     sp)
      .link_sector_area;
}

namespace {

/// bisection_width memoized on the graph's content digest. The partitioner
/// is deterministic (fixed seed, fixed start count), so equal graphs always
/// produce equal cuts — and search loops re-evaluate the same arrangement
/// graphs constantly (tempering replicas, warm-started sweeps), where the
/// multilevel bisection dominates evaluate_analytic. Computation happens
/// outside the lock: a racing duplicate is wasted work, never a wrong value.
std::size_t cached_bisection_width(const graph::Graph& g) {
  static std::mutex mu;
  static std::unordered_map<std::uint64_t, std::size_t> cache;

  const std::uint64_t key = noc::graph_digest(g);
  {
    std::lock_guard<std::mutex> lock(mu);
    if (const auto it = cache.find(key); it != cache.end()) {
      return it->second;
    }
  }
  const std::size_t width = partition::bisection_width(g);
  {
    std::lock_guard<std::mutex> lock(mu);
    // Crude bound on memory: a long-running multi-sweep process visits an
    // unbounded stream of candidate graphs. Dropping everything is fine —
    // this is a pure cache and refills in one evaluation wave.
    if (cache.size() >= 4096) cache.clear();
    cache.emplace(key, width);
  }
  return width;
}

void fill_analytic(const Arrangement& arr, const EvaluationParams& params,
                   EvaluationResult& r) {
  const std::size_t n = arr.chiplet_count();
  r.chiplet_count = n;
  r.regularity = arr.regularity();

  const graph::DistanceSummary distances =
      graph::distance_summary(arr.graph());
  r.diameter = distances.diameter;
  r.avg_hop_distance = distances.average_distance;

  // Bisection: closed form for regular arrangements, partitioner otherwise
  // (the paper uses METIS for semi-regular/irregular cases, Sec. IV-D).
  if (arr.regularity() == RegularityClass::kRegular && n >= 2) {
    r.bisection_links = static_cast<std::size_t>(
        std::llround(analytic_bisection(arr.type(), n)));
  } else if (n >= 2) {
    r.bisection_links = cached_bisection_width(arr.graph());
  } else {
    r.bisection_links = 0;
  }

  // Link model (Sec. VI-B): A_C = A_all / N.
  r.link_count = arr.graph().edge_count();
  r.chiplet_area_mm2 = params.total_area_mm2 / static_cast<double>(n);
  r.link_area_mm2 = link_area_for(arr, r.chiplet_area_mm2, params);
  LinkModelParams lp;
  lp.link_area_mm2 = r.link_area_mm2;
  lp.bump_pitch_mm = params.bump_pitch_mm;
  lp.non_data_wires = params.non_data_wires;
  lp.frequency_hz = params.frequency_hz;
  r.per_link_bandwidth_bps = estimate_link(lp).bandwidth_bps;
  r.full_global_bandwidth_bps =
      static_cast<double>(n) *
      static_cast<double>(params.sim.endpoints_per_chiplet) *
      r.per_link_bandwidth_bps;
}

}  // namespace

EvaluationResult evaluate_analytic(const Arrangement& arr,
                                   const EvaluationParams& params) {
  EvaluationResult r;
  fill_analytic(arr, params, r);
  return r;
}

double analytic_saturation_estimate(const EvaluationResult& r,
                                    const EvaluationParams& params) {
  const double endpoints_total =
      static_cast<double>(r.chiplet_count) *
      static_cast<double>(params.sim.endpoints_per_chiplet);
  if (endpoints_total <= 0.0 || r.avg_hop_distance <= 0.0) return 0.0;
  // Uniform traffic: half of all flits cross the bisection, split evenly
  // over the two directions, each served by B one-flit/cycle channels ->
  // rate <= 4*B/E. Channel capacity: each flit occupies avg_hop_distance
  // channel-cycles of the 2*L directed channels -> rate <= 2*L/(E*h_avg).
  const double bisection_bound =
      4.0 * static_cast<double>(r.bisection_links) / endpoints_total;
  const double channel_bound = 2.0 * static_cast<double>(r.link_count) /
                               (endpoints_total * r.avg_hop_distance);
  // Measured knee / min(bound) sits at 0.68-0.88 across the stock families
  // (0.70 +- 0.02 for HexaMesh N in [19, 91]); 0.71 lands the estimate
  // within a few dyadic grid steps of the knee everywhere measured, which
  // is what keeps the surrogate gallop at <= 6 probes (test_active_set and
  // bench_perf_micro's sat.probes keys pin this empirically).
  constexpr double kRouterEfficiency = 0.71;
  return std::clamp(
      kRouterEfficiency * std::min(bisection_bound, channel_bound), 0.0, 1.0);
}

EvaluationResult evaluate(const Arrangement& arr,
                          const EvaluationParams& params,
                          const noc::TrafficSpec& traffic,
                          noc::ProbeExecutor* executor) {
  return evaluate_simulation(arr, params, evaluate_analytic(arr, params),
                             traffic, executor);
}

EvaluationResult evaluate(const Arrangement& arr,
                          const EvaluationParams& params,
                          const noc::TrafficSpec& traffic,
                          noc::ProbeExecutor* executor,
                          std::shared_ptr<const noc::TopologyContext> topology) {
  return evaluate_simulation(arr, params, evaluate_analytic(arr, params),
                             traffic, executor, std::move(topology));
}

EvaluationResult evaluate_simulation(const Arrangement& arr,
                                     const EvaluationParams& params,
                                     EvaluationResult analytic,
                                     const noc::TrafficSpec& traffic,
                                     noc::ProbeExecutor* executor) {
  // One shared topology for the latency run and every saturation probe;
  // the process-wide cache collapses repeated evaluations of the same
  // design (e.g. traffic/simulator ablations) onto one table build.
  return evaluate_simulation(arr, params, std::move(analytic), traffic,
                             executor,
                             noc::TopologyContext::acquire(arr.graph()));
}

EvaluationResult evaluate_simulation(
    const Arrangement& arr, const EvaluationParams& params,
    EvaluationResult r, const noc::TrafficSpec& traffic,
    noc::ProbeExecutor* executor,
    std::shared_ptr<const noc::TopologyContext> topology) {
  if (arr.chiplet_count() < 2) {
    throw std::invalid_argument(
        "evaluate: cycle-accurate evaluation needs >= 2 chiplets");
  }
  if (topology == nullptr) {
    throw std::invalid_argument("evaluate: null topology context");
  }
  if (topology->digest() != noc::graph_digest(arr.graph())) {
    throw std::invalid_argument(
        "evaluate: topology context built for a different graph");
  }

  // Zero-load latency (Fig. 7a): low injection rate, simulator on the
  // shared topology with its network recycled from the worker's arena.
  auto latency_run = [&] {
    noc::Simulator sim(noc::SimulationArena::local(), topology, params.sim);
    sim.set_traffic(traffic);
    const auto lat = sim.run_latency(
        params.zero_load_injection_rate, params.latency_warmup,
        params.latency_measure, params.latency_drain_limit);
    r.zero_load_latency_cycles = lat.avg_packet_latency;
    r.latency_run_drained = lat.drained;
  };

  // Saturation throughput (Fig. 7b): binary-search the knee of the
  // accepted-vs-offered curve (fresh network per probe, shared topology).
  auto saturation_run = [&] {
    noc::SaturationSearchOptions search;
    search.warmup = params.throughput_warmup;
    search.measure = params.throughput_measure;
    // Seed the search with the analytic saturation estimate so a good
    // estimate needs ~3 probes instead of the 7 an unseeded search runs. A
    // bad estimate costs extra probes; where probe outcomes are not
    // monotone it can also land on a different local knee than the
    // unseeded search would.
    search.surrogate_rate = analytic_saturation_estimate(r, params);
    const auto sat =
        noc::find_saturation(topology, params.sim, search, traffic,
                             executor);
    r.saturation_fraction = sat.accepted_flit_rate;
    r.saturation_throughput_bps =
        r.saturation_fraction * r.full_global_bandwidth_bps;
  };

  // Resilience under the fault scenario (worst case over its plan set).
  // Each plan runs on a fresh, deterministically seeded simulator, and the
  // plans run in a fixed order, so the aggregate is bit-reproducible no
  // matter how many threads drive the surrounding sweep.
  auto resilience_run = [&] {
    params.faults.validate();
    const std::vector<faults::FaultPlan> plans =
        params.faults.plans_for(arr.graph());
    double worst_rate = 0.0;
    noc::Cycle slowest_recovery = 0;
    bool all_recovered = true;
    for (const faults::FaultPlan& plan : plans) {
      noc::Simulator sim(noc::SimulationArena::local(), topology, params.sim);
      sim.set_traffic(traffic);
      const faults::ResilienceStats stats =
          sim.run_resilience(params.faults.offered_rate, plan,
                             params.faults.warmup, params.faults.measure);
      if (r.fault_plans_run == 0 || stats.degraded_rate < worst_rate) {
        worst_rate = stats.degraded_rate;
      }
      if (stats.recovered) {
        slowest_recovery = std::max(slowest_recovery, stats.recovery_cycles);
      } else {
        all_recovered = false;
      }
      r.fault_packets_lost += stats.packets_lost;
      ++r.fault_plans_run;
    }
    if (r.fault_plans_run > 0) {
      r.fault_degraded_throughput = worst_rate;
      r.fault_robust_throughput_bps =
          worst_rate * r.full_global_bandwidth_bps;
      r.fault_recovery_cycles = all_recovered ? slowest_recovery : -1;
    }
  };

  // The two measurements are independent (each owns a fresh network and a
  // deterministically seeded RNG), so they can run as one parallel batch;
  // the saturation search speculates its own probes through the same
  // executor. Results match the sequential path bit for bit either way.
  if (executor != nullptr && params.measure_latency &&
      params.measure_saturation) {
    std::vector<std::function<void()>> jobs;
    jobs.push_back(latency_run);
    jobs.push_back(saturation_run);
    if (params.faults.enabled()) jobs.push_back(resilience_run);
    executor->run_batch(jobs);
  } else {
    if (params.measure_latency) latency_run();
    if (params.measure_saturation) saturation_run();
    if (params.faults.enabled()) resilience_run();
  }
  return r;
}

}  // namespace hm::core
