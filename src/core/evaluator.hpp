// End-to-end evaluation pipeline of Sec. VI: an arrangement of N chiplets is
// turned into (a) analytic proxies (diameter, bisection width via the
// partitioner for non-regular cases), (b) a per-link bandwidth from the
// chiplet-shape solver + D2D link model, and (c) cycle-accurate zero-load
// latency and saturation throughput from the NoC simulator. Saturation
// throughput in Tb/s = accepted fraction x full global bandwidth, where the
// full global bandwidth is N x endpoints/chiplet x per-link bandwidth
// (Sec. VI-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/arrangement.hpp"
#include "core/link_model.hpp"
#include "core/shape.hpp"
#include "faults/fault_plan.hpp"
#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "noc/traffic.hpp"

namespace hm::noc {
class ProbeExecutor;
class TopologyContext;
}  // namespace hm::noc

namespace hm::core {

/// All parameters of the paper's evaluation (defaults = Sec. VI values).
struct EvaluationParams {
  double total_area_mm2 = kDefaultTotalAreaMm2;  ///< A_all; A_C = A_all / N
  double power_fraction = kDefaultPowerFraction;
  double bump_pitch_mm = kDefaultBumpPitchMm;
  int non_data_wires = kDefaultNonDataWires;
  double frequency_hz = kDefaultFrequencyHz;

  /// Injection rate used for the zero-load latency measurement
  /// (flits/cycle/endpoint; low enough to avoid queueing).
  double zero_load_injection_rate = 0.01;

  /// Cycle-accurate simulator knobs (defaults mirror Sec. VI-A).
  noc::SimConfig sim;

  /// Simulation phase lengths (cycles). The throughput windows apply to
  /// each probe of the saturation binary search (~8 probes per design).
  noc::Cycle latency_warmup = 3000;
  noc::Cycle latency_measure = 8000;
  noc::Cycle latency_drain_limit = 300000;
  noc::Cycle throughput_warmup = 3500;
  noc::Cycle throughput_measure = 3500;

  /// Which cycle-accurate measurements evaluate() runs. Sweeps that only
  /// plot one of the two figures (e.g. Fig. 7a vs 7b) skip the other half
  /// of the simulation budget; skipped fields stay zero.
  bool measure_latency = true;
  bool measure_saturation = true;

  /// Fault-injection scenario (disabled by default). When enabled,
  /// evaluate() additionally runs one resilience simulation per generated
  /// plan and reports the worst case over the plan set — the robust
  /// objective the search can optimize.
  faults::FaultScenarioSpec faults;
};

/// Everything the paper reports per design point.
struct EvaluationResult {
  std::size_t chiplet_count = 0;
  RegularityClass regularity = RegularityClass::kRegular;

  // Analytic proxies (Sec. IV-D).
  int diameter = 0;
  double avg_hop_distance = 0.0;
  std::size_t bisection_links = 0;

  // Link model (Sec. V).
  std::size_t link_count = 0;  ///< D2D links in the arrangement graph
  double chiplet_area_mm2 = 0.0;
  double link_area_mm2 = 0.0;
  double per_link_bandwidth_bps = 0.0;
  double full_global_bandwidth_bps = 0.0;

  // Cycle-accurate simulation (Sec. VI-A).
  double zero_load_latency_cycles = 0.0;
  /// Accepted flit rate at the saturation knee, as a fraction of the full
  /// injection rate (binary search over offered load, BookSim methodology).
  double saturation_fraction = 0.0;
  double saturation_throughput_bps = 0.0; ///< fraction x full global BW
  bool latency_run_drained = false;

  // Fault injection & resilience (worst case over params.faults' plan set;
  // zeros/-1 when the scenario is disabled).
  std::size_t fault_plans_run = 0;
  /// Worst (minimum over plans) degraded delivered rate,
  /// flits/cycle/endpoint — the robust counterpart of saturation_fraction.
  double fault_degraded_throughput = 0.0;
  /// fault_degraded_throughput x full global bandwidth: the worst-case
  /// delivered bandwidth under the fault scenario.
  double fault_robust_throughput_bps = 0.0;
  /// Slowest recovery over the plan set; -1 when any plan failed to reach
  /// the recovery threshold within its run.
  noc::Cycle fault_recovery_cycles = -1;
  std::uint64_t fault_packets_lost = 0;  ///< summed over plans
};

/// Per-link bump-sector area A_B for an arrangement whose chiplets have area
/// `chiplet_area`, from the chiplet-shape solver's sector formula at every N.
/// The paper hand-optimizes bump assignment for N <= 7 (Sec. VI-B) without
/// saying how, so small designs get the general formula too.
[[nodiscard]] double link_area_for(const Arrangement& arr,
                                   double chiplet_area_mm2,
                                   const EvaluationParams& params);

/// Analytic-only evaluation (no simulation): proxies + link model.
/// Bisection uses the closed forms for regular arrangements and the
/// balanced partitioner otherwise (exactly like the paper's Fig. 6b).
[[nodiscard]] EvaluationResult evaluate_analytic(
    const Arrangement& arr, const EvaluationParams& params = {});

/// Analytic saturation estimate in [0, 1] for
/// noc::SaturationSearchOptions::surrogate_rate, from the analytic fields
/// of `r` (bisection_links, link_count, avg_hop_distance, chiplet_count):
/// the tighter of the uniform-traffic bisection bound and the
/// channel-capacity bound on the per-endpoint flit rate, scaled by an
/// empirical input-queued-router efficiency. Only a search seed: a poor
/// estimate costs the saturation search extra probes. The search returns
/// a local knee of its dyadic grid (a stable point whose next step up is
/// unstable), so where probe outcomes are not monotone in the rate a
/// different estimate can return a different knee. Returns 0 when the
/// fields needed are missing/degenerate (the search then gallops up from
/// the bottom of the grid).
[[nodiscard]] double analytic_saturation_estimate(
    const EvaluationResult& r, const EvaluationParams& params);

/// Full evaluation including the cycle-accurate simulations (Fig. 7).
/// Requires >= 2 chiplets (a 1-chiplet design has no ICI to simulate).
///
/// Re-entrant and const-correct: it touches no shared mutable state, so
/// concurrent calls on different (or the same) arrangements are safe —
/// this is the entry point the explore::SweepEngine fans out across
/// threads. `traffic` selects the simulated pattern (default: uniform
/// random, the paper's setup). When `executor` is non-null, the
/// independent simulation probes within this one design — the zero-load
/// latency run and the saturation-search probes — run in parallel; the
/// result is bit-identical to the sequential evaluation because every
/// probe owns a fresh, deterministically seeded simulator.
[[nodiscard]] EvaluationResult evaluate(const Arrangement& arr,
                                        const EvaluationParams& params = {},
                                        const noc::TrafficSpec& traffic = {},
                                        noc::ProbeExecutor* executor = nullptr);

/// evaluate() on a pre-acquired shared topology for arr.graph(): the
/// zero-load latency run and every saturation probe reuse `topology`
/// read-only instead of rebuilding routing tables per fresh simulator.
/// Throws std::invalid_argument when `topology` was built for a different
/// graph. The overloads without a context acquire one per call, which the
/// process-wide context cache still collapses to a single build per graph.
[[nodiscard]] EvaluationResult evaluate(
    const Arrangement& arr, const EvaluationParams& params,
    const noc::TrafficSpec& traffic, noc::ProbeExecutor* executor,
    std::shared_ptr<const noc::TopologyContext> topology);

/// The simulation half of evaluate(): takes an `analytic` result already
/// computed by evaluate_analytic(arr, params) and fills in the
/// cycle-accurate fields. Lets callers (e.g. the sweep engine's
/// ResultCache) share one analytic evaluation across many traffic or
/// simulator ablations of the same design.
[[nodiscard]] EvaluationResult evaluate_simulation(
    const Arrangement& arr, const EvaluationParams& params,
    EvaluationResult analytic, const noc::TrafficSpec& traffic = {},
    noc::ProbeExecutor* executor = nullptr);

/// evaluate_simulation() on a pre-acquired shared topology (see the
/// evaluate() context overload). This is the entry point the sweep engine
/// uses so that one topology build serves every probe of a job — and, via
/// the context cache, every job of the same design.
[[nodiscard]] EvaluationResult evaluate_simulation(
    const Arrangement& arr, const EvaluationParams& params,
    EvaluationResult analytic, const noc::TrafficSpec& traffic,
    noc::ProbeExecutor* executor,
    std::shared_ptr<const noc::TopologyContext> topology);

}  // namespace hm::core
