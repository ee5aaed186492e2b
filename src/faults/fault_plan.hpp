// Fault injection plans for the cycle-accurate NoC simulator.
//
// A FaultPlan is a validated schedule of link-kill / link-repair events
// applied to a running Network (paper context: a D2D link dying mid-run).
// Validation replays the schedule against the arrangement graph up front and
// rejects, with a precise message, anything the runtime could not apply
// deterministically: unordered times, ids out of range, duplicate kills,
// repairs of healthy links, and any kill of a bridge (graph::bridges), which
// would disconnect the network. So every accepted plan keeps all routers
// connected and routable, before and after each event.
//
// A FaultScenarioSpec is the search/sweep-facing wrapper: instead of fixing
// concrete events (which would bind to one graph), it deterministically
// *generates* per-graph plans from a seed — K independent single-link kills
// avoiding bridges, or an N-kill storm — so the same spec can score every
// candidate arrangement of a search and feed the worst case back as a
// robust objective.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "noc/flit.hpp"

namespace hm::faults {

/// Recovery = the first post-kill sampling window whose delivered-flit rate
/// reaches kRecoveryThreshold x the pre-fault rate. Windows of
/// kRecoveryWindow cycles run back to back from the arm cycle; the first
/// kill drops the partial window and starts the next one, so recovery takes
/// a whole number of windows.
inline constexpr double kRecoveryThreshold = 0.9;
inline constexpr noc::Cycle kRecoveryWindow = 512;

/// Explicit plans hash these values into store keys (explore/hash.cpp), so
/// the numbers are fixed; 1 and 3 are unused.
enum class FaultKind : std::uint8_t {
  kLinkKill = 0,
  kLinkRepair = 2,
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled fault event. `at` counts cycles from the instant the plan
/// is armed on a run (run start), not absolute simulation time, so a plan
/// is reusable across runs. {a, b} are the routers at the link's two ends.
struct FaultEvent {
  noc::Cycle at = 0;
  FaultKind kind = FaultKind::kLinkKill;
  graph::NodeId a = 0;
  graph::NodeId b = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A validated schedule of fault events plus the delay before the network
/// reacts to them (reconvergence).
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Cycles between a topology change and the swap to freshly rebuilt
  /// routing tables. During the window routers run on stale tables; heads
  /// aimed at a dead port block on zero credits and are revoked onto the
  /// escape path each cycle, deterministically.
  noc::Cycle reconvergence_delay = 0;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// Replays the schedule against `g` and throws std::invalid_argument on
  /// the first inconsistency (see file comment for the rule set).
  void validate(const graph::Graph& g) const;

  /// Compact single-line description, e.g.
  /// "kill-link 3-7 @1000; repair-link 3-7 @4000".
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Outcome of one faulted run (Simulator::run_resilience). Rates are
/// delivered flits/cycle/endpoint, comparable to ThroughputResult rates.
struct ResilienceStats {
  std::uint64_t links_killed = 0;
  std::uint64_t repairs = 0;
  /// In-network flits excised by kills (never silently leaked: conservation
  /// is injected == ejected + in-network + dropped, pinned by test_faults).
  std::uint64_t flits_dropped = 0;
  /// Distinct in-flight packets excised by kills.
  std::uint64_t packets_lost = 0;
  /// Heads holding a route toward a killed port with zero flits sent:
  /// their allocation is revoked and they re-route on the degraded tables.
  std::uint64_t packets_rerouted = 0;

  double pre_fault_rate = 0.0;  ///< last full window before the first kill
  double degraded_rate = 0.0;   ///< worst post-kill window before recovery
  noc::Cycle first_kill_cycle = -1;
  /// Cycles from the first kill to the end of the recovering window, a
  /// multiple of kRecoveryWindow; -1: not recovered within the run.
  noc::Cycle recovery_cycles = -1;
  bool recovered = false;
};

/// Deterministic per-graph fault-plan generator, embeddable in
/// core::EvaluationParams so sweeps and searches can score candidate
/// arrangements under faults. All generated kills avoid bridges (and each
/// other), so every plan passes FaultPlan::validate on its graph.
struct FaultScenarioSpec {
  /// K independent plans, each killing one seeded random non-bridge link.
  int single_link_kills = 0;
  /// One additional plan with this many successive random kills spaced
  /// `storm_spacing` apart (kills are permanent in storm mode).
  int storm_kills = 0;
  std::uint64_t seed = 1;

  noc::Cycle kill_at = 2000;  ///< first kill, cycles after run start
  noc::Cycle storm_spacing = 400;
  /// Single-kill plans only: repair the killed link this many cycles after
  /// the kill (0 = no repair).
  noc::Cycle repair_after = 0;
  noc::Cycle reconvergence_delay = 0;

  /// Fixed offered rate (flits/cycle/endpoint) of the resilience runs.
  double offered_rate = 0.25;
  noc::Cycle warmup = 2000;   ///< healthy cycles before `kill_at` applies
  noc::Cycle measure = 6000;  ///< post-arm horizon beyond the warmup

  /// Hand-written plans for fixed graphs (CLI / explicit sweeps). They are
  /// validated against each graph they run on.
  std::vector<FaultPlan> explicit_plans;

  [[nodiscard]] bool enabled() const noexcept {
    return single_link_kills > 0 || storm_kills > 0 || !explicit_plans.empty();
  }

  /// Graph-independent knob validation (throws std::invalid_argument).
  void validate() const;

  /// Generates the concrete plans for `g`: explicit plans first, then the
  /// seeded single-kill plans, then the storm plan. Deterministic in
  /// (spec, g); graphs with no killable (non-bridge) link yield fewer
  /// plans than requested.
  [[nodiscard]] std::vector<FaultPlan> plans_for(const graph::Graph& g) const;

  /// Compact description for export columns, e.g.
  /// "kills=2 storm=0 seed=1 rate=0.25".
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const FaultScenarioSpec&,
                         const FaultScenarioSpec&) = default;
};

}  // namespace hm::faults
