// Runtime driver of one FaultPlan against a live Network.
//
// The controller owns the fault state machine the Network itself stays
// ignorant of: which links the plan has killed so far, what the degraded
// routing tables look like, and when they become visible to the routers
// (the reconvergence window). Every accepted plan keeps the network
// connected, so all routers stay routable and the degraded tables cover the
// same vertex set as the healthy ones. The Network only ever sees two
// primitives — fault_transition() with explicit kill/repair sets, and
// set_degraded_routing() with a prebuilt view — so every policy decision
// (table-swap delays, recovery windows) lives here in one place.
//
// Determinism: events fire at exact absolute cycles (arm cycle + event.at),
// the Simulator's fast-forward is clamped by next_event_cycle(), and the
// recovery sampler closes windows lazily from monotone delivered counts, so
// a faulted run is bit-reproducible across thread counts and skip-idle
// modes (test_faults pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "noc/network.hpp"

namespace hm::faults {

/// Applies a FaultPlan's events to a Network at their scheduled cycles,
/// rebuilds the degraded routing view after each batch (its topology via
/// TopologyContext::rebuild_from), delays its installation by the plan's
/// reconvergence window, and samples the delivered-rate windows that define
/// the recovery metrics.
class FaultController {
 public:
  explicit FaultController(FaultPlan plan);

  /// Arms the plan on `net` at cycle `now`: event times become absolute
  /// (now + event.at) and recovery sampling starts. Validates the plan
  /// against the network's graph (throws std::invalid_argument).
  void arm(noc::Network& net, noc::Cycle now);

  /// Next cycle at which the controller changes simulation state (fault
  /// batch or table swap) — the Simulator must not fast-forward past it.
  /// Cycle max when nothing is pending; recovery sampling is lazy and
  /// needs no wakeups.
  [[nodiscard]] noc::Cycle next_event_cycle() const noexcept;

  /// Runs everything due at `now`. Must be called at the top of each
  /// processed tick, before traffic generation and the network step.
  void on_tick(noc::Network& net, noc::Cycle now);

  [[nodiscard]] const ResilienceStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Adds this run's numbers to the process-wide fault.* telemetry
  /// counters (no-op while telemetry is disabled).
  void flush_telemetry() const;

 private:
  using Edge = std::pair<graph::NodeId, graph::NodeId>;

  struct PendingSwap {
    noc::Cycle at = 0;
    const noc::DegradedRouting* view = nullptr;  ///< nullptr: healthy
  };

  void apply_batch(noc::Network& net, noc::Cycle now);
  void sample_recovery(const noc::Network& net, noc::Cycle now);
  /// Builds (and keeps alive) the degraded view matching the current fault
  /// state, `edit` being the batch that led there; nullptr when the network
  /// is back to full health.
  [[nodiscard]] const noc::DegradedRouting* build_view(
      const noc::GraphEdit& edit);

  FaultPlan plan_;
  bool armed_ = false;
  noc::Cycle arm_cycle_ = 0;
  std::size_t next_event_ = 0;  ///< into plan_.events

  std::shared_ptr<const noc::TopologyContext> base_topo_;
  std::set<Edge> killed_links_;

  /// Views installed (or pending) on the network; the routers borrow raw
  /// pointers into these, so they live until the controller dies.
  std::vector<std::unique_ptr<noc::DegradedRouting>> views_;
  std::vector<PendingSwap> swaps_;  ///< monotone `at` (constant delay)
  std::size_t next_swap_ = 0;
  /// The base graph minus killed_links_, each batch's topology the
  /// previous one with the batch's edit applied.
  std::shared_ptr<const noc::TopologyContext> live_topo_;

  // Recovery sampling: back-to-back windows of W cycles from the arm cycle,
  // restarted at the first kill, closed lazily from the monotone
  // delivered-flit counter.
  noc::Cycle window_end_ = 0;
  std::uint64_t window_start_count_ = 0;
  std::uint64_t arm_delivered_ = 0;
  bool have_pre_rate_ = false;
  bool have_degraded_ = false;
  bool done_sampling_ = false;

  ResilienceStats stats_;
};

}  // namespace hm::faults
