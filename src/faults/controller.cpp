#include "faults/controller.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

#include "telemetry/telemetry.hpp"

namespace hm::faults {

namespace {

using graph::NodeId;

[[nodiscard]] std::pair<NodeId, NodeId> canon(NodeId a, NodeId b) {
  return a < b ? std::pair<NodeId, NodeId>{a, b}
               : std::pair<NodeId, NodeId>{b, a};
}

}  // namespace

FaultController::FaultController(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultController::arm(noc::Network& net, noc::Cycle now) {
  assert(!armed_);
  base_topo_ = net.topology_ptr();
  plan_.validate(base_topo_->graph());
  armed_ = true;
  arm_cycle_ = now;
  killed_links_.clear();
  live_topo_ = base_topo_;

  window_end_ = now + kRecoveryWindow;
  arm_delivered_ = net.total_flits_ejected();
  window_start_count_ = arm_delivered_;
}

noc::Cycle FaultController::next_event_cycle() const noexcept {
  noc::Cycle next = std::numeric_limits<noc::Cycle>::max();
  if (next_event_ < plan_.events.size()) {
    next = arm_cycle_ + plan_.events[next_event_].at;
  }
  if (next_swap_ < swaps_.size() && swaps_[next_swap_].at < next) {
    next = swaps_[next_swap_].at;
  }
  return next;
}

void FaultController::on_tick(noc::Network& net, noc::Cycle now) {
  // Sample first: the delivered counter covers cycles < now, so a window
  // ending exactly at `now` closes with the exact count. Then install due
  // table swaps (scheduled by earlier batches) before applying any batch
  // due this very cycle, which may schedule its own later swap.
  sample_recovery(net, now);
  while (next_swap_ < swaps_.size() && swaps_[next_swap_].at <= now) {
    net.set_degraded_routing(swaps_[next_swap_].view);
    ++next_swap_;
  }
  while (next_event_ < plan_.events.size() &&
         arm_cycle_ + plan_.events[next_event_].at <= now) {
    apply_batch(net, now);
  }
}

void FaultController::apply_batch(noc::Network& net, noc::Cycle now) {
  // Consume every event sharing the batch's scheduled time so simultaneous
  // kills become one transition (one excision, one table rebuild).
  const noc::Cycle at = plan_.events[next_event_].at;
  const std::set<Edge> killed_before = killed_links_;
  bool any_kill = false;
  while (next_event_ < plan_.events.size() &&
         plan_.events[next_event_].at == at) {
    const FaultEvent& e = plan_.events[next_event_++];
    switch (e.kind) {
      case FaultKind::kLinkKill:
        killed_links_.insert(canon(e.a, e.b));
        ++stats_.links_killed;
        any_kill = true;
        break;
      case FaultKind::kLinkRepair:
        killed_links_.erase(canon(e.a, e.b));
        ++stats_.repairs;
        break;
    }
  }

  if (any_kill && stats_.first_kill_cycle < 0) {
    stats_.first_kill_cycle = now - arm_cycle_;  // reported relative to arm
    if (!have_pre_rate_) {
      // No full pre-fault window closed yet: fall back to the cumulative
      // healthy-phase rate so recovery has a meaningful baseline.
      const noc::Cycle span = now - arm_cycle_;
      const std::uint64_t delivered =
          net.total_flits_ejected() - arm_delivered_;
      stats_.pre_fault_rate =
          span > 0 ? static_cast<double>(delivered) /
                         (static_cast<double>(span) *
                          static_cast<double>(net.num_endpoints()))
                   : 0.0;
      have_pre_rate_ = true;
    }
    // Recovery is counted in whole windows from the kill: the window in
    // progress still holds pre-kill cycles, so it is dropped and the next
    // one starts here.
    window_start_count_ = net.total_flits_ejected();
    window_end_ = now + kRecoveryWindow;
  }

  // The batch's net effect, in ascending edge order: links killed and not
  // repaired within it are removed, links repaired and not killed again are
  // added back.
  noc::GraphEdit edit;
  std::set_difference(killed_links_.begin(), killed_links_.end(),
                      killed_before.begin(), killed_before.end(),
                      std::back_inserter(edit.removed));
  std::set_difference(killed_before.begin(), killed_before.end(),
                      killed_links_.begin(), killed_links_.end(),
                      std::back_inserter(edit.added));

  const noc::Network::FaultOutcome outcome =
      net.fault_transition(edit.removed, edit.added);
  stats_.flits_dropped += outcome.flits_dropped;
  stats_.packets_lost += outcome.packets_lost;
  stats_.packets_rerouted += outcome.packets_rerouted;

  const noc::DegradedRouting* view = build_view(edit);
  if (plan_.reconvergence_delay <= 0) {
    net.set_degraded_routing(view);
  } else {
    swaps_.push_back(PendingSwap{now + plan_.reconvergence_delay, view});
  }
}

const noc::DegradedRouting* FaultController::build_view(
    const noc::GraphEdit& edit) {
  if (killed_links_.empty()) {
    live_topo_ = base_topo_;  // back to full health
    return nullptr;
  }
  // The previous live topology with this batch's kills and repairs.
  live_topo_ = noc::TopologyContext::rebuild_from(live_topo_, edit);

  const graph::Graph& g = base_topo_->graph();
  auto view = std::make_unique<noc::DegradedRouting>();
  view->topo = live_topo_;
  view->port_map.resize(g.node_count());
  for (NodeId r = 0; r < g.node_count(); ++r) {
    const std::span<const NodeId> nbrs = g.neighbors(r);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      if (killed_links_.count(canon(r, nbrs[p])) == 0) {
        view->port_map[r].push_back(static_cast<std::uint8_t>(p));
      }
    }
  }
  views_.push_back(std::move(view));
  return views_.back().get();
}

void FaultController::sample_recovery(const noc::Network& net,
                                      noc::Cycle now) {
  if (done_sampling_) return;
  // Lazy catch-up is exact: the network is quiescent over any fast-forward
  // skip, so the delivered counter is constant across every window closed
  // in arrears.
  while (!done_sampling_ && window_end_ <= now) {
    const std::uint64_t delivered = net.total_flits_ejected();
    const double rate =
        static_cast<double>(delivered - window_start_count_) /
        (static_cast<double>(kRecoveryWindow) *
         static_cast<double>(net.num_endpoints()));
    if (stats_.first_kill_cycle < 0) {
      stats_.pre_fault_rate = rate;
      have_pre_rate_ = true;
    } else {
      if (!have_degraded_ || rate < stats_.degraded_rate) {
        stats_.degraded_rate = rate;
        have_degraded_ = true;
      }
      if (stats_.pre_fault_rate > 0.0 &&
          rate >= kRecoveryThreshold * stats_.pre_fault_rate) {
        stats_.recovered = true;
        stats_.recovery_cycles =
            window_end_ - (arm_cycle_ + stats_.first_kill_cycle);
        done_sampling_ = true;
      }
    }
    window_start_count_ = delivered;
    window_end_ += kRecoveryWindow;
  }
}

void FaultController::flush_telemetry() const {
  if (!telemetry::enabled()) return;
  static telemetry::Counter links_killed("fault.links_killed");
  static telemetry::Counter repairs("fault.repairs");
  static telemetry::Counter flits_dropped("fault.flits_dropped");
  static telemetry::Counter packets_lost("fault.packets_lost");
  static telemetry::Counter packets_rerouted("fault.packets_rerouted");
  static telemetry::Counter recoveries("fault.recoveries");
  static telemetry::Counter recovery_cycles("fault.recovery_cycles");
  links_killed.add(stats_.links_killed);
  repairs.add(stats_.repairs);
  flits_dropped.add(stats_.flits_dropped);
  packets_lost.add(stats_.packets_lost);
  packets_rerouted.add(stats_.packets_rerouted);
  if (stats_.recovered) {
    recoveries.add(1);
    recovery_cycles.add(static_cast<std::uint64_t>(stats_.recovery_cycles));
  }
}

}  // namespace hm::faults
