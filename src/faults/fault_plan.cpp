#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"
#include "noc/rng.hpp"

namespace hm::faults {

namespace {

using graph::NodeId;

[[nodiscard]] std::pair<NodeId, NodeId> canon(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

[[nodiscard]] std::string link_name(NodeId a, NodeId b) {
  return std::to_string(a) + "-" + std::to_string(b);
}

[[nodiscard]] std::string event_label(std::size_t i, const FaultEvent& e) {
  return "FaultPlan event " + std::to_string(i) + " (" +
         std::string(to_string(e.kind)) + " @" + std::to_string(e.at) + ")";
}

[[nodiscard]] std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkKill:
      return "kill-link";
    case FaultKind::kLinkRepair:
      return "repair-link";
  }
  return "?";
}

void FaultPlan::validate(const graph::Graph& g) const {
  if (reconvergence_delay < 0) {
    throw std::invalid_argument(
        "FaultPlan: reconvergence_delay must be >= 0");
  }

  const std::size_t n = g.node_count();
  graph::Graph work = g;
  std::set<std::pair<NodeId, NodeId>> killed_links;
  noc::Cycle prev_at = 0;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.at < 0) {
      throw std::invalid_argument(event_label(i, e) + ": negative time");
    }
    if (e.at < prev_at) {
      throw std::invalid_argument(
          event_label(i, e) + ": out of order (previous event at cycle " +
          std::to_string(prev_at) + ")");
    }
    prev_at = e.at;
    if (e.a >= n || e.b >= n) {
      throw std::invalid_argument(event_label(i, e) +
                                  ": router id out of range (graph has " +
                                  std::to_string(n) + " nodes)");
    }
    if (e.a == e.b) {
      throw std::invalid_argument(event_label(i, e) + ": self-loop link");
    }

    switch (e.kind) {
      case FaultKind::kLinkKill: {
        if (!work.has_edge(e.a, e.b)) {
          if (killed_links.count(canon(e.a, e.b)) != 0) {
            throw std::invalid_argument(event_label(i, e) +
                                        ": duplicate kill of link " +
                                        link_name(e.a, e.b));
          }
          throw std::invalid_argument(event_label(i, e) + ": no link " +
                                      link_name(e.a, e.b) +
                                      " in the arrangement graph");
        }
        const auto br = graph::bridges(work);
        if (std::binary_search(br.begin(), br.end(), canon(e.a, e.b))) {
          throw std::invalid_argument(
              event_label(i, e) + ": killing bridge link " +
              link_name(e.a, e.b) + " would disconnect the network");
        }
        work.remove_edge(e.a, e.b);
        killed_links.insert(canon(e.a, e.b));
        break;
      }
      case FaultKind::kLinkRepair: {
        if (killed_links.erase(canon(e.a, e.b)) == 0) {
          throw std::invalid_argument(event_label(i, e) + ": link " +
                                      link_name(e.a, e.b) +
                                      " is not killed at that time");
        }
        work.add_edge(e.a, e.b);
        break;
      }
    }
  }
}

std::string FaultPlan::describe() const {
  if (events.empty()) return "no-faults";
  std::string s;
  for (const FaultEvent& e : events) {
    if (!s.empty()) s += "; ";
    s += to_string(e.kind);
    s += ' ';
    s += link_name(e.a, e.b);
    s += " @";
    s += std::to_string(e.at);
  }
  return s;
}

void FaultScenarioSpec::validate() const {
  if (single_link_kills < 0 || single_link_kills > 64) {
    throw std::invalid_argument(
        "FaultScenarioSpec: single_link_kills must be in [0, 64]");
  }
  if (storm_kills < 0 || storm_kills > 256) {
    throw std::invalid_argument(
        "FaultScenarioSpec: storm_kills must be in [0, 256]");
  }
  if (kill_at < 1) {
    throw std::invalid_argument("FaultScenarioSpec: kill_at must be >= 1");
  }
  if (storm_kills > 0 && storm_spacing < 1) {
    throw std::invalid_argument(
        "FaultScenarioSpec: storm_spacing must be >= 1");
  }
  if (repair_after < 0) {
    throw std::invalid_argument(
        "FaultScenarioSpec: repair_after must be >= 0");
  }
  if (reconvergence_delay < 0) {
    throw std::invalid_argument(
        "FaultScenarioSpec: reconvergence_delay must be >= 0");
  }
  if (!(offered_rate > 0.0) || !(offered_rate <= 1.0)) {
    throw std::invalid_argument(
        "FaultScenarioSpec: offered_rate must be in (0, 1], got " +
        fmt_rate(offered_rate));
  }
  if (warmup < 0 || measure < 1) {
    throw std::invalid_argument(
        "FaultScenarioSpec: warmup must be >= 0 and measure >= 1");
  }
}

std::vector<FaultPlan> FaultScenarioSpec::plans_for(
    const graph::Graph& g) const {
  std::vector<FaultPlan> plans = explicit_plans;
  FaultPlan no_events;
  no_events.reconvergence_delay = reconvergence_delay;
  const auto killable = [](const graph::Graph& work) {
    const auto br = graph::bridges(work);
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const auto& e : work.edges()) {
      if (!std::binary_search(br.begin(), br.end(), e)) out.push_back(e);
    }
    return out;
  };

  if (single_link_kills > 0) {
    auto candidates = killable(g);
    noc::Rng rng(noc::derive_seed(seed, 0x4B494C4CULL));  // "KILL"
    for (int k = 0; k < single_link_kills && !candidates.empty(); ++k) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(candidates.size()));
      const auto [a, b] = candidates[idx];
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(idx));
      FaultPlan p = no_events;
      p.events.push_back({kill_at, FaultKind::kLinkKill, a, b});
      if (repair_after > 0) {
        p.events.push_back(
            {kill_at + repair_after, FaultKind::kLinkRepair, a, b});
      }
      plans.push_back(std::move(p));
    }
  }

  if (storm_kills > 0) {
    graph::Graph work = g;
    noc::Rng rng(noc::derive_seed(seed, 0x53544F524DULL));  // "STORM"
    FaultPlan p = no_events;
    for (int k = 0; k < storm_kills; ++k) {
      const auto candidates = killable(work);
      if (candidates.empty()) break;  // nothing left to kill survivably
      const auto [a, b] = candidates[static_cast<std::size_t>(
          rng.uniform_int(candidates.size()))];
      p.events.push_back({kill_at + static_cast<noc::Cycle>(k) *
                                        storm_spacing,
                          FaultKind::kLinkKill, a, b});
      work.remove_edge(a, b);
    }
    if (!p.events.empty()) plans.push_back(std::move(p));
  }
  return plans;
}

std::string FaultScenarioSpec::describe() const {
  if (!enabled()) return "";
  std::string s = "kills=" + std::to_string(single_link_kills) +
                  " storm=" + std::to_string(storm_kills) +
                  " seed=" + std::to_string(seed) +
                  " rate=" + fmt_rate(offered_rate);
  if (!explicit_plans.empty()) {
    s += " explicit=" + std::to_string(explicit_plans.size());
  }
  if (repair_after > 0) s += " repair=" + std::to_string(repair_after);
  if (reconvergence_delay > 0) {
    s += " reconv=" + std::to_string(reconvergence_delay);
  }
  return s;
}

}  // namespace hm::faults
