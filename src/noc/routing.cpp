#include "noc/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "telemetry/telemetry.hpp"

namespace hm::noc {

namespace {

constexpr int kInf = std::numeric_limits<int>::max() / 4;

/// up*/down* orientation: an edge goes "up" toward the endpoint with the
/// smaller (root depth, id) key.
bool ud_goes_up(const std::vector<int>& depth, graph::NodeId u,
                graph::NodeId w) {
  return depth[w] != depth[u] ? depth[w] < depth[u] : w < u;
}

/// Forward next hop of the reachable state (u, phase) toward dst, given
/// the dst column's state distances `sd` (state (v, ph) at sd[ph * n + v]):
/// the transition that decreases the state distance, smallest port first
/// for determinism.
EscapeHop forward_escape_hop(const graph::Graph& g,
                             const std::vector<int>& depth,
                             const std::vector<int>& sd, graph::NodeId dst,
                             graph::NodeId u, int phase) {
  const std::size_t n = g.node_count();
  const int d = sd[static_cast<std::size_t>(phase) * n + u];
  const auto nbrs = g.neighbors(u);
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const graph::NodeId w = nbrs[p];
    const bool up_uw = ud_goes_up(depth, u, w);
    if (phase == 0 && up_uw && (w == dst || sd[w] == d - 1)) {
      return {static_cast<std::uint8_t>(p), 0};
    }
    // A down transition, allowed from either phase.
    if (!up_uw && (w == dst || sd[n + w] == d - 1)) {
      return {static_cast<std::uint8_t>(p), 1};
    }
  }
  throw std::logic_error("RoutingTables: inconsistent up*/down* state graph");
}

void check_buildable(const graph::Graph& g) {
  if (g.node_count() == 0) {
    throw std::invalid_argument("RoutingTables: empty graph");
  }
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("RoutingTables: graph must be connected");
  }
  if (g.max_degree() > 255) {
    throw std::invalid_argument("RoutingTables: degree must be <= 255");
  }
}

}  // namespace

graph::Graph apply_edit(const graph::Graph& g, const GraphEdit& edit) {
  graph::Graph out = g;
  for (const auto& [a, b] : edit.removed) out.remove_edge(a, b);
  for (const auto& [a, b] : edit.added) out.add_edge(a, b);
  return out;
}

RoutingTables::RoutingTables(const graph::Graph& g) {
  check_buildable(g);
  static telemetry::Counter builds("routing.lifetime_builds");
  builds.add();
  const std::size_t n = g.node_count();
  n_ = n;

  degree_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) degree_[v] = g.degree(v);

  // --- All-pairs distances (flat row-major) --------------------------------
  dist_.resize(n * n);
  for (graph::NodeId src = 0; src < n; ++src) {
    const auto row = graph::bfs_distances(g, src);
    std::copy(row.begin(), row.end(), dist_.begin() + flat(src, 0));
  }

  // --- Minimal next-hop port sets (CSR: offsets into one byte array) -------
  min_port_offset_.resize(n * n + 1, 0);
  min_port_data_.reserve(n * n);  // lower bound; most pairs have >= 1 port
  for (graph::NodeId cur = 0; cur < n; ++cur) {
    const auto nbrs = g.neighbors(cur);
    for (graph::NodeId dst = 0; dst < n; ++dst) {
      if (dst != cur) {
        const int want = dist_[flat(cur, dst)] - 1;
        for (std::size_t p = 0; p < nbrs.size(); ++p) {
          if (dist_[flat(nbrs[p], dst)] == want) {
            min_port_data_.push_back(static_cast<std::uint8_t>(p));
          }
        }
      }
      min_port_offset_[flat(cur, dst) + 1] =
          static_cast<std::uint32_t>(min_port_data_.size());
    }
  }

  // --- Escape network: BFS tree from a center, up*/down* orientation -------
  // The root is a graph center: the vertex whose largest distance is
  // smallest, smallest id on ties.
  int best_ecc = kInf;
  for (graph::NodeId v = 0; v < n; ++v) {
    int ecc = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      ecc = std::max(ecc, dist_[flat(v, u)]);
    }
    if (ecc < best_ecc) {
      best_ecc = ecc;
      root_ = v;
    }
  }
  const std::vector<int> depth(dist_.begin() + flat(root_, 0),
                               dist_.begin() + flat(root_, 0) + n);

  // State graph: state (v, phase). Forward transitions:
  //   (u, 0) -up-> (w, 0), (u, 0) -down-> (w, 1), (u, 1) -down-> (w, 1).
  // For each destination, run a backward BFS from {(dst,0), (dst,1)} over
  // reversed transitions and record the forward next hop per state.
  for (int phase = 0; phase < 2; ++phase) {
    escape_[phase].assign(n * n, EscapeHop{});
  }
  std::vector<int> sd(2 * n);
  for (graph::NodeId dst = 0; dst < n; ++dst) {
    build_escape_column(g, depth, dst, sd);
  }
}

void RoutingTables::build_escape_column(const graph::Graph& g,
                                        const std::vector<int>& depth,
                                        graph::NodeId dst,
                                        std::vector<int>& sd) {
  const std::size_t n = n_;
  auto sidx = [n](graph::NodeId v, int phase) {
    return static_cast<std::size_t>(phase) * n + v;
  };

  std::fill(sd.begin(), sd.end(), kInf);
  std::queue<std::pair<graph::NodeId, int>> frontier;
  sd[sidx(dst, 0)] = 0;
  sd[sidx(dst, 1)] = 0;
  frontier.emplace(dst, 0);
  frontier.emplace(dst, 1);
  while (!frontier.empty()) {
    const auto [v, phase] = frontier.front();
    frontier.pop();
    const int d = sd[sidx(v, phase)];
    // Find predecessors (u, pu) with a forward transition into (v, phase).
    for (graph::NodeId u : g.neighbors(v)) {
      const bool up_uv = ud_goes_up(depth, u, v);
      // (u,0) -> (v,0) requires up; (u,0) -> (v,1) and (u,1) -> (v,1)
      // require down.
      if (phase == 0) {
        if (up_uv && sd[sidx(u, 0)] == kInf) {
          sd[sidx(u, 0)] = d + 1;
          frontier.emplace(u, 0);
        }
      } else {
        if (!up_uv) {
          for (int pu = 0; pu < 2; ++pu) {
            if (sd[sidx(u, pu)] == kInf) {
              sd[sidx(u, pu)] = d + 1;
              frontier.emplace(u, pu);
            }
          }
        }
      }
    }
  }

  for (graph::NodeId u = 0; u < n; ++u) {
    if (u == dst) continue;
    for (int phase = 0; phase < 2; ++phase) {
      // Unreachable states are never queried and keep the default hop.
      if (sd[sidx(u, phase)] == kInf) continue;
      escape_[phase][flat(u, dst)] =
          forward_escape_hop(g, depth, sd, dst, u, phase);
    }
  }
}

}  // namespace hm::noc
