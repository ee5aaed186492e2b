#include "partition/coarsen.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace hm::partition::detail {

CoarseLevel coarsen_once(const WeightedGraph& g, std::mt19937& rng,
                         int max_node_weight) {
  const std::size_t n = g.n();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  constexpr std::uint32_t kUnmatched = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> match(n, kUnmatched);

  for (std::uint32_t v : order) {
    if (match[v] != kUnmatched) continue;
    std::uint32_t best = kUnmatched;
    int best_w = -1;
    for (const auto& [u, w] : g.adj[v]) {
      if (match[u] != kUnmatched) continue;
      if (g.node_weight[v] + g.node_weight[u] > max_node_weight) continue;
      if (w > best_w || (w == best_w && (best == kUnmatched || u < best))) {
        best = u;
        best_w = w;
      }
    }
    if (best != kUnmatched) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // stays a singleton
    }
  }

  CoarseLevel level;
  level.map.assign(n, 0);
  std::vector<std::uint32_t> rep;  // coarse vertex -> its lower fine vertex
  rep.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    // v is the representative of its pair (or a singleton) iff match[v] >= v.
    if (match[v] >= v) {
      const auto cv = static_cast<std::uint32_t>(rep.size());
      level.map[v] = cv;
      if (match[v] != v) level.map[match[v]] = cv;
      rep.push_back(v);
    }
  }
  const auto next_id = static_cast<std::uint32_t>(rep.size());

  level.graph.node_weight.assign(next_id, 0);
  level.graph.adj.resize(next_id);
  for (std::uint32_t v = 0; v < n; ++v) {
    level.graph.node_weight[level.map[v]] += g.node_weight[v];
  }

  // Merge parallel edges between coarse vertices by summing weights. For
  // each coarse vertex cv, `row` collects its higher-numbered coarse
  // neighbours; seen_by[cu] == cv marks cu as already in `row` at
  // slot[cu]. Sorting `row` and emitting both directions in increasing cv
  // leaves every adjacency list sorted by neighbour id.
  std::vector<std::uint32_t> seen_by(next_id, kUnmatched);
  std::vector<std::uint32_t> slot(next_id, 0);
  std::vector<std::pair<std::uint32_t, int>> row;
  for (std::uint32_t cv = 0; cv < next_id; ++cv) {
    row.clear();
    const std::uint32_t fine[2] = {rep[cv], match[rep[cv]]};
    for (int i = 0; i < (fine[0] == fine[1] ? 1 : 2); ++i) {
      for (const auto& [u, w] : g.adj[fine[i]]) {
        const std::uint32_t cu = level.map[u];
        if (cu <= cv) continue;
        if (seen_by[cu] != cv) {
          seen_by[cu] = cv;
          slot[cu] = static_cast<std::uint32_t>(row.size());
          row.emplace_back(cu, 0);
        }
        row[slot[cu]].second += w;
      }
    }
    std::sort(row.begin(), row.end());
    for (const auto& [cu, w] : row) {
      level.graph.adj[cv].emplace_back(cu, w);
      level.graph.adj[cu].emplace_back(cv, w);
    }
  }
  return level;
}

}  // namespace hm::partition::detail
