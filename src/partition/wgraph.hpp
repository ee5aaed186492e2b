// Internal weighted-graph representation used by the multilevel bisection
// pipeline (coarsening merges vertices, so both vertices and edges carry
// integer weights). Not part of the public API.
//
// The layout is CSR, as in METIS (Karypis & Kumar, SIAM J. Sci. Comput.
// 1998): one node-weight array, one row-offset array and one edge array of
// (neighbour, weight) pairs, each row sorted by neighbour id. Gain sums,
// matching tie-breaks and FM picks all walk rows in that order.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace hm::partition::detail {

/// One directed half of an undirected weighted edge: (neighbour, weight).
using WeightedEdge = std::pair<std::uint32_t, int>;

/// Vertex/edge-weighted undirected graph in CSR form.
struct WeightedGraph {
  /// node_weight[v] = number of original vertices contracted into v.
  std::vector<int> node_weight;
  /// Row v is edges[offset[v], offset[v + 1]); n() + 1 entries.
  std::vector<std::uint32_t> offset{0};
  /// Every row's (neighbour, weight) pairs, sorted by neighbour; symmetric.
  std::vector<WeightedEdge> edges;

  [[nodiscard]] std::size_t n() const noexcept { return node_weight.size(); }

  /// The (neighbour, weight) pairs of `v`, sorted by neighbour id.
  [[nodiscard]] std::span<const WeightedEdge> row(std::uint32_t v) const {
    return {edges.data() + offset[v], edges.data() + offset[v + 1]};
  }

  [[nodiscard]] long long total_node_weight() const noexcept {
    long long t = 0;
    for (int w : node_weight) t += w;
    return t;
  }
};

/// Lifts an unweighted graph (all weights 1) into the weighted form.
[[nodiscard]] inline WeightedGraph from_graph(const graph::Graph& g) {
  WeightedGraph wg;
  wg.node_weight.assign(g.node_count(), 1);
  wg.offset.reserve(g.node_count() + 1);
  wg.edges.reserve(2 * g.edge_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    for (graph::NodeId u : g.neighbors(v)) wg.edges.emplace_back(u, 1);
    wg.offset.push_back(static_cast<std::uint32_t>(wg.edges.size()));
  }
  return wg;
}

/// Weighted cut of a 0/1 side assignment.
[[nodiscard]] inline long long cut_weight(const WeightedGraph& g,
                                          const std::vector<int>& side) {
  long long cut = 0;
  for (std::uint32_t v = 0; v < g.n(); ++v) {
    for (const auto& [u, w] : g.row(v)) {
      if (v < u && side[v] != side[u]) cut += w;
    }
  }
  return cut;
}

}  // namespace hm::partition::detail
