// Graph algorithms used by the arrangement analysis (paper Sec. III-C and
// IV-D): BFS distances, diameter (latency proxy), average
// shortest-path distance (zero-load-latency predictor), connectivity, and the
// planar average-degree bound of Sec. IV-A.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace hm::graph {

/// Distance value for unreachable vertices.
inline constexpr int kUnreachable = -1;

/// Breadth-first-search distances (in hops) from `src` to every vertex.
/// Unreachable vertices get kUnreachable.
[[nodiscard]] std::vector<int> bfs_distances(const Graph& g, NodeId src);

/// What one all-pairs BFS sweep yields: the diameter and the distance sum
/// behind the average distance.
struct DistanceSummary {
  /// Largest shortest-path hop distance over all vertex pairs.
  int diameter = 0;
  /// Sum of shortest-path hop distances over all ordered pairs (u != v).
  long long total_distance = 0;
  /// total_distance / (n * (n - 1)); 0 for graphs with <= 1 vertex.
  double average_distance = 0.0;
};

/// One BFS per source over a flat copy of the adjacency lists, with the
/// queue and visit marks reused across sources. Throws
/// std::invalid_argument if the graph is disconnected; all zeros for graphs
/// with <= 1 vertex.
[[nodiscard]] DistanceSummary distance_summary(const Graph& g);

/// Network diameter: the maximum over all vertex pairs of the shortest-path
/// hop distance (the paper's latency proxy). Throws std::invalid_argument if
/// the graph is disconnected; returns 0 for graphs with <= 1 vertex.
/// Same as distance_summary(g).diameter.
[[nodiscard]] int diameter(const Graph& g);

/// Mean shortest-path distance over all ordered vertex pairs (u != v).
/// This predicts zero-load latency up to the per-hop cost. Throws if
/// disconnected; returns 0 for graphs with <= 1 vertex. Same as
/// distance_summary(g).average_distance.
[[nodiscard]] double average_distance(const Graph& g);

/// True iff every vertex is reachable from every other (or v <= 1).
[[nodiscard]] bool is_connected(const Graph& g);

/// All bridges — edges whose removal disconnects their component — as
/// (a, b) pairs with a < b, lexicographically sorted. One DFS low-link
/// pass (Tarjan); works per component on disconnected graphs. Used by the
/// arrangement search to enumerate the legally removable D2D links in
/// O(v + e) instead of one connectivity check per edge.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> bridges(const Graph& g);

/// True iff the graph satisfies the planar edge bound e <= 3v - 6 for v >= 3
/// (vacuously true for v < 3). All shared-edge chiplet-adjacency graphs are
/// planar, so this must hold for every arrangement (paper Sec. IV-A).
[[nodiscard]] bool satisfies_planar_bound(const Graph& g);

/// Upper bound on the average degree of a planar graph: 6 - 12/v (v >= 3).
[[nodiscard]] double planar_avg_degree_bound(std::size_t v);

}  // namespace hm::graph
