#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace hm::graph {

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  if (src >= g.node_count()) {
    throw std::out_of_range("bfs_distances: source out of range");
  }
  std::vector<int> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

DistanceSummary distance_summary(const Graph& g) {
  const std::size_t n = g.node_count();
  DistanceSummary out;
  if (n <= 1) return out;

  std::vector<std::size_t> offset(n + 1, 0);
  std::vector<NodeId> target;
  target.reserve(2 * g.edge_count());
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    target.insert(target.end(), nbrs.begin(), nbrs.end());
    offset[v + 1] = target.size();
  }

  std::vector<NodeId> queue(n);
  std::vector<NodeId> reached_from(n, kInvalidNode);  // last BFS source
  for (NodeId src = 0; src < n; ++src) {
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = src;
    reached_from[src] = src;
    // The queue holds one BFS level after another: queue[head, level_end)
    // is the level at `depth` hops.
    int depth = 0;
    for (;;) {
      const std::size_t level_end = tail;
      out.total_distance += static_cast<long long>(depth) *
                            static_cast<long long>(level_end - head);
      for (; head < level_end; ++head) {
        const NodeId u = queue[head];
        for (std::size_t e = offset[u]; e < offset[u + 1]; ++e) {
          const NodeId v = target[e];
          if (reached_from[v] != src) {
            reached_from[v] = src;
            queue[tail++] = v;
          }
        }
      }
      if (tail == level_end) break;
      ++depth;
    }
    if (tail != n) {
      throw std::invalid_argument("distance_summary: graph is disconnected");
    }
    out.diameter = std::max(out.diameter, depth);
  }
  out.average_distance =
      static_cast<double>(out.total_distance) /
      (static_cast<double>(n) * static_cast<double>(n - 1));
  return out;
}

int diameter(const Graph& g) { return distance_summary(g).diameter; }

double average_distance(const Graph& g) {
  return distance_summary(g).average_distance;
}

bool is_connected(const Graph& g) {
  if (g.node_count() <= 1) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d == kUnreachable; });
}

std::vector<std::pair<NodeId, NodeId>> bridges(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<int> disc(n, -1);  // DFS discovery time; -1 = unvisited
  std::vector<int> low(n, 0);    // lowest discovery time reachable
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<std::pair<NodeId, NodeId>> out;
  int timer = 0;

  // Iterative DFS (explicit stack of (vertex, next-neighbour index));
  // the graph is simple, so skipping exactly the parent vertex is safe.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (disc[start] != -1) continue;
    disc[start] = low[start] = timer++;
    stack.emplace_back(start, 0);
    while (!stack.empty()) {
      const NodeId v = stack.back().first;
      const auto nbrs = g.neighbors(v);
      if (stack.back().second < nbrs.size()) {
        const NodeId w = nbrs[stack.back().second++];
        if (w == parent[v]) continue;
        if (disc[w] == -1) {
          parent[w] = v;
          disc[w] = low[w] = timer++;
          stack.emplace_back(w, 0);
        } else {
          low[v] = std::min(low[v], disc[w]);
        }
      } else {
        stack.pop_back();
        if (!stack.empty()) {
          const NodeId p = stack.back().first;
          low[p] = std::min(low[p], low[v]);
          // No back edge from v's subtree climbs above p: {p, v} is the
          // subtree's only link to the rest of the component.
          if (low[v] > disc[p]) {
            out.emplace_back(std::min(p, v), std::max(p, v));
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool satisfies_planar_bound(const Graph& g) {
  const std::size_t v = g.node_count();
  if (v < 3) return true;
  return g.edge_count() <= 3 * v - 6;
}

double planar_avg_degree_bound(std::size_t v) {
  if (v < 3) {
    throw std::invalid_argument("planar_avg_degree_bound requires v >= 3");
  }
  return 6.0 - 12.0 / static_cast<double>(v);
}

}  // namespace hm::graph
