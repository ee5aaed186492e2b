#include "graph/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <stdexcept>

namespace hm::graph {

namespace {

/// distance_summary sweeps every vertex once the frontier holds at least
/// 1/kSweepFraction of them; below that, frontier vertices push.
constexpr std::size_t kSweepFraction = 8;

}  // namespace

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

  // 64 BFSs per pass: bit i of a vertex's words belongs to source base + i.
  // frontier[v] holds the sources whose BFS reached v at the current depth,
  // seen[v] those that reached it at any depth. A level ORs the neighbours'
  // frontier words into next[v] and keeps the bits not yet seen. Between
  // levels, frontier is zero except at the vertices listed in `active`, and
  // next is zero everywhere.
  std::vector<std::uint64_t> seen(n);
  std::vector<std::uint64_t> frontier(n, 0);
  std::vector<std::uint64_t> next(n, 0);
  std::vector<NodeId> active;
  std::vector<NodeId> next_active;
  active.reserve(n);
  next_active.reserve(n);
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t width = std::min<std::size_t>(64, n - base);
    const std::uint64_t all =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    std::fill(seen.begin(), seen.end(), 0);
    active.clear();
    for (std::size_t i = 0; i < width; ++i) {
      seen[base + i] = frontier[base + i] = std::uint64_t{1} << i;
      active.push_back(static_cast<NodeId>(base + i));
    }
    std::size_t reached = width;  // (source, vertex) pairs found so far
    for (int depth = 1;; ++depth) {
      // A bit is new at most once per vertex, so each popcount adds only
      // pairs at exactly `depth` hops.
      std::size_t fresh = 0;
      next_active.clear();
      if (active.size() * kSweepFraction >= n) {
        // Large frontier: every vertex some source has not reached pulls
        // its neighbours' frontier words, in one sweep over the rows.
        for (NodeId v = 0; v < n; ++v) {
          if (seen[v] == all) continue;
          std::uint64_t x = 0;
          for (std::size_t e = offset[v]; e < offset[v + 1]; ++e) {
            x |= frontier[target[e]];
          }
          x &= ~seen[v];
          if (x == 0) continue;
          next[v] = x;
          seen[v] |= x;
          fresh += static_cast<std::size_t>(std::popcount(x));
          next_active.push_back(v);
        }
      } else {
        // Small frontier: only its vertices push to their neighbours.
        for (const NodeId u : active) {
          const std::uint64_t w = frontier[u];
          for (std::size_t e = offset[u]; e < offset[u + 1]; ++e) {
            const NodeId v = target[e];
            const std::uint64_t x = w & ~seen[v];
            if (x == 0) continue;
            if (next[v] == 0) next_active.push_back(v);
            next[v] |= x;
            seen[v] |= x;
            fresh += static_cast<std::size_t>(std::popcount(x));
          }
        }
      }
      for (const NodeId u : active) frontier[u] = 0;
      frontier.swap(next);
      active.swap(next_active);
      if (fresh == 0) break;
      out.total_distance +=
          static_cast<long long>(depth) * static_cast<long long>(fresh);
      out.diameter = std::max(out.diameter, depth);
      reached += fresh;
    }
    if (reached != width * n) {
      throw std::invalid_argument("distance_summary: graph is disconnected");
    }
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
