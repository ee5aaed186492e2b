#include "partition/coarsen.hpp"

#include <numeric>

#include "partition/draws.hpp"

namespace hm::partition::detail {

namespace {

constexpr std::uint32_t kUnmatched = static_cast<std::uint32_t>(-1);

/// coarsen_once's index buffers. A bisection coarsens a dozen times per
/// start, so the storage is kept per thread, like fm_refine's.
struct CoarsenScratch {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> match;
  std::vector<std::uint32_t> rep;      ///< coarse vertex -> lower fine vertex
  std::vector<std::uint32_t> seen_by;  ///< coarse vertex whose row holds cu
  std::vector<std::uint32_t> slot;     ///< cu's entry in `merged`
  std::vector<WeightedEdge> merged;    ///< merged rows, unsorted
  std::vector<std::uint32_t> cursor;   ///< next free edge of each row
};

}  // namespace

CoarseLevel coarsen_once(const WeightedGraph& g, std::mt19937& rng,
                         int max_node_weight) {
  const std::size_t n = g.n();
  thread_local CoarsenScratch scratch;
  std::vector<std::uint32_t>& order = scratch.order;
  std::vector<std::uint32_t>& match = scratch.match;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  detail::shuffle(order, rng);
  match.assign(n, kUnmatched);

  for (std::uint32_t v : order) {
    if (match[v] != kUnmatched) continue;
    std::uint32_t best = kUnmatched;
    int best_w = -1;
    for (const auto& [u, w] : g.row(v)) {
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
  std::vector<std::uint32_t>& rep = scratch.rep;
  rep.clear();
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

  WeightedGraph& coarse = level.graph;
  coarse.node_weight.assign(next_id, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    coarse.node_weight[level.map[v]] += g.node_weight[v];
  }

  // Merge parallel edges between coarse vertices by summing weights:
  // seen_by[cu] == cv marks cu as already in cv's row, at merged[slot[cu]].
  // Rows come out in first-seen order; their lengths fix the CSR offsets.
  std::vector<std::uint32_t>& seen_by = scratch.seen_by;
  std::vector<std::uint32_t>& slot = scratch.slot;
  std::vector<WeightedEdge>& merged = scratch.merged;
  seen_by.assign(next_id, kUnmatched);
  slot.resize(next_id);
  merged.clear();
  coarse.offset.resize(std::size_t{next_id} + 1);
  coarse.offset[0] = 0;
  for (std::uint32_t cv = 0; cv < next_id; ++cv) {
    const std::uint32_t fine[2] = {rep[cv], match[rep[cv]]};
    for (int i = 0; i < (fine[0] == fine[1] ? 1 : 2); ++i) {
      for (const auto& [u, w] : g.row(fine[i])) {
        const std::uint32_t cu = level.map[u];
        if (cu == cv) continue;  // the contracted edge itself
        if (seen_by[cu] != cv) {
          seen_by[cu] = cv;
          slot[cu] = static_cast<std::uint32_t>(merged.size());
          merged.emplace_back(cu, 0);
        }
        merged[slot[cu]].second += w;
      }
    }
    coarse.offset[cv + 1] = static_cast<std::uint32_t>(merged.size());
  }

  // Transpose: the graph is symmetric, so row cu is every (cv, w) with cu
  // in row cv. Walking cv upwards appends each row's entries in increasing
  // neighbour id, so every row ends up sorted without a sort.
  std::vector<std::uint32_t>& cursor = scratch.cursor;
  cursor.assign(coarse.offset.begin(), coarse.offset.end() - 1);
  coarse.edges.resize(merged.size());
  for (std::uint32_t cv = 0; cv < next_id; ++cv) {
    for (std::uint32_t e = coarse.offset[cv]; e < coarse.offset[cv + 1]; ++e) {
      const auto [cu, w] = merged[e];
      coarse.edges[cursor[cu]++] = {cv, w};
    }
  }
  return level;
}

}  // namespace hm::partition::detail
