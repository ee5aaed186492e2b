#include "partition/partitioner.hpp"

#include <algorithm>
#include <random>

#include "partition/coarsen.hpp"
#include "partition/fm_refine.hpp"
#include "partition/wgraph.hpp"

namespace hm::partition {

namespace {

using detail::CoarseLevel;
using detail::WeightedGraph;

/// One full multilevel V-cycle from a random seed; returns the refined side
/// assignment for the original graph.
std::vector<int> vcycle(const WeightedGraph& g0, std::mt19937& rng,
                        long long max_part_weight, bool multilevel) {
  // --- Coarsening phase ---------------------------------------------------
  // Level 0 is g0 itself; coarse[i] is level i + 1, and maps[i] maps level
  // i's vertices onto level i + 1's.
  std::vector<WeightedGraph> coarse;
  std::vector<std::vector<std::uint32_t>> maps;
  const auto graph_at = [&](std::size_t lvl) -> const WeightedGraph& {
    return lvl == 0 ? g0 : coarse[lvl - 1];
  };
  if (multilevel) {
    // Cap merged vertex weight so the coarsest graph stays balanceable.
    const int max_nw = std::max<int>(
        2, static_cast<int>(g0.total_node_weight() / 10));
    while (graph_at(coarse.size()).n() > 24) {
      const WeightedGraph& finest = graph_at(coarse.size());
      CoarseLevel level = detail::coarsen_once(finest, rng, max_nw);
      // Stop if matching no longer shrinks the graph meaningfully.
      if (level.graph.n() >= finest.n() * 95 / 100) break;
      maps.push_back(std::move(level.map));
      coarse.push_back(std::move(level.graph));
    }
  }

  // --- Initial partition on the coarsest graph ----------------------------
  const WeightedGraph& coarsest = graph_at(coarse.size());
  std::vector<int> side;
  long long best_cut = -1;
  const int tries = std::max<std::size_t>(1, std::min<std::size_t>(coarsest.n(), 8));
  for (int t = 0; t < tries; ++t) {
    const auto seed_vertex = static_cast<std::uint32_t>(
        std::uniform_int_distribution<std::size_t>(0, coarsest.n() - 1)(rng));
    auto candidate =
        detail::grow_initial_partition(coarsest, seed_vertex, max_part_weight);
    const long long cut =
        detail::fm_refine(coarsest, candidate, max_part_weight);
    if (best_cut < 0 || cut < best_cut) {
      best_cut = cut;
      side = std::move(candidate);
    }
  }

  // --- Uncoarsening + refinement -------------------------------------------
  for (std::size_t lvl = coarse.size(); lvl-- > 0;) {
    const auto& map = maps[lvl];
    const WeightedGraph& fine = graph_at(lvl);
    std::vector<int> fine_side(fine.n());
    for (std::uint32_t v = 0; v < fine.n(); ++v) {
      fine_side[v] = side[map[v]];
    }
    side = std::move(fine_side);
    detail::fm_refine(fine, side, max_part_weight);
  }
  return side;
}

}  // namespace

BisectionResult bisect(const graph::Graph& g, const BisectionOptions& opts) {
  BisectionResult result;
  const std::size_t n = g.node_count();
  result.side.assign(n, 0);
  if (n < 2) {
    result.part_sizes = {n, 0};
    return result;
  }

  const WeightedGraph wg = detail::from_graph(g);
  const long long max_part_weight =
      static_cast<long long>((n + 1) / 2 + opts.extra_imbalance);

  std::mt19937 rng(opts.seed);
  long long best_cut = -1;
  std::vector<int> best_side;
  for (int s = 0; s < std::max(1, opts.num_starts); ++s) {
    auto side = vcycle(wg, rng, max_part_weight, opts.multilevel);
    const long long cut = detail::cut_weight(wg, side);
    if (best_cut < 0 || cut < best_cut) {
      best_cut = cut;
      best_side = std::move(side);
    }
  }

  result.side = std::move(best_side);
  result.cut_edges = static_cast<std::size_t>(best_cut);
  result.part_sizes = {0, 0};
  for (int s : result.side) ++result.part_sizes[s];
  return result;
}

std::size_t bisection_width(const graph::Graph& g,
                            const BisectionOptions& opts) {
  return bisect(g, opts).cut_edges;
}

}  // namespace hm::partition
