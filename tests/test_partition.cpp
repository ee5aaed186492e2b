// Tests for the balanced bisection (METIS stand-in): exact optima on known
// graphs, balance constraints, determinism, and agreement with the paper's
// closed-form bisection widths on regular arrangements. Oracle tests pin
// the gain-bucket FM refinement, the region growing and the coarsening
// merge to plain reference implementations on random weighted graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "core/arrangement.hpp"
#include "core/brickwall.hpp"
#include "core/grid.hpp"
#include "core/hexamesh.hpp"
#include "core/proxies.hpp"
#include "graph/graph.hpp"
#include "noc/rng.hpp"
#include "partition/coarsen.hpp"
#include "partition/fm_refine.hpp"
#include "partition/partitioner.hpp"
#include "partition/wgraph.hpp"

namespace {

using hm::graph::Graph;
using hm::graph::NodeId;
using hm::partition::bisect;
using hm::partition::BisectionOptions;
using hm::partition::bisection_width;

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph cycle_graph(std::size_t n) {
  Graph g = path_graph(n);
  g.add_edge(0, static_cast<NodeId>(n - 1));
  return g;
}

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) g.add_edge(a, b);
  }
  return g;
}

TEST(Bisect, TrivialGraphs) {
  EXPECT_EQ(bisection_width(Graph(0)), 0u);
  EXPECT_EQ(bisection_width(Graph(1)), 0u);
  Graph two(2);
  two.add_edge(0, 1);
  EXPECT_EQ(bisection_width(two), 1u);
}

TEST(Bisect, PathHasCutOne) {
  EXPECT_EQ(bisection_width(path_graph(8)), 1u);
  EXPECT_EQ(bisection_width(path_graph(9)), 1u);
}

TEST(Bisect, CycleHasCutTwo) {
  EXPECT_EQ(bisection_width(cycle_graph(8)), 2u);
  EXPECT_EQ(bisection_width(cycle_graph(13)), 2u);
}

TEST(Bisect, CompleteGraphCut) {
  // K6 split 3/3: cut = 3*3 = 9.
  EXPECT_EQ(bisection_width(complete_graph(6)), 9u);
  // K5 split 2/3: cut = 2*3 = 6.
  EXPECT_EQ(bisection_width(complete_graph(5)), 6u);
}

TEST(Bisect, DisconnectedGraphHasZeroCut) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  EXPECT_EQ(bisection_width(g), 0u);
}

TEST(Bisect, BalanceRespectedEvenN) {
  const auto result = bisect(cycle_graph(10));
  EXPECT_EQ(result.part_sizes[0], 5u);
  EXPECT_EQ(result.part_sizes[1], 5u);
}

TEST(Bisect, BalanceRespectedOddN) {
  const auto result = bisect(cycle_graph(11));
  const auto big = std::max(result.part_sizes[0], result.part_sizes[1]);
  const auto small = std::min(result.part_sizes[0], result.part_sizes[1]);
  EXPECT_EQ(big, 6u);
  EXPECT_EQ(small, 5u);
}

TEST(Bisect, SideAssignmentMatchesCut) {
  Graph g = cycle_graph(12);
  const auto result = bisect(g);
  std::size_t crossing = 0;
  for (const auto& [a, b] : g.edges()) {
    if (result.side[a] != result.side[b]) ++crossing;
  }
  EXPECT_EQ(crossing, result.cut_edges);
}

TEST(Bisect, DeterministicForFixedSeed) {
  Graph g = cycle_graph(20);
  BisectionOptions opts;
  opts.seed = 7;
  const auto a = bisect(g, opts);
  const auto b = bisect(g, opts);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
}

TEST(Bisect, ExtraImbalanceAllowsLooserParts) {
  BisectionOptions opts;
  opts.extra_imbalance = 2;
  const auto result = bisect(path_graph(9), opts);
  const auto big = std::max(result.part_sizes[0], result.part_sizes[1]);
  EXPECT_LE(big, 7u);
  EXPECT_EQ(result.cut_edges, 1u);
}

TEST(Bisect, SingleLevelModeAlsoWorks) {
  BisectionOptions opts;
  opts.multilevel = false;
  EXPECT_EQ(bisection_width(cycle_graph(16), opts), 2u);
}

// --- Agreement with the paper's closed forms on regular arrangements --------

TEST(BisectVsFormula, RegularGridEvenSide) {
  // sqrt(N) even: a straight cut across the middle is balanced and optimal.
  for (std::size_t side : {2u, 4u, 6u, 8u}) {
    const auto arr = hm::core::make_grid_regular(side);
    EXPECT_EQ(bisection_width(arr.graph()), side)
        << "grid side=" << side;
  }
}

TEST(BisectVsFormula, RegularBrickwallEvenSide) {
  // B_BW(N) = 2*sqrt(N) - 1.
  for (std::size_t side : {2u, 4u, 6u, 8u}) {
    const auto arr = hm::core::make_brickwall_regular(side);
    EXPECT_EQ(bisection_width(arr.graph()), 2 * side - 1)
        << "brickwall side=" << side;
  }
}

TEST(BisectVsFormula, RegularHexamesh) {
  // B_HM(N) = (2/3)sqrt(12N-3) - 1 = 4r + 1 for N = 1 + 3r(r+1).
  for (std::size_t rings : {1u, 2u, 3u, 4u}) {
    const auto arr = hm::core::make_hexamesh_regular(rings);
    const auto expected = static_cast<std::size_t>(hm::core::hexamesh_bisection(
        arr.chiplet_count()));
    EXPECT_EQ(bisection_width(arr.graph()), expected)
        << "hexamesh rings=" << rings;
  }
}

TEST(BisectVsFormula, HeuristicNeverBeatsOptimalOnOddGrid) {
  // For odd sides the closed form describes an unbalanced straight cut; the
  // balanced heuristic cut can only be >= that.
  for (std::size_t side : {3u, 5u, 7u}) {
    const auto arr = hm::core::make_grid_regular(side);
    EXPECT_GE(bisection_width(arr.graph()), side);
  }
}

TEST(Bisect, MoreStartsNeverWorse) {
  const auto arr = hm::core::make_hexamesh(50);
  BisectionOptions few;
  few.num_starts = 1;
  BisectionOptions many;
  many.num_starts = 16;
  EXPECT_LE(bisection_width(arr.graph(), many),
            bisection_width(arr.graph(), few));
}

// --- Oracles for the refinement and coarsening internals --------------------

using hm::partition::detail::WeightedGraph;

/// How often the reference FM met each capacity case. The oracle tests
/// assert both occurred, so the bucket code's matching paths were run.
struct FmCoverage {
  /// A vertex was skipped as too heavy while the lightest vertex of the
  /// graph would still have fit into its destination part.
  long long heavy_skips = 0;
  /// A step found one side blocked: not even the lightest vertex fits
  /// into the other part.
  long long blocked_sides = 0;
};

/// Reference FM refinement: an O(n) scan over every vertex for every move,
/// taking the highest gain that fits under the weight cap and, on ties,
/// the lowest id. The gain buckets must pick exactly these moves.
long long reference_fm_refine(const WeightedGraph& g, std::vector<int>& side,
                              long long max_part_weight, int max_passes,
                              FmCoverage& coverage) {
  const std::size_t n = g.n();
  long long part_weight[2] = {0, 0};
  long long lightest = std::numeric_limits<long long>::max();
  for (std::uint32_t v = 0; v < n; ++v) {
    part_weight[side[v]] += g.node_weight[v];
    lightest = std::min<long long>(lightest, g.node_weight[v]);
  }
  long long cut = hm::partition::detail::cut_weight(g, side);

  for (int pass = 0; pass < max_passes; ++pass) {
    std::vector<char> locked(n, 0);
    std::vector<long long> gain(n, 0);
    for (std::uint32_t v = 0; v < n; ++v) {
      for (const auto& [u, w] : g.adj[v]) {
        gain[v] += (side[u] != side[v]) ? w : -w;
      }
    }
    std::vector<std::uint32_t> moves;
    long long running_cut = cut;
    long long best_cut = cut;
    std::size_t best_prefix = 0;

    for (std::size_t step = 0; step < n; ++step) {
      for (int to = 0; to < 2; ++to) {
        if (part_weight[to] + lightest > max_part_weight) {
          ++coverage.blocked_sides;
        }
      }
      std::uint32_t best_v = static_cast<std::uint32_t>(-1);
      long long best_gain = std::numeric_limits<long long>::min();
      for (std::uint32_t v = 0; v < n; ++v) {
        if (locked[v]) continue;
        const int to = 1 - side[v];
        if (part_weight[to] + g.node_weight[v] > max_part_weight) {
          if (part_weight[to] + lightest <= max_part_weight) {
            ++coverage.heavy_skips;
          }
          continue;
        }
        if (gain[v] > best_gain) {
          best_gain = gain[v];
          best_v = v;
        }
      }
      if (best_v == static_cast<std::uint32_t>(-1)) break;

      const int from = side[best_v];
      side[best_v] = 1 - from;
      part_weight[from] -= g.node_weight[best_v];
      part_weight[1 - from] += g.node_weight[best_v];
      locked[best_v] = 1;
      running_cut -= best_gain;
      moves.push_back(best_v);
      for (const auto& [u, w] : g.adj[best_v]) {
        if (locked[u]) continue;
        gain[u] += (side[u] == side[best_v]) ? -2LL * w : 2LL * w;
      }
      if (running_cut < best_cut) {
        best_cut = running_cut;
        best_prefix = moves.size();
      }
    }

    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const std::uint32_t v = moves[i - 1];
      const int from = side[v];
      side[v] = 1 - from;
      part_weight[from] -= g.node_weight[v];
      part_weight[1 - from] += g.node_weight[v];
    }
    if (best_cut >= cut) break;
    cut = best_cut;
  }
  return cut;
}

/// Random weighted graph: node weights in [1, max_node_weight], each vertex
/// pair joined with probability `p` by an edge of weight in
/// [1, max_edge_weight]. Adjacency lists come out sorted by neighbour id.
WeightedGraph random_wgraph(hm::noc::Rng& rng, std::size_t n, double p,
                            int max_node_weight, int max_edge_weight) {
  WeightedGraph g;
  g.node_weight.resize(n);
  g.adj.resize(n);
  for (int& w : g.node_weight) {
    w = 1 + static_cast<int>(rng.uniform_int(
                static_cast<std::uint64_t>(max_node_weight)));
  }
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (!rng.bernoulli(p)) continue;
      const int w = 1 + static_cast<int>(rng.uniform_int(
                            static_cast<std::uint64_t>(max_edge_weight)));
      g.adj[a].emplace_back(b, w);
      g.adj[b].emplace_back(a, w);
    }
  }
  return g;
}

TEST(FmOracle, GainBucketsPickTheSameMovesAsTheLinearScan) {
  hm::noc::Rng rng(20231016);
  FmCoverage coverage;
  int cases = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(120);
    // Sparse (arrangement-like) up to dense graphs.
    const double p = std::min(1.0, (1.0 + 7.0 * rng.uniform()) /
                                       static_cast<double>(n));
    const int max_node_weight = trial % 3 == 0 ? 1 : 1 + trial % 7;
    const int max_edge_weight = 1 + trial % 5;
    const WeightedGraph g =
        random_wgraph(rng, n, p, max_node_weight, max_edge_weight);
    const long long total = g.total_node_weight();

    std::vector<int> start(n);
    for (int& s : start) s = static_cast<int>(rng.uniform_int(2));
    // Exact balance, a little slack, and a cap the start may already break.
    for (const long long cap :
         {(total + 1) / 2, total / 2 + max_node_weight, total / 2 - 1}) {
      for (const int passes : {16, 1}) {
        std::vector<int> expected = start;
        std::vector<int> actual = start;
        const long long want =
            reference_fm_refine(g, expected, cap, passes, coverage);
        const long long got =
            hm::partition::detail::fm_refine(g, actual, cap, passes);
        ASSERT_EQ(got, want) << "trial " << trial << " n=" << n
                             << " cap=" << cap << " passes=" << passes;
        ASSERT_EQ(actual, expected) << "trial " << trial << " n=" << n
                                    << " cap=" << cap
                                    << " passes=" << passes;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 300 * 3 * 2);
  EXPECT_GT(coverage.heavy_skips, 0);
  EXPECT_GT(coverage.blocked_sides, 0);
}

TEST(FmOracle, MatchesTheLinearScanOnArrangementGraphs) {
  FmCoverage coverage;
  for (const auto type : {hm::core::ArrangementType::kGrid,
                          hm::core::ArrangementType::kBrickwall,
                          hm::core::ArrangementType::kHexaMesh}) {
    for (const std::size_t n : {7u, 50u, 128u, 331u}) {
      const auto g = hm::partition::detail::from_graph(
          hm::core::make_arrangement(type, n).graph());
      hm::noc::Rng rng(n);
      std::vector<int> start(n);
      for (int& s : start) s = static_cast<int>(rng.uniform_int(2));
      const long long cap = static_cast<long long>((n + 1) / 2);
      std::vector<int> expected = start;
      std::vector<int> actual = start;
      const long long want =
          reference_fm_refine(g, expected, cap, 16, coverage);
      EXPECT_EQ(hm::partition::detail::fm_refine(g, actual, cap), want)
          << "n=" << n;
      EXPECT_EQ(actual, expected) << "n=" << n;
    }
  }
}

/// Reference region growing: every step rescans every vertex's adjacency
/// for its connection weight into part 0. The incrementally updated
/// connection weights must pick exactly these vertices.
std::vector<int> reference_grow(const WeightedGraph& g, std::uint32_t seed,
                                long long max_part_weight) {
  const std::size_t n = g.n();
  std::vector<int> side(n, 1);
  const long long target = g.total_node_weight() / 2;
  side[seed] = 0;
  long long grown = g.node_weight[seed];
  while (grown < target) {
    std::uint32_t best = static_cast<std::uint32_t>(-1);
    long long best_conn = -1;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (side[v] == 0 || grown + g.node_weight[v] > max_part_weight) {
        continue;
      }
      long long conn = 0;
      bool touches = false;
      for (const auto& [u, w] : g.adj[v]) {
        if (side[u] == 0) {
          conn += w;
          touches = true;
        }
      }
      if (touches && conn > best_conn) {
        best_conn = conn;
        best = v;
      }
    }
    if (best == static_cast<std::uint32_t>(-1)) {
      for (std::uint32_t v = 0; v < n; ++v) {
        if (side[v] == 1 && grown + g.node_weight[v] <= max_part_weight) {
          best = v;
          break;
        }
      }
      if (best == static_cast<std::uint32_t>(-1)) break;
    }
    side[best] = 0;
    grown += g.node_weight[best];
  }
  return side;
}

TEST(GrowOracle, MatchesTheRescanningReference) {
  hm::noc::Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(60);
    // Sparse enough that some graphs are disconnected (fallback path).
    const double p = std::min(1.0, (0.5 + 5.0 * rng.uniform()) /
                                       static_cast<double>(n));
    const WeightedGraph g =
        random_wgraph(rng, n, p, 1 + trial % 5, 1 + trial % 4);
    const long long total = g.total_node_weight();
    const auto seed = static_cast<std::uint32_t>(rng.uniform_int(n));
    for (const long long cap : {(total + 1) / 2, total / 2 + 3, total / 3}) {
      EXPECT_EQ(hm::partition::detail::grow_initial_partition(g, seed, cap),
                reference_grow(g, seed, cap))
          << "trial " << trial << " n=" << n << " cap=" << cap;
    }
  }
}

/// Reference coarse-graph merge: parallel edges summed in one ordered map
/// per coarse vertex, given the fine -> coarse map.
WeightedGraph reference_merge(const WeightedGraph& g,
                              const std::vector<std::uint32_t>& map,
                              std::size_t coarse_n) {
  WeightedGraph out;
  out.node_weight.assign(coarse_n, 0);
  out.adj.resize(coarse_n);
  for (std::uint32_t v = 0; v < g.n(); ++v) {
    out.node_weight[map[v]] += g.node_weight[v];
  }
  std::vector<std::map<std::uint32_t, int>> merged(coarse_n);
  for (std::uint32_t v = 0; v < g.n(); ++v) {
    for (const auto& [u, w] : g.adj[v]) {
      if (map[v] < map[u]) merged[map[v]][map[u]] += w;
    }
  }
  for (std::uint32_t cv = 0; cv < coarse_n; ++cv) {
    for (const auto& [cu, w] : merged[cv]) {
      out.adj[cv].emplace_back(cu, w);
      out.adj[cu].emplace_back(cv, w);
    }
  }
  return out;
}

TEST(CoarsenOracle, MergeMatchesOrderedMapReference) {
  hm::noc::Rng graph_rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + graph_rng.uniform_int(150);
    const double p = std::min(1.0, (1.0 + 6.0 * graph_rng.uniform()) /
                                       static_cast<double>(n));
    const WeightedGraph g =
        random_wgraph(graph_rng, n, p, 1 + trial % 4, 1 + trial % 6);
    const int max_node_weight = 2 + trial % 9;

    std::mt19937 rng(static_cast<unsigned>(trial));
    std::mt19937 shadow = rng;
    const auto level =
        hm::partition::detail::coarsen_once(g, rng, max_node_weight);

    // The matching consumes exactly one shuffle of the vertex order.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), shadow);
    EXPECT_TRUE(rng == shadow) << "trial " << trial;

    // Every coarse vertex holds one fine vertex or a pair.
    ASSERT_EQ(level.map.size(), n);
    std::vector<int> members(level.graph.n(), 0);
    for (std::uint32_t v = 0; v < n; ++v) {
      ASSERT_LT(level.map[v], level.graph.n());
      ++members[level.map[v]];
    }
    for (const int m : members) EXPECT_TRUE(m == 1 || m == 2);

    const WeightedGraph want = reference_merge(g, level.map, level.graph.n());
    EXPECT_EQ(level.graph.node_weight, want.node_weight) << "trial " << trial;
    EXPECT_EQ(level.graph.adj, want.adj) << "trial " << trial;
  }
}

}  // namespace
