// Tests for the balanced bisection (METIS stand-in): exact optima on known
// graphs, balance constraints, determinism, and agreement with the paper's
// closed-form bisection widths on regular arrangements. Oracle tests pin
// the gain-bucket FM refinement, the region growing and the coarsening
// merge to plain reference implementations on random weighted graphs, and
// the in-tree random draws to pinned outputs (and, under libstdc++, to the
// std:: algorithms they reproduce).
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
#include "partition/draws.hpp"
#include "partition/fm_refine.hpp"
#include "partition/partitioner.hpp"
#include "partition/wgraph.hpp"

namespace {

using hm::graph::Graph;
using hm::graph::NodeId;
using hm::partition::bisect;
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
  const auto a = bisect(g);
  const auto b = bisect(g);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
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

// --- The partitioner's draws ---------------------------------------------------

using hm::partition::detail::uniform_below;

std::vector<std::uint32_t> shuffled_iota(std::size_t n, std::mt19937& rng) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  hm::partition::detail::shuffle(v, rng);
  return v;
}

TEST(Draws, FirstOutputsArePinned) {
  // Literals from libstdc++ 12's uniform_int_distribution and std::shuffle
  // on std::mt19937(1); a port of the draws that drifts fails here on any
  // toolchain.
  std::mt19937 rng(1);
  std::vector<std::uint32_t> draws;
  for (const std::uint32_t bound :
       {1u, 2u, 3u, 7u, 24u, 100u, 640u, 4000000000u}) {
    draws.push_back(uniform_below(rng, bound));
  }
  EXPECT_EQ(draws, (std::vector<std::uint32_t>{0, 1, 2, 6, 0, 12, 193,
                                               3996162061u}));
  EXPECT_EQ(rng(), 630311759u);

  // Even and odd lengths: an even length swaps element 1 alone first.
  std::mt19937 even(1);
  EXPECT_EQ(shuffled_iota(10, even),
            (std::vector<std::uint32_t>{9, 0, 2, 5, 7, 4, 6, 3, 1, 8}));
  std::mt19937 odd(1);
  EXPECT_EQ(shuffled_iota(9, odd),
            (std::vector<std::uint32_t>{1, 0, 6, 3, 8, 4, 2, 7, 5}));
}

#if defined(_GLIBCXX_RELEASE) && _GLIBCXX_RELEASE >= 11
// libstdc++ 11 and later draw bounded integers with Lemire's method; the
// in-tree draws must consume the engine exactly as std:: does.
TEST(Draws, MatchLibstdcxx) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 70; ++n) sizes.push_back(n);
  for (const std::size_t n : {127u, 128u, 129u, 255u, 256u, 640u, 700u}) {
    sizes.push_back(n);
  }
  int cases = 0;
  for (unsigned seed = 0; seed < 200; ++seed) {
    for (const std::size_t n : sizes) {
      std::mt19937 want_rng(seed);
      std::mt19937 got_rng(seed);
      std::vector<std::uint32_t> want(n);
      std::iota(want.begin(), want.end(), 0);
      // HM_LINT allow(nondeterminism): the reference the in-tree shuffle reproduces
      std::shuffle(want.begin(), want.end(), want_rng);
      ASSERT_EQ(shuffled_iota(n, got_rng), want)
          << "seed " << seed << " n=" << n;
      for (std::uint32_t k = 1; k <= 8; ++k) {
        const std::uint32_t bound =
            k <= 4 ? static_cast<std::uint32_t>(n * k)
                   : 0xFFFFFFFFu / k + static_cast<std::uint32_t>(n);
        // HM_LINT allow(nondeterminism): the reference uniform_below reproduces
        std::uniform_int_distribution<std::size_t> dist(0, bound - 1);
        ASSERT_EQ(uniform_below(got_rng, bound), dist(want_rng))
            << "seed " << seed << " n=" << n << " bound=" << bound;
      }
      ASSERT_TRUE(got_rng == want_rng) << "seed " << seed << " n=" << n;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 200 * 77);

  // Past 65535 elements n^2 overflows the engine's range, and std::shuffle
  // switches from two swaps per draw to one.
  for (const std::size_t n : {65535u, 65536u}) {
    std::mt19937 want_rng(3);
    std::mt19937 got_rng(3);
    std::vector<std::uint32_t> want(n);
    std::iota(want.begin(), want.end(), 0);
    // HM_LINT allow(nondeterminism): the reference the in-tree shuffle reproduces
    std::shuffle(want.begin(), want.end(), want_rng);
    EXPECT_EQ(shuffled_iota(n, got_rng), want) << "n=" << n;
    EXPECT_TRUE(got_rng == want_rng) << "n=" << n;
  }
}
#endif

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
      for (const auto& [u, w] : g.row(v)) {
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
      for (const auto& [u, w] : g.row(best_v)) {
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

using hm::partition::detail::WeightedEdge;

/// Packs per-vertex adjacency lists into the CSR form.
WeightedGraph from_lists(std::vector<int> node_weight,
                         const std::vector<std::vector<WeightedEdge>>& adj) {
  WeightedGraph g;
  g.node_weight = std::move(node_weight);
  for (const auto& list : adj) {
    g.edges.insert(g.edges.end(), list.begin(), list.end());
    g.offset.push_back(static_cast<std::uint32_t>(g.edges.size()));
  }
  return g;
}

/// Random weighted graph: node weights in [1, max_node_weight], each vertex
/// pair joined with probability `p` by an edge of weight in
/// [1, max_edge_weight]. Rows come out sorted by neighbour id.
WeightedGraph random_wgraph(hm::noc::Rng& rng, std::size_t n, double p,
                            int max_node_weight, int max_edge_weight) {
  std::vector<int> node_weight(n);
  std::vector<std::vector<WeightedEdge>> adj(n);
  for (int& w : node_weight) {
    w = 1 + static_cast<int>(rng.uniform_int(
                static_cast<std::uint64_t>(max_node_weight)));
  }
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (!rng.bernoulli(p)) continue;
      const int w = 1 + static_cast<int>(rng.uniform_int(
                            static_cast<std::uint64_t>(max_edge_weight)));
      adj[a].emplace_back(b, w);
      adj[b].emplace_back(a, w);
    }
  }
  return from_lists(std::move(node_weight), adj);
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
      for (const auto& [u, w] : g.row(v)) {
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
  std::vector<int> node_weight(coarse_n, 0);
  for (std::uint32_t v = 0; v < g.n(); ++v) {
    node_weight[map[v]] += g.node_weight[v];
  }
  std::vector<std::map<std::uint32_t, int>> merged(coarse_n);
  for (std::uint32_t v = 0; v < g.n(); ++v) {
    for (const auto& [u, w] : g.row(v)) {
      if (map[v] != map[u]) merged[map[v]][map[u]] += w;
    }
  }
  std::vector<std::vector<WeightedEdge>> adj(coarse_n);
  for (std::uint32_t cv = 0; cv < coarse_n; ++cv) {
    adj[cv].assign(merged[cv].begin(), merged[cv].end());
  }
  return from_lists(std::move(node_weight), adj);
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
    hm::partition::detail::shuffle(order, shadow);
    EXPECT_TRUE(rng == shadow) << "trial " << trial;

    // Every coarse vertex holds one fine vertex or a pair.
    ASSERT_EQ(level.map.size(), n);
    std::vector<int> members(level.graph.n(), 0);
    for (std::uint32_t v = 0; v < n; ++v) {
      ASSERT_LT(level.map[v], level.graph.n());
      ++members[level.map[v]];
    }
    for (const int m : members) EXPECT_TRUE(m == 1 || m == 2);

    const WeightedGraph& got = level.graph;
    const WeightedGraph want = reference_merge(g, level.map, got.n());
    EXPECT_EQ(got.node_weight, want.node_weight) << "trial " << trial;
    EXPECT_EQ(got.offset, want.offset) << "trial " << trial;
    EXPECT_EQ(got.edges, want.edges) << "trial " << trial;

    // Every row is strictly sorted, and every edge has its mirror.
    ASSERT_EQ(got.offset.size(), got.n() + 1);
    ASSERT_EQ(got.offset.back(), got.edges.size());
    for (std::uint32_t cv = 0; cv < got.n(); ++cv) {
      const auto row = got.row(cv);
      for (std::size_t i = 1; i < row.size(); ++i) {
        EXPECT_LT(row[i - 1].first, row[i].first) << "trial " << trial;
      }
      for (const auto& [cu, w] : row) {
        const auto mirror = got.row(cu);
        const auto it = std::lower_bound(mirror.begin(), mirror.end(),
                                         WeightedEdge{cv, 0});
        ASSERT_TRUE(it != mirror.end() && it->first == cv)
            << "trial " << trial << " edge " << cv << "-" << cu;
        EXPECT_EQ(it->second, w) << "trial " << trial;
      }
    }
  }
}

}  // namespace
