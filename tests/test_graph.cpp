// Unit tests for the graph substrate: construction, degrees, BFS,
// diameter/average distance, connectivity and the planar bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace {

using hm::graph::Graph;
using hm::graph::NodeId;

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

Graph grid_graph(std::size_t rows, std::size_t cols) {
  Graph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

// --- Graph construction ------------------------------------------------------

TEST(Graph, EmptyGraphHasNoNodesOrEdges) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, ConstructorCreatesIsolatedVertices) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.min_degree(), 0u);
}

TEST(Graph, AddNodeReturnsSequentialIds) {
  Graph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.add_node(), 2u);
  EXPECT_EQ(g.node_count(), 3u);
}

TEST(Graph, AddEdgeCreatesSymmetricAdjacency) {
  Graph g(3);
  g.add_edge(0, 2);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, NeighborsAreSorted) {
  Graph g(4);
  g.add_edge(2, 3);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, DuplicateEdgeRejected) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);
}

TEST(Graph, OutOfRangeEndpointRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW((void)g.degree(5), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(2), std::out_of_range);
}

TEST(Graph, DegreeStatistics) {
  Graph g = path_graph(4);  // degrees 1,2,2,1
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 2.0 * 3 / 4);
}

TEST(Graph, EdgesListSortedAndComplete) {
  Graph g(3);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(NodeId{0}, NodeId{2}));
  EXPECT_EQ(edges[1], std::make_pair(NodeId{1}, NodeId{2}));
}

TEST(Graph, ToStringSummarizes) {
  Graph g = cycle_graph(4);
  EXPECT_EQ(g.to_string(), "Graph(v=4, e=4)");
}

// --- BFS ---------------------------------------------------------------------

TEST(Bfs, DistancesOnPath) {
  Graph g = path_graph(5);
  const auto dist = hm::graph::bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(Bfs, DistancesFromMiddle) {
  Graph g = path_graph(5);
  const auto dist = hm::graph::bfs_distances(g, 2);
  EXPECT_EQ(dist[0], 2);
  EXPECT_EQ(dist[4], 2);
  EXPECT_EQ(dist[2], 0);
}

TEST(Bfs, UnreachableMarked) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = hm::graph::bfs_distances(g, 0);
  EXPECT_EQ(dist[2], hm::graph::kUnreachable);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW((void)hm::graph::bfs_distances(g, 7), std::out_of_range);
}

// --- Diameter ----------------------------------------------------------------

TEST(Diameter, PathGraph) {
  EXPECT_EQ(hm::graph::diameter(path_graph(10)), 9);
}

TEST(Diameter, CycleGraph) {
  EXPECT_EQ(hm::graph::diameter(cycle_graph(10)), 5);
  EXPECT_EQ(hm::graph::diameter(cycle_graph(11)), 5);
}

TEST(Diameter, CompleteGraph) {
  EXPECT_EQ(hm::graph::diameter(complete_graph(6)), 1);
}

TEST(Diameter, GridGraphMatchesManhattan) {
  // k x k mesh diameter = 2(k-1).
  EXPECT_EQ(hm::graph::diameter(grid_graph(4, 4)), 6);
  EXPECT_EQ(hm::graph::diameter(grid_graph(5, 3)), 6);
}

TEST(Diameter, SingleVertexIsZero) {
  EXPECT_EQ(hm::graph::diameter(Graph(1)), 0);
}

TEST(Diameter, DisconnectedThrows) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW((void)hm::graph::diameter(g), std::invalid_argument);
}

// --- Average distance --------------------------------------------------------

TEST(AverageDistance, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(hm::graph::average_distance(complete_graph(5)), 1.0);
}

TEST(AverageDistance, PathOfThree) {
  // Pairs: (0,1)=1 (0,2)=2 (1,2)=1 -> mean = 4/3.
  EXPECT_NEAR(hm::graph::average_distance(path_graph(3)), 4.0 / 3.0, 1e-12);
}

TEST(AverageDistance, SingleVertexIsZero) {
  EXPECT_DOUBLE_EQ(hm::graph::average_distance(Graph(1)), 0.0);
}

// --- One sweep for both --------------------------------------------------------

TEST(DistanceSummary, MatchesPerSourceBfs) {
  for (const Graph& g : {path_graph(4), cycle_graph(9), grid_graph(5, 3),
                         complete_graph(6)}) {
    const auto n = static_cast<hm::graph::NodeId>(g.node_count());
    long long total = 0;
    int diam = 0;
    for (hm::graph::NodeId v = 0; v < n; ++v) {
      for (const int d : hm::graph::bfs_distances(g, v)) {
        total += d;
        diam = std::max(diam, d);
      }
    }
    const auto s = hm::graph::distance_summary(g);
    EXPECT_EQ(s.total_distance, total) << g.to_string();
    EXPECT_EQ(s.diameter, diam) << g.to_string();
    EXPECT_EQ(s.average_distance,
              static_cast<double>(total) /
                  (static_cast<double>(n) * static_cast<double>(n - 1)))
        << g.to_string();
    EXPECT_EQ(hm::graph::diameter(g), s.diameter);
    EXPECT_EQ(hm::graph::average_distance(g), s.average_distance);
  }
  // Path 0-1-2-3: ordered pairs sum to 2 * (3 * 1 + 2 * 2 + 1 * 3) = 20.
  EXPECT_EQ(hm::graph::distance_summary(path_graph(4)).total_distance, 20);
}

TEST(DistanceSummary, TrivialAndDisconnected) {
  const auto one = hm::graph::distance_summary(Graph(1));
  EXPECT_EQ(one.diameter, 0);
  EXPECT_EQ(one.total_distance, 0);
  EXPECT_EQ(one.average_distance, 0.0);
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW((void)hm::graph::distance_summary(g), std::invalid_argument);
}

// --- Connectivity ------------------------------------------------------------

TEST(Connectivity, ConnectedGraph) {
  EXPECT_TRUE(hm::graph::is_connected(cycle_graph(7)));
}

TEST(Connectivity, DisconnectedGraph) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(hm::graph::is_connected(g));
}

TEST(Connectivity, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(hm::graph::is_connected(Graph(0)));
  EXPECT_TRUE(hm::graph::is_connected(Graph(1)));
}

// --- Planar bound ------------------------------------------------------------

TEST(PlanarBound, GridSatisfies) {
  EXPECT_TRUE(hm::graph::satisfies_planar_bound(grid_graph(5, 5)));
}

TEST(PlanarBound, K5Violates) {
  EXPECT_FALSE(hm::graph::satisfies_planar_bound(complete_graph(5)));
}

TEST(PlanarBound, SmallGraphsVacuouslyTrue) {
  EXPECT_TRUE(hm::graph::satisfies_planar_bound(complete_graph(2)));
}

TEST(PlanarBound, AvgDegreeBoundFormula) {
  EXPECT_NEAR(hm::graph::planar_avg_degree_bound(12), 6.0 - 1.0, 1e-12);
  EXPECT_THROW((void)hm::graph::planar_avg_degree_bound(2),
               std::invalid_argument);
}

TEST(Bridges, PathCycleAndBarbell) {
  // Every edge of a path is a bridge; no edge of a cycle is.
  const auto path_bridges = hm::graph::bridges(path_graph(6));
  EXPECT_EQ(path_bridges.size(), 5u);
  EXPECT_TRUE(hm::graph::bridges(cycle_graph(6)).empty());

  // Two triangles joined by one edge: exactly that edge is a bridge.
  Graph barbell(6);
  barbell.add_edge(0, 1);
  barbell.add_edge(1, 2);
  barbell.add_edge(0, 2);
  barbell.add_edge(3, 4);
  barbell.add_edge(4, 5);
  barbell.add_edge(3, 5);
  barbell.add_edge(2, 3);
  const auto bb = hm::graph::bridges(barbell);
  ASSERT_EQ(bb.size(), 1u);
  EXPECT_EQ(bb[0], (std::pair<NodeId, NodeId>{2, 3}));

  // Disconnected graphs are handled per component.
  Graph two_paths(5);
  two_paths.add_edge(0, 1);
  two_paths.add_edge(3, 4);
  EXPECT_EQ(hm::graph::bridges(two_paths).size(), 2u);
  EXPECT_TRUE(hm::graph::bridges(Graph(3)).empty());
}

TEST(Bridges, AgreesWithPerEdgeConnectivityCheck) {
  // Cross-check the low-link pass against the O(e * (v + e)) definition on
  // an irregular mesh-with-appendages graph.
  Graph g = cycle_graph(8);
  g.add_edge(0, 4);   // chord
  g.add_edge(2, 6);   // chord
  NodeId tail = 8;    // dangling path 0-8-9
  g.add_node();
  g.add_node();
  g.add_edge(0, tail);
  g.add_edge(tail, 9);
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (const auto& e : g.edges()) {
    Graph h = g;
    h.remove_edge(e.first, e.second);
    if (!hm::graph::is_connected(h)) expected.push_back(e);
  }
  EXPECT_EQ(hm::graph::bridges(g), expected);
}

}  // namespace
