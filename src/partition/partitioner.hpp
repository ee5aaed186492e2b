// Balanced two-way graph partitioning — the stand-in for METIS [13], which
// the paper uses to estimate the bisection bandwidth of semi-regular and
// irregular arrangements (Sec. IV-D). The bisection bandwidth of an
// arrangement equals the minimum number of D2D links that must be cut to
// split the chip into two (nearly) equal halves.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace hm::partition {

/// A two-way partition of a graph.
struct BisectionResult {
  /// side[v] in {0, 1}: which half vertex v belongs to.
  std::vector<int> side;
  /// Number of edges crossing between the halves (the bisection width).
  std::size_t cut_edges = 0;
  /// Vertex counts of the two halves; differ by at most one.
  std::array<std::size_t, 2> part_sizes{0, 0};
};

/// Computes a balanced bisection of `g` minimizing the edge cut: the best
/// of 12 multilevel heavy-edge-matching + FM V-cycles (the METIS algorithm
/// family) drawn from one fixed seed, so equal graphs always get equal cuts.
/// Balance is exact, as in the paper's bisection definition: the halves
/// hold floor(n/2) and ceil(n/2) vertices. Optimal on small regular
/// arrangements in practice. Graphs with < 2 vertices get a trivial
/// all-zero side.
[[nodiscard]] BisectionResult bisect(const graph::Graph& g);

/// Convenience wrapper returning only the cut size (the paper's estimated
/// bisection bandwidth in links).
[[nodiscard]] std::size_t bisection_width(const graph::Graph& g);

}  // namespace hm::partition
