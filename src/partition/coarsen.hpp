// Heavy-edge-matching coarsening for the multilevel bisection pipeline
// (the same scheme METIS uses): repeatedly contract a maximal matching that
// prefers heavy edges, halving the graph size per level while preserving cut
// structure. The coarse graph is written straight into CSR: a marker array
// merges each coarse vertex's parallel edges, and one transpose pass in
// increasing coarse id emits every row sorted by neighbour id.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "partition/wgraph.hpp"

namespace hm::partition::detail {

/// Result of one coarsening level.
struct CoarseLevel {
  WeightedGraph graph;               ///< contracted graph
  std::vector<std::uint32_t> map;    ///< fine vertex -> coarse vertex
};

/// Contracts a heavy-edge maximal matching of `g`. Vertices are visited in a
/// random order drawn from `rng` (one detail::shuffle of 0..n-1); each
/// unmatched vertex is matched to its unmatched neighbour with the heaviest
/// connecting edge (ties by smaller id). `max_node_weight` caps the merged
/// vertex weight to keep parts balanceable.
[[nodiscard]] CoarseLevel coarsen_once(const WeightedGraph& g,
                                       std::mt19937& rng,
                                       int max_node_weight);

}  // namespace hm::partition::detail
