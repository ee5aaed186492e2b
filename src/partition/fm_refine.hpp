// Fiduccia–Mattheyses refinement of a two-way partition of a weighted graph.
// Used both to refine projected partitions during uncoarsening and to polish
// initial partitions at the coarsest level.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/wgraph.hpp"

namespace hm::partition::detail {

/// Runs FM passes on `side` (0/1 per vertex) until a pass yields no
/// improvement. Each pass tentatively moves every vertex at most once in
/// best-gain order (subject to both parts staying <= `max_part_weight`) and
/// rolls back to the best prefix. Returns the final cut weight.
///
/// Moves come from gain buckets (Fiduccia & Mattheyses, DAC 1982): per
/// side, one vertex-id bitset per gain value in [-D, D], D the largest
/// weighted degree. A move takes the highest non-empty bucket's lowest-id
/// vertex that fits under the destination cap; between the two sides the
/// higher gain wins and a tie goes to the lower id. That is the vertex a
/// scan over all vertices would pick, so results do not depend on the
/// buckets, and a pass needs O(n + e) bucket updates instead of an O(n)
/// scan for every move.
long long fm_refine(const WeightedGraph& g, std::vector<int>& side,
                    long long max_part_weight, int max_passes = 16);

/// Greedy BFS-grown initial bisection: grows part 0 from `seed` by repeatedly
/// absorbing the frontier vertex with the best (internal - external) gain
/// until part 0 holds ~half the node weight. Remaining vertices form part 1.
[[nodiscard]] std::vector<int> grow_initial_partition(const WeightedGraph& g,
                                                      std::uint32_t seed_vertex,
                                                      long long max_part_weight);

}  // namespace hm::partition::detail
