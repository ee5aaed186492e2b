// Routing tables for arbitrary (connected) chiplet topologies.
//
// Two coordinated routing functions are precomputed from the arrangement
// graph (BookSim2's "anynet" equivalent, hardened for saturation runs):
//  * minimal routing: for every (current, destination) pair, the set of
//    output ports lying on some shortest path — used by the adaptive VCs;
//  * up*/down* escape routing: a BFS tree is rooted at a graph center; a
//    legal path takes "up" hops (toward smaller (depth, id) keys) before
//    "down" hops. The escape next hop is precomputed per (node, phase,
//    destination) over the 2N-state phase graph, which makes the escape
//    network provably deadlock-free (acyclic channel ordering) while still
//    using the shortest legal path.
//
// Storage is flat and offset-indexed: the distance matrix and escape tables
// are dense row-major N*N arrays, and the variable-length minimal-port sets
// live concatenated in one byte array addressed through an offset table
// (CSR-style). A lookup is one index computation plus contiguous loads —
// no nested-vector pointer chasing on the router's per-cycle path — and a
// built table is trivially immutable, which is what lets a single
// TopologyContext share it read-only across concurrent simulators.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace hm::noc {

/// One escape-routing hop: the output port to take and the up*/down* phase
/// the packet carries afterwards.
struct EscapeHop {
  std::uint8_t port = 0;        ///< index into graph.neighbors(current)
  std::uint8_t next_phase = 0;  ///< 0 = still ascending, 1 = descending
};

/// A local edit of an arrangement graph: edges removed from and added to a
/// fixed vertex set (the node count never changes — a chiplet relocation
/// moves a vertex's incident edges, it never deletes the vertex). `removed`
/// edges must exist in the pre-edit graph and `added` edges must be absent
/// from it; endpoint order within a pair is irrelevant. This is the unit of
/// change the arrangement-search mutations and the fault controller hand to
/// TopologyContext::rebuild_from.
struct GraphEdit {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> removed;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> added;
  [[nodiscard]] bool empty() const noexcept {
    return removed.empty() && added.empty();
  }
};

/// Returns a copy of `g` with `edit` applied (removals first, then
/// additions). Throws std::invalid_argument when a removed edge is missing
/// or an added edge already exists.
[[nodiscard]] graph::Graph apply_edit(const graph::Graph& g,
                                      const GraphEdit& edit);

/// Precomputed routing tables for a fixed topology.
class RoutingTables {
 public:
  /// Builds tables for `g`, which must be connected with >= 1 vertex and
  /// degree <= 255 (std::invalid_argument otherwise).
  explicit RoutingTables(const graph::Graph& g);

  /// Hop distance between routers.
  [[nodiscard]] int distance(graph::NodeId u, graph::NodeId v) const {
    return dist_[flat(u, v)];
  }

  /// Output ports (indices into neighbors(cur)) on shortest paths cur->dst.
  /// Empty iff cur == dst.
  [[nodiscard]] std::span<const std::uint8_t> minimal_ports(
      graph::NodeId cur, graph::NodeId dst) const {
    const std::size_t i = flat(cur, dst);
    return {min_port_data_.data() + min_port_offset_[i],
            min_port_data_.data() + min_port_offset_[i + 1]};
  }

  /// Escape next hop from `cur` toward `dst` given the packet's current
  /// up*/down* phase. Precondition: cur != dst and the state is reachable
  /// (guaranteed when phases are only advanced through this table).
  [[nodiscard]] EscapeHop escape_hop(graph::NodeId cur, graph::NodeId dst,
                                     std::uint8_t phase) const {
    return escape_[phase][flat(cur, dst)];
  }

  /// Root of the up*/down* tree (a graph center).
  [[nodiscard]] graph::NodeId escape_root() const noexcept { return root_; }

  /// Number of network ports of router `v` (== its degree).
  [[nodiscard]] std::size_t num_ports(graph::NodeId v) const {
    return degree_[v];
  }

  /// Number of routers the tables were built for.
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

 private:
  /// Backward state-graph BFS from dst's two states, then the forward hop
  /// of every state: writes escape_[*][flat(*, dst)]. `depth` is the
  /// root's distance row (the up*/down* orientation key); `sd` is scratch
  /// for the column's 2n state distances.
  void build_escape_column(const graph::Graph& g, const std::vector<int>& depth,
                           graph::NodeId dst, std::vector<int>& sd);
  [[nodiscard]] std::size_t flat(graph::NodeId u, graph::NodeId v) const {
    return static_cast<std::size_t>(u) * n_ + v;
  }

  std::size_t n_ = 0;
  graph::NodeId root_ = 0;
  std::vector<std::size_t> degree_;
  std::vector<int> dist_;                       ///< flat [u*n + v]
  std::vector<std::uint32_t> min_port_offset_;  ///< n*n + 1 entries
  std::vector<std::uint8_t> min_port_data_;     ///< concatenated port sets
  /// escape_[phase][cur*n + dst]
  std::vector<EscapeHop> escape_[2];
};

}  // namespace hm::noc
