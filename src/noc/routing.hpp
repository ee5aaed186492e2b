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

#include <atomic>
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
  friend bool operator==(const EscapeHop&, const EscapeHop&) = default;
};

/// A local edit of an arrangement graph: edges removed from and added to a
/// fixed vertex set (the node count never changes — a chiplet relocation
/// moves a vertex's incident edges, it never deletes the vertex). `removed`
/// edges must exist in the pre-edit graph and `added` edges must be absent
/// from it; endpoint order within a pair is irrelevant. This is the unit of
/// change the arrangement-search mutations produce and the incremental
/// routing-table rebuild consumes.
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

  /// Incremental build: `g` must equal `edit` applied to the graph `prev`
  /// was built for (same vertex set — node-count changes fall back to a
  /// full build, as does any edit that invalidates more than half of the
  /// distance rows, e.g. a chiplet relocation, which genuinely changes
  /// d(u, moved) for nearly every u). Only the distance rows the edit
  /// actually changes are re-run through BFS, decided by exact per-row
  /// criteria over prev's distances: a removed edge invalidates row u only
  /// when it is tight (|d(u,a) - d(u,b)| == 1) *and* its far endpoint
  /// keeps no surviving tight predecessor (with one, every vertex still
  /// has an old-length path, by induction over BFS depth — path diversity
  /// makes most mesh edge toggles a no-op row-wise); an added edge only
  /// when |d(u,a) - d(u,b)| >= 2 (with every gap <= 1, no path through
  /// the added edges can beat the old distances). Likewise only the
  /// minimal-port CSR segments whose inputs (the row's own distances, a
  /// neighbour's distances, or the neighbour list itself) changed are
  /// recomputed; everything else is copied from `prev` byte for byte. The
  /// up*/down* escape tables rebuild per destination column: when the root
  /// and its distance row survive the edit (so the orientation keys are
  /// unchanged), the stored backward state-BFS distances let the same
  /// tight-inlet/shortcut criteria decide which destinations the edited
  /// transitions can reach at all — surviving columns are copied with only
  /// the edit-incident routers' hops re-derived (their port numbering
  /// changed), the rest re-run the full per-destination build. The result
  /// is bit-identical to RoutingTables(g) by construction (and by the
  /// property tests in test_search).
  RoutingTables(const graph::Graph& g, const RoutingTables& prev,
                const GraphEdit& edit);

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

  /// Process-lifetime count of table constructions. The topology-sharing
  /// contract — "one table build per evaluate / find_saturation / sweep-job
  /// chain" — is asserted by tests through deltas of this counter.
  ///
  /// Deprecated for observability use: the same counts are published as
  /// `routing.*` counters in telemetry::snapshot() (telemetry/telemetry.hpp),
  /// the uniform surface. These bespoke accessors stay for the existing
  /// delta-based test/engine bookkeeping only.
  [[nodiscard]] static std::uint64_t lifetime_builds() noexcept;

  /// Process-lifetime counts of incremental builds that stayed incremental
  /// (vs. falling back to a full rebuild) and of distance rows copied from
  /// the previous tables instead of re-running BFS. Observability for the
  /// search bench and the equivalence tests. Deprecated in favour of the
  /// `routing.incremental_*` telemetry counters (see lifetime_builds()).
  [[nodiscard]] static std::uint64_t incremental_builds() noexcept;
  [[nodiscard]] static std::uint64_t incremental_rows_reused() noexcept;

  /// True iff every table (distances, minimal-port CSR, escape hops, root,
  /// degrees) compares equal element for element. The incremental-vs-full
  /// equivalence contract of the (g, prev, edit) constructor.
  [[nodiscard]] bool identical_to(const RoutingTables& o) const;

 private:
  /// Shared table-construction phases (both constructors funnel through
  /// these so incremental and from-scratch builds run identical code).
  void build_full(const graph::Graph& g);
  void build_min_port_row(const graph::Graph& g, graph::NodeId cur);
  void build_escape(const graph::Graph& g);
  /// Graph center the escape tree roots at (the vertex whose largest
  /// distance in the current dist_ matrix is smallest, smallest id on
  /// ties).
  [[nodiscard]] graph::NodeId select_escape_root() const;
  /// Backward state-graph BFS + forward hop assignment for one
  /// destination. `depth` is the root's distance row (the up*/down*
  /// orientation key); writes escape_[*][flat(*, dst)] and the dst block
  /// of escape_sdist_.
  void build_escape_column(const graph::Graph& g, const std::vector<int>& depth,
                           graph::NodeId dst);
  /// Forward next hop of state (u, phase) toward dst given the dst
  /// column's state distances `sd`; the default hop for unreachable
  /// states. Exactly the selection loop of the full build.
  [[nodiscard]] EscapeHop forward_escape_hop(const graph::Graph& g,
                                             const std::vector<int>& depth,
                                             graph::NodeId dst, graph::NodeId u,
                                             int phase, const int* sd) const;
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
  /// Backward state-graph BFS distances per destination,
  /// escape_sdist_[dst * 2n + phase * n + v] (kInf-like sentinel for
  /// unreachable states). Never read on the routing hot path — kept so an
  /// incremental rebuild can decide, per destination, whether a graph edit
  /// touches that column's escape paths at all.
  std::vector<int> escape_sdist_;
};

}  // namespace hm::noc
