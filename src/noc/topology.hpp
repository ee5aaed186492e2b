// Shared immutable topology layer.
//
// A TopologyContext bundles everything derived from an arrangement graph
// that every simulation of that graph needs but none may mutate: the graph
// itself, the flat RoutingTables (all-pairs distances, CSR minimal-port
// sets, up*/down* escape hops) and the precomputed directed-link wiring
// (which output port at the source feeds which input port at the sink).
// It is built once per distinct graph and handed around as a
// shared_ptr<const TopologyContext>: the Fig. 7 methodology runs ~13 fresh
// simulator probes per saturation search, and the sweep engine multiplies
// that into (arrangement x params x traffic) grids — without sharing, every
// probe's Network constructor rebuilt the O(N^2 * deg) tables from scratch.
//
// acquire() interns contexts in a process-wide cache keyed by a stable
// content digest of the graph (util::StableHash over node count + sorted
// edges), holding weak references so contexts live exactly as long as some
// network, simulator or sweep job still uses them. Entries with equal
// digests are verified structurally, so a hash collision costs a rebuild,
// never a wrong table. Everything reachable from a const TopologyContext is
// deeply immutable, making concurrent read-only use from any number of
// ThreadPool workers safe without locks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "noc/routing.hpp"

namespace hm::noc {

/// Stable content digest of a graph (node count + sorted edge list).
[[nodiscard]] std::uint64_t graph_digest(const graph::Graph& g);

class TopologyContext {
 public:
  /// One directed channel of a D2D link, with both port indices resolved.
  struct DirectedLink {
    graph::NodeId from = 0;
    graph::NodeId to = 0;
    std::uint8_t out_port_at_from = 0;  ///< port index at `from` toward `to`
    std::uint8_t in_port_at_to = 0;     ///< port index at `to` toward `from`
  };

  /// Builds a private (uncached) context. Prefer acquire() — it shares one
  /// build across every simulator of the same graph.
  explicit TopologyContext(const graph::Graph& g);

  /// Returns the shared context for `g`, building it only when no live
  /// context for a structurally equal graph exists. Thread-safe.
  [[nodiscard]] static std::shared_ptr<const TopologyContext> acquire(
      const graph::Graph& g);

  /// Returns the shared context for `prev`'s graph with `edit` applied,
  /// rebuilding only the routing-table rows and CSR segments the edit
  /// invalidates (see the incremental RoutingTables constructor; non-local
  /// edits fall back to a full build internally). Delta-built contexts are
  /// interned in the same digest-keyed cache as acquire(), so an
  /// incremental rebuild and a from-scratch acquire of the same graph
  /// return the same shared instance — whichever ran first — and the two
  /// build paths are interchangeable everywhere a context is consumed.
  /// This is the hot enabling path of the arrangement-search optimizer:
  /// every mutation step perturbs one chiplet or one link, so most of the
  /// O(N^2 * deg) table content survives verbatim. Thread-safe. Throws
  /// std::invalid_argument when `prev` is null or the edit is inconsistent
  /// with prev's graph (missing removed edge / duplicate added edge), and
  /// std::invalid_argument via RoutingTables when the edited graph is
  /// disconnected.
  [[nodiscard]] static std::shared_ptr<const TopologyContext> rebuild_from(
      const std::shared_ptr<const TopologyContext>& prev,
      const GraphEdit& edit);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const RoutingTables& tables() const noexcept {
    return tables_;
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return graph_.node_count();
  }
  /// Hop distance between routers (the shared distance matrix).
  [[nodiscard]] int distance(graph::NodeId u, graph::NodeId v) const {
    return tables_.distance(u, v);
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// Two directed links per undirected edge, in deterministic order:
  /// edges() order (a < b, lexicographic), a->b before b->a. This is the
  /// port map Network previously recomputed per construction.
  [[nodiscard]] std::span<const DirectedLink> directed_links() const noexcept {
    return links_;
  }

  /// Process-lifetime count of contexts constructed. Used by tests to
  /// verify the build-once contract; acquire() calls served from the cache
  /// are published as the `topo.intern_hits` counter in
  /// telemetry::snapshot() (telemetry/telemetry.hpp).
  [[nodiscard]] static std::uint64_t lifetime_builds() noexcept;

 private:
  /// Incremental build for rebuild_from: `g` is prev's graph with `edit`
  /// applied; the routing tables reuse every row the edit leaves intact.
  TopologyContext(const graph::Graph& g, const TopologyContext& prev,
                  const GraphEdit& edit);

  void build_links();

  graph::Graph graph_;
  std::uint64_t digest_ = 0;
  RoutingTables tables_;
  std::vector<DirectedLink> links_;
};

}  // namespace hm::noc
