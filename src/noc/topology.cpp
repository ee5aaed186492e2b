#include "noc/topology.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/stable_hash.hpp"

namespace hm::noc {

namespace {

std::atomic<std::uint64_t> g_context_builds{0};

/// Index of `u` within the sorted neighbour list of `v` (v's port toward u).
std::uint8_t port_of(const graph::Graph& g, graph::NodeId v, graph::NodeId u) {
  const auto nbrs = g.neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
  if (it == nbrs.end() || *it != u) {
    throw std::logic_error("TopologyContext: port_of for non-neighbour");
  }
  return static_cast<std::uint8_t>(it - nbrs.begin());
}

bool same_graph(const graph::Graph& a, const graph::Graph& b) {
  return a.node_count() == b.node_count() &&
         a.edge_count() == b.edge_count() && a.edges() == b.edges();
}

/// Digest-keyed intern table. Weak references: a context lives exactly as
/// long as some Network/Simulator/sweep job holds it. The rare digest
/// collision falls through to a structural comparison. Dead entries (the
/// digest never re-acquired — one-shot designs in a long sweep) are swept
/// by a periodic full prune so the map stays proportional to the number of
/// *live* contexts, not the number of graphs ever seen.
struct ContextCache {
  std::mutex mu;
  std::unordered_map<std::uint64_t,
                     std::vector<std::weak_ptr<const TopologyContext>>>
      map;
  std::uint64_t acquires_since_prune = 0;
};

ContextCache& cache() {
  static ContextCache* c = new ContextCache();  // leaked: outlives statics
  return *c;
}

/// Drops expired slots map-wide every 64 acquires (amortized O(1) per
/// acquire). Called with the cache mutex held.
void maybe_prune(ContextCache& c) {
  if (++c.acquires_since_prune < 64) return;
  c.acquires_since_prune = 0;
  // HM_LINT allow(unordered-iter): pure eviction of expired weak slots —
  // the walk order mutates nothing observable (no export/hash/trace reads
  // this map; lookups go through find())
  for (auto it = c.map.begin(); it != c.map.end();) {
    std::erase_if(it->second, [](const auto& w) { return w.expired(); });
    it = it->second.empty() ? c.map.erase(it) : std::next(it);
  }
}

}  // namespace

std::uint64_t graph_digest(const graph::Graph& g) {
  util::StableHash h;
  h.mix(g.node_count());
  const auto edges = g.edges();  // sorted (a < b, lexicographic)
  h.mix(edges.size());
  for (const auto& [a, b] : edges) h.mix(a).mix(b);
  return h.value();
}

std::uint64_t TopologyContext::lifetime_builds() noexcept {
  return g_context_builds.load(std::memory_order_relaxed);
}

TopologyContext::TopologyContext(const graph::Graph& g)
    : graph_(g), digest_(graph_digest(g)), tables_([&] {
        telemetry::Span span("topo.build_full");
        return RoutingTables(g);
      }()) {
  static telemetry::Counter full_builds("topo.full_builds");
  full_builds.add();
  g_context_builds.fetch_add(1, std::memory_order_relaxed);
  build_links();
}

TopologyContext::TopologyContext(const graph::Graph& g,
                                 const TopologyContext& prev,
                                 const GraphEdit& edit)
    : graph_(g), digest_(graph_digest(g)), tables_([&] {
        telemetry::Span span("topo.build_incremental");
        return RoutingTables(g, prev.tables_, edit);
      }()) {
  static telemetry::Counter incr_builds("topo.incremental_builds");
  incr_builds.add();
  g_context_builds.fetch_add(1, std::memory_order_relaxed);
  build_links();
}

void TopologyContext::build_links() {
  links_.clear();
  links_.reserve(2 * graph_.edge_count());
  for (const auto& [a, b] : graph_.edges()) {
    const std::uint8_t port_ab = port_of(graph_, a, b);
    const std::uint8_t port_ba = port_of(graph_, b, a);
    links_.push_back(DirectedLink{a, b, port_ab, port_ba});
    links_.push_back(DirectedLink{b, a, port_ba, port_ab});
  }
}

namespace {

/// Shared intern protocol of acquire() and rebuild_from(): return a live
/// context for `g` if one exists, otherwise build one via `build` (outside
/// the lock, so distinct graphs build in parallel across sweep/search
/// workers) and register it. Two threads racing on the *same* graph may
/// both build — harmless (contexts built either way are value-identical;
/// the incremental-vs-full equivalence tests pin this for the delta path);
/// the loser's copy is discarded and every later acquire sees one shared
/// instance. Plain shared_ptr<>(new ...) rather than make_shared so the
/// bulky object storage is freed as soon as the last strong reference
/// drops, even while a weak cache slot lingers until the next prune.
template <typename Build>
std::shared_ptr<const TopologyContext> intern_or_build(const graph::Graph& g,
                                                       Build&& build) {
  const std::uint64_t digest = graph_digest(g);
  ContextCache& c = cache();

  // Looks up a live context for `g`, pruning expired slots of this digest
  // in passing. Requires the cache mutex.
  const auto lookup = [&]() -> std::shared_ptr<const TopologyContext> {
    const auto it = c.map.find(digest);
    if (it == c.map.end()) return nullptr;
    std::erase_if(it->second, [](const auto& w) { return w.expired(); });
    for (const auto& weak : it->second) {
      if (auto ctx = weak.lock(); ctx && same_graph(ctx->graph(), g)) {
        return ctx;
      }
    }
    if (it->second.empty()) c.map.erase(it);
    return nullptr;
  };

  static telemetry::Counter intern_hits("topo.intern_hits");
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    maybe_prune(c);
    if (auto ctx = lookup()) {
      intern_hits.add();
      return ctx;
    }
  }

  std::shared_ptr<const TopologyContext> built(build());
  const std::lock_guard<std::mutex> lock(c.mu);
  if (auto ctx = lookup()) {
    intern_hits.add();
    return ctx;  // a racer registered first; adopt the shared instance
  }
  c.map[digest].push_back(built);
  return built;
}

}  // namespace

std::shared_ptr<const TopologyContext> TopologyContext::acquire(
    const graph::Graph& g) {
  return intern_or_build(g, [&g] { return new TopologyContext(g); });
}

std::shared_ptr<const TopologyContext> TopologyContext::rebuild_from(
    const std::shared_ptr<const TopologyContext>& prev, const GraphEdit& edit) {
  if (prev == nullptr) {
    throw std::invalid_argument("TopologyContext::rebuild_from: null prev");
  }
  if (edit.empty()) return prev;
  const graph::Graph g = apply_edit(prev->graph(), edit);
  // Keyed by the same stable digest as acquire(): if a from-scratch build
  // of the edited graph is already live, adopt it; if this delta build
  // registers first, later acquire() calls adopt it instead.
  return intern_or_build(
      g, [&] { return new TopologyContext(g, *prev, edit); });
}

}  // namespace hm::noc
