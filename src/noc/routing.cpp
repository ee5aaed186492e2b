#include "noc/routing.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "telemetry/telemetry.hpp"

namespace hm::noc {

namespace {

constexpr int kInf = std::numeric_limits<int>::max() / 4;

std::atomic<std::uint64_t> g_incremental_builds{0};

/// up*/down* orientation: an edge goes "up" toward the endpoint with the
/// smaller (root depth, id) key.
bool ud_goes_up(const std::vector<int>& depth, graph::NodeId u,
                graph::NodeId w) {
  return depth[w] != depth[u] ? depth[w] < depth[u] : w < u;
}

void check_buildable(const graph::Graph& g) {
  if (g.node_count() == 0) {
    throw std::invalid_argument("RoutingTables: empty graph");
  }
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("RoutingTables: graph must be connected");
  }
  if (g.max_degree() > 255) {
    throw std::invalid_argument("RoutingTables: degree must be <= 255");
  }
}

}  // namespace

graph::Graph apply_edit(const graph::Graph& g, const GraphEdit& edit) {
  graph::Graph out = g;
  for (const auto& [a, b] : edit.removed) out.remove_edge(a, b);
  for (const auto& [a, b] : edit.added) out.add_edge(a, b);
  return out;
}

std::uint64_t RoutingTables::incremental_builds() noexcept {
  return g_incremental_builds.load(std::memory_order_relaxed);
}

bool RoutingTables::identical_to(const RoutingTables& o) const {
  return n_ == o.n_ && root_ == o.root_ && degree_ == o.degree_ &&
         dist_ == o.dist_ && min_port_offset_ == o.min_port_offset_ &&
         min_port_data_ == o.min_port_data_ && escape_[0] == o.escape_[0] &&
         escape_[1] == o.escape_[1] && escape_sdist_ == o.escape_sdist_;
}

RoutingTables::RoutingTables(const graph::Graph& g) {
  check_buildable(g);
  static telemetry::Counter builds("routing.lifetime_builds");
  builds.add();
  build_full(g);
}

RoutingTables::RoutingTables(const graph::Graph& g, const RoutingTables& prev,
                             const GraphEdit& edit) {
  check_buildable(g);
  // HM_LINT allow(telemetry-name): deliberate alias — full and incremental
  // constructors both count into the one lifetime-builds metric
  static telemetry::Counter builds("routing.lifetime_builds");
  builds.add();
  const std::size_t n = g.node_count();
  if (n != prev.n_ || edit.empty()) {
    // Vertex-set changes (and no-op edits on a fresh graph) are non-local
    // by definition; nothing of prev can be reused safely.
    build_full(g);
    return;
  }
  n_ = n;

  // --- Affected distance rows ----------------------------------------------
  // Both criteria are evaluated against prev's distances and are *exact*
  // for the row as a whole (u's row changes iff a criterion fires), which
  // is what keeps mesh-like graphs — where path diversity absorbs most
  // single-edge edits — on the incremental path:
  //
  //  * Removals. An edge can only carry shortest paths from u when it is
  //    tight (|d(u,a) - d(u,b)| == 1, head = the farther endpoint), and a
  //    removed tight edge is harmless when its head keeps another tight
  //    predecessor that survives the whole edit: by induction over BFS
  //    depth, every vertex then still has a surviving old-length path
  //    (each depth-k vertex hangs off a preserved depth-(k-1) predecessor).
  //    Conversely, a head with no surviving tight predecessor has lost
  //    every shortest path from u.
  //  * Additions. An added edge shortens some distance from u iff
  //    |d(u,a) - d(u,b)| >= 2 (then d(u, far side) itself improves). With
  //    the gap <= 1 for every added edge, no path through any subset of
  //    them can beat the old distances: along such a path the invariant
  //    "cost so far >= d_old(u, current)" survives old edges and added
  //    edges alike.
  std::vector<char> row_changed(n, 0);
  std::size_t changed_rows = 0;
  const auto prev_d = [&](graph::NodeId u, graph::NodeId v) {
    return prev.dist_[static_cast<std::size_t>(u) * n + v];
  };
  const auto in_edit = [](const auto& edges, graph::NodeId x, graph::NodeId y) {
    for (const auto& [p, q] : edges) {
      if ((p == x && q == y) || (p == y && q == x)) return true;
    }
    return false;
  };
  for (graph::NodeId u = 0; u < n; ++u) {
    bool affected = false;
    for (const auto& [a, b] : edit.removed) {
      const int da = prev_d(u, a);
      const int db = prev_d(u, b);
      // Endpoints adjacent in prev, so the gap is 0 (not tight — the edge
      // lies on no shortest path from u) or 1.
      if (std::abs(da - db) != 1) continue;
      const graph::NodeId lo = da < db ? a : b;
      const graph::NodeId hi = da < db ? b : a;
      const int want = prev_d(u, hi) - 1;
      bool survivor = false;
      // Surviving old tight predecessors of hi: new-graph neighbours minus
      // edges the edit added (removed edges are absent from g already).
      for (const graph::NodeId w : g.neighbors(hi)) {
        if (w == lo || prev_d(u, w) != want) continue;
        if (in_edit(edit.added, w, hi)) continue;
        survivor = true;
        break;
      }
      if (!survivor) {
        affected = true;
        break;
      }
    }
    for (const auto& [a, b] : edit.added) {
      if (affected) break;
      if (std::abs(prev_d(u, a) - prev_d(u, b)) >= 2) affected = true;
    }
    row_changed[u] = affected ? 1 : 0;
    changed_rows += affected ? 1 : 0;
  }
  if (2 * changed_rows > n) {
    // Non-local edit: the copy bookkeeping would cost more than it saves.
    build_full(g);
    return;
  }
  g_incremental_builds.fetch_add(1, std::memory_order_relaxed);
  static telemetry::Counter incr("routing.incremental_builds");
  static telemetry::Counter rows("routing.incremental_rows_reused");
  incr.add();
  rows.add(n - changed_rows);

  degree_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) degree_[v] = g.degree(v);

  // --- Distances: BFS only the invalidated rows ----------------------------
  dist_.resize(n * n);
  for (graph::NodeId src = 0; src < n; ++src) {
    if (row_changed[src]) {
      const auto row = graph::bfs_distances(g, src);
      std::copy(row.begin(), row.end(), dist_.begin() + flat(src, 0));
    } else {
      std::copy(prev.dist_.begin() + flat(src, 0),
                prev.dist_.begin() + flat(src, 0) + n,
                dist_.begin() + flat(src, 0));
    }
  }

  // --- Minimal-port CSR: recompute invalidated segments, splice the rest ---
  // Row `cur` depends on cur's neighbour list, cur's distance row and each
  // neighbour's distance row; anything else is copied from prev with its
  // offsets rebased.
  std::vector<char> incident(n, 0);
  for (const auto& [a, b] : edit.removed) incident[a] = incident[b] = 1;
  for (const auto& [a, b] : edit.added) incident[a] = incident[b] = 1;
  min_port_offset_.assign(n * n + 1, 0);
  min_port_data_.clear();
  min_port_data_.reserve(prev.min_port_data_.size() + 4 * edit.added.size());
  for (graph::NodeId cur = 0; cur < n; ++cur) {
    bool recompute = row_changed[cur] || incident[cur];
    if (!recompute) {
      for (graph::NodeId nb : g.neighbors(cur)) {
        if (row_changed[nb]) {
          recompute = true;
          break;
        }
      }
    }
    if (recompute) {
      build_min_port_row(g, cur);
    } else {
      const std::uint32_t begin = prev.min_port_offset_[flat(cur, 0)];
      const std::uint32_t end = prev.min_port_offset_[flat(cur, 0) + n];
      const auto base = static_cast<std::uint32_t>(min_port_data_.size());
      min_port_data_.insert(min_port_data_.end(),
                            prev.min_port_data_.begin() + begin,
                            prev.min_port_data_.begin() + end);
      for (graph::NodeId dst = 0; dst < n; ++dst) {
        min_port_offset_[flat(cur, dst) + 1] =
            prev.min_port_offset_[flat(cur, dst) + 1] - begin + base;
      }
    }
  }

  // --- Escape network: per-destination incremental rebuild ------------------
  // The up*/down* orientation keys on (root distance, id). When the edit
  // moves the graph center or changes the root's distance row, the whole
  // orientation basis shifts and the escape tables are rebuilt wholesale
  // (same code as the from-scratch constructor, hence bit-identical).
  // Otherwise the state graph differs from prev's only in the transitions
  // of the edited edges, and the stored per-destination state distances
  // (escape_sdist_) let the exact distance-row criteria replay per column:
  // a destination's column survives untouched unless a removed transition
  // was its only tight inlet somewhere or an added transition shortcuts it.
  const graph::NodeId new_root = select_escape_root();
  if (new_root != prev.root_ || row_changed[new_root]) {
    build_escape(g);
    return;
  }
  root_ = new_root;
  const std::vector<int> depth(dist_.begin() + flat(root_, 0),
                               dist_.begin() + flat(root_, 0) + n);
  for (int phase = 0; phase < 2; ++phase) {
    escape_[phase].assign(n * n, EscapeHop{});
  }
  escape_sdist_.assign(2 * n * n, kInf);
  auto sidx = [n](graph::NodeId v, int phase) {
    return static_cast<std::size_t>(phase) * n + v;
  };

  // Forward state transitions of one graph edge {x, y} under the (shared)
  // orientation: with p the lower-key endpoint, (q,0)->(p,0) up plus
  // (p,0)->(q,1) and (p,1)->(q,1) down.
  struct Transition {
    std::size_t from, to;  ///< sidx state indices
  };
  const auto transitions_of = [&](graph::NodeId x, graph::NodeId y) {
    const graph::NodeId p = ud_goes_up(depth, y, x) ? x : y;  // lower key
    const graph::NodeId q = p == x ? y : x;
    return std::array<Transition, 3>{{{sidx(q, 0), sidx(p, 0)},
                                      {sidx(p, 0), sidx(q, 1)},
                                      {sidx(p, 1), sidx(q, 1)}}};
  };

  std::vector<graph::NodeId> incident_list;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (incident[v]) incident_list.push_back(v);
  }

  for (graph::NodeId dst = 0; dst < n; ++dst) {
    const int* const psd =
        prev.escape_sdist_.data() + static_cast<std::size_t>(dst) * 2 * n;
    // Does any removed transition lose a state's last tight inlet, or any
    // added transition shorten a state distance? (Same exact criteria as
    // the distance rows, on the backward state BFS.)
    bool affected = false;
    for (const auto& [a, b] : edit.removed) {
      if (affected) break;
      for (const Transition& t : transitions_of(a, b)) {
        if (psd[t.from] != psd[t.to] + 1) continue;  // not tight
        // Surviving alternative: another old forward transition from
        // t.from one step closer to dst.
        const graph::NodeId v = static_cast<graph::NodeId>(t.from % n);
        const int from_phase = static_cast<int>(t.from / n);
        bool survivor = false;
        for (const graph::NodeId w : g.neighbors(v)) {
          if (in_edit(edit.added, v, w)) continue;  // new, not "surviving"
          const bool up_vw = ud_goes_up(depth, v, w);
          if (from_phase == 0 && up_vw &&
              psd[sidx(w, 0)] == psd[t.from] - 1) {
            survivor = true;
            break;
          }
          if (!up_vw && psd[sidx(w, 1)] == psd[t.from] - 1) {
            survivor = true;
            break;
          }
        }
        if (!survivor) {
          affected = true;
          break;
        }
      }
    }
    for (const auto& [a, b] : edit.added) {
      if (affected) break;
      for (const Transition& t : transitions_of(a, b)) {
        if (psd[t.to] != kInf && psd[t.to] + 1 < psd[t.from]) {
          affected = true;
          break;
        }
      }
    }

    if (affected) {
      build_escape_column(g, depth, dst);
      continue;
    }
    // Column unchanged: copy the state distances and hop entries, then
    // re-derive the hops of edit-incident routers — their port numbering
    // and transition sets changed even though the distances did not.
    int* const sd =
        escape_sdist_.data() + static_cast<std::size_t>(dst) * 2 * n;
    std::copy(psd, psd + 2 * n, sd);
    for (int phase = 0; phase < 2; ++phase) {
      for (graph::NodeId u = 0; u < n; ++u) {
        escape_[phase][flat(u, dst)] = prev.escape_[phase][flat(u, dst)];
      }
    }
    for (const graph::NodeId u : incident_list) {
      if (u == dst) continue;
      for (int phase = 0; phase < 2; ++phase) {
        escape_[phase][flat(u, dst)] =
            forward_escape_hop(g, depth, dst, u, phase, sd);
      }
    }
  }
}

void RoutingTables::build_full(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  n_ = n;

  degree_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) degree_[v] = g.degree(v);

  // --- All-pairs distances (flat row-major) --------------------------------
  dist_.resize(n * n);
  for (graph::NodeId src = 0; src < n; ++src) {
    const auto row = graph::bfs_distances(g, src);
    std::copy(row.begin(), row.end(), dist_.begin() + flat(src, 0));
  }

  // --- Minimal next-hop port sets (CSR: offsets into one byte array) -------
  min_port_offset_.resize(n * n + 1, 0);
  min_port_data_.reserve(n * n);  // lower bound; most pairs have >= 1 port
  for (graph::NodeId cur = 0; cur < n; ++cur) {
    build_min_port_row(g, cur);
  }

  build_escape(g);
}

void RoutingTables::build_min_port_row(const graph::Graph& g,
                                       graph::NodeId cur) {
  const std::size_t n = n_;
  const auto nbrs = g.neighbors(cur);
  for (graph::NodeId dst = 0; dst < n; ++dst) {
    if (dst != cur) {
      const int want = dist_[flat(cur, dst)] - 1;
      for (std::size_t p = 0; p < nbrs.size(); ++p) {
        if (dist_[flat(nbrs[p], dst)] == want) {
          min_port_data_.push_back(static_cast<std::uint8_t>(p));
        }
      }
    }
    min_port_offset_[flat(cur, dst) + 1] =
        static_cast<std::uint32_t>(min_port_data_.size());
  }
}

graph::NodeId RoutingTables::select_escape_root() const {
  const std::size_t n = n_;
  graph::NodeId root = 0;
  int best_ecc = kInf;
  for (graph::NodeId v = 0; v < n; ++v) {
    int ecc = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      ecc = std::max(ecc, dist_[flat(v, u)]);
    }
    if (ecc < best_ecc) {
      best_ecc = ecc;
      root = v;
    }
  }
  return root;
}

void RoutingTables::build_escape(const graph::Graph& g) {
  const std::size_t n = n_;

  // --- Escape network: BFS tree from a center, up*/down* orientation -------
  root_ = select_escape_root();
  const std::vector<int> depth(dist_.begin() + flat(root_, 0),
                               dist_.begin() + flat(root_, 0) + n);

  // State graph: state (v, phase). Forward transitions:
  //   (u, 0) -up-> (w, 0), (u, 0) -down-> (w, 1), (u, 1) -down-> (w, 1).
  // For each destination, run a backward BFS from {(dst,0), (dst,1)} over
  // reversed transitions and record the forward next hop per state.
  for (int phase = 0; phase < 2; ++phase) {
    escape_[phase].assign(n * n, EscapeHop{});
  }
  escape_sdist_.assign(2 * n * n, kInf);
  for (graph::NodeId dst = 0; dst < n; ++dst) {
    build_escape_column(g, depth, dst);
  }
}

void RoutingTables::build_escape_column(const graph::Graph& g,
                                        const std::vector<int>& depth,
                                        graph::NodeId dst) {
  const std::size_t n = n_;
  int* const sd = escape_sdist_.data() + static_cast<std::size_t>(dst) * 2 * n;
  auto sidx = [n](graph::NodeId v, int phase) {
    return static_cast<std::size_t>(phase) * n + v;
  };

  std::fill(sd, sd + 2 * n, kInf);
  std::queue<std::pair<graph::NodeId, int>> frontier;
  sd[sidx(dst, 0)] = 0;
  sd[sidx(dst, 1)] = 0;
  frontier.emplace(dst, 0);
  frontier.emplace(dst, 1);
  while (!frontier.empty()) {
    const auto [v, phase] = frontier.front();
    frontier.pop();
    const int d = sd[sidx(v, phase)];
    // Find predecessors (u, pu) with a forward transition into (v, phase).
    for (graph::NodeId u : g.neighbors(v)) {
      const bool up_uv = ud_goes_up(depth, u, v);
      // (u,0) -> (v,0) requires up; (u,0) -> (v,1) and (u,1) -> (v,1)
      // require down.
      if (phase == 0) {
        if (up_uv && sd[sidx(u, 0)] == kInf) {
          sd[sidx(u, 0)] = d + 1;
          frontier.emplace(u, 0);
        }
      } else {
        if (!up_uv) {
          for (int pu = 0; pu < 2; ++pu) {
            if (sd[sidx(u, pu)] == kInf) {
              sd[sidx(u, pu)] = d + 1;
              frontier.emplace(u, pu);
            }
          }
        }
      }
    }
  }

  for (graph::NodeId u = 0; u < n; ++u) {
    if (u == dst) continue;
    for (int phase = 0; phase < 2; ++phase) {
      escape_[phase][flat(u, dst)] =
          forward_escape_hop(g, depth, dst, u, phase, sd);
    }
  }
}

EscapeHop RoutingTables::forward_escape_hop(const graph::Graph& g,
                                            const std::vector<int>& depth,
                                            graph::NodeId dst, graph::NodeId u,
                                            int phase, const int* sd) const {
  const std::size_t n = n_;
  auto sidx = [n](graph::NodeId v, int ph) {
    return static_cast<std::size_t>(ph) * n + v;
  };
  const int d = sd[sidx(u, phase)];
  if (d == kInf) return EscapeHop{};  // unreachable state; never queried

  // Forward next hop: from (u, phase), pick the transition that decreases
  // the state distance (smallest port for determinism).
  const auto nbrs = g.neighbors(u);
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const graph::NodeId w = nbrs[p];
    const bool up_uw = ud_goes_up(depth, u, w);
    if (phase == 0 && up_uw) {
      if (w == dst || sd[sidx(w, 0)] == d - 1) {
        return {static_cast<std::uint8_t>(p), 0};
      }
    }
    if (!up_uw) {  // down transition, allowed from either phase
      if (w == dst || sd[sidx(w, 1)] == d - 1) {
        return {static_cast<std::uint8_t>(p), 1};
      }
    }
  }
  throw std::logic_error("RoutingTables: inconsistent up*/down* state graph");
}

}  // namespace hm::noc
