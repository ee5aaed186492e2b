#include "partition/fm_refine.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstddef>

namespace hm::partition::detail {

namespace {

constexpr std::uint32_t kNoVertex = static_cast<std::uint32_t>(-1);

/// gain(v) = cut reduction if v switches sides
/// = (weight of edges to the other side) - (weight to own side).
long long move_gain(const WeightedGraph& g, const std::vector<int>& side,
                    std::uint32_t v) {
  long long gain = 0;
  for (const auto& [u, w] : g.adj[v]) {
    gain += (side[u] != side[v]) ? w : -w;
  }
  return gain;
}

/// The unlocked vertices of one side, bucketed by gain (Fiduccia &
/// Mattheyses): one vertex-id bitset per gain value in [-max_gain,
/// max_gain], a count per bucket and an upper bound on the highest
/// non-empty bucket that is lowered lazily.
class GainBuckets {
 public:
  /// Empties every bucket for a graph of `n` vertices whose gains lie in
  /// [-max_gain, max_gain]. Reuses the storage of earlier passes.
  void reset(std::size_t n, long long max_gain) {
    words_ = (n + 63) / 64;
    offset_ = max_gain;
    const auto buckets = static_cast<std::size_t>(2 * max_gain + 1);
    bits_.assign(buckets * words_, 0);
    count_.assign(buckets, 0);
    top_ = -1;
  }

  void insert(std::uint32_t v, long long gain) {
    const long long b = gain + offset_;
    bits_[static_cast<std::size_t>(b) * words_ + v / 64] |= bit(v);
    ++count_[static_cast<std::size_t>(b)];
    top_ = std::max(top_, b);
  }

  void erase(std::uint32_t v, long long gain) {
    const long long b = gain + offset_;
    bits_[static_cast<std::size_t>(b) * words_ + v / 64] &= ~bit(v);
    --count_[static_cast<std::size_t>(b)];
  }

  /// The vertex of the highest non-empty bucket, lowest id first, whose
  /// node weight is at most `room`; kNoVertex when none fits. Buckets whose
  /// every vertex is too heavy are passed over for lower ones.
  std::uint32_t best(const std::vector<int>& node_weight, long long room,
                     long long& gain) {
    while (top_ >= 0 && count_[static_cast<std::size_t>(top_)] == 0) --top_;
    for (long long b = top_; b >= 0; --b) {
      if (count_[static_cast<std::size_t>(b)] == 0) continue;
      const std::uint64_t* row = &bits_[static_cast<std::size_t>(b) * words_];
      for (std::size_t w = 0; w < words_; ++w) {
        for (std::uint64_t m = row[w]; m != 0; m &= m - 1) {
          const auto v =
              static_cast<std::uint32_t>(w * 64 + std::countr_zero(m));
          if (node_weight[v] <= room) {
            gain = b - offset_;
            return v;
          }
        }
      }
    }
    return kNoVertex;
  }

 private:
  static std::uint64_t bit(std::uint32_t v) { return 1ULL << (v % 64); }

  std::vector<std::uint64_t> bits_;  ///< bucket-major, words_ per bucket
  std::vector<std::uint32_t> count_;
  std::size_t words_ = 0;
  long long offset_ = 0;
  long long top_ = -1;
};

/// fm_refine's per-pass buffers.
struct FmScratch {
  std::vector<char> locked;
  std::vector<long long> gain;
  std::vector<std::uint32_t> moves;  ///< move sequence, for the rollback
  GainBuckets buckets[2];            ///< indexed by the side a vertex leaves
};

}  // namespace

long long fm_refine(const WeightedGraph& g, std::vector<int>& side,
                    long long max_part_weight, int max_passes) {
  const std::size_t n = g.n();
  long long part_weight[2] = {0, 0};
  long long max_gain = 0;  // the largest weighted degree bounds every |gain|
  long long lightest = LLONG_MAX;
  for (std::uint32_t v = 0; v < n; ++v) {
    part_weight[side[v]] += g.node_weight[v];
    long long degree = 0;
    for (const auto& edge : g.adj[v]) degree += edge.second;
    max_gain = std::max(max_gain, degree);
    lightest = std::min<long long>(lightest, g.node_weight[v]);
  }
  long long cut = cut_weight(g, side);

  // Per-pass state, reset at the start of every pass. The storage is kept
  // per thread: a bisection refines dozens of small graphs, where fresh
  // buffers would cost about as much as the refinement itself.
  thread_local FmScratch scratch;
  std::vector<char>& locked = scratch.locked;
  std::vector<long long>& gain = scratch.gain;
  std::vector<std::uint32_t>& moves = scratch.moves;
  GainBuckets* const buckets = scratch.buckets;
  gain.resize(n);
  moves.reserve(n);

  for (int pass = 0; pass < max_passes; ++pass) {
    locked.assign(n, 0);
    moves.clear();
    buckets[0].reset(n, max_gain);
    buckets[1].reset(n, max_gain);
    for (std::uint32_t v = 0; v < n; ++v) {
      gain[v] = move_gain(g, side, v);
      buckets[side[v]].insert(v, gain[v]);
    }

    long long running_cut = cut;
    long long best_cut = cut;
    std::size_t best_prefix = 0;

    for (std::size_t step = 0; step < n; ++step) {
      // Move the unlocked vertex with the highest gain whose move keeps
      // the destination part within the weight cap; ties go to the lowest
      // id. Each side offers its own best candidate from its buckets, and
      // a side is skipped outright when not even the lightest vertex of
      // the graph fits into the other part.
      std::uint32_t best_v = kNoVertex;
      long long best_gain = 0;
      for (int from = 0; from < 2; ++from) {
        const long long room = max_part_weight - part_weight[1 - from];
        if (room < lightest) continue;
        long long v_gain = 0;
        const std::uint32_t v =
            buckets[from].best(g.node_weight, room, v_gain);
        if (v == kNoVertex) continue;
        if (best_v == kNoVertex || v_gain > best_gain ||
            (v_gain == best_gain && v < best_v)) {
          best_v = v;
          best_gain = v_gain;
        }
      }
      if (best_v == kNoVertex) break;

      // Apply the move.
      const int from = side[best_v];
      buckets[from].erase(best_v, gain[best_v]);
      side[best_v] = 1 - from;
      part_weight[from] -= g.node_weight[best_v];
      part_weight[1 - from] += g.node_weight[best_v];
      locked[best_v] = 1;
      running_cut -= best_gain;
      moves.push_back(best_v);
      for (const auto& [u, w] : g.adj[best_v]) {
        if (locked[u]) continue;
        // best_v switched sides: edges to u flip their contribution.
        buckets[side[u]].erase(u, gain[u]);
        gain[u] += (side[u] == side[best_v]) ? -2LL * w : 2LL * w;
        buckets[side[u]].insert(u, gain[u]);
      }

      if (running_cut < best_cut) {
        best_cut = running_cut;
        best_prefix = moves.size();
      }
    }

    // Roll back moves beyond the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const std::uint32_t v = moves[i - 1];
      const int from = side[v];
      side[v] = 1 - from;
      part_weight[from] -= g.node_weight[v];
      part_weight[1 - from] += g.node_weight[v];
    }

    if (best_cut >= cut) break;  // no improvement this pass
    cut = best_cut;
  }
  return cut;
}

std::vector<int> grow_initial_partition(const WeightedGraph& g,
                                        std::uint32_t seed_vertex,
                                        long long max_part_weight) {
  const std::size_t n = g.n();
  std::vector<int> side(n, 1);
  if (n == 0) return side;

  const long long total = g.total_node_weight();
  const long long target = total / 2;

  // conn[v]: weight of v's edges into part 0; touches[v]: v has a
  // neighbour in part 0. Both are brought up to date as each vertex
  // joins part 0, so a growing step is one scan over the vertices.
  std::vector<long long> conn(n, 0);
  std::vector<char> touches(n, 0);
  long long grown = 0;
  const auto absorb = [&](std::uint32_t v) {
    side[v] = 0;
    grown += g.node_weight[v];
    for (const auto& [u, w] : g.adj[v]) {
      conn[u] += w;
      touches[u] = 1;
    }
  };
  absorb(seed_vertex);

  // Frontier-based region growing: absorb the neighbour with the largest
  // connectivity into part 0 (breaks ties by id for determinism).
  while (grown < target) {
    std::uint32_t best = static_cast<std::uint32_t>(-1);
    long long best_conn = -1;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (side[v] == 0) continue;
      if (grown + g.node_weight[v] > max_part_weight) continue;
      if (touches[v] && conn[v] > best_conn) {
        best_conn = conn[v];
        best = v;
      }
    }
    if (best == static_cast<std::uint32_t>(-1)) {
      // Disconnected frontier: absorb any eligible vertex to reach balance.
      for (std::uint32_t v = 0; v < n; ++v) {
        if (side[v] == 1 && grown + g.node_weight[v] <= max_part_weight) {
          best = v;
          break;
        }
      }
      if (best == static_cast<std::uint32_t>(-1)) break;
    }
    absorb(best);
  }
  return side;
}

}  // namespace hm::partition::detail
