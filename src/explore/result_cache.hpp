// Thread-safe cache of evaluation results keyed by the stable design-point
// hashes of explore/hash.hpp. Repeated probes of the same (arrangement,
// params) — e.g. the analytic half of evaluate() shared across traffic
// ablations, or a re-run of an extended sweep — are computed once.
//
// This is the top of a two-level sharing scheme: ResultCache shares whole
// EvaluationResults across identical design points, while the process-wide
// noc::TopologyContext intern cache (keyed by the same util::StableHash
// digests) shares the routing tables underneath points that differ only in
// seeds, simulator knobs or traffic.
//
// Contention design: the map is split into 16 shards, each behind its own
// shared_mutex, so sweep workers hitting the cache concurrently only
// serialize when their keys land in the same shard (keys are well-mixed
// 64-bit content hashes, so shard selection is uniform). get_or_compute is
// a template over the compute callable — no std::function allocation on
// the per-job path.
// Persistence: attach_store() hangs a store::ResultStore under the cache
// as a second tier. Memory misses fall through to the store (a disk hit
// repopulates the shard and counts as a cache hit), inserts are tracked as
// dirty per shard, and flush_to_store() — also run by the destructor —
// writes the dirty set through.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/evaluator.hpp"

namespace hm::store {
class ResultStore;
}  // namespace hm::store

namespace hm::explore {

class ResultCache {
 public:
  ResultCache() = default;
  /// Flushes dirty entries to the attached store, if any (errors swallowed:
  /// a failed shutdown flush costs warmth, never correctness).
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Attaches the persistent tier. Call before the cache is shared across
  /// threads (engines attach in their constructor); passing nullptr
  /// detaches. Entries already in memory are left alone (and stay
  /// non-dirty — only post-attach inserts are flushed).
  void attach_store(std::shared_ptr<store::ResultStore> store);

  /// Writes every dirty entry through to the attached store and flushes it
  /// to disk. Returns the number of entries written (0 without a store).
  std::size_t flush_to_store();

  /// Returns the cached result for `key`, if any. Counts a hit or miss.
  /// With a store attached, a memory miss falls through to disk; a disk
  /// hit repopulates the shard (non-dirty) and counts as a hit.
  [[nodiscard]] std::optional<core::EvaluationResult> lookup(
      std::uint64_t key) const;

  /// Stores `result` under `key` (last writer wins; with deterministic
  /// evaluation, racing writers store identical values).
  void insert(std::uint64_t key, const core::EvaluationResult& result);

  /// lookup(), falling back to `compute` + insert() on a miss. `compute`
  /// runs outside the lock, so two threads racing on the same key may both
  /// compute — harmless for deterministic evaluations and cheaper than
  /// serializing every simulation behind a mutex. `was_hit`, when given,
  /// reports whether the value came from the cache.
  template <typename Compute>
  core::EvaluationResult get_or_compute(std::uint64_t key, Compute&& compute,
                                        bool* was_hit = nullptr) {
    if (auto cached = lookup(key)) {
      if (was_hit != nullptr) *was_hit = true;
      return *cached;
    }
    if (was_hit != nullptr) *was_hit = false;
    core::EvaluationResult result = std::forward<Compute>(compute)();
    insert(key, result);
    return result;
  }

  /// Total entries across all shards (each shard locked in turn, so the
  /// result is approximate under concurrent insertion).
  [[nodiscard]] std::size_t size() const;

  /// Lifetime lookup counters (lookup() and get_or_compute()).
  ///
  /// Deprecated for observability use: lookups are also published, per
  /// shard and aggregated across every ResultCache instance, as the
  /// `cache.shardNN.{hits,misses}` counters in telemetry::snapshot() — the
  /// uniform surface. These per-instance accessors stay for the engines'
  /// delta bookkeeping (SearchResult::cache_hits etc.).
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::uint64_t, core::EvaluationResult> map;
    /// Keys inserted since the last flush_to_store() (only tracked while a
    /// store is attached; disk-sourced entries are never dirty).
    std::unordered_set<std::uint64_t> dirty;
  };

  /// Keys are stable content hashes (already well mixed), so the low bits
  /// select a shard uniformly.
  [[nodiscard]] Shard& shard_for(std::uint64_t key) const {
    return shards_[key & (kShards - 1)];
  }

  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::shared_ptr<store::ResultStore> store_;
};

}  // namespace hm::explore
