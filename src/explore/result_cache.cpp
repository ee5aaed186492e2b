#include "explore/result_cache.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "store/result_store.hpp"
#include "telemetry/telemetry.hpp"

namespace hm::explore {

namespace {

/// Per-shard telemetry counters, aggregated across every ResultCache
/// instance in the process (the registry view; per-instance deltas stay on
/// hits()/misses()). Built once, on first lookup.
struct ShardCounters {
  std::vector<telemetry::Counter> hits;
  std::vector<telemetry::Counter> misses;
  ShardCounters(const char* prefix, std::size_t shards) {
    hits.reserve(shards);
    misses.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::string base =
          std::string(prefix) + (s < 10 ? ".shard0" : ".shard") +
          std::to_string(s);
      hits.emplace_back((base + ".hits").c_str());
      misses.emplace_back((base + ".misses").c_str());
    }
  }
};

ShardCounters& shard_counters() {
  static ShardCounters counters("cache", 16);
  return counters;
}

}  // namespace

ResultCache::~ResultCache() {
  try {
    flush_to_store();
  } catch (...) {
  }
}

void ResultCache::attach_store(std::shared_ptr<store::ResultStore> store) {
  store_ = std::move(store);
}

std::size_t ResultCache::flush_to_store() {
  if (store_ == nullptr) return 0;
  std::size_t written = 0;
  for (Shard& shard : shards_) {
    // Snapshot the dirty entries under the lock, write them through
    // outside it (store puts take the store's own lock).
    std::vector<std::pair<std::uint64_t, core::EvaluationResult>> batch;
    {
      const std::unique_lock<std::shared_mutex> lock(shard.mu);
      batch.reserve(shard.dirty.size());
      // HM_LINT allow(unordered-iter): snapshot only — the batch is sorted
      // by key below before anything ordered (the on-disk segment) sees it
      for (const std::uint64_t key : shard.dirty) {
        const auto it = shard.map.find(key);
        if (it != shard.map.end()) batch.emplace_back(key, it->second);
      }
      shard.dirty.clear();
    }
    // Key order, not hash-set order: put() appends to the store's pending
    // segment in call order, so the dirty set's iteration order would leak
    // straight into the segment bytes — equal stores written by different
    // runs (or standard libraries) would no longer be byte-identical,
    // which breaks segment-level dedup/rsync between hosts.
    std::sort(batch.begin(), batch.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [key, result] : batch) {
      store_->put(key, result);
      ++written;
    }
  }
  store_->flush();
  return written;
}

std::optional<core::EvaluationResult> ResultCache::lookup(
    std::uint64_t key) const {
  ShardCounters& counters = shard_counters();
  const std::size_t shard_idx = key & (kShards - 1);
  const Shard& shard = shards_[shard_idx];
  {
    const std::shared_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      counters.hits[shard_idx].add();
      return it->second;
    }
  }
  // Memory miss: fall through to the persistent tier.
  if (store_ != nullptr) {
    if (auto stored = store_->lookup(key)) {
      {
        Shard& mutable_shard = shards_[shard_idx];
        const std::unique_lock<std::shared_mutex> lock(mutable_shard.mu);
        mutable_shard.map.insert_or_assign(key, *stored);
        // Disk-sourced: not dirty, flushing it back would be a no-op.
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      counters.hits[shard_idx].add();
      return stored;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  counters.misses[shard_idx].add();
  return std::nullopt;
}

void ResultCache::insert(std::uint64_t key,
                         const core::EvaluationResult& result) {
  Shard& shard = shard_for(key);
  const std::unique_lock<std::shared_mutex> lock(shard.mu);
  shard.map.insert_or_assign(key, result);
  if (store_ != nullptr) shard.dirty.insert(key);
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace hm::explore
