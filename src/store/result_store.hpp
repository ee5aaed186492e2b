// Content-addressed persistent store of evaluation results.
//
// The sharded in-process explore::ResultCache dies with the process, so
// every CI run and every user re-pays the whole sweep even though the
// stable 64-bit content hashes of (arrangement, params, traffic) already
// make result keys portable across processes. ResultStore is the on-disk
// tier under that cache: a directory of append-only segment files holding
// versioned, endianness-stable binary records of core::EvaluationResult
// keyed by those hashes (store/record.hpp).
//
// On-disk layout (`dir/`):
//   seg-<id>-<pid>.hms   append-only segments, written once, never edited:
//                        header {magic "HMST", u32 format version}, then
//                        records {u64 key, u32 payload_len, u64 fnv1a
//                        checksum, payload}. Lexicographic segment order is
//                        the total order; a later record for the same key
//                        supersedes earlier ones.
//
// The segments are the whole store: open() scans every one of them in that
// order, and a flush appends one new segment holding only the staged
// entries, touching no other file. Any other file in the directory (tmp-
// files, the dedup index older builds wrote) is ignored and left in place.
//
// Crash safety: segments are written to a tmp- file and renamed into
// place, so a crash mid-flush leaves at worst an ignored tmp- file, never
// a half-valid segment. Corrupt or truncated records (bad magic, checksum
// mismatch, undecodable payload, foreign format version) are skipped on
// load and reported by verify() — a damaged store degrades to misses, it
// never serves a misread result.
//
// Concurrency: one ResultStore instance per directory per process
// (open() interns by canonical path, the same idiom as the
// noc::TopologyContext cache), with a shared_mutex over the in-memory
// index — concurrent lookups from sweep workers are shared-lock reads,
// put/flush/merge/compact are exclusive. Cross-process writers are safe
// against each other through the pid-suffixed segment names and atomic
// renames; concurrent cross-process flushes simply interleave as separate
// segments.
//
// Telemetry: lookups and flushes publish the store.{hits,misses,flushes}
// counter family through telemetry::snapshot().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/evaluator.hpp"

namespace hm::store {

/// On-disk store format; bump on any layout change. Segments (and stores)
/// written with a different version are rejected wholesale on load.
inline constexpr std::uint32_t kStoreFormatVersion = 1;

struct StoreStats {
  std::size_t entries = 0;          ///< live keys in the index
  std::size_t segments = 0;         ///< segment files on disk
  std::uint64_t disk_bytes = 0;     ///< total size of the segments
  std::size_t superseded_records = 0;  ///< duplicate records compaction drops
  std::size_t pending = 0;          ///< staged keys not yet in a segment
};

class ResultStore {
 public:
  /// Opens (creating the directory if needed) the store at `dir`. One
  /// instance per canonical directory per process: a second open() of the
  /// same directory returns the same instance, so every engine attached to
  /// one cache dir shares one warm index and one pending set. Throws
  /// std::runtime_error when the directory cannot be created or read.
  [[nodiscard]] static std::shared_ptr<ResultStore> open(
      const std::string& dir);

  /// Resolves the cache directory from a CLI value and the HM_CACHE_DIR
  /// environment variable (CLI wins). Empty when neither is set.
  [[nodiscard]] static std::string resolve_dir(const std::string& cli_dir);

  /// Returns the stored result for `key`, if any. Counts a store.hit or
  /// store.miss.
  [[nodiscard]] std::optional<core::EvaluationResult> lookup(
      std::uint64_t key) const;

  /// Stages `result` under `key` (visible to lookup immediately, durable
  /// after the next flush). Last writer wins; with deterministic
  /// evaluation, racing writers stage identical values.
  void put(std::uint64_t key, const core::EvaluationResult& result);

  /// Writes every staged put into one new segment (write-temp-then-rename),
  /// in first-put order. Returns the number of records written (0 when
  /// nothing was pending — no empty segments). Throws std::runtime_error
  /// on I/O failure; the store is left unchanged in that case.
  std::size_t flush();

  /// Imports every key present in `other` but absent here (content hashes
  /// collide only for identical inputs, so the local value wins on
  /// overlap). Returns the number of imported entries; call flush() to
  /// persist them.
  std::size_t merge_from(const ResultStore& other);

  /// Rewrites all live entries (pending included) into a single fresh
  /// segment and deletes the superseded segment files. Throws
  /// std::runtime_error on I/O failure, leaving the old segments intact.
  void compact();

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::size_t entry_count() const;

  /// Offline integrity check of a store directory: walks every segment
  /// record by record (magic, version, bounds, checksum, payload decode).
  /// Does not require — and does not create — an open store.
  struct VerifyReport {
    std::size_t segments = 0;
    std::size_t records = 0;           ///< well-formed records
    std::size_t corrupt_records = 0;   ///< checksum/decode/bounds failures
    std::size_t foreign_segments = 0;  ///< bad magic or format version
    std::vector<std::string> issues;  ///< human-readable findings
    [[nodiscard]] bool clean() const noexcept {
      return corrupt_records == 0 && foreign_segments == 0;
    }
  };
  [[nodiscard]] static VerifyReport verify(const std::string& dir);

  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

 private:
  explicit ResultStore(std::string dir);

  struct Entry {
    core::EvaluationResult result;
    bool pending = false;  ///< key is in pending_
    bool on_disk = false;  ///< a segment already holds a record for key
  };

  void load_locked();
  void write_segment_locked(const std::vector<std::uint64_t>& keys);

  const std::string dir_;
  mutable std::shared_mutex mu_;
  std::map<std::uint64_t, Entry> index_;       ///< key -> latest value
  std::vector<std::uint64_t> pending_;         ///< unique, first-put order
  std::vector<std::string> segment_names_;     ///< sorted, loaded set
  std::size_t superseded_records_ = 0;         ///< records a later one beats
  std::uint64_t next_segment_id_ = 0;
};

}  // namespace hm::store
