// Persistent result store (src/store/): codec bit-exactness, crash/corruption
// resilience, segment-scan open, append-only flushes, merge/compact,
// concurrency, and the ResultCache read-through/flush/clear integration.
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "explore/result_cache.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "util/byte_io.hpp"

namespace fs = std::filesystem;
using hm::core::EvaluationResult;
using hm::store::ResultStore;

namespace {

/// Fresh per-test store directory under the system temp dir.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("hm_store_test_" + name + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A result with every field set to a distinctive value — including the
/// adversarial doubles (a NaN with payload bits and a negative zero) the
/// codec must round trip bit-exactly.
EvaluationResult make_result(std::uint64_t salt = 0) {
  EvaluationResult r;
  r.chiplet_count = 37 + salt;
  r.regularity = hm::core::RegularityClass::kSemiRegular;
  r.diameter = 6;
  r.avg_hop_distance = 2.718281828459045;
  r.bisection_links = 12 + salt;
  r.link_count = 90;
  r.chiplet_area_mm2 = 21.62;
  r.link_area_mm2 = std::bit_cast<double>(0x7ff8000000abcdefULL);  // NaN+payload
  r.per_link_bandwidth_bps = -0.0;
  r.full_global_bandwidth_bps = 1.234e14;
  r.zero_load_latency_cycles = 72.325;
  r.saturation_fraction = 0.4375;
  r.saturation_throughput_bps = 5.9618e13 + static_cast<double>(salt);
  r.latency_run_drained = true;
  r.fault_plans_run = 3;
  r.fault_degraded_throughput = 0.25;
  r.fault_robust_throughput_bps = 3.3e13;
  r.fault_recovery_cycles = -1;
  r.fault_packets_lost = 0xdeadbeefcafeULL;
  return r;
}

/// Bitwise double equality: NaN == NaN when the payload matches, and
/// -0.0 != +0.0 — exactly the contract the codec promises.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hex << std::bit_cast<std::uint64_t>(a)
         << " != " << std::bit_cast<std::uint64_t>(b);
}

void expect_results_bit_equal(const EvaluationResult& a,
                              const EvaluationResult& b) {
  EXPECT_EQ(a.chiplet_count, b.chiplet_count);
  EXPECT_EQ(a.regularity, b.regularity);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_TRUE(bits_equal(a.avg_hop_distance, b.avg_hop_distance));
  EXPECT_EQ(a.bisection_links, b.bisection_links);
  EXPECT_EQ(a.link_count, b.link_count);
  EXPECT_TRUE(bits_equal(a.chiplet_area_mm2, b.chiplet_area_mm2));
  EXPECT_TRUE(bits_equal(a.link_area_mm2, b.link_area_mm2));
  EXPECT_TRUE(bits_equal(a.per_link_bandwidth_bps, b.per_link_bandwidth_bps));
  EXPECT_TRUE(
      bits_equal(a.full_global_bandwidth_bps, b.full_global_bandwidth_bps));
  EXPECT_TRUE(
      bits_equal(a.zero_load_latency_cycles, b.zero_load_latency_cycles));
  EXPECT_TRUE(bits_equal(a.saturation_fraction, b.saturation_fraction));
  EXPECT_TRUE(
      bits_equal(a.saturation_throughput_bps, b.saturation_throughput_bps));
  EXPECT_EQ(a.latency_run_drained, b.latency_run_drained);
  EXPECT_EQ(a.fault_plans_run, b.fault_plans_run);
  EXPECT_TRUE(
      bits_equal(a.fault_degraded_throughput, b.fault_degraded_throughput));
  EXPECT_TRUE(bits_equal(a.fault_robust_throughput_bps,
                         b.fault_robust_throughput_bps));
  EXPECT_EQ(a.fault_recovery_cycles, b.fault_recovery_cycles);
  EXPECT_EQ(a.fault_packets_lost, b.fault_packets_lost);
}

fs::path only_segment(const fs::path& dir) {
  fs::path seg;
  for (const auto& e : fs::directory_iterator(dir)) {
    const auto name = e.path().filename().string();
    if (name.rfind("seg-", 0) == 0) {
      EXPECT_TRUE(seg.empty()) << "more than one segment";
      seg = e.path();
    }
  }
  EXPECT_FALSE(seg.empty()) << "no segment in " << dir;
  return seg;
}

std::vector<std::uint8_t> slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is), {});
}

void spit(const fs::path& p, const std::vector<std::uint8_t>& data) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(data.size()));
}

/// Every file in `dir`, by name, with its bytes.
std::map<std::string, std::vector<std::uint8_t>> dir_contents(
    const fs::path& dir) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    out[e.path().filename().string()] = slurp(e.path());
  }
  return out;
}

/// Key of the record at `index` in a segment of fixed-size result records.
std::uint64_t record_key(const std::vector<std::uint8_t>& segment,
                         std::size_t index) {
  const std::size_t off =
      8 + index * (20 + hm::store::kEncodedResultSize);  // header, records
  hm::util::ByteReader rd(segment.data() + off, 8);
  return rd.u64();
}

}  // namespace

// ------------------------------------------------------------------- codec

TEST(StoreCodec, RoundTripAllFieldsBitExact) {
  const EvaluationResult original = make_result();
  std::vector<std::uint8_t> bytes;
  hm::store::encode_result(original, bytes);
  ASSERT_EQ(bytes.size(), hm::store::kEncodedResultSize);

  const auto decoded = hm::store::decode_result(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  expect_results_bit_equal(original, *decoded);
}

TEST(StoreCodec, RejectsWrongSize) {
  std::vector<std::uint8_t> bytes;
  hm::store::encode_result(make_result(), bytes);
  EXPECT_FALSE(hm::store::decode_result(bytes.data(), bytes.size() - 1));
  bytes.push_back(0);
  EXPECT_FALSE(hm::store::decode_result(bytes.data(), bytes.size()));
}

TEST(StoreCodec, RejectsVersionBump) {
  std::vector<std::uint8_t> bytes;
  hm::store::encode_result(make_result(), bytes);
  bytes[0] = hm::store::kResultCodecVersion + 1;
  EXPECT_FALSE(hm::store::decode_result(bytes.data(), bytes.size()));
}

TEST(StoreCodec, RejectsCorruptEnumAndBool) {
  std::vector<std::uint8_t> bytes;
  hm::store::encode_result(make_result(), bytes);
  // Byte 9 is the regularity enum (1 version + 8 chiplet_count).
  auto bumped = bytes;
  bumped[9] = 0x7f;
  EXPECT_FALSE(hm::store::decode_result(bumped.data(), bumped.size()));
  // The latency_run_drained bool sits after version + chiplet_count + enum
  // + 11 eight-byte fields (diameter .. saturation_throughput_bps).
  const std::size_t bool_off = 1 + 8 + 1 + 11 * 8;
  ASSERT_EQ(bytes[bool_off], 1u);  // encoded as true
  bumped = bytes;
  bumped[bool_off] = 2;  // neither 0 nor 1: corruption, not "true"
  EXPECT_FALSE(hm::store::decode_result(bumped.data(), bumped.size()));
}

// ------------------------------------------------------------------- store

TEST(ResultStoreTest, PersistsAcrossReopen) {
  const auto dir = fresh_dir("reopen");
  const EvaluationResult r1 = make_result(1);
  {
    const auto store = ResultStore::open(dir.string());
    store->put(0x1111, r1);
    store->put(0x2222, make_result(2));
    EXPECT_EQ(store->flush(), 2u);
  }  // instance released: the intern map holds only a weak_ptr

  const auto reopened = ResultStore::open(dir.string());
  EXPECT_EQ(reopened->entry_count(), 2u);
  const auto hit = reopened->lookup(0x1111);
  ASSERT_TRUE(hit.has_value());
  expect_results_bit_equal(r1, *hit);
  EXPECT_FALSE(reopened->lookup(0x3333).has_value());
}

TEST(ResultStoreTest, OpenInternsPerDirectory) {
  const auto dir = fresh_dir("intern");
  const auto a = ResultStore::open(dir.string());
  const auto b = ResultStore::open(dir.string());
  EXPECT_EQ(a.get(), b.get());
  a->put(7, make_result());
  EXPECT_TRUE(b->lookup(7).has_value());  // same instance, same index
}

TEST(ResultStoreTest, FlushIsVisibleAndDurableOnlyOnce) {
  const auto dir = fresh_dir("flushonce");
  const auto store = ResultStore::open(dir.string());
  store->put(1, make_result(1));
  EXPECT_TRUE(store->lookup(1).has_value());  // visible before flush
  EXPECT_EQ(store->flush(), 1u);
  EXPECT_EQ(store->flush(), 0u);  // nothing pending: no empty segments
  EXPECT_EQ(store->stats().segments, 1u);
}

TEST(ResultStoreTest, IgnoresTmpFilesFromCrashedFlush) {
  const auto dir = fresh_dir("tmpfile");
  {
    const auto store = ResultStore::open(dir.string());
    store->put(1, make_result(1));
    store->flush();
  }
  // A crash mid-flush leaves a tmp- file; it must not be read or counted.
  spit(dir / "tmp-seg-ffffffffffffffff-0.hms", {0xde, 0xad, 0xbe, 0xef});
  const auto store = ResultStore::open(dir.string());
  EXPECT_EQ(store->entry_count(), 1u);
  const auto report = ResultStore::verify(dir.string());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.segments, 1u);
}

TEST(ResultStoreTest, TruncatedSegmentKeepsValidPrefix) {
  const auto dir = fresh_dir("truncated");
  {
    const auto store = ResultStore::open(dir.string());
    store->put(1, make_result(1));
    store->put(2, make_result(2));
    store->put(3, make_result(3));
    store->flush();
  }
  const auto seg = only_segment(dir);
  auto data = slurp(seg);
  spit(seg, std::vector<std::uint8_t>(data.begin(),
                                      data.end() - 30));  // mid-record cut

  const auto store = ResultStore::open(dir.string());
  EXPECT_EQ(store->entry_count(), 2u);  // valid prefix survives
  const auto report = ResultStore::verify(dir.string());
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.records, 2u);
  EXPECT_GE(report.corrupt_records, 1u);
}

TEST(ResultStoreTest, ChecksumMismatchSkipsOnlyThatRecord) {
  const auto dir = fresh_dir("checksum");
  {
    const auto store = ResultStore::open(dir.string());
    store->put(1, make_result(1));
    store->put(2, make_result(2));
    store->flush();
  }
  const auto seg = only_segment(dir);
  auto data = slurp(seg);
  // Flip one byte inside the FIRST record's payload (header is 8 bytes,
  // record header 20): framing stays intact, record 2 must still load.
  data[8 + 20 + 5] ^= 0xff;
  spit(seg, data);

  const auto store = ResultStore::open(dir.string());
  EXPECT_EQ(store->entry_count(), 1u);
  EXPECT_FALSE(store->lookup(1).has_value());
  EXPECT_TRUE(store->lookup(2).has_value());
  const auto report = ResultStore::verify(dir.string());
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.corrupt_records, 1u);
}

TEST(ResultStoreTest, ForeignFormatVersionRejectsSegmentWholesale) {
  const auto dir = fresh_dir("version");
  {
    const auto store = ResultStore::open(dir.string());
    store->put(1, make_result(1));
    store->flush();
  }
  const auto seg = only_segment(dir);
  auto data = slurp(seg);
  data[4] = static_cast<std::uint8_t>(hm::store::kStoreFormatVersion + 1);
  spit(seg, data);

  const auto store = ResultStore::open(dir.string());
  EXPECT_EQ(store->entry_count(), 0u);
  const auto report = ResultStore::verify(dir.string());
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.foreign_segments, 1u);
}

TEST(ResultStoreTest, ReopenAfterSupersedeServesLatestValue) {
  const auto dir = fresh_dir("supersede");
  {
    const auto store = ResultStore::open(dir.string());
    for (std::uint64_t k = 0; k < 10; ++k) store->put(k, make_result(k));
    store->flush();
    store->put(3, make_result(99));  // supersede key 3 in a second segment
    store->flush();
    EXPECT_EQ(store->stats().superseded_records, 1u);
  }
  const auto reopened = ResultStore::open(dir.string());
  EXPECT_EQ(reopened->entry_count(), 10u);
  const auto latest = reopened->lookup(3);
  ASSERT_TRUE(latest.has_value());
  expect_results_bit_equal(make_result(99), *latest);
  EXPECT_EQ(reopened->stats().superseded_records, 1u);
}

TEST(ResultStoreTest, SegmentFromAnotherStoreLoadsOnOpen) {
  const auto dir = fresh_dir("foreign_writer");
  {
    const auto store = ResultStore::open(dir.string());
    store->put(1, make_result(1));
    store->flush();
  }
  // Add a segment written through a second directory, copied in under a
  // fresh id+pid name so it sorts after the existing segment (both fresh
  // stores start their segment ids at zero).
  const auto dir2 = fresh_dir("foreign_writer_src");
  {
    const auto other = ResultStore::open(dir2.string());
    other->put(2, make_result(2));
    other->flush();
  }
  fs::copy_file(only_segment(dir2),
                dir / "seg-00000000000000ff-deadbeef.hms");

  const auto store = ResultStore::open(dir.string());
  EXPECT_EQ(store->entry_count(), 2u);
  EXPECT_TRUE(ResultStore::verify(dir.string()).clean());
}

// Older builds kept a dedup index file beside the segments. A store that
// still has one (here: garbage bytes) opens from its segments alone,
// verifies clean, and flushes without touching the file.
TEST(ResultStoreTest, IgnoresLegacyIndexFile) {
  const auto dir = fresh_dir("legacy_index");
  {
    const auto store = ResultStore::open(dir.string());
    for (std::uint64_t k = 0; k < 4; ++k) store->put(k, make_result(k));
    store->flush();
  }
  spit(dir / "index.hmi", {'H', 'M', 'I', 'X', 0xde, 0xad, 0xbe, 0xef});

  const auto store = ResultStore::open(dir.string());
  EXPECT_EQ(store->entry_count(), 4u);
  EXPECT_TRUE(ResultStore::verify(dir.string()).clean());

  // A flush adds exactly one segment and leaves every other file as it was.
  const auto before = dir_contents(dir);
  store->put(2, make_result(22));
  store->put(9, make_result(9));
  EXPECT_EQ(store->flush(), 2u);
  auto after = dir_contents(dir);
  ASSERT_EQ(after.size(), before.size() + 1);
  for (const auto& [name, bytes] : before) {
    ASSERT_TRUE(after.count(name)) << name;
    EXPECT_EQ(after[name], bytes) << name;
  }
  EXPECT_EQ(store->stats().superseded_records, 1u);  // key 2 written again
}

// put() stages a key once however often it is re-put: the flush writes one
// record per key, holding the latest value, in first-put order.
TEST(ResultStoreTest, RepeatedPutsFlushOneRecordInFirstPutOrder) {
  const auto dir = fresh_dir("reput");
  const auto store = ResultStore::open(dir.string());
  store->put(5, make_result(1));
  store->put(3, make_result(3));
  store->put(5, make_result(55));
  EXPECT_EQ(store->stats().pending, 2u);
  EXPECT_EQ(store->flush(), 2u);
  EXPECT_EQ(store->stats().superseded_records, 0u);

  const auto segment = slurp(only_segment(dir));
  ASSERT_EQ(segment.size(), 8 + 2 * (20 + hm::store::kEncodedResultSize));
  EXPECT_EQ(record_key(segment, 0), 5u);
  EXPECT_EQ(record_key(segment, 1), 3u);
  const auto latest = store->lookup(5);
  ASSERT_TRUE(latest.has_value());
  expect_results_bit_equal(make_result(55), *latest);
}

// A flush that cannot write its segment changes nothing: the entries stay
// pending and the superseded count stays put until a flush succeeds.
TEST(ResultStoreTest, FailedFlushLeavesStoreUnchanged) {
  const auto dir = fresh_dir("failedflush");
  const auto store = ResultStore::open(dir.string());
  store->put(1, make_result(1));
  EXPECT_EQ(store->flush(), 1u);  // segment id 0
  store->put(1, make_result(11));
  store->put(2, make_result(2));

  // A directory where the next segment's tmp- file must go fails the write.
  char blocker[64];
  std::snprintf(blocker, sizeof(blocker), "tmp-seg-%016x-%08x.hms", 1u,
                static_cast<unsigned>(::getpid()));
  fs::create_directory(dir / blocker);
  EXPECT_THROW(store->flush(), std::runtime_error);
  EXPECT_EQ(store->stats().pending, 2u);
  EXPECT_EQ(store->stats().segments, 1u);
  EXPECT_EQ(store->stats().superseded_records, 0u);

  fs::remove(dir / blocker);
  EXPECT_EQ(store->flush(), 2u);
  EXPECT_EQ(store->stats().pending, 0u);
  EXPECT_EQ(store->stats().segments, 2u);
  EXPECT_EQ(store->stats().superseded_records, 1u);
}

TEST(ResultStoreTest, MergeImportsOnlyMissingKeys) {
  const auto dir_a = fresh_dir("merge_a");
  const auto dir_b = fresh_dir("merge_b");
  const auto a = ResultStore::open(dir_a.string());
  const auto b = ResultStore::open(dir_b.string());
  a->put(1, make_result(1));
  a->put(2, make_result(2));
  b->put(2, make_result(22));  // overlapping key: local value wins
  b->put(3, make_result(3));
  a->flush();
  b->flush();

  EXPECT_EQ(a->merge_from(*b), 1u);  // only key 3 is new
  a->flush();
  EXPECT_EQ(a->entry_count(), 3u);
  const auto kept = a->lookup(2);
  ASSERT_TRUE(kept.has_value());
  expect_results_bit_equal(make_result(2), *kept);  // not b's value
  EXPECT_EQ(a->merge_from(*a), 0u);  // self-merge is a no-op
}

TEST(ResultStoreTest, CompactCollapsesSegmentsAndDuplicates) {
  const auto dir = fresh_dir("compact");
  const auto store = ResultStore::open(dir.string());
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      store->put(k, make_result(k + static_cast<std::uint64_t>(round)));
    }
    store->flush();
  }
  EXPECT_EQ(store->stats().segments, 3u);
  EXPECT_EQ(store->stats().superseded_records, 8u);

  store->compact();
  EXPECT_EQ(store->stats().segments, 1u);
  EXPECT_EQ(store->stats().superseded_records, 0u);
  EXPECT_EQ(store->entry_count(), 4u);
  const auto latest = store->lookup(0);
  ASSERT_TRUE(latest.has_value());
  expect_results_bit_equal(make_result(2), *latest);  // last round's value
  EXPECT_TRUE(ResultStore::verify(dir.string()).clean());
}

TEST(ResultStoreTest, VerifyRejectsMissingDirectory) {
  const auto report = ResultStore::verify("/nonexistent/hm_store_xyz");
  EXPECT_FALSE(report.clean());
}

TEST(ResultStoreTest, ConcurrentReadersAndWriter) {
  const auto dir = fresh_dir("concurrent");
  const auto store = ResultStore::open(dir.string());
  constexpr std::uint64_t kKeys = 64;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      store->put(k, make_result(k));
      if (k % 16 == 15) store->flush();
    }
    store->flush();
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> seen{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          if (store->lookup(k)) seen.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(store->entry_count(), kKeys);
  EXPECT_TRUE(ResultStore::verify(dir.string()).clean());
}

// -------------------------------------------------- ResultCache integration

TEST(CacheStoreIntegration, ReadThroughOnMemoryMiss) {
  const auto dir = fresh_dir("readthrough");
  const EvaluationResult r = make_result(5);
  {
    const auto store = ResultStore::open(dir.string());
    store->put(42, r);
    store->flush();
  }
  hm::explore::ResultCache cache;
  cache.attach_store(ResultStore::open(dir.string()));
  const auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());  // served from disk
  expect_results_bit_equal(r, *hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // shard repopulated
  // Disk-sourced entries are not dirty: nothing to flush back.
  EXPECT_EQ(cache.flush_to_store(), 0u);
}

TEST(CacheStoreIntegration, FlushWritesDirtyEntriesThrough) {
  const auto dir = fresh_dir("dirtyflush");
  hm::explore::ResultCache cache;
  cache.attach_store(ResultStore::open(dir.string()));
  cache.insert(1, make_result(1));
  cache.insert(2, make_result(2));
  EXPECT_EQ(cache.flush_to_store(), 2u);
  EXPECT_EQ(cache.flush_to_store(), 0u);  // dirty set drained

  const auto store = ResultStore::open(dir.string());
  EXPECT_EQ(store->entry_count(), 2u);
  EXPECT_EQ(store->stats().pending, 0u);  // flushed to a segment
}

// Regression: flush_to_store() used to write the dirty batch in the
// unordered_set's iteration order, so two caches holding identical entries
// could emit byte-different segments depending on insertion history (or
// standard library) — breaking segment-level dedup between hosts. The
// flush now sorts by key, so segment bytes depend only on contents.
TEST(CacheStoreIntegration, FlushSegmentBytesIndependentOfInsertOrder) {
  constexpr std::uint64_t kCount = 64;
  const auto dir_fwd = fresh_dir("flushorder_fwd");
  const auto dir_rev = fresh_dir("flushorder_rev");

  {
    hm::explore::ResultCache cache;
    cache.attach_store(ResultStore::open(dir_fwd.string()));
    for (std::uint64_t k = 1; k <= kCount; ++k) {
      cache.insert(k, make_result(k));
    }
    EXPECT_EQ(cache.flush_to_store(), kCount);
  }
  {
    hm::explore::ResultCache cache;
    cache.attach_store(ResultStore::open(dir_rev.string()));
    for (std::uint64_t k = kCount; k >= 1; --k) {
      cache.insert(k, make_result(k));
    }
    EXPECT_EQ(cache.flush_to_store(), kCount);
  }

  const fs::path seg_fwd = only_segment(dir_fwd);
  const fs::path seg_rev = only_segment(dir_rev);
  EXPECT_EQ(seg_fwd.filename(), seg_rev.filename());
  EXPECT_EQ(slurp(seg_fwd), slurp(seg_rev));
}

TEST(CacheStoreIntegration, GetOrComputeUsesStoreBeforeComputing) {
  const auto dir = fresh_dir("getorcompute");
  {
    const auto store = ResultStore::open(dir.string());
    store->put(7, make_result(7));
    store->flush();
  }
  hm::explore::ResultCache cache;
  cache.attach_store(ResultStore::open(dir.string()));
  bool was_hit = false;
  int computed = 0;
  const auto result = cache.get_or_compute(
      7,
      [&] {
        ++computed;
        return make_result(0);
      },
      &was_hit);
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(computed, 0);
  expect_results_bit_equal(make_result(7), result);
}

TEST(CacheStoreIntegration, DestructorFlushesToStore) {
  const auto dir = fresh_dir("dtorflush");
  {
    hm::explore::ResultCache cache;
    cache.attach_store(ResultStore::open(dir.string()));
    cache.insert(21, make_result(21));
  }  // ~ResultCache flushes; the store instance dies after and flushes too
  const auto store = ResultStore::open(dir.string());
  EXPECT_TRUE(store->lookup(21).has_value());
}
