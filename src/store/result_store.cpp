#include "store/result_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "store/record.hpp"
#include "telemetry/telemetry.hpp"
#include "util/byte_io.hpp"

namespace hm::store {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentMagic[4] = {'H', 'M', 'S', 'T'};
/// Records larger than this are structurally impossible (the result codec
/// is fixed-size); treat bigger lengths as corruption, not allocations.
constexpr std::uint32_t kMaxPayloadLen = 1 << 20;

std::uint32_t process_tag() {
#ifndef _WIN32
  return static_cast<std::uint32_t>(::getpid());
#else
  return 0;
#endif
}

bool is_segment_name(const std::string& name) {
  return name.size() > 8 && name.rfind("seg-", 0) == 0 &&
         name.compare(name.size() - 4, 4, ".hms") == 0;
}

/// Sorted segment file names in `dir` (lexicographic == creation order,
/// because the name starts with the zero-padded hex segment id).
std::vector<std::string> list_segments(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (is_segment_name(name)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t parse_segment_id(const std::string& name) {
  // seg-<16 hex digits>-<pid>.hms; malformed names simply contribute 0.
  if (name.size() < 4 + 16) return 0;
  return std::strtoull(name.substr(4, 16).c_str(), nullptr, 16);
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::vector<std::uint8_t> data;
  if (!is) return data;
  is.seekg(0, std::ios::end);
  const auto size = is.tellg();
  if (size <= 0) return data;
  data.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!is) data.clear();
  return data;
}

/// Writes `data` to `dir/name` via tmp-file + rename (atomic on POSIX).
void write_file_atomic(const std::string& dir, const std::string& name,
                       const std::vector<std::uint8_t>& data) {
  const fs::path tmp = fs::path(dir) / ("tmp-" + name);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("ResultStore: cannot write " + tmp.string());
    }
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
    os.flush();
    if (!os) {
      throw std::runtime_error("ResultStore: short write to " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, fs::path(dir) / name, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("ResultStore: cannot rename into " + dir + "/" +
                             name);
  }
}

struct ParsedRecord {
  std::uint64_t key = 0;
  core::EvaluationResult result;
};

/// Walks one segment buffer, appending its well-formed records to `out`.
/// Returns false when the header is foreign (bad magic or format version).
/// Structural damage (truncated tail, absurd length) stops the walk; a
/// record whose payload fails its checksum or decode is skipped and counted,
/// later records still load (record framing stays intact when only payload
/// bytes flipped).
bool walk_segment(const std::vector<std::uint8_t>& data,
                  std::vector<ParsedRecord>& out,
                  std::size_t* corrupt_records,
                  std::vector<std::string>* issues,
                  const std::string& name) {
  constexpr std::size_t kHeader = 4 + 4;
  constexpr std::size_t kRecordHeader = 8 + 4 + 8;
  if (data.size() < kHeader ||
      std::memcmp(data.data(), kSegmentMagic, 4) != 0) {
    if (issues) issues->push_back(name + ": bad segment magic");
    return false;
  }
  util::ByteReader hdr(data.data() + 4, 4);
  if (hdr.u32() != kStoreFormatVersion) {
    if (issues) issues->push_back(name + ": foreign format version");
    return false;
  }
  std::size_t off = kHeader;
  while (off < data.size()) {
    if (data.size() - off < kRecordHeader) {
      if (corrupt_records) ++*corrupt_records;
      if (issues) issues->push_back(name + ": truncated record header");
      break;
    }
    util::ByteReader rh(data.data() + off, kRecordHeader);
    const std::uint64_t key = rh.u64();
    const std::uint32_t len = rh.u32();
    const std::uint64_t checksum = rh.u64();
    if (len > kMaxPayloadLen || data.size() - off - kRecordHeader < len) {
      if (corrupt_records) ++*corrupt_records;
      if (issues) issues->push_back(name + ": truncated/oversized payload");
      break;
    }
    const std::uint8_t* payload = data.data() + off + kRecordHeader;
    off += kRecordHeader + len;
    if (util::fnv1a_bytes(payload, len) != checksum) {
      if (corrupt_records) ++*corrupt_records;
      if (issues) issues->push_back(name + ": record checksum mismatch");
      continue;
    }
    const auto decoded = decode_result(payload, len);
    if (!decoded) {
      if (corrupt_records) ++*corrupt_records;
      if (issues) issues->push_back(name + ": undecodable record payload");
      continue;
    }
    out.push_back({key, *decoded});
  }
  return true;
}

}  // namespace

std::shared_ptr<ResultStore> ResultStore::open(const std::string& dir) {
  if (dir.empty()) {
    throw std::runtime_error("ResultStore::open: empty directory path");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("ResultStore: cannot create directory " + dir);
  }
  const std::string canon = fs::weakly_canonical(dir, ec).string();
  const std::string key = ec ? dir : canon;

  // One instance per directory per process (the TopologyContext intern
  // idiom): every engine attached to the same cache dir shares one index,
  // one pending set and one flush stream.
  static std::mutex intern_mu;
  static std::map<std::string, std::weak_ptr<ResultStore>> interned;
  const std::lock_guard<std::mutex> lock(intern_mu);
  if (auto existing = interned[key].lock()) return existing;
  std::shared_ptr<ResultStore> fresh(new ResultStore(dir));
  interned[key] = fresh;
  return fresh;
}

std::string ResultStore::resolve_dir(const std::string& cli_dir) {
  if (!cli_dir.empty()) return cli_dir;
  if (const char* env = std::getenv("HM_CACHE_DIR")) return env;
  return {};
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  load_locked();
}

ResultStore::~ResultStore() {
  // Shutdown flush (the "warm next run" contract). Errors are swallowed:
  // a destructor must not throw, and a failed final flush only costs
  // warmth, never correctness.
  try {
    flush();
  } catch (...) {
  }
}

void ResultStore::load_locked() {
  // Full scan of every segment in order; later records supersede earlier
  // ones for the same key.
  segment_names_ = list_segments(dir_);
  for (const auto& name : segment_names_) {
    next_segment_id_ =
        std::max(next_segment_id_, parse_segment_id(name) + 1);
    const auto data = read_file(fs::path(dir_) / name);
    std::vector<ParsedRecord> records;
    if (!walk_segment(data, records, nullptr, nullptr, name)) continue;
    for (auto& rec : records) {
      auto [it, inserted] = index_.try_emplace(rec.key);
      if (!inserted) ++superseded_records_;
      it->second.result = std::move(rec.result);
      it->second.on_disk = true;
    }
  }
}

std::optional<core::EvaluationResult> ResultStore::lookup(
    std::uint64_t key) const {
  static telemetry::Counter hits("store.hits");
  static telemetry::Counter misses("store.misses");
  const std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses.add();
    return std::nullopt;
  }
  hits.add();
  return it->second.result;
}

void ResultStore::put(std::uint64_t key,
                      const core::EvaluationResult& result) {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& entry = index_[key];
  entry.result = result;
  if (!entry.pending) {
    entry.pending = true;
    pending_.push_back(key);
  }
}

std::size_t ResultStore::flush() {
  static telemetry::Counter flushes("store.flushes");
  const std::unique_lock<std::shared_mutex> lock(mu_);
  if (pending_.empty()) return 0;

  const std::size_t written = pending_.size();
  write_segment_locked(pending_);
  pending_.clear();
  flushes.add();
  return written;
}

void ResultStore::write_segment_locked(
    const std::vector<std::uint64_t>& keys) {
  std::vector<std::uint8_t> data;
  util::ByteWriter w(data);
  w.bytes(kSegmentMagic, 4).u32(kStoreFormatVersion);
  for (const std::uint64_t key : keys) {
    std::vector<std::uint8_t> payload;
    encode_result(index_.at(key).result, payload);
    w.u64(key)
        .u32(static_cast<std::uint32_t>(payload.size()))
        .u64(util::fnv1a_bytes(payload.data(), payload.size()))
        .bytes(payload.data(), payload.size());
  }

  char name[64];
  std::snprintf(name, sizeof(name), "seg-%016llx-%08x.hms",
                static_cast<unsigned long long>(next_segment_id_++),
                process_tag());
  write_file_atomic(dir_, name, data);
  segment_names_.push_back(name);
  std::sort(segment_names_.begin(), segment_names_.end());
  // Flags change only once the segment is in place, so a failed write
  // leaves the store as it was. Rewriting a key an older segment holds
  // supersedes that older record.
  for (const std::uint64_t key : keys) {
    Entry& entry = index_.at(key);
    if (entry.on_disk) ++superseded_records_;
    entry.on_disk = true;
    entry.pending = false;
  }
}

std::size_t ResultStore::merge_from(const ResultStore& other) {
  if (&other == this) return 0;
  // Snapshot the source first so the two locks never nest (a concurrent
  // A.merge_from(B) / B.merge_from(A) pair must not deadlock).
  std::vector<std::pair<std::uint64_t, core::EvaluationResult>> source;
  {
    const std::shared_lock<std::shared_mutex> lock(other.mu_);
    source.reserve(other.index_.size());
    for (const auto& [key, entry] : other.index_) {
      source.emplace_back(key, entry.result);
    }
  }
  std::size_t imported = 0;
  const std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [key, result] : source) {
    auto [it, inserted] = index_.try_emplace(key);
    if (!inserted) continue;  // deterministic keys: local value is the value
    it->second.result = std::move(result);
    it->second.pending = true;
    pending_.push_back(key);
    ++imported;
  }
  return imported;
}

void ResultStore::compact() {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<std::uint64_t> keys;
  keys.reserve(index_.size());
  for (const auto& [key, entry] : index_) keys.push_back(key);

  const std::vector<std::string> old_segments = segment_names_;  // sorted
  if (!keys.empty()) {
    write_segment_locked(keys);  // appends the fresh segment name
  }
  // The fresh segment holds every live record, so the old files are dead
  // weight now; removal failures only leave harmless duplicates behind.
  std::erase_if(segment_names_, [&](const std::string& name) {
    if (!std::binary_search(old_segments.begin(), old_segments.end(), name)) {
      return false;  // the fresh segment
    }
    std::error_code ec;
    fs::remove(fs::path(dir_) / name, ec);
    return !ec;
  });
  pending_.clear();
  superseded_records_ = 0;
}

StoreStats ResultStore::stats() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  StoreStats s;
  s.entries = index_.size();
  s.segments = segment_names_.size();
  s.superseded_records = superseded_records_;
  s.pending = pending_.size();
  for (const auto& name : segment_names_) {
    std::error_code ec;
    const auto size = fs::file_size(fs::path(dir_) / name, ec);
    if (!ec) s.disk_bytes += size;
  }
  return s;
}

std::size_t ResultStore::entry_count() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return index_.size();
}

ResultStore::VerifyReport ResultStore::verify(const std::string& dir) {
  VerifyReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    report.issues.push_back(dir + ": not a directory");
    ++report.foreign_segments;
    return report;
  }
  const auto segments = list_segments(dir);
  report.segments = segments.size();
  for (const auto& name : segments) {
    const auto data = read_file(fs::path(dir) / name);
    std::vector<ParsedRecord> records;
    if (!walk_segment(data, records, &report.corrupt_records,
                      &report.issues, name)) {
      ++report.foreign_segments;
      continue;
    }
    report.records += records.size();
  }
  return report;
}

}  // namespace hm::store
