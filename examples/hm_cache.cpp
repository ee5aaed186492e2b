// hm_cache: maintenance CLI for persistent result stores (src/store/).
//
//   ./hm_cache stats DIR          entry/segment/byte counts
//   ./hm_cache verify DIR         offline integrity walk of every segment;
//                                 exit 1 when any corruption is found
//   ./hm_cache merge DST SRC...   import entries absent in DST from each
//                                 SRC store, then flush DST (created if
//                                 missing)
//   ./hm_cache compact DIR        rewrite live entries into one segment,
//                                 dropping superseded records
//
// Every DIR and SRC must be an existing directory: a store that is only
// read is never created, and a missing one exits 1 before anything opens.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "store/result_store.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (stats DIR | verify DIR | merge DST SRC... | "
               "compact DIR)\n",
               argv0);
  std::exit(1);
}

void print_stats(const hm::store::StoreStats& s, const char* dir) {
  std::printf("%s: %zu entries, %zu segments, %llu bytes on disk, "
              "%zu superseded records, %zu pending\n",
              dir, s.entries, s.segments,
              static_cast<unsigned long long>(s.disk_bytes),
              s.superseded_records, s.pending);
}

/// Exits 1 unless every argv[first..] names an existing directory.
void require_dirs(int argc, char** argv, int first) {
  bool ok = true;
  for (int i = first; i < argc; ++i) {
    std::error_code ec;
    if (!std::filesystem::is_directory(argv[i], ec)) {
      std::fprintf(stderr, "%s: no such store directory\n", argv[i]);
      ok = false;
    }
  }
  if (!ok) std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  const std::string command = argv[1];

  try {
    if (command == "stats" && argc == 3) {
      require_dirs(argc, argv, 2);
      print_stats(hm::store::ResultStore::open(argv[2])->stats(), argv[2]);
      return 0;
    }
    if (command == "verify" && argc == 3) {
      const auto report = hm::store::ResultStore::verify(argv[2]);
      std::printf("%s: %zu segments, %zu records, %zu corrupt, "
                  "%zu foreign segments\n",
                  argv[2], report.segments, report.records,
                  report.corrupt_records, report.foreign_segments);
      for (const auto& issue : report.issues) {
        std::fprintf(stderr, "  issue: %s\n", issue.c_str());
      }
      if (!report.clean()) {
        std::fprintf(stderr, "verify FAILED\n");
        return 1;
      }
      std::printf("verify OK\n");
      return 0;
    }
    if (command == "merge" && argc >= 4) {
      require_dirs(argc, argv, 3);
      const auto dst = hm::store::ResultStore::open(argv[2]);
      std::size_t imported = 0;
      for (int i = 3; i < argc; ++i) {
        const auto src = hm::store::ResultStore::open(argv[i]);
        const std::size_t n = dst->merge_from(*src);
        std::printf("merged %s: %zu new entries\n", argv[i], n);
        imported += n;
      }
      dst->flush();
      std::printf("%s: imported %zu entries total\n", argv[2], imported);
      print_stats(dst->stats(), argv[2]);
      return 0;
    }
    if (command == "compact" && argc == 3) {
      require_dirs(argc, argv, 2);
      const auto store = hm::store::ResultStore::open(argv[2]);
      const auto before = store->stats();
      store->compact();
      const auto after = store->stats();
      std::printf("compacted %s: %zu -> %zu segments, %llu -> %llu bytes\n",
                  argv[2], before.segments, after.segments,
                  static_cast<unsigned long long>(before.disk_bytes),
                  static_cast<unsigned long long>(after.disk_bytes));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  usage(argv[0]);
}
