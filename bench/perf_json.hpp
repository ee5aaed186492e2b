// BENCH_perf.json support: a flat JSON object mapping metric names to
// numbers, written at the repo root so the perf trajectory of the hot paths
// (ns/cycle, table-build time, sweep wall-clock per thread count) is
// tracked across PRs. Benches merge their keys into the existing file
// rather than clobbering each other's sections, so running any subset of
// the perf drivers keeps the rest of the file intact.
//
// Path resolution: $HM_PERF_JSON when set, else <repo root>/BENCH_perf.json
// (the root is baked in as HM_REPO_ROOT by CMake), else ./BENCH_perf.json.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace hm::bench {

/// The perf drivers' argument check: `--smoke` (shorter runs) is accepted
/// when `smoke` is non-null, and nothing else. Any other argument, `--help`
/// included, prints usage and exits 1 before the driver measures anything
/// or rewrites the perf JSON.
inline void parse_perf_args(int argc, char** argv, bool* smoke) {
  for (int i = 1; i < argc; ++i) {
    if (smoke != nullptr && std::strcmp(argv[i], "--smoke") == 0) {
      *smoke = true;
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s%s\n", argv[0],
                 argv[i], argv[0], smoke != nullptr ? " [--smoke]" : "");
    std::exit(1);
  }
}

inline std::string perf_json_path() {
  if (const char* env = std::getenv("HM_PERF_JSON")) return env;
#ifdef HM_REPO_ROOT
  return std::string(HM_REPO_ROOT) + "/BENCH_perf.json";
#else
  return "BENCH_perf.json";
#endif
}

/// Parses the flat {"key": number, ...} object this module writes. Ignores
/// anything it does not understand (forward compatible with hand edits).
inline std::map<std::string, double> load_perf_json(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream is(path);
  if (!is) return out;
  std::string line;
  while (std::getline(is, line)) {
    const auto key_begin = line.find('"');
    if (key_begin == std::string::npos) continue;
    const auto key_end = line.find('"', key_begin + 1);
    if (key_end == std::string::npos) continue;
    const auto colon = line.find(':', key_end);
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(key_begin + 1, key_end - key_begin - 1);
    const char* p = line.c_str() + colon + 1;
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end != p) out[key] = v;
  }
  return out;
}

inline void store_perf_json(const std::string& path,
                            const std::map<std::string, double>& m) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perf_json: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n";
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << "  \"" << k << "\": " << buf
       << (++i < m.size() ? ",\n" : "\n");
  }
  os << "}\n";
}

/// Merges `updates` into the perf JSON at the default path and reports
/// where it landed.
inline void update_perf_json(const std::map<std::string, double>& updates) {
  const std::string path = perf_json_path();
  auto m = load_perf_json(path);
  for (const auto& [k, v] : updates) m[k] = v;
  store_perf_json(path, m);
  std::printf("\nperf metrics updated: %s (%zu keys)\n", path.c_str(),
              updates.size());
}

}  // namespace hm::bench
