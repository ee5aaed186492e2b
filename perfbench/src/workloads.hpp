// The four benchmark workloads and the loop that measures them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace pb {

struct Env {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Few ops, one set-up: checks names, units and digests quickly.
  bool smoke = false;
  /// Reference digests ("key hex" lines of expected.txt).
  std::map<std::string, std::string> expected;
  /// Scratch directory inside the checkout (store, socket).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed checks, human-readable
  std::map<std::string, double> info;  ///< sample counts, tail percentile...
  [[nodiscard]] bool correct() const {
    return failed == 0 && problems.empty();
  }
};

/// Untraced: every end-to-end metric. Traced: every per-layer metric.
/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Report run_workload(const std::string& name, const Env& env,
                                  Tracer& setup_tracer, Tracer& op_tracer);

/// Prints the reference digests of `name` as "key hex" lines (the
/// content of expected.txt for that workload).
void print_expected(const std::string& name, const Env& env);

}  // namespace pb
