// hm_perfbench: one workload per invocation, result as the last stdout line.
//
//   hm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --expected <file> --work-dir <dir> [--commit <sha>]
//                [--smoke] [--print-expected]
//
// Prints a host/info line, then {"correct", "attempted", "failed",
// "metrics"}. --trace 1 reports the per-layer metrics and writes the spans
// to <work-dir>/trace-<workload>-<seed>{,-setup}.json. --print-expected
// prints the workload's reference digests (the expected.txt lines) instead.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool optimized_build() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string type = PB_BUILD_TYPE;
  return std::string(PB_SANITIZE).empty() &&
         (type == "Release" || type == "RelWithDebInfo" ||
          type == "MinSizeRel");
#endif
}

std::string host_json(const std::string& commit) {
  std::ostringstream os;
  os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(PB_COMPILER)
     << ", \"build_type\": " << json_string(PB_BUILD_TYPE)
     << ", \"sanitize\": " << json_string(PB_SANITIZE)
     << ", \"commit\": " << json_string(commit) << "}";
  return os.str();
}

std::map<std::string, std::string> read_expected(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected digests: " + path);
  std::string key, value;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (ls >> key >> value) out[key] = value;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: hm_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --expected <file> "
               "--work-dir <dir> [--commit <sha>] [--smoke] "
               "[--print-expected]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Env env;
  std::string workload, expected_path, commit = "unknown";
  bool print_expected = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value: " + a);
        return argv[++i];
      };
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        env.seed = std::stoull(value());
      } else if (a == "--seconds") {
        env.seconds = std::stod(value());
      } else if (a == "--trace") {
        env.trace = value() == "1";
      } else if (a == "--expected") {
        expected_path = value();
      } else if (a == "--work-dir") {
        env.work_dir = value();
      } else if (a == "--commit") {
        commit = value();
      } else if (a == "--smoke") {
        env.smoke = true;
      } else if (a == "--print-expected") {
        print_expected = true;
      } else {
        throw std::invalid_argument("unknown argument: " + a);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hm_perfbench: %s\n", e.what());
    return usage();
  }
  if (workload.empty() || env.work_dir.empty() ||
      (expected_path.empty() && !print_expected) || !(env.seconds > 0.0)) {
    return usage();
  }
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "hm_perfbench: refusing to measure a %s%s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release and no HM_SANITIZE\n",
                 PB_BUILD_TYPE, std::string(PB_SANITIZE).empty() ? "" :
                 " sanitizer");
    return 3;
  }

  try {
    if (print_expected) {
      pb::print_expected(workload, env);
      return 0;
    }
    env.expected = read_expected(expected_path);
    pb::Tracer setup_tracer, op_tracer;
    const pb::Report rep =
        pb::run_workload(workload, env, setup_tracer, op_tracer);
    const std::string host = host_json(commit);
    if (env.trace) {
      const std::string stem = env.work_dir + "/trace-" + workload + "-" +
                               std::to_string(env.seed);
      op_tracer.write_json(stem + ".json", host);
      setup_tracer.write_json(stem + "-setup.json", host);
    }

    std::printf("{\"host\": %s, \"workload\": %s, \"seed\": %llu, "
                "\"trace\": %d, \"info\": {",
                host.c_str(), json_string(workload).c_str(),
                static_cast<unsigned long long>(env.seed), env.trace ? 1 : 0);
    bool first = true;
    for (const auto& [k, v] : rep.info) {
      std::printf("%s%s: %s", first ? "" : ", ", json_string(k).c_str(),
                  json_number(v).c_str());
      first = false;
    }
    std::printf("}, \"problems\": [");
    first = true;
    for (const auto& p : rep.problems) {
      std::printf("%s%s", first ? "" : ", ", json_string(p).c_str());
      first = false;
    }
    std::printf("]}\n");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.correct() ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    first = true;
    for (const auto& m : rep.metrics) {
      std::printf("%s%s: {\"value\": %s, \"unit\": %s}", first ? "" : ", ",
                  json_string(m.name).c_str(), json_number(m.value).c_str(),
                  json_string(m.unit).c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hm_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
