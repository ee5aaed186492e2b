// Fault storm: drive the fault-injection subsystem (src/faults/) against a
// stock arrangement and report the resilience metrics per plan — degraded
// throughput, recovery time, flits dropped — plus a flit-conservation check
// (injected == ejected + in-network + dropped) after every run.
//
// Three scenario shapes, all deterministic in the seed:
//   default        K independent seeded single-link kills (one plan each)
//   --storm M      one plan of M successive seeded random kills
//   --sweep        exhaustive: one plan per non-bridge link of the graph
//
//   ./fault_storm [grid|brickwall|hexamesh] [N]
//       --singles K        seeded single-link-kill plans (default 3)
//       --storm M          add an M-kill storm plan
//       --sweep            kill every non-bridge link, one plan per link
//       --rate R           offered flit rate per endpoint (default 0.25)
//       --kill-at C        first kill, cycles after arm (default 2000)
//       --spacing C        storm kill spacing (default 400)
//       --repair-after C   single kills: repair C cycles later (default off)
//       --reconvergence C  stale-table window before the re-routed swap
//       --seed S           scenario seed (also seeds the simulator RNG)
//       --csv out.csv      export one row per plan (JSON for a .json path)
//       --telemetry        print the metrics snapshot (fault.* counters)
//       --trace out.json   record a Chrome trace (load in Perfetto)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "core/arrangement.hpp"
#include "explore/export.hpp"
#include "faults/fault_plan.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "noc/simulator.hpp"

namespace {

void usage_and_exit(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [grid|brickwall|hexamesh] [N] [--singles K] [--storm M] "
      "[--sweep] [--rate R] [--kill-at C] [--spacing C] [--repair-after C] "
      "[--reconvergence C] [--seed S] [--csv out.csv] [--telemetry] "
      "[--trace out.json]\n",
      argv0);
  std::exit(1);
}

struct PlanOutcome {
  std::string what;
  hm::faults::ResilienceStats stats;
  std::uint64_t injected = 0;
  std::uint64_t ejected = 0;
  std::uint64_t in_network = 0;
};

/// One exported row per plan, through the sweep exports' row writer.
std::vector<hm::explore::Cell> cells(const PlanOutcome& out) {
  using hm::explore::flag;
  using hm::explore::num;
  using hm::explore::text;
  const hm::faults::ResilienceStats& s = out.stats;
  return {text("plan", out.what),
          num("links_killed", s.links_killed),
          num("repairs", s.repairs),
          num("flits_dropped", s.flits_dropped),
          num("packets_lost", s.packets_lost),
          num("packets_rerouted", s.packets_rerouted),
          num("pre_fault_rate", s.pre_fault_rate),
          num("degraded_rate", s.degraded_rate),
          num("recovery_cycles", s.recovery_cycles),
          flag("recovered", s.recovered)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hm;
  const auto tcli = hm::cli::TelemetryCli::extract(argc, argv);
  tcli.begin();

  std::string family = "hexamesh";
  std::size_t n = 37;
  std::size_t singles = 3;
  bool singles_set = false;
  std::size_t storm = 0;
  bool sweep = false;
  double rate = 0.25;
  noc::Cycle kill_at = 2000;
  noc::Cycle spacing = 400;
  noc::Cycle repair_after = 0;
  noc::Cycle reconvergence = 0;
  unsigned long long seed = 1;
  std::string csv_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--singles") == 0) {
      singles = hm::cli::require_size(need_value("--singles"), "--singles",
                                      0, 64);
      singles_set = true;
    } else if (std::strcmp(argv[i], "--storm") == 0) {
      storm = hm::cli::require_size(need_value("--storm"),
                                    "--storm kill count", 1, 64);
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      rate = hm::cli::require_double(need_value("--rate"), "--rate", 0.001,
                                     1.0);
    } else if (std::strcmp(argv[i], "--kill-at") == 0) {
      kill_at = static_cast<noc::Cycle>(hm::cli::require_size(
          need_value("--kill-at"), "--kill-at", 1, 1000000));
    } else if (std::strcmp(argv[i], "--spacing") == 0) {
      spacing = static_cast<noc::Cycle>(hm::cli::require_size(
          need_value("--spacing"), "--spacing", 1, 1000000));
    } else if (std::strcmp(argv[i], "--repair-after") == 0) {
      repair_after = static_cast<noc::Cycle>(hm::cli::require_size(
          need_value("--repair-after"), "--repair-after", 1, 1000000));
    } else if (std::strcmp(argv[i], "--reconvergence") == 0) {
      reconvergence = static_cast<noc::Cycle>(hm::cli::require_size(
          need_value("--reconvergence"), "--reconvergence", 0, 100000));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = hm::cli::require_u64(need_value("--seed"), "--seed");
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv_path = need_value("--csv");
    } else if (positional == 0) {
      family = argv[i];
      ++positional;
    } else if (positional == 1) {
      n = hm::cli::require_size(argv[i], "N", 2, hm::cli::kMaxChiplets);
      ++positional;
    } else {
      usage_and_exit(argv[0]);
    }
  }
  // A storm or sweep request replaces the default single-kill plans unless
  // the user asked for both explicitly.
  if ((storm > 0 || sweep) && !singles_set) singles = 0;
  if (singles == 0 && storm == 0 && !sweep) {
    std::fprintf(stderr, "nothing to do: --singles 0 with no --storm/--sweep\n");
    return 1;
  }

  core::ArrangementType type;
  if (family == "grid") {
    type = core::ArrangementType::kGrid;
  } else if (family == "brickwall") {
    type = core::ArrangementType::kBrickwall;
  } else if (family == "hexamesh") {
    type = core::ArrangementType::kHexaMesh;
  } else {
    usage_and_exit(argv[0]);
    return 1;  // unreachable
  }

  try {
    const core::Arrangement arr = core::make_arrangement(type, n);
    const graph::Graph& g = arr.graph();

    faults::FaultScenarioSpec spec;
    spec.single_link_kills = static_cast<int>(singles);
    spec.storm_kills = static_cast<int>(storm);
    spec.seed = seed;
    spec.kill_at = kill_at;
    spec.storm_spacing = spacing;
    spec.repair_after = repair_after;
    spec.reconvergence_delay = reconvergence;
    spec.offered_rate = rate;
    if (sweep) {
      // One plan per non-bridge link, in the graph's deterministic edge
      // order — an exhaustive single-fault vulnerability map.
      const auto bridges = graph::bridges(g);
      for (const auto& e : g.edges()) {
        if (std::find(bridges.begin(), bridges.end(), e) != bridges.end()) {
          continue;
        }
        faults::FaultPlan plan;
        plan.events.push_back(
            {kill_at, faults::FaultKind::kLinkKill, e.first, e.second});
        if (repair_after > 0) {
          plan.events.push_back({kill_at + repair_after,
                                 faults::FaultKind::kLinkRepair, e.first,
                                 e.second});
        }
        plan.reconvergence_delay = reconvergence;
        spec.explicit_plans.push_back(std::move(plan));
      }
    }
    spec.validate();
    const auto plans = spec.plans_for(g);

    std::printf("%s, %zu chiplets: %zu fault plan%s (%s)\n",
                arr.name().c_str(), n, plans.size(),
                plans.size() == 1 ? "" : "s", spec.describe().c_str());
    std::printf("%-42s | %9s | %9s | %8s | %7s | %5s\n", "plan",
                "pre f/c/e", "degraded", "recovery", "dropped", "lost");
    for (int i = 0; i < 96; ++i) std::putchar('-');
    std::putchar('\n');

    std::vector<PlanOutcome> outcomes;
    double worst_rate = -1.0;
    noc::Cycle slowest_recovery = 0;
    bool all_recovered = true;
    std::uint64_t total_dropped = 0;
    for (const auto& plan : plans) {
      noc::SimConfig cfg;
      cfg.seed = seed;
      noc::Simulator sim(g, cfg);

      PlanOutcome out;
      out.what = plan.empty() ? "(empty)" : plan.describe();
      out.stats = sim.run_resilience(rate, plan, spec.warmup, spec.measure);
      out.injected = sim.network().total_flits_injected();
      out.ejected = sim.network().total_flits_ejected();
      out.in_network = sim.network().flits_in_network();

      std::string why;
      if (!sim.network().invariants_ok(&why)) {
        std::fprintf(stderr, "invariant violation: %s\n", why.c_str());
        return 1;
      }
      if (out.injected !=
          out.ejected + out.in_network + out.stats.flits_dropped) {
        std::fprintf(stderr,
                     "flit leak: injected %llu != ejected %llu + "
                     "in-network %llu + dropped %llu\n",
                     static_cast<unsigned long long>(out.injected),
                     static_cast<unsigned long long>(out.ejected),
                     static_cast<unsigned long long>(out.in_network),
                     static_cast<unsigned long long>(out.stats.flits_dropped));
        return 1;
      }

      const auto& s = out.stats;
      char recovery[32];
      if (s.recovered) {
        std::snprintf(recovery, sizeof(recovery), "%lld cyc",
                      static_cast<long long>(s.recovery_cycles));
      } else {
        std::snprintf(recovery, sizeof(recovery), "%s",
                      s.first_kill_cycle < 0 ? "n/a" : "none");
      }
      std::printf("%-42.42s | %9.4f | %9.4f | %8s | %7llu | %5llu\n",
                  out.what.c_str(), s.pre_fault_rate, s.degraded_rate,
                  recovery,
                  static_cast<unsigned long long>(s.flits_dropped),
                  static_cast<unsigned long long>(s.packets_lost));

      if (worst_rate < 0.0 || s.degraded_rate < worst_rate) {
        worst_rate = s.degraded_rate;
      }
      if (s.recovered) {
        slowest_recovery = std::max(slowest_recovery, s.recovery_cycles);
      } else if (s.first_kill_cycle >= 0) {
        all_recovered = false;
      }
      total_dropped += s.flits_dropped;
      outcomes.push_back(std::move(out));
    }

    std::printf(
        "\nworst degraded rate %.4f flits/cycle/endpoint, recovery %s, "
        "%llu flits dropped total; conservation OK on every run\n",
        worst_rate < 0.0 ? 0.0 : worst_rate,
        all_recovered
            ? (std::to_string(static_cast<long long>(slowest_recovery)) +
               " cyc (slowest)")
                  .c_str()
            : "incomplete",
        static_cast<unsigned long long>(total_dropped));

    if (!csv_path.empty()) {
      std::ofstream os(csv_path);
      if (!os) throw std::runtime_error("cannot open " + csv_path);
      explore::write_rows(os, outcomes, explore::is_json_path(csv_path),
                          cells);
      std::printf("per-plan results exported: %s\n", csv_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  tcli.finish();
  return 0;
}
