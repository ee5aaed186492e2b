// Golden-output regression for the topology-sharing refactor: the sweep
// engine's CSV and JSON exports must stay byte-identical to the captures
// taken from the pre-refactor engine (tests/golden/, generated at 1 thread
// from the seed revision) at every thread count. This pins three contracts
// at once: the refactored hot path (flat tables, ring buffers, shared
// contexts) reproduces the original simulation bit for bit, thread count
// never changes results, and the export formatting stays stable.
// The search and tempering traces are pinned the same way (GoldenTrace
// below): five runs covering hill climbing, annealing (including the
// min_temperature floor), and tempering with and without replica exchange.
// GoldenRouter pins the saturated router itself at N=37: throughput runs
// per family x routing mode x offered rate plus one fault storm, each
// reduced to its rates and the network's deterministic hot-path counters
// (router_n37.txt); router_wide.txt adds the SA stall counters of the
// minimal-adaptive runs and full lines for routers whose VC and port
// bitmasks span more than one 64-bit word (72 VCs, 71 ports).
// GoldenAnalytic pins the analytic half (diameter, average hop distance,
// bisection) and the partitioner's exact bisections for N up to 640.
// GoldenLedger pins the Fig. 7 headline numbers at paper-scale N: a sweep
// shaped like bench_fig7's (paper-default parameters, one fixed simulator
// seed) with short windows, so a change that moves the reproduction's
// latency or throughput ratios shows up as a diff of named numbers.
// GoldenExport pins the export bytes the sweep goldens never reach (escaped
// labels and errors, fault columns, empty inputs) on hand-built records, so
// it runs no simulation.
// GoldenFaults pins every kind of link fault the sweep, search and
// fault_storm can request (single kills, a repair, a storm, a same-cycle
// batch), evaluate()'s fault fields, and the store key of an explicit plan.
// Regenerating: when a PR deliberately changes simulation results (e.g. a
// new RNG stream layout), run the suite once with HM_REGEN_GOLDEN=1 — the
// t1 instantiation rewrites tests/golden/ from a 1-thread run and every
// instantiation skips — then re-run normally to confirm byte-identity at
// all thread counts before committing the new captures.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/export.hpp"
#include "explore/hash.hpp"
#include "explore/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "graph/graph.hpp"
#include "noc/simulator.hpp"
#include "partition/partitioner.hpp"
#include "search/search.hpp"
#include "search/tempering.hpp"
#include "util/stable_hash.hpp"

namespace {

#ifndef HM_GOLDEN_DIR
#define HM_GOLDEN_DIR "tests/golden"
#endif

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Exactly the spec the goldens were generated from (build/gen_golden at
/// the pre-refactor revision): 3 arrangement families x {4, 9} chiplets x
/// {uniform, hotspot} traffic, short windows, default base seed.
hm::explore::SweepSpec golden_spec() {
  hm::core::EvaluationParams params;
  params.latency_warmup = 300;
  params.latency_measure = 600;
  params.latency_drain_limit = 60000;
  params.throughput_warmup = 400;
  params.throughput_measure = 400;

  hm::noc::TrafficSpec hotspot;
  hotspot.pattern = hm::noc::TrafficPattern::kHotspot;
  hotspot.hotspot_fraction = 0.3;
  hotspot.hotspots = {0, 3};

  hm::explore::SweepSpec spec;
  spec.types = {hm::core::ArrangementType::kGrid,
                hm::core::ArrangementType::kBrickwall,
                hm::core::ArrangementType::kHexaMesh};
  spec.chiplet_counts = {4, 9};
  spec.param_grid = {params};
  spec.traffic_grid = {hm::noc::TrafficSpec{}, hotspot};
  return spec;
}

class GoldenSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenSweep, CsvAndJsonMatchPreRefactorCapture) {
  if (std::getenv("HM_REGEN_GOLDEN") != nullptr) {
    if (GetParam() == 1u) {
      hm::explore::SweepEngine::Options opt;
      opt.threads = 1;
      hm::explore::SweepEngine engine(opt);
      const auto records = engine.run(golden_spec());
      std::ofstream(std::string(HM_GOLDEN_DIR) + "/sweep_small.csv",
                    std::ios::binary)
          << hm::explore::to_csv(records);
      std::ofstream(std::string(HM_GOLDEN_DIR) + "/sweep_small.json",
                    std::ios::binary)
          << hm::explore::to_json(records);
    }
    GTEST_SKIP() << "HM_REGEN_GOLDEN set: goldens rewritten, not compared";
  }

  const std::string golden_csv =
      read_file(std::string(HM_GOLDEN_DIR) + "/sweep_small.csv");
  const std::string golden_json =
      read_file(std::string(HM_GOLDEN_DIR) + "/sweep_small.json");
  ASSERT_FALSE(golden_csv.empty());
  ASSERT_FALSE(golden_json.empty());

  hm::explore::SweepEngine::Options opt;
  opt.threads = GetParam();
  hm::explore::SweepEngine engine(opt);
  const auto records = engine.run(golden_spec());

  EXPECT_EQ(hm::explore::to_csv(records), golden_csv)
      << "CSV diverged from the pre-refactor golden at " << GetParam()
      << " threads";
  EXPECT_EQ(hm::explore::to_json(records), golden_json)
      << "JSON diverged from the pre-refactor golden at " << GetParam()
      << " threads";
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, GoldenSweep,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// --- Search and tempering traces ---------------------------------------------

using hm::core::ArrangementType;
using hm::core::make_arrangement;

/// Short measurement windows (those of test_tempering's fast_options()) on
/// top of either engine's defaults.
template <typename Options>
Options golden_trace_options(unsigned threads) {
  Options opt;
  opt.threads = threads;
  opt.seed = 7;
  opt.params.throughput_warmup = 250;
  opt.params.throughput_measure = 250;
  opt.params.latency_warmup = 250;
  opt.params.latency_measure = 500;
  return opt;
}

/// Trace goldens under tests/golden/. With HM_REGEN_GOLDEN set, the t1
/// instantiation rewrites them from a 1-thread run and the others skip.
class GoldenTrace : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    regen_ = std::getenv("HM_REGEN_GOLDEN") != nullptr;
    if (regen_ && GetParam() != 1u) GTEST_SKIP() << "HM_REGEN_GOLDEN set";
  }

  void check(const std::string& name, const std::string& actual) const {
    const std::string path = std::string(HM_GOLDEN_DIR) + "/" + name;
    if (regen_) {
      std::ofstream(path, std::ios::binary) << actual;
      return;
    }
    const std::string golden = read_file(path);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(actual, golden) << name << " diverged from the golden at "
                              << GetParam() << " threads";
  }

 private:
  bool regen_ = false;
};

TEST_P(GoldenTrace, SearchHillClimbThroughput) {
  auto opt = golden_trace_options<hm::search::SearchOptions>(GetParam());
  opt.steps = 6;
  opt.candidates_per_step = 3;
  const auto res = hm::search::SearchEngine(opt).run(
      make_arrangement(ArrangementType::kBrickwall, 12));
  check("search_hill_throughput.csv", hm::search::trace_to_csv(res.trace));
}

TEST_P(GoldenTrace, SearchAnnealLatency) {
  auto opt = golden_trace_options<hm::search::SearchOptions>(GetParam());
  opt.schedule = hm::search::Schedule::kAnneal;
  opt.objective = hm::search::Objective::kZeroLoadLatency;
  opt.steps = 8;
  opt.candidates_per_step = 2;
  opt.initial_temperature = 0.05;
  const auto res = hm::search::SearchEngine(opt).run(
      make_arrangement(ArrangementType::kHexaMesh, 13));
  check("search_anneal_latency.csv", hm::search::trace_to_csv(res.trace));
  check("search_anneal_latency.json", hm::search::trace_to_json(res.trace));
}

TEST_P(GoldenTrace, SearchAnnealZeroBaselineFloor) {
  // A custom objective whose baseline is exactly 0 (link deficit against
  // the start), so every row runs at the min_temperature floor.
  auto opt = golden_trace_options<hm::search::SearchOptions>(GetParam());
  opt.schedule = hm::search::Schedule::kAnneal;
  opt.steps = 10;
  opt.candidates_per_step = 1;
  opt.seed = 3;
  opt.min_temperature = 0.75;
  const auto start = make_arrangement(ArrangementType::kHexaMesh, 13);
  const auto start_links = static_cast<double>(start.graph().edge_count());
  opt.objective.custom = [start_links](const hm::core::EvaluationResult& r) {
    return static_cast<double>(r.link_count) - start_links;
  };
  const auto res = hm::search::SearchEngine(opt).run(start);
  check("search_anneal_floor.csv", hm::search::trace_to_csv(res.trace));
}

TEST_P(GoldenTrace, TemperingThreeReplicasWithExchange) {
  auto opt = golden_trace_options<hm::search::TemperingOptions>(GetParam());
  opt.replicas = 3;
  opt.steps = 8;
  opt.candidates_per_step = 2;
  opt.exchange_interval = 2;
  const auto res = hm::search::TemperingEngine(opt).run(
      make_arrangement(ArrangementType::kGrid, 9));
  check("tempering_k3.csv", hm::search::trace_to_csv(res.trace));
  check("tempering_k3.json", hm::search::trace_to_json(res.trace));
}

TEST_P(GoldenTrace, TemperingSingleReplica) {
  auto opt = golden_trace_options<hm::search::TemperingOptions>(GetParam());
  opt.replicas = 1;
  opt.steps = 4;
  opt.candidates_per_step = 2;
  const auto res = hm::search::TemperingEngine(opt).run(
      make_arrangement(ArrangementType::kGrid, 8));
  check("tempering_k1.csv", hm::search::trace_to_csv(res.trace));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, GoldenTrace,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// --- Saturated router --------------------------------------------------------

/// The Network's deterministic hot-path counters as `key=value` fields.
/// The switch-allocation stall counters are left out: they count
/// arbitration attempts, not simulated work, so router_n37.txt stays a
/// record of what the network did. router_wide.txt pins them
/// (sa_stall_fields) because they move with the order in which switch
/// allocation visits output ports and requesters, which a bit-identical
/// allocator change must keep.
std::string hot_stat_fields(const hm::noc::Network& net) {
  const hm::noc::Network::HotStats s = net.hot_stats();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                " flits_routed=%llu va_stall_cycles=%llu heads_revoked=%llu"
                " ring_hwm=%llu router_steps=%llu source_queue_hwm=%llu",
                static_cast<unsigned long long>(s.routers.flits_routed),
                static_cast<unsigned long long>(s.routers.va_stall_cycles),
                static_cast<unsigned long long>(s.routers.heads_revoked),
                static_cast<unsigned long long>(s.routers.ring_hwm),
                static_cast<unsigned long long>(s.router_steps),
                static_cast<unsigned long long>(s.source_queue_hwm));
  return buf;
}

/// The switch-allocation stall counters as `key=value` fields.
std::string sa_stall_fields(const hm::noc::Network& net) {
  const hm::noc::Router::HotStats s = net.hot_stats().routers;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                " sa_conflict_stalls=%llu sa_credit_stalls=%llu",
                static_cast<unsigned long long>(s.sa_conflict_stalls),
                static_cast<unsigned long long>(s.sa_credit_stalls));
  return buf;
}

/// The two router goldens, captured in one pass.
struct RouterCapture {
  std::string n37;   ///< router_n37.txt
  std::string wide;  ///< router_wide.txt
};

/// router_n37.txt: every routing mode on every family at N=37, driven to
/// saturation and below it, plus a three-kill storm on HexaMesh; one line
/// per run. router_wide.txt: the SA stall counters of the six
/// minimal-adaptive N=37 runs, then full lines for routers wider than one
/// 64-bit mask word: 72 VCs on grid N=16 (71 adaptive VCs per output port,
/// 6 ports x 72 flat input VCs) and 70 endpoints on each of two routers
/// (71 ports), each below and at saturation.
RouterCapture router_golden_capture() {
  using hm::noc::RoutingMode;
  const std::pair<ArrangementType, const char*> families[] = {
      {ArrangementType::kGrid, "grid"},
      {ArrangementType::kBrickwall, "brickwall"},
      {ArrangementType::kHexaMesh, "hexamesh"}};
  const std::pair<RoutingMode, const char*> modes[] = {
      {RoutingMode::kMinimalAdaptive, "minimal-adaptive"},
      {RoutingMode::kDeterministicMinimal, "deterministic-minimal"},
      {RoutingMode::kUpDownOnly, "updown-only"}};

  RouterCapture out;
  char buf[256];
  for (const auto& [type, family] : families) {
    const auto g = make_arrangement(type, 37).graph();
    for (const auto& [mode, mode_name] : modes) {
      for (const double rate : {1.0, 0.3}) {
        hm::noc::SimConfig cfg;
        cfg.routing = mode;
        hm::noc::Simulator sim(g, cfg);
        const auto r = sim.run_throughput(rate, 500, 500);
        std::snprintf(buf, sizeof buf, "%s-37 %s rate=%g", family, mode_name,
                      rate);
        const std::string label = buf;
        if (mode == RoutingMode::kMinimalAdaptive) {
          out.wide += label + sa_stall_fields(sim.network()) + "\n";
        }
        std::snprintf(buf, sizeof buf,
                      " accepted=%.17g generated=%.17g dropped=%llu",
                      r.accepted_flit_rate, r.generated_flit_rate,
                      static_cast<unsigned long long>(r.dropped_packets));
        out.n37 += label + buf + hot_stat_fields(sim.network()) + "\n";
      }
    }
  }

  const auto g = make_arrangement(ArrangementType::kHexaMesh, 37).graph();
  hm::faults::FaultScenarioSpec storm;
  storm.storm_kills = 3;
  storm.seed = 5;
  storm.kill_at = 200;
  storm.storm_spacing = 300;
  const auto plans = storm.plans_for(g);
  EXPECT_EQ(plans.size(), 1u);
  hm::noc::Simulator sim(g, hm::noc::SimConfig{});
  const auto s = sim.run_resilience(0.5, plans.back(), 500, 1500);
  std::snprintf(
      buf, sizeof buf,
      "hexamesh-37 storm rate=0.5 links_killed=%llu flits_dropped=%llu"
      " packets_lost=%llu packets_rerouted=%llu"
      " pre_fault_rate=%.17g degraded_rate=%.17g ejected=%llu",
      static_cast<unsigned long long>(s.links_killed),
      static_cast<unsigned long long>(s.flits_dropped),
      static_cast<unsigned long long>(s.packets_lost),
      static_cast<unsigned long long>(s.packets_rerouted), s.pre_fault_rate,
      s.degraded_rate,
      static_cast<unsigned long long>(sim.network().total_flits_ejected()));
  out.n37 += buf + hot_stat_fields(sim.network()) + "\n";
  std::string why;
  EXPECT_TRUE(sim.network().invariants_ok(&why)) << why;

  hm::graph::Graph pair(2);
  pair.add_edge(0, 1);
  hm::noc::SimConfig wide_vcs;
  wide_vcs.vcs = 72;
  hm::noc::SimConfig wide_ports;
  wide_ports.endpoints_per_chiplet = 70;
  const std::tuple<const char*, hm::graph::Graph, hm::noc::SimConfig> wide[] = {
      {"grid-16 vcs=72", make_arrangement(ArrangementType::kGrid, 16).graph(),
       wide_vcs},
      {"pair-2 endpoints_per_chiplet=70", pair, wide_ports}};
  for (const auto& [label, wg, cfg] : wide) {
    for (const double rate : {0.3, 1.0}) {
      hm::noc::Simulator wsim(wg, cfg);
      const auto r = wsim.run_throughput(rate, 500, 500);
      std::snprintf(buf, sizeof buf,
                    "%s rate=%g accepted=%.17g generated=%.17g dropped=%llu",
                    label, rate, r.accepted_flit_rate, r.generated_flit_rate,
                    static_cast<unsigned long long>(r.dropped_packets));
      out.wide += buf + hot_stat_fields(wsim.network()) +
                  sa_stall_fields(wsim.network()) + "\n";
      EXPECT_TRUE(wsim.network().invariants_ok(&why)) << label << ": " << why;
    }
  }
  return out;
}

TEST(GoldenRouter, RunsMatchCapture) {
  const std::string n37 = std::string(HM_GOLDEN_DIR) + "/router_n37.txt";
  const std::string wide = std::string(HM_GOLDEN_DIR) + "/router_wide.txt";
  const RouterCapture actual = router_golden_capture();
  if (std::getenv("HM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(n37, std::ios::binary) << actual.n37;
    std::ofstream(wide, std::ios::binary) << actual.wide;
    GTEST_SKIP() << "HM_REGEN_GOLDEN set: goldens rewritten, not compared";
  }
  EXPECT_EQ(actual.n37, read_file(n37)) << "router_n37.txt diverged";
  EXPECT_EQ(actual.wide, read_file(wide)) << "router_wide.txt diverged";
}

// --- Analytic half -----------------------------------------------------------

/// One line per family x N: the partitioner's cut and a digest of its side
/// vector (run on every graph, regular ones included, so the exact
/// bisection is pinned even where evaluate_analytic uses a closed form),
/// then evaluate_analytic's diameter, average hop distance and bisection.
std::string analytic_golden_capture() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 2; n <= 40; ++n) counts.push_back(n);
  for (const std::size_t n :
       {48, 64, 91, 100, 127, 128, 200, 256, 331, 400, 512, 640}) {
    counts.push_back(n);
  }
  const std::pair<ArrangementType, const char*> families[] = {
      {ArrangementType::kGrid, "grid"},
      {ArrangementType::kBrickwall, "brickwall"},
      {ArrangementType::kHexaMesh, "hexamesh"}};

  std::string out;
  char buf[256];
  for (const auto& [type, family] : families) {
    for (const std::size_t n : counts) {
      const auto arr = make_arrangement(type, n);
      const auto cut = hm::partition::bisect(arr.graph());
      hm::util::StableHash side;
      for (const int s : cut.side) side.mix_i(s);
      const auto r = hm::core::evaluate_analytic(arr);
      std::snprintf(buf, sizeof buf,
                    "%s-%zu cut=%zu side=%016llx diameter=%d"
                    " avg_hop_distance=%.17g bisection_links=%zu\n",
                    family, n, cut.cut_edges,
                    static_cast<unsigned long long>(side.value()),
                    r.diameter, r.avg_hop_distance, r.bisection_links);
      out += buf;
    }
  }
  return out;
}

TEST(GoldenAnalytic, BisectionsAndDistancesMatchCapture) {
  const std::string path = std::string(HM_GOLDEN_DIR) + "/analytic.txt";
  const std::string actual = analytic_golden_capture();
  if (std::getenv("HM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "HM_REGEN_GOLDEN set: golden rewritten, not compared";
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(actual, golden) << "analytic.txt diverged from the golden";
}

// --- Fig. 7 headline ledger --------------------------------------------------

/// One row per family x N with the four numbers Fig. 7 is built from, then
/// one row per N with the brickwall/grid and HexaMesh/grid ratios of each.
std::string ledger_golden_capture() {
  hm::core::EvaluationParams params;
  params.latency_warmup = 1000;
  params.latency_measure = 3000;
  params.throughput_warmup = 500;
  params.throughput_measure = 500;

  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kGrid, ArrangementType::kBrickwall,
                ArrangementType::kHexaMesh};
  spec.chiplet_counts = {16, 19, 37};
  spec.param_grid = {params};
  spec.derive_per_job_seeds = false;
  hm::explore::SweepEngine::Options opt;
  opt.threads = 1;
  const auto records = hm::explore::SweepEngine(opt).run(spec);

  std::string out;
  char buf[512];
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.error.empty()) << rec.error;
    const auto& r = rec.result;
    std::snprintf(buf, sizeof buf,
                  "%s-%zu zero_load_latency_cycles=%.17g"
                  " saturation_fraction=%.17g per_link_bandwidth_bps=%.17g"
                  " saturation_throughput_bps=%.17g\n",
                  hm::core::to_string(rec.point.type).c_str(),
                  rec.point.chiplet_count, r.zero_load_latency_cycles,
                  r.saturation_fraction, r.per_link_bandwidth_bps,
                  r.saturation_throughput_bps);
    out += buf;
  }
  // Records come out types-outer: grid, brickwall, HexaMesh per N block.
  const std::size_t counts = spec.chiplet_counts.size();
  for (std::size_t i = 0; i < counts; ++i) {
    const auto& grid = records[i].result;
    const auto& bw = records[counts + i].result;
    const auto& hexa = records[2 * counts + i].result;
    std::snprintf(
        buf, sizeof buf,
        "ratios-%zu latency bw=%.17g hm=%.17g throughput bw=%.17g hm=%.17g"
        " link_bandwidth bw=%.17g hm=%.17g saturation_fraction bw=%.17g"
        " hm=%.17g\n",
        spec.chiplet_counts[i],
        bw.zero_load_latency_cycles / grid.zero_load_latency_cycles,
        hexa.zero_load_latency_cycles / grid.zero_load_latency_cycles,
        bw.saturation_throughput_bps / grid.saturation_throughput_bps,
        hexa.saturation_throughput_bps / grid.saturation_throughput_bps,
        bw.per_link_bandwidth_bps / grid.per_link_bandwidth_bps,
        hexa.per_link_bandwidth_bps / grid.per_link_bandwidth_bps,
        bw.saturation_fraction / grid.saturation_fraction,
        hexa.saturation_fraction / grid.saturation_fraction);
    out += buf;
  }
  return out;
}

TEST(GoldenLedger, Fig7HeadlineMatchesCapture) {
  const std::string path = std::string(HM_GOLDEN_DIR) + "/ledger_fig7.txt";
  const std::string actual = ledger_golden_capture();
  if (std::getenv("HM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "HM_REGEN_GOLDEN set: golden rewritten, not compared";
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(actual, golden) << "ledger_fig7.txt diverged from the golden";
}

// --- Export edge cases -------------------------------------------------------

/// A record with every exported field set by hand: no evaluation runs.
hm::explore::SweepRecord edge_record(std::size_t index, ArrangementType type,
                                     std::size_t chiplets) {
  hm::explore::SweepRecord rec;
  rec.point.index = index;
  rec.point.type = type;
  rec.point.chiplet_count = chiplets;
  rec.point.param_index = index % 2;
  rec.point.params.sim.seed = 18446744073709551615ull - index;
  auto& r = rec.result;
  r.chiplet_count = chiplets;
  r.regularity = hm::core::RegularityClass::kIrregular;
  r.diameter = static_cast<int>(index) + 3;
  r.avg_hop_distance = 1.0 / 3.0;
  r.bisection_links = 7;
  r.chiplet_area_mm2 = 1e-300;
  r.link_area_mm2 = -0.0;
  r.per_link_bandwidth_bps = 123456789.125;
  r.full_global_bandwidth_bps = 1e21;
  r.zero_load_latency_cycles = 65.5;
  r.latency_run_drained = index % 2 == 0;
  r.saturation_fraction = 0.1;
  r.saturation_throughput_bps = 2.5e-7;
  return rec;
}

/// Each case's CSV and JSON export, then empty search and tempering traces
/// and one hand-built row of each, under `== name ==` separators.
std::string export_edge_capture() {
  using hm::explore::SweepRecord;
  std::string out;
  const auto add = [&out](const std::string& name,
                          const std::vector<SweepRecord>& records) {
    out += "== " + name + ".csv ==\n" + hm::explore::to_csv(records);
    out += "== " + name + ".json ==\n" + hm::explore::to_json(records);
  };

  // A warm-start label and an error holding every character either format
  // has to escape, next to a plain analytic-only record.
  const std::string nasty = "a,b\"c\nd\te\x01" "f\\g";
  SweepRecord labelled = edge_record(0, ArrangementType::kHexaMesh, 7);
  labelled.point.custom = std::make_shared<const hm::core::Arrangement>(
      make_arrangement(ArrangementType::kHexaMesh, 7));
  labelled.point.label = "searched " + nasty;
  labelled.error = "evaluate failed: " + nasty;
  SweepRecord plain = edge_record(1, ArrangementType::kGrid, 1);
  plain.analytic_only = true;
  add("escapes", {labelled, plain});

  // The three non-uniform patterns' descriptions (hotspot's holds a comma).
  std::vector<SweepRecord> patterns;
  for (const auto pattern : {hm::noc::TrafficPattern::kHotspot,
                             hm::noc::TrafficPattern::kBitComplement,
                             hm::noc::TrafficPattern::kPermutation}) {
    SweepRecord rec =
        edge_record(patterns.size(), ArrangementType::kBrickwall, 9);
    rec.point.traffic.pattern = pattern;
    rec.point.traffic.hotspot_fraction = 0.3;
    rec.point.traffic.hotspots = {0, 3};
    rec.point.traffic.permutation_seed = 7;
    patterns.push_back(rec);
  }
  add("traffic", patterns);

  // One record with a fault scenario turns the fault columns on for all.
  SweepRecord faulty = edge_record(0, ArrangementType::kGrid, 16);
  faulty.point.params.faults.single_link_kills = 2;
  faulty.point.params.faults.seed = 5;
  faulty.point.params.faults.repair_after = 300;
  faulty.result.fault_plans_run = 2;
  faulty.result.fault_degraded_throughput = 0.0625;
  faulty.result.fault_robust_throughput_bps = 3.75e11;
  faulty.result.fault_recovery_cycles = -1;
  faulty.result.fault_packets_lost = 18446744073709551615ull;
  add("faults", {faulty, edge_record(1, ArrangementType::kGrid, 16)});

  add("empty", {});

  hm::search::SearchStep step;
  step.step = 3;
  step.kind = hm::search::MutationKind::kAddEdge;
  step.candidates = 4;
  step.accepted = true;
  step.candidate_score = -2.5e-7;
  step.current_score = 0.1;
  step.best_score = 1e21;
  step.temperature = 0.05;
  step.temperature_floored = true;
  step.graph_digest = 18446744073709551615ull;
  step.edge_count = 42;
  hm::search::TemperingStep rung;
  static_cast<hm::search::ChainStep&>(rung) = step;
  rung.replica = 2;
  rung.exchanged = true;
  rung.exchange_partner = 1;
  const auto add_trace = [&out](const std::string& name, const auto& trace) {
    out += "== " + name + ".csv ==\n" + hm::search::trace_to_csv(trace);
    out += "== " + name + ".json ==\n" + hm::search::trace_to_json(trace);
  };
  add_trace("search_empty", std::vector<hm::search::SearchStep>{});
  add_trace("search_row", std::vector<hm::search::SearchStep>{step});
  add_trace("tempering_empty", std::vector<hm::search::TemperingStep>{});
  add_trace("tempering_row", std::vector<hm::search::TemperingStep>{rung});
  return out;
}

TEST(GoldenExport, EdgeCasesMatchCapture) {
  const std::string path = std::string(HM_GOLDEN_DIR) + "/export_edge.txt";
  const std::string actual = export_edge_capture();
  if (std::getenv("HM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "HM_REGEN_GOLDEN set: golden rewritten, not compared";
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(actual, golden) << "export_edge.txt diverged from the golden";
}

// --- Link faults -------------------------------------------------------------

/// One resilience run reduced to its plan, its ResilienceStats, the
/// network's flit ledger and its deterministic hot-path counters.
std::string resilience_line(const std::string& label,
                            const hm::graph::Graph& g,
                            const hm::noc::SimConfig& cfg,
                            const hm::faults::FaultPlan& plan, double rate) {
  hm::noc::Simulator sim(g, cfg);
  const auto s = sim.run_resilience(rate, plan, 1000, 3000);
  const hm::noc::Network& net = sim.network();
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "%s rate=%g plan=[%s] links_killed=%llu repairs=%llu"
      " flits_dropped=%llu packets_lost=%llu packets_rerouted=%llu"
      " pre_fault_rate=%.17g degraded_rate=%.17g first_kill_cycle=%lld"
      " recovery_cycles=%lld recovered=%d injected=%llu ejected=%llu"
      " in_network=%zu dropped=%llu",
      label.c_str(), rate, plan.describe().c_str(),
      static_cast<unsigned long long>(s.links_killed),
      static_cast<unsigned long long>(s.repairs),
      static_cast<unsigned long long>(s.flits_dropped),
      static_cast<unsigned long long>(s.packets_lost),
      static_cast<unsigned long long>(s.packets_rerouted), s.pre_fault_rate,
      s.degraded_rate, static_cast<long long>(s.first_kill_cycle),
      static_cast<long long>(s.recovery_cycles), s.recovered ? 1 : 0,
      static_cast<unsigned long long>(net.total_flits_injected()),
      static_cast<unsigned long long>(net.total_flits_ejected()),
      net.flits_in_network(),
      static_cast<unsigned long long>(net.flits_dropped()));
  std::string why;
  EXPECT_TRUE(net.invariants_ok(&why)) << label << ": " << why;
  return buf + hot_stat_fields(net) + "\n";
}

/// Every shape of link fault a program in the tree can request: seeded
/// single kills (with and without a reconvergence window, in both stepping
/// modes), a kill plus repair, a storm, two kills in one batch, the fault
/// fields of evaluate(), and the store key of an explicit plan.
std::string faults_golden_capture() {
  using hm::faults::FaultScenarioSpec;
  std::string out;

  const auto hexa37 = make_arrangement(ArrangementType::kHexaMesh, 37).graph();
  for (const hm::noc::Cycle reconvergence : {0, 16}) {
    FaultScenarioSpec spec;
    spec.single_link_kills = 1;
    spec.seed = 7;
    spec.kill_at = 500;
    spec.reconvergence_delay = reconvergence;
    const auto plans = spec.plans_for(hexa37);
    EXPECT_EQ(plans.size(), 1u);
    for (const bool skip_idle : {true, false}) {
      hm::noc::SimConfig cfg;
      cfg.seed = 11;
      cfg.skip_idle = skip_idle;
      out += resilience_line("hexamesh-37 single reconvergence=" +
                                 std::to_string(reconvergence) +
                                 " skip_idle=" + std::to_string(skip_idle),
                             hexa37, cfg, plans.front(), 0.25);
    }
  }

  FaultScenarioSpec repair;
  repair.single_link_kills = 1;
  repair.seed = 3;
  repair.kill_at = 400;
  repair.repair_after = 800;
  const auto grid16 = make_arrangement(ArrangementType::kGrid, 16).graph();
  out += resilience_line("grid-16 kill+repair", grid16, hm::noc::SimConfig{},
                         repair.plans_for(grid16).front(), 0.25);

  FaultScenarioSpec storm;
  storm.storm_kills = 4;
  storm.seed = 5;
  storm.kill_at = 300;
  storm.storm_spacing = 300;
  const auto brick25 = make_arrangement(ArrangementType::kBrickwall, 25).graph();
  out += resilience_line("brickwall-25 storm", brick25, hm::noc::SimConfig{},
                         storm.plans_for(brick25).front(), 0.2);

  // A two-kill storm with both kills moved to the first one's cycle: the
  // storm picks each kill on the graph left by the previous one, so the
  // batch stays connected.
  FaultScenarioSpec pair;
  pair.storm_kills = 2;
  pair.seed = 11;
  pair.kill_at = 500;
  const auto hexa19 = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  hm::faults::FaultPlan batch = pair.plans_for(hexa19).front();
  EXPECT_EQ(batch.events.size(), 2u);
  batch.events.back().at = batch.events.front().at;
  out += resilience_line("hexamesh-19 one-batch", hexa19, hm::noc::SimConfig{},
                         batch, 0.25);

  hm::core::EvaluationParams params;
  params.latency_warmup = 200;
  params.latency_measure = 400;
  params.latency_drain_limit = 60000;
  params.throughput_warmup = 300;
  params.throughput_measure = 300;
  params.faults.single_link_kills = 2;
  params.faults.kill_at = 500;
  params.faults.warmup = 500;
  params.faults.measure = 2500;
  const auto r =
      hm::core::evaluate(make_arrangement(ArrangementType::kHexaMesh, 13),
                         params);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "evaluate hexamesh-13 kills=2 fault_plans_run=%zu"
                " fault_degraded_throughput=%.17g"
                " fault_robust_throughput_bps=%.17g"
                " fault_recovery_cycles=%lld fault_packets_lost=%llu\n",
                r.fault_plans_run, r.fault_degraded_throughput,
                r.fault_robust_throughput_bps,
                static_cast<long long>(r.fault_recovery_cycles),
                static_cast<unsigned long long>(r.fault_packets_lost));
  out += buf;

  hm::core::EvaluationParams keyed;
  hm::faults::FaultPlan kill_repair;
  kill_repair.events.push_back({100, hm::faults::FaultKind::kLinkKill, 0, 1});
  kill_repair.events.push_back({400, hm::faults::FaultKind::kLinkRepair, 0, 1});
  kill_repair.reconvergence_delay = 8;
  keyed.faults.explicit_plans.push_back(kill_repair);
  std::snprintf(buf, sizeof buf,
                "hash_simulation_params explicit kill+repair = %016llx\n",
                static_cast<unsigned long long>(
                    hm::explore::hash_simulation_params(keyed)));
  out += buf;
  return out;
}

TEST(GoldenFaults, LinkFaultRunsMatchCapture) {
  const std::string path = std::string(HM_GOLDEN_DIR) + "/faults.txt";
  const std::string actual = faults_golden_capture();
  if (std::getenv("HM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "HM_REGEN_GOLDEN set: golden rewritten, not compared";
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(actual, golden) << "faults.txt diverged from the golden";
}

}  // namespace
