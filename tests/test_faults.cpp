// Pins fault injection & degraded-mode resilience:
//
//  - FaultPlan validation rejects malformed schedules up front (unordered
//    times, bad ids, duplicate kills, repairs of healthy links, and every
//    kill of a bridge, which would disconnect the network).
//  - An armed-but-empty plan is bit-identical to an unarmed run: arming the
//    controller must cost exactly nothing in behavior.
//  - A mid-run link kill on the paper's HexaMesh completes without deadlock
//    or flit leak (conservation: injected == ejected + in-network +
//    dropped), deterministically across skip-idle modes, reconvergence
//    windows and repeated runs.
//  - Recovery metrics behave: finite recovery time at a survivable kill,
//    counted in whole windows from the kill, degraded rate <= pre-fault
//    rate.
//  - A repair brings the killed link back.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "explore/thread_pool.hpp"
#include "faults/controller.hpp"
#include "faults/fault_plan.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "noc/simulator.hpp"

namespace {

using hm::core::ArrangementType;
using hm::core::make_arrangement;
using hm::faults::FaultEvent;
using hm::faults::FaultKind;
using hm::faults::FaultPlan;
using hm::faults::FaultScenarioSpec;
using hm::faults::kRecoveryWindow;
using hm::faults::ResilienceStats;
using hm::graph::Graph;
using hm::graph::NodeId;
using hm::noc::Cycle;
using hm::noc::SimConfig;
using hm::noc::Simulator;

/// Path graph 0-1-2: every edge is a bridge.
Graph path3() {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  return g;
}

FaultPlan kill_link_plan(NodeId a, NodeId b, Cycle at, Cycle repair_at = 0) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{at, FaultKind::kLinkKill, a, b});
  if (repair_at > 0) {
    plan.events.push_back(FaultEvent{repair_at, FaultKind::kLinkRepair, a, b});
  }
  return plan;
}

/// First edge of `g` whose removal keeps the graph connected.
std::pair<NodeId, NodeId> first_non_bridge(const Graph& g) {
  const auto bridges = hm::graph::bridges(g);
  for (const auto& e : g.edges()) {
    bool is_bridge = false;
    for (const auto& b : bridges) {
      if (b == e) {
        is_bridge = true;
        break;
      }
    }
    if (!is_bridge) return e;
  }
  throw std::logic_error("no non-bridge edge");
}

TEST(FaultPlanValidation, RejectsMalformedSchedules) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 7).graph();
  const auto edge = first_non_bridge(g);

  {  // unordered times
    FaultPlan plan;
    plan.events.push_back(
        FaultEvent{200, FaultKind::kLinkKill, edge.first, edge.second});
    plan.events.push_back(
        FaultEvent{100, FaultKind::kLinkKill, edge.first, edge.second});
    EXPECT_THROW(plan.validate(g), std::invalid_argument);
  }
  {  // ids out of range
    EXPECT_THROW(kill_link_plan(0, 99, 100).validate(g),
                 std::invalid_argument);
  }
  {  // kill of a link that does not exist / duplicate kill
    NodeId a = 0, b = 0;
    bool found = false;
    for (NodeId u = 0; u < g.node_count() && !found; ++u) {
      for (NodeId v = u + 1; v < g.node_count() && !found; ++v) {
        if (!g.has_edge(u, v)) {
          a = u;
          b = v;
          found = true;
        }
      }
    }
    ASSERT_TRUE(found);
    EXPECT_THROW(kill_link_plan(a, b, 100).validate(g),
                 std::invalid_argument);

    FaultPlan dup = kill_link_plan(edge.first, edge.second, 100);
    dup.events.push_back(
        FaultEvent{300, FaultKind::kLinkKill, edge.first, edge.second});
    EXPECT_THROW(dup.validate(g), std::invalid_argument);
  }
  {  // repair of a healthy link
    FaultPlan plan;
    plan.events.push_back(
        FaultEvent{100, FaultKind::kLinkRepair, edge.first, edge.second});
    EXPECT_THROW(plan.validate(g), std::invalid_argument);
  }
  // A well-formed kill+repair schedule passes.
  EXPECT_NO_THROW(
      kill_link_plan(edge.first, edge.second, 100, 400).validate(g));
}

TEST(FaultPlanValidation, BridgeCutsAreRejected) {
  const Graph g = path3();
  EXPECT_THROW(kill_link_plan(0, 1, 100).validate(g), std::invalid_argument);
  EXPECT_THROW(kill_link_plan(1, 2, 100).validate(g), std::invalid_argument);
}

TEST(FaultScenario, GeneratedPlansValidateAndAreDeterministic) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  FaultScenarioSpec spec;
  spec.single_link_kills = 3;
  spec.storm_kills = 4;
  spec.seed = 42;
  spec.validate();

  const auto plans = spec.plans_for(g);
  ASSERT_EQ(plans.size(), 4u);  // 3 single kills + 1 storm
  for (const FaultPlan& plan : plans) {
    EXPECT_NO_THROW(plan.validate(g)) << plan.describe();
  }
  EXPECT_EQ(plans, spec.plans_for(g));  // deterministic in (spec, graph)

  FaultScenarioSpec other = spec;
  other.seed = 43;
  EXPECT_NE(plans, other.plans_for(g));  // and seed-sensitive
}

/// Everything observable about a resilience run.
struct Observed {
  ResilienceStats stats;
  std::uint64_t injected = 0;
  std::uint64_t ejected = 0;
  std::uint64_t in_network = 0;
  std::uint64_t dropped = 0;
};

Observed run_faulted(const Graph& g, const SimConfig& cfg,
                     const FaultPlan& plan, double rate = 0.25,
                     Cycle warmup = 1000, Cycle measure = 4000) {
  Simulator sim(g, cfg);
  Observed obs;
  obs.stats = sim.run_resilience(rate, plan, warmup, measure);
  obs.injected = sim.network().total_flits_injected();
  obs.ejected = sim.network().total_flits_ejected();
  obs.in_network = sim.network().flits_in_network();
  obs.dropped = sim.network().flits_dropped();
  std::string why;
  EXPECT_TRUE(sim.network().invariants_ok(&why)) << why;
  // Flit conservation across fault transitions: nothing leaks, nothing is
  // double-counted.
  EXPECT_EQ(obs.injected, obs.ejected + obs.in_network + obs.dropped);
  return obs;
}

void expect_same(const Observed& x, const Observed& y,
                 const std::string& ctx) {
  EXPECT_EQ(x.injected, y.injected) << ctx;
  EXPECT_EQ(x.ejected, y.ejected) << ctx;
  EXPECT_EQ(x.in_network, y.in_network) << ctx;
  EXPECT_EQ(x.dropped, y.dropped) << ctx;
  EXPECT_EQ(x.stats.flits_dropped, y.stats.flits_dropped) << ctx;
  EXPECT_EQ(x.stats.packets_lost, y.stats.packets_lost) << ctx;
  EXPECT_EQ(x.stats.packets_rerouted, y.stats.packets_rerouted) << ctx;
  EXPECT_EQ(x.stats.pre_fault_rate, y.stats.pre_fault_rate) << ctx;
  EXPECT_EQ(x.stats.degraded_rate, y.stats.degraded_rate) << ctx;
  EXPECT_EQ(x.stats.recovery_cycles, y.stats.recovery_cycles) << ctx;
}

TEST(Faults, ArmedEmptyPlanIsBitIdenticalToUnarmed) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  SimConfig cfg;
  cfg.seed = 7;

  Simulator plain(g, cfg);
  plain.run_throughput(0.25, 1000, 4000);
  const std::uint64_t plain_injected = plain.network().total_flits_injected();
  const std::uint64_t plain_ejected = plain.network().total_flits_ejected();

  const Observed armed = run_faulted(g, cfg, FaultPlan{});
  EXPECT_EQ(armed.injected, plain_injected);
  EXPECT_EQ(armed.ejected, plain_ejected);
  EXPECT_EQ(armed.stats.links_killed, 0u);
  EXPECT_EQ(armed.dropped, 0u);
  EXPECT_LT(armed.stats.first_kill_cycle, 0);
  EXPECT_GT(armed.stats.pre_fault_rate, 0.0);  // sampling alone still runs
}

TEST(Faults, SingleLinkKillIsDeterministicAcrossModes) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 37).graph();
  const auto edge = first_non_bridge(g);

  for (const Cycle reconvergence : {Cycle{0}, Cycle{16}}) {
    FaultPlan plan = kill_link_plan(edge.first, edge.second, 500);
    plan.reconvergence_delay = reconvergence;

    SimConfig cfg;
    cfg.seed = 11;
    cfg.skip_idle = true;
    const Observed active = run_faulted(g, cfg, plan);
    const Observed again = run_faulted(g, cfg, plan);
    cfg.skip_idle = false;
    const Observed dense = run_faulted(g, cfg, plan);

    const std::string ctx =
        "reconvergence=" + std::to_string(reconvergence);
    expect_same(active, again, ctx + " (repeat)");
    expect_same(active, dense, ctx + " (dense)");

    EXPECT_EQ(active.stats.links_killed, 1u) << ctx;
    EXPECT_EQ(active.stats.first_kill_cycle, 500) << ctx;
    // The network keeps delivering after the kill and recovers: one link
    // of a 37-chiplet HexaMesh is nowhere near the bisection at 0.25.
    EXPECT_GT(active.stats.pre_fault_rate, 0.0) << ctx;
    EXPECT_GT(active.stats.degraded_rate, 0.0) << ctx;
    EXPECT_TRUE(active.stats.recovered) << ctx;
    EXPECT_GT(active.stats.recovery_cycles, 0) << ctx;
    EXPECT_GT(active.ejected, 0u) << ctx;
  }
}

TEST(Faults, RecoversFromOneKillAtLightLoad) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  const auto edge = first_non_bridge(g);
  SimConfig cfg;
  cfg.seed = 3;

  const FaultPlan plan = kill_link_plan(edge.first, edge.second, 500);
  const Observed obs = run_faulted(g, cfg, plan, 0.2, 1000, 6000);
  ASSERT_TRUE(obs.stats.recovered);
  EXPECT_GT(obs.stats.recovery_cycles, 0);
  // Window rates carry generation shot noise, so the degraded rate can
  // nose slightly above the pre-fault baseline at light load — it just
  // must not be wildly off.
  EXPECT_LE(obs.stats.degraded_rate, obs.stats.pre_fault_rate * 1.1);
}

TEST(Faults, RecoveryIsCountedInWholeWindowsFromTheKill) {
  // Kills off a window boundary: the window in progress at the kill holds
  // pre-kill cycles, so it must not count toward recovery. Recovery then
  // spans whole windows from the kill, in both stepping modes.
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 37).graph();
  const auto edge = first_non_bridge(g);
  for (const Cycle kill_at : {Cycle{300}, Cycle{700}, Cycle{1100}}) {
    const FaultPlan plan = kill_link_plan(edge.first, edge.second, kill_at);
    ASSERT_NE(kill_at % kRecoveryWindow, 0);
    SimConfig cfg;
    cfg.seed = 13;
    cfg.skip_idle = true;
    const Observed active = run_faulted(g, cfg, plan);
    cfg.skip_idle = false;
    const Observed dense = run_faulted(g, cfg, plan);
    const std::string ctx = "kill_at=" + std::to_string(kill_at);
    expect_same(active, dense, ctx);
    ASSERT_TRUE(active.stats.recovered) << ctx;
    EXPECT_GT(active.stats.recovery_cycles, 0) << ctx;
    EXPECT_EQ(active.stats.recovery_cycles % kRecoveryWindow, 0)
        << ctx << " recovery_cycles=" << active.stats.recovery_cycles;
  }
}

TEST(Faults, RepairRestoresTheLink) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  const auto edge = first_non_bridge(g);
  SimConfig cfg;
  cfg.seed = 5;

  const FaultPlan plan =
      kill_link_plan(edge.first, edge.second, 400, /*repair_at=*/1400);
  const Observed obs = run_faulted(g, cfg, plan, 0.25, 1000, 5000);
  EXPECT_EQ(obs.stats.links_killed, 1u);
  EXPECT_EQ(obs.stats.repairs, 1u);
  EXPECT_TRUE(obs.stats.recovered);
}

TEST(Faults, StormRunsCleanAcrossSkipModes) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  FaultScenarioSpec spec;
  spec.storm_kills = 3;
  spec.seed = 21;
  spec.kill_at = 400;
  spec.storm_spacing = 300;
  const auto plans = spec.plans_for(g);
  ASSERT_EQ(plans.size(), 1u);

  SimConfig cfg;
  cfg.seed = 17;
  cfg.skip_idle = true;
  const Observed active = run_faulted(g, cfg, plans[0], 0.2, 1000, 4000);
  cfg.skip_idle = false;
  const Observed dense = run_faulted(g, cfg, plans[0], 0.2, 1000, 4000);
  expect_same(active, dense, "storm");
  EXPECT_EQ(active.stats.links_killed, 3u);
}

TEST(Faults, SecondResilienceRunOnOneSimulatorThrows) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 7).graph();
  SimConfig cfg;
  Simulator sim(g, cfg);
  sim.run_resilience(0.1, FaultPlan{}, 200, 400);
  EXPECT_THROW(sim.run_resilience(0.1, FaultPlan{}, 200, 400),
               std::logic_error);
}

// --- Evaluator + export integration -----------------------------------------

hm::core::EvaluationParams quick_fault_params() {
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
  return params;
}

TEST(FaultsEvaluator, PopulatesFaultFieldsDeterministically) {
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 13);
  const auto params = quick_fault_params();

  const auto sequential = hm::core::evaluate(arr, params);
  EXPECT_EQ(sequential.fault_plans_run, 2u);
  EXPECT_GT(sequential.fault_degraded_throughput, 0.0);
  EXPECT_GT(sequential.fault_robust_throughput_bps, 0.0);
  EXPECT_LE(sequential.fault_robust_throughput_bps,
            sequential.full_global_bandwidth_bps);

  // The parallel executor fans the resilience runs out with the other
  // probes; the result must stay bit-identical (fixed plan order, fresh
  // deterministically seeded simulator per plan).
  hm::explore::ThreadPool pool(4);
  const auto parallel = hm::core::evaluate(arr, params, {}, &pool);
  EXPECT_EQ(sequential.fault_plans_run, parallel.fault_plans_run);
  EXPECT_EQ(sequential.fault_degraded_throughput,
            parallel.fault_degraded_throughput);
  EXPECT_EQ(sequential.fault_robust_throughput_bps,
            parallel.fault_robust_throughput_bps);
  EXPECT_EQ(sequential.fault_recovery_cycles, parallel.fault_recovery_cycles);
  EXPECT_EQ(sequential.fault_packets_lost, parallel.fault_packets_lost);
}

TEST(FaultsEvaluator, ExportGrowsFaultColumnsOnlyWhenEnabled) {
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 7);
  auto params = quick_fault_params();
  params.faults = {};  // fault-free first

  hm::explore::SweepRecord rec;
  rec.point.type = ArrangementType::kHexaMesh;
  rec.point.chiplet_count = 7;
  rec.point.params = params;
  rec.result = hm::core::evaluate_analytic(arr, params);
  std::vector<hm::explore::SweepRecord> records{rec};

  const std::string plain_csv = hm::explore::to_csv(records);
  EXPECT_EQ(plain_csv.find("fault_"), std::string::npos);
  EXPECT_EQ(hm::explore::to_json(records).find("fault_"), std::string::npos);

  records[0].point.params.faults.single_link_kills = 2;
  const std::string fault_csv = hm::explore::to_csv(records);
  EXPECT_NE(fault_csv.find("fault_robust_throughput_bps"), std::string::npos);
  EXPECT_NE(hm::explore::to_json(records).find("\"fault_plans_run\": 0"),
            std::string::npos);
}

}  // namespace
