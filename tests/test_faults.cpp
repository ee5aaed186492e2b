// Pins fault injection & degraded-mode resilience:
//
//  - FaultPlan validation rejects malformed schedules up front (unordered
//    times, bad ids, duplicate kills, repairs of healthy components, and
//    disconnecting cuts unless allow_partition is set).
//  - An armed-but-empty plan is bit-identical to an unarmed run: arming the
//    controller must cost exactly nothing in behavior.
//  - A mid-run link kill on the paper's HexaMesh completes without deadlock
//    or flit leak (conservation: injected == ejected + in-network +
//    dropped), deterministically across skip-idle modes, reconvergence
//    windows and repeated runs.
//  - Recovery metrics behave: finite recovery time at a survivable kill,
//    monotone in the recovery threshold, degraded rate <= pre-fault rate.
//  - Router kills and allowed partitions power endpoints down (offered
//    traffic suppressed, never leaked) and repairs bring them back.
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
using hm::faults::ResilienceStats;
using hm::graph::Graph;
using hm::graph::NodeId;
using hm::noc::Cycle;
using hm::noc::SimConfig;
using hm::noc::Simulator;

/// Path graph 0-1-2: every edge is a bridge, node 1 is a cut vertex.
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

/// First router whose removal keeps the remaining graph connected.
NodeId first_removable_router(const Graph& g) {
  for (NodeId r = 0; r < g.node_count(); ++r) {
    FaultPlan plan;
    plan.events.push_back(FaultEvent{100, FaultKind::kRouterKill, r, 0});
    try {
      plan.validate(g);
      return r;
    } catch (const std::invalid_argument&) {
    }
  }
  throw std::logic_error("no removable router");
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
    FaultPlan plan;
    plan.events.push_back(FaultEvent{100, FaultKind::kRouterKill, 99, 0});
    EXPECT_THROW(plan.validate(g), std::invalid_argument);
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
    dup.allow_partition = true;  // isolate the duplicate-kill rule
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

TEST(FaultPlanValidation, BridgeCutsNeedAllowPartition) {
  const Graph g = path3();
  FaultPlan plan = kill_link_plan(0, 1, 100);
  EXPECT_THROW(plan.validate(g), std::invalid_argument);
  plan.allow_partition = true;
  EXPECT_NO_THROW(plan.validate(g));

  FaultPlan cut_vertex;
  cut_vertex.events.push_back(FaultEvent{100, FaultKind::kRouterKill, 1, 0});
  EXPECT_THROW(cut_vertex.validate(g), std::invalid_argument);
  cut_vertex.allow_partition = true;
  EXPECT_NO_THROW(cut_vertex.validate(g));
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
  EXPECT_EQ(x.stats.packets_unroutable, y.stats.packets_unroutable) << ctx;
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

TEST(Faults, RecoveryTimeIsMonotoneInThreshold) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  const auto edge = first_non_bridge(g);
  SimConfig cfg;
  cfg.seed = 3;

  Cycle prev_recovery = 0;
  for (const double threshold : {0.5, 0.9}) {
    FaultPlan plan = kill_link_plan(edge.first, edge.second, 500);
    plan.recovery_threshold = threshold;
    const Observed obs = run_faulted(g, cfg, plan, 0.2, 1000, 6000);
    ASSERT_TRUE(obs.stats.recovered) << "threshold=" << threshold;
    EXPECT_GE(obs.stats.recovery_cycles, prev_recovery)
        << "threshold=" << threshold;
    // Window rates carry generation shot noise, so the degraded rate can
    // nose slightly above the pre-fault baseline at light load — it just
    // must not be wildly off.
    EXPECT_LE(obs.stats.degraded_rate, obs.stats.pre_fault_rate * 1.1)
        << "threshold=" << threshold;
    prev_recovery = obs.stats.recovery_cycles;
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

TEST(Faults, RouterKillSuppressesItsEndpoints) {
  const Graph g = make_arrangement(ArrangementType::kHexaMesh, 19).graph();
  const NodeId victim = first_removable_router(g);
  SimConfig cfg;
  cfg.seed = 9;

  FaultPlan plan;
  plan.events.push_back(FaultEvent{500, FaultKind::kRouterKill, victim, 0});

  Simulator sim(g, cfg);
  const ResilienceStats stats = sim.run_resilience(0.2, plan, 1000, 4000);
  EXPECT_EQ(stats.routers_killed, 1u);
  // Uniform traffic keeps addressing the dead router's endpoints, so
  // suppression must be visible; the dying router's own queued load is
  // flushed at the transition.
  EXPECT_GT(stats.packets_unroutable, 0u);
  for (std::size_t e = 0; e < sim.network().num_endpoints(); ++e) {
    const bool on_victim =
        e / static_cast<std::size_t>(cfg.endpoints_per_chiplet) == victim;
    EXPECT_EQ(sim.network().endpoint_alive(e), !on_victim) << "e=" << e;
  }
  std::string why;
  EXPECT_TRUE(sim.network().invariants_ok(&why)) << why;
  EXPECT_EQ(sim.network().total_flits_injected(),
            sim.network().total_flits_ejected() +
                sim.network().flits_in_network() +
                sim.network().flits_dropped());
}

TEST(Faults, AllowedPartitionPowersTheIslandDown) {
  // 2x3 grid path-cut: killing both rungs of one column splits off a
  // 2-router island. The principal component keeps running; the island
  // goes dark without leaking a flit.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(0, 3);
  g.add_edge(1, 4);
  g.add_edge(2, 5);

  FaultPlan plan;
  plan.allow_partition = true;
  plan.events.push_back(FaultEvent{500, FaultKind::kLinkKill, 1, 2});
  plan.events.push_back(FaultEvent{500, FaultKind::kLinkKill, 4, 5});
  plan.validate(g);

  SimConfig cfg;
  cfg.seed = 13;
  Simulator sim(g, cfg);
  const ResilienceStats stats = sim.run_resilience(0.2, plan, 1000, 4000);
  EXPECT_EQ(stats.links_killed, 2u);
  EXPECT_GT(stats.packets_unroutable, 0u);
  for (std::size_t e = 0; e < sim.network().num_endpoints(); ++e) {
    const std::size_t r =
        e / static_cast<std::size_t>(cfg.endpoints_per_chiplet);
    const bool on_island = r == 2 || r == 5;
    EXPECT_EQ(sim.network().endpoint_alive(e), !on_island) << "e=" << e;
  }
  std::string why;
  EXPECT_TRUE(sim.network().invariants_ok(&why)) << why;
  EXPECT_EQ(sim.network().total_flits_injected(),
            sim.network().total_flits_ejected() +
                sim.network().flits_in_network() +
                sim.network().flits_dropped());
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
