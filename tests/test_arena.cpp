// SimulationArena contract tests: a probe on a reset arena network must be
// bit-identical to the same probe on a fresh Network, across routing modes,
// seeds and traffic patterns; the SoA flit path must conserve flits; and
// find_saturation must return the same rates on a warm arena and through a
// parallel executor.
#include <gtest/gtest.h>

#include <vector>

#include "core/arrangement.hpp"
#include "explore/thread_pool.hpp"
#include "faults/fault_plan.hpp"
#include "noc/arena.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"

namespace {

using hm::noc::Rng;
using hm::noc::RoutingMode;
using hm::noc::SimConfig;
using hm::noc::SimulationArena;
using hm::noc::Simulator;
using hm::noc::ThroughputResult;
using hm::noc::TopologyContext;
using hm::noc::TrafficPattern;
using hm::noc::TrafficSpec;

std::shared_ptr<const TopologyContext> hexamesh_topo(std::size_t n) {
  return TopologyContext::acquire(
      hm::core::make_arrangement(hm::core::ArrangementType::kHexaMesh, n)
          .graph());
}

void expect_same(const ThroughputResult& a, const ThroughputResult& b) {
  // Bit-identical, not approximately equal: the arena reuse contract.
  EXPECT_EQ(a.offered_flit_rate, b.offered_flit_rate);
  EXPECT_EQ(a.accepted_flit_rate, b.accepted_flit_rate);
  EXPECT_EQ(a.generated_flit_rate, b.generated_flit_rate);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
}

ThroughputResult probe_fresh(std::shared_ptr<const TopologyContext> topo,
                             const SimConfig& cfg, const TrafficSpec& traffic,
                             double rate) {
  Simulator sim(std::move(topo), cfg);  // fresh Network, no arena
  sim.set_traffic(traffic);
  return sim.run_throughput(rate, 400, 400);
}

ThroughputResult probe_arena(SimulationArena& arena,
                             std::shared_ptr<const TopologyContext> topo,
                             const SimConfig& cfg, const TrafficSpec& traffic,
                             double rate) {
  Simulator sim(arena, std::move(topo), cfg);
  sim.set_traffic(traffic);
  return sim.run_throughput(rate, 400, 400);
}

// --- Reset-vs-fresh equivalence --------------------------------------------

TEST(SimulationArena, ResetProbesMatchFreshNetworksAcrossModesAndSeeds) {
  const auto topo = hexamesh_topo(9);
  const std::vector<double> rates = {1.0, 0.5, 0.25, 0.75, 0.5};  // repeats
  for (const RoutingMode mode :
       {RoutingMode::kMinimalAdaptive, RoutingMode::kDeterministicMinimal,
        RoutingMode::kUpDownOnly}) {
    for (const unsigned long long seed : {1ULL, 42ULL, 1234ULL}) {
      SimConfig cfg;
      cfg.routing = mode;
      cfg.seed = seed;
      SimulationArena arena(2);
      for (const double rate : rates) {
        const auto fresh = probe_fresh(topo, cfg, TrafficSpec{}, rate);
        const auto reused = probe_arena(arena, topo, cfg, TrafficSpec{}, rate);
        expect_same(fresh, reused);
      }
      // Every probe after the first hit the arena.
      EXPECT_EQ(arena.stats().networks_built, 1u);
      EXPECT_EQ(arena.stats().networks_reused, rates.size() - 1);
    }
  }
}

TEST(SimulationArena, ResetClearsDirtyStateFromDifferentTraffic) {
  const auto topo = hexamesh_topo(9);
  SimConfig cfg;
  SimulationArena arena(2);

  // Saturate with hotspot traffic first: the released network is full of
  // in-flight flits, queued packets and nonzero statistics.
  TrafficSpec hotspot;
  hotspot.pattern = TrafficPattern::kHotspot;
  hotspot.hotspot_fraction = 0.4;
  (void)probe_arena(arena, topo, cfg, hotspot, 1.0);

  // A reused (reset) network must reproduce a fresh network bit for bit.
  const auto fresh = probe_fresh(topo, cfg, TrafficSpec{}, 0.6);
  const auto reused = probe_arena(arena, topo, cfg, TrafficSpec{}, 0.6);
  expect_same(fresh, reused);
  EXPECT_GE(arena.stats().networks_reused, 1u);
}

TEST(SimulationArena, LatencyRunsMatchFresh) {
  const auto topo = hexamesh_topo(7);
  SimConfig cfg;
  SimulationArena arena(2);
  (void)probe_arena(arena, topo, cfg, TrafficSpec{}, 1.0);  // dirty the slot

  Simulator fresh(topo, cfg);
  fresh.set_traffic(TrafficSpec{});
  const auto a = fresh.run_latency(0.05, 300, 600, 60000);

  Simulator reused(arena, topo, cfg);
  reused.set_traffic(TrafficSpec{});
  const auto b = reused.run_latency(0.05, 300, 600, 60000);

  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.drained, b.drained);
}

// --- Arena mechanics --------------------------------------------------------

TEST(SimulationArena, SeedIsNotPartOfTheReuseKey) {
  const auto topo = hexamesh_topo(4);
  SimConfig cfg;
  SimulationArena arena(2);
  cfg.seed = 1;
  (void)probe_arena(arena, topo, cfg, TrafficSpec{}, 0.5);
  cfg.seed = 2;  // different RNG stream, same network structure
  (void)probe_arena(arena, topo, cfg, TrafficSpec{}, 0.5);
  EXPECT_EQ(arena.stats().networks_built, 1u);
  EXPECT_EQ(arena.stats().networks_reused, 1u);
}

TEST(SimulationArena, StructuralConfigChangeMisses) {
  const auto topo = hexamesh_topo(4);
  SimConfig cfg;
  SimulationArena arena(4);
  (void)probe_arena(arena, topo, cfg, TrafficSpec{}, 0.5);
  cfg.vcs = 4;  // different network structure
  (void)probe_arena(arena, topo, cfg, TrafficSpec{}, 0.5);
  EXPECT_EQ(arena.stats().networks_built, 2u);
  EXPECT_EQ(arena.stats().networks_reused, 0u);
}

TEST(SimulationArena, ConcurrentLeasesFallBackToOneOffNetworks) {
  const auto topo = hexamesh_topo(4);
  const SimConfig cfg;
  SimulationArena arena(1);  // one slot
  auto first = arena.lease(topo, cfg);
  ASSERT_TRUE(first.valid());
  EXPECT_TRUE(first.arena_backed());
  auto second = arena.lease(topo, cfg);  // slot checked out -> one-off
  ASSERT_TRUE(second.valid());
  EXPECT_FALSE(second.arena_backed());
  EXPECT_NE(&first.network(), &second.network());
  EXPECT_EQ(arena.stats().oneoff_networks, 1u);

  // Releasing the first lease frees the slot for reuse.
  first = SimulationArena::Lease{};
  auto third = arena.lease(topo, cfg);
  EXPECT_TRUE(third.arena_backed());
  EXPECT_EQ(arena.stats().networks_reused, 1u);
}

TEST(SimulationArena, PacketTableRestartsPerReset) {
  const auto topo = hexamesh_topo(4);
  const SimConfig cfg;
  SimulationArena arena(1);
  {
    Simulator sim(arena, topo, cfg);
    sim.set_traffic(TrafficSpec{});
    (void)sim.run_throughput(0.5, 200, 200);
    EXPECT_GT(sim.network().packets().size(), 0u);
  }
  auto lease = arena.lease(topo, cfg);  // reset happens at checkout
  EXPECT_EQ(lease.network().packets().size(), 0u);
}

// --- Flit conservation on the SoA path --------------------------------------

TEST(SimulationArena, SoaPathConservesFlits) {
  const auto topo = hexamesh_topo(9);
  SimConfig cfg;
  SimulationArena arena(1);
  for (int round = 0; round < 2; ++round) {  // round 2 runs on a reset net
    Simulator sim(arena, topo, cfg);
    sim.set_traffic(TrafficSpec{});
    (void)sim.run_throughput(1.0, 500, 500);  // saturated: full buffers
    std::string why;
    EXPECT_TRUE(sim.network().invariants_ok(&why)) << why;
    EXPECT_EQ(sim.network().total_flits_injected(),
              sim.network().total_flits_ejected() +
                  sim.network().flits_in_network());
  }
}

// --- find_saturation integration --------------------------------------------

TEST(SimulationArena, FindSaturationIsStableAcrossRepeatsAndExecutors) {
  const auto topo = hexamesh_topo(9);
  SimConfig cfg;
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 400;
  opts.measure = 400;

  const auto sequential = find_saturation(topo, cfg, opts);
  // Repeat on the (now warm) thread-local arena: same result bit for bit.
  const auto repeated = find_saturation(topo, cfg, opts);
  EXPECT_EQ(sequential.saturation_flit_rate, repeated.saturation_flit_rate);
  EXPECT_EQ(sequential.accepted_flit_rate, repeated.accepted_flit_rate);

  // Speculative parallel search through the pool: identical rates (the
  // executor only changes scheduling, never results).
  hm::explore::ThreadPool pool(4);
  const auto parallel = find_saturation(topo, cfg, opts, TrafficSpec{}, &pool);
  EXPECT_EQ(sequential.saturation_flit_rate, parallel.saturation_flit_rate);
  EXPECT_EQ(sequential.accepted_flit_rate, parallel.accepted_flit_rate);
}

TEST(SimulationArena, ResetRewindsFaultMutatedWiring) {
  // A resilience run unwires killed links, zeroes their credits, powers
  // routers/endpoints down and installs degraded routing tables. A network
  // recycled after that history must still reproduce a fresh network bit
  // for bit — reset() has to rewind the wiring itself, not just buffers.
  const auto topo = hexamesh_topo(19);
  SimConfig cfg;
  cfg.seed = 29;
  SimulationArena arena(2);

  {
    hm::faults::FaultScenarioSpec spec;
    spec.storm_kills = 3;
    spec.seed = 8;
    spec.kill_at = 300;
    spec.storm_spacing = 250;
    const auto plans = spec.plans_for(topo->graph());
    ASSERT_EQ(plans.size(), 1u);
    Simulator sim(arena, topo, cfg);
    (void)sim.run_resilience(0.25, plans[0], 500, 1500);
    EXPECT_GT(sim.network().flits_dropped(), 0u);  // faults actually bit
  }

  const auto fresh = probe_fresh(topo, cfg, TrafficSpec{}, 0.5);
  const auto reused = probe_arena(arena, topo, cfg, TrafficSpec{}, 0.5);
  expect_same(fresh, reused);
  EXPECT_GE(arena.stats().networks_reused, 1u);
}

}  // namespace
