// Micro-validation of the cycle-accurate NoC: exact hand-computed zero-load
// latencies on tiny topologies, credit backpressure, conservation and
// invariants, plus config validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/grid.hpp"
#include "graph/graph.hpp"
#include "noc/network.hpp"
#include "noc/simulator.hpp"

namespace {

using hm::graph::Graph;
using hm::noc::Cycle;
using hm::noc::Network;
using hm::noc::Packet;
using hm::noc::Rng;
using hm::noc::SimConfig;
using hm::noc::SyntheticTraffic;

Graph two_chiplets() {
  Graph g(2);
  g.add_edge(0, 1);
  return g;
}

/// Steps the network until `cycle` (exclusive).
void run_until(Network& net, Cycle& now, Cycle cycle) {
  while (now < cycle) {
    net.step(now);
    ++now;
  }
}

SimConfig default_config() {
  SimConfig cfg;  // paper defaults: 3-cycle router, 27-cycle link, 8 VCs
  return cfg;
}

TEST(ConfigValidation, RejectsBadValues) {
  SimConfig cfg;
  cfg.vcs = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.buffer_depth = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.link_latency = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.packet_length = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(SimConfig{}.validate());
}

TEST(NetworkBuild, CountsMatchGraph) {
  const auto arr = hm::core::make_grid(9);
  Network net(arr.graph(), default_config());
  EXPECT_EQ(net.num_routers(), 9u);
  EXPECT_EQ(net.num_endpoints(), 18u);
}

// --- Exact zero-load latencies ------------------------------------------------
//
// Timeline for a single flit, single hop (all queues empty):
//   cycle 0: endpoint injects          -> arrives at router at 1
//   cycle 4: head ready (1 + router_latency) -> departs onto D2D link
//   cycle 31: arrives at remote router (4 + 27)
//   cycle 34: ready -> departs onto ejection link
//   cycle 35: ejected. Latency = 35 - 0.

TEST(ZeroLoad, SingleFlitOneHopExactLatency) {
  SimConfig cfg = default_config();
  cfg.packet_length = 1;
  Network net(two_chiplets(), cfg);
  net.endpoint(0).set_measurement_window(0, 1000);

  Packet p;
  p.id = 1;
  p.src_endpoint = 0;
  p.dst_endpoint = 2;  // first endpoint of chiplet 1
  p.length = 1;
  p.gen_time = 0;
  ASSERT_TRUE(net.offer_packet(0, p));

  Cycle now = 0;
  run_until(net, now, 100);
  ASSERT_EQ(net.endpoint(2).sink().packets_ejected, 1u);
  // Latency is recorded at the destination endpoint.
  net.endpoint(2).set_measurement_window(0, 1000);
  EXPECT_EQ(net.total_flits_ejected(), 1u);
}

TEST(ZeroLoad, LatencyValueOneHop) {
  SimConfig cfg = default_config();
  cfg.packet_length = 1;
  Network net(two_chiplets(), cfg);
  net.endpoint(2).set_measurement_window(0, 1000);

  Packet p;
  p.id = 1;
  p.src_endpoint = 0;
  p.dst_endpoint = 2;
  p.length = 1;
  p.gen_time = 0;
  ASSERT_TRUE(net.offer_packet(0, p));

  Cycle now = 0;
  run_until(net, now, 100);
  ASSERT_EQ(net.endpoint(2).sink().tagged_packets, 1u);
  const Cycle expected = 1 + cfg.router_latency      // source router
                         + cfg.link_latency          // D2D link
                         + cfg.router_latency        // remote router
                         + cfg.ejection_link_latency;  // 1+3+27+3+1 = 35
  EXPECT_EQ(net.endpoint(2).sink().tagged_latency_sum,
            static_cast<std::uint64_t>(expected));
}

TEST(ZeroLoad, LatencyValueLocalDelivery) {
  // Same chiplet, endpoint 0 -> endpoint 1: 1 (inject) + 3 (router) + 1
  // (ejection) = 5 cycles.
  SimConfig cfg = default_config();
  cfg.packet_length = 1;
  Network net(two_chiplets(), cfg);
  net.endpoint(1).set_measurement_window(0, 1000);

  Packet p;
  p.id = 7;
  p.src_endpoint = 0;
  p.dst_endpoint = 1;
  p.length = 1;
  p.gen_time = 0;
  ASSERT_TRUE(net.offer_packet(0, p));

  Cycle now = 0;
  run_until(net, now, 50);
  ASSERT_EQ(net.endpoint(1).sink().tagged_packets, 1u);
  EXPECT_EQ(net.endpoint(1).sink().tagged_latency_sum, 5u);
}

TEST(ZeroLoad, MultiFlitPacketAddsSerialization) {
  // A 4-flit packet's tail trails the head by 3 cycles everywhere.
  SimConfig cfg = default_config();
  cfg.packet_length = 4;
  Network net(two_chiplets(), cfg);
  net.endpoint(2).set_measurement_window(0, 1000);

  Packet p;
  p.id = 1;
  p.src_endpoint = 0;
  p.dst_endpoint = 2;
  p.length = 4;
  p.gen_time = 0;
  ASSERT_TRUE(net.offer_packet(0, p));

  Cycle now = 0;
  run_until(net, now, 100);
  ASSERT_EQ(net.endpoint(2).sink().tagged_packets, 1u);
  EXPECT_EQ(net.endpoint(2).sink().tagged_latency_sum, 35u + 3u);
}

TEST(ZeroLoad, TwoHopPathLatency) {
  // 0 - 1 - 2 path graph; endpoint 0 (chiplet 0) -> endpoint 4 (chiplet 2):
  // 1 + 3 + 27 + 3 + 27 + 3 + 1 = 65.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  SimConfig cfg = default_config();
  cfg.packet_length = 1;
  Network net(g, cfg);
  net.endpoint(4).set_measurement_window(0, 1000);

  Packet p;
  p.id = 1;
  p.src_endpoint = 0;
  p.dst_endpoint = 4;
  p.length = 1;
  p.gen_time = 0;
  ASSERT_TRUE(net.offer_packet(0, p));

  Cycle now = 0;
  run_until(net, now, 200);
  ASSERT_EQ(net.endpoint(4).sink().tagged_packets, 1u);
  EXPECT_EQ(net.endpoint(4).sink().tagged_latency_sum, 65u);
}

// --- Conservation & invariants ------------------------------------------------

TEST(Conservation, HoldsThroughoutARandomRun) {
  const auto arr = hm::core::make_grid(9);
  SimConfig cfg = default_config();
  Network net(arr.graph(), cfg);
  SyntheticTraffic traffic({}, net.num_endpoints(), 0.3, cfg.packet_length);
  traffic.bind(3, 0);
  std::vector<Packet> due;
  Cycle now = 0;
  for (; now < 2000; ++now) {
    due.clear();
    traffic.generate_due(now, due);
    for (const Packet& p : due) (void)net.offer_packet(p.src_endpoint, p);
    net.step(now);
    if (now % 250 == 0) {
      std::string why;
      ASSERT_TRUE(net.invariants_ok(&why)) << "cycle " << now << ": " << why;
    }
  }
  EXPECT_EQ(net.total_flits_injected(),
            net.total_flits_ejected() + net.flits_in_network());
  EXPECT_GT(net.total_flits_ejected(), 0u);
}

TEST(Backpressure, SourceQueueCapacityRespected) {
  SimConfig cfg = default_config();
  cfg.source_queue_capacity = 2;
  Network net(two_chiplets(), cfg);
  Packet p;
  p.src_endpoint = 0;
  p.dst_endpoint = 2;
  p.length = 4;
  EXPECT_TRUE(net.offer_packet(0, p));
  EXPECT_TRUE(net.offer_packet(0, p));
  EXPECT_FALSE(net.offer_packet(0, p));  // full
}

TEST(Backpressure, InjectionStallsWithoutCredits) {
  // With tiny buffers and a long link, the source cannot dump unboundedly.
  SimConfig cfg = default_config();
  cfg.vcs = 1;
  cfg.buffer_depth = 2;
  cfg.packet_length = 8;
  Network net(two_chiplets(), cfg);
  Packet p;
  p.src_endpoint = 0;
  p.dst_endpoint = 2;
  p.length = 8;
  net.offer_packet(0, p);
  Cycle now = 0;
  run_until(net, now, 3);
  // After 3 cycles at most buffer_depth flits can have been injected.
  EXPECT_LE(net.endpoint(0).flits_injected(),
            static_cast<std::uint64_t>(cfg.buffer_depth));
}

TEST(Simulator, LatencyRunDrainsAtLowLoad) {
  const auto arr = hm::core::make_grid(4);
  hm::noc::Simulator sim(arr.graph(), default_config());
  const auto result = sim.run_latency(0.02, 500, 2000, 50000);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.packets_measured, 0u);
  EXPECT_GT(result.avg_packet_latency, 5.0);
}

TEST(Simulator, BackToBackLatencyRunsAverageOnlyTheirOwnPackets) {
  // The sinks' tagged latency sums accumulate over every run on the
  // network; the second run must divide only its own packets' latency.
  const auto arr = hm::core::make_grid(4);
  hm::noc::Simulator sim(arr.graph(), default_config());
  const auto sink_latency_sum = [&sim] {
    std::uint64_t sum = 0;
    for (std::size_t e = 0; e < sim.network().num_endpoints(); ++e) {
      sum += sim.network().endpoint(e).sink().tagged_latency_sum;
    }
    return sum;
  };
  const auto first = sim.run_latency(0.02, 500, 2000, 50000);
  const std::uint64_t after_first = sink_latency_sum();
  const auto second = sim.run_latency(0.02, 500, 2000, 50000);
  ASSERT_TRUE(first.drained);
  ASSERT_TRUE(second.drained);
  ASSERT_GT(second.packets_measured, 0u);
  EXPECT_EQ(second.avg_packet_latency,
            static_cast<double>(sink_latency_sum() - after_first) /
                static_cast<double>(second.packets_measured));
  // Same load, fresh traffic streams: the averages agree closely, where
  // dividing the lifetime sum would nearly double the second one.
  EXPECT_NEAR(second.avg_packet_latency, first.avg_packet_latency,
              0.2 * first.avg_packet_latency);
}

TEST(Simulator, ThroughputBoundedByCapacity) {
  const auto arr = hm::core::make_grid(4);
  hm::noc::Simulator sim(arr.graph(), default_config());
  const auto result = sim.run_throughput(1.0, 2000, 2000);
  EXPECT_GT(result.accepted_flit_rate, 0.0);
  EXPECT_LE(result.accepted_flit_rate, 1.0);
}

TEST(Simulator, AcceptedTracksOfferedBelowSaturation) {
  const auto arr = hm::core::make_grid(4);
  hm::noc::Simulator sim(arr.graph(), default_config());
  const auto result = sim.run_throughput(0.05, 2000, 4000);
  EXPECT_NEAR(result.accepted_flit_rate, 0.05, 0.01);
}

TEST(Traffic, RatesAndDestinations) {
  SyntheticTraffic traffic({}, 10, 0.5, 4);
  traffic.bind(11, 0);
  std::vector<Packet> packets;
  for (Cycle t = 0; t < 20000; ++t) traffic.generate_due(t, packets);
  std::size_t generated = 0;
  Cycle last = -1;
  for (const Packet& p : packets) {
    if (p.src_endpoint != 3) continue;
    ++generated;
    // Stamped with the cycle it was generated in; one attempt per cycle.
    EXPECT_GT(p.gen_time, last);
    EXPECT_LT(p.gen_time, 20000);
    last = p.gen_time;
    EXPECT_NE(p.dst_endpoint, 3u);  // never self
    EXPECT_LT(p.dst_endpoint, 10u);
    EXPECT_EQ(p.length, 4u);
  }
  // Packet rate = 0.5 / 4 = 0.125; expect ~2500 +- noise.
  EXPECT_NEAR(static_cast<double>(generated), 2500.0, 200.0);
}

TEST(Traffic, InvalidParamsRejected) {
  EXPECT_THROW(SyntheticTraffic({}, 1, 0.5, 4), std::invalid_argument);
  EXPECT_THROW(SyntheticTraffic({}, 4, 1.5, 4), std::invalid_argument);
  EXPECT_THROW(SyntheticTraffic({}, 4, -0.1, 4), std::invalid_argument);
  EXPECT_THROW(SyntheticTraffic({}, 4, 0.5, 0), std::invalid_argument);
}

TEST(Rng, DeterministicAndUniform) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
