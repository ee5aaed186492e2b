// Tests for the shared immutable topology layer: the context intern cache,
// the build-once contract of evaluate()/find_saturation()/sweep jobs, the
// ring-buffer hot path (flit conservation under saturation), and result
// equivalence between simulators sharing one TopologyContext and simulators
// on private copies — including concurrent sharing.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "graph/graph.hpp"
#include "noc/ring_buffer.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"

namespace {

using hm::graph::Graph;
using hm::noc::RingQueue;
using hm::noc::RoutingTables;
using hm::noc::SimConfig;
using hm::noc::Simulator;
using hm::noc::TopologyContext;

Graph ring_graph(std::size_t n) {
  Graph g(n);
  for (hm::graph::NodeId v = 0; v < n; ++v) {
    g.add_edge(v, static_cast<hm::graph::NodeId>((v + 1) % n));
  }
  return g;
}

// --- RingQueue -----------------------------------------------------------------

TEST(RingQueue, FifoWithWraparound) {
  RingQueue<int> q;
  q.reserve(4);
  const std::size_t cap = q.capacity();
  EXPECT_GE(cap, 4u);
  // Push/pop across the wrap point several times.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10; ++round) {
    while (q.size() < cap) q.push_back(next_in++);
    EXPECT_EQ(q.capacity(), cap);  // no growth at the bound
    while (!q.empty()) {
      EXPECT_EQ(q.front(), next_out);
      q.pop_front();
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(RingQueue, GrowsBeyondReservationPreservingOrder) {
  RingQueue<int> q;
  q.reserve(2);
  // Misalign head first, then overflow the reservation.
  q.push_back(-1);
  q.pop_front();
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(q.back(), 99);
}

// --- Context cache -------------------------------------------------------------

TEST(TopologyContext, AcquireInternsStructurallyEqualGraphs) {
  const auto g = ring_graph(23);
  const auto a = TopologyContext::acquire(g);
  const auto b = TopologyContext::acquire(ring_graph(23));  // fresh object
  EXPECT_EQ(a.get(), b.get());  // same shared instance
  EXPECT_EQ(a->digest(), hm::noc::graph_digest(g));

  const auto other = TopologyContext::acquire(ring_graph(24));
  EXPECT_NE(a.get(), other.get());
}

TEST(TopologyContext, ExpiredContextsAreRebuilt) {
  const auto g = ring_graph(29);
  const TopologyContext* first = nullptr;
  {
    const auto ctx = TopologyContext::acquire(g);
    first = ctx.get();
  }  // last reference dropped; the cache holds only a weak_ptr
  const auto before = TopologyContext::lifetime_builds();
  const auto again = TopologyContext::acquire(g);
  EXPECT_EQ(TopologyContext::lifetime_builds(), before + 1);
  (void)first;
}

TEST(TopologyContext, DirectedLinksMatchGraphEdges) {
  const auto arr =
      hm::core::make_arrangement(hm::core::ArrangementType::kHexaMesh, 7);
  const auto ctx = TopologyContext::acquire(arr.graph());
  const auto links = ctx->directed_links();
  ASSERT_EQ(links.size(), 2 * arr.graph().edge_count());
  for (const auto& l : links) {
    EXPECT_TRUE(arr.graph().has_edge(l.from, l.to));
    EXPECT_EQ(arr.graph().neighbors(l.from)[l.out_port_at_from], l.to);
    EXPECT_EQ(arr.graph().neighbors(l.to)[l.in_port_at_to], l.from);
  }
}

// --- Build-once contract -------------------------------------------------------

TEST(TopologyContext, FindSaturationBuildsTablesOnce) {
  const auto g = ring_graph(9);  // not used by any other test in this binary
  SimConfig cfg;
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 300;
  opts.measure = 300;
  const auto before = RoutingTables::lifetime_builds();
  const auto result = hm::noc::find_saturation(g, cfg, opts);
  EXPECT_EQ(result.probes, 7);  // full rate + six bisection steps...
  EXPECT_EQ(RoutingTables::lifetime_builds(), before + 1);  // ...one build
}

TEST(TopologyContext, EvaluateBuildsTablesOnce) {
  const auto arr =
      hm::core::make_arrangement(hm::core::ArrangementType::kBrickwall, 11);
  hm::core::EvaluationParams params;
  params.latency_warmup = 200;
  params.latency_measure = 400;
  params.latency_drain_limit = 50000;
  params.throughput_warmup = 300;
  params.throughput_measure = 300;
  const auto before = RoutingTables::lifetime_builds();
  const auto r = hm::core::evaluate(arr, params);
  EXPECT_GT(r.saturation_fraction, 0.0);
  EXPECT_EQ(RoutingTables::lifetime_builds(), before + 1);
}

TEST(TopologyContext, EvaluateSimulationRejectsForeignContext) {
  const auto arr =
      hm::core::make_arrangement(hm::core::ArrangementType::kGrid, 4);
  hm::core::EvaluationParams params;
  const auto analytic = hm::core::evaluate_analytic(arr, params);
  const auto wrong = TopologyContext::acquire(ring_graph(17));
  EXPECT_THROW((void)hm::core::evaluate_simulation(arr, params, analytic, {},
                                             nullptr, wrong),
               std::invalid_argument);
  EXPECT_THROW((void)hm::core::evaluate_simulation(arr, params, analytic, {},
                                             nullptr, nullptr),
               std::invalid_argument);
}

// --- Shared-context equivalence ------------------------------------------------

TEST(TopologyContext, SharedContextMatchesPrivateCopies) {
  const auto arr =
      hm::core::make_arrangement(hm::core::ArrangementType::kHexaMesh, 12);
  SimConfig cfg;
  const auto shared = TopologyContext::acquire(arr.graph());

  auto run = [&](std::shared_ptr<const TopologyContext> topo) {
    Simulator sim(std::move(topo), cfg);
    return sim.run_throughput(0.6, 800, 800);
  };

  // Two simulators sharing one context vs two private (uncached) builds.
  const auto shared_a = run(shared);
  const auto shared_b = run(shared);
  const auto private_a =
      run(std::make_shared<const TopologyContext>(arr.graph()));
  const auto private_b =
      run(std::make_shared<const TopologyContext>(arr.graph()));

  EXPECT_EQ(shared_a.accepted_flit_rate, shared_b.accepted_flit_rate);
  EXPECT_EQ(shared_a.accepted_flit_rate, private_a.accepted_flit_rate);
  EXPECT_EQ(shared_a.generated_flit_rate, private_b.generated_flit_rate);
  EXPECT_EQ(shared_a.dropped_packets, private_a.dropped_packets);
}

TEST(TopologyContext, ConcurrentSimulatorsOnOneContextMatchSequential) {
  const auto arr =
      hm::core::make_arrangement(hm::core::ArrangementType::kBrickwall, 9);
  const auto shared = TopologyContext::acquire(arr.graph());

  // Sequential reference runs, each at a distinct seed, on private tables.
  std::vector<hm::noc::ThroughputResult> expected(4);
  for (int i = 0; i < 4; ++i) {
    SimConfig cfg;
    cfg.seed = 1000 + static_cast<unsigned long long>(i);
    Simulator sim(std::make_shared<const TopologyContext>(arr.graph()), cfg);
    expected[static_cast<std::size_t>(i)] = sim.run_throughput(0.8, 600, 600);
  }

  // The same runs concurrently, all sharing one immutable context.
  std::vector<hm::noc::ThroughputResult> actual(4);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      SimConfig cfg;
      cfg.seed = 1000 + static_cast<unsigned long long>(i);
      Simulator sim(shared, cfg);
      actual[static_cast<std::size_t>(i)] = sim.run_throughput(0.8, 600, 600);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < 4; ++i) {
    const auto& e = expected[static_cast<std::size_t>(i)];
    const auto& a = actual[static_cast<std::size_t>(i)];
    EXPECT_EQ(e.accepted_flit_rate, a.accepted_flit_rate) << "seed " << i;
    EXPECT_EQ(e.generated_flit_rate, a.generated_flit_rate) << "seed " << i;
    EXPECT_EQ(e.dropped_packets, a.dropped_packets) << "seed " << i;
  }
}

// --- Ring-buffer hot path ------------------------------------------------------

TEST(RingRouter, FlitConservationUnderSaturation) {
  const auto arr =
      hm::core::make_arrangement(hm::core::ArrangementType::kHexaMesh, 19);
  SimConfig cfg;
  Simulator sim(arr.graph(), cfg);
  hm::noc::SyntheticTraffic traffic({}, sim.network().num_endpoints(), 1.0,
                                    cfg.packet_length);
  traffic.bind(7, 0);
  std::vector<hm::noc::Packet> due;
  hm::noc::Cycle now = 0;
  std::string why;
  for (int c = 0; c < 3000; ++c) {
    due.clear();
    traffic.generate_due(now, due);
    for (const auto& p : due) {
      (void)sim.network().offer_packet(p.src_endpoint, p);
    }
    sim.network().step(now);
    ++now;
    if (c % 500 == 0) {
      ASSERT_TRUE(sim.network().invariants_ok(&why)) << "cycle " << c << ": "
                                                     << why;
    }
  }
  ASSERT_TRUE(sim.network().invariants_ok(&why)) << why;
  EXPECT_EQ(sim.network().total_flits_injected(),
            sim.network().total_flits_ejected() +
                sim.network().flits_in_network());
  EXPECT_GT(sim.network().total_flits_ejected(), 0u);
}

}  // namespace
