// Pins the two perf contracts of the skip-idle/active-set work:
//
//  1. Active-set stepping (SimConfig::skip_idle, the default) is an
//     optimization, never a behavior change: measurement results and flit
//     accounting are bit-identical to the dense reference sweep across
//     channel latencies (the delivery calendar's geometry), routing modes,
//     seeds and traffic patterns — including the quiescence fast-forward
//     (which must actually engage at low load).
//  2. The saturation search probes the fixed grid k / 64 and returns a
//     local knee of it: a stable point (or 0) whose next grid step up is
//     unstable (or the point is 1.0). Where probe outcomes are monotone
//     every estimate, and no estimate, gives the same answer, within a
//     bounded probe budget when the analytic estimate is wired in; where
//     they are not, different seeds may stop at different knees. A
//     parallel executor never changes the answer.
//
// Plus: Network::reset() clears the active-set state (the arena recycles
// networks through reset(); stale worklists or calendar entries would
// violate the skip-mode exactness invariants and resurrect ghost work).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/thread_pool.hpp"
#include "noc/network.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace {

using hm::core::ArrangementType;
using hm::core::make_arrangement;
using hm::noc::Cycle;
using hm::noc::Network;
using hm::noc::Packet;
using hm::noc::RoutingMode;
using hm::noc::SimConfig;
using hm::noc::Simulator;
using hm::noc::TrafficPattern;
using hm::noc::TrafficSpec;

TrafficSpec hotspot_spec() {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 0.3;
  spec.hotspots = {0, 3};
  return spec;
}

/// A network and the channel latencies the dense comparison runs it with.
/// The latencies set the delivery calendar's geometry: 1-cycle links, the
/// defaults (a 32-bucket wheel), and 45-cycle links (64 buckets, so an
/// arrival wraps past a 32-slot horizon) with unequal endpoint-channel
/// latencies, where ejections and injections pushed in different cycles
/// arrive in the same one. The HexaMesh case is the zero-load latency run
/// of every latency-objective search step (perfbench's search-latency).
struct Shape {
  const char* name;
  ArrangementType type;
  std::size_t chiplets;
  int link_latency;
  int injection_latency;
  int ejection_latency;
  double latency_rate;
  Cycle warmup;
  Cycle measure;
};

const SimConfig kDefaults;
const Shape kShapes[] = {
    {"grid9 default latencies", ArrangementType::kGrid, 9,
     kDefaults.link_latency, kDefaults.injection_link_latency,
     kDefaults.ejection_link_latency, 0.05, 200, 500},
    {"grid9 link=1", ArrangementType::kGrid, 9, 1, 1, 1, 0.05, 200, 500},
    {"grid9 link=45 inj=2 ej=3", ArrangementType::kGrid, 9, 45, 2, 3, 0.05,
     200, 500},
    {"hexamesh37 rate=0.01 1000+3000", ArrangementType::kHexaMesh, 37,
     kDefaults.link_latency, kDefaults.injection_link_latency,
     kDefaults.ejection_link_latency, 0.01, 1000, 3000},
};

/// One full measurement pass (latency run then throughput run on the same
/// Simulator, like evaluate() does) with everything observable captured.
struct RunObservation {
  hm::noc::LatencyResult latency;
  hm::noc::ThroughputResult throughput;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  Network::HotStats hot;
  std::uint64_t idle_skipped = 0;
};

RunObservation observe(const Shape& shape, SimConfig cfg,
                       const TrafficSpec& traffic) {
  cfg.link_latency = shape.link_latency;
  cfg.injection_link_latency = shape.injection_latency;
  cfg.ejection_link_latency = shape.ejection_latency;
  const auto arr = make_arrangement(shape.type, shape.chiplets);
  Simulator sim(arr.graph(), cfg);
  sim.set_traffic(traffic);
  RunObservation obs;
  std::string why;
  obs.latency = sim.run_latency(shape.latency_rate, shape.warmup,
                                shape.measure, 300000);
  EXPECT_TRUE(sim.network().invariants_ok(&why)) << shape.name << ": " << why;
  obs.throughput = sim.run_throughput(0.3, 300, 300);
  EXPECT_TRUE(sim.network().invariants_ok(&why)) << shape.name << ": " << why;
  obs.flits_injected = sim.network().total_flits_injected();
  obs.flits_ejected = sim.network().total_flits_ejected();
  obs.hot = sim.network().hot_stats();
  obs.idle_skipped = sim.idle_skipped_cycles();
  return obs;
}

TEST(ActiveSet, BitIdenticalToDenseAcrossModesSeedsAndTraffic) {
  const RoutingMode modes[] = {RoutingMode::kMinimalAdaptive,
                               RoutingMode::kDeterministicMinimal,
                               RoutingMode::kUpDownOnly};
  const TrafficSpec traffics[] = {TrafficSpec{}, hotspot_spec()};
  for (const Shape& shape : kShapes) {
    for (const RoutingMode mode : modes) {
      for (const unsigned long long seed : {7ull, 42ull, 1234ull}) {
        for (const TrafficSpec& traffic : traffics) {
          SimConfig cfg;
          cfg.routing = mode;
          cfg.seed = seed;
          cfg.skip_idle = true;
          const RunObservation active = observe(shape, cfg, traffic);
          cfg.skip_idle = false;
          const RunObservation dense = observe(shape, cfg, traffic);

          const std::string ctx =
              std::string(shape.name) +
              " mode=" + std::to_string(static_cast<int>(mode)) +
              " seed=" + std::to_string(seed) + " hotspot=" +
              std::to_string(traffic.pattern == TrafficPattern::kHotspot);
          EXPECT_EQ(active.latency.avg_packet_latency,
                    dense.latency.avg_packet_latency) << ctx;
          EXPECT_EQ(active.latency.packets_measured,
                    dense.latency.packets_measured) << ctx;
          EXPECT_EQ(active.latency.drained, dense.latency.drained) << ctx;
          EXPECT_GT(active.latency.packets_measured, 0u) << ctx;
          EXPECT_EQ(active.throughput.offered_flit_rate,
                    dense.throughput.offered_flit_rate) << ctx;
          EXPECT_EQ(active.throughput.accepted_flit_rate,
                    dense.throughput.accepted_flit_rate) << ctx;
          EXPECT_EQ(active.throughput.generated_flit_rate,
                    dense.throughput.generated_flit_rate) << ctx;
          EXPECT_EQ(active.throughput.dropped_packets,
                    dense.throughput.dropped_packets) << ctx;
          EXPECT_EQ(active.flits_injected, dense.flits_injected) << ctx;
          EXPECT_EQ(active.flits_ejected, dense.flits_ejected) << ctx;
          const hm::noc::Router::HotStats& a = active.hot.routers;
          const hm::noc::Router::HotStats& d = dense.hot.routers;
          EXPECT_EQ(a.flits_routed, d.flits_routed) << ctx;
          EXPECT_EQ(a.va_stall_cycles, d.va_stall_cycles) << ctx;
          EXPECT_EQ(a.sa_conflict_stalls, d.sa_conflict_stalls) << ctx;
          EXPECT_EQ(a.sa_credit_stalls, d.sa_credit_stalls) << ctx;
          EXPECT_EQ(a.heads_revoked, d.heads_revoked) << ctx;
          EXPECT_EQ(a.ring_hwm, d.ring_hwm) << ctx;
          EXPECT_EQ(active.hot.source_queue_hwm, dense.hot.source_queue_hwm)
              << ctx;
          // The optimization must actually optimize: dense mode never
          // fast-forwards and steps every router every cycle, active mode
          // must have skipped something during the low-load latency phase.
          EXPECT_EQ(dense.idle_skipped, 0u) << ctx;
          EXPECT_GT(active.idle_skipped, 0u) << ctx;
          EXPECT_LT(active.hot.router_steps, dense.hot.router_steps) << ctx;
        }
      }
    }
  }
}

TEST(ActiveSet, ResetClearsActiveSetState) {
  const auto arr = make_arrangement(ArrangementType::kGrid, 9);
  SimConfig cfg;  // skip_idle on
  Network fresh(arr.graph(), cfg);
  Network recycled(arr.graph(), cfg);

  // Leave `recycled` mid-flight: queued packets, buffered flits, in-flight
  // link traffic — every worklist populated.
  hm::noc::SyntheticTraffic traffic({}, recycled.num_endpoints(), 0.4,
                                    cfg.packet_length);
  traffic.bind(3, 0);
  std::vector<hm::noc::Packet> due;
  for (Cycle now = 0; now < 120; ++now) {
    due.clear();
    traffic.generate_due(now, due);
    for (const auto& p : due) (void)recycled.offer_packet(p.src_endpoint, p);
    recycled.step(now);
  }
  ASSERT_FALSE(recycled.quiescent());

  recycled.reset();
  // Quiescent again (in skip-idle mode that IS "worklists and calendar
  // empty"), with the exactness invariants intact.
  EXPECT_TRUE(recycled.quiescent());
  std::string why;
  EXPECT_TRUE(recycled.invariants_ok(&why)) << why;

  // And behaviorally indistinguishable from a freshly built network: the
  // same offered traffic produces the same flit accounting cycle for cycle.
  traffic.bind(11, 0);
  for (Cycle now = 0; now < 400; ++now) {
    due.clear();
    traffic.generate_due(now, due);
    for (const auto& p : due) {
      ASSERT_EQ(fresh.offer_packet(p.src_endpoint, p),
                recycled.offer_packet(p.src_endpoint, p));
    }
    fresh.step(now);
    recycled.step(now);
  }
  EXPECT_EQ(fresh.total_flits_injected(), recycled.total_flits_injected());
  EXPECT_EQ(fresh.total_flits_ejected(), recycled.total_flits_ejected());
  EXPECT_GT(fresh.total_flits_ejected(), 0u);
}

TEST(ActiveSet, SteppingWithGapsMatchesDense) {
  // Network::step takes any non-decreasing cycle sequence: after skipped
  // cycles both modes deliver every arrival due by `now`, in arrival
  // order. The long gap outlasts a lap of the 32-bucket calendar.
  const auto arr = make_arrangement(ArrangementType::kGrid, 9);
  SimConfig cfg;
  Network active(arr.graph(), cfg);
  cfg.skip_idle = false;
  Network dense(arr.graph(), cfg);
  hm::noc::SyntheticTraffic traffic({}, active.num_endpoints(), 0.2,
                                    cfg.packet_length);
  traffic.bind(5, 0);
  std::vector<Packet> due;
  std::string why;
  for (Cycle now = 0; now < 800; ++now) {
    due.clear();
    traffic.generate_due(now, due);
    for (const auto& p : due) {
      ASSERT_EQ(active.offer_packet(p.src_endpoint, p),
                dense.offer_packet(p.src_endpoint, p));
    }
    if (now % 5 == 2 || (now >= 300 && now < 340)) continue;
    active.step(now);
    dense.step(now);
    ASSERT_TRUE(active.invariants_ok(&why)) << "cycle " << now << ": " << why;
    ASSERT_EQ(active.total_flits_ejected(), dense.total_flits_ejected())
        << "cycle " << now;
  }
  EXPECT_EQ(active.total_flits_injected(), dense.total_flits_injected());
  EXPECT_EQ(active.hot_stats().routers.flits_routed,
            dense.hot_stats().routers.flits_routed);
  EXPECT_GT(active.total_flits_ejected(), 0u);
}

/// Short-window saturation search options every surrogate test shares.
hm::noc::SaturationSearchOptions fast_search() {
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 400;
  opts.measure = 400;
  return opts;
}

TEST(SurrogateSearch, SameRateAsPlainBisectionForAnyEstimate) {
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 19);
  const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
  const SimConfig cfg;
  const auto opts = fast_search();

  const auto plain = hm::noc::find_saturation(topo, cfg, opts);  // no estimate
  ASSERT_GT(plain.saturation_flit_rate, 0.0);

  // Probe outcomes on this design are monotone in the rate, so any
  // estimate — spot-on, too low, too high, or at either boundary — must
  // land on the same grid point with the same accepted rate.
  for (const double estimate :
       {plain.saturation_flit_rate, 0.0, 0.05, 0.3, 0.9, 1.0}) {
    auto sopts = opts;
    sopts.surrogate_rate = estimate;
    const auto pruned = hm::noc::find_saturation(topo, cfg, sopts);
    EXPECT_EQ(pruned.saturation_flit_rate, plain.saturation_flit_rate)
        << "estimate=" << estimate;
    EXPECT_EQ(pruned.accepted_flit_rate, plain.accepted_flit_rate)
        << "estimate=" << estimate;
  }
}

TEST(SurrogateSearch, ProbeBudgetBounded) {
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 19);
  const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
  const SimConfig cfg;
  const auto opts = fast_search();
  const auto plain = hm::noc::find_saturation(topo, cfg, opts);

  // A spot-on estimate needs just the bracket check: stable at k0,
  // unstable one grid step up.
  auto exact = opts;
  exact.surrogate_rate = plain.saturation_flit_rate;
  const auto best_case = hm::noc::find_saturation(topo, cfg, exact);
  EXPECT_LE(best_case.probes, 4);

  // Without an estimate the search runs the full-rate probe plus one
  // bisection step per level of the 64-point grid: exactly 7 probes, the
  // count sat.probes.plain.* measures. A NaN estimate means no estimate.
  ASSERT_LT(plain.saturation_flit_rate, 1.0);
  EXPECT_EQ(plain.probes, 7);
  auto nan = opts;
  nan.surrogate_rate = std::numeric_limits<double>::quiet_NaN();
  const auto unseeded = hm::noc::find_saturation(topo, cfg, nan);
  EXPECT_EQ(unseeded.saturation_flit_rate, plain.saturation_flit_rate);
  EXPECT_EQ(unseeded.accepted_flit_rate, plain.accepted_flit_rate);
  EXPECT_EQ(unseeded.probes, 7);

  // The analytic estimate evaluate() wires in (core/evaluator.cpp) must
  // keep the budget at <= 6 probes — the acceptance bound.
  const hm::core::EvaluationParams eval_params;
  auto seeded = opts;
  seeded.surrogate_rate = hm::core::analytic_saturation_estimate(
      hm::core::evaluate_analytic(arr, eval_params), eval_params);
  const auto pruned = hm::noc::find_saturation(topo, cfg, seeded);
  EXPECT_EQ(pruned.saturation_flit_rate, plain.saturation_flit_rate);
  EXPECT_LE(pruned.probes, 6);
  EXPECT_LT(pruned.probes, plain.probes);

  // Estimates above 1 clamp to the top of the grid: the search they run is
  // the one 1.0 runs (scaling +inf or 1e300 unclamped overflows lround).
  auto full = opts;
  full.surrogate_rate = 1.0;
  const auto at_full = hm::noc::find_saturation(topo, cfg, full);
  for (const double estimate :
       {2.0, 1e300, std::numeric_limits<double>::infinity()}) {
    auto over = opts;
    over.surrogate_rate = estimate;
    const auto r = hm::noc::find_saturation(topo, cfg, over);
    EXPECT_EQ(r.saturation_flit_rate, at_full.saturation_flit_rate)
        << "estimate=" << estimate;
    EXPECT_EQ(r.accepted_flit_rate, at_full.accepted_flit_rate)
        << "estimate=" << estimate;
    EXPECT_EQ(r.probes, at_full.probes) << "estimate=" << estimate;
  }
}

TEST(SurrogateSearch, ReturnsALocalKneeWhenOutcomesAreNotMonotone) {
  // HexaMesh N=37 at simulator seed 20230718 with 500 + 500-cycle probes
  // is not monotone near its knee: 0.484375 (k = 31) drops packets while
  // 0.5 (k = 32) is stable. A seed below that dip stops under it, so the
  // seed can change the answer. What holds for every seed is the local
  // knee: the returned point is stable (or 0), and one grid step above it
  // is unstable (or the point is 1.0).
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 37);
  const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
  SimConfig cfg;
  cfg.seed = 20230718;
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 500;
  opts.measure = 500;
  constexpr int scale = hm::noc::kSaturationGridSteps;

  std::map<int, bool> outcomes;  // grid point k -> stable at k / scale
  auto stable_at = [&](int k) {
    if (const auto it = outcomes.find(k); it != outcomes.end()) {
      return it->second;
    }
    Simulator sim(topo, cfg);
    const auto r = sim.run_throughput(static_cast<double>(k) / scale,
                                      opts.warmup, opts.measure);
    const bool stable = r.dropped_packets == 0 &&
                        r.accepted_flit_rate >=
                            hm::noc::kSaturationStability *
                                r.generated_flit_rate;
    outcomes.emplace(k, stable);
    return stable;
  };
  ASSERT_FALSE(stable_at(31));
  ASSERT_TRUE(stable_at(32));

  // Each search also runs speculatively through a 4-thread pool, which
  // must return the sequential rate and accepted rate: the executor only
  // changes how many probes run, even where outcomes are not monotone.
  hm::explore::ThreadPool pool(4);
  auto search = [&](double surrogate) {
    auto sopts = opts;
    sopts.surrogate_rate = surrogate;
    const auto seq = hm::noc::find_saturation(topo, cfg, sopts);
    const auto par = hm::noc::find_saturation(topo, cfg, sopts, {}, &pool);
    EXPECT_EQ(par.saturation_flit_rate, seq.saturation_flit_rate)
        << "surrogate=" << surrogate;
    EXPECT_EQ(par.accepted_flit_rate, seq.accepted_flit_rate)
        << "surrogate=" << surrogate;
    const double rate = seq.saturation_flit_rate;
    const int k = static_cast<int>(std::lround(rate * scale));
    EXPECT_EQ(static_cast<double>(k) / scale, rate)
        << "surrogate=" << surrogate << ": off the dyadic grid";
    if (k > 0) {
      EXPECT_TRUE(stable_at(k)) << "surrogate=" << surrogate;
    }
    if (k < scale) {
      EXPECT_FALSE(stable_at(k + 1)) << "surrogate=" << surrogate;
    }
    return rate;
  };
  EXPECT_EQ(search(-1.0), 0.5);  // no estimate: bracket (0, 1)
  EXPECT_EQ(search(0.4345), 0.46875);
  EXPECT_EQ(search(0.4989), 0.5);
  for (const double surrogate : {0.0, 0.25, 0.47, 0.75, 1.0}) {
    (void)search(surrogate);
  }
}

}  // namespace
