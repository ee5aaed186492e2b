// Tests for the synthetic traffic patterns (hotspot, bit-complement,
// permutation) and their integration with the simulator.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/grid.hpp"
#include "core/hexamesh.hpp"
#include "noc/simulator.hpp"
#include "noc/traffic.hpp"

namespace {

using hm::noc::Cycle;
using hm::noc::Packet;
using hm::noc::SyntheticTraffic;
using hm::noc::TrafficPattern;
using hm::noc::TrafficSpec;

/// Every packet `traffic`'s event stream makes over cycles [0, cycles),
/// stepping from event to event the way skip-idle simulation does.
std::vector<Packet> stream_packets(SyntheticTraffic& traffic, Cycle cycles,
                                   std::uint64_t seed) {
  traffic.bind(seed, 0);
  std::vector<Packet> out;
  for (Cycle t = traffic.next_event_cycle(); t < cycles;
       t = traffic.next_event_cycle()) {
    traffic.generate_due(t, out);
  }
  return out;
}

TEST(SyntheticTraffic, HotspotFractionRespected) {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 0.5;
  spec.hotspots = {2};
  SyntheticTraffic traffic(spec, 16, 1.0, 1);
  std::size_t total = 0, to_hotspot = 0;
  for (const Packet& p : stream_packets(traffic, 20000, 9)) {
    if (p.src_endpoint != 7) continue;
    ++total;
    if (p.dst_endpoint == 2) ++to_hotspot;
  }
  ASSERT_GT(total, 10000u);
  // 50% targeted + ~1/15 of the uniform rest also hits endpoint 2.
  const double expected = 0.5 + 0.5 / 15.0;
  EXPECT_NEAR(static_cast<double>(to_hotspot) / total, expected, 0.03);
}

TEST(SyntheticTraffic, HotspotDefaultsToEndpointZero) {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 1.0;
  SyntheticTraffic traffic(spec, 8, 1.0, 1);
  const auto packets = stream_packets(traffic, 100, 1);
  ASSERT_FALSE(packets.empty());
  for (const Packet& p : packets) EXPECT_EQ(p.dst_endpoint, 0u);
}

TEST(SyntheticTraffic, HotspotSelfTrafficSuppressed) {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 1.0;
  spec.hotspots = {4};
  SyntheticTraffic traffic(spec, 8, 1.0, 1);
  const auto packets = stream_packets(traffic, 200, 1);
  // At rate 1 every endpoint attempts every cycle; the hotspot's own
  // attempts all map to itself and must be dropped.
  EXPECT_EQ(packets.size(), 7u * 200u);
  for (const Packet& p : packets) {
    EXPECT_NE(p.src_endpoint, 4u);
    EXPECT_EQ(p.dst_endpoint, 4u);
  }
}

TEST(SyntheticTraffic, BitComplementIsDeterministic) {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kBitComplement;
  SyntheticTraffic traffic(spec, 10, 1.0, 1);
  EXPECT_EQ(traffic.permutation_target(0), 9u);
  EXPECT_EQ(traffic.permutation_target(3), 6u);
  const auto packets = stream_packets(traffic, 100, 2);
  ASSERT_FALSE(packets.empty());
  for (const Packet& p : packets) {
    EXPECT_EQ(p.dst_endpoint, 9u - p.src_endpoint);
  }
}

TEST(SyntheticTraffic, PermutationIsABijection) {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kPermutation;
  spec.permutation_seed = 11;
  SyntheticTraffic traffic(spec, 20, 1.0, 1);
  std::map<std::uint16_t, int> hits;
  for (std::uint16_t s = 0; s < 20; ++s) {
    ++hits[traffic.permutation_target(s)];
  }
  EXPECT_EQ(hits.size(), 20u);  // every endpoint hit exactly once
  for (const auto& [dst, count] : hits) EXPECT_EQ(count, 1);
}

TEST(SyntheticTraffic, PermutationSeedChangesMapping) {
  TrafficSpec a;
  a.pattern = TrafficPattern::kPermutation;
  a.permutation_seed = 1;
  TrafficSpec b = a;
  b.permutation_seed = 2;
  SyntheticTraffic ta(a, 32, 1.0, 1), tb(b, 32, 1.0, 1);
  int differing = 0;
  for (std::uint16_t s = 0; s < 32; ++s) {
    if (ta.permutation_target(s) != tb.permutation_target(s)) ++differing;
  }
  EXPECT_GT(differing, 16);
}

TEST(SyntheticTraffic, InvalidSpecsRejected) {
  TrafficSpec bad_frac;
  bad_frac.pattern = TrafficPattern::kHotspot;
  bad_frac.hotspot_fraction = 1.5;
  EXPECT_THROW(SyntheticTraffic(bad_frac, 8, 0.5, 1), std::invalid_argument);

  TrafficSpec bad_hotspot;
  bad_hotspot.pattern = TrafficPattern::kHotspot;
  bad_hotspot.hotspots = {99};
  EXPECT_THROW(SyntheticTraffic(bad_hotspot, 8, 0.5, 1),
               std::invalid_argument);

  EXPECT_THROW(SyntheticTraffic({}, 1, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(SyntheticTraffic({}, 8, 2.0, 1), std::invalid_argument);
}

TEST(SyntheticTraffic, PatternNames) {
  EXPECT_STREQ(hm::noc::to_string(TrafficPattern::kUniform), "uniform");
  EXPECT_STREQ(hm::noc::to_string(TrafficPattern::kHotspot), "hotspot");
  EXPECT_STREQ(hm::noc::to_string(TrafficPattern::kBitComplement),
               "bit-complement");
  EXPECT_STREQ(hm::noc::to_string(TrafficPattern::kPermutation),
               "permutation");
}

// --- Simulator integration ----------------------------------------------------

TEST(SimulatorTraffic, HotspotLowersSaturation) {
  // Concentrating 40% of traffic on two endpoints must saturate earlier
  // than uniform (ejection-port limited).
  const auto arr = hm::core::make_grid(16);
  hm::noc::SimConfig cfg;
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 3000;
  opts.measure = 3000;
  TrafficSpec hotspot;
  hotspot.pattern = TrafficPattern::kHotspot;
  hotspot.hotspot_fraction = 0.4;
  hotspot.hotspots = {0, 1};
  const auto uni = hm::noc::find_saturation(arr.graph(), cfg, opts);
  const auto hot = hm::noc::find_saturation(arr.graph(), cfg, opts, hotspot);
  EXPECT_LT(hot.accepted_flit_rate, uni.accepted_flit_rate);
}

TEST(SimulatorTraffic, PermutationDrainsAtLowLoad) {
  const auto arr = hm::core::make_hexamesh(19);
  hm::noc::SimConfig cfg;
  hm::noc::Simulator sim(arr.graph(), cfg);
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kPermutation;
  sim.set_traffic(spec);
  const auto r = sim.run_latency(0.02, 1000, 4000);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.packets_measured, 0u);
}

TEST(TrafficSpecValidate, RejectsHotspotFractionOutsideUnitInterval) {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.hotspot_fraction = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // The fraction is rejected even when the pattern is not (yet) hotspot:
  // a latent bad value must not wait for a pattern flip to explode.
  spec.pattern = TrafficPattern::kUniform;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.hotspot_fraction = 0.3;
  EXPECT_NO_THROW(spec.validate());
}

TEST(TrafficSpecValidate, RejectsHotspotEndpointOutOfRange) {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspots = {0, 12};
  EXPECT_NO_THROW(spec.validate(13));
  EXPECT_THROW(spec.validate(12), std::invalid_argument);
  // Without an endpoint count the id check is deferred (but the spec is
  // otherwise checked).
  EXPECT_NO_THROW(spec.validate());
}

TEST(TrafficSpecValidate, SetTrafficRejectsAtConfigurationTime) {
  const auto arr = hm::core::make_grid(4);  // 8 endpoints
  hm::noc::SimConfig cfg;
  hm::noc::Simulator sim(arr.graph(), cfg);
  TrafficSpec bad;
  bad.pattern = TrafficPattern::kHotspot;
  bad.hotspots = {42};  // >= 8
  EXPECT_THROW(sim.set_traffic(bad), std::invalid_argument);
  bad.hotspots = {7};
  EXPECT_NO_THROW(sim.set_traffic(bad));
}

TEST(TrafficSpecValidate, FindSaturationRejectsBadSpec) {
  const auto arr = hm::core::make_grid(4);
  hm::noc::SimConfig cfg;
  hm::noc::SaturationSearchOptions opts;
  TrafficSpec bad;
  bad.pattern = TrafficPattern::kHotspot;
  bad.hotspot_fraction = 2.0;
  EXPECT_THROW(
      (void)hm::noc::find_saturation(arr.graph(), cfg, opts, bad),
      std::invalid_argument);
}

TEST(TrafficSpecValidate, SyntheticTrafficConstructorStillRejects) {
  TrafficSpec bad;
  bad.pattern = TrafficPattern::kHotspot;
  bad.hotspots = {9};
  EXPECT_THROW(SyntheticTraffic(bad, 8, 0.1, 4), std::invalid_argument);
}

TEST(TrafficSpecValidate, DescribeNamesThePattern) {
  TrafficSpec spec;
  EXPECT_EQ(spec.describe(), "uniform");
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 0.25;
  spec.hotspots = {0, 1};
  EXPECT_EQ(spec.describe(), "hotspot(f=0.25,n=2)");
  spec.pattern = TrafficPattern::kPermutation;
  spec.permutation_seed = 7;
  EXPECT_EQ(spec.describe(), "permutation(seed=7)");
}

TEST(SimulatorTraffic, BitComplementStressesDiameter) {
  // Bit-complement pairs opposite corners; zero-load latency must exceed
  // the uniform average.
  const auto arr = hm::core::make_grid(16);
  hm::noc::SimConfig cfg;
  hm::noc::Simulator uni_sim(arr.graph(), cfg);
  hm::noc::Simulator bc_sim(arr.graph(), cfg);
  TrafficSpec bc;
  bc.pattern = TrafficPattern::kBitComplement;
  bc_sim.set_traffic(bc);
  const double uni = uni_sim.run_latency(0.01, 1000, 5000).avg_packet_latency;
  const double comp = bc_sim.run_latency(0.01, 1000, 5000).avg_packet_latency;
  EXPECT_GT(comp, uni);
}

}  // namespace
