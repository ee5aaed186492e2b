#include "explore/hash.hpp"

namespace hm::explore {

std::uint64_t hash_arrangement(const core::Arrangement& arr) {
  StableHash h;
  h.mix(static_cast<std::uint64_t>(arr.type()))
      .mix(static_cast<std::uint64_t>(arr.regularity()))
      .mix(arr.chiplet_count());
  for (const auto& c : arr.coords()) h.mix_i(c.a).mix_i(c.b);
  const auto edges = arr.graph().edges();  // sorted (a < b, lexicographic)
  h.mix(edges.size());
  for (const auto& [a, b] : edges) h.mix(a).mix(b);
  return h.value();
}

std::uint64_t hash_analytic_params(const core::EvaluationParams& params) {
  StableHash h;
  h.mix_f(params.total_area_mm2)
      .mix_f(params.power_fraction)
      .mix_f(params.bump_pitch_mm)
      .mix_i(params.non_data_wires)
      .mix_f(params.frequency_hz)
      .mix_b(params.hand_optimized_small_n)
      .mix_i(params.sim.endpoints_per_chiplet);
  return h.value();
}

std::uint64_t hash_simulation_params(const core::EvaluationParams& params) {
  const noc::SimConfig& s = params.sim;
  StableHash h;
  h.mix_i(s.vcs)
      .mix_i(s.buffer_depth)
      .mix_i(s.router_latency)
      .mix_i(s.link_latency)
      .mix_i(s.injection_link_latency)
      .mix_i(s.ejection_link_latency)
      .mix_i(s.packet_length)
      .mix_i(s.endpoints_per_chiplet)
      .mix_i(s.source_queue_capacity)
      .mix_i(s.escape_threshold)
      // The retired SimConfig::sa_iterations field (default 2); mixing the
      // literal keeps every existing store key valid.
      .mix_i(2)
      .mix(static_cast<std::uint64_t>(s.routing))
      .mix(s.seed)
      .mix_f(params.zero_load_injection_rate)
      .mix(params.latency_warmup)
      .mix(params.latency_measure)
      .mix(params.latency_drain_limit)
      .mix(params.throughput_warmup)
      .mix(params.throughput_measure)
      .mix_b(params.measure_latency)
      .mix_b(params.measure_saturation);
  // Fault scenario: every field participates — two jobs differing only in
  // their fault setup must never collide in the sweep's result cache.
  const faults::FaultScenarioSpec& f = params.faults;
  h.mix_i(f.single_link_kills)
      .mix_i(f.storm_kills)
      .mix(f.seed)
      .mix_i(f.kill_at)
      .mix_i(f.storm_spacing)
      .mix_i(f.repair_after)
      .mix_i(f.reconvergence_delay)
      .mix_f(f.offered_rate)
      .mix_i(f.warmup)
      .mix_i(f.measure)
      .mix_f(f.recovery_threshold)
      .mix_i(f.recovery_window)
      .mix(f.explicit_plans.size());
  for (const faults::FaultPlan& plan : f.explicit_plans) {
    h.mix_b(plan.allow_partition)
        .mix_i(plan.reconvergence_delay)
        .mix_f(plan.recovery_threshold)
        .mix_i(plan.recovery_window)
        .mix(plan.events.size());
    for (const faults::FaultEvent& e : plan.events) {
      h.mix_i(e.at).mix(static_cast<std::uint64_t>(e.kind)).mix(e.a).mix(e.b);
    }
  }
  return h.value();
}

std::uint64_t hash_traffic(const noc::TrafficSpec& traffic) {
  StableHash h;
  h.mix(static_cast<std::uint64_t>(traffic.pattern))
      .mix_f(traffic.hotspot_fraction)
      .mix(traffic.hotspots.size());
  for (const auto hs : traffic.hotspots) h.mix(hs);
  h.mix(traffic.permutation_seed);
  return h.value();
}

}  // namespace hm::explore
