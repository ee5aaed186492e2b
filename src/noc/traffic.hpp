// Traffic generation. The paper's evaluation uses uniform random traffic:
// each endpoint injects flits at a configurable rate (flits/cycle/endpoint);
// destinations are drawn uniformly among all other endpoints.
// SyntheticTraffic generates it, and also the classic BookSim-style patterns
// (hotspot, bit-complement, random permutation) used by the traffic-pattern
// ablation.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "noc/flit.hpp"
#include "noc/rng.hpp"

namespace hm::noc {

/// Destination selection pattern.
enum class TrafficPattern {
  kUniform,        ///< uniform over all other endpoints (the paper's setup)
  kHotspot,        ///< fraction of packets targets a fixed hotspot set
  kBitComplement,  ///< endpoint e always sends to (E-1-e)
  kPermutation,    ///< fixed random permutation of endpoints
};

/// Short name, e.g. "uniform", "hotspot".
[[nodiscard]] const char* to_string(TrafficPattern p);

/// Pattern configuration for SyntheticTraffic.
struct TrafficSpec {
  TrafficPattern pattern = TrafficPattern::kUniform;
  /// kHotspot: probability a packet targets the hotspot set.
  double hotspot_fraction = 0.2;
  /// kHotspot: hotspot endpoints; defaults to {0} when empty.
  std::vector<std::uint16_t> hotspots;
  /// kPermutation: seed of the fixed permutation.
  unsigned long long permutation_seed = 1;

  /// Throws std::invalid_argument when the spec is malformed — a
  /// hotspot_fraction outside [0, 1] (rejected for every pattern: a spec
  /// that silently misbehaves the moment someone flips the pattern to
  /// kHotspot is a latent bug) or, when `num_endpoints` is non-zero, a
  /// hotspot endpoint id >= num_endpoints. Called by Simulator::set_traffic,
  /// find_saturation and the SyntheticTraffic constructor so a bad spec is
  /// rejected where it is configured instead of deep inside a run.
  void validate(std::size_t num_endpoints = 0) const;

  /// Short description for logs/exports, e.g. "uniform",
  /// "hotspot(f=0.2,n=2)", "permutation(seed=7)".
  [[nodiscard]] std::string describe() const;
};

/// Bernoulli packet source with a configurable destination pattern, driven
/// as an event stream (bind / next_event_cycle / generate_due).
class SyntheticTraffic {
 public:
  /// `flit_rate` is the offered load in flits/cycle/endpoint in [0, 1]:
  /// every endpoint attempts a packet of `packet_length` flits with
  /// probability flit_rate / packet_length per cycle. Throws
  /// std::invalid_argument for out-of-range rates, packet_length < 1,
  /// < 2 endpoints, hotspot endpoints out of range or hotspot_fraction
  /// outside [0, 1].
  SyntheticTraffic(TrafficSpec spec, std::size_t num_endpoints,
                   double flit_rate, int packet_length);

  [[nodiscard]] const TrafficSpec& spec() const noexcept { return spec_; }

  /// Fixed destination of `src` under kBitComplement and kPermutation.
  /// Throws std::logic_error for the patterns that draw per packet.
  [[nodiscard]] std::uint16_t permutation_target(std::uint16_t src) const;

  // --- Event-driven source API (skip-idle stepping) -----------------------
  //
  // Instead of rolling a Bernoulli(p) die per endpoint per cycle, each
  // endpoint owns an independent RNG stream (derive_seed(base, endpoint))
  // and samples the gap to its next generation *attempt* directly from the
  // geometric distribution — one uniform draw per attempt instead of one
  // per cycle, and an exact next-event cycle the Simulator can fast-forward
  // to when the network is quiescent. The attempt-time distribution is
  // identical to per-cycle Bernoulli sampling; destination draws then come
  // from the same endpoint stream.

  /// Sentinel "no next event" cycle.
  static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

  /// Arms the event-driven source: seeds one RNG stream per endpoint from
  /// `base_seed` and schedules every endpoint's first generation attempt at
  /// or after `start_cycle`. Must be called before next_event_cycle /
  /// generate_due; may be called again to rebind.
  void bind(std::uint64_t base_seed, Cycle start_cycle);

  /// Cycle of the earliest pending generation attempt (kNever when none —
  /// zero rate, or bind() not called).
  [[nodiscard]] Cycle next_event_cycle() const noexcept {
    return events_.empty() ? kNever : events_.front().at;
  }

  /// Runs every generation attempt due at or before `now`, appending the
  /// produced packets to `out` (self-traffic attempts produce nothing but
  /// still reschedule). Attempts at equal cycles run in ascending endpoint
  /// order, so the admission order is deterministic.
  void generate_due(Cycle now, std::vector<Packet>& out);

 private:
  struct Event {
    Cycle at = 0;
    std::uint16_t src = 0;
  };

  /// Draws the destination for one generation attempt of `src`. May return
  /// src itself (self-traffic: the caller suppresses the packet).
  [[nodiscard]] std::uint16_t draw_destination(std::uint16_t src, Rng& rng);

  /// Failures before the next Bernoulli(packet_rate_) success, sampled in
  /// one draw; kNever when the rate is zero.
  [[nodiscard]] Cycle sample_gap(Rng& rng) const;

  TrafficSpec spec_;
  std::size_t num_endpoints_;
  double packet_rate_;
  int packet_length_;
  std::vector<std::uint16_t> permutation_;
  std::vector<Rng> streams_;   ///< per-endpoint streams (bind())
  std::vector<Event> events_;  ///< min-heap on (at, src)
};

}  // namespace hm::noc
