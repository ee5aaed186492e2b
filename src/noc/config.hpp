// Simulator configuration mirroring the paper's BookSim2 setup (Sec. VI-A):
// each chiplet holds one router and two endpoints; routers have a 3-cycle
// latency, 8 virtual channels and 8-flit buffers; a D2D link (outgoing PHY +
// wire + incoming PHY) costs 27 cycles.
#pragma once

#include <stdexcept>

namespace hm::noc {

/// Routing mode of the inter-chiplet network.
enum class RoutingMode {
  /// Minimal *adaptive* routing on VCs 1..V-1 (heads may claim any free VC
  /// on any minimal output port) with a deadlock-free up*/down* escape on
  /// VC 0 (Duato's protocol). The default: shortest paths at low load, no
  /// deadlock at saturation, and no artificial hot channels from tie-break
  /// bias (see bench_ablation_routing).
  kMinimalAdaptive,
  /// Deterministic single-path minimal routing: one fixed shortest path per
  /// (node, destination) pair, lowest-port tie-break (closest to BookSim2's
  /// "anynet" tables). Systematic tie-breaking funnels disk-shaped
  /// topologies through the center; provided for ablation studies.
  kDeterministicMinimal,
  /// All packets use the up*/down* escape routing on every VC. Deadlock-free
  /// but non-minimal; provided for ablation studies.
  kUpDownOnly,
};

/// All knobs of the cycle-accurate ICI simulator.
struct SimConfig {
  int vcs = 8;                      ///< virtual channels per port
  int buffer_depth = 8;             ///< flit buffer depth per VC
  int router_latency = 3;           ///< cycles a flit spends in a router
  int link_latency = 27;            ///< D2D link cycles (PHY + wire + PHY)
  int injection_link_latency = 1;   ///< endpoint -> router cycles
  int ejection_link_latency = 1;    ///< router -> endpoint cycles
  int packet_length = 4;            ///< flits per packet
  int endpoints_per_chiplet = 2;    ///< endpoints attached to each router
  int source_queue_capacity = 16;   ///< max packets queued per endpoint
  /// Cycles a header must have waited in VC allocation before the up*/down*
  /// escape VC becomes a candidate. 0 = escape immediately on first failure.
  /// A finite threshold keeps deadlock freedom (a blocked header eventually
  /// requests the always-draining escape network) while preventing the
  /// escape tree root from becoming the bottleneck at saturation.
  int escape_threshold = 20;
  RoutingMode routing = RoutingMode::kMinimalAdaptive;
  /// Active-set stepping: Network::step walks only routers/links/endpoints
  /// that can make progress this cycle instead of sweeping every component.
  /// Results are bit-identical to the dense sweep (test_active_set pins
  /// this); the dense mode remains as the reference implementation.
  bool skip_idle = true;
  unsigned long long seed = 42;     ///< RNG seed (fully deterministic runs)

  /// Memberwise equality (keeps the arena key honest when fields are added:
  /// a new knob is automatically part of the comparison).
  [[nodiscard]] friend bool operator==(const SimConfig&,
                                       const SimConfig&) = default;

  /// True when `other` builds a bit-identical Network structure: everything
  /// but the RNG seed matches. The seed drives traffic and per-router
  /// arbitration streams; Simulator re-seeds a leased network's routers via
  /// Network::seed_rngs, so it stays out of the SimulationArena reuse key.
  [[nodiscard]] bool same_structure(const SimConfig& other) const {
    SimConfig a = *this;
    a.seed = other.seed;
    return a == other;
  }

  /// Throws std::invalid_argument when a parameter is out of range.
  void validate() const {
    if (vcs < 1 || vcs > 255) {
      throw std::invalid_argument("SimConfig: vcs must be in [1, 255]");
    }
    if (buffer_depth < 1) {
      throw std::invalid_argument("SimConfig: buffer_depth must be >= 1");
    }
    if (router_latency < 1 || link_latency < 1 ||
        injection_link_latency < 1 || ejection_link_latency < 1) {
      throw std::invalid_argument("SimConfig: latencies must be >= 1 cycle");
    }
    if (packet_length < 1 || packet_length > 0xFFFF) {
      throw std::invalid_argument("SimConfig: packet_length out of range");
    }
    if (endpoints_per_chiplet < 1) {
      throw std::invalid_argument(
          "SimConfig: endpoints_per_chiplet must be >= 1");
    }
    if (source_queue_capacity < 1) {
      throw std::invalid_argument(
          "SimConfig: source_queue_capacity must be >= 1");
    }
    if (escape_threshold < 0) {
      throw std::invalid_argument("SimConfig: escape_threshold must be >= 0");
    }
  }
};

}  // namespace hm::noc
