// The assembled inter-chiplet network: one router per chiplet (vertex), two
// directed channels per D2D link (edge), and `endpoints_per_chiplet`
// endpoints per router, exactly as the paper configures BookSim2
// (Sec. VI-A). Pure transport: traffic generation lives in the Simulator.
//
// A Network is the mutable per-probe state (buffers, credits, statistics)
// built on top of an immutable shared TopologyContext (graph, routing
// tables, port maps). Routers, endpoints and channels are stored by value
// in contiguous vectors — sized exactly and wired once during construction,
// so the per-cycle step() walks flat arrays instead of chasing unique_ptr
// indirections, and every ring buffer is pre-sized to its occupancy bound
// (steady-state stepping does no heap allocation).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "noc/channel.hpp"
#include "noc/config.hpp"
#include "noc/endpoint.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/rng.hpp"
#include "noc/topology.hpp"

namespace hm::noc {

/// Degraded routing view installed after faults: routing tables built on the
/// post-fault live graph, plus the translations back to the physical
/// network. `live_id` maps physical router ids to live-graph ids (kDead for
/// offline routers); `port_map[r]` maps a live-graph port of router r back
/// to the physical port index. Built and owned by the fault controller; the
/// Network borrows it and pushes the per-router raw pointers down (it must
/// outlive the installation).
struct DegradedRouting {
  static constexpr std::uint32_t kDead = 0xFFFFFFFFu;
  std::shared_ptr<const TopologyContext> topo;
  std::vector<std::uint32_t> live_id;
  std::vector<std::vector<std::uint8_t>> port_map;
};

/// A ready-to-run network instance built from an arrangement graph.
class Network {
 public:
  /// Builds routers, endpoints and channels on a shared topology (connected,
  /// >= 1 vertex). The context is held read-only for the network's lifetime;
  /// any number of concurrent networks may share one context.
  Network(std::shared_ptr<const TopologyContext> topo, const SimConfig& cfg);

  /// Convenience: acquires the shared context for `g` (building routing
  /// tables only when no live context for an equal graph exists).
  Network(const graph::Graph& g, const SimConfig& cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Executes one cycle: channel delivery, endpoint injection, router step.
  /// With cfg.skip_idle (the default) only the channels with an arrival due
  /// (delivery calendar) and the routers and endpoints that can make
  /// progress (worklists) are visited; otherwise every link, endpoint and
  /// router is swept densely. Both modes produce bit-identical results for
  /// any non-decreasing sequence of `now` (test_active_set pins this) — the
  /// dense sweep stays as the reference implementation.
  void step(Cycle now);

  /// Enqueues a packet at endpoint `e` (false when its source queue is
  /// full) and arms the endpoint's active-set entry. All traffic must enter
  /// through here (or through a Simulator run): a direct
  /// endpoint().try_enqueue() would leave a skip-idle endpoint dormant.
  bool offer_packet(std::size_t e, const Packet& p);

  /// Re-seeds every router's arbitration stream from `base` (see
  /// Router::seed_rng). Simulator calls this right after taking a lease:
  /// the arena reuse key deliberately excludes the seed, so a recycled
  /// network may carry stale router streams.
  void seed_rngs(std::uint64_t base);

  /// True when nothing can happen until new traffic is offered: no buffered
  /// or in-flight flits, no queued packets, no in-flight credits. O(1) in
  /// skip-idle mode (empty worklists and calendar), O(N) scan in dense
  /// mode. The Simulator fast-forwards quiescent stretches to the traffic
  /// source's next event cycle.
  [[nodiscard]] bool quiescent() const;

  /// Packets delivered whose generation time fell inside their sink's
  /// measurement window (O(1) running counter; see Endpoint::receive_flit).
  [[nodiscard]] std::uint64_t tagged_delivered() const noexcept {
    return tagged_delivered_;
  }

  /// Rewinds the network to its freshly-constructed state without touching
  /// any allocation: rings are emptied in place, VC/credit state and every
  /// statistic rewound, and the packet table cleared. A reset network is
  /// bit-identical to a new Network(topo, cfg) (test_arena pins this);
  /// SimulationArena uses it to recycle networks across probes.
  void reset();

  [[nodiscard]] std::size_t num_routers() const noexcept {
    return routers_.size();
  }
  [[nodiscard]] std::size_t num_endpoints() const noexcept {
    return endpoints_.size();
  }
  [[nodiscard]] Endpoint& endpoint(std::size_t e) { return endpoints_[e]; }
  [[nodiscard]] const Endpoint& endpoint(std::size_t e) const {
    return endpoints_[e];
  }
  [[nodiscard]] Router& router(std::size_t r) { return routers_[r]; }
  [[nodiscard]] const RoutingTables& tables() const noexcept {
    return topo_->tables();
  }
  [[nodiscard]] const TopologyContext& topology() const noexcept {
    return *topo_;
  }
  [[nodiscard]] const std::shared_ptr<const TopologyContext>&
  topology_ptr() const noexcept {
    return topo_;
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const PacketTable& packets() const noexcept {
    return packets_;
  }

  /// Flits buffered in routers plus flits on channels (conservation checks).
  [[nodiscard]] std::size_t flits_in_network() const;

  /// Sum of injected / ejected flits over all endpoints.
  [[nodiscard]] std::uint64_t total_flits_injected() const;
  [[nodiscard]] std::uint64_t total_flits_ejected() const;

  /// Network-wide hot-path counters since construction/reset: router stats
  /// summed (HWMs maxed) over all routers, plus the source-queue HWM over
  /// all endpoints. ~Simulator flushes this into the telemetry registry.
  struct HotStats {
    Router::HotStats routers;           ///< summed; ring_hwm is the max
    std::uint64_t source_queue_hwm = 0; ///< max endpoint queue occupancy
    std::uint64_t active_router_hwm = 0;  ///< max routers stepped in a cycle
    std::uint64_t router_steps = 0;       ///< router step() calls executed
    std::uint64_t cycles_stepped = 0;     ///< Network::step() calls
  };
  [[nodiscard]] HotStats hot_stats() const;

  /// Runs all router invariant checks; false + reason on violation.
  [[nodiscard]] bool invariants_ok(std::string* why = nullptr) const;

  // --- Fault injection (cold path; driven by faults::FaultController) -----

  /// Accounting of one fault transition. Every flit is conserved:
  /// injected == ejected + in-network + dropped holds before and after
  /// (invariants_ok checks it).
  struct FaultOutcome {
    std::uint64_t flits_dropped = 0;     ///< flits excised network-wide
    std::uint64_t packets_lost = 0;      ///< distinct packets losing flits
    std::uint64_t packets_flushed = 0;   ///< queued packets dropped unsent
    std::uint64_t packets_rerouted = 0;  ///< committed heads sent back to VA
  };

  /// Applies one batch of simultaneous fault events. `kill_links` /
  /// `repair_links` are undirected physical edges (currently wired /
  /// currently killed respectively); `router_online` is the full
  /// post-transition routable set (size num_routers) — routers leaving it
  /// are powered off wholesale (state excised, endpoints dead), routers
  /// re-entering come back with fresh flow state. In-flight flits of
  /// severed or unroutable packets are excised deterministically with
  /// upstream credits refunded, zero-progress allocations toward dead
  /// ports are revoked for re-routing, and the active-set worklists and
  /// delivery calendar are rebuilt exactly. Install the matching
  /// DegradedRouting separately (possibly later: reconvergence window).
  FaultOutcome fault_transition(
      const std::vector<std::pair<graph::NodeId, graph::NodeId>>& kill_links,
      const std::vector<std::pair<graph::NodeId, graph::NodeId>>& repair_links,
      const std::vector<char>& router_online);

  /// Installs (nullptr: clears) the degraded routing view on every router.
  void set_degraded_routing(const DegradedRouting* dr);

  [[nodiscard]] bool endpoint_alive(std::size_t e) const {
    return endpoints_[e].alive();
  }
  [[nodiscard]] bool router_online(graph::NodeId r) const {
    return router_online_.empty() || router_online_[r] != 0;
  }
  /// Flits excised by fault transitions since construction/reset.
  [[nodiscard]] std::uint64_t flits_dropped() const noexcept {
    return flits_dropped_;
  }

 private:
  struct RouterLink {
    FlitChannel flits;      ///< from -> to
    CreditChannel credits;  ///< to -> from (credit returns)
    graph::NodeId from = 0;
    graph::NodeId to = 0;
    std::size_t out_port_at_from = 0;
    std::size_t in_port_at_to = 0;
  };
  struct EndpointChannels {
    FlitChannel injection;      ///< endpoint -> router
    CreditChannel inj_credits;  ///< router -> endpoint
    FlitChannel ejection;       ///< router -> endpoint
  };

  void step_dense(Cycle now);
  void step_active(Cycle now);
  /// Re-derives both worklists and the calendar from scratch (exact
  /// post-fault state).
  void rebuild_active_set();

  /// Membership-flagged worklist push (no-op when already a member).
  static void arm(std::vector<std::uint32_t>& list, std::vector<char>& flag,
                  std::size_t idx) {
    if (!flag[idx]) {
      flag[idx] = 1;
      list.push_back(static_cast<std::uint32_t>(idx));
    }
  }

  /// The five channel kinds a calendar entry names: a link's flit and
  /// credit channels, an endpoint's injection, injection-credit and
  /// ejection channels. An entry is kind << kKindShift | index, the index
  /// being a link or an endpoint id.
  enum ChanKind : std::uint32_t {
    kLinkFlit,
    kLinkCredit,
    kInjFlit,
    kInjCredit,
    kEjFlit,
    kNumChanKinds
  };
  static constexpr std::uint32_t kKindShift = 29;
  static constexpr std::uint32_t kIndexMask = (1u << kKindShift) - 1;
  static std::uint32_t chan_entry(ChanKind kind, std::size_t idx) {
    return (static_cast<std::uint32_t>(kind) << kKindShift) |
           static_cast<std::uint32_t>(idx);
  }

  /// Files `entry` in the bucket of its payload's arrival cycle.
  void schedule(std::uint32_t entry, Cycle arrival) {
    const std::size_t b = static_cast<std::size_t>(arrival) & cal_mask_;
    assert(cal_count_[b] < cal_width_);
    cal_slots_[b * cal_width_ + cal_count_[b]++] = entry;
    ++cal_pending_;
  }
  /// Schedules the payload just pushed into `entry`'s channel at `now`.
  void schedule_push(std::uint32_t entry, Cycle now) {
    schedule(entry, now + kind_latency_[entry >> kKindShift]);
  }
  /// Delivers the payloads of every bucket due by `now`.
  void deliver_due(Cycle now);

  /// Calls fn(entry, arrival) for every in-flight payload of every channel.
  template <typename Fn>
  void for_each_in_flight(Fn fn) const;

  SimConfig cfg_;
  std::shared_ptr<const TopologyContext> topo_;
  /// Cold per-packet records (SoA split); declared before routers/endpoints
  /// so its address is valid while they are wired. Stable: Network is
  /// neither copyable nor movable.
  PacketTable packets_;
  std::vector<Router> routers_;
  std::vector<Endpoint> endpoints_;
  std::vector<RouterLink> links_;
  std::vector<EndpointChannels> ep_channels_;

  // --- Active-set stepping state (skip-idle mode) ------------------------
  // Routers and endpoints sit on a worklist exactly while they can make
  // progress: routers with buffered flits, endpoints with queued packets.
  // Each list carries a parallel membership flag so arming is O(1) and
  // idempotent; step_active compacts the lists in place as components
  // drain. Flit delivery arms the receiving router and offer_packet arms
  // the endpoint.
  std::vector<std::uint32_t> active_routers_;
  std::vector<char> router_active_;
  std::vector<std::uint32_t> active_eps_;
  std::vector<char> ep_active_;

  // Channels run on a timed-delivery calendar (a timing wheel: Varghese &
  // Lauck, SOSP 1987). Every flit or credit push files one entry naming its
  // channel in the bucket of the payload's arrival cycle, so a step visits
  // only the channels that deliver. Endpoint injections are scheduled after
  // Endpoint::inject reports a push, router pushes from Router::grants().
  // A channel carries at most one arrival per cycle, so a bucket holds at
  // most two entries per directed link and three per endpoint (cal_width_).
  // The bucket count is the power of two above the largest channel
  // latency, so the pending arrivals (cycles cal_next_ .. cal_next_ +
  // latency - 1) never share a bucket. All of it is sized at construction:
  // stepping never allocates.
  std::vector<std::uint32_t> cal_slots_;  ///< [bucket * cal_width_ + k]
  std::vector<std::uint32_t> cal_count_;  ///< entries filed per bucket
  std::size_t cal_width_ = 0;             ///< per-bucket capacity
  std::size_t cal_mask_ = 0;              ///< bucket count - 1
  std::size_t cal_pending_ = 0;           ///< entries over all buckets
  Cycle cal_next_ = 0;  ///< first cycle whose bucket is not yet delivered
  std::array<Cycle, kNumChanKinds> kind_latency_{};  ///< per ChanKind
  /// Port -> calendar-entry tables, built once at wiring time. For router
  /// r and port p, out_flit_entry_[r][p] names the channel a flit sent on
  /// that port enters (a link, or an endpoint's ejection channel) and
  /// in_credit_entry_[r][p] the channel a grant on that input port returns
  /// its credit on (the reverse link's credits, or the endpoint's
  /// injection credits).
  std::vector<std::vector<std::uint32_t>> out_flit_entry_;
  std::vector<std::vector<std::uint32_t>> in_credit_entry_;

  // --- Fault state (empty/zero until the first fault_transition) ----------
  std::vector<char> router_online_;     ///< empty == everything online
  std::uint64_t flits_dropped_ = 0;     ///< excised flits (conservation)
  bool fault_dirty_ = false;            ///< reset() must rewind fault wiring

  std::uint64_t tagged_delivered_ = 0;   ///< in-window packet completions
  std::uint64_t active_router_hwm_ = 0;  ///< max |active_routers_| per step
  std::uint64_t router_steps_ = 0;       ///< router step() calls executed
  std::uint64_t cycles_stepped_ = 0;     ///< Network::step() calls
};

}  // namespace hm::noc
