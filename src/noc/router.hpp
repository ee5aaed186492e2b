// Input-queued virtual-channel router with credit-based wormhole flow
// control, modelled after BookSim2's router (paper Sec. VI-A: 3-cycle router
// latency, 8 VCs, 8-flit buffers).
//
// Pipeline per packet: route computation (RC) when the head flit reaches the
// buffer front, VC allocation (VA) of an output VC, then per-flit switch
// allocation (SA) and traversal. Heads prefer minimal adaptive VCs (1..V-1)
// and fall back to the up*/down* escape VC 0; a head that holds an output VC
// with zero credits and has not yet sent any flit releases it and re-enters
// VA, so a blocked packet can always reach the deadlock-free escape network
// (Duato's protocol, conservative stay-on-escape variant).
//
// Hot-path layout: input and output VC state lives in flat [port*vcs + vc]
// arrays (one contiguous block each), flit buffers are fixed-capacity rings
// sized to buffer_depth, and the switch allocator's matching scratch is
// preallocated — a steady-state step() does no heap allocation. Bitmasks
// over the flat input-VC ids (occupancy, VC state, SA requests) let every
// stage walk only the VCs it can act on. Flits are 8-byte routing words
// (see flit.hpp); the only cold data a router ever needs — the destination
// endpoint for ejection-port routing — is looked up once per packet in the
// Network's PacketTable when the head flit is route-computed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "noc/channel.hpp"
#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "noc/ring_buffer.hpp"
#include "noc/routing.hpp"
#include "noc/rng.hpp"

namespace hm::noc {

/// One router; ports 0..deg-1 connect to neighbour routers (in the order of
/// graph.neighbors(id)), ports deg..deg+E-1 connect to the local endpoints.
class Router {
 public:
  /// Hot-path event counters, kept as plain members (bumping them is a
  /// register increment, cheap enough to run unconditionally) and flushed
  /// into the telemetry registry by ~Simulator when telemetry is enabled.
  /// Zeroed by reset() like every other mutable field.
  /// The two SA stall counters count each stalled input VC at most once
  /// per cycle (switch allocation visits every requester at most once).
  struct HotStats {
    std::uint64_t flits_routed = 0;       ///< switch grants (flit traversals)
    std::uint64_t va_stall_cycles = 0;    ///< VC-allocation failures
    std::uint64_t sa_conflict_stalls = 0; ///< SA loss: input port taken
    std::uint64_t sa_credit_stalls = 0;   ///< SA loss: zero output credits
    std::uint64_t heads_revoked = 0;      ///< escape-fallback revocations
    std::uint64_t ring_hwm = 0;           ///< max input RingQueue occupancy
  };

  /// `tables` must outlive the router (it lives in the shared
  /// TopologyContext that the owning Network keeps alive); `packets` is the
  /// owning Network's packet table (read at RC for ejection routing). A
  /// null `packets` is only valid for routers that never eject, e.g. the
  /// wiring-validation unit tests.
  Router(std::uint32_t id, const SimConfig& cfg, const RoutingTables* tables,
         const PacketTable* packets = nullptr);

  /// Wires output port `port`: flits sent there arrive after `latency`.
  void wire_output(std::size_t port, FlitChannel* channel, int latency);

  /// Wires the credit return path of input port `port` (credits for freed
  /// buffer slots are sent there after `latency`).
  void wire_credit_return(std::size_t port, CreditChannel* channel,
                          int latency);

  /// Delivers a flit into input port `port`, VC `f.vc`.
  void receive_flit(std::size_t port, Flit f, Cycle now);

  /// Delivers a credit for output port `port`, VC `vc`.
  void receive_credit(std::size_t port, int vc);

  /// One cycle: RC, VA, SA (+ escape-fallback revocation). Arbitration
  /// draws come from the router's own RNG stream (seeded from the config
  /// seed and the router id), and the fair-allocation round-robin offsets
  /// are derived from `now` — so a step on an empty router is an observable
  /// no-op and the active-set stepper can skip drained routers without
  /// perturbing any later draw or arbitration decision.
  void step(Cycle now);

  /// Re-seeds the router's RNG stream as derive_seed(derive_seed(base,
  /// router-stream salt), id). Called by Network::seed_rngs when a Simulator
  /// adopts a leased network whose cached config carries a stale seed.
  void seed_rng(std::uint64_t base);

  /// Rewinds every mutable field to the freshly-constructed state (arena
  /// reuse). Must stay exhaustive: a reset router has to be bit-identical
  /// to a new one (test_arena pins this).
  void reset();

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] std::size_t network_ports() const noexcept {
    return n_network_ports_;
  }
  [[nodiscard]] std::size_t total_ports() const noexcept { return n_ports_; }

  /// Total flits currently buffered (for conservation checks; O(VCs) scan).
  [[nodiscard]] std::size_t buffered_flits() const;

  /// O(1) buffered-flit count, maintained incrementally. Zero is exactly
  /// the active-set idle criterion: a router with no buffered flits has no
  /// RC/VA/SA work and its step is an observable no-op (pending credits
  /// only top counters up; they cannot trigger an action on their own).
  [[nodiscard]] std::size_t buffered_flit_count() const noexcept {
    return buffered_;
  }

  [[nodiscard]] const HotStats& hot_stats() const noexcept { return stats_; }

  /// One switch grant: a flit left through `out_port`, and when `credit` is
  /// set a credit for the slot it freed went upstream through `in_port`'s
  /// credit channel (a port killed by a fault has none).
  struct Grant {
    std::uint16_t in_port = 0;
    std::uint16_t out_port = 0;
    bool credit = false;
  };

  /// The grants of the last step(), in grant order: exactly the channel
  /// pushes that step made. The active-set stepper schedules those channels
  /// on its delivery calendar instead of scanning every port of the router.
  [[nodiscard]] const std::vector<Grant>& grants() const noexcept {
    return grants_;
  }

  /// Validates internal invariants (buffer bounds, credit bounds, ownership
  /// consistency, every per-VC bitmask against the VC state). Returns false
  /// and fills `why` on violation.
  [[nodiscard]] bool invariants_ok(std::string* why = nullptr) const;

  // --- Fault-injection hooks (cold path; driven by Network) -----------------

  /// Installs (or, with nullptrs, removes) a degraded routing view: lookups
  /// go through `tables`, built on the live graph (same router ids), and
  /// the returned ports are translated back to physical ports by
  /// `port_map`. The pointed-to storage is owned by the fault controller
  /// and outlives the view.
  void set_degraded(const RoutingTables* tables, const std::uint8_t* port_map);

  /// Kills network port `port`: output and credit-return channels are
  /// detached (SA already skips null output channels) and the output VC
  /// credits and free-adaptive count drop to zero so no new allocation can
  /// target the port. Callers must excise in-flight state afterwards
  /// (fault_excise) — the port's output VCs may still have owners here.
  void fault_kill_port(std::size_t port);

  /// Restores a killed port after a repair: rewires the channels and
  /// refills credits / free-adaptive to the fresh-build state. The port's
  /// output VCs must be ownerless (guaranteed after fault_excise).
  void fault_restore_port(std::size_t port, FlitChannel* out, int out_latency,
                          CreditChannel* credit, int credit_latency);

  /// Refunds one output-VC credit (upstream side of an excised flit).
  void fault_refund_credit(std::size_t port, int vc);

  /// Packets that already sent flits toward a now-dead output port (the
  /// wormhole body is severed mid-link): appended to `out` so the caller
  /// can poison them network-wide. Zero-progress allocations are left for
  /// fault_excise to revoke.
  void fault_collect_committed(const std::function<bool(std::size_t)>& dead_out,
                               std::vector<std::uint32_t>* out) const;

  struct FaultExcision {
    std::uint64_t flits_removed = 0;
    std::uint64_t packets_rerouted = 0;
  };

  /// Removes every buffered flit whose packet `poisoned(id)` approves,
  /// resets the state machines of the affected input VCs, and revokes
  /// zero-progress allocations toward `dead_out` ports (those packets
  /// re-route on the degraded tables). `refund(in_port, vc)` fires once per
  /// removed flit so the Network can credit the upstream sender; releases
  /// never re-grow free_adaptive_ of a dead output port.
  FaultExcision fault_excise(
      const std::function<bool(std::uint32_t)>& poisoned,
      const std::function<bool(std::size_t)>& dead_out,
      const std::function<void(std::size_t, int)>& refund);

 private:
  enum class VcState : std::uint8_t { kIdle, kNeedsVc, kActive };

  /// A buffered flit: the 8-byte routing word plus the cycle it becomes
  /// eligible for switch allocation (arrival + router_latency).
  struct BufFlit {
    Flit flit;
    Cycle ready_time = 0;
  };

  struct InputVc {
    RingQueue<BufFlit> buf;
    VcState state = VcState::kIdle;
    int out_port = -1;
    int out_vc = -1;
    bool out_is_ejection = false;
    bool escape = false;          ///< current packet leaves via escape VC
    std::uint8_t next_phase = 0;  ///< up*/down* phase after the escape hop
    int flits_sent = 0;           ///< flits of the current packet sent on
    int blocked_cycles = 0;       ///< VA failures since the header arrived
    /// Packet being routed while state != kIdle. The buffer can drain to
    /// empty mid-packet (body still upstream), so fault excision needs the
    /// id recorded at route compute, not the front flit.
    std::uint32_t cur_packet = 0;
  };

  struct OutputVc {
    int credits = 0;
    int owner = -1;  ///< flat input-VC index holding this VC, or -1
  };

  [[nodiscard]] int flat(std::size_t port, int vc) const {
    return static_cast<int>(port) * cfg_.vcs + vc;
  }

  /// Marks flat input VC `iv_flat` as requesting output port `out_p` (set
  /// exactly while the VC is kActive), so the switch allocator can walk
  /// requesters with countr_zero instead of scanning every input VC. The
  /// per-port requester count lets SA skip request-free ports with one
  /// load instead of probing an empty mask per port per cycle.
  void mark_request(std::size_t out_p, int iv_flat) {
    set_bit(&sa_request_mask_[out_p * mask_words_], iv_flat);
    ++sa_req_count_[out_p];
  }
  void clear_request(std::size_t out_p, int iv_flat) {
    clear_bit(&sa_request_mask_[out_p * mask_words_], iv_flat);
    --sa_req_count_[out_p];
  }

  static void set_bit(std::uint64_t* mask, int idx) {
    mask[static_cast<std::size_t>(idx) >> 6] |= 1ULL << (idx & 63);
  }
  static void clear_bit(std::uint64_t* mask, int idx) {
    mask[static_cast<std::size_t>(idx) >> 6] &= ~(1ULL << (idx & 63));
  }
  [[nodiscard]] static bool test_bit(const std::uint64_t* mask, int idx) {
    return (mask[static_cast<std::size_t>(idx) >> 6] >> (idx & 63)) & 1;
  }

  /// Calls `visit(idx)` for the set bits of the mask_words_-word `mask` in
  /// circular flat-id order from `start` (bits >= start ascending, then the
  /// bits below start) until it returns true; returns whether it did. Words
  /// are loaded as the walk reaches them, so `visit` may clear its own bit.
  template <typename Visit>
  bool walk_from(const std::uint64_t* mask, int start, Visit&& visit) const;

  void route_compute(InputVc& iv, int iv_flat);
  bool try_allocate_vc(InputVc& iv, int iv_flat);
  void switch_allocate(Cycle now);
  void revoke_blocked_heads();

  std::uint32_t id_;
  SimConfig cfg_;
  const RoutingTables* tables_;
  const PacketTable* packets_;

  // Degraded routing view (all null when healthy — the single null check in
  // VA is the only fault cost on the hot path). See set_degraded().
  const RoutingTables* deg_tables_ = nullptr;
  const std::uint8_t* deg_port_map_ = nullptr;

  std::size_t n_network_ports_;
  std::size_t n_ports_;

  std::vector<InputVc> in_;   ///< flat [port*vcs + vc]
  std::vector<OutputVc> out_; ///< flat [port*vcs + vc]
  std::vector<FlitChannel*> out_channel_;
  std::vector<int> out_latency_;
  std::vector<CreditChannel*> credit_channel_;
  std::vector<int> credit_latency_;

  // Round-robin state for fair allocation. The VA and SA-output starting
  // offsets are derived from the cycle number (now % size) instead of being
  // incremented per step, so a router skipped while idle resumes with
  // exactly the offsets a densely-stepped router would have. sa_in_rr_
  // advances only on grants, which cannot happen while idle.
  std::vector<int> sa_in_rr_;  ///< per output port, over flat input-VC ids

  // Preallocated switch-allocation scratch: which input ports already won
  // a grant this cycle (one flit per input port per cycle), and the grants
  // themselves (reserved to n_ports_: each output port grants at most once
  // per cycle, so recording them never allocates).
  std::vector<char> sa_in_port_used_;
  std::vector<Grant> grants_;

  // Requester bitmasks: [out_port * mask_words_ + word] over flat input-VC
  // ids; bit set iff that input VC is kActive toward that output port.
  std::size_t mask_words_ = 1;
  std::vector<std::uint64_t> sa_request_mask_;
  std::vector<std::uint16_t> sa_req_count_;  ///< requesters per output port

  // Per-VC bitmasks over flat input-VC ids, updated at every buffer and
  // state change, so each stage of step() walks only the VCs it can act
  // on: RC the occupied idle VCs, VA the needs-VC VCs, the escape-fallback
  // revocation the revocable ones (SA walks its own request masks). The
  // walks visit bits in exactly the order a linear scan over every VC
  // would (ascending for RC/revoke, circular from the cycle-derived offset
  // for VA), keeping arbitration and RNG draws bit-identical. A needs-VC
  // or revocable VC still buffers its head, so both are subsets of
  // occupied_ (invariants_ok checks every mask against the VC state).
  std::vector<std::uint64_t> occupied_;  ///< buffers at least one flit
  std::vector<std::uint64_t> needs_vc_;  ///< state == kNeedsVc
  std::vector<std::uint64_t> non_idle_;  ///< state != kIdle
  /// kActive toward a network output with no flit of the packet sent yet.
  std::vector<std::uint64_t> revocable_;

  /// Per output port: free adaptive output VCs (owner < 0 among VCs
  /// 1..vcs-1). Lets a blocked header skip a fully-owned port with one load
  /// instead of vcs-1 owner probes every VA cycle.
  std::vector<int> free_adaptive_;

  Cycle now_ = 0;  ///< updated by step(); used for SA readiness checks

  /// Per-router arbitration stream: adaptive-VC rotation draws come from
  /// here instead of a network-wide shared Rng, so skipping an idle router
  /// cannot shift any other router's draws. rng_seed_ remembers the seed so
  /// reset() rewinds the stream bit-identically.
  Rng rng_;
  std::uint64_t rng_seed_ = 0;

  std::size_t buffered_ = 0;  ///< incrementally maintained buffered flits

  HotStats stats_;
};

}  // namespace hm::noc
