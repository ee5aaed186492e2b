// A network endpoint: packet source (bounded source queue, credit-aware flit
// injection onto its router port) and packet sink (latency accounting over a
// measurement window). Each chiplet hosts `endpoints_per_chiplet` endpoints
// (paper Sec. VI-A uses two).
//
// SoA split: the endpoint registers each admitted packet's cold record
// (src/dst, gen_time, length) in the Network's PacketTable once and injects
// 8-byte routing words; the sink looks the record back up by packet id for
// the latency accounting.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "noc/channel.hpp"
#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "noc/ring_buffer.hpp"

namespace hm::noc {

/// Sink-side statistics of one endpoint.
struct SinkStats {
  std::uint64_t flits_ejected = 0;
  std::uint64_t packets_ejected = 0;
  /// Packets generated inside the measurement window that have been
  /// delivered, and their cumulative latency (tail ejection - generation).
  std::uint64_t tagged_packets = 0;
  std::uint64_t tagged_latency_sum = 0;
};

class Endpoint {
 public:
  /// `id` is the global endpoint id; its router is id / endpoints_per_chiplet.
  /// `packets` is the owning Network's packet table (must outlive the
  /// endpoint); source and sink both use it.
  Endpoint(std::uint16_t id, const SimConfig& cfg, PacketTable* packets);

  /// Wires the injection channel toward the local router.
  void wire_injection(FlitChannel* channel, int latency);

  /// Tries to append a packet to the source queue; false when full. On
  /// success the packet's cold record is registered in the packet table and
  /// the queued copy carries the table id.
  bool try_enqueue(const Packet& p);

  /// Delivers an injection credit for router-input VC `vc`.
  void receive_credit(int vc);

  /// Sends at most one flit of the packet currently being serialized;
  /// true when a flit went onto the injection channel.
  bool inject(Cycle now);

  /// Sink: consumes an ejected flit (infinite acceptance). Returns true
  /// when the flit completed a packet generated inside the measurement
  /// window (the Network keeps an O(1) tagged-delivery counter from this,
  /// so drain loops stop scanning every endpoint per cycle).
  bool receive_flit(const Flit& f, Cycle now);

  /// Sets the measurement window [begin, end): packets with gen_time inside
  /// it contribute to tagged latency stats on delivery.
  void set_measurement_window(Cycle begin, Cycle end);

  /// Rewinds every mutable field to the freshly-constructed state (arena
  /// reuse). Must stay exhaustive: a reset endpoint has to be bit-identical
  /// to a new one (test_arena pins this).
  void reset();

  [[nodiscard]] const SinkStats& sink() const noexcept { return sink_; }
  [[nodiscard]] std::uint64_t flits_injected() const noexcept {
    return flits_injected_;
  }
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return queue_.size();
  }
  /// Max source-queue occupancy since construction/reset (telemetry HWM).
  [[nodiscard]] std::uint64_t queue_hwm() const noexcept { return queue_hwm_; }
  /// Flits belonging to enqueued-but-not-yet-fully-injected packets.
  [[nodiscard]] std::size_t pending_flits() const noexcept;

  // --- Fault-injection hooks (cold path; driven by Network) -----------------

  /// Refunds one injection credit (upstream side of an excised flit).
  void fault_refund_credit(int vc);

  /// Packet id of the front packet when its serialization already started
  /// (flits of it are in the network), or -1.
  [[nodiscard]] std::int64_t mid_serialization_packet() const noexcept {
    return next_flit_ > 0 && !queue_.empty()
               ? static_cast<std::int64_t>(queue_.front().id)
               : -1;
  }

  /// Aborts the in-progress serialization, dropping the front packet (its
  /// already-injected flits are the caller's to excise; the rest never
  /// existed on the wire).
  void fault_abort_active();

 private:
  std::uint16_t id_;
  SimConfig cfg_;
  PacketTable* packets_;
  FlitChannel* inj_channel_ = nullptr;
  int inj_latency_ = 1;

  RingQueue<Packet> queue_;  ///< bounded by source_queue_capacity
  std::vector<int> credits_;  ///< per router-input VC
  int active_vc_ = -1;        ///< VC of the packet being serialized
  int next_flit_ = 0;         ///< next flit index of the active packet
  int rr_vc_ = 0;             ///< round-robin start for VC selection
  std::uint64_t flits_injected_ = 0;
  std::uint64_t queue_hwm_ = 0;
  SinkStats sink_;
  Cycle window_begin_ = 0;
  Cycle window_end_ = std::numeric_limits<Cycle>::min();
};

}  // namespace hm::noc
