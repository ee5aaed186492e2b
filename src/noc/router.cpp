#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hm::noc {

namespace {
/// Stream salt separating per-router arbitration streams from every other
/// consumer of derive_seed(cfg.seed, ...) (traffic streams, per-job seeds).
constexpr std::uint64_t kRouterStreamSalt = 0x9061747552746572ULL;
}  // namespace

Router::Router(std::uint32_t id, const SimConfig& cfg,
               const RoutingTables* tables, const PacketTable* packets)
    : id_(id),
      cfg_(cfg),
      tables_(tables),
      packets_(packets),
      n_network_ports_(tables->num_ports(id)),
      n_ports_(n_network_ports_ +
               static_cast<std::size_t>(cfg.endpoints_per_chiplet)) {
  cfg_.validate();
  const std::size_t vcs = static_cast<std::size_t>(cfg_.vcs);
  in_.resize(n_ports_ * vcs);
  for (auto& iv : in_) {
    iv.buf.reserve(static_cast<std::size_t>(cfg_.buffer_depth));
  }
  out_.resize(n_ports_ * vcs);
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      // Network outputs start with the downstream buffer depth; ejection
      // outputs are modelled with effectively infinite credits (the endpoint
      // always sinks flits; the port still serializes 1 flit/cycle).
      out_[static_cast<std::size_t>(flat(p, v))].credits =
          p < n_network_ports_ ? cfg_.buffer_depth : (1 << 30);
    }
  }
  out_channel_.assign(n_ports_, nullptr);
  out_latency_.assign(n_ports_, 1);
  credit_channel_.assign(n_ports_, nullptr);
  credit_latency_.assign(n_ports_, 1);
  sa_in_rr_.assign(n_ports_, 0);
  sa_in_port_used_.assign(n_ports_, 0);
  grants_.reserve(n_ports_);
  mask_words_ = (n_ports_ * vcs + 63) / 64;
  sa_request_mask_.assign(n_ports_ * mask_words_, 0);
  sa_req_count_.assign(n_ports_, 0);
  occupied_.assign(mask_words_, 0);
  needs_vc_.assign(mask_words_, 0);
  non_idle_.assign(mask_words_, 0);
  revocable_.assign(mask_words_, 0);
  free_adaptive_.assign(n_ports_, cfg_.vcs - 1);
  seed_rng(cfg_.seed);
}

void Router::seed_rng(std::uint64_t base) {
  rng_seed_ = derive_seed(derive_seed(base, kRouterStreamSalt), id_);
  rng_ = Rng(rng_seed_);
}

// HM_HOT: arena lease rewind — state rewind over preallocated flat
// arrays and rings only.
void Router::reset() {
  for (auto& iv : in_) {
    iv.buf.clear();
    iv.state = VcState::kIdle;
    iv.out_port = -1;
    iv.out_vc = -1;
    iv.out_is_ejection = false;
    iv.escape = false;
    iv.next_phase = 0;
    iv.flits_sent = 0;
    iv.blocked_cycles = 0;
    iv.cur_packet = 0;
  }
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      OutputVc& ov = out_[static_cast<std::size_t>(flat(p, v))];
      ov.credits = p < n_network_ports_ ? cfg_.buffer_depth : (1 << 30);
      ov.owner = -1;
    }
  }
  std::fill(sa_in_rr_.begin(), sa_in_rr_.end(), 0);
  std::fill(sa_in_port_used_.begin(), sa_in_port_used_.end(), 0);
  grants_.clear();
  std::fill(sa_request_mask_.begin(), sa_request_mask_.end(), 0);
  std::fill(sa_req_count_.begin(), sa_req_count_.end(), 0);
  std::fill(occupied_.begin(), occupied_.end(), 0);
  std::fill(needs_vc_.begin(), needs_vc_.end(), 0);
  std::fill(non_idle_.begin(), non_idle_.end(), 0);
  std::fill(revocable_.begin(), revocable_.end(), 0);
  std::fill(free_adaptive_.begin(), free_adaptive_.end(), cfg_.vcs - 1);
  now_ = 0;
  rng_ = Rng(rng_seed_);
  buffered_ = 0;
  stats_ = HotStats{};
}

void Router::wire_output(std::size_t port, FlitChannel* channel, int latency) {
  if (port >= n_ports_ || channel == nullptr || latency < 1) {
    throw std::invalid_argument("Router::wire_output: bad wiring");
  }
  out_channel_[port] = channel;
  out_latency_[port] = latency;
}

void Router::wire_credit_return(std::size_t port, CreditChannel* channel,
                                int latency) {
  if (port >= n_ports_ || channel == nullptr || latency < 1) {
    throw std::invalid_argument("Router::wire_credit_return: bad wiring");
  }
  credit_channel_[port] = channel;
  credit_latency_[port] = latency;
}

void Router::receive_flit(std::size_t port, Flit f, Cycle now) {
  assert(port < n_ports_);
  assert(f.vc < cfg_.vcs);
  const int idx = flat(port, f.vc);
  InputVc& iv = in_[static_cast<std::size_t>(idx)];
  assert(iv.buf.size() <
         static_cast<std::size_t>(cfg_.buffer_depth));  // credits guarantee
  iv.buf.push_back(BufFlit{f, now + cfg_.router_latency});
  ++buffered_;
  set_bit(occupied_.data(), idx);
  if (iv.buf.size() > stats_.ring_hwm) stats_.ring_hwm = iv.buf.size();
}

void Router::receive_credit(std::size_t port, int vc) {
  assert(port < n_network_ports_);
  ++out_[static_cast<std::size_t>(flat(port, vc))].credits;
  assert(out_[static_cast<std::size_t>(flat(port, vc))].credits <=
         cfg_.buffer_depth);
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::route_compute(InputVc& iv, int iv_flat) {
  const Flit& head = iv.buf.front().flit;
  assert(head.head);
  iv.cur_packet = head.packet_id;
  if (head.dst_router == id_) {
    // Deliver locally: ejection port of the destination endpoint. The
    // destination endpoint is cold per-packet data, looked up once here.
    assert(packets_ != nullptr);
    const int local_ep =
        static_cast<int>((*packets_)[head.packet_id].dst_endpoint) -
        static_cast<int>(id_) * cfg_.endpoints_per_chiplet;
    assert(local_ep >= 0 && local_ep < cfg_.endpoints_per_chiplet);
    iv.out_port = static_cast<int>(n_network_ports_) + local_ep;
    iv.out_vc = 0;
    iv.out_is_ejection = true;
    iv.escape = false;
    iv.flits_sent = 0;
    iv.blocked_cycles = 0;
    iv.state = VcState::kActive;
    mark_request(static_cast<std::size_t>(iv.out_port), iv_flat);
  } else {
    iv.out_is_ejection = false;
    iv.blocked_cycles = 0;
    iv.state = VcState::kNeedsVc;
    set_bit(needs_vc_.data(), iv_flat);
  }
  set_bit(non_idle_.data(), iv_flat);
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
bool Router::try_allocate_vc(InputVc& iv, int iv_flat) {
  const Flit& head = iv.buf.front().flit;
  const graph::NodeId dst = head.dst_router;

  const bool use_minimal = cfg_.routing != RoutingMode::kUpDownOnly &&
                           !head.escape && cfg_.vcs > 1;
  // Degraded view installed (mid-fault): route on the tables rebuilt for
  // the live graph, whose ports are translated back to the physical port
  // numbering. Healthy runs pay one perfectly-predicted null check.
  const RoutingTables* tables = deg_tables_ == nullptr ? tables_ : deg_tables_;
  if (use_minimal) {
    const auto ports = tables->minimal_ports(id_, dst);
    std::size_t first = 0;
    std::size_t count = ports.size();
    if (cfg_.routing == RoutingMode::kDeterministicMinimal) {
      // anynet-style: one fixed shortest path per (node, destination).
      count = 1;
    } else if (ports.size() > 1) {
      // Adaptive: rotate the starting candidate to spread load.
      first = static_cast<std::size_t>(rng_.uniform_int(ports.size()));
    }
    for (std::size_t i = 0; i < count; ++i) {
      int port = ports[(i + first) % ports.size()];
      if (deg_port_map_ != nullptr) {
        port = deg_port_map_[static_cast<std::size_t>(port)];
      }
      if (free_adaptive_[static_cast<std::size_t>(port)] == 0) continue;
      for (int vc = 1; vc < cfg_.vcs; ++vc) {
        OutputVc& ov = out_[static_cast<std::size_t>(flat(port, vc))];
        if (ov.owner < 0) {
          ov.owner = iv_flat;
          --free_adaptive_[static_cast<std::size_t>(port)];
          iv.out_port = port;
          iv.out_vc = vc;
          iv.escape = false;
          iv.flits_sent = 0;
          iv.state = VcState::kActive;
          clear_bit(needs_vc_.data(), iv_flat);
          set_bit(revocable_.data(), iv_flat);
          mark_request(static_cast<std::size_t>(port), iv_flat);
          return true;
        }
      }
    }
  }

  // Escape (or up*/down*-only mode): deterministic up*/down* next hop.
  // Headers that still have adaptive options only consider the escape VC
  // after `escape_threshold` blocked cycles, so the escape tree root does
  // not become the bottleneck at saturation; deadlock freedom is preserved
  // for any finite threshold (a blocked header eventually requests the
  // always-draining escape network).
  const bool allow_escape =
      !use_minimal || iv.blocked_cycles >= cfg_.escape_threshold;
  if (allow_escape) {
    EscapeHop hop = tables->escape_hop(id_, dst, head.ud_phase);
    if (deg_port_map_ != nullptr) hop.port = deg_port_map_[hop.port];
    // During a reconvergence window the stale escape hop can aim at a
    // killed port; a detached channel means "wait for the table swap"
    // (blocked, not allocated), never a push into a dead link.
    if (out_channel_[hop.port] == nullptr) {
      ++iv.blocked_cycles;
      ++stats_.va_stall_cycles;
      return false;
    }
    const int vc_lo = 0;
    const int vc_hi = cfg_.routing == RoutingMode::kUpDownOnly ? cfg_.vcs : 1;
    for (int vc = vc_lo; vc < vc_hi; ++vc) {
      OutputVc& ov = out_[static_cast<std::size_t>(flat(hop.port, vc))];
      if (ov.owner < 0) {
        ov.owner = iv_flat;
        if (vc >= 1) --free_adaptive_[hop.port];
        iv.out_port = hop.port;
        iv.out_vc = vc;
        iv.escape = true;
        iv.next_phase = hop.next_phase;
        iv.flits_sent = 0;
        iv.state = VcState::kActive;
        clear_bit(needs_vc_.data(), iv_flat);
        set_bit(revocable_.data(), iv_flat);
        mark_request(hop.port, iv_flat);
        return true;
      }
    }
  }
  ++iv.blocked_cycles;
  ++stats_.va_stall_cycles;
  return false;
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
template <typename Visit>
bool Router::walk_from(const std::uint64_t* mask, int start,
                       Visit&& visit) const {
  const std::size_t sw = static_cast<std::size_t>(start) >> 6;
  const std::uint64_t high = ~0ULL << (start & 63);
  for (std::size_t step = 0; step <= mask_words_; ++step) {
    std::size_t w = sw + step;
    if (w >= mask_words_) w -= mask_words_;
    std::uint64_t m = mask[w];
    if (step == 0) {
      m &= high;
    } else if (step == mask_words_) {
      m &= ~high;
    }
    while (m != 0) {
      const int idx = static_cast<int>(w << 6) + std::countr_zero(m);
      m &= m - 1;
      if (visit(idx)) return true;
    }
  }
  return false;
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::step(Cycle now) {
  now_ = now;
  const int total_vcs = static_cast<int>(in_.size());

  // --- RC: classify fresh heads -------------------------------------------
  // Ascending walk of the occupied idle VCs: every other VC either has no
  // head to classify or is already routing a packet.
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t m = occupied_[w] & ~non_idle_[w];
    while (m != 0) {
      const int idx = static_cast<int>(w << 6) + std::countr_zero(m);
      m &= m - 1;
      InputVc& iv = in_[static_cast<std::size_t>(idx)];
      assert(iv.buf.front().flit.head);
      route_compute(iv, idx);
    }
  }

  // --- VA: allocate output VCs in round-robin order ------------------------
  // Starting offset derived from the cycle number: identical to a pointer
  // incremented once per cycle, but invariant under idle-cycle skipping.
  // Circular walk of the needs-VC VCs from that offset.
  const int va_start = static_cast<int>(now % static_cast<Cycle>(total_vcs));
  walk_from(needs_vc_.data(), va_start, [&](int idx) {
    try_allocate_vc(in_[static_cast<std::size_t>(idx)], idx);
    return false;
  });

  // --- SA: switch allocation + traversal -----------------------------------
  switch_allocate(now);

  // --- Escape fallback: release blocked, not-yet-started allocations -------
  revoke_blocked_heads();
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::switch_allocate(Cycle now) {
  const int total_vcs = static_cast<int>(in_.size());
  std::fill(sa_in_port_used_.begin(), sa_in_port_used_.end(), 0);
  grants_.clear();

  // Tries flat input VC `idx`, a requester of `out_p`; true on a grant.
  auto try_grant = [&](std::size_t out_p, int idx) {
    InputVc& iv = in_[static_cast<std::size_t>(idx)];
    const auto in_port =
        static_cast<std::size_t>(idx) / static_cast<std::size_t>(cfg_.vcs);
    if (iv.buf.empty()) return false;
    if (sa_in_port_used_[in_port]) {
      ++stats_.sa_conflict_stalls;
      return false;
    }
    if (iv.buf.front().ready_time > now) return false;
    OutputVc& ov = out_[static_cast<std::size_t>(flat(out_p, iv.out_vc))];
    if (ov.credits <= 0) {
      ++stats_.sa_credit_stalls;
      return false;
    }

    // Grant: traverse the switch and the output link (an 8-byte copy).
    Flit f = iv.buf.front().flit;
    iv.buf.pop_front();
    --buffered_;
    if (iv.buf.empty()) clear_bit(occupied_.data(), idx);
    f.vc = static_cast<std::uint8_t>(iv.out_vc);
    if (iv.escape) {
      f.escape = 1;
      f.ud_phase = iv.next_phase & 1;
    }
    out_channel_[out_p]->push(f, now + out_latency_[out_p]);
    --ov.credits;
    ++iv.flits_sent;
    clear_bit(revocable_.data(), idx);  // the packet has made progress
    ++stats_.flits_routed;
    sa_in_port_used_[in_port] = 1;

    // Return a credit for the freed buffer slot upstream.
    const bool credit = credit_channel_[in_port] != nullptr;
    if (credit) {
      credit_channel_[in_port]->push(
          static_cast<int>(static_cast<std::size_t>(idx) %
                           static_cast<std::size_t>(cfg_.vcs)),
          now + credit_latency_[in_port]);
    }
    grants_.push_back(Grant{static_cast<std::uint16_t>(in_port),
                            static_cast<std::uint16_t>(out_p), credit});

    if (f.tail) {
      // Release the input VC and (for network outputs) the output VC.
      if (!iv.out_is_ejection) {
        ov.owner = -1;
        if (iv.out_vc >= 1) ++free_adaptive_[out_p];
      }
      clear_request(out_p, idx);
      clear_bit(non_idle_.data(), idx);
      iv.state = VcState::kIdle;
      iv.out_port = -1;
      iv.out_vc = -1;
      iv.escape = false;
      iv.next_phase = 0;
      iv.flits_sent = 0;
    }
    sa_in_rr_[out_p] = (idx + 1) % total_vcs;
    return true;
  };

  // One greedy pass: each output port with requesters, in round-robin
  // order from a cycle-derived offset (skip-invariant, see step()), grants
  // its first ready requester in round-robin order from sa_in_rr_. A
  // second pass could never grant: a port that granted nothing saw each
  // requester fail on an empty buffer, a used input port, an unready head
  // or zero credits, and within a cycle input ports only become used
  // while a VC's buffer and credits change only through grants on its own
  // output port. So each requester is visited at most once per cycle.
  std::size_t out_p =
      static_cast<std::size_t>(now % static_cast<Cycle>(n_ports_));
  for (std::size_t i = 0; i < n_ports_; ++i, ++out_p) {
    if (out_p == n_ports_) out_p = 0;
    // Request-free ports cannot grant; skipping them is free of side
    // effects (an empty mask calls no try_grant, so it touches no stats).
    if (sa_req_count_[out_p] == 0 || out_channel_[out_p] == nullptr) continue;
    walk_from(&sa_request_mask_[out_p * mask_words_], sa_in_rr_[out_p],
              [&](int idx) { return try_grant(out_p, idx); });
  }
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::revoke_blocked_heads() {
  // Ascending walk of the revocable VCs (kActive toward a network output,
  // no flit sent yet, so the head is still buffered).
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t m = revocable_[w];
    while (m != 0) {
      const int idx = static_cast<int>(w << 6) + std::countr_zero(m);
      m &= m - 1;
      InputVc& iv = in_[static_cast<std::size_t>(idx)];
      if (iv.buf.front().ready_time > now_) continue;
      OutputVc& ov =
          out_[static_cast<std::size_t>(flat(iv.out_port, iv.out_vc))];
      if (ov.credits > 0) continue;  // not blocked, just lost arbitration
      // Header is blocked with zero progress: release the allocation so the
      // next VA round can try other minimal ports or the escape VC. This
      // must count toward the escape threshold, otherwise a header cycling
      // through allocate/revoke on credit-starved VCs would never become
      // eligible for the escape network.
      ov.owner = -1;
      if (iv.out_vc >= 1) {
        ++free_adaptive_[static_cast<std::size_t>(iv.out_port)];
      }
      clear_request(static_cast<std::size_t>(iv.out_port), idx);
      clear_bit(revocable_.data(), idx);
      set_bit(needs_vc_.data(), idx);
      iv.out_port = -1;
      iv.out_vc = -1;
      iv.escape = false;
      iv.state = VcState::kNeedsVc;
      ++iv.blocked_cycles;
      ++stats_.heads_revoked;
    }
  }
}

std::size_t Router::buffered_flits() const {
  std::size_t total = 0;
  for (const auto& iv : in_) total += iv.buf.size();
  return total;
}

void Router::set_degraded(const RoutingTables* tables,
                          const std::uint8_t* port_map) {
  deg_tables_ = tables;
  deg_port_map_ = port_map;
}

void Router::fault_kill_port(std::size_t port) {
  assert(port < n_network_ports_);
  out_channel_[port] = nullptr;
  credit_channel_[port] = nullptr;
  for (int v = 0; v < cfg_.vcs; ++v) {
    out_[static_cast<std::size_t>(flat(port, v))].credits = 0;
  }
  free_adaptive_[port] = 0;
}

void Router::fault_restore_port(std::size_t port, FlitChannel* out,
                                int out_latency, CreditChannel* credit,
                                int credit_latency) {
  assert(port < n_network_ports_);
  out_channel_[port] = out;
  out_latency_[port] = out_latency;
  credit_channel_[port] = credit;
  credit_latency_[port] = credit_latency;
  for (int v = 0; v < cfg_.vcs; ++v) {
    OutputVc& ov = out_[static_cast<std::size_t>(flat(port, v))];
    assert(ov.owner < 0);
    ov.credits = cfg_.buffer_depth;
  }
  free_adaptive_[port] = cfg_.vcs - 1;
}

void Router::fault_refund_credit(std::size_t port, int vc) {
  assert(port < n_network_ports_);
  OutputVc& ov = out_[static_cast<std::size_t>(flat(port, vc))];
  ++ov.credits;
  assert(ov.credits <= cfg_.buffer_depth);
}

void Router::fault_collect_committed(
    const std::function<bool(std::size_t)>& dead_out,
    std::vector<std::uint32_t>* out) const {
  for (const InputVc& iv : in_) {
    if (iv.state == VcState::kActive && !iv.out_is_ejection &&
        iv.flits_sent > 0 &&
        dead_out(static_cast<std::size_t>(iv.out_port))) {
      out->push_back(iv.cur_packet);
    }
  }
}

Router::FaultExcision Router::fault_excise(
    const std::function<bool(std::uint32_t)>& poisoned,
    const std::function<bool(std::size_t)>& dead_out,
    const std::function<void(std::size_t, int)>& refund) {
  FaultExcision result;
  std::vector<BufFlit> kept;
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      const int idx = flat(p, v);
      InputVc& iv = in_[static_cast<std::size_t>(idx)];

      // Drop buffered flits of poisoned packets, refunding the upstream
      // credit for each exactly as a grant would have.
      if (!iv.buf.empty()) {
        kept.clear();
        const std::size_t sz = iv.buf.size();
        for (std::size_t i = 0; i < sz; ++i) {
          const BufFlit& bf = iv.buf[i];
          if (poisoned(bf.flit.packet_id)) {
            refund(p, v);
          } else {
            kept.push_back(bf);
          }
        }
        if (kept.size() != sz) {
          const std::size_t removed = sz - kept.size();
          iv.buf.clear();
          for (const BufFlit& bf : kept) iv.buf.push_back(bf);
          buffered_ -= removed;
          result.flits_removed += removed;
          if (iv.buf.empty()) clear_bit(occupied_.data(), idx);
        }
      }

      // Fix the VC state machine: a poisoned tracked packet resets to
      // idle; a zero-progress allocation toward a dead port is revoked so
      // the head re-routes (packets with flits already on the dead link
      // were poisoned by fault_collect_committed).
      if (iv.state == VcState::kIdle) continue;
      const bool tracked_poisoned = poisoned(iv.cur_packet);
      const bool toward_dead =
          iv.state == VcState::kActive && !iv.out_is_ejection &&
          dead_out(static_cast<std::size_t>(iv.out_port));
      if (!tracked_poisoned && !toward_dead) continue;
      if (iv.state == VcState::kActive) {
        clear_request(static_cast<std::size_t>(iv.out_port), idx);
        if (!iv.out_is_ejection) {
          OutputVc& ov =
              out_[static_cast<std::size_t>(flat(iv.out_port, iv.out_vc))];
          ov.owner = -1;
          if (iv.out_vc >= 1 &&
              !dead_out(static_cast<std::size_t>(iv.out_port))) {
            ++free_adaptive_[static_cast<std::size_t>(iv.out_port)];
          }
        }
      }
      if (tracked_poisoned) {
        iv.state = VcState::kIdle;
        iv.blocked_cycles = 0;
        iv.cur_packet = 0;
        clear_bit(needs_vc_.data(), idx);
        clear_bit(non_idle_.data(), idx);
      } else {
        assert(iv.flits_sent == 0);
        iv.state = VcState::kNeedsVc;
        set_bit(needs_vc_.data(), idx);
        ++result.packets_rerouted;
      }
      clear_bit(revocable_.data(), idx);
      iv.out_port = -1;
      iv.out_vc = -1;
      iv.out_is_ejection = false;
      iv.escape = false;
      iv.next_phase = 0;
      iv.flits_sent = 0;
    }
  }
  return result;
}

bool Router::invariants_ok(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = "router " + std::to_string(id_) + ": " + msg;
    return false;
  };
  if (buffered_ != buffered_flits()) {
    return fail("incremental buffered-flit count out of sync");
  }
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      const int idx = flat(p, v);
      const InputVc& iv = in_[static_cast<std::size_t>(idx)];
      const bool occupied = test_bit(occupied_.data(), idx);
      const bool needs_vc = test_bit(needs_vc_.data(), idx);
      const bool revocable = test_bit(revocable_.data(), idx);
      if (occupied != !iv.buf.empty()) {
        return fail("occupancy bit out of sync with buffer");
      }
      if (needs_vc != (iv.state == VcState::kNeedsVc)) {
        return fail("needs-VC bit out of sync with VC state");
      }
      if (test_bit(non_idle_.data(), idx) != (iv.state != VcState::kIdle)) {
        return fail("non-idle bit out of sync with VC state");
      }
      if (revocable != (iv.state == VcState::kActive && !iv.out_is_ejection &&
                        iv.flits_sent == 0)) {
        return fail("revocable bit out of sync with VC state");
      }
      if ((needs_vc || revocable) && !occupied) {
        return fail("needs-VC or revocable VC without a buffered head");
      }
      if (iv.buf.size() > static_cast<std::size_t>(cfg_.buffer_depth)) {
        return fail("input buffer overflow");
      }
      if (iv.state == VcState::kIdle && !iv.buf.empty() &&
          !iv.buf.front().flit.head) {
        return fail("idle VC with non-head front flit");
      }
      if (iv.state == VcState::kActive && !iv.out_is_ejection) {
        if (iv.out_port < 0 || iv.out_vc < 0) return fail("active without VC");
        const OutputVc& ov =
            out_[static_cast<std::size_t>(flat(iv.out_port, iv.out_vc))];
        if (ov.owner != flat(p, v)) return fail("ownership mismatch");
      }
    }
    if (p < n_network_ports_) {
      for (int v = 0; v < cfg_.vcs; ++v) {
        const OutputVc& ov = out_[static_cast<std::size_t>(flat(p, v))];
        if (ov.credits < 0 || ov.credits > cfg_.buffer_depth) {
          return fail("credit out of range");
        }
      }
    }
  }
  return true;
}

}  // namespace hm::noc
