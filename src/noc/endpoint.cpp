#include "noc/endpoint.hpp"

#include <cassert>
#include <stdexcept>

namespace hm::noc {

Endpoint::Endpoint(std::uint16_t id, const SimConfig& cfg,
                   PacketTable* packets)
    : id_(id), cfg_(cfg), packets_(packets) {
  if (packets_ == nullptr) {
    throw std::invalid_argument("Endpoint: null packet table");
  }
  credits_.assign(cfg_.vcs, cfg_.buffer_depth);
  queue_.reserve(static_cast<std::size_t>(cfg_.source_queue_capacity));
}

void Endpoint::wire_injection(FlitChannel* channel, int latency) {
  if (channel == nullptr || latency < 1) {
    throw std::invalid_argument("Endpoint::wire_injection: bad wiring");
  }
  inj_channel_ = channel;
  inj_latency_ = latency;
}

bool Endpoint::try_enqueue(const Packet& p) {
  if (!alive_ ||
      queue_.size() >= static_cast<std::size_t>(cfg_.source_queue_capacity)) {
    return false;
  }
  assert(p.src_endpoint == id_);
  Packet admitted = p;
  admitted.id = packets_->add(p);  // cold record written exactly once
  queue_.push_back(admitted);
  if (queue_.size() > queue_hwm_) queue_hwm_ = queue_.size();
  return true;
}

void Endpoint::receive_credit(int vc) {
  ++credits_[vc];
  assert(credits_[vc] <= cfg_.buffer_depth);
}

bool Endpoint::inject(Cycle now) {
  if (queue_.empty() || inj_channel_ == nullptr) return false;

  // Pick a VC for a fresh packet (round-robin among VCs with credit).
  if (active_vc_ < 0) {
    for (int i = 0; i < cfg_.vcs; ++i) {
      const int vc = (rr_vc_ + i) % cfg_.vcs;
      if (credits_[vc] > 0) {
        active_vc_ = vc;
        rr_vc_ = (vc + 1) % cfg_.vcs;
        next_flit_ = 0;
        break;
      }
    }
    if (active_vc_ < 0) return false;  // all VCs back-pressured
  }

  if (credits_[active_vc_] <= 0) return false;  // stall mid-packet

  const Packet& p = queue_.front();
  Flit f;
  f.packet_id = p.id;
  f.dst_router = static_cast<std::uint16_t>(
      p.dst_endpoint / cfg_.endpoints_per_chiplet);
  f.vc = static_cast<std::uint8_t>(active_vc_);
  f.head = next_flit_ == 0;
  f.tail = next_flit_ == p.length - 1;

  inj_channel_->push(f, now + inj_latency_);
  --credits_[active_vc_];
  ++flits_injected_;
  ++next_flit_;
  if (f.tail) {
    queue_.pop_front();
    active_vc_ = -1;
    next_flit_ = 0;
  }
  return true;
}

bool Endpoint::receive_flit(const Flit& f, Cycle now) {
  ++sink_.flits_ejected;
  if (f.tail) {
    const PacketRecord& rec = (*packets_)[f.packet_id];
    assert(rec.dst_endpoint == id_);
    ++sink_.packets_ejected;
    if (rec.gen_time >= window_begin_ && rec.gen_time < window_end_) {
      ++sink_.tagged_packets;
      sink_.tagged_latency_sum +=
          static_cast<std::uint64_t>(now - rec.gen_time);
      return true;
    }
  }
  return false;
}

void Endpoint::set_measurement_window(Cycle begin, Cycle end) {
  window_begin_ = begin;
  window_end_ = end;
}

void Endpoint::reset() {
  queue_.clear();
  credits_.assign(cfg_.vcs, cfg_.buffer_depth);
  active_vc_ = -1;
  next_flit_ = 0;
  rr_vc_ = 0;
  flits_injected_ = 0;
  queue_hwm_ = 0;
  sink_ = SinkStats{};
  window_begin_ = 0;
  window_end_ = std::numeric_limits<Cycle>::min();
  alive_ = true;
}

void Endpoint::fault_refund_credit(int vc) {
  ++credits_[vc];
  assert(credits_[vc] <= cfg_.buffer_depth);
}

void Endpoint::fault_abort_active() {
  assert(next_flit_ > 0 && !queue_.empty());
  queue_.pop_front();
  active_vc_ = -1;
  next_flit_ = 0;
}

std::size_t Endpoint::fault_flush_queue(
    const std::function<bool(const Packet&)>& drop) {
  if (queue_.empty()) return 0;
  std::size_t removed = 0;
  if (next_flit_ > 0 && drop(queue_.front())) {
    fault_abort_active();  // pops the front; its injected flits are excised
    ++removed;
  }
  RingQueue<Packet> kept;
  kept.reserve(static_cast<std::size_t>(cfg_.source_queue_capacity));
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (drop(queue_[i])) {
      ++removed;
    } else {
      kept.push_back(queue_[i]);
    }
  }
  queue_ = std::move(kept);
  return removed;
}

void Endpoint::fault_reset_flow_state() {
  credits_.assign(cfg_.vcs, cfg_.buffer_depth);
  active_vc_ = -1;
  next_flit_ = 0;
}

std::size_t Endpoint::pending_flits() const noexcept {
  std::size_t flits = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) flits += queue_[i].length;
  // Subtract the part of the front packet that has already been injected.
  flits -= static_cast<std::size_t>(next_flit_);
  return flits;
}

}  // namespace hm::noc
