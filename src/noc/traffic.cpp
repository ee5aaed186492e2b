#include "noc/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace hm::noc {

void TrafficSpec::validate(std::size_t num_endpoints) const {
  if (!(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0)) {
    throw std::invalid_argument(
        "TrafficSpec: hotspot_fraction must be in [0, 1]");
  }
  if (num_endpoints > 0) {
    for (const std::uint16_t h : hotspots) {
      if (h >= num_endpoints) {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "TrafficSpec: hotspot endpoint id %u out of range for "
                      "%zu endpoints",
                      static_cast<unsigned>(h), num_endpoints);
        throw std::invalid_argument(msg);
      }
    }
  }
}

std::string TrafficSpec::describe() const {
  switch (pattern) {
    case TrafficPattern::kHotspot: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "hotspot(f=%g,n=%zu)", hotspot_fraction,
                    hotspots.empty() ? std::size_t{1} : hotspots.size());
      return buf;
    }
    case TrafficPattern::kPermutation:
      return "permutation(seed=" + std::to_string(permutation_seed) + ")";
    default:
      return to_string(pattern);
  }
}

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniform: return "uniform";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kBitComplement: return "bit-complement";
    case TrafficPattern::kPermutation: return "permutation";
  }
  return "?";
}

SyntheticTraffic::SyntheticTraffic(TrafficSpec spec,
                                   std::size_t num_endpoints,
                                   double flit_rate, int packet_length)
    : spec_(std::move(spec)),
      num_endpoints_(num_endpoints),
      packet_rate_(flit_rate / packet_length),
      packet_length_(packet_length) {
  if (num_endpoints < 2) {
    throw std::invalid_argument("SyntheticTraffic: need >= 2 endpoints");
  }
  if (flit_rate < 0.0 || flit_rate > 1.0) {
    throw std::invalid_argument(
        "SyntheticTraffic: flit_rate must be in [0, 1]");
  }
  if (packet_length < 1) {
    throw std::invalid_argument(
        "SyntheticTraffic: packet_length must be >= 1");
  }
  spec_.validate(num_endpoints_);
  if (spec_.pattern == TrafficPattern::kHotspot && spec_.hotspots.empty()) {
    spec_.hotspots.push_back(0);
  }
  if (spec_.pattern == TrafficPattern::kPermutation) {
    permutation_.resize(num_endpoints_);
    std::iota(permutation_.begin(), permutation_.end(), 0);
    // Fisher-Yates with the library RNG so the permutation is platform-
    // independent and fully determined by permutation_seed.
    Rng rng(spec_.permutation_seed);
    for (std::size_t i = num_endpoints_ - 1; i > 0; --i) {
      const std::size_t j = rng.uniform_int(i + 1);
      std::swap(permutation_[i], permutation_[j]);
    }
  }
}

std::uint16_t SyntheticTraffic::permutation_target(std::uint16_t src) const {
  if (spec_.pattern == TrafficPattern::kPermutation) {
    return permutation_[src];
  }
  if (spec_.pattern == TrafficPattern::kBitComplement) {
    return static_cast<std::uint16_t>(num_endpoints_ - 1 - src);
  }
  throw std::logic_error(
      "permutation_target: pattern has no fixed destination");
}

std::uint16_t SyntheticTraffic::draw_destination(std::uint16_t src, Rng& rng) {
  std::uint16_t dst = src;
  switch (spec_.pattern) {
    case TrafficPattern::kUniform: {
      dst = static_cast<std::uint16_t>(rng.uniform_int(num_endpoints_ - 1));
      if (dst >= src) ++dst;
      break;
    }
    case TrafficPattern::kHotspot: {
      if (rng.bernoulli(spec_.hotspot_fraction)) {
        dst = spec_.hotspots[rng.uniform_int(spec_.hotspots.size())];
      } else {
        dst = static_cast<std::uint16_t>(rng.uniform_int(num_endpoints_ - 1));
        if (dst >= src) ++dst;
      }
      break;
    }
    case TrafficPattern::kBitComplement:
    case TrafficPattern::kPermutation:
      dst = permutation_target(src);
      break;
  }
  return dst;
}

Cycle SyntheticTraffic::sample_gap(Rng& rng) const {
  if (packet_rate_ <= 0.0) return kNever;
  if (packet_rate_ >= 1.0) return 0;  // every cycle is a success
  // Inverse-CDF geometric sampling: the number of Bernoulli(p) failures
  // before the next success is floor(log(1-u) / log(1-p)) for u ~ U[0,1).
  // One uniform draw replaces a die roll per idle cycle, with exactly the
  // per-cycle Bernoulli attempt-time distribution.
  const double u = rng.uniform();
  const double k = std::floor(std::log1p(-u) / std::log1p(-packet_rate_));
  // Clamp pathological tails (u extremely close to 1 at tiny rates) so the
  // scheduled cycle can never overflow Cycle arithmetic.
  constexpr double kMaxGap = 1e15;
  return static_cast<Cycle>(std::min(k, kMaxGap));
}

void SyntheticTraffic::bind(std::uint64_t base_seed, Cycle start_cycle) {
  streams_.clear();
  streams_.reserve(num_endpoints_);
  events_.clear();
  events_.reserve(num_endpoints_);
  for (std::size_t e = 0; e < num_endpoints_; ++e) {
    streams_.emplace_back(derive_seed(base_seed, e));
    const Cycle gap = sample_gap(streams_.back());
    if (gap == kNever) continue;
    events_.push_back(Event{start_cycle + gap,
                            static_cast<std::uint16_t>(e)});
  }
  // Min-heap on (cycle, endpoint id): pops at equal cycles come out in
  // ascending endpoint order.
  const auto later = [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.src > b.src;
  };
  std::make_heap(events_.begin(), events_.end(), later);
}

void SyntheticTraffic::generate_due(Cycle now, std::vector<Packet>& out) {
  const auto later = [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.src > b.src;
  };
  while (!events_.empty() && events_.front().at <= now) {
    std::pop_heap(events_.begin(), events_.end(), later);
    const Event ev = events_.back();
    events_.pop_back();
    Rng& rng = streams_[ev.src];

    const std::uint16_t dst = draw_destination(ev.src, rng);
    if (dst != ev.src) {  // self-traffic carries no ICI load
      Packet p;  // id is assigned by the PacketTable at admission
      p.src_endpoint = ev.src;
      p.dst_endpoint = dst;
      p.length = static_cast<std::uint16_t>(packet_length_);
      p.gen_time = now;
      out.push_back(p);
    }

    const Cycle gap = sample_gap(rng);
    if (gap == kNever) continue;
    events_.push_back(Event{ev.at + 1 + gap, ev.src});
    std::push_heap(events_.begin(), events_.end(), later);
  }
}

}  // namespace hm::noc
