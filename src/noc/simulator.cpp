#include "noc/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "faults/controller.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::noc {

namespace {
/// Stream salt separating the traffic base seed from every other consumer
/// of derive_seed(cfg.seed, ...) (per-router arbitration streams, per-job
/// sweep seeds).
constexpr std::uint64_t kTrafficStreamSalt = 0x6369666661725463ULL;
}  // namespace

Simulator::Simulator(const graph::Graph& g, const SimConfig& cfg)
    : Simulator(TopologyContext::acquire(g), cfg) {}

Simulator::Simulator(std::shared_ptr<const TopologyContext> topo,
                     const SimConfig& cfg)
    : cfg_(cfg),
      lease_(SimulationArena::owned(std::move(topo), cfg)),
      net_(lease_.network()) {}

Simulator::Simulator(SimulationArena& arena,
                     std::shared_ptr<const TopologyContext> topo,
                     const SimConfig& cfg)
    : cfg_(cfg),
      lease_(arena.lease(std::move(topo), cfg)),
      net_(lease_.network()) {
  // The arena reuse key deliberately excludes the seed, so a recycled
  // network may carry router streams seeded by the previous probe.
  net_.seed_rngs(cfg.seed);
}

Simulator::~Simulator() {
  if (!telemetry::enabled()) return;
  static telemetry::Counter flits_routed("sim.flits_routed");
  static telemetry::Counter va_stalls("sim.va_stall_cycles");
  static telemetry::Counter sa_conflicts("sim.sa_conflict_stalls");
  static telemetry::Counter sa_credit("sim.sa_credit_stalls");
  static telemetry::Counter revoked("sim.heads_revoked");
  static telemetry::Counter admitted("sim.packets_admitted");
  static telemetry::Counter dropped("sim.packets_dropped");
  static telemetry::Gauge ring_hwm("sim.ring_hwm");
  static telemetry::Gauge source_hwm("sim.source_queue_hwm");
  static telemetry::Gauge active_routers("sim.active_routers");
  static telemetry::Counter idle_skipped("sim.idle_skipped_cycles");
  static telemetry::Counter router_steps("sim.router_steps");
  const Network::HotStats s = net_.hot_stats();
  flits_routed.add(s.routers.flits_routed);
  va_stalls.add(s.routers.va_stall_cycles);
  sa_conflicts.add(s.routers.sa_conflict_stalls);
  sa_credit.add(s.routers.sa_credit_stalls);
  revoked.add(s.routers.heads_revoked);
  admitted.add(packets_admitted_);
  dropped.add(packets_dropped_);
  ring_hwm.set_max(s.routers.ring_hwm);
  source_hwm.set_max(s.source_queue_hwm);
  active_routers.set_max(s.active_router_hwm);
  idle_skipped.add(idle_skipped_cycles_);
  router_steps.add(s.router_steps);
}

void Simulator::set_traffic(const TrafficSpec& spec) {
  spec.validate(net_.num_endpoints());
  traffic_spec_ = spec;
}

void Simulator::bind_traffic(SyntheticTraffic& traffic) {
  // Salting with the start cycle gives back-to-back runs on one Simulator
  // decorrelated streams (the shared-Rng scheme this replaces consumed one
  // stream across runs, so the second run never replayed the first).
  const std::uint64_t base =
      derive_seed(derive_seed(cfg_.seed, kTrafficStreamSalt),
                  static_cast<std::uint64_t>(now_));
  traffic.bind(base, now_);
}

void Simulator::tick(SyntheticTraffic& traffic) {
  if (faults_ != nullptr) faults_->on_tick(net_, now_);
  gen_scratch_.clear();
  traffic.generate_due(now_, gen_scratch_);
  for (const Packet& p : gen_scratch_) {
    if (faults_ != nullptr && !faults_->packet_routable(p)) {
      // Dead source or destination: suppress the packet before it touches
      // a source queue (counted, never on the wire).
      faults_->note_unroutable_packet();
      continue;
    }
    // A full source queue throttles the offered load (the generated packet
    // is dropped at the source, exactly like BookSim's finite source
    // queues under saturation).
    if (net_.offer_packet(p.src_endpoint, p)) {
      ++packets_admitted_;
      if (p.gen_time >= tag_begin_ && p.gen_time < tag_end_) {
        ++tagged_generated_;
      }
    } else {
      ++packets_dropped_;
    }
  }
  net_.step(now_);
  ++now_;
}

void Simulator::advance_until(Cycle limit, SyntheticTraffic& traffic) {
  while (now_ < limit) {
    if (cfg_.skip_idle && net_.quiescent()) {
      // Nothing buffered, queued or in flight: every cycle until the next
      // traffic event is an observable no-op. Jump straight there. Gated
      // on skip_idle so the dense mode stays the plain reference stepper
      // (quiescent() is O(1) here, a full scan there).
      Cycle next = traffic.next_event_cycle();
      if (faults_ != nullptr) {
        // Never skip over a pending fault event or table swap.
        const Cycle fault_next = faults_->next_event_cycle();
        if (fault_next < next) next = fault_next;
      }
      const Cycle target = next < limit ? next : limit;
      if (target > now_) {
        idle_skipped_cycles_ += static_cast<std::uint64_t>(target - now_);
        now_ = target;
        if (now_ >= limit) break;
      }
    }
    tick(traffic);
  }
}

LatencyResult Simulator::run_latency(double flit_rate, Cycle warmup,
                                     Cycle measure, Cycle drain_limit) {
  SyntheticTraffic traffic(traffic_spec_, net_.num_endpoints(), flit_rate,
                           cfg_.packet_length);
  bind_traffic(traffic);
  const Cycle window_begin = now_ + warmup;
  const Cycle window_end = window_begin + measure;
  for (std::size_t e = 0; e < net_.num_endpoints(); ++e) {
    net_.endpoint(e).set_measurement_window(window_begin, window_end);
  }

  // Tagged packets are counted at generation time (enqueue success, inside
  // tick()) so the drain condition is exact; deliveries come from the
  // network's O(1) running counter instead of an O(endpoints) sink scan
  // per drain cycle.
  tag_begin_ = window_begin;
  tag_end_ = window_end;
  tagged_generated_ = 0;
  const std::uint64_t delivered_before = net_.tagged_delivered();
  // The sinks' latency sums, like the delivery counter, accumulate over
  // every run on this network: snapshot both so this run averages only the
  // packets it tagged.
  const auto tagged_latency_sum = [this] {
    std::uint64_t sum = 0;
    for (std::size_t e = 0; e < net_.num_endpoints(); ++e) {
      sum += net_.endpoint(e).sink().tagged_latency_sum;
    }
    return sum;
  };
  const std::uint64_t latency_sum_before = tagged_latency_sum();

  // Warmup + measurement window.
  advance_until(window_end, traffic);

  // Drain phase: keep offering traffic (BookSim semantics) until every
  // tagged packet is delivered. No fast-forward check: a quiescent network
  // has no undelivered tagged packets, so the loop exits first.
  const Cycle drain_end = window_end + drain_limit;
  while (net_.tagged_delivered() - delivered_before < tagged_generated_ &&
         now_ < drain_end) {
    tick(traffic);
  }

  LatencyResult result;
  result.packets_measured = net_.tagged_delivered() - delivered_before;
  result.drained = result.packets_measured == tagged_generated_;
  const std::uint64_t latency_sum = tagged_latency_sum() - latency_sum_before;
  result.avg_packet_latency =
      result.packets_measured == 0
          ? 0.0
          : static_cast<double>(latency_sum) /
                static_cast<double>(result.packets_measured);
  tag_end_ = std::numeric_limits<Cycle>::min();  // stop tagging admissions
  return result;
}

ThroughputResult Simulator::run_throughput(double flit_rate, Cycle warmup,
                                           Cycle measure) {
  SyntheticTraffic traffic(traffic_spec_, net_.num_endpoints(), flit_rate,
                           cfg_.packet_length);
  bind_traffic(traffic);
  const Cycle measure_begin = now_ + warmup;
  const Cycle measure_end = measure_begin + measure;
  advance_until(measure_begin, traffic);

  const std::uint64_t ejected_before = net_.total_flits_ejected();
  const std::uint64_t admitted_before = packets_admitted_;
  const std::uint64_t dropped_before = packets_dropped_;
  advance_until(measure_end, traffic);
  const std::uint64_t ejected_after = net_.total_flits_ejected();

  ThroughputResult result;
  result.offered_flit_rate = flit_rate;
  const double window_endpoints =
      static_cast<double>(measure) * static_cast<double>(net_.num_endpoints());
  result.accepted_flit_rate =
      static_cast<double>(ejected_after - ejected_before) / window_endpoints;
  result.generated_flit_rate =
      static_cast<double>((packets_admitted_ - admitted_before) *
                          static_cast<std::uint64_t>(cfg_.packet_length)) /
      window_endpoints;
  result.dropped_packets = packets_dropped_ - dropped_before;
  return result;
}

faults::ResilienceStats Simulator::run_resilience(double flit_rate,
                                                  const faults::FaultPlan& plan,
                                                  Cycle warmup, Cycle measure) {
  if (faults_ != nullptr) {
    throw std::logic_error(
        "Simulator::run_resilience: a fault plan is already armed on this "
        "simulator (the network keeps its post-fault state; use a fresh "
        "Simulator per resilience run)");
  }
  SyntheticTraffic traffic(traffic_spec_, net_.num_endpoints(), flit_rate,
                           cfg_.packet_length);
  bind_traffic(traffic);
  advance_until(now_ + warmup, traffic);
  faults_ = std::make_unique<faults::FaultController>(plan);
  faults_->arm(net_, now_);
  advance_until(now_ + measure, traffic);
  faults_->flush_telemetry();
  return faults_->stats();
}

std::uint64_t saturation_rate_key(double rate) noexcept {
  if (std::isnan(rate)) {
    // Any NaN payload (or sign) collapses onto the canonical quiet NaN.
    return std::bit_cast<std::uint64_t>(
        std::numeric_limits<double>::quiet_NaN());
  }
  if (rate == 0.0) rate = 0.0;  // collapse -0.0 onto +0.0 (they compare ==)
  return std::bit_cast<std::uint64_t>(rate);
}

SaturationResult find_saturation(const graph::Graph& g, const SimConfig& cfg,
                                 const SaturationSearchOptions& opts,
                                 const TrafficSpec& traffic,
                                 ProbeExecutor* executor) {
  // One topology build (or cache hit) for the whole probe sequence.
  return find_saturation(TopologyContext::acquire(g), cfg, opts, traffic,
                         executor);
}

SaturationResult find_saturation(std::shared_ptr<const TopologyContext> topo,
                                 const SimConfig& cfg,
                                 const SaturationSearchOptions& opts,
                                 const TrafficSpec& traffic,
                                 ProbeExecutor* executor) {
  if (topo == nullptr) {
    throw std::invalid_argument("find_saturation: null topology context");
  }
  traffic.validate(topo->node_count() *
                   static_cast<std::size_t>(cfg.endpoints_per_chiplet));
  telemetry::Span search_span("sat.search");
  SaturationResult result;

  // A probe's outcome is a pure function of its offered rate: every probe
  // runs on a fresh network seeded with cfg.seed. That is the invariant that
  // makes speculative parallel probing below bit-identical to the
  // sequential search.
  auto run_one = [&](double rate) {
    telemetry::Span span("sat.probe");
    static telemetry::Counter probes_run("sat.probes");
    probes_run.add();
    // Reset-and-reuse network from the calling worker's arena (bit-identical
    // to a fresh network on the shared topology, minus the allocator churn).
    Simulator sim(SimulationArena::local(), topo, cfg);
    sim.set_traffic(traffic);
    return sim.run_throughput(rate, opts.warmup, opts.measure);
  };

  // Memoized probes, batched through the executor when one is available.
  // Keyed by the rate's canonicalized bit pattern (saturation_rate_key:
  // -0.0 folded onto +0.0, NaNs onto one NaN): probe rates repeat exactly
  // (they are recomputed from the same midpoint arithmetic), so an O(1)
  // bit-equality hash lookup replaces ordered exact-double operator<
  // comparisons on the probe path.
  std::unordered_map<std::uint64_t, ThroughputResult> memo;
  const auto rate_key = [](double rate) { return saturation_rate_key(rate); };
  auto ensure = [&](const std::vector<double>& rates) {
    std::vector<double> missing;
    for (double r : rates) {
      if (!memo.contains(rate_key(r)) &&
          std::find(missing.begin(), missing.end(), r) == missing.end()) {
        missing.push_back(r);
      }
    }
    if (missing.empty()) return;
    result.probes += static_cast<int>(missing.size());
    if (executor != nullptr && missing.size() > 1) {
      std::vector<ThroughputResult> out(missing.size());
      std::vector<std::function<void()>> jobs;
      jobs.reserve(missing.size());
      for (std::size_t i = 0; i < missing.size(); ++i) {
        jobs.push_back([&, i] { out[i] = run_one(missing[i]); });
      }
      executor->run_batch(jobs);
      for (std::size_t i = 0; i < missing.size(); ++i) {
        memo.emplace(rate_key(missing[i]), out[i]);
      }
    } else {
      for (double r : missing) memo.emplace(rate_key(r), run_one(r));
    }
  };
  auto probe = [&](double rate) -> const ThroughputResult& {
    ensure({rate});
    return memo.at(rate_key(rate));
  };

  // Stable = the source queues never overflowed during the measurement
  // window (the knee indicator) and the ejected rate keeps up with the
  // rate the sources actually generated (guards against slowly-filling
  // in-network congestion). Comparing against the measured generated rate
  // rather than the nominal offered rate keeps low-rate probes with short
  // windows from flapping on traffic-generation shot noise — below the
  // knee accepted tracks generated almost exactly, noise and all. That
  // keeps probe outcomes mostly monotone in the rate, but not always: a
  // probe just below the knee can still drop packets where the next grid
  // point does not.
  auto stable = [&](const ThroughputResult& r) {
    return r.dropped_packets == 0 &&
           r.accepted_flit_rate >= opts.stability * r.generated_flit_rate;
  };

  // --- Surrogate-bracketed search ------------------------------------------
  // Gallop outward from the analytic estimate on the dyadic grid
  // k / 2^iterations — exactly the rates the plain bisection can probe
  // (its midpoints are dyadic, hence exactly representable, so memo keys
  // coincide) — then binary-search the bracket. Like the plain search, it
  // returns a local knee of the grid: lo_k is stable (or 0) and lo_k + 1
  // is unstable (or lo_k is the top of the grid). Probe outcomes are a
  // pure function of the rate, so under monotone outcomes the knee is
  // unique and this returns the plain search's grid point and accepted
  // rate; under non-monotone outcomes a different estimate can bracket a
  // different knee (test_active_set pins both). It needs
  // ~2 + log2(estimate error in grid steps) probes instead of
  // iterations + 1.
  if (opts.surrogate_rate >= 0.0 && opts.iterations >= 1) {
    const int scale = 1 << opts.iterations;
    const auto rate_of = [scale](int k) {
      return static_cast<double>(k) / static_cast<double>(scale);
    };
    auto stable_at = [&](int k) { return stable(probe(rate_of(k))); };

    int k0 = static_cast<int>(std::lround(opts.surrogate_rate * scale));
    k0 = std::clamp(k0, 1, scale);
    if (executor != nullptr && k0 < scale) {
      // Prefetch the common good-estimate case: the bracket is (k0, k0+1).
      ensure({rate_of(k0), rate_of(k0 + 1)});
    }

    int lo_k = 0;           // stable by definition (zero offered rate)
    int hi_k = scale;       // overwritten by the gallop before use
    int jump = 1;
    if (stable_at(k0)) {
      lo_k = k0;
      while (lo_k < scale) {
        const int j = std::min(lo_k + jump, scale);
        jump *= 2;
        if (stable_at(j)) {
          lo_k = j;
        } else {
          hi_k = j;
          break;
        }
      }
      if (lo_k == scale) {
        // Full rate is stable: injection-limited, same early return as the
        // plain search's initial 1.0 probe.
        result.saturation_flit_rate = 1.0;
        result.accepted_flit_rate = probe(1.0).accepted_flit_rate;
        return result;
      }
    } else {
      hi_k = k0;
      while (hi_k > 1) {
        const int j = std::max(hi_k - jump, 1);
        jump *= 2;
        if (stable_at(j)) {
          lo_k = j;
          break;
        }
        hi_k = j;
      }
    }

    // Bracket established: S(lo_k) stable (or lo_k == 0), S(hi_k) unstable.
    while (hi_k - lo_k > 1) {
      const int midk = (lo_k + hi_k) / 2;
      if (executor != nullptr && hi_k - lo_k > 2) {
        // Speculate both possible next midpoints alongside, as the plain
        // parallel search does.
        std::vector<double> batch{rate_of(midk)};
        const int lmid = (lo_k + midk) / 2;
        const int rmid = (midk + hi_k) / 2;
        if (lmid > lo_k && lmid != midk && lmid > 0) {
          batch.push_back(rate_of(lmid));
        }
        if (rmid < hi_k && rmid != midk) batch.push_back(rate_of(rmid));
        ensure(batch);
      }
      if (stable_at(midk)) {
        lo_k = midk;
      } else {
        hi_k = midk;
      }
    }
    result.saturation_flit_rate = rate_of(lo_k);
    // Same pathological-case fallback as the plain search: no stable point
    // above 0 found, report the lowest unstable probe's accepted rate.
    result.accepted_flit_rate =
        lo_k > 0 ? memo.at(rate_key(rate_of(lo_k))).accepted_flit_rate
                 : std::min(probe(rate_of(hi_k)).accepted_flit_rate,
                            rate_of(hi_k));
    return result;
  }

  // Full-rate probe first: if the network keeps up with offered = 1.0 it is
  // injection-limited, not network-limited. With an executor, speculate the
  // first two binary-search levels alongside it — they are the probes the
  // search will want next unless the full-rate probe short-circuits.
  if (executor != nullptr && opts.iterations >= 2) {
    ensure({1.0, 0.5, 0.25, 0.75});
  } else if (executor != nullptr && opts.iterations == 1) {
    ensure({1.0, 0.5});
  }
  {
    const auto& full = probe(1.0);
    if (stable(full)) {
      result.saturation_flit_rate = 1.0;
      result.accepted_flit_rate = full.accepted_flit_rate;
      return result;
    }
  }

  double lo = 0.0;  // known stable
  double hi = 1.0;  // known unstable
  double accepted_at_lo = 0.0;
  auto step = [&](const ThroughputResult& r, double mid) {
    if (stable(r)) {
      lo = mid;
      accepted_at_lo = r.accepted_flit_rate;
    } else {
      hi = mid;
    }
  };
  for (int i = 0; i < opts.iterations; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (executor != nullptr && i + 1 < opts.iterations) {
      // Probe the midpoint and both possible next midpoints in one parallel
      // batch, then consume two levels of the search from the memo.
      ensure({mid, (lo + mid) / 2.0, (mid + hi) / 2.0});
      step(memo.at(rate_key(mid)), mid);
      ++i;
      const double mid2 = (lo + hi) / 2.0;
      step(memo.at(rate_key(mid2)), mid2);
    } else {
      step(probe(mid), mid);
    }
  }
  result.saturation_flit_rate = lo;
  // If the search never found a stable point above 0 (pathological), report
  // the accepted rate of the lowest unstable probe as a best effort.
  result.accepted_flit_rate =
      lo > 0.0 ? accepted_at_lo
               : std::min(probe(hi).accepted_flit_rate, hi);
  return result;
}

}  // namespace hm::noc
