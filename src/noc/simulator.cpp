#include "noc/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
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
  constexpr int kTop = kSaturationGridSteps;
  const auto rate_of = [](int k) {
    return static_cast<double>(k) / static_cast<double>(kTop);
  };
  SaturationResult result;

  // A probe's outcome is a pure function of its grid point: every probe
  // runs on a fresh network seeded with cfg.seed. That is the invariant that
  // makes speculative parallel probing below bit-identical to the
  // sequential search.
  auto run_one = [&](int k) {
    telemetry::Span span("sat.probe");
    static telemetry::Counter probes_run("sat.probes");
    probes_run.add();
    // Reset-and-reuse network from the calling worker's arena (bit-identical
    // to a fresh network on the shared topology, minus the allocator churn).
    Simulator sim(SimulationArena::local(), topo, cfg);
    sim.set_traffic(traffic);
    return sim.run_throughput(rate_of(k), opts.warmup, opts.measure);
  };

  // Probe results by grid point. ensure() runs the listed points not probed
  // yet, as one parallel batch when an executor is available; k = 0 is
  // stable by definition and never probed.
  std::array<std::optional<ThroughputResult>, kTop + 1> memo;
  auto ensure = [&](std::initializer_list<int> ks) {
    std::vector<int> missing;
    for (const int k : ks) {
      if (k > 0 && !memo[k] &&
          std::find(missing.begin(), missing.end(), k) == missing.end()) {
        missing.push_back(k);
      }
    }
    result.probes += static_cast<int>(missing.size());
    if (executor != nullptr && missing.size() > 1) {
      std::vector<std::function<void()>> jobs;
      jobs.reserve(missing.size());
      for (const int k : missing) {
        jobs.push_back([&, k] { memo[k] = run_one(k); });
      }
      executor->run_batch(jobs);
    } else {
      for (const int k : missing) memo[k] = run_one(k);
    }
  };
  auto probe = [&](int k) -> const ThroughputResult& {
    ensure({k});
    return *memo[k];
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
  auto stable_at = [&](int k) {
    const auto& r = probe(k);
    return r.dropped_packets == 0 &&
           r.accepted_flit_rate >= kSaturationStability * r.generated_flit_rate;
  };

  // The search returns a local knee of the grid: lo is stable (or 0) and
  // lo + 1 is unstable (or lo is the top of the grid). Under monotone
  // outcomes that knee is unique and the estimate cannot change it; under
  // non-monotone outcomes a different estimate can bracket a different
  // knee (test_active_set pins both).
  int lo = 0;     // stable by definition (zero offered rate)
  int hi = kTop;  // a probed unstable point unless lo reaches kTop
  if (!(opts.surrogate_rate >= 0.0)) {
    // No estimate (negative or NaN): the full-rate probe either shows the
    // design injection-limited or opens the bracket (0, kTop).
    if (stable_at(kTop)) lo = kTop;
  } else {
    // Gallop outward from the estimate's grid point until a stable and an
    // unstable point bracket the knee: ~2 + log2(estimate error in grid
    // steps) probes. The estimate is clamped to [0, 1] before scaling, so
    // +inf or a huge value starts at the top of the grid instead of
    // overflowing lround.
    const int k0 = std::clamp(
        static_cast<int>(
            std::lround(std::min(opts.surrogate_rate, 1.0) * kTop)),
        1, kTop);
    if (executor != nullptr && k0 < kTop) {
      // Prefetch the common good-estimate case: the bracket is (k0, k0+1).
      ensure({k0, k0 + 1});
    }
    int jump = 1;
    if (stable_at(k0)) {
      lo = k0;
      while (lo < kTop) {
        const int j = std::min(lo + jump, kTop);
        jump *= 2;
        if (stable_at(j)) {
          lo = j;
        } else {
          hi = j;
          break;
        }
      }
    } else {
      hi = k0;
      while (hi > 1) {
        const int j = std::max(hi - jump, 1);
        jump *= 2;
        if (stable_at(j)) {
          lo = j;
          break;
        }
        hi = j;
      }
    }
  }

  // Bisect the bracket down to adjacent grid points (nothing to do when
  // the full rate is stable: the design is injection-limited). With an
  // executor, each midpoint's batch also holds the midpoint either outcome
  // bisects at next.
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (executor != nullptr) ensure({mid, (lo + mid) / 2, (mid + hi) / 2});
    (stable_at(mid) ? lo : hi) = mid;
  }
  result.saturation_flit_rate = rate_of(lo);
  // If no grid point above 0 is stable (pathological), report the lowest
  // unstable probe's accepted rate as a best effort.
  result.accepted_flit_rate =
      lo > 0 ? memo[lo]->accepted_flit_rate
             : std::min(probe(hi).accepted_flit_rate, rate_of(hi));
  return result;
}

}  // namespace hm::noc
