// Simulation driver replicating BookSim2's measurement methodology
// (Sec. VI-A): warm the network up, tag packets generated during a
// measurement window, then drain; report average packet latency and
// accepted throughput. Saturation throughput is located with a binary
// search for the knee of the accepted-vs-offered curve (find_saturation);
// the resulting fraction of the full injection rate is what the paper
// multiplies by the full global bandwidth to obtain Tb/s.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "faults/fault_plan.hpp"
#include "graph/graph.hpp"
#include "noc/arena.hpp"
#include "noc/config.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace hm::faults {
class FaultController;
}  // namespace hm::faults

namespace hm::noc {

/// Executes batches of independent simulation jobs, possibly concurrently.
/// The contract that keeps parallel runs reproducible: every job runs
/// exactly once, run_batch returns only after all jobs finished, and jobs
/// never share mutable state (each probe owns a fresh Simulator). An
/// implementation may run jobs on the calling thread (the sequential
/// fallback does exactly that); explore::ThreadPool is the pooled one.
class ProbeExecutor {
 public:
  virtual ~ProbeExecutor() = default;
  virtual void run_batch(std::vector<std::function<void()>>& jobs) = 0;
};

/// Result of a latency measurement run.
struct LatencyResult {
  double avg_packet_latency = 0.0;  ///< cycles, generation -> tail ejection
  std::uint64_t packets_measured = 0;
  bool drained = false;  ///< all tagged packets delivered before the limit
};

/// Result of a throughput measurement run.
struct ThroughputResult {
  double offered_flit_rate = 0.0;    ///< nominal flits/cycle/endpoint
  double accepted_flit_rate = 0.0;   ///< flits/cycle/endpoint ejected
  /// Flit rate actually admitted into the source queues during the window
  /// (drops excluded); tracks the nominal rate below saturation.
  double generated_flit_rate = 0.0;
  /// Packets dropped at full source queues during the measurement window —
  /// the reliable saturation indicator (zero below the knee).
  std::uint64_t dropped_packets = 0;
};

/// find_saturation probes only the offered rates k / kSaturationGridSteps
/// for k = 1..kSaturationGridSteps: a resolution of 1/64 of the full
/// injection rate, six bisection levels below the full-rate probe.
inline constexpr int kSaturationGridSteps = 64;

/// A probe at offered rate r is "stable" when no packet was dropped at a
/// full source queue during the measurement window AND accepted >=
/// kSaturationStability * generated. The latter guards against in-network
/// congestion with queues that have not filled yet; it compares against
/// generated (the rate actually admitted) rather than the nominal r, so
/// short-window low-rate probes do not flap on generation shot noise.
inline constexpr double kSaturationStability = 0.9;

/// Options for the saturation-point search.
struct SaturationSearchOptions {
  Cycle warmup = 4000;
  Cycle measure = 4000;
  /// Analytic saturation estimate (e.g. from evaluate_analytic's
  /// bisection/channel-load bounds). When >= 0 it seeds the search: the
  /// estimate is clamped to [0, 1], rounded to the probe grid, and the
  /// search gallops outward from that grid point, so a good estimate needs
  /// ~3 probes instead of 7. Negative or NaN (the default) means no
  /// estimate: the search probes the full rate and, unless that is stable,
  /// bisects the bracket (0, 1). Either way it returns a local knee of the
  /// grid: a stable point (or 0) whose next grid step up is unstable (or
  /// the point is 1.0). Where probe outcomes are monotone in the offered
  /// rate that knee is unique and the estimate cannot change the answer;
  /// where they are not, it can.
  double surrogate_rate = -1.0;
};

/// Result of the saturation-point search.
struct SaturationResult {
  /// Largest offered rate (flits/cycle/endpoint) the network sustains.
  double saturation_flit_rate = 0.0;
  /// Accepted rate measured at that offered rate.
  double accepted_flit_rate = 0.0;
  /// Number of simulation probes run. Sequentially, the search without an
  /// estimate runs 7: the full-rate probe plus six bisection steps (1 when
  /// the full rate is stable); with an estimate it runs
  /// ~2 + log2(estimate error in grid steps). With a parallel executor the
  /// search speculates ahead, so this may exceed the sequential count
  /// even though the returned rates are identical.
  int probes = 0;
};

/// Finds the saturation throughput the way BookSim-based studies do
/// (Sec. VI-A): sweep the offered load for the knee of the accepted-vs-
/// offered curve via binary search, running each probe on a fresh network.
/// Overdriving a fully adaptive network far beyond saturation only measures
/// the escape network's drain rate, not the design's usable throughput.
///
/// One search over the grid k / kSaturationGridSteps: with an estimate
/// (SaturationSearchOptions::surrogate_rate) it gallops from the estimate's
/// grid point to a bracket; without one, the full-rate probe either returns
/// 1.0 or opens the bracket (0, 1). Either way one bisection narrows the
/// bracket to adjacent grid points.
///
/// Re-entrant: no shared mutable state, safe to call concurrently. When
/// `executor` is non-null each bisection step probes its midpoint in one
/// parallel batch with the midpoint either outcome bisects at next (and
/// the gallop prefetches the estimate's grid point with the one above it);
/// because each probe's result is a pure function of its offered rate, the
/// returned rates are bit-identical to the sequential search.
[[nodiscard]] SaturationResult find_saturation(
    const graph::Graph& g, const SimConfig& cfg,
    const SaturationSearchOptions& opts = {},
    const TrafficSpec& traffic = {}, ProbeExecutor* executor = nullptr);

/// find_saturation on a pre-built shared topology: every probe's fresh
/// Simulator reuses `topo` read-only, so the O(N^2 * deg) routing tables
/// are built zero times here no matter how many probes the search runs.
/// The graph overload above acquires the shared context once and delegates.
[[nodiscard]] SaturationResult find_saturation(
    std::shared_ptr<const TopologyContext> topo, const SimConfig& cfg,
    const SaturationSearchOptions& opts = {},
    const TrafficSpec& traffic = {}, ProbeExecutor* executor = nullptr);

/// Drives a Network (owned outright or leased from a SimulationArena) plus
/// RNG/traffic state and runs measurement phases.
class Simulator {
 public:
  /// Acquires the shared TopologyContext for `g` (table build only when no
  /// live context for an equal graph exists), then runs on it.
  Simulator(const graph::Graph& g, const SimConfig& cfg);

  /// Runs on a pre-built shared topology (no table build at all). Any
  /// number of concurrent Simulators may share one context.
  Simulator(std::shared_ptr<const TopologyContext> topo, const SimConfig& cfg);

  /// Runs on a network leased from `arena` (reset-and-reuse instead of
  /// construction when the arena has one for this topology + structural
  /// config). Results are bit-identical to the owning constructors; this
  /// is the hot-path entry every probe of find_saturation and evaluate()
  /// uses via SimulationArena::local().
  Simulator(SimulationArena& arena, std::shared_ptr<const TopologyContext> topo,
            const SimConfig& cfg);

  /// Flushes the run's hot-path counters (Network::hot_stats plus the
  /// admitted/dropped packet totals) into the telemetry registry when
  /// telemetry is enabled, before the lease is released. Pure observation:
  /// never touches simulation state, so results are identical either way.
  ~Simulator();

  /// Selects the traffic pattern for subsequent runs (default: uniform
  /// random, the paper's setup). Throws std::invalid_argument right here —
  /// not cycles later inside a measurement run — when the spec is invalid
  /// for this network's endpoint count (see TrafficSpec::validate).
  void set_traffic(const TrafficSpec& spec);

  /// Average packet latency at the given injection rate (flits/cycle/
  /// endpoint). Tags packets generated in [warmup, warmup+measure) and runs
  /// until they all drain (or `drain_limit` extra cycles pass).
  LatencyResult run_latency(double flit_rate, Cycle warmup = 3000,
                            Cycle measure = 12000,
                            Cycle drain_limit = 300000);

  /// Accepted throughput at the given offered rate over a measurement
  /// window following warmup. Offer 1.0 to measure saturation throughput.
  ThroughputResult run_throughput(double flit_rate, Cycle warmup = 10000,
                                  Cycle measure = 10000);

  /// Resilience run: warm the healthy network up at `flit_rate` for
  /// `warmup` cycles, arm `plan` (event times count from the arm point),
  /// then run `measure` more cycles with the fault controller driving
  /// kills, repairs, table swaps and recovery sampling. Traffic touching
  /// unroutable endpoints is suppressed at generation (counted as
  /// packets_unroutable, never offered). The network is left in its
  /// post-fault state — one resilience run per Simulator (a second call
  /// throws std::logic_error); the arena lease rewind restores the wiring.
  faults::ResilienceStats run_resilience(double flit_rate,
                                         const faults::FaultPlan& plan,
                                         Cycle warmup = 2000,
                                         Cycle measure = 6000);

  [[nodiscard]] Network& network() noexcept { return net_; }
  [[nodiscard]] Cycle now() const noexcept { return now_; }
  /// Cycles fast-forwarded over quiescent stretches (skip-idle mode only).
  [[nodiscard]] std::uint64_t idle_skipped_cycles() const noexcept {
    return idle_skipped_cycles_;
  }

 private:
  /// Advances one cycle: due traffic events, then network step.
  void tick(SyntheticTraffic& traffic);

  /// Ticks until now_ == limit. In skip-idle mode, quiescent stretches
  /// (nothing in the network, no traffic event due) are fast-forwarded to
  /// the traffic source's next event cycle — the skipped cycles are
  /// observable no-ops, so results are bit-identical to dense stepping.
  void advance_until(Cycle limit, SyntheticTraffic& traffic);

  /// Binds `traffic`'s per-endpoint event streams for a run starting now.
  /// The base seed is salted with the start cycle so back-to-back runs on
  /// one Simulator draw fresh streams (the shared-Rng scheme this replaces
  /// had the same property by consuming the stream across runs).
  void bind_traffic(SyntheticTraffic& traffic);

  SimConfig cfg_;
  SimulationArena::Lease lease_;  ///< owns or borrows the network
  Network& net_;                  ///< lease_.network()
  TrafficSpec traffic_spec_;
  Cycle now_ = 0;
  std::uint64_t packets_admitted_ = 0;  ///< enqueue successes (lifetime)
  std::uint64_t packets_dropped_ = 0;   ///< enqueue failures (lifetime)
  std::uint64_t idle_skipped_cycles_ = 0;
  /// Tagged-generation window of the current latency run: admissions with
  /// gen_time inside it count toward the drain target.
  Cycle tag_begin_ = 0;
  Cycle tag_end_ = std::numeric_limits<Cycle>::min();
  std::uint64_t tagged_generated_ = 0;
  std::vector<Packet> gen_scratch_;  ///< per-tick generated packets
  /// Armed by run_resilience; owns the degraded routing views the routers
  /// borrow, so it outlives the run and dies with the Simulator (the lease
  /// reset clears the borrowed pointers before any reuse).
  std::unique_ptr<faults::FaultController> faults_;
};

}  // namespace hm::noc
