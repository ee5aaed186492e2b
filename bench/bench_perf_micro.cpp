// Micro-perf suite for the library's engineering-critical paths:
// arrangement construction, BFS diameter, balanced bisection, routing-table
// and topology-context construction, and the raw simulator cycle rate.
// Hand-rolled timing (median of repetitions) so the suite builds without
// external benchmark libraries, plus machine-readable output: every metric
// is merged into BENCH_perf.json at the repo root so the perf trajectory of
// the hot paths is tracked across PRs.
//
// Usage: bench_perf_micro [--smoke]   (--smoke: few repetitions, CI gate)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "graph/algorithms.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "partition/partitioner.hpp"
#include "perf_json.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using hm::core::ArrangementType;
using hm::core::make_arrangement;

bool g_smoke = false;
std::map<std::string, double> g_metrics;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` until it has consumed ~`budget_s` seconds (at least `min_reps`
/// times), returns the median seconds per call.
double time_median(const std::function<void()>& fn, double budget_s,
                   int min_reps) {
  std::vector<double> samples;
  const double start = now_seconds();
  do {
    const double t0 = now_seconds();
    fn();
    samples.push_back(now_seconds() - t0);
  } while (static_cast<int>(samples.size()) < min_reps ||
           (now_seconds() - start < budget_s && samples.size() < 1000));
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void report(const std::string& key, double seconds_per_op, double ops = 1.0) {
  const double ns = seconds_per_op * 1e9 / ops;
  std::printf("%-36s %12.1f ns/op\n", key.c_str(), ns);
  g_metrics[key + "_ns"] = ns;
}

void bench_arrangements() {
  for (const std::size_t n : {std::size_t{19}, std::size_t{91}}) {
    report("make_hexamesh.n" + std::to_string(n),
           time_median([n] { (void)make_arrangement(ArrangementType::kHexaMesh,
                                                    n); },
                       g_smoke ? 0.02 : 0.2, 3));
  }
}

void bench_graph() {
  for (const std::size_t n : {std::size_t{37}, std::size_t{100}}) {
    const auto arr = make_arrangement(ArrangementType::kHexaMesh, n);
    report("diameter.n" + std::to_string(n),
           time_median([&] { (void)hm::graph::diameter(arr.graph()); },
                       g_smoke ? 0.02 : 0.2, 3));
    report("bisection.n" + std::to_string(n),
           time_median(
               [&] { (void)hm::partition::bisection_width(arr.graph()); },
               g_smoke ? 0.02 : 0.2, 3));
  }
  // Hundreds of chiplets, the top of analytic-scale's range: where the
  // per-move cost of FM refinement shows.
  const auto big = make_arrangement(ArrangementType::kHexaMesh, 640);
  report("bisection.n640",
         time_median(
             [&] { (void)hm::partition::bisection_width(big.graph()); },
             g_smoke ? 0.05 : 0.3, 3));
}

void bench_tables() {
  for (const std::size_t n : {std::size_t{37}, std::size_t{100}}) {
    const auto arr = make_arrangement(ArrangementType::kHexaMesh, n);
    // Uncached table build: the cost the shared TopologyContext amortizes
    // away (pre-refactor this ran ~13x per saturation search).
    report("routing_tables_build.n" + std::to_string(n),
           time_median([&] { hm::noc::RoutingTables tables(arr.graph()); },
                       g_smoke ? 0.05 : 0.3, 3));
    // Cached acquire: the steady-state cost every probe now pays instead.
    const auto keep = hm::noc::TopologyContext::acquire(arr.graph());
    report("topology_acquire_cached.n" + std::to_string(n),
           time_median(
               [&] { (void)hm::noc::TopologyContext::acquire(arr.graph()); },
               g_smoke ? 0.02 : 0.1, 3));
  }
}

void bench_simulator_cycles() {
  // Cycle rate of a saturated HexaMesh network (routers + endpoints), fed
  // from the traffic event stream the way Simulator::tick feeds it. Under
  // saturation nearly everything is busy, so this measures the active-set
  // machinery's overhead (worklists and delivery calendar) rather than its
  // skipping wins (those show up in bench_simulator_lowload).
  for (const std::size_t n :
       {std::size_t{19}, std::size_t{91}, std::size_t{271}}) {
    const auto arr = make_arrangement(ArrangementType::kHexaMesh, n);
    hm::noc::SimConfig cfg;
    const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
    hm::noc::Simulator sim(topo, cfg);
    hm::noc::SyntheticTraffic traffic({}, sim.network().num_endpoints(), 1.0,
                                      cfg.packet_length);
    traffic.bind(1, 0);
    std::vector<hm::noc::Packet> due;
    hm::noc::Cycle now = 0;
    const int cycles_per_rep =
        n >= 271 ? (g_smoke ? 500 : 3000) : (g_smoke ? 2000 : 20000);
    auto run = [&] {
      for (int c = 0; c < cycles_per_rep; ++c) {
        due.clear();
        traffic.generate_due(now, due);
        for (const auto& p : due) {
          (void)sim.network().offer_packet(p.src_endpoint, p);
        }
        sim.network().step(now);
        ++now;
      }
    };
    report("sim_cycle.n" + std::to_string(n),
           time_median(run, g_smoke ? 0.05 : 0.5, 3), cycles_per_rep);
  }
}

void bench_simulator_lowload() {
  // Full low-load latency probes (the zero-load half of every evaluation):
  // per-cycle cost of the skip-idle stepper vs the dense reference sweep,
  // plus the headline speedup ratio. The probe rate keeps the *network*
  // load genuinely low: at N >= 91 the evaluator's default per-endpoint
  // rate of 0.01 already drives several flits/cycle aggregate (hundreds of
  // endpoints), which keeps ~30% of routers busy and measures mostly the
  // shared busy-path cost. 0.002 flits/cycle/endpoint is the regime the
  // active-set stepping is for — almost every component idle almost every
  // cycle. N = 37 at the default 0.01 is the zero-load run of every
  // latency-objective search step (perfbench's search-latency): a few
  // routers busy, a few dozen flits and credits in flight, so it tracks
  // the delivery calendar's cost per delivered payload.
  struct LowLoad {
    std::size_t n;
    double rate;
  };
  for (const LowLoad point : {LowLoad{37, 0.01}, LowLoad{91, 0.002},
                              LowLoad{271, 0.002}}) {
    const std::size_t n = point.n;
    const auto arr = make_arrangement(ArrangementType::kHexaMesh, n);
    const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
    const hm::noc::Cycle warmup = g_smoke ? 300 : 1000;
    const hm::noc::Cycle measure = g_smoke ? 600 : 3000;
    const std::string suffix = ".n" + std::to_string(n);

    double per_cycle_s[2] = {0.0, 0.0};
    for (const bool skip_idle : {true, false}) {
      hm::noc::SimConfig cfg;
      cfg.skip_idle = skip_idle;
      double cycles = 1.0;
      auto run = [&] {
        hm::noc::Simulator sim(topo, cfg);
        (void)sim.run_latency(point.rate, warmup, measure, 60000);
        cycles = static_cast<double>(sim.now());
      };
      const double per_run =
          time_median(run, g_smoke ? 0.05 : 0.4, g_smoke ? 2 : 3);
      per_cycle_s[skip_idle ? 0 : 1] = per_run / cycles;
      report(skip_idle ? "sim_cycle_lowload" + suffix
                       : "sim_cycle_lowload.dense" + suffix,
             per_run, cycles);
    }
    const double speedup =
        per_cycle_s[0] > 0.0 ? per_cycle_s[1] / per_cycle_s[0] : 1.0;
    std::printf("%-36s %12.2f x\n",
                ("sim_cycle_lowload.speedup" + suffix).c_str(), speedup);
    // A ratio, not a duration: recorded without report()'s "_ns" suffix.
    g_metrics["sim_cycle_lowload.speedup" + suffix] = speedup;
  }
}

void bench_saturation_probes() {
  // Probe count of the one saturation search without an estimate (the
  // full-rate probe plus six bisection steps: 7) and seeded with the
  // analytic estimate (the gallop). Both return the same rate here;
  // test_active_set pins that. These are deterministic work counts, so
  // tools/check_perf_regression.py fails any rise above the baseline.
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 37);
  const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
  hm::noc::SimConfig cfg;
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 400;
  opts.measure = 400;

  const auto plain = hm::noc::find_saturation(topo, cfg, opts);
  g_metrics["sat.probes.plain.n37"] = static_cast<double>(plain.probes);

  // Same analytic estimate evaluate() wires in.
  const hm::core::EvaluationParams eval_params;
  opts.surrogate_rate = hm::core::analytic_saturation_estimate(
      hm::core::evaluate_analytic(arr, eval_params), eval_params);
  const auto pruned = hm::noc::find_saturation(topo, cfg, opts);
  g_metrics["sat.probes.surrogate.n37"] = static_cast<double>(pruned.probes);

  std::printf("%-36s %12d probes\n", "sat.probes.plain.n37", plain.probes);
  std::printf("%-36s %12d probes\n", "sat.probes.surrogate.n37",
              pruned.probes);
  if (plain.saturation_flit_rate != pruned.saturation_flit_rate) {
    std::printf("WARNING: surrogate search diverged from plain (%f vs %f)\n",
                pruned.saturation_flit_rate, plain.saturation_flit_rate);
  }
}

void bench_evaluate_analytic() {
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 91);
  report("evaluate_analytic.n91",
         time_median([&] { (void)hm::core::evaluate_analytic(arr); },
                     g_smoke ? 0.05 : 0.3, 3));
}

void bench_telemetry_overhead() {
  // The telemetry contract (src/telemetry/telemetry.hpp): one relaxed
  // load when disabled, sharded relaxed atomics when enabled — either way
  // the simulation must not notice. This measures a small end-to-end
  // sweep (arena + topology + saturation probes + pool, i.e. every
  // instrumented layer) with the registry off and on, and records the
  // on/off ratio. check_perf_regression.py gates it warn-only, so a
  // regression shows up in CI logs without blocking on timer noise.
  hm::core::EvaluationParams p;
  p.latency_warmup = 300;
  p.latency_measure = 600;
  p.latency_drain_limit = 60000;
  p.throughput_warmup = 400;
  p.throughput_measure = 400;

  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kHexaMesh};
  spec.chiplet_counts = {9};
  spec.param_grid = {p};

  hm::explore::SweepEngine::Options opt;
  opt.threads = 1;
  opt.use_cache = false;  // re-simulate every repetition

  const auto run_once = [&] {
    hm::explore::SweepEngine engine(opt);
    (void)engine.run(spec);
  };

  const bool was_enabled = hm::telemetry::enabled();
  hm::telemetry::set_enabled(false);
  const double off_s = time_median(run_once, g_smoke ? 0.1 : 0.6, 3);
  hm::telemetry::set_enabled(true);
  const double on_s = time_median(run_once, g_smoke ? 0.1 : 0.6, 3);
  hm::telemetry::set_enabled(was_enabled);

  const double ratio = off_s > 0.0 ? on_s / off_s : 1.0;
  std::printf("%-36s %12.3f x (on %.2f ms, off %.2f ms)\n",
              "telemetry.overhead_ratio", ratio, on_s * 1e3, off_s * 1e3);
  // Recorded directly (report() would append "_ns" to a ratio).
  g_metrics["telemetry.overhead_ratio"] = ratio;
}

void bench_store_warm() {
  // Persistent result store (src/store/): the cold sweep pays the full
  // simulation and seeds a fresh on-disk store; the warm re-run must be
  // served entirely from disk (100% store hits, zero simulation). The
  // cold/warm wall-clock ratio is the headline number of ISSUE 9 —
  // recorded as store.warm_speedup and gated warn-only in
  // check_perf_regression.py (it is a huge, host-sensitive ratio; a
  // collapse towards 1.0 means the read-through path broke).
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("hm_bench_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  hm::core::EvaluationParams p;
  p.latency_warmup = 300;
  p.latency_measure = 600;
  p.latency_drain_limit = 60000;
  p.throughput_warmup = 400;
  p.throughput_measure = 400;

  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kHexaMesh};
  spec.chiplet_counts = {9, 12};
  spec.param_grid = {p};

  // A fresh engine per run: the in-memory cache dies with it, so the warm
  // run can only be fast through the store (flushed by the engine's cache
  // destructor at the end of each run).
  const auto run_once = [&] {
    hm::explore::SweepEngine::Options opt;
    opt.threads = 1;
    opt.cache_dir = dir.string();
    hm::explore::SweepEngine engine(opt);
    (void)engine.run(spec);
  };

  const double cold_t0 = now_seconds();
  run_once();
  const double cold_s = now_seconds() - cold_t0;
  const double warm_s = time_median(run_once, g_smoke ? 0.05 : 0.2, 2);
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 1.0;
  std::printf("%-36s %12.1f x (cold %.1f ms, warm %.2f ms)\n",
              "store.warm_speedup", speedup, cold_s * 1e3, warm_s * 1e3);
  // A ratio, not a duration: recorded without report()'s "_ns" suffix.
  g_metrics["store.warm_speedup"] = speedup;
  fs::remove_all(dir);
}

void bench_fault_overhead() {
  // The fault subsystem's contract (src/faults/): an armed-but-empty
  // FaultPlan must be bit-identical to an unarmed run (test_faults pins
  // the behavior) and nearly free in time — the controller adds one
  // next-event check per tick and a lazy recovery sample. This measures a
  // fixed-rate run with and without the empty plan armed and records the
  // armed/plain ratio (ISSUE 8 acceptance: <= 1.05). Gated warn-only in
  // check_perf_regression.py, like the telemetry ratio.
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 37);
  const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
  const hm::noc::Cycle warmup = g_smoke ? 300 : 1000;
  const hm::noc::Cycle measure = g_smoke ? 800 : 4000;
  hm::noc::SimConfig cfg;

  const auto plain_run = [&] {
    hm::noc::Simulator sim(topo, cfg);
    (void)sim.run_throughput(0.25, warmup, measure);
  };
  const auto armed_run = [&] {
    hm::noc::Simulator sim(topo, cfg);
    (void)sim.run_resilience(0.25, hm::faults::FaultPlan{}, warmup, measure);
  };

  const double plain_s = time_median(plain_run, g_smoke ? 0.1 : 0.6, 3);
  const double armed_s = time_median(armed_run, g_smoke ? 0.1 : 0.6, 3);
  const double ratio = plain_s > 0.0 ? armed_s / plain_s : 1.0;
  std::printf("%-36s %12.3f x (armed %.2f ms, plain %.2f ms)\n",
              "fault.overhead_ratio", ratio, armed_s * 1e3, plain_s * 1e3);
  // A ratio, not a duration: recorded without report()'s "_ns" suffix.
  g_metrics["fault.overhead_ratio"] = ratio;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  std::printf("== micro-perf: engineering-critical paths%s ==\n",
              g_smoke ? " (smoke)" : "");
  bench_arrangements();
  bench_graph();
  bench_tables();
  bench_simulator_cycles();
  bench_simulator_lowload();
  bench_saturation_probes();
  bench_evaluate_analytic();
  bench_telemetry_overhead();
  bench_store_warm();
  bench_fault_overhead();
  hm::bench::update_perf_json(g_metrics);
  return 0;
}
