#include "explore/sweep.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>

#include "explore/cached_eval.hpp"
#include "noc/rng.hpp"
#include "store/result_store.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::explore {

std::vector<SweepPoint> SweepSpec::points() const {
  if (types.empty()) {
    throw std::invalid_argument("SweepSpec: types must be non-empty");
  }
  if (chiplet_counts.empty()) {
    throw std::invalid_argument("SweepSpec: chiplet_counts must be non-empty");
  }
  if (param_grid.empty() || traffic_grid.empty()) {
    throw std::invalid_argument(
        "SweepSpec: param_grid and traffic_grid must be non-empty");
  }
  for (const auto& traffic : traffic_grid) {
    traffic.validate();  // endpoint-count check happens per design
  }

  std::vector<SweepPoint> out;
  out.reserve(types.size() * chiplet_counts.size() * param_grid.size() *
              traffic_grid.size());
  std::size_t index = 0;
  for (const auto type : types) {
    for (const auto n : chiplet_counts) {
      for (std::size_t pi = 0; pi < param_grid.size(); ++pi) {
        for (std::size_t ti = 0; ti < traffic_grid.size(); ++ti) {
          SweepPoint p;
          p.index = index;
          p.type = type;
          p.chiplet_count = n;
          p.param_index = pi;
          p.traffic_index = ti;
          p.params = param_grid[pi];
          p.traffic = traffic_grid[ti];
          if (derive_per_job_seeds) {
            p.params.sim.seed = noc::derive_seed(base_seed, index);
          }
          out.push_back(std::move(p));
          ++index;
        }
      }
    }
  }
  return out;
}

SweepEngine::SweepEngine() : SweepEngine(Options{}) {}

SweepEngine::SweepEngine(Options options)
    : options_(std::move(options)), pool_(options_.threads) {
  if (!options_.cache_dir.empty()) {
    cache_.attach_store(store::ResultStore::open(options_.cache_dir));
  }
}

void SweepEngine::add_arrangement(core::Arrangement arrangement,
                                  std::string label) {
  if (arrangement.chiplet_count() == 0) {
    throw std::invalid_argument(
        "SweepEngine::add_arrangement: arrangement has no chiplets");
  }
  if (label.empty()) label = arrangement.name();
  extra_.push_back(
      {std::make_shared<const core::Arrangement>(std::move(arrangement)),
       std::move(label)});
}

SweepRecord SweepEngine::evaluate_point(const SweepPoint& point) {
  telemetry::Span span("sweep.job");
  static telemetry::Counter jobs("sweep.jobs");
  jobs.add();
  SweepRecord rec;
  rec.point = point;
  const auto start = std::chrono::steady_clock::now();
  try {
    const core::Arrangement arr =
        point.custom ? *point.custom
                     : core::make_arrangement(point.type, point.chiplet_count);
    CachedEvalOutcome outcome;
    rec.result = cached_evaluate(arr, point.params, point.traffic,
                                 options_.use_cache ? &cache_ : nullptr,
                                 nullptr, &outcome);
    rec.from_cache = outcome.from_cache;
    rec.analytic_only = outcome.analytic_only;
  } catch (const std::exception& e) {
    rec.error = e.what();
  } catch (...) {
    rec.error = "unknown error";
  }
  rec.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return rec;
}

std::vector<SweepRecord> SweepEngine::run(const SweepSpec& spec) {
  // SweepSpec.simulate is a convenience switch over the per-params flags.
  SweepSpec resolved = spec;
  if (!spec.simulate) {
    for (auto& p : resolved.param_grid) {
      p.measure_latency = false;
      p.measure_saturation = false;
    }
  }
  std::vector<SweepPoint> points = resolved.points();

  // Warm-start points ride after the cartesian product, crossed with the
  // same param/traffic grids and the continued per-job seed sequence —
  // indistinguishable from family points to the pool, the cache and the
  // exports (except for their label).
  for (std::size_t e = 0; e < extra_.size(); ++e) {
    for (std::size_t pi = 0; pi < resolved.param_grid.size(); ++pi) {
      for (std::size_t ti = 0; ti < resolved.traffic_grid.size(); ++ti) {
        SweepPoint p;
        p.index = points.size();
        p.type = extra_[e].arrangement->type();
        p.chiplet_count = extra_[e].arrangement->chiplet_count();
        p.param_index = pi;
        p.traffic_index = ti;
        p.params = resolved.param_grid[pi];
        p.traffic = resolved.traffic_grid[ti];
        if (resolved.derive_per_job_seeds) {
          p.params.sim.seed = noc::derive_seed(resolved.base_seed, p.index);
        }
        p.custom = extra_[e].arrangement;
        p.label = extra_[e].label;
        points.push_back(std::move(p));
      }
    }
  }

  std::vector<SweepRecord> records(points.size());
  std::size_t completed = 0;  // guarded by progress_mu_
  std::vector<std::function<void()>> jobs;
  jobs.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    jobs.push_back([this, &points, &records, &completed, i] {
      records[i] = evaluate_point(points[i]);
      if (options_.on_progress) {
        const std::lock_guard<std::mutex> lock(progress_mu_);
        ++completed;
        SweepProgress progress;
        progress.completed = completed;
        progress.total = points.size();
        progress.last = &records[i];
        options_.on_progress(progress);
      }
    });
  }
  pool_.run_batch(jobs);
  return records;
}

}  // namespace hm::explore
