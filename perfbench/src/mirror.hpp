// Traced mirrors of the library's composite entry points.
//
// The benchmark adds no spans inside the library. To attribute an op's
// time to layers, the traced run re-composes core::evaluate and
// SearchEngine::run from the same public functions those entry points call
// (graph distances, the partitioner, the link model, topology rebuilds,
// simulator runs, mutation proposals, the result cache), with a span
// around each call. Every mirror must reproduce the library's output bit
// for bit; the workloads check that on every traced op, so a library
// change that the mirror no longer matches fails the traced run instead
// of silently measuring something else.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "harness.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"
#include "search/search.hpp"

namespace pb {

/// Mirror of the evaluator's process-wide bisection memo (keyed by graph
/// digest), kept per benchmark phase so a traced replay pays the
/// partitioner exactly where the untraced run did.
class BisectionMemo {
 public:
  std::size_t width(const hm::graph::Graph& g);

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::size_t> widths_;
};

/// core::evaluate_analytic, spanned: core.evaluate_analytic >
/// {graph.distance, partition.bisection}.
[[nodiscard]] hm::core::EvaluationResult mirror_analytic(
    const hm::core::Arrangement& arr, const hm::core::EvaluationParams& params,
    BisectionMemo& memo, SpanLog* log, std::uint64_t op);

/// core::evaluate on a pre-acquired topology (executor == nullptr), spanned:
/// the analytic half plus noc.latency_run and noc.sat_search. `probes`,
/// when given, receives the saturation search's probe count.
[[nodiscard]] hm::core::EvaluationResult mirror_evaluate(
    const hm::core::Arrangement& arr, const hm::core::EvaluationParams& params,
    const hm::noc::TrafficSpec& traffic,
    const std::shared_ptr<const hm::noc::TopologyContext>& topology,
    BisectionMemo& memo, SpanLog* log, std::uint64_t op,
    int* probes = nullptr);

/// Output of a mirrored search: the deterministic trace plus the
/// evaluation and cache-hit counts of SearchResult.
struct MirrorSearchResult {
  std::vector<hm::search::SearchStep> trace;
  std::size_t evaluations = 0;
  std::uint64_t cache_hits = 0;
};

/// SearchEngine::run (fresh engine: own pool and memory-only cache),
/// spanned: one search.step root per step (the first also covers the
/// baseline evaluation), containing
/// search.propose and, per candidate on whichever pool thread runs it,
/// noc.topology_rebuild and explore.cached_evaluate > mirror_evaluate.
[[nodiscard]] MirrorSearchResult mirror_search(
    const hm::search::SearchOptions& options, const hm::core::Arrangement& start,
    BisectionMemo& memo, Tracer& tracer, std::uint64_t op);

}  // namespace pb
