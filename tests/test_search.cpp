// Tests for the arrangement local-search subsystem: mutation legality per
// lattice family, incremental-vs-full RoutingTables equivalence across
// random edit sequences (the byte-identical rebuild contract of
// TopologyContext::rebuild_from), intern-cache interchangeability of
// delta-built and from-scratch contexts, thread-count-independent search
// traces, the annealing monotonic-best invariant, and the result-store keys
// a --cache-dir search writes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "cost/cost_model.hpp"
#include "explore/hash.hpp"
#include "graph/algorithms.hpp"
#include "noc/rng.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "search/mutation.hpp"
#include "search/search.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"

namespace {

using hm::core::Arrangement;
using hm::core::ArrangementType;
using hm::core::make_arrangement;
using hm::graph::NodeId;
using hm::noc::GraphEdit;
using hm::noc::RoutingTables;
using hm::noc::TopologyContext;
using hm::search::Candidate;
using hm::search::MutationKind;
using hm::search::propose_mutation;

const ArrangementType kFamilies[] = {ArrangementType::kGrid,
                                     ArrangementType::kBrickwall,
                                     ArrangementType::kHexaMesh};

std::size_t family_size(ArrangementType t) {
  switch (t) {
    case ArrangementType::kGrid: return 16;
    case ArrangementType::kBrickwall: return 18;
    default: return 19;
  }
}

/// Draws until a proposal succeeds (or `tries` draws failed).
std::optional<Candidate> draw(const Arrangement& cur, hm::noc::Rng& rng,
                              int tries = 16) {
  for (int t = 0; t < tries; ++t) {
    if (auto c = propose_mutation(cur, rng)) return c;
  }
  return std::nullopt;
}

std::vector<std::size_t> sorted_degrees(const hm::graph::Graph& g) {
  std::vector<std::size_t> d;
  d.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) d.push_back(g.degree(v));
  std::sort(d.begin(), d.end());
  return d;
}

// --- Mutation legality ---------------------------------------------------------

TEST(Mutation, CandidatesAreLegalAcrossFamilies) {
  for (const auto type : kFamilies) {
    const Arrangement arr = make_arrangement(type, family_size(type));
    ASSERT_TRUE(hm::search::is_legal_arrangement(arr));
    hm::noc::Rng rng(101);
    int produced = 0;
    for (int iter = 0; iter < 120; ++iter) {
      const auto c = propose_mutation(arr, rng);
      if (!c.has_value()) continue;
      ++produced;
      EXPECT_TRUE(hm::search::is_legal_arrangement(c->arrangement))
          << hm::core::to_string(type) << " " << to_string(c->kind);
      EXPECT_EQ(c->arrangement.chiplet_count(), arr.chiplet_count());
      EXPECT_TRUE(hm::graph::is_connected(c->arrangement.graph()));
      // The reported edit takes the old graph to the candidate's graph —
      // the contract rebuild_from relies on.
      EXPECT_EQ(hm::noc::apply_edit(arr.graph(), c->edit).edges(),
                c->arrangement.graph().edges());
    }
    EXPECT_GT(produced, 60) << hm::core::to_string(type);
  }
}

TEST(Mutation, PerKindInvariants) {
  for (const auto type : kFamilies) {
    const Arrangement arr = make_arrangement(type, family_size(type));
    hm::noc::Rng rng(202);

    for (int iter = 0; iter < 60; ++iter) {
      // Stock arrangements carry the full induced adjacency, so kAddEdge
      // has no legal move until something is removed.
      EXPECT_FALSE(
          propose_mutation(arr, MutationKind::kAddEdge, rng).has_value());
    }

    int seen_remove = 0, seen_relocate = 0, seen_swap = 0;
    for (int iter = 0; iter < 120; ++iter) {
      if (auto c = propose_mutation(arr, MutationKind::kRemoveEdge, rng)) {
        ++seen_remove;
        EXPECT_EQ(c->arrangement.graph().edge_count(),
                  arr.graph().edge_count() - 1);
        EXPECT_EQ(c->edit.removed.size(), 1u);
        EXPECT_TRUE(c->edit.added.empty());
        // Removal re-opens the slot for kAddEdge.
        hm::noc::Rng rng2(11);
        const auto back =
            propose_mutation(c->arrangement, MutationKind::kAddEdge, rng2);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->arrangement.graph().edge_count(),
                  arr.graph().edge_count());
      }
      if (auto c = propose_mutation(arr, MutationKind::kRelocate, rng)) {
        ++seen_relocate;
        std::size_t moved = 0;
        for (std::size_t i = 0; i < arr.chiplet_count(); ++i) {
          if (!(arr.coords()[i] == c->arrangement.coords()[i])) ++moved;
        }
        EXPECT_EQ(moved, 1u);
      }
      if (auto c = propose_mutation(arr, MutationKind::kSwap, rng)) {
        ++seen_swap;
        // A swap relabels two vertices: same site multiset, same degree
        // sequence, same edge count.
        auto sites = [](const Arrangement& a) {
          std::multiset<std::pair<int, int>> s;
          for (const auto& c2 : a.coords()) s.insert({c2.a, c2.b});
          return s;
        };
        EXPECT_EQ(sites(arr), sites(c->arrangement));
        EXPECT_EQ(sorted_degrees(arr.graph()),
                  sorted_degrees(c->arrangement.graph()));
        EXPECT_EQ(arr.graph().edge_count(),
                  c->arrangement.graph().edge_count());
      }
    }
    EXPECT_GT(seen_remove, 40) << hm::core::to_string(type);
    EXPECT_GT(seen_relocate, 40) << hm::core::to_string(type);
    EXPECT_GT(seen_swap, 40) << hm::core::to_string(type);
  }
}

// --- Incremental vs. full routing-table builds ---------------------------------

TEST(IncrementalRebuild, MatchesFullBuildAcrossRandomEditSequences) {
  // >= 50 random walks through the mutation space (17 per family, 4 edits
  // each); after every edit the delta-built tables must equal a
  // from-scratch build element for element.
  std::size_t edits_checked = 0;
  for (std::size_t fi = 0; fi < 3; ++fi) {
    for (std::uint64_t seq = 0; seq < 17; ++seq) {
      hm::noc::Rng rng(hm::noc::derive_seed(1000 * fi + 17, seq));
      Arrangement cur = make_arrangement(kFamilies[fi], family_size(kFamilies[fi]));
      RoutingTables tables(cur.graph());
      for (int step = 0; step < 4; ++step) {
        auto c = draw(cur, rng);
        if (!c.has_value()) break;
        RoutingTables incremental(c->arrangement.graph(), tables, c->edit);
        const RoutingTables full(c->arrangement.graph());
        ASSERT_TRUE(incremental.identical_to(full))
            << hm::core::to_string(kFamilies[fi]) << " seq " << seq
            << " step " << step << " op " << to_string(c->kind);
        ++edits_checked;
        cur = std::move(c->arrangement);
        tables = std::move(incremental);
      }
    }
  }
  EXPECT_GE(edits_checked, 150u);
}

TEST(IncrementalRebuild, ToggleSequencesStayIncrementalOnMeshes) {
  // Link toggles are the edits the incremental path targets: on mesh-like
  // graphs path diversity absorbs most removals (the far endpoint keeps
  // another tight predecessor), so the sharp per-row criteria must keep
  // the build on the incremental path for a healthy share of the
  // sequence — while staying element-identical to full builds.
  std::size_t toggles = 0;
  const auto incr0 = RoutingTables::incremental_builds();
  for (std::size_t fi = 0; fi < 3; ++fi) {
    for (std::uint64_t seq = 0; seq < 6; ++seq) {
      hm::noc::Rng rng(hm::noc::derive_seed(77 + fi, seq));
      Arrangement cur =
          make_arrangement(kFamilies[fi], family_size(kFamilies[fi]));
      RoutingTables tables(cur.graph());
      for (int step = 0; step < 5; ++step) {
        std::optional<Candidate> c;
        for (int t = 0; t < 16 && !c; ++t) {
          const auto kind = rng.uniform_int(2) == 0
                                ? MutationKind::kRemoveEdge
                                : MutationKind::kAddEdge;
          c = propose_mutation(cur, kind, rng);
        }
        if (!c.has_value()) break;
        RoutingTables incremental(c->arrangement.graph(), tables, c->edit);
        const RoutingTables full(c->arrangement.graph());
        ASSERT_TRUE(incremental.identical_to(full))
            << hm::core::to_string(kFamilies[fi]) << " seq " << seq
            << " step " << step << " op " << to_string(c->kind);
        ++toggles;
        cur = std::move(c->arrangement);
        tables = std::move(incremental);
      }
    }
  }
  EXPECT_GE(toggles, 60u);
  const auto incremental_taken = RoutingTables::incremental_builds() - incr0;
  EXPECT_GE(incremental_taken, toggles / 3)
      << "sharp criteria regressed: toggles mostly falling back to full "
         "builds";
}

TEST(IncrementalRebuild, LocalEditStaysIncrementalAndReusesRows) {
  // Dense graph where an edge removal provably invalidates only the two
  // endpoint rows (in K_n every other vertex keeps distance 1 to both):
  // the rebuild must take the incremental path and reuse n-2 rows.
  constexpr std::size_t n = 20;
  hm::graph::Graph g(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) g.add_edge(a, b);
  }
  const RoutingTables prev(g);
  GraphEdit edit;
  edit.removed.push_back({3, 11});
  hm::graph::Graph g2 = hm::noc::apply_edit(g, edit);

  const auto incr0 = RoutingTables::incremental_builds();
  const auto reused0 = RoutingTables::incremental_rows_reused();
  const RoutingTables incremental(g2, prev, edit);
  EXPECT_EQ(RoutingTables::incremental_builds(), incr0 + 1);
  EXPECT_EQ(RoutingTables::incremental_rows_reused(), reused0 + (n - 2));
  EXPECT_TRUE(incremental.identical_to(RoutingTables(g2)));
}

TEST(IncrementalRebuild, NonLocalEditFallsBackAndStaysIdentical) {
  // On a ring, toggling one chord changes distances from almost every
  // vertex — the rebuild must fall back to a full build, still yielding
  // identical tables.
  constexpr std::size_t n = 24;
  hm::graph::Graph g(n);
  for (NodeId v = 0; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>((v + 1) % n));
  }
  const RoutingTables prev(g);
  GraphEdit edit;
  edit.added.push_back({0, 12});  // antipodal chord: every row shortens
  hm::graph::Graph g2 = hm::noc::apply_edit(g, edit);

  const auto incr0 = RoutingTables::incremental_builds();
  const RoutingTables rebuilt(g2, prev, edit);
  EXPECT_EQ(RoutingTables::incremental_builds(), incr0);  // fell back
  EXPECT_TRUE(rebuilt.identical_to(RoutingTables(g2)));
}

TEST(IncrementalRebuild, RebuildFromInternsWithAcquire) {
  const Arrangement arr = make_arrangement(ArrangementType::kHexaMesh, 19);
  const auto ctx = TopologyContext::acquire(arr.graph());

  // An empty edit is the identity: same shared instance, no build.
  EXPECT_EQ(TopologyContext::rebuild_from(ctx, GraphEdit{}).get(), ctx.get());

  hm::noc::Rng rng(5);
  const auto c = draw(arr, rng);
  ASSERT_TRUE(c.has_value());
  const auto delta = TopologyContext::rebuild_from(ctx, c->edit);
  EXPECT_EQ(delta->digest(), hm::noc::graph_digest(c->arrangement.graph()));
  // Delta-built contexts land in the same digest-keyed intern cache, so a
  // from-scratch acquire of the edited graph adopts the delta build (and
  // vice versa): the two build paths are interchangeable.
  const auto fresh = TopologyContext::acquire(c->arrangement.graph());
  EXPECT_EQ(delta.get(), fresh.get());
  // And the delta-built tables equal a private from-scratch build.
  const TopologyContext reference(c->arrangement.graph());
  EXPECT_TRUE(delta->tables().identical_to(reference.tables()));

  EXPECT_THROW(TopologyContext::rebuild_from(nullptr, c->edit),
               std::invalid_argument);
}

// --- SearchEngine --------------------------------------------------------------

hm::search::SearchOptions fast_options() {
  hm::search::SearchOptions opt;
  opt.steps = 4;
  opt.candidates_per_step = 3;
  opt.seed = 7;
  opt.params.throughput_warmup = 250;
  opt.params.throughput_measure = 250;
  opt.params.latency_warmup = 250;
  opt.params.latency_measure = 500;
  return opt;
}

TEST(SearchEngine, TraceIsThreadCountIndependent) {
  std::string reference;
  for (const unsigned threads : {1u, 4u, 8u}) {
    auto opt = fast_options();
    opt.threads = threads;
    hm::search::SearchEngine engine(opt);
    const auto res =
        engine.run(make_arrangement(ArrangementType::kGrid, 9));
    const std::string csv = hm::search::trace_to_csv(res.trace);
    if (reference.empty()) {
      reference = csv;
      EXPECT_EQ(res.trace.size(), opt.steps);
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

TEST(SearchEngine, HillClimbAcceptsOnlyImprovements) {
  auto opt = fast_options();
  opt.steps = 6;
  hm::search::SearchEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kBrickwall, 12));
  double current = res.baseline_score;
  for (const auto& s : res.trace) {
    if (s.accepted) {
      EXPECT_GT(s.current_score, current);
    } else {
      EXPECT_EQ(s.current_score, current);
    }
    // Under hill climbing the current state is always the best state.
    EXPECT_EQ(s.current_score, s.best_score);
    current = s.current_score;
  }
  EXPECT_GE(res.best_score, res.baseline_score);
}

TEST(SearchEngine, AnnealMonotonicBestInvariant) {
  auto opt = fast_options();
  opt.schedule = hm::search::Schedule::kAnneal;
  opt.steps = 8;
  opt.candidates_per_step = 2;
  opt.initial_temperature = 0.05;
  hm::search::SearchEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kHexaMesh, 13));

  // The annealing current state may walk downhill, but best-so-far is
  // monotone and never below the baseline.
  double best = res.baseline_score;
  for (const auto& s : res.trace) {
    EXPECT_GE(s.best_score, best);
    EXPECT_GE(s.best_score, s.current_score);
    best = s.best_score;
  }
  EXPECT_EQ(best, res.best_score);
  EXPECT_GE(res.best_score, res.baseline_score);
  EXPECT_TRUE(hm::search::is_legal_arrangement(res.best));
  // The reported best is reproducible: re-scoring it yields its score.
  EXPECT_EQ(res.best_result.saturation_throughput_bps, res.best_score);
}

TEST(SearchEngine, ZeroBaselineAnnealKeepsMetropolisAlive) {
  // Regression: the annealing temperature is scaled by |baseline_score|,
  // so a zero baseline used to collapse the temperature to ~0 and silently
  // degenerate kAnneal into hill climbing (strictly-worse candidates were
  // never accepted). The absolute min_temperature floor keeps acceptance
  // alive; the trace records the effective (floored) temperature.
  auto opt = fast_options();
  opt.schedule = hm::search::Schedule::kAnneal;
  opt.steps = 10;
  opt.candidates_per_step = 1;  // no best-of-batch bias toward ties
  opt.seed = 3;
  opt.min_temperature = 0.75;
  // Score = link deficit vs. the stock arrangement: baseline is exactly 0,
  // removing a link scores -1 (strictly worse), re-adding scores back up.
  const auto start = make_arrangement(ArrangementType::kHexaMesh, 13);
  const double start_links =
      static_cast<double>(start.graph().edge_count());
  opt.objective.custom = [start_links](const hm::core::EvaluationResult& r) {
    return static_cast<double>(r.link_count) - start_links;
  };
  hm::search::SearchEngine engine(opt);
  const auto res = engine.run(start);

  EXPECT_EQ(res.baseline_score, 0.0);
  double min_current = 0.0;
  for (const auto& s : res.trace) {
    // The floor is the effective temperature (0 * cooling^step < floor)
    // and the trace makes that visible.
    EXPECT_DOUBLE_EQ(s.temperature, opt.min_temperature);
    EXPECT_TRUE(s.temperature_floored);
    min_current = std::min(min_current, s.current_score);
  }
  // Metropolis accepted a strictly-worse candidate (exp(-1/0.75) ~ 0.26
  // per downhill proposal; deterministic for the fixed seed) — the exact
  // behavior the pre-floor code could never exhibit at zero baseline.
  EXPECT_LT(min_current, 0.0);
  EXPECT_GE(res.best_score, res.baseline_score);
}

// --- Multi-objective scoring ----------------------------------------------------

TEST(Objective, ThroughputPerLinkAreaIsMonotoneInLinkCount) {
  hm::core::EvaluationResult r;
  r.saturation_throughput_bps = 2.5e13;
  r.link_area_mm2 = 3.0;

  hm::search::ObjectiveSpec spec(
      hm::search::Objective::kThroughputPerLinkArea);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t links = 1; links <= 64; ++links) {
    r.link_count = links;
    const double s = hm::search::score(spec, r);
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, prev) << "score must strictly decrease with link count";
    prev = s;
  }

  // Full normalization divides by cost::d2d_link_area_mm2 (two bump
  // sectors per link).
  r.link_count = 10;
  EXPECT_DOUBLE_EQ(hm::search::score(spec, r),
                   r.saturation_throughput_bps /
                       hm::cost::d2d_link_area_mm2(r.link_area_mm2, 10));

  // area_weight is a scalarization knob: 0 collapses to pure throughput,
  // intermediate weights interpolate the penalty.
  spec.area_weight = 0.0;
  EXPECT_DOUBLE_EQ(hm::search::score(spec, r),
                   r.saturation_throughput_bps);
  spec.area_weight = 0.5;
  const double half = hm::search::score(spec, r);
  spec.area_weight = 1.0;
  EXPECT_GT(half, hm::search::score(spec, r));
  EXPECT_LT(half, r.saturation_throughput_bps);
}

TEST(Objective, CustomScoreOverridesKindAndSelectsBothMeasurements) {
  hm::core::EvaluationResult r;
  r.saturation_throughput_bps = 5.0;
  hm::search::ObjectiveSpec spec(hm::search::Objective::kZeroLoadLatency);
  spec.custom = [](const hm::core::EvaluationResult&) { return 7.5; };
  EXPECT_DOUBLE_EQ(hm::search::score(spec, r), 7.5);

  hm::core::EvaluationParams params;
  hm::search::apply_measurement_selection(spec, params);
  EXPECT_TRUE(params.measure_latency);
  EXPECT_TRUE(params.measure_saturation);

  spec.custom = nullptr;
  hm::search::apply_measurement_selection(spec, params);
  EXPECT_TRUE(params.measure_latency);
  EXPECT_FALSE(params.measure_saturation);
  spec.kind = hm::search::Objective::kThroughputPerLinkArea;
  hm::search::apply_measurement_selection(spec, params);
  EXPECT_FALSE(params.measure_latency);
  EXPECT_TRUE(params.measure_saturation);

  spec.area_weight = -0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SearchEngine, ProgressAndTraceExports) {
  auto opt = fast_options();
  opt.steps = 3;
  std::size_t calls = 0;
  opt.on_progress = [&](const hm::search::SearchProgress& p) {
    ++calls;
    EXPECT_EQ(p.step, calls);
    EXPECT_EQ(p.total, 3u);
    ASSERT_NE(p.last, nullptr);
  };
  hm::search::SearchEngine engine(opt);
  const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 8));
  EXPECT_EQ(calls, 3u);

  const std::string csv = hm::search::trace_to_csv(res.trace);
  EXPECT_NE(csv.find("step,mutation,candidates"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3 rows
  const std::string json = hm::search::trace_to_json(res.trace);
  EXPECT_NE(json.find("\"best_score\""), std::string::npos);
}

TEST(SearchEngine, RejectsDegenerateInputs) {
  hm::search::SearchEngine engine{hm::search::SearchOptions{}};
  EXPECT_THROW((void)engine.run(make_arrangement(ArrangementType::kGrid, 1)),
               std::invalid_argument);
  // Degenerate settings are rejected before any evaluation rather than
  // left to run a search that proposes nothing or anneals at a NaN
  // temperature (which never accepts a downhill move).
  const std::vector<std::function<void(hm::search::SearchOptions&)>> bad = {
      [](auto& o) { o.candidates_per_step = 0; },
      [](auto& o) { o.max_proposal_tries = 0; },
      [](auto& o) {
        o.initial_temperature = std::numeric_limits<double>::quiet_NaN();
      },
      [](auto& o) {
        o.initial_temperature = std::numeric_limits<double>::infinity();
      },
      [](auto& o) { o.initial_temperature = -0.01; },
      [](auto& o) { o.cooling = 0.0; },
      [](auto& o) { o.min_temperature = 0.0; },
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    auto opt = hm::search::SearchOptions{};
    opt.schedule = hm::search::Schedule::kAnneal;
    bad[i](opt);
    hm::search::SearchEngine engine2(opt);
    EXPECT_THROW((void)engine2.run(make_arrangement(ArrangementType::kGrid, 9)),
                 std::invalid_argument)
        << "case " << i;
  }
}

TEST(SearchEngine, CacheDirStoresSearchKeysAndWarmRunReplays) {
  namespace fs = std::filesystem;
  namespace ex = hm::explore;
  const fs::path dir = fs::temp_directory_path() /
                       ("hm_search_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  auto opt = fast_options();
  opt.cache_dir = dir.string();
  const auto start = make_arrangement(ArrangementType::kGrid, 9);

  std::string cold_csv;
  std::vector<std::uint8_t> baseline_bytes;
  {
    hm::search::SearchEngine engine(opt);
    const auto res = engine.run(start);
    cold_csv = hm::search::trace_to_csv(res.trace);
    hm::store::encode_result(res.baseline_result, baseline_bytes);
  }  // the engine's cache flushes to the store here

  // The key every existing store holds: the arrangement hash combined with
  // the (analytic, simulation, traffic) hash of the objective-selected
  // params. No analytic-only record is written next to it.
  auto params = opt.params;
  hm::search::apply_measurement_selection(opt.objective, params);
  const std::uint64_t arr_key = ex::hash_arrangement(start);
  const std::uint64_t key = ex::hash_combine(
      arr_key, ex::hash_combine(ex::hash_combine(ex::hash_analytic_params(params),
                                                 ex::hash_simulation_params(params)),
                                ex::hash_traffic(opt.traffic)));
  {
    const auto store = hm::store::ResultStore::open(dir.string());
    const auto hit = store->lookup(key);
    ASSERT_TRUE(hit.has_value());
    std::vector<std::uint8_t> stored_bytes;
    hm::store::encode_result(*hit, stored_bytes);
    EXPECT_EQ(stored_bytes, baseline_bytes);
    EXPECT_FALSE(store
                     ->lookup(ex::hash_combine(
                         arr_key, ex::hash_analytic_params(params)))
                     .has_value());
  }

  // A fresh engine on the warm store replays the search byte for byte,
  // every score served from the store.
  {
    hm::search::SearchEngine warm(opt);
    const auto res = warm.run(start);
    EXPECT_EQ(hm::search::trace_to_csv(res.trace), cold_csv);
    EXPECT_EQ(res.cache_hits, res.evaluations);
  }
  fs::remove_all(dir);
}

}  // namespace
