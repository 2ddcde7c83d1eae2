// Search-engine equivalence and profiling-database tests. The wave-parallel
// bottom-up engine must be indistinguishable from the serial recursive
// reference except in wall time: identical schedules (stage by stage),
// identical executor latencies, and identical SchedulerStats counters, for
// every IOS variant, pruning setting, and thread count. The profiling
// database must round-trip the cost model's cache so a warm search runs
// zero new simulations and still finds the identical schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "models/models.hpp"
#include "runtime/profile_db.hpp"
#include "schedule/baselines.hpp"
#include "util/rng.hpp"

namespace ios {
namespace {

ExecConfig v100_config() { return ExecConfig{tesla_v100(), {}}; }

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].strategy, b.stages[i].strategy) << "stage " << i;
    ASSERT_EQ(a.stages[i].groups.size(), b.stages[i].groups.size())
        << "stage " << i;
    for (std::size_t j = 0; j < a.stages[i].groups.size(); ++j) {
      EXPECT_EQ(a.stages[i].groups[j].ops, b.stages[i].groups[j].ops)
          << "stage " << i << " group " << j;
    }
  }
}

struct SearchRun {
  Schedule schedule;
  SchedulerStats stats;
  double latency_us = 0;
};

SearchRun run(const Graph& g, SchedulerOptions options) {
  SearchRun out;
  CostModel cost(g, v100_config());
  out.schedule = IosScheduler(cost, options).schedule_graph(&out.stats);
  out.latency_us =
      Executor(g, v100_config()).schedule_latency_us(out.schedule);
  return out;
}

void expect_equivalent_engines(const Graph& g, IosVariant variant,
                               PruningStrategy pruning) {
  SchedulerOptions serial;
  serial.engine = SearchEngine::kSerial;
  serial.variant = variant;
  serial.pruning = pruning;
  const SearchRun ref = run(g, serial);

  for (const int threads : {1, 2, 4}) {
    SchedulerOptions wave = serial;
    wave.engine = SearchEngine::kWave;
    wave.num_threads = threads;
    const SearchRun got = run(g, wave);

    SCOPED_TRACE(std::string(g.name()) + " " + ios_variant_name(variant) +
                 " r=" + std::to_string(pruning.r) +
                 " s=" + std::to_string(pruning.s) +
                 " threads=" + std::to_string(threads));
    expect_same_schedule(got.schedule, ref.schedule);
    EXPECT_DOUBLE_EQ(got.latency_us, ref.latency_us);
    EXPECT_EQ(got.stats.states, ref.stats.states);
    EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
    EXPECT_EQ(got.stats.measurements, ref.stats.measurements);
    EXPECT_EQ(got.stats.cache_hits, ref.stats.cache_hits);
    EXPECT_EQ(got.stats.pruned_endings, ref.stats.pruned_endings);
    // The same distinct stages are profiled; only the floating-point
    // accumulation order differs across threads.
    EXPECT_NEAR(got.stats.profiling_cost_us, ref.stats.profiling_cost_us,
                1e-9 * ref.stats.profiling_cost_us + 1e-9);
  }
}

TEST(SearchEngine, WaveMatchesSerialAcrossVariants) {
  const Graph g = models::fig2_graph(1);
  for (const IosVariant variant :
       {IosVariant::kBoth, IosVariant::kParallel, IosVariant::kMerge}) {
    expect_equivalent_engines(g, variant, PruningStrategy{});
    expect_equivalent_engines(g, variant, PruningStrategy::none());
  }
}

TEST(SearchEngine, WaveMatchesSerialWithTightPruning) {
  // P(2, 1) actually prunes on fig2 (two independent branches form a
  // two-component ending), exercising the pruned-visit accounting in both
  // engines.
  expect_equivalent_engines(models::fig2_graph(1), IosVariant::kBoth,
                            PruningStrategy{2, 1});
}

TEST(SearchEngine, WaveMatchesSerialOnRealModels) {
  expect_equivalent_engines(models::squeezenet(1), IosVariant::kBoth,
                            PruningStrategy{});
  expect_equivalent_engines(models::inception_v3(1), IosVariant::kBoth,
                            PruningStrategy{});
}

/// NASNet's largest cell: 18 ops and 886 states, of which 10 levels hold
/// at least the 24 states that fan a level out to the pool, the widest 123.
std::vector<OpId> nasnet_widest_cell(const Graph& g) {
  const std::vector<std::vector<OpId>> blocks = g.blocks();
  return *std::max_element(
      blocks.begin(), blocks.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
}

/// A cold search of one block.
Schedule search_block(const Graph& g, const std::vector<OpId>& block,
                      SearchEngine engine, int threads, PruneMode prune,
                      SchedulerStats& stats) {
  CostModel cost(g, v100_config());
  SchedulerOptions options;
  options.engine = engine;
  options.num_threads = threads;
  options.prune = prune;
  options.beam_width = 4;
  return IosScheduler(cost, options).schedule_block(block, &stats);
}

TEST(SearchEngine, WaveMatchesSerialOnAWideBlock) {
  // Every level of NASNet's widest cell that fans out runs the multi-worker
  // paths — locked ending-stripe inserts, the drain on the pool — and 3
  // threads split the levels into uneven chunk claims.
  const Graph g = models::nasnet_a(1);
  const std::vector<OpId> cell = nasnet_widest_cell(g);
  const auto search = [&](SearchEngine engine, int threads,
                          SchedulerStats& stats) {
    return search_block(g, cell, engine, threads, PruneMode::kExact, stats);
  };
  SchedulerStats ref;
  const Schedule ref_schedule = search(SearchEngine::kSerial, 1, ref);
  ASSERT_EQ(ref.states, 886);

  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SchedulerStats got;
    expect_same_schedule(search(SearchEngine::kWave, threads, got),
                         ref_schedule);
    EXPECT_EQ(got.states, ref.states);
    EXPECT_EQ(got.transitions, ref.transitions);
    EXPECT_EQ(got.measurements, ref.measurements);
    EXPECT_EQ(got.cache_hits, ref.cache_hits);
    EXPECT_EQ(got.pruned_endings, ref.pruned_endings);
    EXPECT_EQ(got.pruned_states, ref.pruned_states);
    EXPECT_EQ(got.beam_trimmed, ref.beam_trimmed);
    EXPECT_EQ(got.latency_gap_bound_us, ref.latency_gap_bound_us);
    EXPECT_EQ(got.block_cache_hits, ref.block_cache_hits);
    EXPECT_EQ(got.canonical_hits, ref.canonical_hits);
    EXPECT_EQ(got.cross_model_hits, ref.cross_model_hits);
    // The same stages are profiled, in a thread-dependent order.
    EXPECT_NEAR(got.profiling_cost_us, ref.profiling_cost_us,
                1e-9 * ref.profiling_cost_us);
  }
}

TEST(SearchEngine, PrunedModesMatchAcrossThreadsOnAWideBlock) {
  // The wide-cell check in the two pruned modes, whose multi-worker paths
  // the random graphs of prune_property_test are too small to reach:
  // dominance's per-worker candidate lists, and beam's discovery fan-out
  // with its successor fold. Dominance reproduces the serial engine's
  // schedule and state space with a zero gap; both modes match their
  // one-thread run in every counter at 2-4 threads.
  const Graph g = models::nasnet_a(1);
  const std::vector<OpId> cell = nasnet_widest_cell(g);
  SchedulerStats exact;
  const Schedule exact_schedule = search_block(
      g, cell, SearchEngine::kSerial, 1, PruneMode::kExact, exact);
  ASSERT_EQ(exact.states, 886);

  for (const PruneMode mode : {PruneMode::kDominance, PruneMode::kBeam}) {
    SCOPED_TRACE(prune_mode_name(mode));
    SchedulerStats ref;
    const Schedule ref_schedule =
        search_block(g, cell, SearchEngine::kWave, 1, mode, ref);
    EXPECT_GT(ref.beam_trimmed, 0);
    if (mode == PruneMode::kDominance) {
      expect_same_schedule(ref_schedule, exact_schedule);
      EXPECT_EQ(ref.states, exact.states);
      EXPECT_EQ(ref.transitions, exact.transitions);
      EXPECT_EQ(ref.pruned_endings, exact.pruned_endings);
      EXPECT_LT(ref.measurements, exact.measurements);
      EXPECT_EQ(ref.latency_gap_bound_us, 0);
    } else {
      EXPECT_LT(ref.states, exact.states);
    }
    for (const int threads : {2, 3, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SchedulerStats got;
      expect_same_schedule(
          search_block(g, cell, SearchEngine::kWave, threads, mode, got),
          ref_schedule);
      EXPECT_EQ(got.states, ref.states);
      EXPECT_EQ(got.transitions, ref.transitions);
      EXPECT_EQ(got.measurements, ref.measurements);
      EXPECT_EQ(got.cache_hits, ref.cache_hits);
      EXPECT_EQ(got.pruned_endings, ref.pruned_endings);
      EXPECT_EQ(got.pruned_states, ref.pruned_states);
      EXPECT_EQ(got.beam_trimmed, ref.beam_trimmed);
      EXPECT_EQ(got.latency_gap_bound_us, ref.latency_gap_bound_us);
    }
  }
}

TEST(SearchEngine, ExactStatesAreTheBlockDownSets) {
  // The wave engine does not discover its exact and dominance states: it
  // generates the block's non-empty down-sets (BlockDag::down_sets). That
  // is sound only while every down-set is reachable, i.e. while no cut can
  // prune a singleton ending. The serial engine walks the transition
  // relation itself, so its state count must equal a brute-force count of
  // the down-sets under the default and a tighter P(r, s). If a new cut
  // ever prunes a singleton ending, this fails, and the wave engine needs
  // its discovery pass back.
  int blocks_checked = 0;
  for (const std::string& name : models::model_names()) {
    const Graph g = models::build_model(name, 1);
    CostModel cost(g, v100_config());
    for (const std::vector<OpId>& block : g.blocks()) {
      if (block.size() > 20) continue;
      SCOPED_TRACE(name + " block of " + std::to_string(block.size()));
      const BlockDag dag(g, block);
      std::vector<std::uint64_t> brute;
      for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << dag.size());
           ++bits) {
        bool closed = true;
        for (const int i : Set64{bits}) {
          closed = closed && dag.pred_mask(i).is_subset_of(Set64{bits});
        }
        if (closed) brute.push_back(bits);
      }
      std::vector<std::uint64_t> generated;
      const std::vector<std::vector<Set64>> levels = dag.down_sets();
      for (std::size_t p = 1; p < levels.size(); ++p) {
        for (const Set64 s : levels[p]) {
          EXPECT_EQ(s.size(), static_cast<int>(p));
          generated.push_back(s.bits());
        }
      }
      std::sort(generated.begin(), generated.end());
      EXPECT_EQ(generated, brute);
      for (const PruningStrategy pruning :
           {PruningStrategy{3, 8}, PruningStrategy{2, 4}}) {
        SchedulerStats stats;
        IosScheduler(cost, {.pruning = pruning,
                            .engine = SearchEngine::kSerial})
            .schedule_block(block, &stats);
        EXPECT_EQ(stats.states, static_cast<std::int64_t>(brute.size()))
            << "P(" << pruning.r << ", " << pruning.s << ")";
      }
      ++blocks_checked;
    }
  }
  EXPECT_GT(blocks_checked, 100);
}

TEST(SearchEngine, DerivedStageKeysMatchStageFingerprint) {
  // Both engines key the cost model's latency cache by fingerprints derived
  // from an ending's component masks; no search hashes a built Stage. The
  // profile db and measure() look stages up by stage_fingerprint, so each
  // derived key must equal it. A fresh model loaded with a search's profile
  // must then measure nothing when asked for every stage that search found,
  // whichever path evaluated it: the serial engine (exact at 1 thread), the
  // wave engine's one pass (exact at 4), beam discovery and the dominance
  // pass (both via dag.components).
  struct Mode {
    const char* name;
    int threads;
    PruneMode prune;
  };
  const Mode modes[] = {{"exact@1", 1, PruneMode::kExact},
                        {"exact@4", 4, PruneMode::kExact},
                        {"beam:4@4", 4, PruneMode::kBeam},
                        {"dominance@4", 4, PruneMode::kDominance}};
  std::vector<Graph> graphs;
  graphs.push_back(models::squeezenet(1));
  graphs.push_back(models::inception_v3(1));
  int merge_stages = 0;
  int single_group_stages = 0;  // one group of >= 2 ops
  for (const Graph& g : graphs) {
    for (const IosVariant variant :
         {IosVariant::kBoth, IosVariant::kParallel, IosVariant::kMerge}) {
      for (const Mode& mode : modes) {
        SCOPED_TRACE(std::string(g.name()) + " " + ios_variant_name(variant) +
                     " " + mode.name);
        SchedulerOptions options;
        options.variant = variant;
        options.num_threads = mode.threads;
        options.prune = mode.prune;
        options.beam_width = 4;
        CostModel cost(g, v100_config());
        const Schedule schedule = IosScheduler(cost, options).schedule_graph();

        ProfileDb db;
        cost.save_profile(db);
        CostModel fresh(g, v100_config());
        ASSERT_GT(fresh.load_profile(db), 0);
        for (const Stage& stage : schedule.stages) {
          fresh.measure(stage);
          if (stage.strategy == StageStrategy::kMerge) {
            ++merge_stages;
          } else if (stage.groups.size() == 1 &&
                     stage.groups[0].ops.size() >= 2) {
            ++single_group_stages;
          }
        }
        EXPECT_EQ(fresh.num_measurements(), 0);
      }
    }
  }
  // The schedules exercise every key family: merged stages, and concurrent
  // stages of one multi-op group (the IOS-Merge fallback among them).
  EXPECT_GT(merge_stages, 0);
  EXPECT_GT(single_group_stages, 0);
}

TEST(SearchEngine, AutoResolvesByMemoizationAndWorkers) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  // Multi-worker + memoized: the wave engine.
  EXPECT_EQ(IosScheduler(cost, {.memoize = true, .num_threads = 4})
                .resolved_engine(),
            SearchEngine::kWave);
  // One worker: the recursive engine, which single-threaded callers (the
  // serving prewarm among them) have always run.
  EXPECT_EQ(IosScheduler(cost, {.memoize = true, .num_threads = 1})
                .resolved_engine(),
            SearchEngine::kSerial);
  // The memoize=false ablation only exists recursively.
  EXPECT_EQ(IosScheduler(cost, {.memoize = false, .num_threads = 4})
                .resolved_engine(),
            SearchEngine::kSerial);
  // Explicit choices always win.
  EXPECT_EQ(IosScheduler(cost, {.engine = SearchEngine::kSerial,
                                .num_threads = 4})
                .resolved_engine(),
            SearchEngine::kSerial);
  EXPECT_EQ(IosScheduler(cost, {.engine = SearchEngine::kWave})
                .resolved_engine(),
            SearchEngine::kWave);
}

TEST(SearchEngine, WaveRejectsMemoizationAblation) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  EXPECT_THROW(
      IosScheduler(cost, {.memoize = false, .engine = SearchEngine::kWave}),
      std::invalid_argument);
}

TEST(SearchEngine, EngineNames) {
  EXPECT_STREQ(search_engine_name(SearchEngine::kAuto), "auto");
  EXPECT_STREQ(search_engine_name(SearchEngine::kSerial), "serial");
  EXPECT_STREQ(search_engine_name(SearchEngine::kWave), "wave");
}

TEST(SearchEngine, CachedPrunedVisitsCountAsPruned) {
  // The fig9 accounting bugfix: repeat visits to a pruned ending are pruned
  // transitions, not cache hits. Under P(2, 1) on fig2 the pruned
  // two-component ending is visited from more than one DP state, so the
  // pruned counter must exceed the distinct-endings count a
  // first-visit-only accounting would report.
  const Graph g = models::fig2_graph(1);
  CostModel cost(g, v100_config());
  SchedulerStats stats;
  IosScheduler(cost, {.pruning = PruningStrategy{2, 1},
                      .engine = SearchEngine::kSerial})
      .schedule_graph(&stats);
  EXPECT_GT(stats.pruned_endings, 1);
  // cache_hits only counts non-pruned repeats now, so every transition plus
  // pruned visit is accounted exactly once per (S, S') pair.
  EXPECT_GE(stats.transitions, stats.cache_hits);
}

// A block template stores the beam gap bound its search owed even when that
// search collected no stats, so replaying every block reports the same bound
// as a fresh search.
TEST(BlockTemplateCache, ReplayReAddsGapBoundRecordedWithoutStats) {
  const Graph g = models::squeezenet(1);
  CostModel cost(g, v100_config());
  SchedulerOptions beam;
  beam.prune = PruneMode::kBeam;
  beam.beam_width = 2;
  SchedulerStats fresh;
  const Schedule searched = IosScheduler(cost, beam).schedule_graph(&fresh);
  ASSERT_GT(fresh.latency_gap_bound_us, 0);

  BlockTemplateCache templates;
  IosScheduler(cost, beam, &templates).schedule_graph(nullptr);
  SchedulerStats replayed;
  const Schedule q =
      IosScheduler(cost, beam, &templates).schedule_graph(&replayed);
  EXPECT_EQ(replayed.states, 0);
  EXPECT_EQ(replayed.block_cache_hits,
            static_cast<std::int64_t>(g.blocks().size()));
  EXPECT_DOUBLE_EQ(replayed.latency_gap_bound_us, fresh.latency_gap_bound_us);
  expect_same_schedule(q, searched);
}

TEST(BlockTemplateCache, RejectsNoisyProtocol) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config(), ProfilingProtocol{.noise_frac = 0.05});
  BlockTemplateCache templates;
  EXPECT_THROW(IosScheduler(cost, {}, &templates), std::invalid_argument);
  EXPECT_NO_THROW(IosScheduler(cost, {}, nullptr));
}

// ---------------------------------------------------------------------------
// Counter invariants on random graphs (property tests)
// ---------------------------------------------------------------------------

/// Random single-block DAG: 5-9 spatial-preserving ops (1x1/3x3 convs,
/// pools, sepconvs) wired to random earlier outputs, closed by a concat of
/// the leaves. One block keeps the whole DP in a single subset search, the
/// richest setting for the ending/memo counters.
Graph random_block_graph(std::uint64_t seed) {
  Rng rng(seed);
  Graph g(1 + rng.uniform_int(2), "prop_" + std::to_string(seed));
  const OpId in = g.input(8 + 8 * rng.uniform_int(2), 10, 10);
  g.begin_block();

  std::vector<OpId> nodes{in};
  std::vector<bool> consumed{true};  // the input never joins the concat
  const int num_ops = 5 + rng.uniform_int(5);
  for (int i = 0; i < num_ops; ++i) {
    const std::size_t src = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(nodes.size())));
    const OpId x = nodes[src];
    OpId y;
    const std::string name = "op" + std::to_string(i);
    switch (rng.uniform_int(4)) {
      case 0:
        y = g.conv2d(x, Conv2dAttrs{.out_channels = 8 + 8 * rng.uniform_int(2),
                                    .kh = 1, .kw = 1},
                     name);
        break;
      case 1:
        y = g.conv2d(x, Conv2dAttrs{.out_channels = 8, .kh = 3, .kw = 3,
                                    .ph = 1, .pw = 1},
                     name);
        break;
      case 2:
        y = g.pool2d(x, Pool2dAttrs{Pool2dAttrs::Kind::kMax, 3, 3, 1, 1, 1, 1},
                     name);
        break;
      default:
        y = g.sepconv(x, SepConvAttrs{.out_channels = 8}, name);
        break;
    }
    consumed[src] = true;
    nodes.push_back(y);
    consumed.push_back(false);
  }
  std::vector<OpId> leaves;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!consumed[i]) leaves.push_back(nodes[i]);
  }
  if (leaves.size() > 1) {
    g.concat(leaves, "out");
  }
  g.validate();
  return g;
}

/// The SchedulerStats bookkeeping identities that must hold for any search:
///  * every ending visit is either an explored transition or a pruned visit
///    (visited = hits + misses: transitions already include the cache-hit
///    repeats, so cache_hits <= transitions);
///  * pruned visits never exceed the total visit count;
///  * at most two stages (merge and concurrent candidates under kBoth) are
///    profiled per distinct unpruned ending.
void expect_counter_invariants(const SchedulerStats& s, bool pruning_enabled) {
  EXPECT_GE(s.states, 1);
  EXPECT_GE(s.transitions, s.states - 1);  // single-block: every state but
                                           // the root is entered via one
  EXPECT_GE(s.transitions, s.cache_hits);
  EXPECT_GE(s.pruned_endings, 0);
  const std::int64_t visited = s.transitions + s.pruned_endings;
  EXPECT_LE(s.pruned_endings, visited);
  EXPECT_LE(s.measurements, 2 * (s.transitions - s.cache_hits));
  EXPECT_GE(s.measurements, 0);
  if (!pruning_enabled) {
    EXPECT_EQ(s.pruned_endings, 0);
  }
}

class SearchEngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SearchEngineProperty, CounterInvariantsAndEngineEqualityOnRandomGraphs) {
  const Graph g = random_block_graph(GetParam());
  for (const PruningStrategy pruning :
       {PruningStrategy{}, PruningStrategy::none(), PruningStrategy{2, 2}}) {
    SchedulerOptions serial;
    serial.engine = SearchEngine::kSerial;
    serial.pruning = pruning;
    const SearchRun ref = run(g, serial);
    expect_counter_invariants(ref.stats, !pruning.unrestricted());

    for (const int threads : {2, 4}) {
      SchedulerOptions wave = serial;
      wave.engine = SearchEngine::kWave;
      wave.num_threads = threads;
      const SearchRun got = run(g, wave);
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + " r=" +
                   std::to_string(pruning.r) + " s=" + std::to_string(pruning.s) +
                   " threads=" + std::to_string(threads));
      // wave == serial on every counter, not just the schedule.
      expect_same_schedule(got.schedule, ref.schedule);
      EXPECT_DOUBLE_EQ(got.latency_us, ref.latency_us);
      EXPECT_EQ(got.stats.states, ref.stats.states);
      EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
      EXPECT_EQ(got.stats.measurements, ref.stats.measurements);
      EXPECT_EQ(got.stats.cache_hits, ref.stats.cache_hits);
      EXPECT_EQ(got.stats.pruned_endings, ref.stats.pruned_endings);
      expect_counter_invariants(got.stats, !pruning.unrestricted());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchEngineProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Profiling database
// ---------------------------------------------------------------------------

TEST(ProfileDb, RoundTripsThroughJson) {
  ProfileDb db;
  db.context_for_update(0x1234)[42] = 1.5;
  db.context_for_update(0x1234)[7] = 2.25;
  db.context_for_update(0x9999)[42] = 99.0;
  const ProfileDb loaded = ProfileDb::from_json(
      JsonValue::parse(db.to_json().dump()));
  EXPECT_EQ(loaded.num_contexts(), 2u);
  EXPECT_EQ(loaded.num_entries(), 3u);
  ASSERT_NE(loaded.context(0x1234), nullptr);
  EXPECT_DOUBLE_EQ(loaded.context(0x1234)->at(42), 1.5);
  EXPECT_DOUBLE_EQ(loaded.context(0x9999)->at(42), 99.0);
  EXPECT_EQ(loaded.context(0xdead), nullptr);
}

TEST(ProfileDb, RejectsForeignDocuments) {
  EXPECT_THROW(ProfileDb::from_json(JsonValue::parse("{\"a\":1}")),
               std::runtime_error);
  EXPECT_THROW(
      ProfileDb::from_json(JsonValue::parse(
          "{\"format\":\"ios-profile-db\",\"version\":99,\"contexts\":{}}")),
      std::runtime_error);
}

TEST(ProfileDb, MissingFileLoadsEmpty) {
  const ProfileDb db =
      ProfileDb::load(::testing::TempDir() + "/does_not_exist_profile.json");
  EXPECT_TRUE(db.empty());
}

TEST(ProfileDb, WarmSearchRunsZeroNewMeasurements) {
  const Graph g = models::squeezenet(1);

  CostModel cold(g, v100_config());
  SchedulerStats cold_stats;
  const Schedule cold_schedule =
      IosScheduler(cold, {}).schedule_graph(&cold_stats);
  ASSERT_GT(cold.num_measurements(), 0);

  ProfileDb db;
  const int saved = cold.save_profile(db);
  EXPECT_EQ(saved, cold.num_measurements());

  // Round-trip through JSON text like the on-disk flow does.
  const ProfileDb reloaded =
      ProfileDb::from_json(JsonValue::parse(db.to_json().dump()));

  CostModel warm(g, v100_config());
  EXPECT_EQ(warm.load_profile(reloaded), saved);
  SchedulerStats warm_stats;
  const Schedule warm_schedule =
      IosScheduler(warm, {}).schedule_graph(&warm_stats);

  EXPECT_EQ(warm.num_measurements(), 0);           // zero new simulations
  EXPECT_DOUBLE_EQ(warm.profiling_cost_us(), 0);   // zero profiling cost
  EXPECT_EQ(warm_stats.measurements, 0);
  expect_same_schedule(warm_schedule, cold_schedule);
  // Same search shape either way.
  EXPECT_EQ(warm_stats.states, cold_stats.states);
  EXPECT_EQ(warm_stats.transitions, cold_stats.transitions);
}

TEST(ProfileDb, ContextMismatchLoadsNothing) {
  const Graph squeeze = models::squeezenet(1);
  CostModel cold(squeeze, v100_config());
  IosScheduler(cold, {}).schedule_graph();
  ProfileDb db;
  cold.save_profile(db);

  // Different graph: nothing applies. (The graph must outlive the model —
  // CostModel's executor holds it by reference.)
  const Graph fig2 = models::fig2_graph(1);
  CostModel other_model(fig2, v100_config());
  EXPECT_EQ(other_model.load_profile(db), 0);

  // Same graph, different device: nothing applies either.
  CostModel other_device(squeeze, ExecConfig{tesla_k80(), {}});
  EXPECT_EQ(other_device.load_profile(db), 0);

  // Same graph, different profiling protocol: separate context too.
  CostModel other_protocol(squeeze, v100_config(),
                           ProfilingProtocol{2, 5, 0.05, 7});
  EXPECT_EQ(other_protocol.load_profile(db), 0);
}

TEST(ProfileDb, NoisyLatenciesRoundTripExactly) {
  // Noise-averaged latencies are arbitrary doubles; the %.17g JSON writer
  // must bring them back bit-exact or warm searches could tie-break
  // differently than cold ones.
  const Graph g = models::fig2_graph(1);
  const ProfilingProtocol noisy{2, 5, 0.1, 42};
  CostModel cold(g, v100_config(), noisy);
  const Schedule cold_schedule = IosScheduler(cold, {}).schedule_graph();

  ProfileDb db;
  cold.save_profile(db);
  const ProfileDb reloaded =
      ProfileDb::from_json(JsonValue::parse(db.to_json().dump()));

  CostModel warm(g, v100_config(), noisy);
  EXPECT_GT(warm.load_profile(reloaded), 0);
  const Schedule warm_schedule = IosScheduler(warm, {}).schedule_graph();
  EXPECT_EQ(warm.num_measurements(), 0);
  expect_same_schedule(warm_schedule, cold_schedule);
}

}  // namespace
}  // namespace ios
