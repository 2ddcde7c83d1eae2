#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/optimizer.hpp"
#include "frameworks/frameworks.hpp"
#include "models/models.hpp"
#include "runtime/profile_db.hpp"
#include "schedule/serialize.hpp"

namespace ios {
namespace {

// A small two-branch block (cheap to search, still non-trivial: four ways to
// stage it) used where the model identity does not matter.
Graph small_graph(int batch = 1) {
  Graph g(batch, "api_test_block");
  const OpId in = g.input(64, 28, 28, "input");
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 32, .kh = 1,
                                          .kw = 1}, "a");
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 48, .kh = 3,
                                          .kw = 3, .ph = 1, .pw = 1}, "b");
  const OpId branches[] = {a, b};
  g.concat(branches, "concat");
  g.validate();
  return g;
}

std::string dump(const Schedule& q) { return schedule_to_json(q).dump(); }

TEST(Optimizer, CacheHitSkipsAllProfiling) {
  Optimizer opt;
  const OptimizationRequest request =
      OptimizationRequest::for_graph(small_graph());

  const OptimizationResult first = opt.optimize(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.new_measurements, 0);
  EXPECT_EQ(first.new_measurements, first.stats.measurements);
  EXPECT_EQ(opt.cache_size(), 1u);

  const OptimizationResult second = opt.optimize(request);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.new_measurements, 0);  // zero new CostModel measurements
  EXPECT_EQ(opt.total_measurements(), first.new_measurements);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(dump(second.schedule), dump(first.schedule));
  EXPECT_DOUBLE_EQ(second.latency_us, first.latency_us);
  EXPECT_EQ(opt.cache_size(), 1u);

  opt.clear_cache();
  EXPECT_EQ(opt.cache_size(), 0u);
  EXPECT_FALSE(opt.optimize(request).cache_hit);
}

TEST(Optimizer, CacheIsBoundedWithLruEviction) {
  Optimizer opt(/*cache_capacity=*/2);
  EXPECT_EQ(opt.cache_capacity(), 2u);

  OptimizationRequest a = OptimizationRequest::for_graph(small_graph());
  OptimizationRequest b = a;
  b.options.pruning = {1, 1};
  OptimizationRequest c = a;
  c.options.variant = IosVariant::kMerge;

  opt.optimize(a);
  opt.optimize(b);
  EXPECT_EQ(opt.cache_size(), 2u);

  // Touch `a` so `b` becomes least-recently-used, then overflow with `c`.
  EXPECT_TRUE(opt.optimize(a).cache_hit);
  opt.optimize(c);
  EXPECT_EQ(opt.cache_size(), 2u);
  EXPECT_EQ(opt.cache_stats().evictions, 1);

  // `a` and `c` survived; `b` was evicted and must be searched again.
  EXPECT_TRUE(opt.optimize(a).cache_hit);
  EXPECT_TRUE(opt.optimize(c).cache_hit);
  const OptimizationResult again = opt.optimize(b);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_GT(again.new_measurements, 0);

  const OptimizerCacheStats stats = opt.cache_stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 4);  // a, b, c cold + b re-searched
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.size, 2u);
}

TEST(Optimizer, CacheCapacityClampedToOne) {
  Optimizer opt(/*cache_capacity=*/0);
  EXPECT_EQ(opt.cache_capacity(), 1u);
  const OptimizationRequest request =
      OptimizationRequest::for_graph(small_graph());
  opt.optimize(request);
  EXPECT_TRUE(opt.optimize(request).cache_hit);
  EXPECT_EQ(opt.cache_size(), 1u);
}

// A miss searches under its key's shard lock, so two threads making the same
// miss search once: the second waits and is served the first one's entry.
TEST(Optimizer, ConcurrentIdenticalMissesSearchOnce) {
  OptimizationRequest request = OptimizationRequest::for_model("inception_v3");
  request.baselines.clear();
  const std::int64_t one_search =
      Optimizer().optimize(request).new_measurements;
  ASSERT_GT(one_search, 0);

  Optimizer opt;
  OptimizationResult results[2];
  std::atomic<int> ready{0};
  const auto race = [&](int i) {
    // Release both threads together, well inside one search's duration.
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    results[i] = opt.optimize(request);
  };
  std::thread first(race, 0);
  std::thread second(race, 1);
  first.join();
  second.join();

  const OptimizerCacheStats stats = opt.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_NE(results[0].cache_hit, results[1].cache_hit);
  EXPECT_EQ(results[0].new_measurements + results[1].new_measurements,
            one_search);
  EXPECT_EQ(opt.total_measurements(), one_search);
  EXPECT_EQ(dump(results[0].schedule), dump(results[1].schedule));
  EXPECT_DOUBLE_EQ(results[0].latency_us, results[1].latency_us);
}

TEST(Optimizer, ClearCacheKeepsCounters) {
  Optimizer opt;
  const OptimizationRequest request =
      OptimizationRequest::for_graph(small_graph());
  opt.optimize(request);
  opt.optimize(request);
  opt.clear_cache();
  const OptimizerCacheStats stats = opt.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.size, 0u);
}

TEST(Optimizer, DistinctConfigurationsMissTheCache) {
  Optimizer opt;
  OptimizationRequest request = OptimizationRequest::for_graph(small_graph());
  const OptimizationResult base = opt.optimize(request);

  request.device = "k80";
  EXPECT_FALSE(opt.optimize(request).cache_hit);

  request.device = "v100";
  request.options.pruning = {1, 1};
  EXPECT_FALSE(opt.optimize(request).cache_hit);

  request.options.pruning = {};
  request.options.variant = IosVariant::kMerge;
  EXPECT_FALSE(opt.optimize(request).cache_hit);
  EXPECT_EQ(opt.cache_size(), 4u);

  // num_threads does not change the found schedule and is not in the key.
  request.options.variant = IosVariant::kBoth;
  request.options.num_threads = 4;
  const OptimizationResult threaded = opt.optimize(request);
  EXPECT_TRUE(threaded.cache_hit);
  EXPECT_EQ(threaded.fingerprint, base.fingerprint);
}

TEST(Optimizer, GraphAndNameRequestsAreEquivalent) {
  Optimizer opt;
  const OptimizationResult by_name =
      opt.optimize(OptimizationRequest::for_model("squeezenet", "v100", 1));
  EXPECT_FALSE(by_name.cache_hit);
  EXPECT_EQ(by_name.recipe.model, "squeezenet");
  EXPECT_FALSE(by_name.recipe.graph.has_value());

  // The same network handed over as an in-memory graph is keyed by its
  // JSON, not by the zoo name, so it is searched again — to the identical
  // schedule and latency.
  const OptimizationResult by_graph = opt.optimize(
      OptimizationRequest::for_graph(models::squeezenet(1), "v100"));
  EXPECT_FALSE(by_graph.cache_hit);
  EXPECT_EQ(dump(by_graph.schedule), dump(by_name.schedule));
  EXPECT_DOUBLE_EQ(by_graph.latency_us, by_name.latency_us);
  EXPECT_TRUE(by_graph.recipe.graph.has_value());
}

TEST(Optimizer, BaselineSetIsPerRequestEvenOnCacheHit) {
  Optimizer opt;
  OptimizationRequest request = OptimizationRequest::for_graph(small_graph());
  const OptimizationResult first = opt.optimize(request);
  ASSERT_EQ(first.baselines.size(), 2u);
  EXPECT_NE(first.baseline("sequential"), nullptr);
  EXPECT_GT(first.baseline("sequential")->latency_us, 0);
  EXPECT_EQ(first.baseline("TensorRT"), nullptr);

  request.baselines = all_baselines();
  const OptimizationResult second = opt.optimize(request);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.baselines.size(), all_baselines().size());
  ASSERT_NE(second.baseline("TensorRT"), nullptr);
  EXPECT_GT(second.baseline("TensorRT")->latency_us, 0);
  EXPECT_DOUBLE_EQ(
      second.baseline("sequential")->latency_us,
      first.baseline("sequential")->latency_us);
}

TEST(Optimizer, RecipeSaveLoadEvaluateRoundTrip) {
  Optimizer opt;
  const OptimizationResult result =
      opt.optimize(OptimizationRequest::for_model("squeezenet", "v100", 1));

  const std::string path = ::testing::TempDir() + "/optimizer_recipe.json";
  Optimizer::save(result, path);
  const Recipe loaded = Optimizer::load(path);
  EXPECT_EQ(loaded.model, "squeezenet");
  EXPECT_EQ(loaded.device, "Tesla V100");
  EXPECT_EQ(loaded.batch, 1);
  EXPECT_EQ(dump(loaded.schedule), dump(result.schedule));

  const EvaluationResult ev = opt.evaluate(loaded);
  EXPECT_EQ(ev.device, "Tesla V100");
  EXPECT_EQ(ev.batch, 1);
  EXPECT_DOUBLE_EQ(ev.latency_us, result.latency_us);
  EXPECT_DOUBLE_EQ(ev.sequential_latency_us,
                   result.baseline("sequential")->latency_us);

  // The same recipe evaluated on another device and batch size.
  const EvaluationResult k80 = opt.evaluate(loaded, "k80", 4);
  EXPECT_EQ(k80.device, "Tesla K80");
  EXPECT_EQ(k80.batch, 4);
  EXPECT_GT(k80.latency_us, ev.latency_us);
}

TEST(Optimizer, GraphRecipeEmbedsGraphAndRoundTrips) {
  Optimizer opt;
  const OptimizationResult result =
      opt.optimize(OptimizationRequest::for_graph(small_graph()));
  ASSERT_TRUE(result.recipe.graph.has_value());

  const std::string path =
      ::testing::TempDir() + "/optimizer_graph_recipe.json";
  Optimizer::save(result, path);
  const Recipe loaded = Optimizer::load(path);
  ASSERT_TRUE(loaded.graph.has_value());
  EXPECT_EQ(loaded.model, "api_test_block");
  EXPECT_EQ(loaded.graph->name(), "api_test_block");

  const EvaluationResult ev = opt.evaluate(loaded);
  EXPECT_DOUBLE_EQ(ev.latency_us, result.latency_us);

  // Batch override on an embedded graph re-materializes it at the new batch.
  const EvaluationResult batched = opt.evaluate(loaded, "", 8);
  EXPECT_EQ(batched.batch, 8);
  EXPECT_GT(batched.latency_us, ev.latency_us);
}

TEST(Optimizer, GraphWithBatchPreservesStructure) {
  const Graph g = small_graph(1);
  const Graph g8 = graph_with_batch(g, 8);
  EXPECT_EQ(g8.batch(), 8);
  EXPECT_EQ(g8.num_ops(), g.num_ops());
  EXPECT_EQ(g8.name(), g.name());
  // Same graph at the same batch is returned unchanged (same fingerprint).
  EXPECT_EQ(graph_to_json(graph_with_batch(g, 1)).dump(),
            graph_to_json(g).dump());
}

TEST(Optimizer, UnknownNamesEnumerateAllKnownNames) {
  try {
    models::build_model("no_such_model", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_model"), std::string::npos);
    EXPECT_NE(msg.find("inception_v3"), std::string::npos);
    EXPECT_NE(msg.find("squeezenet"), std::string::npos);
  }

  try {
    device_by_name("no_such_device");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_device"), std::string::npos);
    EXPECT_NE(msg.find("v100"), std::string::npos);
    EXPECT_NE(msg.find("k80"), std::string::npos);
  }

  try {
    baseline_by_name("no_such_baseline");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("greedy"), std::string::npos);
    EXPECT_NE(msg.find("TensorRT"), std::string::npos);
  }

  Optimizer opt;
  EXPECT_THROW(opt.optimize(OptimizationRequest::for_model("nope")),
               std::invalid_argument);
  EXPECT_THROW(opt.optimize(OptimizationRequest::for_model(
                   "squeezenet", "nope")),
               std::invalid_argument);
}

// baseline_name() promises the display names of frameworks.cpp so tables
// printed from OptimizationResult line up with the Figure 7 benches; pin the
// two sources together.
TEST(Optimizer, BaselineNamesMatchFrameworkSpecs) {
  EXPECT_EQ(baseline_name(Baseline::kTensorFlow),
            frameworks::tensorflow_spec().name);
  EXPECT_EQ(baseline_name(Baseline::kTensorFlowXla),
            frameworks::tensorflow_xla_spec().name);
  EXPECT_EQ(baseline_name(Baseline::kTaso), frameworks::taso_spec().name);
  EXPECT_EQ(baseline_name(Baseline::kTvmCudnn),
            frameworks::tvm_cudnn_spec().name);
  EXPECT_EQ(baseline_name(Baseline::kTensorRT),
            frameworks::tensorrt_spec().name);
  EXPECT_EQ(baseline_name(Baseline::kTvmAutoTune),
            frameworks::tvm_autotune_spec().name);
  for (Baseline b : all_baselines()) {
    EXPECT_EQ(baseline_by_name(baseline_name(b)), b);
  }
}

TEST(Optimizer, ProfileDbWarmsAcrossOptimizerInstances) {
  const std::string path =
      ::testing::TempDir() + "/optimizer_profile_db.json";
  std::remove(path.c_str());

  OptimizationRequest request = OptimizationRequest::for_graph(small_graph());
  request.profile_db = path;

  // Cold: a fresh database is created and fully populated.
  Optimizer cold;
  const OptimizationResult first = cold.optimize(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.new_measurements, 0);
  EXPECT_EQ(first.profile_entries_loaded, 0);
  EXPECT_EQ(first.profile_entries_saved, first.new_measurements);

  // Warm, in a *new* Optimizer (empty recipe cache): the search re-runs but
  // every stage latency comes from the database — zero new simulations.
  Optimizer warm;
  const OptimizationResult second = warm.optimize(request);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.profile_entries_loaded, first.profile_entries_saved);
  EXPECT_EQ(second.new_measurements, 0);
  EXPECT_EQ(dump(second.schedule), dump(first.schedule));
  EXPECT_DOUBLE_EQ(second.latency_us, first.latency_us);

  // A different device under the same path coexists (separate context) and
  // does not clobber the first context's entries.
  OptimizationRequest k80 = request;
  k80.device = "k80";
  const OptimizationResult third = Optimizer().optimize(k80);
  EXPECT_EQ(third.profile_entries_loaded, 0);
  EXPECT_GT(third.new_measurements, 0);
  const OptimizationResult fourth = Optimizer().optimize(request);
  EXPECT_EQ(fourth.new_measurements, 0);
  std::remove(path.c_str());
}

TEST(Optimizer, WarmProfileDbCallSkipsTheMerge) {
  const std::string path =
      ::testing::TempDir() + "/optimizer_profile_db_warm.json";
  std::remove(path.c_str());

  OptimizationRequest request = OptimizationRequest::for_graph(small_graph());
  request.profile_db = path;
  const OptimizationResult cold = Optimizer().optimize(request);
  ASSERT_GT(cold.profile_entries_saved, 0);

  // A warm search measures nothing, so it has nothing to merge back.
  const OptimizationResult warm = Optimizer().optimize(request);
  EXPECT_EQ(warm.new_measurements, 0);
  EXPECT_EQ(warm.profile_entries_loaded, cold.profile_entries_saved);
  EXPECT_EQ(warm.profile_entries_saved, 0);

  // Skipping the merge lost nothing: a later Optimizer still loads every
  // entry and again simulates nothing.
  const OptimizationResult third = Optimizer().optimize(request);
  EXPECT_EQ(third.profile_entries_loaded, cold.profile_entries_saved);
  EXPECT_EQ(third.new_measurements, 0);
  EXPECT_EQ(dump(third.schedule), dump(cold.schedule));
  EXPECT_EQ(static_cast<std::int64_t>(ProfileDb::load(path).num_entries()),
            cold.profile_entries_saved);
  std::remove(path.c_str());
}

TEST(Optimizer, ProfileDbDoesNotAffectCacheKey) {
  // The database only changes where latencies come from, never the found
  // schedule, so requests with and without it share one recipe-cache entry.
  Optimizer opt;
  OptimizationRequest without = OptimizationRequest::for_graph(small_graph());
  OptimizationRequest with = without;
  with.profile_db = ::testing::TempDir() + "/optimizer_profile_key.json";
  std::remove(with.profile_db.c_str());
  const OptimizationResult a = opt.optimize(without);
  const OptimizationResult b = opt.optimize(with);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(b.cache_hit);
  // The cache hit short-circuits before any profiling, so no file appears.
  EXPECT_EQ(b.profile_entries_loaded, 0);
  EXPECT_EQ(b.profile_entries_saved, 0);
}

TEST(Optimizer, SearchEngineExcludedFromCacheKey) {
  // Both engines find bit-identical schedules, so the engine (like the
  // thread count) is not key material: a serial-engine result serves a
  // wave-engine request.
  Optimizer opt;
  OptimizationRequest serial = OptimizationRequest::for_graph(small_graph());
  serial.options.engine = SearchEngine::kSerial;
  OptimizationRequest wave = serial;
  wave.options.engine = SearchEngine::kWave;
  wave.options.num_threads = 4;
  const OptimizationResult a = opt.optimize(serial);
  const OptimizationResult b = opt.optimize(wave);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(dump(b.schedule), dump(a.schedule));
}

TEST(Optimizer, InvalidOptionsRejectedEvenOnCachedRequests) {
  // The engine is excluded from the cache key, so a kWave+memoize=false
  // request maps to the same entry as a valid kSerial+memoize=false one; it
  // must still throw (options are validated before the cache lookup).
  Optimizer opt;
  OptimizationRequest valid = OptimizationRequest::for_graph(small_graph());
  valid.options.memoize = false;
  valid.options.engine = SearchEngine::kSerial;
  opt.optimize(valid);

  OptimizationRequest invalid = valid;
  invalid.options.engine = SearchEngine::kWave;
  EXPECT_THROW(opt.optimize(invalid), std::invalid_argument);
}

void expect_same_counters(const SchedulerStats& a, const SchedulerStats& b) {
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.measurements, b.measurements);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.pruned_endings, b.pruned_endings);
  EXPECT_EQ(a.pruned_states, b.pruned_states);
  EXPECT_EQ(a.beam_trimmed, b.beam_trimmed);
  EXPECT_DOUBLE_EQ(a.latency_gap_bound_us, b.latency_gap_bound_us);
  EXPECT_EQ(a.block_cache_hits, b.block_cache_hits);
  EXPECT_EQ(a.canonical_hits, b.canonical_hits);
  EXPECT_EQ(a.cross_model_hits, b.cross_model_hits);
  EXPECT_DOUBLE_EQ(a.profiling_cost_us, b.profiling_cost_us);
}

// Cross-request reuse changes where stage latencies and block layouts come
// from, never what the search finds. The reuse side answers ResNet-50 partly
// from ResNet-34's stages and replays Inception V3's repeated blocks. Which
// blocks replay does not depend on the thread count
// (CrossReuseReplaysIndependentOfThreads).
TEST(Optimizer, CrossReuseKeepsSchedulesAcrossModels) {
  Optimizer with_reuse;
  Optimizer without_reuse;
  for (const std::string model : {"resnet34", "resnet50", "inception_v3"}) {
    SCOPED_TRACE(model);
    OptimizationRequest request = OptimizationRequest::for_model(model);
    request.baselines.clear();
    const OptimizationResult off = without_reuse.optimize(request);
    request.cross_reuse = true;
    const OptimizationResult on = with_reuse.optimize(request);

    EXPECT_EQ(dump(on.schedule), dump(off.schedule));
    EXPECT_DOUBLE_EQ(on.latency_us, off.latency_us);
    EXPECT_EQ(off.canonical_hits, 0);
    EXPECT_EQ(off.block_cache_hits, 0);
    if (model == "resnet50") {
      EXPECT_GT(on.cross_model_hits, 0);
    }
    if (model == "inception_v3") {
      EXPECT_GT(on.block_cache_hits, 0);
    }
  }
}

// Which blocks of a partition replay a template is decided before any
// block is searched, in block order, so concurrent blocks cannot race to
// store the template a structurally identical block then replays: every
// run at 1 and 4 threads searches and replays the same blocks. NASNet
// repeats its cells, and Inception V3 repeats some of its modules.
TEST(Optimizer, CrossReuseReplaysIndependentOfThreads) {
  for (const std::string model : {"nasnet", "inception_v3"}) {
    SCOPED_TRACE(model);
    OptimizationRequest request = OptimizationRequest::for_model(model);
    request.baselines.clear();
    request.cross_reuse = true;
    request.options.num_threads = 1;
    const OptimizationResult ref = Optimizer().optimize(request);
    EXPECT_GT(ref.block_cache_hits, 0);
    for (const int threads : {1, 4}) {
      request.options.num_threads = threads;
      for (int run = 0; run < 3; ++run) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " run=" + std::to_string(run));
        const OptimizationResult got = Optimizer().optimize(request);
        EXPECT_EQ(dump(got.schedule), dump(ref.schedule));
        EXPECT_DOUBLE_EQ(got.latency_us, ref.latency_us);
        EXPECT_EQ(got.stats.states, ref.stats.states);
        EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
        EXPECT_EQ(got.stats.cache_hits, ref.stats.cache_hits);
        EXPECT_EQ(got.block_cache_hits, ref.block_cache_hits);
        EXPECT_EQ(got.stats.measurements, ref.stats.measurements);
        EXPECT_EQ(got.canonical_hits, ref.canonical_hits);
      }
    }
  }
}

// Reuse is a property of one Optimizer: a fresh Optimizer starts cold no
// matter what other Optimizers in the process searched, while a repeat
// search on the same Optimizer replays every block.
TEST(Optimizer, CrossReuseIsScopedToOneOptimizer) {
  OptimizationRequest request = OptimizationRequest::for_model("resnet34");
  request.baselines.clear();
  request.cross_reuse = true;

  Optimizer first;
  const OptimizationResult a = first.optimize(request);
  const OptimizationResult b = Optimizer().optimize(request);
  EXPECT_GT(a.stats.states, 0);
  EXPECT_GT(a.new_measurements, 0);
  expect_same_counters(b.stats, a.stats);
  EXPECT_EQ(b.new_measurements, a.new_measurements);

  first.clear_cache();  // force a second search on the same Optimizer
  const OptimizationResult again = first.optimize(request);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(again.stats.states, 0);
  EXPECT_EQ(again.new_measurements, 0);
  EXPECT_GT(again.block_cache_hits, 0);
  EXPECT_EQ(dump(again.schedule), dump(a.schedule));
}

// A block replayed from the template cache owes the same beam gap bound as
// the search that solved it, so reuse on and off report identical bounds
// (and found minus bound stays a sound lower bound on the optimum).
TEST(Optimizer, CrossReuseKeepsTheBeamGapBound) {
  OptimizationRequest request = OptimizationRequest::for_model("inception_v3");
  request.baselines.clear();
  const double optimum = Optimizer().optimize(request).latency_us;
  apply_prune_spec(request.options, "beam:2");
  const OptimizationResult off = Optimizer().optimize(request);
  request.cross_reuse = true;
  const OptimizationResult on = Optimizer().optimize(request);

  EXPECT_GT(on.block_cache_hits, 0);
  EXPECT_GT(off.stats.latency_gap_bound_us, 0);
  EXPECT_DOUBLE_EQ(on.stats.latency_gap_bound_us,
                   off.stats.latency_gap_bound_us);
  EXPECT_EQ(dump(on.schedule), dump(off.schedule));
  EXPECT_LE(on.latency_us - on.stats.latency_gap_bound_us, optimum + 1e-6);
}

TEST(Optimizer, CrossReuseRejectsNoisyProtocol) {
  Optimizer opt;
  OptimizationRequest request = OptimizationRequest::for_graph(small_graph());
  request.protocol.noise_frac = 0.05;
  request.cross_reuse = true;
  EXPECT_THROW(opt.optimize(request), std::invalid_argument);
}

TEST(Optimizer, RegistryEnumerationMatchesLookup) {
  const std::vector<std::string> names = models::model_names();
  EXPECT_EQ(names.size(), models::registry().size());
  EXPECT_TRUE(models::has_model("nasnet"));
  EXPECT_FALSE(models::has_model("nasnet_b"));
  for (const std::string& name : names) {
    EXPECT_TRUE(models::has_model(name));
  }
  // Every registered builder produces a valid graph at batch 1 with the
  // requested batch applied.
  const Graph g = models::build_model("fig3", 2);
  EXPECT_EQ(g.batch(), 2);
}

}  // namespace
}  // namespace ios
