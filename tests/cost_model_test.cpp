#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "models/models.hpp"
#include "runtime/canonical_cache.hpp"
#include "runtime/cost_model.hpp"
#include "schedule/baselines.hpp"

namespace ios {
namespace {

ExecConfig v100_config() { return ExecConfig{tesla_v100(), {}}; }

TEST(CostModel, CachesRepeatedMeasurements) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  const Schedule q = sequential_schedule(g);
  const double first = cost.measure(q.stages[0]);
  const auto measurements = cost.num_measurements();
  const double second = cost.measure(q.stages[0]);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(cost.num_measurements(), measurements);  // cache hit
}

TEST(CostModel, DistinctStagesMeasuredSeparately) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  const Schedule q = sequential_schedule(g);
  cost.measure(q.stages[0]);
  cost.measure(q.stages[1]);
  EXPECT_EQ(cost.num_measurements(), 2);
}

TEST(CostModel, StrategyPartOfCacheKey) {
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 3, .kw = 3,
                                          .ph = 1, .pw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 3, .kw = 3,
                                          .ph = 1, .pw = 1});
  CostModel cost(g, v100_config());
  Stage concurrent{StageStrategy::kConcurrent, {Group{{a}}, Group{{b}}}};
  Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  cost.measure(concurrent);
  cost.measure(merged);
  EXPECT_EQ(cost.num_measurements(), 2);
}

TEST(CostModel, ProfilingCostAccumulatesPerProtocol) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config(), /*warmup=*/2, /*repeats=*/5);
  const Schedule q = sequential_schedule(g);
  const double latency = cost.measure(q.stages[0]);
  EXPECT_DOUBLE_EQ(cost.profiling_cost_us(), latency * 7);
}

TEST(CostModel, ResetCounters) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  cost.measure(sequential_schedule(g).stages[0]);
  cost.reset_counters();
  EXPECT_EQ(cost.num_measurements(), 0);
  EXPECT_DOUBLE_EQ(cost.profiling_cost_us(), 0);
}

TEST(CostModel, GenerateStagePicksCheaperStrategy) {
  // Two mergeable convolutions whose consumers are a concat: merging elides
  // the splits and saves a kernel launch, so merge must win at batch 1.
  Graph g(1);
  const OpId in = g.input(16, 14, 14);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 16, .kh = 1, .kw = 1},
                          "a");
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 16, .kh = 3, .kw = 3,
                                          .ph = 1, .pw = 1},
                          "b");
  const OpId ins[] = {a, b};
  g.concat(ins);
  CostModel cost(g, v100_config());
  const OpId ops[] = {a, b};
  const StageChoice choice = cost.generate_stage(ops);
  EXPECT_EQ(choice.strategy, StageStrategy::kMerge);
  EXPECT_GT(choice.latency_us, 0);
}

TEST(CostModel, SingleShardBehavesLikeDefault) {
  // Shard count is a pure contention knob: values and counters must not
  // depend on it.
  const Graph g = models::squeezenet(1);
  CostModel one(g, v100_config(), ProfilingProtocol{}, /*cache_shards=*/1);
  CostModel many(g, v100_config(), ProfilingProtocol{}, /*cache_shards=*/64);
  EXPECT_EQ(one.num_cache_shards(), 1);
  EXPECT_EQ(many.num_cache_shards(), 64);
  const Schedule q = sequential_schedule(g);
  for (const Stage& s : q.stages) {
    EXPECT_DOUBLE_EQ(one.measure(s), many.measure(s));
  }
  EXPECT_EQ(one.num_measurements(), many.num_measurements());
  EXPECT_DOUBLE_EQ(one.profiling_cost_us(), many.profiling_cost_us());
}

TEST(CostModel, ConcurrentMeasurementsCountDistinctStagesOnce) {
  // Many threads hammering the same stages: the striped cache must keep the
  // distinct-measurement counter exact.
  const Graph g = models::squeezenet(1);
  CostModel cost(g, v100_config());
  const Schedule q = sequential_schedule(g);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        for (const Stage& s : q.stages) cost.measure(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CostModel fresh(g, v100_config());
  for (const Stage& s : q.stages) fresh.measure(s);
  EXPECT_EQ(cost.num_measurements(), fresh.num_measurements());
  EXPECT_NEAR(cost.profiling_cost_us(), fresh.profiling_cost_us(),
              1e-9 * fresh.profiling_cost_us());
}

TEST(CostModel, ConcurrentCanonicalTwinsCountOneMeasurementAndOneHit) {
  // Two identical branches: stages over either one have different op ids
  // (two fingerprints) but the same kernel streams (one canonical key).
  // Measured by two threads at once, the stage whose canonical put loses
  // reused the winner's latency, as it would one after the other: one
  // measurement and one canonical hit, whichever thread wins.
  Graph g(1);
  const OpId in = g.input(32, 14, 14);
  g.begin_block();
  std::vector<OpId> branch[2];
  for (std::vector<OpId>& ops : branch) {
    OpId x = in;
    for (int i = 0; i < 8; ++i) {
      x = g.conv2d(x, Conv2dAttrs{.out_channels = 32, .kh = 3, .kw = 3,
                                  .ph = 1, .pw = 1});
      ops.push_back(x);
    }
  }
  const Stage twins[2] = {
      Stage{StageStrategy::kConcurrent, {Group{branch[0]}}},
      Stage{StageStrategy::kConcurrent, {Group{branch[1]}}}};
  int bad_rounds = 0;
  for (int round = 0; round < 400; ++round) {
    CanonicalStageCache canonical;
    CostModel cost(g, v100_config());
    cost.enable_canonical_reuse(&canonical);
    // Both threads spin until both are running, then measure at once.
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (const Stage& stage : twins) {
      threads.emplace_back([&cost, &ready, &stage] {
        ready.fetch_add(1);
        while (ready.load() < 2) std::this_thread::yield();
        cost.measure(stage);
      });
    }
    for (std::thread& t : threads) t.join();
    if (cost.num_measurements() != 1 || cost.canonical_hits() != 1) {
      ++bad_rounds;
    }
  }
  EXPECT_EQ(bad_rounds, 0);
}

TEST(CostModel, StageFingerprintIsTheCacheKey) {
  // The canonical fingerprint distinguishes strategy and group structure —
  // the properties the cache and the profile database rely on.
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const Stage two_groups{StageStrategy::kConcurrent,
                         {Group{{a}}, Group{{b}}}};
  const Stage one_group{StageStrategy::kConcurrent, {Group{{a, b}}}};
  const Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  EXPECT_NE(stage_fingerprint(two_groups), stage_fingerprint(one_group));
  EXPECT_NE(stage_fingerprint(one_group), stage_fingerprint(merged));
  EXPECT_EQ(stage_fingerprint(merged), stage_fingerprint(merged));
}

TEST(CostModel, GenerateStageFallsBackToConcurrent) {
  // SepConv units cannot merge.
  Graph g(1);
  const OpId in = g.input(16, 14, 14);
  g.begin_block();
  const OpId a = g.sepconv(in, SepConvAttrs{.out_channels = 16});
  const OpId b = g.sepconv(in, SepConvAttrs{.out_channels = 16});
  CostModel cost(g, v100_config());
  const OpId ops[] = {a, b};
  EXPECT_EQ(cost.generate_stage(ops).strategy, StageStrategy::kConcurrent);
}

TEST(Executor, SequentialLatencyIsSumOfStages) {
  const Graph g = models::fig5_graph(1);
  Executor ex(g, v100_config());
  const Schedule q = sequential_schedule(g);
  double sum = 0;
  for (const Stage& s : q.stages) sum += ex.stage_latency_us(s);
  EXPECT_DOUBLE_EQ(ex.schedule_latency_us(q), sum);
}

TEST(Executor, MultiStreamStagePaysSync) {
  Graph g(1);
  const OpId in = g.input(4, 4, 4);
  g.begin_block();
  const OpId a = g.identity(in, "a");
  const OpId b = g.identity(in, "b");
  Executor ex(g, v100_config());
  Stage two{StageStrategy::kConcurrent, {Group{{a}}, Group{{b}}}};
  Stage one{StageStrategy::kConcurrent, {Group{{a, b}}}};
  const DeviceSpec dev = tesla_v100();
  // Identity kernels are near-free: the two-stream stage is dominated by
  // launch + sync overhead; the single-stream stage only by launches.
  EXPECT_NEAR(ex.stage_latency_us(two),
              dev.kernel_launch_us + dev.stage_sync_us + dev.stream_sync_us,
              1.0);
  EXPECT_NEAR(ex.stage_latency_us(one), 2 * dev.kernel_launch_us, 1.0);
}

TEST(Executor, MergeStageRequiresMergeableOps) {
  Graph g(1);
  const OpId in = g.input(4, 4, 4);
  g.begin_block();
  const OpId a = g.sepconv(in, SepConvAttrs{.out_channels = 4});
  const OpId b = g.sepconv(in, SepConvAttrs{.out_channels = 4});
  Executor ex(g, v100_config());
  Stage bad{StageStrategy::kMerge, {Group{{a, b}}}};
  EXPECT_THROW(ex.stage_latency_us(bad), std::runtime_error);
}

TEST(Executor, RunScheduleTraceSpansAllStages) {
  const Graph g = models::fig2_graph(1);
  Executor ex(g, v100_config());
  const Schedule q = greedy_schedule(g);
  const SimResult r = ex.run_schedule(q);
  EXPECT_NEAR(r.makespan_us, ex.schedule_latency_us(q), 1e-6);
  EXPECT_EQ(r.timeline.size(), static_cast<std::size_t>(q.num_ops()));
  EXPECT_FALSE(r.warp_trace.empty());
}

TEST(Executor, SplitElisionForConcatConsumers) {
  // Merged convs feeding only a concat produce no split kernels.
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId ins[] = {a, b};
  g.concat(ins);
  Executor ex(g, v100_config());
  Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  const auto streams = ex.stage_streams(merged);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 1u);  // only the merged conv, no splits
}

TEST(Executor, SplitMaterializedForNonConcatConsumers) {
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  g.conv2d(a, Conv2dAttrs{.out_channels = 4, .kh = 1, .kw = 1});  // conv eats a
  const OpId ins[] = {a, b};
  g.concat(ins);
  Executor ex(g, v100_config());
  Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  const auto streams = ex.stage_streams(merged);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 2u);  // merged conv + split for a only
}

}  // namespace
}  // namespace ios
