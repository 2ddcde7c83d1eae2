// Micro-benchmarks of the infrastructure itself: simulator event-loop
// throughput, ending enumeration, width computation, a full network
// scheduling pass, and the cost of one cost-model miss. These guard the
// optimization cost claims (Figure 9's wall-clock column) against
// regressions.

#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "core/analysis.hpp"

namespace {

using namespace ios;

void BM_EngineSingleStream(benchmark::State& state) {
  Engine engine(tesla_v100());
  KernelStream stream;
  for (int i = 0; i < 32; ++i) {
    KernelDesc k;
    k.flops = 1e8 + i * 1e6;
    k.bytes = 1e6;
    k.warps = 500;
    k.efficiency = 0.8;
    stream.push_back(k);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run({stream}).makespan_us);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_EngineSingleStream);

void BM_EngineEightStreams(benchmark::State& state) {
  Engine engine(tesla_v100());
  std::vector<KernelStream> streams(8);
  for (auto& s : streams) {
    for (int i = 0; i < 4; ++i) {
      KernelDesc k;
      k.flops = 2e8;
      k.bytes = 2e6;
      k.warps = 400;
      k.efficiency = 0.8;
      s.push_back(k);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(streams).makespan_us);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_EngineEightStreams);

void BM_EndingEnumerationInceptionE(benchmark::State& state) {
  const Graph g = models::inception_v3(1);
  const BlockDag dag(g, g.blocks()[10]);
  for (auto _ : state) {
    std::int64_t count = 0;
    dag.for_each_ending(dag.all(), 64, [&](Set64) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EndingEnumerationInceptionE);

void BM_WidthNasnetCell(benchmark::State& state) {
  const Graph g = models::nasnet_a(1);
  const auto block = largest_block_complexity(g);
  const auto blocks = g.blocks();
  const BlockDag dag(g, blocks[static_cast<std::size_t>(block.block_index)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.width());
  }
}
BENCHMARK(BM_WidthNasnetCell);

void BM_ScheduleInceptionV3(benchmark::State& state) {
  const Graph g = models::inception_v3(1);
  for (auto _ : state) {
    const Schedule q = bench::ios_schedule(g, tesla_v100());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ScheduleInceptionV3)->Unit(benchmark::kMillisecond);

void BM_StageLatencyMeasurement(benchmark::State& state) {
  const Graph g = models::inception_v3(1);
  Executor ex(g, bench::config_for(tesla_v100()));
  const Schedule q = greedy_schedule(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.schedule_latency_us(q));
  }
}
BENCHMARK(BM_StageLatencyMeasurement);

// One cost-model miss without the cache around it: Executor::stage_latency_us
// on a fixed multi-group RandWire stage (the greedy schedule's widest).
void BM_StageLatencyRandWireMiss(benchmark::State& state) {
  const Graph g = models::randwire(1);
  const Executor ex(g, bench::config_for(tesla_v100()));
  const Schedule greedy = greedy_schedule(g);
  const Stage* stage = &greedy.stages.front();
  for (const Stage& s : greedy.stages) {
    if (s.groups.size() > stage->groups.size()) stage = &s;
  }
  state.counters["groups"] = static_cast<double>(stage->groups.size());
  state.counters["ops"] = stage->num_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.stage_latency_us(*stage));
  }
}
BENCHMARK(BM_StageLatencyRandWireMiss);

}  // namespace

BENCHMARK_MAIN();
