#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>

#include "graph/graph.hpp"
#include "models/models.hpp"
#include "runtime/executor.hpp"
#include "schedule/baselines.hpp"
#include "sim/device.hpp"
#include "sim/engine.hpp"
#include "sim/kernel_model.hpp"
#include "util/rng.hpp"

// Heap-allocation counter for the allocation-free tests below: replacement
// global operator new / new[] that count calls made on this thread while
// `count_allocations` is set. Both forms are replaced because a sanitizer
// runtime may supply its own new[] that bypasses operator new. noinline
// keeps GCC from inlining free() into new-expression call sites and then
// reporting a new/free mismatch.
namespace {
thread_local bool count_allocations = false;
thread_local long allocations = 0;

void* counted_malloc(std::size_t size) {
  if (count_allocations) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  return counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ios {
namespace {

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
long allocations_during(Fn&& fn) {
  allocations = 0;
  count_allocations = true;
  fn();
  count_allocations = false;
  return allocations;
}

KernelDesc kernel(double flops, double bytes, double warps,
                  double efficiency = 1.0) {
  KernelDesc k;
  k.name = "k";
  k.flops = flops;
  k.bytes = bytes;
  k.warps = warps;
  k.efficiency = efficiency;
  return k;
}

class EngineTest : public ::testing::Test {
 protected:
  Engine engine_{tesla_v100()};
};

TEST_F(EngineTest, EmptyStreamsFinishInstantly) {
  const SimResult r = engine_.run({});
  EXPECT_EQ(r.makespan_us, 0);
  EXPECT_TRUE(r.timeline.empty());
}

TEST_F(EngineTest, SingleKernelIncludesLaunchOverhead) {
  const double lat = engine_.kernel_latency_us(kernel(1e6, 1e4, 100));
  EXPECT_GT(lat, engine_.device().kernel_launch_us);
}

TEST_F(EngineTest, LatencyMonotonicInWork) {
  const double small = engine_.kernel_latency_us(kernel(1e8, 1e5, 1000));
  const double large = engine_.kernel_latency_us(kernel(4e8, 1e5, 1000));
  EXPECT_GT(large, small);
  EXPECT_LT(large, 4 * small);  // launch overhead amortizes
}

TEST_F(EngineTest, MoreWarpsRaiseUtilization) {
  // Same work exposed with more parallelism must not be slower.
  const double narrow = engine_.kernel_latency_us(kernel(1e9, 1e5, 200));
  const double wide = engine_.kernel_latency_us(kernel(1e9, 1e5, 4000));
  EXPECT_LT(wide, narrow);
}

TEST_F(EngineTest, MemoryBoundKernelLimitedByBandwidth) {
  // Zero-FLOP kernel moving 90 MB at ~900 GB/s takes >= 100 us.
  const double lat = engine_.kernel_latency_us(kernel(0, 90e6, 6000));
  EXPECT_GT(lat, 100.0);
}

TEST_F(EngineTest, ConcurrencyHelpsSmallKernels) {
  // Two small kernels: sequential executes them back-to-back; two streams
  // overlap them and raise device utilization.
  const KernelDesc k = kernel(2e8, 1e5, 400, 0.8);
  const double seq = engine_.run({{k, k}}).makespan_us;
  const double par = engine_.run({{k}, {k}}).makespan_us;
  EXPECT_LT(par, seq * 0.85);
}

TEST_F(EngineTest, SaturatedKernelsGainLittleFromConcurrency) {
  // Two kernels that each saturate the device: overlapping them cannot beat
  // back-to-back execution by much (and contention may make it worse).
  const double slots = tesla_v100().total_warp_slots();
  const KernelDesc k = kernel(4e9, 4e8, slots, 0.8);
  const double seq = engine_.run({{k, k}}).makespan_us;
  const double par = engine_.run({{k}, {k}}).makespan_us;
  EXPECT_GT(par, seq * 0.9);
}

TEST_F(EngineTest, ContentionHurtsMemoryBoundConcurrency) {
  // Memory-bound kernels at full occupancy interfere (Section 7.2): running
  // them concurrently is slower than sequentially.
  const double slots = tesla_v100().total_warp_slots();
  const KernelDesc k = kernel(0, 2e8, slots);
  const double seq = engine_.run({{k, k}}).makespan_us;
  const double par = engine_.run({{k}, {k}}).makespan_us;
  EXPECT_GT(par, seq);
}

TEST_F(EngineTest, Deterministic) {
  const KernelDesc a = kernel(1e8, 1e6, 500);
  const KernelDesc b = kernel(3e8, 2e6, 900, 0.7);
  const SimResult r1 = engine_.run({{a, b}, {b}});
  const SimResult r2 = engine_.run({{a, b}, {b}});
  EXPECT_EQ(r1.makespan_us, r2.makespan_us);
  ASSERT_EQ(r1.timeline.size(), r2.timeline.size());
}

TEST_F(EngineTest, TimelineCoversAllKernels) {
  const KernelDesc a = kernel(1e8, 1e6, 500);
  const SimResult r = engine_.run({{a, a}, {a}});
  EXPECT_EQ(r.timeline.size(), 3u);
  for (const KernelTiming& t : r.timeline) {
    EXPECT_GE(t.start_us, 0);
    EXPECT_GT(t.end_us, t.start_us);
    EXPECT_LE(t.end_us, r.makespan_us + 1e-6);
  }
}

TEST_F(EngineTest, WarpTraceIntegralPositive) {
  const KernelDesc a = kernel(1e9, 1e6, 2000);
  const SimResult r = engine_.run({{a}, {a}});
  EXPECT_GT(r.warp_time_integral(), 0);
  EXPECT_GT(r.mean_active_warps(), 0);
  EXPECT_LE(r.mean_active_warps(),
            static_cast<double>(tesla_v100().total_warp_slots()));
}

TEST_F(EngineTest, ConcurrentRunHasMoreActiveWarps) {
  const KernelDesc a = kernel(5e8, 1e6, 800, 0.8);
  const SimResult seq = engine_.run({{a, a, a}});
  const SimResult par = engine_.run({{a}, {a}, {a}});
  EXPECT_GT(par.mean_active_warps(), seq.mean_active_warps());
}

TEST_F(EngineTest, ZeroWorkKernelCompletes) {
  const SimResult r = engine_.run({{kernel(0, 0, 1)}});
  EXPECT_EQ(r.timeline.size(), 1u);
  EXPECT_NEAR(r.makespan_us, engine_.device().kernel_launch_us, 1e-6);
}

// The makespan-only entry runs the same event loop as run() without the
// trace, so it must agree with run().makespan_us bit for bit, through the
// span overload and through the gather form over a kernel table. The sets
// include empty streams, zero-work kernels, single streams and more streams
// than the inline capacity.
TEST(EngineMakespan, MatchesTracedRunBitForBit) {
  Rng rng(14);
  int empty_streams = 0, zero_work = 0, single = 0, beyond_inline = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Engine engine(trial % 2 == 0 ? tesla_v100() : tesla_k80());
    int num_streams = 1 + rng.uniform_int(8);
    if (trial % 25 == 0) {
      num_streams = Engine::kInlineStreams + 1 + rng.uniform_int(16);
    } else if (trial % 40 == 1) {
      num_streams = 0;
    }
    std::vector<KernelStream> streams(static_cast<std::size_t>(num_streams));
    for (KernelStream& stream : streams) {
      const int len = rng.uniform_int(6);
      if (len == 0) ++empty_streams;
      for (int i = 0; i < len; ++i) {
        KernelDesc k;
        if (rng.bernoulli(0.1)) {
          ++zero_work;  // bookkeeping kernel: no flops, no bytes
        } else {
          if (rng.bernoulli(0.8)) {
            k.flops = std::pow(10.0, 5 + 5 * rng.uniform());
          }
          k.bytes = std::pow(10.0, 3 + 6 * rng.uniform());
        }
        // Fractional, like real kernels': sums of warps then round, so the
        // order the loop keeps active kernels in shows in the result.
        k.warps = 1 + 8000 * rng.uniform();
        k.efficiency = 0.1 + 0.9 * rng.uniform();
        stream.push_back(k);
      }
    }
    if (num_streams == 1) ++single;
    if (num_streams > Engine::kInlineStreams) ++beyond_inline;

    // The same streams as index lists into one flattened kernel table.
    std::vector<KernelDesc> table;
    std::vector<std::vector<int>> index(streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
      for (const KernelDesc& k : streams[s]) {
        index[s].push_back(static_cast<int>(table.size()));
        table.push_back(k);
      }
    }

    const double traced = engine.run(streams).makespan_us;
    EXPECT_EQ(engine.makespan_us(streams), traced) << "trial " << trial;
    EXPECT_EQ(engine.makespan_us(num_streams,
                                 [&](int s) {
                                   const auto& ids =
                                       index[static_cast<std::size_t>(s)];
                                   return StreamView{
                                       table.data(), ids.data(),
                                       static_cast<int>(ids.size())};
                                 }),
              traced)
        << "trial " << trial;
  }
  EXPECT_GT(empty_streams, 0);
  EXPECT_GT(zero_work, 0);
  EXPECT_GT(single, 0);
  EXPECT_GT(beyond_inline, 0);
}

// Executor::stage_latency_us reads the kernel table through the
// makespan-only entry; per stage it must equal the traced simulation of
// stage_streams() plus the closing synchronization.
TEST(ExecutorStageLatency, MatchesTracedStreams) {
  for (const char* model : {"squeezenet", "inception_v3", "nasnet",
                            "randwire"}) {
    const Graph g = models::build_model(model, 1);
    for (const DeviceSpec& device : {tesla_v100(), tesla_k80()}) {
      const Executor executor(g, ExecConfig{device, KernelModelParams{}});
      const Engine engine(device);
      for (const Schedule& q : {greedy_schedule(g), sequential_schedule(g)}) {
        for (const Stage& stage : q.stages) {
          const auto streams = executor.stage_streams(stage);
          double traced = engine.run(streams).makespan_us;
          if (streams.size() > 1) {
            traced += device.stage_sync_us +
                      device.stream_sync_us *
                          static_cast<double>(streams.size() - 1);
          }
          EXPECT_EQ(executor.stage_latency_us(stage), traced)
              << model << " on " << device.name;
        }
      }
    }
  }
}

/// A concurrent stage of `n` independent convolutions on one input: `n`
/// groups of one op each.
Stage independent_convs(Graph& g, int n) {
  const OpId in = g.input(32, 14, 14);
  Stage stage;
  for (int i = 0; i < n; ++i) {
    stage.groups.push_back(Group{{g.conv2d(
        in, Conv2dAttrs{.out_channels = 16 + i, .kh = 3, .kw = 3, .ph = 1,
                        .pw = 1})}});
  }
  return stage;
}

// The profiling path makes no heap allocation for a concurrent stage of at
// most 64 ops (a block's limit): the kernels come from the executor's table
// and the engine's per-call state lives on the stack.
TEST(ExecutorStageLatency, ConcurrentStageMakesNoHeapAllocation) {
  Graph wide(1);
  const Stage widest = independent_convs(wide, Engine::kInlineStreams);
  const Executor wide_exec(wide, ExecConfig{tesla_v100(), {}});
  double latency = 0;
  EXPECT_EQ(allocations_during(
                [&] { latency = wide_exec.stage_latency_us(widest); }),
            0);
  EXPECT_GT(latency, 0);

  // A multi-group RandWire stage: the largest stage of its greedy schedule.
  const Graph g = models::build_model("randwire", 1);
  const Executor executor(g, ExecConfig{tesla_v100(), {}});
  const Schedule greedy = greedy_schedule(g);
  const Stage* largest = &greedy.stages.front();
  for (const Stage& stage : greedy.stages) {
    if (stage.groups.size() > largest->groups.size()) largest = &stage;
  }
  ASSERT_GT(largest->groups.size(), 1u);
  ASSERT_LE(largest->num_ops(), 64);
  EXPECT_EQ(allocations_during(
                [&] { latency = executor.stage_latency_us(*largest); }),
            0);
  EXPECT_GT(latency, 0);

  // Long groups: every op of the largest RandWire block in one stage.
  std::vector<OpId> block;
  for (const std::vector<OpId>& b : g.blocks()) {
    if (b.size() > block.size()) block = b;
  }
  Stage whole;
  whole.groups = partition_groups(g, block);
  ASSERT_LE(whole.num_ops(), 64);
  EXPECT_EQ(allocations_during(
                [&] { latency = executor.stage_latency_us(whole); }),
            0);
  EXPECT_GT(latency, 0);
}

// Beyond the inline capacity the engine falls back to the heap; this also
// shows that the counter above sees the allocations it is meant to catch.
TEST(ExecutorStageLatency, WiderStageFallsBackToTheHeap) {
  Graph g(1);
  const Stage stage = independent_convs(g, Engine::kInlineStreams + 1);
  const Executor executor(g, ExecConfig{tesla_v100(), {}});
  double latency = 0;
  EXPECT_GT(allocations_during(
                [&] { latency = executor.stage_latency_us(stage); }),
            0);
  // Same result as the traced path.
  const Engine engine(tesla_v100());
  const auto streams = executor.stage_streams(stage);
  EXPECT_EQ(latency, engine.run(streams).makespan_us +
                         tesla_v100().stage_sync_us +
                         tesla_v100().stream_sync_us *
                             static_cast<double>(streams.size() - 1));
}

TEST(DeviceSpec, Presets) {
  for (const DeviceSpec& d :
       {tesla_v100(), tesla_k80(), rtx_2080ti(), gtx_1080(), tesla_p100(),
        gtx_1080ti()}) {
    EXPECT_GT(d.num_sms, 0) << d.name;
    EXPECT_GT(d.peak_tflops, 0) << d.name;
    EXPECT_GT(d.dram_gbps, 0) << d.name;
    EXPECT_GT(d.total_warp_slots(), 0) << d.name;
  }
  EXPECT_GT(tesla_v100().peak_tflops, tesla_k80().peak_tflops);
}

TEST(DeviceSpec, LookupByName) {
  EXPECT_EQ(device_by_name("v100").name, "Tesla V100");
  EXPECT_EQ(device_by_name("k80").name, "Tesla K80");
  EXPECT_EQ(device_by_name("2080ti").name, "RTX 2080Ti");
  EXPECT_EQ(device_by_name("p100").name, "Tesla P100");
  EXPECT_EQ(device_by_name("1080ti").name, "GTX 1080Ti");
  EXPECT_THROW(device_by_name("tpu"), std::invalid_argument);
}

TEST(DeviceSpec, ShortNameRoundTrips) {
  for (const std::string& short_name : device_names()) {
    EXPECT_EQ(device_short_name(short_name), short_name);
    EXPECT_EQ(device_short_name(device_by_name(short_name).name), short_name);
  }
  EXPECT_THROW(device_short_name("tpu"), std::invalid_argument);
}

TEST(DeviceSpec, PascalPairIsAGenuineTradeoff) {
  // The pool-placement story rests on neither Pascal card dominating the
  // other: the P100 leads on DRAM bandwidth, the 1080Ti on FP32 peak.
  const DeviceSpec p100 = tesla_p100();
  const DeviceSpec ti = gtx_1080ti();
  EXPECT_GT(p100.dram_gbps, ti.dram_gbps);
  EXPECT_GT(ti.peak_tflops, p100.peak_tflops);

  // And the simulator must reflect it: a memory-bound kernel runs faster on
  // the P100, a compute-bound one faster on the 1080Ti.
  const KernelDesc memory_bound = kernel(1e6, 5e7, 4000, 0.8);
  EXPECT_LT(Engine(p100).kernel_latency_us(memory_bound),
            Engine(ti).kernel_latency_us(memory_bound));
  const KernelDesc compute_bound = kernel(2e10, 1e6, 4000, 0.8);
  EXPECT_GT(Engine(p100).kernel_latency_us(compute_bound),
            Engine(ti).kernel_latency_us(compute_bound));
}

TEST(DeviceSpec, FasterDeviceRunsKernelFaster) {
  const KernelDesc k = kernel(5e9, 1e7, 4000, 0.8);
  const double v100 = Engine(tesla_v100()).kernel_latency_us(k);
  const double k80 = Engine(tesla_k80()).kernel_latency_us(k);
  EXPECT_LT(v100, k80);
}

TEST(KernelModel, ConvKernelFields) {
  Graph g(1);
  const OpId in = g.input(16, 8, 8);
  const OpId c = g.conv2d(in, Conv2dAttrs{.out_channels = 32, .kh = 3, .kw = 3,
                                          .ph = 1, .pw = 1});
  const KernelDesc k = kernel_for_op(g, c);
  EXPECT_EQ(k.op, c);
  EXPECT_DOUBLE_EQ(k.flops, static_cast<double>(g.flops(c)));
  EXPECT_DOUBLE_EQ(
      k.bytes, static_cast<double>(g.input_bytes(c) + g.weight_bytes(c) +
                                   g.output_bytes(c)));
  EXPECT_GT(k.warps, 0);
  EXPECT_DOUBLE_EQ(k.efficiency, KernelModelParams{}.conv_efficiency);
}

TEST(KernelModel, BatchScalesWarps) {
  Graph g1(1), g8(8);
  const OpId i1 = g1.input(16, 8, 8);
  const OpId c1 = g1.conv2d(i1, Conv2dAttrs{.out_channels = 32, .kh = 1, .kw = 1});
  const OpId i8 = g8.input(16, 8, 8);
  const OpId c8 = g8.conv2d(i8, Conv2dAttrs{.out_channels = 32, .kh = 1, .kw = 1});
  EXPECT_DOUBLE_EQ(kernel_for_op(g8, c8).warps,
                   8 * kernel_for_op(g1, c1).warps);
}

TEST(KernelModel, EfficiencyByKind) {
  Graph g(1);
  const OpId in = g.input(16, 8, 8);
  const OpId s = g.sepconv(in, SepConvAttrs{.out_channels = 16});
  const OpId p = g.pool2d(s, Pool2dAttrs{Pool2dAttrs::Kind::kMax, 2, 2, 2, 2, 0, 0});
  const KernelModelParams params;
  EXPECT_DOUBLE_EQ(kernel_for_op(g, s).efficiency, params.sepconv_efficiency);
  EXPECT_DOUBLE_EQ(kernel_for_op(g, p).efficiency, params.pool_efficiency);
}

}  // namespace
}  // namespace ios
