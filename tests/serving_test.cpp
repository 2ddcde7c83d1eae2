#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace ios {
namespace {

using namespace ios::serve;

// All tests use the cheap didactic zoo graphs (fig3/fig5) so cache misses
// cost a tiny DP search, not a full CNN profile.

Trace burst_trace(const std::string& model, int n, double at_us = 0) {
  Trace t;
  for (int i = 0; i < n; ++i) t.requests.push_back({at_us, model});
  return t;
}

ServerOptions small_options() {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {1, 2, 4, 8};
  options.batching.max_queue_delay_us = 1000;
  return options;
}

// ---- trace generation ----------------------------------------------------

TEST(Trace, GenerationIsDeterministicAndSorted) {
  TraceSpec spec;
  spec.models = {"fig3", "fig5"};
  spec.num_requests = 200;
  spec.mean_interarrival_us = 100;
  spec.seed = 9;

  const Trace a = generate_trace(spec);
  const Trace b = generate_trace(spec);
  ASSERT_EQ(a.requests.size(), 200u);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].arrival_us, b.requests[i].arrival_us);
    EXPECT_EQ(a.requests[i].model, b.requests[i].model);
    if (i > 0) {
      EXPECT_GE(a.requests[i].arrival_us, a.requests[i - 1].arrival_us);
    }
  }

  spec.seed = 10;
  const Trace c = generate_trace(spec);
  EXPECT_NE(a.requests.back().arrival_us, c.requests.back().arrival_us);

  // Mean inter-arrival gap should be in the right ballpark (exponential
  // with mean 100, 200 samples).
  const double mean_gap = a.duration_us() / 200.0;
  EXPECT_GT(mean_gap, 50);
  EXPECT_LT(mean_gap, 200);
}

TEST(Trace, GenerationRejectsBadSpecs) {
  TraceSpec spec;
  spec.models = {};
  EXPECT_THROW(generate_trace(spec), std::invalid_argument);
  spec.models = {"fig3"};
  spec.num_requests = 0;
  EXPECT_THROW(generate_trace(spec), std::invalid_argument);
  spec.num_requests = 1;
  spec.mean_interarrival_us = 0;
  EXPECT_THROW(generate_trace(spec), std::invalid_argument);
}

// ---- dynamic batcher -----------------------------------------------------

TEST(Server, FullBatchFormsImmediately) {
  Server server(small_options());
  const ServingResult result = server.run(burst_trace("fig3", 8));

  ASSERT_EQ(result.batches.size(), 1u);
  EXPECT_EQ(result.batches[0].size, 8);
  EXPECT_DOUBLE_EQ(result.batches[0].formed_us, 0);
  EXPECT_DOUBLE_EQ(result.batches[0].start_us, 0);
  for (const RequestRecord& r : result.records) {
    EXPECT_EQ(r.batch_id, 0);
    EXPECT_EQ(r.batch_size, 8);
    EXPECT_DOUBLE_EQ(r.latency_us, result.batches[0].service_us);
  }
}

TEST(Server, LoneRequestFlushesAfterDeadline) {
  Server server(small_options());  // max_queue_delay_us = 1000
  const ServingResult result = server.run(burst_trace("fig3", 1, 500));

  ASSERT_EQ(result.batches.size(), 1u);
  EXPECT_EQ(result.batches[0].size, 1);
  EXPECT_DOUBLE_EQ(result.batches[0].formed_us, 1500);  // arrival + delay
  EXPECT_DOUBLE_EQ(result.records[0].dispatch_us, 1500);
  EXPECT_DOUBLE_EQ(result.records[0].latency_us,
                   1000 + result.batches[0].service_us);
}

TEST(Server, DeadlineFlushPicksLargestFittingBatchSizes) {
  // 3 queued requests with allowed sizes {1,2,4,8}: the flush coalesces
  // them into a batch of 2 then a batch of 1.
  Server server(small_options());
  const ServingResult result = server.run(burst_trace("fig3", 3));

  ASSERT_EQ(result.batches.size(), 2u);
  EXPECT_EQ(result.batches[0].size, 2);
  EXPECT_EQ(result.batches[1].size, 1);
  EXPECT_DOUBLE_EQ(result.batches[0].formed_us, 1000);
  EXPECT_DOUBLE_EQ(result.batches[1].formed_us, 1000);
  // One worker: the second batch starts when the first completes.
  EXPECT_DOUBLE_EQ(result.batches[1].start_us,
                   result.batches[0].completion_us);
}

TEST(Server, QueueShorterThanSmallestAllowedSizeIsFlushedWhole) {
  ServerOptions options = small_options();
  options.batching.batch_sizes = {4, 8};
  Server server(options);
  const ServingResult result = server.run(burst_trace("fig3", 3));

  ASSERT_EQ(result.batches.size(), 1u);
  EXPECT_EQ(result.batches[0].size, 3);
  EXPECT_DOUBLE_EQ(result.batches[0].formed_us, 1000);
}

TEST(Server, BurstLargerThanMaxBatchSplitsGreedilyThenFlushes) {
  // 11 simultaneous requests with allowed sizes {1,2,4,8}: a full batch of
  // 8 forms at arrival; the 3 leftovers wait out the deadline and flush as
  // 2 + 1.
  Server server(small_options());
  const ServingResult result = server.run(burst_trace("fig3", 11));

  ASSERT_EQ(result.batches.size(), 3u);
  EXPECT_EQ(result.batches[0].size, 8);
  EXPECT_DOUBLE_EQ(result.batches[0].formed_us, 0);
  EXPECT_EQ(result.batches[1].size, 2);
  EXPECT_EQ(result.batches[2].size, 1);
  EXPECT_DOUBLE_EQ(result.batches[1].formed_us, 1000);
  EXPECT_DOUBLE_EQ(result.batches[2].formed_us, 1000);
  // Members ride in arrival order: the batch of 8 carries requests 0..7.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(result.records[i].batch_id, 0);
}

TEST(Server, PerModelQueuesBatchIndependently) {
  ServerOptions options = small_options();
  options.num_workers = 2;
  Server server(options);

  Trace trace;
  for (int i = 0; i < 8; ++i) trace.requests.push_back({0, "fig3"});
  for (int i = 0; i < 8; ++i) trace.requests.push_back({0, "fig5"});
  const ServingResult result = server.run(trace);

  ASSERT_EQ(result.batches.size(), 2u);
  EXPECT_EQ(result.batches[0].model, "fig3");
  EXPECT_EQ(result.batches[1].model, "fig5");
  EXPECT_EQ(result.batches[0].size, 8);
  EXPECT_EQ(result.batches[1].size, 8);
  // Two workers: both batches start at t=0 on different workers.
  EXPECT_NE(result.batches[0].worker, result.batches[1].worker);
  EXPECT_DOUBLE_EQ(result.batches[1].start_us, 0);
}

// ---- executor workers ----------------------------------------------------

TEST(Server, ThroughputScalesMonotonicallyWithWorkers) {
  // 64 simultaneous requests -> 8 batches of 8; more workers can only
  // shrink the makespan (FIFO list scheduling), so simulated throughput is
  // monotone in the worker count. This is the acceptance criterion of the
  // serving bench, pinned as a unit test on a cheap model.
  auto cache = std::make_shared<ShardedRecipeCache>(RecipeCacheOptions{});
  const Trace trace = burst_trace("fig3", 64);
  double prev = 0;
  for (int workers : {1, 2, 4}) {
    ServerOptions options = small_options();
    options.num_workers = workers;
    Server server(options, cache);
    const ServingStats stats = server.run(trace).stats;
    EXPECT_EQ(stats.requests, 64);
    EXPECT_EQ(stats.batches, 8);
    EXPECT_GT(stats.throughput_rps, prev);
    prev = stats.throughput_rps;
  }
}

TEST(Server, DynamicBatchingBeatsNoBatchingUnderLoad) {
  auto cache = std::make_shared<ShardedRecipeCache>(RecipeCacheOptions{});
  const Trace trace = burst_trace("fig3", 64);

  ServerOptions batched = small_options();
  ServerOptions unbatched = small_options();
  unbatched.batching.batch_sizes = {1};

  const ServingStats b = Server(batched, cache).run(trace).stats;
  const ServingStats u = Server(unbatched, cache).run(trace).stats;
  EXPECT_GT(b.mean_batch_size, 1.0);
  EXPECT_DOUBLE_EQ(u.mean_batch_size, 1.0);
  // Batch-8 execution is sublinear in batch size on the simulator, so
  // coalescing strictly raises throughput at equal worker count.
  EXPECT_GT(b.throughput_rps, u.throughput_rps);
}

// ---- determinism ---------------------------------------------------------

TEST(Server, ServedLatenciesAreDeterministicForFixedTraceAndSeed) {
  TraceSpec spec;
  spec.models = {"fig3", "fig5"};
  spec.num_requests = 120;
  spec.mean_interarrival_us = 150;
  spec.seed = 4;
  const Trace trace = generate_trace(spec);

  ServerOptions options = small_options();
  options.num_workers = 3;

  // Fresh server each time; the second one prewarms first — optimization
  // happens off the simulated clock, so results must be identical.
  Server lazy(options);
  const ServingResult a = lazy.run(trace);
  Server warmed(options);
  warmed.prewarm(spec.models, /*threads=*/2);
  const ServingResult b = warmed.run(trace);

  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].latency_us, b.records[i].latency_us);
    EXPECT_DOUBLE_EQ(a.records[i].dispatch_us, b.records[i].dispatch_us);
    EXPECT_EQ(a.records[i].batch_id, b.records[i].batch_id);
    EXPECT_EQ(a.records[i].batch_size, b.records[i].batch_size);
    EXPECT_EQ(a.records[i].worker, b.records[i].worker);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  EXPECT_DOUBLE_EQ(a.stats.throughput_rps, b.stats.throughput_rps);
  EXPECT_DOUBLE_EQ(a.stats.p99_latency_us, b.stats.p99_latency_us);
  EXPECT_DOUBLE_EQ(a.stats.makespan_us, b.stats.makespan_us);
}

// ---- stats and counters --------------------------------------------------

TEST(Server, StatsExposeCacheHitMissCounters) {
  Server server(small_options());
  const ServingResult result = server.run(burst_trace("fig3", 64));

  // 8 batches of 8, one distinct configuration: 1 miss, 7 hits.
  EXPECT_EQ(result.stats.cache_misses, 1);
  EXPECT_EQ(result.stats.cache_hits, 7);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 64);
  EXPECT_EQ(stats.batches, 8);
  EXPECT_EQ(stats.optimizations, 1);
  EXPECT_GT(stats.measurements, 0);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.cache.hits, 7);
  EXPECT_EQ(stats.cache.size, 1u);

  // A second run over the same trace is all hits, and counters accumulate.
  server.run(burst_trace("fig3", 64));
  const ServerStats again = server.stats();
  EXPECT_EQ(again.requests, 128);
  EXPECT_EQ(again.optimizations, 1);
  EXPECT_EQ(again.cache.hits, 15);
}

TEST(Server, TinyCacheEvictsAndReoptimizes) {
  ServerOptions options = small_options();
  options.batching.batch_sizes = {1};
  options.cache.capacity = 1;
  Server server(options);

  Trace trace;
  trace.requests.push_back({0, "fig3"});
  trace.requests.push_back({0, "fig5"});
  trace.requests.push_back({0, "fig3"});
  server.run(trace);

  const ServerStats stats = server.stats();
  // fig3 was evicted by fig5 and had to be optimized again.
  EXPECT_EQ(stats.optimizations, 3);
  EXPECT_EQ(stats.cache.misses, 3);
  EXPECT_GE(stats.cache.evictions, 2);
  EXPECT_EQ(stats.cache.size, 1u);
}

TEST(Server, AggregateStatsAreConsistent) {
  ServerOptions options = small_options();
  options.num_workers = 2;
  Server server(options);
  TraceSpec spec;
  spec.models = {"fig3"};
  spec.num_requests = 50;
  spec.mean_interarrival_us = 300;
  const ServingResult result = server.run(generate_trace(spec));
  const ServingStats& s = result.stats;

  EXPECT_EQ(s.requests, 50);
  EXPECT_EQ(static_cast<std::size_t>(s.batches), result.batches.size());
  EXPECT_DOUBLE_EQ(s.mean_batch_size,
                   50.0 / static_cast<double>(s.batches));
  EXPECT_LE(s.p50_latency_us, s.p95_latency_us);
  EXPECT_LE(s.p95_latency_us, s.p99_latency_us);
  EXPECT_LE(s.p99_latency_us, s.max_latency_us);
  EXPECT_GT(s.throughput_rps, 0);
  EXPECT_GT(s.worker_utilization, 0);
  EXPECT_LE(s.worker_utilization, 1.0);
  for (const RequestRecord& r : result.records) {
    EXPECT_GE(r.dispatch_us, r.arrival_us);
    EXPECT_GT(r.completion_us, r.dispatch_us);
    EXPECT_LE(r.completion_us, s.makespan_us + 1e-9);
  }
}

TEST(Server, EmptyTraceYieldsEmptyResult) {
  Server server(small_options());
  const ServingResult result = server.run(Trace{});
  EXPECT_TRUE(result.records.empty());
  EXPECT_TRUE(result.batches.empty());
  EXPECT_EQ(result.stats.requests, 0);
  EXPECT_DOUBLE_EQ(result.stats.throughput_rps, 0);
}

// ---- validation ----------------------------------------------------------

TEST(Server, RejectsBadConfigurationsAndTraces) {
  ServerOptions no_sizes = small_options();
  no_sizes.batching.batch_sizes = {};
  EXPECT_THROW(Server{no_sizes}, std::invalid_argument);

  ServerOptions bad_size = small_options();
  bad_size.batching.batch_sizes = {0};
  EXPECT_THROW(Server{bad_size}, std::invalid_argument);

  ServerOptions bad_delay = small_options();
  bad_delay.batching.max_queue_delay_us = -1;
  EXPECT_THROW(Server{bad_delay}, std::invalid_argument);
  // A NaN or infinite delay never falls due: partial queues would never
  // flush.
  bad_delay.batching.max_queue_delay_us =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Server{bad_delay}, std::invalid_argument);
  bad_delay.batching.max_queue_delay_us =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(Server{bad_delay}, std::invalid_argument);

  ServerOptions bad_device = small_options();
  bad_device.device = "no_such_device";
  EXPECT_THROW(Server{bad_device}, std::invalid_argument);

  Server server(small_options());
  Trace unsorted;
  unsorted.requests.push_back({100, "fig3"});
  unsorted.requests.push_back({50, "fig3"});
  EXPECT_THROW(server.run(unsorted), std::invalid_argument);

  // Unknown models surface the registry's enumerating error lazily.
  EXPECT_THROW(server.run(burst_trace("no_such_model", 1)),
               std::invalid_argument);
}

TEST(Server, NormalizesOptions) {
  ServerOptions options = small_options();
  options.batching.batch_sizes = {8, 1, 4, 4, 2};
  options.num_workers = 0;
  options.device = "v100";
  Server server(options);
  const std::vector<int> expect = {1, 2, 4, 8};
  EXPECT_EQ(server.options().batching.batch_sizes, expect);
  EXPECT_EQ(server.options().num_workers, 1);
  EXPECT_EQ(server.options().device, "Tesla V100");
}

// The Server assembles its lookup keys from precomputed parts; they must
// stay byte-identical to the public serving_cache_key scheme.
TEST(Server, ProfileDbWarmStartsColdServers) {
  const std::string path = ::testing::TempDir() + "/server_profile_db.json";
  std::remove(path.c_str());

  ServerOptions options;
  options.batching.batch_sizes = {1, 2};
  options.profile_db = path;

  // First life: populates the database while optimizing its recipes, with
  // the misses (and their profile-db merges) racing on four threads.
  Server first(options);
  first.prewarm({"fig3", "fig5"}, /*threads=*/4);
  EXPECT_GT(first.stats().measurements, 0);

  // Second life (fresh server, fresh Optimizer, empty recipe cache): every
  // stage latency is served from the database — zero redundant simulations.
  Server second(options);
  second.prewarm({"fig3", "fig5"}, /*threads=*/4);
  EXPECT_GT(second.stats().optimizations, 0);  // searches re-ran...
  EXPECT_EQ(second.stats().measurements, 0);   // ...but simulated nothing

  // Served latencies are identical either way.
  const Trace trace = burst_trace("fig3", 4);
  EXPECT_EQ(first.run(trace).stats.mean_latency_us,
            second.run(trace).stats.mean_latency_us);
  std::remove(path.c_str());
}

// ---- heterogeneous device pools ------------------------------------------

TEST(PoolServer, TypesWorkersByDeviceClassAndRecordsDevices) {
  ServerOptions options = small_options();
  options.pool = pool_from_spec("v100x2,k80");
  Server server(options);
  EXPECT_EQ(server.options().num_workers, 3);

  const ServingResult result = server.run(burst_trace("fig3", 24));
  ASSERT_FALSE(result.batches.empty());
  for (const BatchRecord& batch : result.batches) {
    EXPECT_TRUE(batch.device == "Tesla V100" || batch.device == "Tesla K80")
        << batch.device;
    // Worker indices 0-1 are the V100s, 2 the K80 (pool declaration order).
    EXPECT_EQ(batch.device,
              batch.worker < 2 ? "Tesla V100" : "Tesla K80");
  }
  for (const RequestRecord& record : result.records) {
    EXPECT_EQ(record.device,
              result.batches[static_cast<std::size_t>(record.batch_id)].device);
  }
  ASSERT_EQ(result.device_loads.size(), 2u);
  EXPECT_EQ(result.device_loads[0].device, "Tesla V100");
  EXPECT_EQ(result.device_loads[0].devices, 2);
  EXPECT_EQ(result.device_loads[1].device, "Tesla K80");
  EXPECT_EQ(result.device_loads[1].devices, 1);
  EXPECT_EQ(result.device_loads[0].batches + result.device_loads[1].batches,
            static_cast<std::int64_t>(result.batches.size()));
}

TEST(PoolServer, SingleClassPoolMatchesHomogeneousServerExactly) {
  // A pool of N identical devices must be byte-for-byte the old homogeneous
  // N-worker server: same routing decisions, same simulated clock.
  TraceSpec spec;
  spec.models = {"fig3", "fig5"};
  spec.num_requests = 120;
  spec.mean_interarrival_us = 40;
  spec.seed = 3;
  const Trace trace = generate_trace(spec);

  ServerOptions homogeneous = small_options();
  homogeneous.num_workers = 2;
  Server a(homogeneous);
  const ServingResult ra = a.run(trace);

  ServerOptions pooled = small_options();
  pooled.pool = pool_from_spec("v100x2");
  Server b(pooled);
  const ServingResult rb = b.run(trace);

  EXPECT_EQ(rb.stats.throughput_rps, ra.stats.throughput_rps);
  EXPECT_EQ(rb.stats.batches, ra.stats.batches);
  ASSERT_EQ(rb.records.size(), ra.records.size());
  for (std::size_t i = 0; i < ra.records.size(); ++i) {
    EXPECT_EQ(rb.records[i].latency_us, ra.records[i].latency_us) << i;
    EXPECT_EQ(rb.records[i].worker, ra.records[i].worker) << i;
  }
}

TEST(PoolServer, RoutingPrefersTheFasterClassUnderLoad) {
  // fig3 is much faster on a V100 than on a K80; under a backlogged burst
  // the V100 must execute at least as many batches, with the K80 only
  // absorbing genuine overflow.
  ServerOptions options = small_options();
  options.pool = pool_from_spec("v100,k80");
  Server server(options);
  const ServingResult result = server.run(burst_trace("fig3", 64));

  ASSERT_EQ(result.device_loads.size(), 2u);
  const DeviceLoad& v100 = result.device_loads[0];
  const DeviceLoad& k80 = result.device_loads[1];
  EXPECT_EQ(v100.device, "Tesla V100");
  EXPECT_GE(v100.batches, k80.batches);
  EXPECT_GT(v100.batches, 0);

  // Per-class busy time reconciles with the batch records.
  double v100_service = 0, k80_service = 0;
  for (const BatchRecord& batch : result.batches) {
    (batch.device == "Tesla V100" ? v100_service : k80_service) +=
        batch.service_us;
  }
  EXPECT_DOUBLE_EQ(v100.busy_us, v100_service);
  EXPECT_DOUBLE_EQ(k80.busy_us, k80_service);
}

TEST(PoolServer, PrewarmFillsEveryClassAndServesWithoutMisses) {
  ServerOptions options = small_options();
  options.pool = pool_from_spec("v100,k80");
  Server server(options);
  server.prewarm({"fig3"}, /*threads=*/2);
  // One recipe per (model, batch size, device class).
  EXPECT_EQ(server.cache().size(),
            options.batching.batch_sizes.size() * 2);

  const ServingResult result = server.run(burst_trace("fig3", 16));
  EXPECT_EQ(result.stats.cache_misses, 0);
  EXPECT_GT(result.stats.cache_hits, 0);
}

TEST(PoolServer, RejectsUnknownPoolDevices) {
  ServerOptions options = small_options();
  DeviceSpec bogus = tesla_v100();
  bogus.name = "Not A GPU";
  options.pool.classes.push_back(DeviceClass{bogus, 1});
  try {
    Server server(options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known devices"), std::string::npos)
        << e.what();
  }
}

TEST(PoolServer, HomogeneousDeviceLoadsMatchAggregateStats) {
  ServerOptions options = small_options();
  options.num_workers = 2;
  Server server(options);
  const ServingResult result = server.run(burst_trace("fig3", 24));
  ASSERT_EQ(result.device_loads.size(), 1u);
  const DeviceLoad& load = result.device_loads[0];
  EXPECT_EQ(load.device, "Tesla V100");
  EXPECT_EQ(load.devices, 2);
  EXPECT_EQ(load.batches, result.stats.batches);
  EXPECT_DOUBLE_EQ(load.utilization, result.stats.worker_utilization);
}

TEST(ServingCacheKey, ServerLookupsMatchThePublicKeyScheme) {
  ServerOptions options = small_options();
  Server server(options);
  server.prewarm({"fig3"});
  for (int batch : server.options().batching.batch_sizes) {
    EXPECT_TRUE(server.cache().contains(serving_cache_key(
        "fig3", "Tesla V100", batch, options.scheduler, options.protocol)))
        << "batch " << batch;
  }
  EXPECT_FALSE(server.cache().contains(serving_cache_key(
      "fig5", "Tesla V100", 1, options.scheduler, options.protocol)));
}

TEST(ServingCacheKey, DistinguishesEveryDimension) {
  const SchedulerOptions options;
  const ProfilingProtocol protocol;
  const std::string base =
      serving_cache_key("fig3", "Tesla V100", 4, options, protocol);
  EXPECT_NE(base, serving_cache_key("fig5", "Tesla V100", 4, options,
                                    protocol));
  EXPECT_NE(base, serving_cache_key("fig3", "Tesla K80", 4, options,
                                    protocol));
  EXPECT_NE(base, serving_cache_key("fig3", "Tesla V100", 8, options,
                                    protocol));
  SchedulerOptions merged = options;
  merged.variant = IosVariant::kMerge;
  EXPECT_NE(base, serving_cache_key("fig3", "Tesla V100", 4, merged,
                                    protocol));
  ProfilingProtocol noisy = protocol;
  noisy.noise_frac = 0.05;
  EXPECT_NE(base, serving_cache_key("fig3", "Tesla V100", 4, options, noisy));
  // num_threads must NOT change the key (the schedule is thread-invariant).
  SchedulerOptions threaded = options;
  threaded.num_threads = 8;
  EXPECT_EQ(base, serving_cache_key("fig3", "Tesla V100", 4, threaded,
                                    protocol));
}

}  // namespace
}  // namespace ios
