// Serving benchmark: replays a saturating Poisson request trace through
// ios::serve::Server and sweeps worker count x batching policy, writing the
// simulated throughput/latency grid as machine-readable JSON for the perf
// trajectory. Like bench_optimizer this is a plain main() with no
// google-benchmark dependency, so CI can always run it.
//
//   $ ./bench_serving [out.json] [num_requests] [models_csv]
//     out.json      default BENCH_serving.json
//     num_requests  default 400 (CI smoke runs fewer)
//     models_csv    default "squeezenet,inception_v3"
//
// All servers share one recipe store, so each (model, batch size)
// configuration is optimized exactly once across the whole sweep; the
// simulated serving numbers are unaffected (optimization is off the
// simulated clock).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/names.hpp"

int main(int argc, char** argv) {
  using namespace ios;
  using namespace ios::serve;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const int num_requests = argc > 2 ? std::atoi(argv[2]) : 400;
  const std::vector<std::string> models =
      split_csv(argc > 3 ? argv[3] : "squeezenet,inception_v3");

  // A deliberately saturating trace (mean gap 50 us = 20k req/s offered):
  // throughput is then bounded by the workers, which is what the sweep
  // measures.
  TraceSpec spec;
  spec.models = models;
  spec.num_requests = num_requests;
  spec.mean_interarrival_us = 50;
  spec.seed = 7;
  const Trace trace = generate_trace(spec);

  struct Policy {
    const char* name;
    BatchingPolicy batching;
  };
  const std::vector<Policy> policies = {
      {"dynamic", BatchingPolicy{{1, 2, 4, 8}, 2000}},
      {"none", BatchingPolicy{{1}, 0}},
  };
  const std::vector<int> worker_counts = {1, 2, 4};

  auto cache = std::make_shared<ShardedRecipeCache>(RecipeCacheOptions{});
  JsonValue results = JsonValue::array();
  JsonValue monotone_by_policy = JsonValue::object();
  bool all_monotone = true;
  const auto bench_begin = std::chrono::steady_clock::now();

  for (const Policy& policy : policies) {
    double prev_throughput = 0;
    bool monotone = true;
    for (int workers : worker_counts) {
      ServerOptions options;
      options.device = "v100";
      options.num_workers = workers;
      options.batching = policy.batching;
      Server server(options, cache);
      server.prewarm(models, /*threads=*/0);
      const ServingResult run = server.run(trace);
      const ServingStats& s = run.stats;

      monotone = monotone && s.throughput_rps >= prev_throughput;
      prev_throughput = s.throughput_rps;
      std::printf("%-8s workers=%d  %9.1f req/s | mean %8.1f us, p50 %8.1f, "
                  "p99 %9.1f | %lld batches (mean %.2f) | util %.0f%%\n",
                  policy.name, workers, s.throughput_rps, s.mean_latency_us,
                  s.p50_latency_us, s.p99_latency_us,
                  static_cast<long long>(s.batches), s.mean_batch_size,
                  100 * s.worker_utilization);

      JsonValue entry = JsonValue::object();
      entry.set("policy", policy.name);
      entry.set("workers", workers);
      entry.set("throughput_rps", s.throughput_rps);
      entry.set("makespan_us", s.makespan_us);
      entry.set("mean_latency_us", s.mean_latency_us);
      entry.set("p50_latency_us", s.p50_latency_us);
      entry.set("p95_latency_us", s.p95_latency_us);
      entry.set("p99_latency_us", s.p99_latency_us);
      entry.set("mean_batch_size", s.mean_batch_size);
      entry.set("worker_utilization", s.worker_utilization);
      entry.set("batches", s.batches);
      entry.set("cache_hits", s.cache_hits);
      entry.set("cache_misses", s.cache_misses);
      results.push_back(std::move(entry));
    }
    std::printf("%-8s throughput monotone over workers: %s\n", policy.name,
                monotone ? "yes" : "NO");
    monotone_by_policy.set(policy.name, monotone);
    all_monotone = all_monotone && monotone;
  }

  const double bench_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - bench_begin)
          .count();
  const RecipeCacheStats cache_stats = cache->stats();

  JsonValue models_json = JsonValue::array();
  for (const std::string& m : models) models_json.push_back(m);
  JsonValue root = JsonValue::object();
  root.set("bench", "serving");
  root.set("unit", "req/s (simulated)");
  root.set("device", "v100");
  root.set("requests", num_requests);
  root.set("offered_rps", 1e6 / spec.mean_interarrival_us);
  root.set("trace_seed", static_cast<std::int64_t>(spec.seed));
  root.set("models", std::move(models_json));
  root.set("results", std::move(results));
  root.set("throughput_monotone", std::move(monotone_by_policy));
  root.set("cache_hits", cache_stats.hits);
  root.set("cache_misses", cache_stats.misses);
  root.set("wall_ms", bench_wall_ms);
  write_file(out_path, root.dump());
  std::printf("wrote %s (%.0f ms wall)\n", out_path.c_str(), bench_wall_ms);
  if (!all_monotone) {
    std::fprintf(stderr, "FAIL: throughput did not grow monotonically with "
                         "worker count (acceptance criterion)\n");
    return 1;
  }
  return 0;
}
