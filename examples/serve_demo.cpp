// Serving demo: the optimizer meets traffic. Generates a two-model Poisson
// request trace, replays it through ios::serve::Server — dynamic batcher,
// recipe store, four simulated executor workers — and shows how the
// same workload behaves with batching disabled.
//
//   $ ./serve_demo

#include <cstdio>

#include "serve/server.hpp"

int main() {
  using namespace ios::serve;

  // 1. A synthetic workload: 120 single-sample requests, Poisson arrivals
  // at ~5000 req/s offered, mixing two zoo models. Seeded — the trace and
  // every latency below are bit-reproducible.
  TraceSpec spec;
  spec.models = {"squeezenet", "fig3"};
  spec.num_requests = 120;
  spec.mean_interarrival_us = 200;
  spec.seed = 42;
  const Trace trace = generate_trace(spec);
  std::printf("trace: %d requests over %.1f ms\n", spec.num_requests,
              trace.duration_us() / 1000);

  // 2. A server: 4 workers, batches of up to 8, queues flushed after 2 ms.
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 4;
  options.batching.batch_sizes = {1, 2, 4, 8};
  options.batching.max_queue_delay_us = 2000;
  Server server(options);

  // Optional: optimize every (model, batch size) pair up front on all host
  // threads. Misses would otherwise be resolved lazily during run().
  server.prewarm(spec.models, /*threads=*/0);
  std::printf("prewarmed %zu recipes into the recipe store\n\n",
              server.cache().size());

  // 3. Replay the trace on the simulated clock.
  const ServingResult batched = server.run(trace);
  const ServingStats& s = batched.stats;
  std::printf("dynamic batching, 4 workers:\n");
  std::printf("  %.1f req/s | latency mean %.0f us, p50 %.0f, p99 %.0f | "
              "%lld batches, mean size %.2f\n",
              s.throughput_rps, s.mean_latency_us, s.p50_latency_us,
              s.p99_latency_us, static_cast<long long>(s.batches),
              s.mean_batch_size);

  // A few per-request records: arrival -> batch -> worker -> completion.
  std::printf("  first requests:\n");
  for (int i = 0; i < 5; ++i) {
    const RequestRecord& r = batched.records[static_cast<std::size_t>(i)];
    std::printf("    #%-3d %-10s arrived %7.1f us, rode batch %d "
                "(size %d) on worker %d, done %7.1f us (latency %.1f us)\n",
                r.index, r.model.c_str(), r.arrival_us, r.batch_id,
                r.batch_size, r.worker, r.completion_us, r.latency_us);
  }

  // 4. Same trace, batching disabled: every request is its own batch.
  ServerOptions unbatched = options;
  unbatched.batching.batch_sizes = {1};
  Server naive(unbatched);
  const ServingStats u = naive.run(trace).stats;
  std::printf("\nno batching, 4 workers:\n");
  std::printf("  %.1f req/s | latency mean %.0f us, p50 %.0f, p99 %.0f\n",
              u.throughput_rps, u.mean_latency_us, u.p50_latency_us,
              u.p99_latency_us);

  // 5. The recipe store made every configuration a one-time search.
  const ServerStats totals = server.stats();
  std::printf("\nbatched server counters: %lld requests in %lld batches, "
              "cache %lld hits / %lld misses, %lld optimizer runs\n",
              static_cast<long long>(totals.requests),
              static_cast<long long>(totals.batches),
              static_cast<long long>(totals.cache.hits),
              static_cast<long long>(totals.cache.misses),
              static_cast<long long>(totals.optimizations));
  return 0;
}
