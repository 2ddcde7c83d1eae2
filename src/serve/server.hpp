#pragma once
// ios::serve::Server — the deterministic, simulated-clock front end over
// the clock-agnostic ServingEngine (serve/engine.hpp). The engine makes
// every batching, schedule-resolution, routing, and recovery decision; the
// Server is the repo's one discrete-event loop. It owns a VirtualClock and
// advances it through the event kinds of a served trace:
//
//   * request arrival    -> clock to the arrival time, engine.submit()
//                           (greedy full-batch formation)
//   * batching deadline  -> clock to engine.next_deadline_us(),
//                           engine.poll() (deadline flush)
//   * worker kill        -> (only with a FailureInjector) clock to the kill
//                           time, engine.kill_worker() (steal + requeue)
//
// with deadlines strictly before an arrival processed first and arrivals
// winning ties — the exact (time, seq) order of the event heap the DES used
// before the engine was extracted, pinned bit-for-bit by the equivalence
// suite in tests/engine_test.cpp — and kills last. The fleet simulator
// replays its failure schedules through this loop. The network daemon
// (net/daemon.hpp) drives the same engine with a WallClock, which is what
// makes this Server the deterministic test harness for the production
// data path.
//
// Everything the server reports — per-request latency, batch timelines,
// throughput and tail percentiles — is derived from the virtual clock, so a
// fixed trace and configuration always produce bit-identical results,
// independent of host thread scheduling. Optimization happens off the
// simulated clock (it is the paper's offline cost) but is fully accounted
// in the server counters.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/adaptive.hpp"
#include "serve/engine.hpp"
#include "serve/failure.hpp"

namespace ios::serve {

/// Lifetime counters of a Server, across every run() and prewarm() call.
struct ServerStats {
  std::int64_t requests = 0;       ///< total requests served
  std::int64_t batches = 0;        ///< total batches executed
  std::int64_t optimizations = 0;  ///< recipe-cache misses -> Optimizer runs
  std::int64_t measurements = 0;   ///< cost-model profiles those runs took
  RecipeCacheStats cache;          ///< live sharded-cache counters
};

/// The simulated-clock serving front end: a DES adapter replaying request
/// traces through the shared ServingEngine (see the file comment for the
/// event model).
class Server {
 public:
  /// Builds a server whose engine owns a recipe store sized by
  /// `options.cache` — or shares `cache` when non-null, so several servers,
  /// e.g. one per worker-count in a sweep, reuse each other's optimized
  /// schedules.
  explicit Server(ServerOptions options,
                  std::shared_ptr<ShardedRecipeCache> cache = nullptr);

  /// Replays the trace on the virtual clock and returns per-request
  /// records plus aggregate statistics. Deterministic: the same trace and
  /// options always yield identical results. Requests must arrive in
  /// non-decreasing time order (throws std::invalid_argument otherwise);
  /// unknown model or device names throw from the underlying registries.
  /// With `kills`, its schedule fires as worker deaths listed in
  /// ServingResult::kills; a kill that would take the last alive worker or
  /// land past the end of the run (nothing left to arrive, queue, or
  /// execute) stays pending and never fires.
  ServingResult run(const Trace& trace, FailureInjector* kills = nullptr);

  /// Optimizes every (model, configured batch size, worker device class)
  /// triple into the recipe cache up front, fanning the misses out over
  /// `threads` host threads (<= 0 = one per hardware thread). Serving then
  /// only misses on batch sizes outside the configured list (a deadline
  /// flush of a queue shorter than the smallest configured size serves the
  /// queue whole); those are resolved lazily. The cached results are
  /// identical to lazy misses — prewarming changes wall-clock cost, never
  /// simulated latencies.
  void prewarm(const std::vector<std::string>& models, int threads = 1);

  /// Lifetime counters: requests/batches served, Optimizer invocations, and
  /// the sharded cache's hit/miss/eviction counters.
  ServerStats stats() const;

  /// The recipe store this server resolves schedules through.
  ShardedRecipeCache& cache() { return engine_.cache(); }

  /// The normalized options (batch sizes deduplicated/sorted, worker count
  /// clamped) the server actually runs with.
  const ServerOptions& options() const { return engine_.options(); }

  /// The underlying clock-agnostic engine (shared with the daemon design;
  /// exposed for the DES/engine equivalence tests).
  ServingEngine& engine() { return engine_; }

  /// The adaptive controller, or nullptr when options.adaptive.enabled is
  /// false. Lifetime counters (AdaptiveController::stats) span runs; the
  /// per-run re-plan numbers land in ServingStats::replans*.
  const AdaptiveController* adaptive() const { return adaptive_.get(); }

 private:
  VirtualClock clock_;
  ServingEngine engine_;
  std::unique_ptr<AdaptiveController> adaptive_;

  mutable std::mutex stats_mu_;
  std::int64_t total_requests_ = 0;
  std::int64_t total_batches_ = 0;
};

}  // namespace ios::serve
