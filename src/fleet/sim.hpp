#pragma once
// ios::fleet::FleetSimulator — failure-injected fleet serving on the
// virtual clock. The fleet's devices are the workers of one DES Server
// (serve/server.hpp); run() replays a trace through Server::run with the
// FleetSimOptions::failures schedule as its kill source, so the recovery is
// the ServingEngine's own:
//
//   * a kill marks the worker dead, steals every batch still executing or
//     queued on it, and requeues their members (original ids, original
//     models) at the kill time for the engine to re-route to survivors;
//   * the last alive worker is never killed, so every admitted request
//     completes: FleetStats::lost_requests == 0 is the recovery invariant
//     the fleet bench gates on.
//
// The simulator adds what only a fleet has: a kill that wipes out the last
// worker of a device class triggers a re-plan of the workload over the
// surviving pool — cheap, because plan(), run() and the re-plans all search
// through the serving engine's Optimizer, whose recipe store already holds
// every configuration (FleetStats::replan_optimizations stays 0 after a
// warm plan()) — and the FleetStats summary of the run.
//
// Everything runs on the VirtualClock, so a fixed topology, trace, and
// failure spec produce bit-identical FleetStats and per-request latencies
// regardless of host threads or wall time.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/failure.hpp"
#include "fleet/planner.hpp"
#include "fleet/topology.hpp"
#include "serve/server.hpp"

namespace ios::fleet {

/// Everything a fleet simulation needs: the fleet, the serving
/// configuration (mirroring serve::ServerOptions), the workload to plan,
/// and the failure model.
struct FleetSimOptions {
  FleetTopology topology;
  serve::BatchingPolicy batching{};
  SchedulerOptions scheduler{};
  ProfilingProtocol protocol{};
  serve::RecipeCacheOptions cache{};
  /// Persistable profiling database forwarded to every Optimizer run.
  std::string profile_db;
  /// Workload for plan() and for the re-plan after a class wipe-out. May be
  /// empty — the simulator then serves traces without a placement plan.
  std::vector<WorkloadItem> workload;
  /// Replicas per workload item for plan().
  int replicas = 2;
  /// The failure model driving worker kills during run().
  FailureSpec failures{};
  /// Prewarm the recipe cache for a trace's models before the replay
  /// (wall-clock cost only; simulated results are identical either way).
  bool prewarm = true;
  int prewarm_threads = 1;
};

/// Deterministic aggregates of one fleet run. Every field derives from the
/// virtual clock and the seeded failure schedule — no wall time — so two
/// runs of the same configuration compare bit-identical.
struct FleetStats {
  std::int64_t requests = 0;        ///< requests admitted (and completed)
  std::int64_t batches = 0;         ///< batches formed, killed ones included
  std::int64_t failures = 0;        ///< worker kills fired
  std::int64_t killed_batches = 0;  ///< batches a kill stole (run or queued)
  std::int64_t rerouted_requests = 0;  ///< request requeue events
  std::int64_t replans = 0;         ///< class wipe-outs -> workload re-plans
  std::int64_t replan_optimizations = 0;  ///< Optimizer runs those re-plans
                                          ///< missed (0 when warm)
  std::int64_t replan_cache_hits = 0;     ///< cached recipes they reused
  std::int64_t lost_requests = 0;   ///< admitted but never completed (== 0)
  double makespan_us = 0;           ///< completion time of the last batch
  double mean_latency_us = 0;       ///< completion - ORIGINAL arrival
  double p50_latency_us = 0;
  double p95_latency_us = 0;
  double p99_latency_us = 0;
  double max_latency_us = 0;
  /// Recovery latency of a kill: the last completion among the requests it
  /// requeued, minus the kill time. Mean/max over kills that requeued
  /// anything (0 when none did).
  double mean_recovery_us = 0;
  double max_recovery_us = 0;
};

/// One fleet run: per-request latencies (trace order; completion minus the
/// request's original arrival, requeues included) plus the stats.
struct FleetSimResult {
  std::vector<double> latencies;
  FleetStats stats;
  /// Host wall time of the run() call (measurement, NOT deterministic).
  double run_wall_ms = 0;
};

/// The failure-injected fleet front end over the DES Server (see the file
/// comment). Single-threaded like the Server: plan() and run() are
/// externally serialized.
class FleetSimulator {
 public:
  /// Throws std::invalid_argument on an empty topology.
  explicit FleetSimulator(FleetSimOptions options);

  /// The fleet plan for `options.workload`, computed on first use through
  /// the serving engine's Optimizer, so run()'s prewarm and recipe
  /// resolutions, and any re-plans, hit the recipes it searched. Throws
  /// std::invalid_argument when the workload is empty.
  const FleetPlan& plan();

  /// Replays the trace with the configured failure schedule and returns
  /// per-request latencies plus FleetStats. Deterministic: identical
  /// options and trace yield bit-identical latencies and stats. Callable
  /// repeatedly; each run resets the engine and replays the same failure
  /// spec from its seed.
  FleetSimResult run(const serve::Trace& trace);

  const FleetSimOptions& options() const { return options_; }
  serve::ServingEngine& engine() { return server_.engine(); }

 private:
  FleetSimOptions options_;
  /// Declared before the planners, which hold its engine's Optimizer.
  serve::Server server_;
  FleetPlanner planner_;
  Placer placer_;  ///< re-plans after a class wipe-out
  std::optional<FleetPlan> plan_;
};

/// Machine-readable form of a fleet run — what `ios_opt fleet --json` and
/// bench_fleet emit alongside the plan.
JsonValue fleet_stats_to_json(const FleetStats& stats);

}  // namespace ios::fleet
