#include "fleet/sim.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/stats.hpp"

namespace ios::fleet {

namespace {

serve::ServerOptions engine_options(const FleetSimOptions& options) {
  serve::ServerOptions server;
  server.pool = options.topology.pool;
  server.batching = options.batching;
  server.scheduler = options.scheduler;
  server.protocol = options.protocol;
  server.cache = options.cache;
  server.profile_db = options.profile_db;
  return server;
}

}  // namespace

FleetSimulator::FleetSimulator(FleetSimOptions options)
    : options_(std::move(options)),
      server_(engine_options(options_)),
      planner_(server_.engine().optimizer()),
      placer_(server_.engine().optimizer()) {
  if (options_.topology.devices.empty()) {
    throw std::invalid_argument("fleet sim: the topology has no devices");
  }
}

const FleetPlan& FleetSimulator::plan() {
  if (!plan_) {
    if (options_.workload.empty()) {
      throw std::invalid_argument("fleet sim: no workload to plan");
    }
    FleetPlanRequest request;
    request.topology = options_.topology;
    request.workload = options_.workload;
    request.options = options_.scheduler;
    request.protocol = options_.protocol;
    request.profile_db = options_.profile_db;
    request.allow_splits = false;
    request.replicas = options_.replicas;
    plan_ = planner_.plan(request);
  }
  return *plan_;
}

FleetSimResult FleetSimulator::run(const serve::Trace& trace) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t n = trace.requests.size();
  if (options_.prewarm && n > 0) {
    std::vector<std::string> models;
    for (const serve::TraceRequest& r : trace.requests) {
      if (std::find(models.begin(), models.end(), r.model) == models.end()) {
        models.push_back(r.model);
      }
    }
    server_.prewarm(models, options_.prewarm_threads);
  }
  FailureInjector injector(options_.failures);
  const serve::ServingResult served = server_.run(trace, &injector);

  FleetStats stats;
  stats.requests = static_cast<std::int64_t>(n);
  stats.batches = served.stats.batches;
  stats.failures = static_cast<std::int64_t>(served.kills.size());
  // Replay the kills over per-class alive counts: a wiped-out class changes
  // what the fleet can serve — re-plan the workload over the survivors.
  // Warm Optimizer => pure cache hits.
  std::vector<int> alive = server_.engine().class_counts();
  std::vector<int> requeue_event(n, -1);  // the kill that last requeued it
  for (std::size_t k = 0; k < served.kills.size(); ++k) {
    const serve::KillRecord& kill = served.kills[k];
    stats.killed_batches +=
        static_cast<std::int64_t>(kill.stolen_batches.size());
    stats.rerouted_requests += static_cast<std::int64_t>(kill.requeued.size());
    for (const std::int64_t id : kill.requeued) {
      requeue_event[static_cast<std::size_t>(id)] = static_cast<int>(k);
    }
    const auto cls = static_cast<std::size_t>(
        server_.engine().worker_class()[static_cast<std::size_t>(kill.worker)]);
    if (--alive[cls] > 0) continue;
    ++stats.replans;
    if (options_.workload.empty()) continue;
    PlacementRequest replan;
    const std::vector<DeviceClass>& classes = options_.topology.pool.classes;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (alive[c] > 0) {
        replan.pool.classes.push_back(DeviceClass{classes[c].spec, alive[c]});
      }
    }
    replan.workload = options_.workload;
    replan.options = options_.scheduler;
    replan.protocol = options_.protocol;
    replan.profile_db = options_.profile_db;
    replan.allow_splits = false;
    const PlacementResult result = placer_.place(replan);
    stats.replan_optimizations += result.optimizations;
    stats.replan_cache_hits += result.cache_hits;
  }

  // ---- summarize (virtual-clock quantities only) ----
  FleetSimResult result;
  result.latencies.reserve(n);
  std::vector<double> sorted;
  sorted.reserve(n);
  std::vector<double> recovery(served.kills.size(), -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const serve::RequestRecord& r = served.records[i];
    if (r.batch_size == 0) {  // never served
      ++stats.lost_requests;
      result.latencies.push_back(-1.0);
      continue;
    }
    // Latency from the ORIGINAL arrival (the record's is the last requeue).
    const double latency = r.completion_us - trace.requests[i].arrival_us;
    result.latencies.push_back(latency);
    sorted.push_back(latency);
    stats.makespan_us = std::max(stats.makespan_us, r.completion_us);
    if (requeue_event[i] >= 0) {  // recovery: its kill's last completion
      const auto k = static_cast<std::size_t>(requeue_event[i]);
      recovery[k] =
          std::max(recovery[k], r.completion_us - served.kills[k].time_us);
    }
  }
  if (!sorted.empty()) {
    std::sort(sorted.begin(), sorted.end());
    stats.mean_latency_us = mean(sorted);
    stats.p50_latency_us = percentile_sorted(sorted, 50);
    stats.p95_latency_us = percentile_sorted(sorted, 95);
    stats.p99_latency_us = percentile_sorted(sorted, 99);
    stats.max_latency_us = sorted.back();
  }
  std::vector<double> recoveries;  // over kills that requeued anything
  for (const double last : recovery) {
    if (last >= 0) recoveries.push_back(last);
  }
  if (!recoveries.empty()) {
    stats.mean_recovery_us = mean(recoveries);
    stats.max_recovery_us = max_of(recoveries);
  }

  result.stats = stats;
  result.run_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  return result;
}

JsonValue fleet_stats_to_json(const FleetStats& stats) {
  JsonValue v = JsonValue::object();
  v.set("requests", stats.requests);
  v.set("batches", stats.batches);
  v.set("failures", stats.failures);
  v.set("killed_batches", stats.killed_batches);
  v.set("rerouted_requests", stats.rerouted_requests);
  v.set("replans", stats.replans);
  v.set("replan_optimizations", stats.replan_optimizations);
  v.set("replan_cache_hits", stats.replan_cache_hits);
  v.set("lost_requests", stats.lost_requests);
  v.set("makespan_us", stats.makespan_us);
  v.set("mean_latency_us", stats.mean_latency_us);
  v.set("p50_latency_us", stats.p50_latency_us);
  v.set("p95_latency_us", stats.p95_latency_us);
  v.set("p99_latency_us", stats.p99_latency_us);
  v.set("max_latency_us", stats.max_latency_us);
  v.set("mean_recovery_us", stats.mean_recovery_us);
  v.set("max_recovery_us", stats.max_recovery_us);
  return v;
}

}  // namespace ios::fleet
