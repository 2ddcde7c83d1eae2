#include "serve/server.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace ios::serve {

Server::Server(ServerOptions options)
    : Server(std::move(options), nullptr) {}

Server::Server(ServerOptions options, std::shared_ptr<ShardedRecipeCache> cache)
    : engine_(std::move(options), &clock_, std::move(cache)) {
  if (engine_.options().adaptive.enabled) {
    adaptive_ = std::make_unique<AdaptiveController>(
        engine_.options().adaptive, engine_);
  }
}

void Server::prewarm(const std::vector<std::string>& models, int threads) {
  engine_.prewarm(models, threads);
}

ServingResult Server::run(const Trace& trace, FailureInjector* kills) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (trace.requests.empty()) {
    return summarize({}, engine_, 0);
  }
  for (std::size_t i = 1; i < trace.requests.size(); ++i) {
    if (trace.requests[i].arrival_us < trace.requests[i - 1].arrival_us) {
      throw std::invalid_argument(
          "Server::run: trace arrivals must be non-decreasing");
    }
  }

  // Fresh simulation: the engine forgets queues and worker bookkeeping (but
  // keeps the recipe cache and lifetime counters), and time restarts at 0.
  engine_.reset();
  clock_.reset();
  AdaptiveStats adaptive_before;
  if (adaptive_) {
    adaptive_->reset_run();
    adaptive_before = adaptive_->stats();
  }

  std::vector<EngineBatch> batches;
  std::vector<KillRecord> kill_records;
  // (predicted completion, batch id) of formed batches not yet retired,
  // earliest first.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>, std::greater<>>
      running;
  const auto collect = [&](std::vector<EngineBatch> formed) {
    // Completed batches feed the controller's attainment signal; the
    // controller never feeds back into engine decisions, so the results
    // stay bit-identical with it on or off.
    if (adaptive_) {
      for (const EngineBatch& b : formed) {
        const double slo = engine_.slo_for(b.record.model).slo_us;
        for (const EngineRequest& m : b.members) {
          adaptive_->observe_outcome(
              b.record.model,
              b.record.completion_us - m.arrival_us <= slo);
        }
      }
    }
    for (EngineBatch& b : formed) {
      running.emplace(b.record.completion_us, b.record.id);
      batches.push_back(std::move(b));
    }
  };

  // The DES event loop. Deadlines strictly before the next arrival fire
  // first; an arrival coinciding with a deadline is admitted first (it may
  // complete a full batch the flush would otherwise split) — the (time,
  // seq) order of the pre-extraction event heap, where every arrival
  // outranked every later-armed flush event at equal times. Kills lose
  // every tie.
  // A deadline may lie in the past: growing a queue at an arrival enlarges
  // the deadline batch, whose larger service estimate pulls the SLO flush
  // time backwards — possibly behind the arrival that caused it. Such a
  // flush fires "now" (max with the current time), exactly as the
  // wall-clock daemon's already-expired wait_until does.
  const std::size_t n = trace.requests.size();
  std::size_t next = 0;
  for (;;) {
    // A kill at t can only steal batches still executing at t, so every
    // batch predicted to finish by the pending kill retires first (with no
    // kill pending, every batch retires as soon as it forms). The last
    // alive worker is never killed, and neither is a worker after the run
    // is over: nothing left to arrive, queue, or execute.
    double t_kill = kills ? kills->next_kill_us() : kInf;
    while (!running.empty() && running.top().first <= t_kill) {
      engine_.retire(running.top().second);
      running.pop();
    }
    if (t_kill < kInf &&
        (engine_.alive_workers() <= 1 ||
         (next >= n && engine_.queued() == 0 && engine_.outstanding() == 0))) {
      t_kill = kInf;
    }
    const double t_dl = engine_.next_deadline_us();
    const double t_arr = next < n ? trace.requests[next].arrival_us : kInf;
    if (t_dl == kInf && t_arr == kInf && t_kill == kInf) break;

    if (t_dl < t_arr && t_dl <= t_kill) {
      clock_.advance_to(std::max(t_dl, clock_.now_us()));
      collect(engine_.poll());
    } else if (t_arr <= t_kill) {
      clock_.advance_to(t_arr);
      if (adaptive_) {
        adaptive_->observe_arrival(trace.requests[next].model, t_arr);
      }
      collect(engine_.submit(static_cast<std::int64_t>(next),
                             trace.requests[next].model));
      ++next;
    } else {
      clock_.advance_to(t_kill);
      std::vector<int> alive;
      for (int w = 0; w < engine_.options().num_workers; ++w) {
        if (engine_.worker_alive(w)) alive.push_back(w);
      }
      KillResult killed = engine_.kill_worker(kills->fire(alive));
      for (const int id : killed.record.stolen_batches) {
        batches[static_cast<std::size_t>(id)].record.killed = true;
      }
      collect(std::move(killed.batches));
      kill_records.push_back(std::move(killed.record));
    }
    if (adaptive_ && adaptive_->replan_due(clock_.now_us())) {
      adaptive_->replan(clock_.now_us());
    }
  }

  ServingResult result = summarize(std::move(batches), engine_.take_shed(),
                                   engine_, n);
  result.kills = std::move(kill_records);
  if (adaptive_) {
    const AdaptiveStats after = adaptive_->stats();
    result.stats.replans = after.replans - adaptive_before.replans;
    result.stats.replan_optimizations =
        after.replan_optimizations - adaptive_before.replan_optimizations;
    result.stats.replan_measurements =
        after.replan_measurements - adaptive_before.replan_measurements;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    total_requests_ += result.stats.requests;
    total_batches_ += result.stats.batches;
  }
  return result;
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.requests = total_requests_;
    s.batches = total_batches_;
  }
  const EngineCounters counters = engine_.counters();
  s.optimizations = counters.optimizations;
  s.measurements = counters.measurements;
  s.cache = engine_.cache().stats();
  return s;
}

}  // namespace ios::serve
