// SLO-aware adaptive serving, pinned by the same determinism bar as the
// engine extraction (tests/engine_test.cpp):
//
//   * the DES Server and a hand-driven engine on a VirtualClock must stay
//     bit-identical under SLO policies (deadline flushing, priorities,
//     degrade, shed);
//   * the degenerate policies collapse exactly: SLO = infinity reproduces
//     the plain global-timer engine bit for bit, SLO = 0 reproduces
//     max_queue_delay_us = 0;
//   * the AdaptiveController detects load shifts and re-plans, but never
//     changes a single engine decision — results with the controller on
//     and off are bit-identical up to the re-plan counters;
//   * phased traces splice seed-stably: appending a phase never perturbs
//     the arrivals of earlier phases.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/adaptive.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"

namespace ios {
namespace {

using namespace ios::serve;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- DES <-> engine equivalence under SLO policies -----------------------

/// Drives a fresh engine through `trace` exactly like the Server's event
/// loop, including the past-deadline clamp (an SLO flush time can move
/// behind the arrival that re-armed it) and the shed stream.
ServingResult drive_engine(const ServerOptions& options, const Trace& trace) {
  VirtualClock clock;
  ServingEngine engine(options, &clock);
  std::vector<EngineBatch> batches;
  auto collect = [&batches](std::vector<EngineBatch> formed) {
    for (EngineBatch& b : formed) batches.push_back(std::move(b));
  };
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const TraceRequest& request = trace.requests[i];
    while (engine.next_deadline_us() < request.arrival_us) {
      clock.advance_to(std::max(engine.next_deadline_us(), clock.now_us()));
      collect(engine.poll());
    }
    clock.advance_to(request.arrival_us);
    collect(engine.submit(static_cast<std::int64_t>(i), request.model));
  }
  while (engine.next_deadline_us() < kInf) {
    clock.advance_to(std::max(engine.next_deadline_us(), clock.now_us()));
    collect(engine.poll());
  }
  return summarize(std::move(batches), engine.take_shed(), engine,
                   trace.requests.size());
}

/// Bit-identical comparison including every SLO-era field (EXPECT_EQ on
/// doubles is exact equality — that is the point).
void expect_identical(const ServingResult& a, const ServingResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const RequestRecord& x = a.records[i];
    const RequestRecord& y = b.records[i];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.arrival_us, y.arrival_us);
    EXPECT_EQ(x.dispatch_us, y.dispatch_us);
    EXPECT_EQ(x.completion_us, y.completion_us);
    EXPECT_EQ(x.latency_us, y.latency_us);
    EXPECT_EQ(x.batch_size, y.batch_size);
    EXPECT_EQ(x.batch_id, y.batch_id);
    EXPECT_EQ(x.worker, y.worker);
    EXPECT_EQ(x.device, y.device);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.slo_us, y.slo_us);
    EXPECT_EQ(x.slo_met, y.slo_met);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.shed_us, y.shed_us);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    const BatchRecord& x = a.batches[i];
    const BatchRecord& y = b.batches[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.size, y.size);
    EXPECT_EQ(x.formed_us, y.formed_us);
    EXPECT_EQ(x.start_us, y.start_us);
    EXPECT_EQ(x.completion_us, y.completion_us);
    EXPECT_EQ(x.service_us, y.service_us);
    EXPECT_EQ(x.worker, y.worker);
    EXPECT_EQ(x.device, y.device);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.degraded, y.degraded);
  }
  EXPECT_EQ(a.stats.requests, b.stats.requests);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.makespan_us, b.stats.makespan_us);
  EXPECT_EQ(a.stats.throughput_rps, b.stats.throughput_rps);
  EXPECT_EQ(a.stats.mean_latency_us, b.stats.mean_latency_us);
  EXPECT_EQ(a.stats.p50_latency_us, b.stats.p50_latency_us);
  EXPECT_EQ(a.stats.p95_latency_us, b.stats.p95_latency_us);
  EXPECT_EQ(a.stats.p99_latency_us, b.stats.p99_latency_us);
  EXPECT_EQ(a.stats.max_latency_us, b.stats.max_latency_us);
  EXPECT_EQ(a.stats.mean_queue_wait_us, b.stats.mean_queue_wait_us);
  EXPECT_EQ(a.stats.mean_batch_size, b.stats.mean_batch_size);
  EXPECT_EQ(a.stats.worker_utilization, b.stats.worker_utilization);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.cache_misses, b.stats.cache_misses);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.shed, b.stats.shed);
  EXPECT_EQ(a.stats.slo_met, b.stats.slo_met);
  EXPECT_EQ(a.stats.slo_attainment, b.stats.slo_attainment);
  EXPECT_EQ(a.stats.degraded_batches, b.stats.degraded_batches);
  ASSERT_EQ(a.device_loads.size(), b.device_loads.size());
  for (std::size_t i = 0; i < a.device_loads.size(); ++i) {
    EXPECT_EQ(a.device_loads[i].device, b.device_loads[i].device);
    EXPECT_EQ(a.device_loads[i].devices, b.device_loads[i].devices);
    EXPECT_EQ(a.device_loads[i].batches, b.device_loads[i].batches);
    EXPECT_EQ(a.device_loads[i].busy_us, b.device_loads[i].busy_us);
    EXPECT_EQ(a.device_loads[i].utilization, b.device_loads[i].utilization);
  }
}

/// Timing/batching-only comparison: every scheduling decision identical,
/// SLO bookkeeping fields (slo_us, slo_met, attainment) allowed to differ —
/// used for the SLO = 0 vs max_queue_delay_us = 0 collapse, where the
/// decisions match but one side records a finite SLO.
void expect_same_timing(const ServingResult& a, const ServingResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const RequestRecord& x = a.records[i];
    const RequestRecord& y = b.records[i];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.arrival_us, y.arrival_us);
    EXPECT_EQ(x.dispatch_us, y.dispatch_us);
    EXPECT_EQ(x.completion_us, y.completion_us);
    EXPECT_EQ(x.latency_us, y.latency_us);
    EXPECT_EQ(x.batch_size, y.batch_size);
    EXPECT_EQ(x.batch_id, y.batch_id);
    EXPECT_EQ(x.worker, y.worker);
    EXPECT_EQ(x.shed, y.shed);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].size, b.batches[i].size);
    EXPECT_EQ(a.batches[i].formed_us, b.batches[i].formed_us);
    EXPECT_EQ(a.batches[i].start_us, b.batches[i].start_us);
    EXPECT_EQ(a.batches[i].completion_us, b.batches[i].completion_us);
    EXPECT_EQ(a.batches[i].worker, b.batches[i].worker);
  }
  EXPECT_EQ(a.stats.makespan_us, b.stats.makespan_us);
  EXPECT_EQ(a.stats.mean_latency_us, b.stats.mean_latency_us);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
}

Trace poisson(std::vector<std::string> models, int n, double mean_gap_us,
              unsigned long long seed) {
  TraceSpec spec;
  spec.models = std::move(models);
  spec.num_requests = n;
  spec.mean_interarrival_us = mean_gap_us;
  spec.seed = seed;
  return generate_trace(spec);
}

Trace phased(std::vector<std::string> models,
             std::vector<TracePhase> phases, unsigned long long seed) {
  TraceSpec spec;
  spec.models = std::move(models);
  spec.phases = std::move(phases);
  spec.seed = seed;
  return generate_trace(spec);
}

struct EquivalenceCase {
  const char* name;
  ServerOptions options;
  Trace trace;
};

std::vector<EquivalenceCase> slo_equivalence_cases() {
  std::vector<EquivalenceCase> cases;
  {  // per-model SLOs + priorities, deadline flushing + degrade
    EquivalenceCase c;
    c.name = "slo-priorities-degrade";
    c.options.device = "v100";
    c.options.num_workers = 2;
    c.options.batching.max_queue_delay_us = 1500;
    c.options.slo.models["fig2"] = {1500, 2};
    c.options.slo.models["fig5"] = {400, 1};
    c.trace = poisson({"fig2", "fig5"}, 160, 180, 21);
    cases.push_back(std::move(c));
  }
  {  // shed policy on, one overloaded worker
    EquivalenceCase c;
    c.name = "slo-shed";
    c.options.device = "v100";
    c.options.num_workers = 1;
    c.options.batching.max_queue_delay_us = 800;
    c.options.slo.models["fig2"] = {900, 0};
    c.options.slo.shed = true;
    c.trace = poisson({"fig2"}, 140, 120, 9);
    cases.push_back(std::move(c));
  }
  {  // priorities with a tight starvation bound
    EquivalenceCase c;
    c.name = "slo-starvation";
    c.options.device = "v100";
    c.options.num_workers = 1;
    c.options.batching.max_queue_delay_us = 700;
    c.options.slo.models["fig2"] = {2000, 3};
    c.options.slo.models["fig5"] = {2000, 1};
    c.options.slo.starvation_limit_us = 1200;
    c.trace = poisson({"fig2", "fig5"}, 150, 150, 33);
    cases.push_back(std::move(c));
  }
  {  // shed + slack factor + priorities on a phased (shifting) trace
    EquivalenceCase c;
    c.name = "slo-shed-phased";
    c.options.device = "v100";
    c.options.num_workers = 2;
    c.options.batching.max_queue_delay_us = 600;
    c.options.slo.models["fig2"] = {1200, 2};
    c.options.slo.models["fig5"] = {500, 1};
    c.options.slo.shed = true;
    c.options.slo.shed_slack_factor = 1.5;
    c.trace = phased({"fig2", "fig5"}, {{60, 600}, {120, 80}, {40, 600}}, 5);
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(SloEquivalence, ServerAndHandDrivenEngineAreBitIdentical) {
  for (EquivalenceCase& c : slo_equivalence_cases()) {
    SCOPED_TRACE(c.name);
    Server server(c.options);
    const ServingResult des = server.run(c.trace);
    const ServingResult manual = drive_engine(c.options, c.trace);
    expect_identical(des, manual);
  }
}

TEST(SloEquivalence, InfiniteSloReproducesPlainEngineBitForBit) {
  // Fallback SLO infinity with every policy switch on must collapse to the
  // default SloPolicy{} (the PR 6 engine) exactly.
  ServerOptions plain;
  plain.device = "v100";
  plain.num_workers = 2;
  plain.batching.max_queue_delay_us = 900;

  ServerOptions slo = plain;
  slo.slo.deadline_flush = true;
  slo.slo.degrade = true;
  slo.slo.shed = true;  // no finite SLO -> the shed test never condemns
  slo.slo.fallback.slo_us = kInf;

  const Trace trace = poisson({"fig2", "fig5"}, 150, 200, 13);
  expect_identical(Server(plain).run(trace), Server(slo).run(trace));
}

TEST(SloEquivalence, ZeroSloReproducesZeroQueueDelay) {
  // SLO = 0 pulls every flush to its arrival instant — exactly the
  // max_queue_delay_us = 0 configuration (degrade/shed off: nothing can
  // meet a zero SLO, so the degrade scan would keep the full size anyway
  // and the shed policy would reject everything).
  ServerOptions zero_delay;
  zero_delay.device = "p100";
  zero_delay.num_workers = 2;
  zero_delay.batching.max_queue_delay_us = 0;

  ServerOptions zero_slo;
  zero_slo.device = "p100";
  zero_slo.num_workers = 2;
  zero_slo.batching.max_queue_delay_us = 5000;
  zero_slo.slo.fallback.slo_us = 0;
  zero_slo.slo.degrade = false;

  const Trace trace = poisson({"fig2", "fig5"}, 120, 180, 17);
  const ServingResult a = Server(zero_delay).run(trace);
  const ServingResult b = Server(zero_slo).run(trace);
  expect_same_timing(a, b);
  EXPECT_EQ(b.stats.slo_met, 0);  // nothing meets a zero SLO
  EXPECT_EQ(b.stats.shed, 0);     // but nothing sheds either
}

TEST(SloEquivalence, ControllerNeverChangesEngineDecisions) {
  // The adaptive controller observes and re-plans but must not feed back
  // into batching/routing: on-vs-off results are bit-identical up to the
  // re-plan counters.
  ServerOptions off;
  off.device = "v100";
  off.num_workers = 2;
  off.batching.max_queue_delay_us = 800;
  off.slo.models["fig2"] = {1500, 1};
  off.slo.models["fig5"] = {600, 0};
  off.slo.shed = true;

  ServerOptions on = off;
  on.adaptive.enabled = true;
  on.adaptive.warmup_arrivals = 8;
  on.adaptive.min_replan_gap_us = 1000;

  const Trace trace =
      phased({"fig2", "fig5"}, {{50, 800}, {120, 60}, {40, 800}}, 11);
  ServingResult with_off = Server(off).run(trace);
  ServingResult with_on = Server(on).run(trace);
  EXPECT_GE(with_on.stats.replans, 1);  // the shift must be caught
  // The same resolutions happen, but the re-plan's pre-warm converts lazy
  // misses into hits — the split may shift, the total may not, and no
  // recipe value (hence no decision) changes.
  EXPECT_EQ(with_on.stats.cache_hits + with_on.stats.cache_misses,
            with_off.stats.cache_hits + with_off.stats.cache_misses);
  with_on.stats.cache_hits = with_off.stats.cache_hits;
  with_on.stats.cache_misses = with_off.stats.cache_misses;
  with_on.stats.replans = with_off.stats.replans;
  with_on.stats.replan_optimizations = with_off.stats.replan_optimizations;
  with_on.stats.replan_measurements = with_off.stats.replan_measurements;
  expect_identical(with_off, with_on);
}

TEST(SloEquivalence, IdenticalSeedsAreBitIdenticalAcrossRepeatedRuns) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 2;
  options.batching.max_queue_delay_us = 600;
  options.slo.models["fig2"] = {1400, 2};
  options.slo.models["fig5"] = {500, 1};
  options.slo.shed = true;
  options.adaptive.enabled = true;
  options.adaptive.warmup_arrivals = 8;
  options.adaptive.min_replan_gap_us = 1000;

  const Trace trace =
      phased({"fig2", "fig5"}, {{40, 700}, {100, 70}, {30, 700}}, 29);
  Server server(options);
  const ServingResult first = server.run(trace);
  const ServingResult second = server.run(trace);
  expect_identical(first, second);
  EXPECT_EQ(first.stats.replans, second.stats.replans);
}

// ---- direct engine behavior under SLO policies ---------------------------

TEST(SloEngine, DeadlineFlushFiresAtSlackNotTimer) {
  // fig2 singleton service ~383 us: with SLO 1000 and a 5000 us timer, the
  // flush must fire at arrival + slo - est (< timer), and the request must
  // meet its SLO.
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {1, 2, 4};
  options.batching.max_queue_delay_us = 5000;
  options.slo.models["fig2"] = {1000, 0};
  VirtualClock clock;
  ServingEngine engine(options, &clock);

  EXPECT_TRUE(engine.submit(0, "fig2").empty());
  const double deadline = engine.next_deadline_us();
  EXPECT_LT(deadline, 5000.0);  // pulled earlier than the timer
  EXPECT_GT(deadline, 0.0);     // but positive slack exists
  clock.advance_to(deadline);
  const std::vector<EngineBatch> formed = engine.poll();
  ASSERT_EQ(formed.size(), 1u);
  EXPECT_LE(formed[0].record.completion_us, 1000.0 + 1e-6);
}

TEST(SloEngine, PriorityOrdersCoincidentFlushes) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {4};
  options.batching.max_queue_delay_us = 1000;
  options.slo.models["fig5"] = {kInf, 1};
  options.slo.models["fig2"] = {kInf, 3};
  VirtualClock clock;
  ServingEngine engine(options, &clock);

  // fig5 arms first (earlier arm_seq), but fig2 outranks it by priority.
  engine.submit(0, "fig5");
  engine.submit(1, "fig2");
  clock.advance_to(1000);
  const std::vector<EngineBatch> formed = engine.poll();
  ASSERT_EQ(formed.size(), 2u);
  EXPECT_EQ(formed[0].record.model, "fig2");
  EXPECT_EQ(formed[0].record.priority, 3);
  EXPECT_EQ(formed[1].record.model, "fig5");
  EXPECT_EQ(formed[1].record.priority, 1);
}

TEST(SloEngine, EqualPrioritiesFallBackToArmingOrder) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {4};
  options.batching.max_queue_delay_us = 1000;
  VirtualClock clock;
  ServingEngine engine(options, &clock);
  engine.submit(0, "fig5");
  engine.submit(1, "fig2");
  clock.advance_to(1000);
  const std::vector<EngineBatch> formed = engine.poll();
  ASSERT_EQ(formed.size(), 2u);
  EXPECT_EQ(formed[0].record.model, "fig5");  // armed first
  EXPECT_EQ(formed[1].record.model, "fig2");
}

TEST(SloEngine, StarvationBoundPromotesPastEveryPriority) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {4};
  options.batching.max_queue_delay_us = 1000;
  options.slo.models["fig5"] = {kInf, 1};
  options.slo.models["fig2"] = {kInf, 5};
  options.slo.starvation_limit_us = 1200;
  VirtualClock clock;
  ServingEngine engine(options, &clock);

  engine.submit(0, "fig5");  // waits from t=0
  clock.advance_to(300);
  engine.submit(1, "fig2");  // waits from t=300
  clock.advance_to(1300);    // fig5 waited 1300 >= 1200, fig2 only 1000
  const std::vector<EngineBatch> formed = engine.poll();
  ASSERT_EQ(formed.size(), 2u);
  EXPECT_EQ(formed[0].record.model, "fig5");  // promoted past priority 5
  EXPECT_EQ(formed[1].record.model, "fig2");
}

TEST(SloEngine, WithoutStarvationBoundPriorityWins) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {4};
  options.batching.max_queue_delay_us = 1000;
  options.slo.models["fig5"] = {kInf, 1};
  options.slo.models["fig2"] = {kInf, 5};
  VirtualClock clock;
  ServingEngine engine(options, &clock);
  engine.submit(0, "fig5");
  clock.advance_to(300);
  engine.submit(1, "fig2");
  clock.advance_to(1300);
  const std::vector<EngineBatch> formed = engine.poll();
  ASSERT_EQ(formed.size(), 2u);
  EXPECT_EQ(formed[0].record.model, "fig2");  // priority 5 first
}

TEST(SloEngine, DegradeShrinksADoomedDeadlineFlush) {
  // Occupy the single worker with a full batch, then deadline-flush a
  // 2-request queue whose SLO only a batch-1 dispatch can still meet
  // (fig2 service grows with batch size: ~383/~628/~1197 us at 1/2/4).
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {1, 2, 4};
  options.batching.max_queue_delay_us = 1000;
  options.slo.models["fig2"] = {1500, 0};
  VirtualClock clock;
  ServingEngine engine(options, &clock);

  std::vector<EngineBatch> batches;
  for (int i = 0; i < 4; ++i) {
    for (EngineBatch& b : engine.submit(i, "fig2")) {
      batches.push_back(std::move(b));
    }
  }
  ASSERT_EQ(batches.size(), 1u);  // greedy full batch occupies the worker
  const double busy_until = batches[0].record.completion_us;
  EXPECT_GT(busy_until, 1000.0);

  clock.advance_to(100);
  engine.submit(4, "fig2");
  engine.submit(5, "fig2");
  while (engine.next_deadline_us() < kInf) {
    clock.advance_to(std::max(engine.next_deadline_us(), clock.now_us()));
    for (EngineBatch& b : engine.poll()) batches.push_back(std::move(b));
  }
  ASSERT_GE(batches.size(), 2u);
  // The first deadline flush must have been degraded below size 2.
  EXPECT_TRUE(batches[1].record.degraded);
  EXPECT_EQ(batches[1].record.size, 1);
  // The degraded dispatch still meets its member's SLO.
  EXPECT_LE(batches[1].record.completion_us, 100.0 + 1500.0 + 1e-6);
  // Everyone is served (degrade never drops requests).
  std::size_t members = 0;
  for (const EngineBatch& b : batches) members += b.members.size();
  EXPECT_EQ(members, 6u);
}

TEST(SloEngine, ShedRejectsHopelessRequestsAndReportsThem) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {1, 2, 4};
  options.batching.max_queue_delay_us = 1000;
  options.slo.models["fig2"] = {600, 0};
  options.slo.shed = true;
  // Keep degrade out of the picture: the greedy submit would otherwise
  // shrink the opening batch to salvage its front, and the worker would
  // not stay busy past the straggler's SLO.
  options.slo.degrade = false;
  VirtualClock clock;
  ServingEngine engine(options, &clock);

  // Full batch occupies the worker far past any 600 us SLO.
  for (int i = 0; i < 4; ++i) engine.submit(i, "fig2");
  clock.advance_to(100);
  engine.submit(4, "fig2");
  while (engine.next_deadline_us() < kInf) {
    clock.advance_to(std::max(engine.next_deadline_us(), clock.now_us()));
    engine.poll();
  }
  const std::vector<ShedRecord> sheds = engine.take_shed();
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds[0].id, 4);
  EXPECT_EQ(sheds[0].model, "fig2");
  EXPECT_EQ(sheds[0].arrival_us, 100.0);
  EXPECT_GE(sheds[0].shed_us, sheds[0].arrival_us);
  EXPECT_EQ(sheds[0].seq, 1);  // one batch (id 0) formed before the shed
  EXPECT_TRUE(engine.take_shed().empty());  // take_shed drains
  EXPECT_EQ(engine.queued(), 0u);
}

TEST(SloEngine, DrainNeverSheds) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {1, 2, 4};
  options.batching.max_queue_delay_us = 1000;
  options.slo.models["fig2"] = {600, 0};
  options.slo.shed = true;
  options.slo.degrade = false;  // as above: keep the opening batch full
  VirtualClock clock;
  ServingEngine engine(options, &clock);
  for (int i = 0; i < 4; ++i) engine.submit(i, "fig2");
  clock.advance_to(100);
  engine.submit(4, "fig2");  // hopeless against its SLO
  const std::vector<EngineBatch> drained = engine.drain();
  ASSERT_EQ(drained.size(), 1u);  // served anyway
  EXPECT_TRUE(engine.take_shed().empty());
}

TEST(SloEngine, ResetClearsShedRecords) {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {1, 2, 4};
  options.batching.max_queue_delay_us = 1000;
  options.slo.models["fig2"] = {600, 0};
  options.slo.shed = true;
  VirtualClock clock;
  ServingEngine engine(options, &clock);
  for (int i = 0; i < 4; ++i) engine.submit(i, "fig2");
  clock.advance_to(100);
  engine.submit(4, "fig2");
  while (engine.next_deadline_us() < kInf) {
    clock.advance_to(std::max(engine.next_deadline_us(), clock.now_us()));
    engine.poll();
  }
  engine.reset();
  clock.reset();
  EXPECT_TRUE(engine.take_shed().empty());
}

TEST(SloEngine, PolicyValidationRejectsBadValues) {
  VirtualClock clock;
  {
    ServerOptions o;
    o.slo.fallback.slo_us = -1;
    EXPECT_THROW(ServingEngine(o, &clock), std::invalid_argument);
  }
  {
    ServerOptions o;
    o.slo.models["fig2"] = {std::nan(""), 0};
    EXPECT_THROW(ServingEngine(o, &clock), std::invalid_argument);
  }
  {
    ServerOptions o;
    o.slo.shed_slack_factor = 0;
    EXPECT_THROW(ServingEngine(o, &clock), std::invalid_argument);
  }
  {
    ServerOptions o;
    o.slo.starvation_limit_us = 0;
    EXPECT_THROW(ServingEngine(o, &clock), std::invalid_argument);
  }
}

TEST(SloEngine, SloForResolvesOverridesAndFallback) {
  ServerOptions options;
  options.slo.models["fig2"] = {1234, 7};
  options.slo.fallback = {5678, 2};
  VirtualClock clock;
  ServingEngine engine(options, &clock);
  EXPECT_EQ(engine.slo_for("fig2").slo_us, 1234.0);
  EXPECT_EQ(engine.slo_for("fig2").priority, 7);
  EXPECT_EQ(engine.slo_for("fig5").slo_us, 5678.0);
  EXPECT_EQ(engine.slo_for("fig5").priority, 2);
}

// ---- AdaptiveController ---------------------------------------------------

ServerOptions controller_engine_options() {
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.batch_sizes = {1, 2};
  return options;
}

TEST(AdaptiveController, ValidatesOptions) {
  VirtualClock clock;
  ServingEngine engine(controller_engine_options(), &clock);
  const auto bad = [&engine](AdaptiveOptions o) {
    EXPECT_THROW(AdaptiveController(o, engine), std::invalid_argument);
  };
  AdaptiveOptions o;
  o.fast_alpha = 0;
  bad(o);
  o = {};
  o.slow_alpha = 1.5;
  bad(o);
  o = {};
  o.shift_ratio = 1.0;
  bad(o);
  o = {};
  o.attainment_floor = 1.5;
  bad(o);
  o = {};
  o.warmup_arrivals = 0;
  bad(o);
  o = {};
  o.min_replan_gap_us = -1;
  bad(o);
}

TEST(AdaptiveController, DetectsRateShiftAfterWarmup) {
  VirtualClock clock;
  ServingEngine engine(controller_engine_options(), &clock);
  AdaptiveOptions options;
  options.warmup_arrivals = 16;
  AdaptiveController controller(options, engine);

  // Steady 1000 us gaps: no shift.
  double t = 0;
  for (int i = 0; i < 40; ++i) {
    controller.observe_arrival("fig5", t);
    t += 1000;
  }
  EXPECT_FALSE(controller.replan_due(t));
  EXPECT_EQ(controller.stats().shifts_detected, 0);

  // Traffic 10x faster: the fast tracker collapses, the slow one lags ->
  // shift.
  for (int i = 0; i < 20 && !controller.replan_due(t); ++i) {
    controller.observe_arrival("fig5", t);
    t += 100;
  }
  EXPECT_TRUE(controller.replan_due(t));
  EXPECT_EQ(controller.stats().shifts_detected, 1);
}

TEST(AdaptiveController, NoShiftBeforeWarmup) {
  VirtualClock clock;
  ServingEngine engine(controller_engine_options(), &clock);
  AdaptiveOptions options;
  options.warmup_arrivals = 64;
  AdaptiveController controller(options, engine);
  double t = 0;
  for (int i = 0; i < 10; ++i) {
    controller.observe_arrival("fig5", t);
    t += 1000;
  }
  for (int i = 0; i < 10; ++i) {
    controller.observe_arrival("fig5", t);
    t += 10;  // wild swing, but still warming up
  }
  EXPECT_FALSE(controller.replan_due(t));
}

TEST(AdaptiveController, AttainmentFloorTriggersShift) {
  VirtualClock clock;
  ServingEngine engine(controller_engine_options(), &clock);
  AdaptiveOptions options;
  options.warmup_arrivals = 8;
  options.attainment_floor = 0.9;
  AdaptiveController controller(options, engine);
  for (int i = 0; i < 8; ++i) controller.observe_outcome("fig5", false);
  EXPECT_TRUE(controller.replan_due(0));
  EXPECT_GE(controller.stats().shifts_detected, 1);
  EXPECT_LT(controller.stats().attainment_ewma, 0.9);
}

TEST(AdaptiveController, ReplanRunsPlacerAndPrewarmsCache) {
  VirtualClock clock;
  ServingEngine engine(controller_engine_options(), &clock);
  AdaptiveOptions options;
  options.warmup_arrivals = 4;
  AdaptiveController controller(options, engine);

  double t = 0;
  for (int i = 0; i < 10; ++i) {
    controller.observe_arrival("fig5", t);
    t += 1000;
  }
  for (int i = 0; i < 10; ++i) {
    controller.observe_arrival("fig5", t);
    t += 50;
  }
  ASSERT_TRUE(controller.replan_due(t));
  const PlacementResult result = controller.replan(t);
  EXPECT_FALSE(result.plan.assignments.empty());
  const AdaptiveStats stats = controller.stats();
  EXPECT_EQ(stats.replans, 1);
  EXPECT_GE(stats.replan_optimizations + stats.replan_cache_hits, 1);
  EXPECT_GT(stats.prewarmed_configs, 0);
  EXPECT_GT(engine.cache().size(), 0u);  // pre-warmed for serving
}

TEST(AdaptiveController, HysteresisBlocksBackToBackReplans) {
  VirtualClock clock;
  ServingEngine engine(controller_engine_options(), &clock);
  AdaptiveOptions options;
  options.warmup_arrivals = 4;
  options.min_replan_gap_us = 1000000;
  AdaptiveController controller(options, engine);

  double t = 0;
  for (int i = 0; i < 10; ++i) {
    controller.observe_arrival("fig5", t);
    t += 1000;
  }
  for (int i = 0; i < 10; ++i) {
    controller.observe_arrival("fig5", t);
    t += 50;
  }
  ASSERT_TRUE(controller.replan_due(t));
  const double replanned_at = t;
  controller.replan(replanned_at);
  EXPECT_FALSE(controller.replan_due(t));  // shift consumed

  // A second shift right away is held back by the re-plan gap...
  for (int i = 0; i < 30; ++i) {
    controller.observe_arrival("fig5", t);
    t += 2000;
  }
  EXPECT_GE(controller.stats().shifts_detected, 2);
  EXPECT_FALSE(controller.replan_due(t));
  // ...until the gap elapses.
  EXPECT_TRUE(controller.replan_due(replanned_at + 1000000));
}

TEST(AdaptiveController, ReplansAndServingShareOneRecipeStore) {
  // Two models at batch sizes {1, 2, 4, 8} on one V100: 8 configurations.
  // Re-plans search through the engine's Optimizer, so between them the
  // serving path and the re-plans search each configuration exactly once.
  ServerOptions options;
  options.device = "v100";
  options.num_workers = 1;
  options.batching.max_queue_delay_us = 800;
  options.adaptive.enabled = true;
  options.adaptive.warmup_arrivals = 8;
  options.adaptive.min_replan_gap_us = 1000;
  Server server(options);
  const ServingResult result = server.run(
      phased({"fig2", "fig5"}, {{50, 800}, {120, 60}, {40, 800}}, 11));
  ASSERT_GE(result.stats.replans, 1);
  ASSERT_EQ(server.cache().stats().evictions, 0);
  EXPECT_EQ(server.cache().size(), 8u);
  EXPECT_EQ(server.stats().optimizations +
                server.adaptive()->stats().replan_optimizations,
            static_cast<std::int64_t>(server.cache().size()));
}

TEST(AdaptiveController, ResetRunClearsPendingShiftButKeepsCounters) {
  VirtualClock clock;
  ServingEngine engine(controller_engine_options(), &clock);
  AdaptiveOptions options;
  options.warmup_arrivals = 4;
  AdaptiveController controller(options, engine);
  for (int i = 0; i < 8; ++i) controller.observe_outcome("fig5", false);
  ASSERT_TRUE(controller.replan_due(0));
  controller.reset_run();
  EXPECT_FALSE(controller.replan_due(0));
  EXPECT_GE(controller.stats().shifts_detected, 1);  // lifetime counter kept
  EXPECT_EQ(controller.stats().attainment_ewma, 1.0);
}

// ---- phased traces --------------------------------------------------------

TEST(TracePhases, PhasesSpliceBackToBackWithExactCounts) {
  const Trace trace =
      phased({"fig2", "fig5"}, {{50, 500}, {100, 50}, {30, 500}}, 7);
  ASSERT_EQ(trace.requests.size(), 180u);
  for (std::size_t i = 1; i < trace.requests.size(); ++i) {
    EXPECT_GE(trace.requests[i].arrival_us, trace.requests[i - 1].arrival_us);
  }
}

TEST(TracePhases, AppendingAPhaseNeverPerturbsEarlierOnes) {
  // Seed-stable splicing: each phase draws from its own (seed, phase) RNG
  // stream, so the quiet prefix of a quiet->burst trace is the quiet trace.
  const Trace two = phased({"fig2", "fig5"}, {{60, 400}, {90, 40}}, 19);
  const Trace three =
      phased({"fig2", "fig5"}, {{60, 400}, {90, 40}, {50, 400}}, 19);
  ASSERT_EQ(two.requests.size(), 150u);
  ASSERT_EQ(three.requests.size(), 200u);
  for (std::size_t i = 0; i < two.requests.size(); ++i) {
    EXPECT_EQ(two.requests[i].arrival_us, three.requests[i].arrival_us);
    EXPECT_EQ(two.requests[i].model, three.requests[i].model);
  }
}

TEST(TracePhases, PhaseRateMeansMatchTheSpec) {
  const Trace trace = phased({"fig5"}, {{2000, 100}, {2000, 1000}}, 3);
  ASSERT_EQ(trace.requests.size(), 4000u);
  const auto mean_gap = [&trace](std::size_t begin, std::size_t end) {
    double sum = 0;
    for (std::size_t i = begin + 1; i < end; ++i) {
      sum += trace.requests[i].arrival_us - trace.requests[i - 1].arrival_us;
    }
    return sum / static_cast<double>(end - begin - 1);
  };
  EXPECT_NEAR(mean_gap(0, 2000), 100.0, 15.0);
  EXPECT_NEAR(mean_gap(2000, 4000), 1000.0, 150.0);
}

TEST(TracePhases, PhaseBoundaryContinuesFromLastArrival) {
  const Trace trace = phased({"fig5"}, {{10, 1000}, {10, 10}}, 23);
  ASSERT_EQ(trace.requests.size(), 20u);
  const double boundary = trace.requests[9].arrival_us;
  // The burst starts where the quiet phase left off, at burst-scale gaps.
  EXPECT_GE(trace.requests[10].arrival_us, boundary);
  EXPECT_LT(trace.requests[10].arrival_us - boundary, 1000.0);
}

TEST(TracePhases, LegacySingleSpecPathIsUnchanged) {
  // A spec without phases must keep its original RNG stream: pin a prefix
  // so a refactor of the phased path cannot silently reseed it.
  TraceSpec spec;
  spec.models = {"fig2", "fig5"};
  spec.num_requests = 50;
  spec.mean_interarrival_us = 200;
  spec.seed = 5;
  const Trace a = generate_trace(spec);
  const Trace b = generate_trace(spec);
  ASSERT_EQ(a.requests.size(), 50u);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival_us, b.requests[i].arrival_us);
    EXPECT_EQ(a.requests[i].model, b.requests[i].model);
  }
}

TEST(TracePhases, ValidationRejectsBadPhases) {
  TraceSpec spec;
  spec.models = {"fig5"};
  spec.phases = {{0, 100}};
  EXPECT_THROW(generate_trace(spec), std::invalid_argument);
  spec.phases = {{10, 0}};
  EXPECT_THROW(generate_trace(spec), std::invalid_argument);
  spec.phases = {{10, -5}};
  EXPECT_THROW(generate_trace(spec), std::invalid_argument);
}

}  // namespace
}  // namespace ios
