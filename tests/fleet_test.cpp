// Fleet subsystem tests: hierarchical topology parsing (racks/nodes/devices
// and the per-level interconnects), anti-affinity replica planning, engine
// worker-death semantics, and the failure-injected fleet simulator's
// recovery invariants — zero lost requests and bit-identical replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/failure.hpp"
#include "fleet/planner.hpp"
#include "fleet/sim.hpp"
#include "fleet/topology.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "util/rng.hpp"

namespace ios::fleet {
namespace {

// ---------------------------------------------------------------------------
// fleet_from_spec
// ---------------------------------------------------------------------------

TEST(FleetTopology, ParsesTheHierarchicalExample) {
  const FleetTopology t = fleet_from_spec("rack:2{node:4{v100x8}}");
  EXPECT_EQ(t.total_devices(), 64);
  EXPECT_EQ(t.num_nodes, 8);
  EXPECT_EQ(t.num_racks, 2);
  ASSERT_EQ(t.pool.classes.size(), 1u);
  EXPECT_EQ(t.pool.classes[0].spec.name, "Tesla V100");
  EXPECT_EQ(t.pool.classes[0].count, 64);
  // Device ids are dense and doubled as engine worker indexes.
  for (int i = 0; i < t.total_devices(); ++i) {
    EXPECT_EQ(t.devices[static_cast<std::size_t>(i)].id, i);
  }
  // Declaration order: nodes 0-3 are rack 0, nodes 4-7 rack 1, 8 devices
  // per node.
  EXPECT_EQ(t.devices[0].node, 0);
  EXPECT_EQ(t.devices[0].rack, 0);
  EXPECT_EQ(t.devices[7].node, 0);
  EXPECT_EQ(t.devices[8].node, 1);
  EXPECT_EQ(t.devices[32].node, 4);
  EXPECT_EQ(t.devices[32].rack, 1);
  EXPECT_EQ(t.devices[63].node, 7);
  EXPECT_EQ(t.devices[63].rack, 1);
}

TEST(FleetTopology, GroupsHeterogeneousDevicesByClassLikeEngineWorkers) {
  // The ServingEngine numbers workers grouped by pool class; the device
  // list must follow that order so FleetDevice::id == worker index.
  const FleetTopology t = fleet_from_spec("rack:2{node:2{p100x2,1080tix2}}");
  EXPECT_EQ(t.total_devices(), 16);
  EXPECT_EQ(t.num_nodes, 4);
  EXPECT_EQ(t.num_racks, 2);
  ASSERT_EQ(t.pool.classes.size(), 2u);
  EXPECT_EQ(t.pool.classes[0].spec.name, "Tesla P100");
  EXPECT_EQ(t.pool.classes[0].count, 8);
  EXPECT_EQ(t.pool.classes[1].spec.name, "GTX 1080Ti");
  EXPECT_EQ(t.pool.classes[1].count, 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(t.devices[static_cast<std::size_t>(i)].class_index, 0);
    EXPECT_EQ(t.devices[static_cast<std::size_t>(8 + i)].class_index, 1);
  }
  // Both classes cover all four nodes (2 instances per node each).
  EXPECT_EQ(t.devices[0].node, 0);
  EXPECT_EQ(t.devices[1].node, 0);
  EXPECT_EQ(t.devices[2].node, 1);
  EXPECT_EQ(t.devices[6].node, 3);
  EXPECT_EQ(t.devices[8].node, 0);
  EXPECT_EQ(t.devices[15].node, 3);
}

TEST(FleetTopology, LooseTokensFormImplicitNodesAndRacks) {
  const FleetTopology flat = fleet_from_spec("v100x4");
  EXPECT_EQ(flat.total_devices(), 4);
  EXPECT_EQ(flat.num_nodes, 1);
  EXPECT_EQ(flat.num_racks, 1);

  const FleetTopology nodes = fleet_from_spec("node:2{v100},k80");
  EXPECT_EQ(nodes.total_devices(), 3);
  // Two explicit nodes plus the implicit node for the loose k80, all in
  // one implicit rack.
  EXPECT_EQ(nodes.num_nodes, 3);
  EXPECT_EQ(nodes.num_racks, 1);
}

TEST(FleetTopology, IgnoresWhitespaceAndMergesDuplicateClasses) {
  const FleetTopology t =
      fleet_from_spec(" rack:1 { node:2 { v100 , v100x2 } } ");
  EXPECT_EQ(t.total_devices(), 6);
  EXPECT_EQ(t.num_nodes, 2);
  ASSERT_EQ(t.pool.classes.size(), 1u);
  EXPECT_EQ(t.pool.classes[0].count, 6);
}

TEST(FleetTopology, LinkLevelsFollowTheOutermostDifference) {
  InterconnectHierarchy links;
  links.intra_node = InterconnectSpec{1.0, 100.0};
  links.cross_node = InterconnectSpec{10.0, 10.0};
  links.cross_rack = InterconnectSpec{100.0, 1.0};
  const FleetTopology t = fleet_from_spec("rack:2{node:2{v100x2}}", links);
  // Class-grouped ids: v100s 0..7 = (rack 0 node 0)x2, (r0 n1)x2,
  // (r1 n2)x2, (r1 n3)x2.
  EXPECT_EQ(t.level_between(0, 0), LinkLevel::kIntraNode);
  EXPECT_EQ(t.level_between(0, 1), LinkLevel::kIntraNode);
  EXPECT_EQ(t.level_between(0, 2), LinkLevel::kCrossNode);
  EXPECT_EQ(t.level_between(0, 4), LinkLevel::kCrossRack);
  EXPECT_DOUBLE_EQ(t.link_between(0, 1).latency_us, 1.0);
  EXPECT_DOUBLE_EQ(t.link_between(0, 2).latency_us, 10.0);
  EXPECT_DOUBLE_EQ(t.link_between(0, 4).latency_us, 100.0);
  // The flattened pool prices single-node transfers at the intra-node link.
  EXPECT_DOUBLE_EQ(t.pool.interconnect.latency_us, 1.0);
  EXPECT_THROW(t.level_between(0, 99), std::out_of_range);
  EXPECT_STREQ(link_level_name(LinkLevel::kCrossRack), "cross-rack");
}

TEST(FleetTopology, RejectsMalformedSpecsNamingTheProblem) {
  EXPECT_THROW(fleet_from_spec(""), std::invalid_argument);
  EXPECT_THROW(fleet_from_spec("rack:2{node:2{v100}"), std::invalid_argument);
  EXPECT_THROW(fleet_from_spec("rack:2{}"), std::invalid_argument);
  EXPECT_THROW(fleet_from_spec("node:2{}"), std::invalid_argument);
  EXPECT_THROW(fleet_from_spec("rack:{v100}"), std::invalid_argument);
  // Misplaced levels.
  EXPECT_THROW(fleet_from_spec("rack:1{rack:1{v100}}"), std::invalid_argument);
  EXPECT_THROW(fleet_from_spec("node:1{node:1{v100}}"), std::invalid_argument);
  EXPECT_THROW(fleet_from_spec("node:1{rack:1{v100}}"), std::invalid_argument);
  // Fleet-wide device cap.
  EXPECT_THROW(fleet_from_spec("rack:2{node:4{v100x4096}}"),
               std::invalid_argument);
  EXPECT_THROW(fleet_from_spec("rack:4096{node:4096{v100x4096}}"),
               std::invalid_argument);

  try {
    fleet_from_spec("rack:0{v100}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'rack:0'"), std::string::npos)
        << e.what();
  }
  try {
    fleet_from_spec("rack:1{node:-2{v100}}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'node:-2'"), std::string::npos)
        << e.what();
  }
  try {
    fleet_from_spec("pod:2{v100}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'pod'"), std::string::npos)
        << e.what();
  }
  try {
    fleet_from_spec("rack:1{node:1{warp9}}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Device typos keep the enumerating unknown-device UX of pool_from_spec.
    EXPECT_NE(std::string(e.what()).find("known devices"), std::string::npos)
        << e.what();
  }
  try {
    fleet_from_spec("rack:1{node:1{v100x-2}}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'v100x-2'"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// FailureInjector
// ---------------------------------------------------------------------------

TEST(FailureInjector, SeededScheduleIsDeterministicAndExhaustible) {
  FailureSpec spec;
  spec.seed = 42;
  spec.max_kills = 3;
  spec.mean_time_between_kills_us = 1000;
  FailureInjector a(spec);
  FailureInjector b(spec);
  const std::vector<int> alive = {0, 1, 2, 3};
  for (int k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(a.next_kill_us(), b.next_kill_us());
    EXPECT_GT(a.next_kill_us(), 0.0);
    EXPECT_EQ(a.fire(alive), b.fire(alive));
  }
  EXPECT_EQ(a.kills_fired(), 3);
  EXPECT_EQ(a.next_kill_us(), std::numeric_limits<double>::infinity());
  EXPECT_THROW(a.fire(alive), std::logic_error);
}

TEST(FailureInjector, ValidatesSpecAndVictims) {
  FailureSpec negative;
  negative.max_kills = -1;
  EXPECT_THROW(FailureInjector{negative}, std::invalid_argument);

  FailureSpec unsorted;
  unsorted.schedule = {KillEvent{50, 0}, KillEvent{10, 1}};
  EXPECT_THROW(FailureInjector{unsorted}, std::invalid_argument);

  FailureSpec scripted;
  scripted.schedule = {KillEvent{10, 2}, KillEvent{20, 7}};
  FailureInjector injector(scripted);
  EXPECT_DOUBLE_EQ(injector.next_kill_us(), 10);
  EXPECT_THROW(injector.fire({}), std::invalid_argument);
  EXPECT_EQ(injector.fire({0, 2, 3}), 2);
  EXPECT_THROW(injector.fire({0, 3}), std::invalid_argument);  // 7 not alive
}

// ---------------------------------------------------------------------------
// ServingEngine worker-death semantics
// ---------------------------------------------------------------------------

serve::ServerOptions tiny_engine_options(const std::string& pool_spec) {
  serve::ServerOptions options;
  options.pool = pool_from_spec(pool_spec);
  options.batching.batch_sizes = {1};  // every submit forms a batch
  return options;
}

TEST(EngineKill, DeadWorkersAreNeverRoutedToAndResetRevives) {
  serve::VirtualClock clock;
  serve::ServingEngine engine(tiny_engine_options("p100x2"), &clock);
  EXPECT_EQ(engine.alive_workers(), 2);
  EXPECT_TRUE(engine.worker_alive(0));

  engine.kill_worker(0);
  EXPECT_FALSE(engine.worker_alive(0));
  EXPECT_EQ(engine.alive_workers(), 1);
  EXPECT_EQ(engine.alive_in_class(0), 1);
  EXPECT_THROW(engine.kill_worker(0), std::invalid_argument);
  EXPECT_THROW(engine.kill_worker(99), std::out_of_range);
  EXPECT_THROW(engine.worker_alive(-1), std::out_of_range);

  for (int i = 0; i < 4; ++i) {
    const auto batches =
        engine.submit(i, "squeezenet");
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].record.worker, 1);  // never the dead worker 0
  }

  engine.reset();
  EXPECT_TRUE(engine.worker_alive(0));
  EXPECT_EQ(engine.alive_workers(), 2);
}

TEST(EngineKill, WipedOutFleetThrowsOnTheNextBatch) {
  serve::VirtualClock clock;
  serve::ServingEngine engine(tiny_engine_options("p100x2"), &clock);
  engine.kill_worker(0);
  engine.kill_worker(1);  // killing the last worker is allowed...
  EXPECT_EQ(engine.alive_workers(), 0);
  // ...but the next formed batch has nowhere to go.
  EXPECT_THROW(engine.submit(0, "squeezenet"), std::runtime_error);
}

TEST(EngineKill, WipedOutClassStopsAnchoringRouting) {
  // Heterogeneous pool: killing the whole P100 class must push every batch
  // to the 1080Ti without touching the dead class's service times.
  serve::VirtualClock clock;
  serve::ServingEngine engine(tiny_engine_options("p100,1080ti"), &clock);
  engine.kill_worker(0);
  EXPECT_EQ(engine.alive_in_class(0), 0);
  EXPECT_EQ(engine.alive_in_class(1), 1);
  const auto batches = engine.submit(0, "squeezenet");
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].record.worker, 1);
  EXPECT_EQ(batches[0].record.device, "GTX 1080Ti");
}

// ---------------------------------------------------------------------------
// ServingEngine worker-death recovery: outstanding batches, retire, steal
// ---------------------------------------------------------------------------

/// Submits `n` squeezenet requests (ids first..first+n-1) at the clock's
/// current time and returns the batches they form.
std::vector<serve::EngineBatch> submit_n(serve::ServingEngine& engine,
                                         int first, int n) {
  std::vector<serve::EngineBatch> formed;
  for (int i = first; i < first + n; ++i) {
    for (serve::EngineBatch& b : engine.submit(i, "squeezenet")) {
      formed.push_back(std::move(b));
    }
  }
  return formed;
}

TEST(EngineKill, StealsInFlightAndQueuedBatchesInStartOrder) {
  serve::VirtualClock clock;
  serve::ServingEngine engine(tiny_engine_options("p100x2"), &clock);
  // Six requests at t = 0 alternate between the two workers: worker 0 runs
  // batch 0 and queues batches 2 and 4 behind it.
  const std::vector<serve::EngineBatch> formed = submit_n(engine, 0, 6);
  ASSERT_EQ(formed.size(), 6u);
  for (const serve::EngineBatch& b : formed) {
    EXPECT_EQ(b.record.worker, b.record.id % 2);
  }
  EXPECT_EQ(engine.outstanding(), 6u);

  const double t = formed[0].record.service_us / 2;  // batch 0 in flight
  clock.advance_to(t);
  const serve::KillResult killed = engine.kill_worker(0);
  EXPECT_EQ(killed.record.worker, 0);
  EXPECT_EQ(killed.record.time_us, t);
  EXPECT_EQ(killed.record.stolen_batches, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(killed.record.requeued, (std::vector<std::int64_t>{0, 2, 4}));
  ASSERT_EQ(killed.batches.size(), 3u);
  for (std::size_t k = 0; k < killed.batches.size(); ++k) {
    const serve::EngineBatch& b = killed.batches[k];
    EXPECT_EQ(b.record.worker, 1);
    EXPECT_EQ(b.record.id, 6 + static_cast<int>(k));
    ASSERT_EQ(b.members.size(), 1u);
    EXPECT_EQ(b.members[0].id, killed.record.requeued[k]);
    EXPECT_EQ(b.members[0].arrival_us, t);  // requeued at the kill time
  }
  EXPECT_EQ(engine.outstanding(), 6u);  // 1, 3, 5 and the three requeued
}

TEST(EngineKill, RetireFailsForStolenAndAlreadyRetiredBatches) {
  serve::VirtualClock clock;
  serve::ServingEngine engine(tiny_engine_options("p100x2"), &clock);
  ASSERT_EQ(submit_n(engine, 0, 4).size(), 4u);  // 0, 2 on w0; 1, 3 on w1
  EXPECT_TRUE(engine.retire(3));  // out of formation order
  EXPECT_FALSE(engine.retire(3));
  EXPECT_TRUE(engine.retire(0));  // worker 0's first batch finished

  const serve::KillResult killed = engine.kill_worker(0);
  EXPECT_EQ(killed.record.stolen_batches, std::vector<int>{2});
  EXPECT_FALSE(engine.retire(2));  // stolen: its member rides elsewhere
  ASSERT_EQ(killed.batches.size(), 1u);
  EXPECT_TRUE(engine.retire(killed.batches[0].record.id));
  EXPECT_FALSE(engine.retire(killed.batches[0].record.id));
  EXPECT_TRUE(engine.retire(1));
  EXPECT_EQ(engine.outstanding(), 0u);
  EXPECT_FALSE(engine.retire(99));  // never formed
}

TEST(EngineKill, ResetForgetsOutstandingBatches) {
  serve::VirtualClock clock;
  serve::ServingEngine engine(tiny_engine_options("p100x2"), &clock);
  ASSERT_EQ(submit_n(engine, 0, 3).size(), 3u);
  EXPECT_EQ(engine.outstanding(), 3u);
  engine.reset();
  clock.reset();
  EXPECT_EQ(engine.outstanding(), 0u);
  EXPECT_FALSE(engine.retire(0));
  const serve::KillResult killed = engine.kill_worker(0);
  EXPECT_TRUE(killed.record.stolen_batches.empty());
  EXPECT_TRUE(killed.record.requeued.empty());
  EXPECT_TRUE(killed.batches.empty());
}

TEST(EngineKill, KillThatWouldStrandRequestsThrowsAndChangesNothing) {
  serve::VirtualClock clock;
  serve::ServingEngine engine(tiny_engine_options("p100x2"), &clock);
  engine.kill_worker(0);  // nothing outstanding anywhere: allowed
  const std::vector<serve::EngineBatch> formed = submit_n(engine, 0, 2);
  ASSERT_EQ(formed.size(), 2u);

  // Worker 1 is the last alive one and holds both batches: killing it
  // would leave their members nowhere to go.
  clock.advance_to(1.0);
  EXPECT_THROW(engine.kill_worker(1), std::runtime_error);
  EXPECT_TRUE(engine.worker_alive(1));
  EXPECT_EQ(engine.alive_workers(), 1);
  EXPECT_EQ(engine.alive_in_class(0), 1);
  EXPECT_EQ(engine.outstanding(), 2u);
  EXPECT_EQ(engine.queued(), 0u);
  const std::vector<serve::EngineBatch> after = submit_n(engine, 2, 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].record.id, 2);  // no batch id was consumed
  EXPECT_EQ(after[0].record.worker, 1);

  // With nothing outstanding the last worker may die.
  for (int id = 0; id < 3; ++id) EXPECT_TRUE(engine.retire(id));
  EXPECT_TRUE(engine.kill_worker(1).batches.empty());
  EXPECT_EQ(engine.alive_workers(), 0);
}

TEST(EngineKill, SeededKillSweepEndsEveryIdInExactlyOneBatch) {
  // Random arrivals, deadline flushes, out-of-order retires, and seeded
  // kill schedules: whatever interleaving, every request ends in exactly
  // one batch that was not stolen, and retire() succeeds exactly for the
  // batches neither stolen nor retired before.
  const char* const models[] = {"squeezenet", "mobilenet_v2"};
  std::size_t total_stolen = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    serve::ServerOptions options;
    options.pool = pool_from_spec("p100x2,1080tix2");
    options.batching.batch_sizes = {1, 2, 4};
    options.batching.max_queue_delay_us = 400;
    serve::VirtualClock clock;
    serve::ServingEngine engine(options, &clock);
    FailureSpec spec;
    spec.seed = seed;
    spec.max_kills = 3;
    spec.first_kill_at_us = 200;
    spec.mean_time_between_kills_us = 1500;
    FailureInjector injector(spec);
    Rng rng(seed * 7919);

    std::vector<serve::EngineBatch> batches;
    std::set<int> stolen, retired;
    const auto keep = [&](std::vector<serve::EngineBatch> formed) {
      for (serve::EngineBatch& b : formed) batches.push_back(std::move(b));
    };
    std::int64_t next_id = 0;
    for (int step = 0; step < 150; ++step) {
      clock.advance_to(clock.now_us() + rng.uniform() * 60);
      keep(engine.poll());
      while (injector.next_kill_us() <= clock.now_us() &&
             engine.alive_workers() > 1) {
        std::vector<int> alive;
        for (int w = 0; w < engine.options().num_workers; ++w) {
          if (engine.worker_alive(w)) alive.push_back(w);
        }
        serve::KillResult killed = engine.kill_worker(injector.fire(alive));
        stolen.insert(killed.record.stolen_batches.begin(),
                      killed.record.stolen_batches.end());
        keep(std::move(killed.batches));
      }
      if (rng.uniform() < 0.8) {
        keep(engine.submit(next_id++, models[rng.uniform_int(2)]));
      } else if (!batches.empty()) {
        const int id = batches[static_cast<std::size_t>(rng.uniform_int(
                                   static_cast<int>(batches.size())))]
                           .record.id;
        const bool expected = stolen.count(id) == 0 && retired.count(id) == 0;
        EXPECT_EQ(engine.retire(id), expected) << "batch " << id;
        retired.insert(id);
      }
    }
    keep(engine.drain());
    total_stolen += stolen.size();

    std::vector<int> rides(static_cast<std::size_t>(next_id), 0);
    for (const serve::EngineBatch& b : batches) {
      if (stolen.count(b.record.id) != 0) continue;
      for (const serve::EngineRequest& m : b.members) {
        ++rides[static_cast<std::size_t>(m.id)];
      }
    }
    for (std::int64_t id = 0; id < next_id; ++id) {
      EXPECT_EQ(rides[static_cast<std::size_t>(id)], 1) << "request " << id;
    }
  }
  EXPECT_GT(total_stolen, 0u);  // the sweep really exercised the steal path
}

// ---------------------------------------------------------------------------
// FleetPlanner
// ---------------------------------------------------------------------------

TEST(FleetPlanner, SpreadsReplicasAcrossNodesAndRacks) {
  FleetPlanRequest request;
  request.topology = fleet_from_spec("rack:2{node:2{p100,1080ti}}");
  request.workload = {WorkloadItem{"squeezenet", 4, 2.0},
                      WorkloadItem{"mobilenet_v2", 4, 1.0}};
  request.replicas = 2;
  FleetPlanner planner;
  const FleetPlan plan = planner.plan(request);

  ASSERT_EQ(plan.replicas.size(), 4u);  // 2 items x 2 replicas
  EXPECT_EQ(plan.min_distinct_nodes, 2);
  EXPECT_EQ(plan.min_distinct_racks, 2);
  for (const ReplicaPlacement& r : plan.replicas) {
    // The pinned worker really is an instance of the assigned class.
    EXPECT_EQ(request.topology.devices[static_cast<std::size_t>(r.worker)]
                  .class_index,
              request.topology.pool.classes[0].spec.name == r.device ? 0 : 1);
    EXPECT_EQ(request.topology.devices[static_cast<std::size_t>(r.worker)].node,
              r.node);
  }

  // Deterministic: a fresh planner reproduces the identical pinning.
  FleetPlanner again;
  const FleetPlan replay = again.plan(request);
  ASSERT_EQ(replay.replicas.size(), plan.replicas.size());
  for (std::size_t i = 0; i < plan.replicas.size(); ++i) {
    EXPECT_EQ(replay.replicas[i].worker, plan.replicas[i].worker);
  }
  EXPECT_EQ(fleet_plan_to_json(request.topology, replay)
                .at("replicas")
                .dump(),
            fleet_plan_to_json(request.topology, plan).at("replicas").dump());
}

TEST(FleetPlanner, ClampsReplicasToTheClassPopulationAndValidates) {
  FleetPlanRequest request;
  request.topology = fleet_from_spec("node:2{p100}");
  request.workload = {WorkloadItem{"squeezenet", 1, 1.0}};
  request.replicas = 100;  // only 2 instances exist
  FleetPlanner planner;
  const FleetPlan plan = planner.plan(request);
  ASSERT_EQ(plan.replicas.size(), 2u);
  EXPECT_NE(plan.replicas[0].worker, plan.replicas[1].worker);

  request.replicas = 0;
  EXPECT_THROW(planner.plan(request), std::invalid_argument);
  request.replicas = 1;
  request.topology = FleetTopology{};
  EXPECT_THROW(planner.plan(request), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FleetSimulator
// ---------------------------------------------------------------------------

FleetSimOptions small_fleet_options() {
  FleetSimOptions options;
  options.topology = fleet_from_spec("rack:2{node:2{p100x2,1080tix2}}");
  options.batching.batch_sizes = {1, 2, 4, 8};
  options.batching.max_queue_delay_us = 3000;
  options.workload = {WorkloadItem{"squeezenet", 8, 3.0},
                      WorkloadItem{"mobilenet_v2", 8, 2.0}};
  return options;
}

serve::Trace small_fleet_trace(int num_requests) {
  serve::TraceSpec spec;
  spec.models = {"squeezenet", "squeezenet", "mobilenet_v2"};
  spec.num_requests = num_requests;
  spec.mean_interarrival_us = 15;  // saturating on 16 devices
  spec.seed = 7;
  return serve::generate_trace(spec);
}

TEST(FleetSimulator, SeededKillsLoseNoRequestsAndRerouteInFlightBatches) {
  FleetSimOptions options = small_fleet_options();
  options.failures.seed = 11;
  options.failures.max_kills = 4;
  options.failures.first_kill_at_us = 500;
  options.failures.mean_time_between_kills_us = 1200;
  FleetSimulator sim(options);
  const serve::Trace trace = small_fleet_trace(400);
  const FleetSimResult result = sim.run(trace);

  EXPECT_EQ(result.stats.requests, 400);
  EXPECT_EQ(result.stats.lost_requests, 0);
  EXPECT_EQ(result.stats.failures, 4);
  EXPECT_GT(result.stats.killed_batches, 0);
  EXPECT_GT(result.stats.rerouted_requests, 0);
  EXPECT_GT(result.stats.mean_recovery_us, 0.0);
  ASSERT_EQ(result.latencies.size(), 400u);
  for (const double latency : result.latencies) {
    EXPECT_GE(latency, 0.0);  // -1 would mean a lost request
  }
}

TEST(FleetSimulator, ReplayIsBitIdenticalAcrossRunsAndThreadCounts) {
  const serve::Trace trace = small_fleet_trace(300);
  const auto run_with_threads = [&](int threads) {
    FleetSimOptions options = small_fleet_options();
    options.scheduler.num_threads = threads;
    options.prewarm_threads = threads;
    options.failures.seed = 13;
    options.failures.max_kills = 3;
    options.failures.first_kill_at_us = 400;
    options.failures.mean_time_between_kills_us = 1000;
    FleetSimulator sim(options);
    sim.plan();
    return sim.run(trace);
  };
  const FleetSimResult a = run_with_threads(1);
  const FleetSimResult b = run_with_threads(1);
  const FleetSimResult c = run_with_threads(4);

  // Same configuration, fresh simulator: bit-identical latencies and stats
  // (FleetStats carries no wall-clock fields by design).
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(fleet_stats_to_json(a.stats).dump(),
            fleet_stats_to_json(b.stats).dump());
  // Host parallelism changes wall time only, never simulated results.
  EXPECT_EQ(a.latencies, c.latencies);
  EXPECT_EQ(fleet_stats_to_json(a.stats).dump(),
            fleet_stats_to_json(c.stats).dump());
}

TEST(FleetSimulator, ScriptedClassWipeOutTriggersOneWarmReplan) {
  FleetSimOptions options;
  options.topology = fleet_from_spec("node:1{p100,1080ti}");
  options.batching.batch_sizes = {1};
  options.workload = {WorkloadItem{"squeezenet", 1, 1.0}};
  // Worker 0 is the only P100: killing it wipes the class mid-trace.
  options.failures.schedule = {KillEvent{900, 0}};
  FleetSimulator sim(options);
  sim.plan();  // warms the planner's Optimizer for the re-plan

  serve::TraceSpec spec;
  spec.models = {"squeezenet"};
  spec.num_requests = 60;
  spec.mean_interarrival_us = 50;
  spec.seed = 3;
  const FleetSimResult result = sim.run(serve::generate_trace(spec));

  EXPECT_EQ(result.stats.failures, 1);
  EXPECT_EQ(result.stats.replans, 1);
  // The re-plan re-searched nothing: the shared Optimizer already holds the
  // (model, batch, survivor-class) recipes from plan().
  EXPECT_EQ(result.stats.replan_optimizations, 0);
  EXPECT_GT(result.stats.replan_cache_hits, 0);
  EXPECT_EQ(result.stats.lost_requests, 0);
}

TEST(FleetSimulator, TheLastAliveWorkerIsNeverKilled) {
  FleetSimOptions options;
  options.topology = fleet_from_spec("v100");
  options.batching.batch_sizes = {1};
  options.failures.seed = 1;
  options.failures.max_kills = 5;
  options.failures.first_kill_at_us = 0;
  options.failures.mean_time_between_kills_us = 100;
  FleetSimulator sim(options);

  serve::TraceSpec spec;
  spec.models = {"squeezenet"};
  spec.num_requests = 20;
  spec.mean_interarrival_us = 100;
  spec.seed = 2;
  const FleetSimResult result = sim.run(serve::generate_trace(spec));
  EXPECT_EQ(result.stats.failures, 0);  // one worker: every kill suppressed
  EXPECT_EQ(result.stats.lost_requests, 0);
  EXPECT_EQ(result.stats.requests, 20);
}

TEST(FleetSimulator, RejectsEmptyTopologyAndEmptyWorkloadPlans) {
  FleetSimOptions empty;
  EXPECT_THROW(FleetSimulator{empty}, std::invalid_argument);

  FleetSimOptions no_workload;
  no_workload.topology = fleet_from_spec("v100");
  FleetSimulator sim(no_workload);
  EXPECT_THROW(sim.plan(), std::invalid_argument);
}

}  // namespace
}  // namespace ios::fleet
