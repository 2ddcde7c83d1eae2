// Device-pool parsing and placement-plan tests: pool spec round trips, the
// enumerating unknown-device UX, the Placer's recipe grid / specialization /
// split mechanics, and the machine-readable plan JSON.

#include <gtest/gtest.h>

#include <stdexcept>

#include "models/models.hpp"
#include "place/placer.hpp"
#include "place/pool.hpp"

namespace ios {
namespace {

// ---------------------------------------------------------------------------
// DevicePool / pool_from_spec
// ---------------------------------------------------------------------------

TEST(DevicePool, ParsesCountsAndFullNames) {
  const DevicePool pool = pool_from_spec("v100,k80x2,Tesla P100");
  ASSERT_EQ(pool.num_classes(), 3);
  EXPECT_EQ(pool.classes[0].spec.name, "Tesla V100");
  EXPECT_EQ(pool.classes[0].count, 1);
  EXPECT_EQ(pool.classes[1].spec.name, "Tesla K80");
  EXPECT_EQ(pool.classes[1].count, 2);
  EXPECT_EQ(pool.classes[2].spec.name, "Tesla P100");
  EXPECT_EQ(pool.total_devices(), 4);
}

TEST(DevicePool, ParsesDeviceNamesContainingX) {
  // "1080ti" must not be split at its 'x'-free suffix; "1080x3" must.
  const DevicePool pool = pool_from_spec("1080ti,1080x3");
  ASSERT_EQ(pool.num_classes(), 2);
  EXPECT_EQ(pool.classes[0].spec.name, "GTX 1080Ti");
  EXPECT_EQ(pool.classes[1].spec.name, "GTX 1080");
  EXPECT_EQ(pool.classes[1].count, 3);
}

TEST(DevicePool, MergesDuplicateClasses) {
  const DevicePool pool = pool_from_spec("k80,v100,k80x2");
  ASSERT_EQ(pool.num_classes(), 2);
  EXPECT_EQ(pool.classes[0].spec.name, "Tesla K80");
  EXPECT_EQ(pool.classes[0].count, 3);
  EXPECT_EQ(pool.total_devices(), 4);
}

TEST(DevicePool, SpecStringRoundTrips) {
  for (const char* spec : {"v100", "p100,1080tix2", "k80x3,v100x2,2080ti"}) {
    EXPECT_EQ(pool_from_spec(spec).spec_string(), spec);
  }
}

TEST(DevicePool, UnknownDeviceEnumeratesKnownDevices) {
  // The satellite UX fix: a typo in a pool spec lists every known device,
  // exactly like model/baseline lookups.
  try {
    pool_from_spec("v100,banana");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown device 'banana'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("known devices:"), std::string::npos) << message;
    for (const std::string& name : device_names()) {
      EXPECT_NE(message.find(name), std::string::npos)
          << message << " should list " << name;
    }
  }
}

TEST(DevicePool, EmptyPoolErrorEnumeratesKnownDevices) {
  // A spec that names no devices at all gets the same enumeration as a
  // typo'd name — the user learns the vocabulary either way.
  for (const char* spec : {"", ","}) {
    try {
      pool_from_spec(spec);
      FAIL() << "expected std::invalid_argument for '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("names no devices"), std::string::npos)
          << message;
      EXPECT_NE(message.find("known devices:"), std::string::npos) << message;
      for (const std::string& name : device_names()) {
        EXPECT_NE(message.find(name), std::string::npos)
            << message << " should list " << name;
      }
    }
  }
}

TEST(DevicePool, RejectsMalformedSpecs) {
  EXPECT_THROW(pool_from_spec(""), std::invalid_argument);
  EXPECT_THROW(pool_from_spec(","), std::invalid_argument);
  EXPECT_THROW(pool_from_spec("v100x0"), std::invalid_argument);
  EXPECT_THROW(pool_from_spec("x2"), std::invalid_argument);
  // Counts beyond the per-class cap — including ones that overflow int —
  // must surface as the documented invalid_argument, not std::out_of_range
  // or a multi-billion-worker server.
  EXPECT_THROW(pool_from_spec("v100x4097"), std::invalid_argument);
  EXPECT_THROW(pool_from_spec("v100x2000000000"), std::invalid_argument);
  EXPECT_THROW(pool_from_spec("k80x9999999999999999999"),
               std::invalid_argument);
  EXPECT_EQ(pool_from_spec("v100x4096").total_devices(), 4096);
}

TEST(DevicePool, RejectsZeroAndNegativeCountsNamingTheToken) {
  // The error must name the offending token and the >= 1 rule — and a
  // negative count must hit the count diagnosis, not fall through to a
  // baffling unknown-device lookup of the literal "k80x-1".
  for (const char* bad : {"v100x0", "k80x-1", "v100,k80x-3", "1080tix-12"}) {
    try {
      pool_from_spec(bad);
      FAIL() << "expected invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("count must be >= 1"), std::string::npos)
          << message;
      EXPECT_EQ(message.find("unknown device"), std::string::npos) << message;
    }
  }
  try {
    pool_from_spec("p100,v100x-2");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'v100x-2'"), std::string::npos)
        << e.what();
  }
}

TEST(DevicePool, ValidateRejectsEmptyAndNonPositiveCounts) {
  DevicePool pool;
  EXPECT_THROW(pool.validate(), std::invalid_argument);
  pool.classes.push_back(DeviceClass{tesla_v100(), 0});
  EXPECT_THROW(pool.validate(), std::invalid_argument);
  pool.classes[0].count = 1;
  EXPECT_NO_THROW(pool.validate());
}

TEST(Interconnect, TransferCostIsLatencyPlusBytesOverBandwidth) {
  const InterconnectSpec link{10.0, 12.0};  // 12 GB/s = 12000 bytes/us
  EXPECT_DOUBLE_EQ(link.transfer_us(0), 10.0);
  EXPECT_DOUBLE_EQ(link.transfer_us(120000), 10.0 + 10.0);
  const InterconnectSpec fast{0.0, 1e9};
  EXPECT_NEAR(fast.transfer_us(1 << 20), 0.0, 1e-5);
}

// ---------------------------------------------------------------------------
// Placer
// ---------------------------------------------------------------------------

PlacementRequest two_class_request() {
  PlacementRequest request;
  request.pool = pool_from_spec("p100,1080ti");
  request.workload = {WorkloadItem{"squeezenet", 8, 3.0},
                      WorkloadItem{"mobilenet_v2", 8, 2.0}};
  return request;
}

TEST(Placer, ValidatesRequests) {
  Placer placer;
  PlacementRequest request;  // empty pool + workload
  EXPECT_THROW(placer.place(request), std::invalid_argument);
  request.pool = pool_from_spec("v100");
  EXPECT_THROW(placer.place(request), std::invalid_argument);  // no workload
  request.workload = {WorkloadItem{"squeezenet", 0, 1.0}};
  EXPECT_THROW(placer.place(request), std::invalid_argument);  // bad batch
  request.workload = {WorkloadItem{"squeezenet", 1, 0.0}};
  EXPECT_THROW(placer.place(request), std::invalid_argument);  // bad weight
  request.workload = {WorkloadItem{"no_such_model", 1, 1.0}};
  EXPECT_THROW(placer.place(request), std::invalid_argument);  // bad model
}

TEST(Placer, BuildsTheFullRecipeGrid) {
  Placer placer;
  const PlacementResult result = placer.place(two_class_request());
  ASSERT_EQ(result.recipes.size(), 4u);  // 2 items x 2 classes
  for (const DeviceRecipe& recipe : result.recipes) {
    EXPECT_GT(recipe.latency_us, 0) << recipe.model << " on " << recipe.device;
    EXPECT_FALSE(recipe.recipe.schedule.stages.empty());
  }
  EXPECT_NE(result.recipe_for("squeezenet", 8, "Tesla P100"), nullptr);
  EXPECT_NE(result.recipe_for("mobilenet_v2", 8, "GTX 1080Ti"), nullptr);
  EXPECT_EQ(result.recipe_for("squeezenet", 8, "Tesla K80"), nullptr);
  EXPECT_EQ(result.recipe_for("squeezenet", 1, "Tesla P100"), nullptr);
  EXPECT_EQ(result.optimizations, 4);
  EXPECT_EQ(result.cache_hits, 0);
}

TEST(Placer, SpecializesTheTradeoffWorkload) {
  // The P100 (HBM2 bandwidth) must win the memory-bound squeezenet, the
  // 1080Ti (FP32 peak) the compute-bound mobilenet_v2 — the device tradeoff
  // the heterogeneous pools exist for.
  Placer placer;
  const PlacementResult result = placer.place(two_class_request());
  ASSERT_EQ(result.plan.assignments.size(), 2u);
  EXPECT_EQ(result.plan.assignments[0].model, "squeezenet");
  EXPECT_EQ(result.plan.assignments[0].device, "Tesla P100");
  EXPECT_EQ(result.plan.assignments[1].model, "mobilenet_v2");
  EXPECT_EQ(result.plan.assignments[1].device, "GTX 1080Ti");
  for (const Assignment& a : result.plan.assignments) {
    EXPECT_GT(a.service_us, 0);
    EXPECT_EQ(a.service_us, a.best_single_us);  // no split chosen here
  }
  EXPECT_GT(result.plan.makespan_us, 0);
  ASSERT_EQ(result.plan.loads.size(), 2u);
  double max_utilization = 0;
  for (const ClassLoad& load : result.plan.loads) {
    EXPECT_GE(load.utilization, 0);
    EXPECT_LE(load.utilization, 1.0 + 1e-12);
    max_utilization = std::max(max_utilization, load.utilization);
  }
  EXPECT_DOUBLE_EQ(max_utilization, 1.0);  // someone is the bottleneck
}

TEST(Placer, ReusesTheOptimizerRecipeCacheAcrossCalls) {
  Optimizer optimizer;
  Placer placer(optimizer);
  const PlacementRequest request = two_class_request();
  const PlacementResult first = placer.place(request);
  EXPECT_EQ(first.optimizations, 4);
  const PlacementResult second = placer.place(request);
  EXPECT_EQ(second.optimizations, 0);
  EXPECT_EQ(second.cache_hits, 4);
  EXPECT_EQ(second.measurements, 0);
  // Cached plans are identical.
  EXPECT_DOUBLE_EQ(second.plan.makespan_us, first.plan.makespan_us);
  ASSERT_EQ(second.plan.assignments.size(), first.plan.assignments.size());
  for (std::size_t i = 0; i < first.plan.assignments.size(); ++i) {
    EXPECT_EQ(second.plan.assignments[i].device,
              first.plan.assignments[i].device);
  }
}

TEST(Placer, SplitNeverWorseThanBestSingleDevice) {
  // With a free interconnect a pipeline split can only help; with splits
  // disabled every assignment is a single class. Either way service_us must
  // never exceed the best single-device latency.
  PlacementRequest request = two_class_request();
  request.workload = {WorkloadItem{"inception_v3", 1, 1.0}};
  request.pool.interconnect = InterconnectSpec{0.0, 1e9};
  Placer placer;
  const PlacementResult with_splits = placer.place(request);
  ASSERT_EQ(with_splits.plan.assignments.size(), 1u);
  const Assignment& a = with_splits.plan.assignments[0];
  EXPECT_LE(a.service_us, a.best_single_us + 1e-12);
  if (a.split) {
    EXPECT_GT(a.split->cut_block, 0);
    EXPECT_NE(a.split->first_device, a.split->second_device);
    EXPECT_DOUBLE_EQ(a.split->latency_us, a.split->first_us +
                                              a.split->transfer_us +
                                              a.split->second_us);
    EXPECT_LT(a.split->latency_us, a.best_single_us);
  }

  request.allow_splits = false;
  const PlacementResult without = placer.place(request);
  EXPECT_FALSE(without.plan.assignments[0].split.has_value());
  EXPECT_EQ(without.plan.assignments[0].service_us,
            without.plan.assignments[0].best_single_us);
}

TEST(Placer, RealisticInterconnectRarelyJustifiesSplits) {
  // With the default PCIe-ish interconnect the transfer term must be part
  // of any chosen split's latency, and a split is only ever chosen when it
  // strictly beats the best single device.
  Placer placer;
  const PlacementResult result = placer.place(two_class_request());
  for (const Assignment& a : result.plan.assignments) {
    if (a.split) {
      EXPECT_GT(a.split->transfer_us, 0);
      EXPECT_LT(a.service_us, a.best_single_us);
    }
  }
}

TEST(Placer, PlanJsonCarriesEverything) {
  Placer placer;
  const PlacementResult result = placer.place(two_class_request());
  const JsonValue json =
      JsonValue::parse(placement_to_json(result).dump());
  EXPECT_EQ(json.at("recipes").as_array().size(), 4u);
  EXPECT_EQ(json.at("plan").at("assignments").as_array().size(), 2u);
  EXPECT_EQ(json.at("plan").at("loads").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(json.at("plan").at("makespan_us").as_number(),
                   result.plan.makespan_us);
  EXPECT_EQ(json.at("optimizations").as_int(), result.optimizations);
  const JsonValue& first = json.at("plan").at("assignments").as_array()[0];
  EXPECT_EQ(first.at("model").as_string(), "squeezenet");
  EXPECT_EQ(first.at("device").as_string(), "Tesla P100");
}

}  // namespace
}  // namespace ios
