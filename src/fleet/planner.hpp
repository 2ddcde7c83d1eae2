#pragma once
// ios::fleet::FleetPlanner — placement over a FleetTopology. The existing
// Placer answers "which device *class* should serve each workload item";
// the fleet planner takes its plan and pins each item to concrete device
// *instances* (replicas), spreading the replicas of one item across nodes
// and racks (anti-affinity) so a single node or rack failure cannot take
// every copy of a model down at once. All the per-class optimization goes
// through the shared Optimizer, so planning a 1024-device fleet costs the
// same recipe searches as a 16-device one — only the cheap instance
// assignment scales with fleet size.

#include <string>
#include <vector>

#include "fleet/topology.hpp"
#include "place/placer.hpp"

namespace ios::fleet {

/// What to plan: the fleet, the workload, and the search/profiling settings
/// forwarded to the per-class optimizations (mirrors PlacementRequest).
struct FleetPlanRequest {
  FleetTopology topology;
  std::vector<WorkloadItem> workload;
  SchedulerOptions options{};
  ProfilingProtocol protocol{};
  /// Persistable profiling database shared by the per-class searches.
  std::string profile_db;
  /// Consider cross-device pipeline splits (priced at the intra-node link).
  bool allow_splits = false;
  /// Replicas per workload item, clamped to the item's class population.
  int replicas = 2;
};

/// One replica of one workload item pinned to a device instance.
struct ReplicaPlacement {
  std::string model;   ///< zoo model of the workload item
  int batch = 1;       ///< batch size of the workload item
  int item = 0;        ///< index into the request workload
  int worker = 0;      ///< FleetDevice::id == engine worker index
  int node = 0;        ///< the device's node
  int rack = 0;        ///< the device's rack
  std::string device;  ///< canonical device name of the instance's class
};

/// A fleet plan: the class-level PlacementResult plus the per-item replica
/// pinning and its anti-affinity spread.
struct FleetPlan {
  PlacementResult placement;  ///< the Placer's class-level plan
  /// Replica pins, workload order then replica order (deterministic).
  std::vector<ReplicaPlacement> replicas;
  /// Over items with >= 2 replicas: the minimum number of distinct nodes
  /// (racks) any single item's replicas span. 0 when no item has 2 replicas.
  int min_distinct_nodes = 0;
  int min_distinct_racks = 0;
  /// Wall time of the plan() call (measurement, NOT deterministic — keep it
  /// out of bit-identical comparisons).
  double plan_wall_ms = 0;
};

/// The fleet placement engine. Like Placer, stateless apart from the
/// Optimizer it reuses, so repeated plans re-search nothing.
class FleetPlanner {
 public:
  /// A planner with its own Optimizer (default recipe-store capacity).
  FleetPlanner() = default;
  /// A planner reusing a caller-owned Optimizer (and its recipe store); it
  /// builds none of its own. The optimizer must outlive the planner.
  explicit FleetPlanner(Optimizer& optimizer) : placer_(optimizer) {}

  /// Places the workload over the fleet: Placer::place on the flattened
  /// pool, then a deterministic greedy that pins each item's replicas to
  /// instances of its chosen class, preferring (1) a node with no replica
  /// of the item, (2) a rack with no replica of the item, (3) the least
  /// committed-load instance, (4) the lowest worker id. Throws
  /// std::invalid_argument on an empty topology or workload and whatever
  /// Placer::place throws; `replicas` < 1 is an error.
  FleetPlan plan(const FleetPlanRequest& request);

 private:
  Placer placer_;
};

/// Machine-readable form of a fleet plan (topology summary, class plan,
/// replica pins, spread) — what `ios_opt fleet --json` emits.
JsonValue fleet_plan_to_json(const FleetTopology& topology,
                             const FleetPlan& plan);

}  // namespace ios::fleet
