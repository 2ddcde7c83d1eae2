#pragma once
// ios::Placer — placement of a multi-model workload across a heterogeneous
// DevicePool. IOS (the paper) finds the best schedule for one
// (model, device, batch) point; the Placer is the layer above: it reuses the
// DP scheduler (through the ios::Optimizer facade, so the recipe cache and
// profiling database apply) to optimize every workload configuration *per
// device class*, then builds a PlacementPlan that assigns each configuration
// to the class minimizing its predicted completion time under the load the
// plan has already committed — the classic heterogeneous-makespan greedy,
// deterministic for a fixed request.
//
// Large models may additionally be *pipeline-split* across two device
// classes at a block-partition boundary: blocks [0, cut) run on one class,
// blocks [cut, n) on another, and the activation tensors crossing the cut
// pay the pool interconnect's transfer cost. A split is chosen only when its
// end-to-end latency (first segment + transfer + second segment) strictly
// beats the best single-device latency — which happens when the two classes
// win different halves of the network (e.g. a bandwidth-bound stem on an
// HBM2 card, a compute-bound tail on a GDDR card).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "place/pool.hpp"
#include "util/json.hpp"

namespace ios {

/// One workload configuration: a zoo model at a batch size, with the
/// fraction of pool traffic it represents (weights are relative, any
/// positive scale).
struct WorkloadItem {
  std::string model;    ///< zoo model name (a models::registry() key)
  int batch = 1;        ///< batch size the configuration serves
  double weight = 1.0;  ///< relative share of pool traffic (> 0)
};

/// What to place: the pool, the workload, and the search/profiling settings
/// forwarded to every per-device optimization.
struct PlacementRequest {
  DevicePool pool;                     ///< the heterogeneous fleet
  std::vector<WorkloadItem> workload;  ///< configurations to place
  SchedulerOptions options{};          ///< DP-search settings per device
  ProfilingProtocol protocol{};        ///< profiling protocol per device
  /// Persistable profiling database shared by every per-device search (see
  /// OptimizationRequest::profile_db).
  std::string profile_db;
  /// Consider cross-device pipeline splits at block-partition boundaries.
  bool allow_splits = true;
};

/// One (workload item, device class) optimization product.
struct DeviceRecipe {
  std::string model;     ///< zoo model of the workload item
  int batch = 1;         ///< batch size of the workload item
  std::string device;    ///< canonical device name
  double latency_us = 0; ///< IOS schedule latency on that device
  Recipe recipe;         ///< persistable schedule (Optimizer::save)
  SchedulerStats stats;  ///< DP statistics of the search that produced it
};

/// A cross-device pipeline split of one configuration: blocks [0, cut) on
/// `first_device`, blocks [cut, n) on `second_device`, activations crossing
/// the cut transferred over the pool interconnect.
struct PipelineSplit {
  std::string first_device;   ///< class running blocks [0, cut)
  std::string second_device;  ///< class running blocks [cut, n)
  int cut_block = 0;        ///< first block of the second segment
  std::int64_t cut_bytes = 0; ///< activation bytes crossing the cut
  double first_us = 0;      ///< first-segment latency on first_device
  double transfer_us = 0;   ///< interconnect cost for cut_bytes
  double second_us = 0;     ///< second-segment latency on second_device
  double latency_us = 0;    ///< first + transfer + second
};

/// Where one workload item goes: a device class (or a pipeline split) plus
/// the predicted per-batch service latency there.
struct Assignment {
  std::string model;         ///< zoo model of the workload item
  int batch = 1;             ///< batch size of the workload item
  double weight = 1.0;       ///< the item's traffic weight, echoed back
  std::string device;        ///< chosen class ("a|b" display for splits)
  double service_us = 0;     ///< predicted per-batch latency of the choice
  double best_single_us = 0; ///< best single-device latency (== service_us
                             ///< unless a split won)
  std::optional<PipelineSplit> split;  ///< set when a pipeline split won
};

/// Predicted load of one device class under the plan.
struct ClassLoad {
  std::string device;     ///< canonical device name of the class
  int count = 1;          ///< instances of the class in the pool
  double load_us = 0;     ///< committed weighted service time
  double utilization = 0; ///< (load / count) / plan makespan
};

/// The routing plan: one assignment per workload item (request order) and
/// the per-class load picture.
struct PlacementPlan {
  std::vector<Assignment> assignments;  ///< one per workload item, in order
  std::vector<ClassLoad> loads;         ///< per device class, pool order
  /// Bottleneck per-instance load — the plan's predicted steady-state cycle
  /// time per unit of workload weight.
  double makespan_us = 0;
  /// Sum of weight * service latency over the workload (the latency term
  /// the greedy trades against the load term).
  double weighted_latency_us = 0;
};

/// Everything Placer::place produced: the per-(item, class) recipe grid in
/// (item-major, class-minor) order plus the plan and the optimization cost
/// counters.
struct PlacementResult {
  std::vector<DeviceRecipe> recipes;  ///< the per-(item, class) grid
  PlacementPlan plan;                 ///< the routing plan over the grid
  std::int64_t optimizations = 0;  ///< Optimizer runs that missed its cache
  std::int64_t cache_hits = 0;     ///< Optimizer runs served from its cache
  std::int64_t measurements = 0;   ///< cost-model profiles across all runs

  /// The grid entry for (model, batch, device), or nullptr.
  const DeviceRecipe* recipe_for(const std::string& model, int batch,
                                 const std::string& device) const;
};

/// The placement engine. Stateless apart from the Optimizer it reuses: every
/// per-device search goes through Optimizer::optimize, so repeated place()
/// calls (or a Placer sharing a caller's Optimizer) re-search nothing.
class Placer {
 public:
  /// A placer with its own Optimizer (default recipe-store capacity).
  Placer() : optimizer_(own_.emplace()) {}
  /// A placer reusing a caller-owned Optimizer (and its recipe store); it
  /// builds none of its own. The optimizer must outlive the placer.
  explicit Placer(Optimizer& optimizer) : optimizer_(optimizer) {}

  /// Optimizes every workload item for every pool device class and returns
  /// the recipes plus the placement plan. Deterministic: identical requests
  /// yield identical plans. Throws std::invalid_argument on an empty pool
  /// or workload, non-positive weights/batches, and unknown model or device
  /// names (enumerating the known names).
  PlacementResult place(const PlacementRequest& request);

 private:
  std::optional<Optimizer> own_;  ///< engaged only by Placer()
  Optimizer& optimizer_;
};

/// Machine-readable form of a placement result (the plan plus per-recipe
/// latencies, not the schedules themselves) — what `ios_opt place --json`
/// and bench_placement emit.
JsonValue placement_to_json(const PlacementResult& result);

}  // namespace ios
