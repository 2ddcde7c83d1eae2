#pragma once
// ios::serve::AdaptiveController — the serving control loop that closes the
// gap between the offline planner and live traffic. The ServingEngine makes
// per-batch decisions under a fixed SloPolicy; the controller watches the
// traffic those decisions face and re-plans when it shifts:
//
//   observe    per-model inter-arrival gaps feed a fast (0.3) and a slow
//              (0.05) EWMA; batch completions feed an SLO-attainment EWMA;
//   detect     the fast/slow gap ratio leaving [1/2, 2] (traffic sped up or
//              dried up), or attainment sinking below 0.9, flags a load
//              shift — after a per-model warmup, with re-plan hysteresis so
//              one burst does not thrash the planner;
//   re-plan    an incremental Placer::place over the engine's device pool
//              with the *observed* arrival rates as workload weights,
//              through the engine's own Optimizer — the recipe store and
//              profiling database of the serving path — so a warm re-plan
//              runs zero new cost-model measurements (the bench gates
//              this);
//   pre-warm   every (model, configured batch, device class) point the new
//              plan anticipates is resolved into the recipe cache, so the
//              serving hot path never pays an optimization after a shift.
//
// The controller never changes an engine decision — batching, routing, and
// shedding depend only on the SloPolicy and the arrival times — so a DES
// replay with the controller on yields bit-identical ServingResults to one
// with it off, plus the re-plan counters. That is what keeps the adaptive
// path inside the deterministic equivalence harness.
//
// Threading: all entry points are internally serialized by one mutex; the
// daemon calls observe_* from its io threads and replan from the batcher
// thread. The engine references are limited to the thread-safe surface
// (options/optimizer/prewarm/device_classes).

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "place/placer.hpp"
#include "serve/engine.hpp"

namespace ios::serve {

/// Lifetime counters of one controller (monotone; drivers diff them to
/// report per-run numbers).
struct AdaptiveStats {
  std::int64_t arrivals = 0;          ///< observe_arrival calls
  std::int64_t outcomes = 0;          ///< observe_outcome calls
  std::int64_t shifts_detected = 0;   ///< load-shift flags raised
  std::int64_t replans = 0;           ///< Placer re-runs executed
  std::int64_t replan_optimizations = 0;  ///< Optimizer searches those ran
  std::int64_t replan_cache_hits = 0;     ///< searches served from cache
  std::int64_t replan_measurements = 0;   ///< new cost-model measurements
  std::int64_t prewarmed_configs = 0;     ///< (model, batch, class) points
  double attainment_ewma = 1.0;       ///< current SLO-attainment estimate
};

/// The load-shift detector + incremental re-planner (see the file comment).
class AdaptiveController {
 public:
  /// Builds a controller observing traffic for `engine` (not owned, must
  /// outlive the controller). Validates `options` (warmup_arrivals >= 1,
  /// min_replan_gap_us >= 0; throws std::invalid_argument).
  AdaptiveController(AdaptiveOptions options, ServingEngine& engine);

  /// Feeds one admitted request of `model` at engine-clock `now_us` into
  /// the per-model rate trackers.
  void observe_arrival(const std::string& model, double now_us);

  /// Feeds one completed request's SLO outcome into the attainment EWMA.
  void observe_outcome(const std::string& model, bool slo_met);

  /// True when a load shift is flagged and the re-plan hysteresis has
  /// elapsed — the driver should call replan().
  bool replan_due(double now_us) const;

  /// Re-runs the Placer over the engine's pool with the observed per-model
  /// arrival rates as workload weights, pre-warms the anticipated recipe
  /// points, and clears the shift flag. Returns the placement (empty when
  /// no model has been observed yet).
  PlacementResult replan(double now_us);

  /// Snapshot of the lifetime counters.
  AdaptiveStats stats() const;

  /// Forgets the detector state (rate trackers, attainment EWMA, shift
  /// flag, hysteresis marker) for a fresh run; lifetime counters are kept.
  /// The DES Server calls this alongside ServingEngine::reset so repeated
  /// runs of one trace stay bit-identical.
  void reset_run();

 private:
  /// Per-model arrival-rate trackers.
  struct ModelLoad {
    bool has_arrival = false;   ///< first arrival seen (no gap yet)
    double last_arrival_us = 0;
    double fast_gap_us = 0;     ///< fast EWMA of the inter-arrival gap
    double slow_gap_us = 0;     ///< slow EWMA the fast one is compared to
    std::int64_t gaps = 0;      ///< gaps observed (arrivals - 1)
  };

  mutable std::mutex mu_;
  AdaptiveOptions options_;
  ServingEngine& engine_;
  /// Searches through the engine's Optimizer: a re-plan hits every recipe
  /// the serving path resolved, and the serving path never searches a
  /// configuration a re-plan already did.
  Placer placer_;
  std::map<std::string, ModelLoad> loads_;
  double attainment_ewma_ = 1.0;
  std::int64_t outcomes_ = 0;
  bool shift_pending_ = false;
  double last_replan_us_ = -std::numeric_limits<double>::infinity();
  AdaptiveStats stats_;
};

}  // namespace ios::serve
