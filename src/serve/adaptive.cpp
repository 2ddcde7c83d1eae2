#include "serve/adaptive.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/device.hpp"

namespace ios::serve {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

constexpr double kFastAlpha = 0.3;   ///< fast gap and attainment EWMA weight
constexpr double kSlowAlpha = 0.05;  ///< slow gap EWMA weight
constexpr double kShiftRatio = 2.0;  ///< fast/slow gap ratio that is a shift
constexpr double kAttainmentFloor = 0.9;  ///< attainment EWMA shift floor

AdaptiveOptions validate(AdaptiveOptions options) {
  if (options.warmup_arrivals < 1) {
    throw std::invalid_argument(
        "AdaptiveController: warmup_arrivals must be >= 1");
  }
  if (!(options.min_replan_gap_us >= 0)) {
    throw std::invalid_argument(
        "AdaptiveController: min_replan_gap_us must be >= 0");
  }
  return options;
}

}  // namespace

AdaptiveController::AdaptiveController(AdaptiveOptions options,
                                       ServingEngine& engine)
    : options_(validate(std::move(options))),
      engine_(engine),
      placer_(engine.optimizer()) {}

void AdaptiveController::observe_arrival(const std::string& model,
                                         double now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.arrivals;
  ModelLoad& m = loads_[model];
  if (!m.has_arrival) {
    m.has_arrival = true;
    m.last_arrival_us = now_us;
    return;
  }
  const double gap = std::max(now_us - m.last_arrival_us, 0.0);
  m.last_arrival_us = now_us;
  ++m.gaps;
  if (m.gaps == 1) {
    m.fast_gap_us = m.slow_gap_us = gap;
    return;
  }
  m.fast_gap_us = kFastAlpha * gap + (1 - kFastAlpha) * m.fast_gap_us;
  m.slow_gap_us = kSlowAlpha * gap + (1 - kSlowAlpha) * m.slow_gap_us;
  if (shift_pending_ || m.gaps < options_.warmup_arrivals) return;
  if (!(m.fast_gap_us > 0) || !(m.slow_gap_us > 0)) return;
  // slow/fast > 1 means the recent gaps shrank (traffic sped up);
  // < 1 means it dried up. Either direction warrants a re-plan.
  const double ratio = m.slow_gap_us / m.fast_gap_us;
  if (ratio >= kShiftRatio || ratio <= 1.0 / kShiftRatio) {
    shift_pending_ = true;
    ++stats_.shifts_detected;
  }
}

void AdaptiveController::observe_outcome(const std::string& model,
                                         bool slo_met) {
  (void)model;  // attainment is tracked globally; the rate trackers are
                // the per-model signal
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.outcomes;
  ++outcomes_;
  const double sample = slo_met ? 1.0 : 0.0;
  attainment_ewma_ =
      outcomes_ == 1
          ? sample
          : kFastAlpha * sample + (1 - kFastAlpha) * attainment_ewma_;
  stats_.attainment_ewma = attainment_ewma_;
  if (!shift_pending_ && outcomes_ >= options_.warmup_arrivals &&
      attainment_ewma_ < kAttainmentFloor) {
    shift_pending_ = true;
    ++stats_.shifts_detected;
  }
}

bool AdaptiveController::replan_due(double now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shift_pending_) return false;
  return last_replan_us_ == kNegInf ||
         now_us - last_replan_us_ >= options_.min_replan_gap_us;
}

PlacementResult AdaptiveController::replan(double now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  shift_pending_ = false;
  last_replan_us_ = now_us;

  const ServerOptions& so = engine_.options();
  PlacementRequest request;
  if (!so.pool.empty()) {
    request.pool = so.pool;
  } else {
    DeviceClass cls;
    cls.spec = device_by_name(so.device);
    cls.count = so.num_workers;
    request.pool.classes.push_back(cls);
  }
  request.options = so.scheduler;
  request.protocol = so.protocol;
  request.profile_db = so.profile_db;
  request.allow_splits = false;

  // Anticipated workload: every observed model at the largest configured
  // batch, weighted by its fast-EWMA arrival rate — the plan follows the
  // traffic that actually materialized, not the one provisioned for.
  std::vector<std::string> models;
  const int batch = so.batching.batch_sizes.back();
  for (const auto& [model, m] : loads_) {
    if (!m.has_arrival) continue;
    models.push_back(model);
    const double rate = m.fast_gap_us > 0 ? 1e6 / m.fast_gap_us : 1.0;
    request.workload.push_back(WorkloadItem{model, batch, rate});
  }
  if (request.workload.empty()) return {};

  PlacementResult result = placer_.place(request);
  ++stats_.replans;
  stats_.replan_optimizations += result.optimizations;
  stats_.replan_cache_hits += result.cache_hits;
  stats_.replan_measurements += result.measurements;

  // Resolve every (model, configured batch, class) point the plan
  // anticipates into the engine's recipe cache — identical results to lazy
  // misses, paid off the serving hot path.
  engine_.prewarm(models, 1);
  stats_.prewarmed_configs +=
      static_cast<std::int64_t>(models.size()) *
      static_cast<std::int64_t>(so.batching.batch_sizes.size()) *
      static_cast<std::int64_t>(engine_.device_classes().size());
  return result;
}

AdaptiveStats AdaptiveController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AdaptiveController::reset_run() {
  std::lock_guard<std::mutex> lock(mu_);
  loads_.clear();
  attainment_ewma_ = 1.0;
  outcomes_ = 0;
  shift_pending_ = false;
  last_replan_us_ = kNegInf;
  stats_.attainment_ewma = 1.0;
}

}  // namespace ios::serve
