#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/device.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace ios::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Tolerance when comparing engine times (they are sums of doubles).
constexpr double kTimeEps = 1e-9;

ServerOptions normalize(ServerOptions options) {
  if (options.batching.batch_sizes.empty()) {
    throw std::invalid_argument("ServingEngine: batching.batch_sizes is empty");
  }
  for (int b : options.batching.batch_sizes) {
    if (b < 1) {
      throw std::invalid_argument("ServingEngine: batch sizes must be >= 1");
    }
  }
  std::sort(options.batching.batch_sizes.begin(),
            options.batching.batch_sizes.end());
  options.batching.batch_sizes.erase(
      std::unique(options.batching.batch_sizes.begin(),
                  options.batching.batch_sizes.end()),
      options.batching.batch_sizes.end());
  // A NaN or infinite delay never falls due: partial queues would never
  // flush, and Server::run would end with requests still queued.
  if (!(options.batching.max_queue_delay_us >= 0) ||
      !std::isfinite(options.batching.max_queue_delay_us)) {
    throw std::invalid_argument(
        "ServingEngine: max_queue_delay_us must be finite and >= 0");
  }
  options.num_workers = std::max(1, options.num_workers);
  const auto check_slo_class = [](const SloClass& c, const std::string& what) {
    if (std::isnan(c.slo_us) || c.slo_us < 0) {
      throw std::invalid_argument("ServingEngine: " + what +
                                  " slo_us must be >= 0");
    }
  };
  check_slo_class(options.slo.fallback, "fallback");
  for (const auto& [name, cls] : options.slo.models) {
    check_slo_class(cls, "model '" + name + "'");
  }
  if (!(options.slo.shed_slack_factor > 0)) {
    throw std::invalid_argument(
        "ServingEngine: slo.shed_slack_factor must be > 0");
  }
  if (!(options.slo.starvation_limit_us > 0)) {
    throw std::invalid_argument(
        "ServingEngine: slo.starvation_limit_us must be > 0");
  }
  // Reject inconsistent scheduler settings at construction, not on the
  // first cache miss.
  options.scheduler.validate();
  if (options.pool.empty()) {
    // Canonicalize (and validate) the device name once, up front.
    options.device = device_by_name(options.device).name;
  } else {
    // Pool classes must be registry devices (recipes are resolved through
    // the Optimizer by name); canonicalize them and size the worker fleet.
    options.pool.validate();
    for (DeviceClass& c : options.pool.classes) {
      c.spec.name = device_by_name(c.spec.name).name;
    }
    options.device = options.pool.classes.front().spec.name;
    options.num_workers = options.pool.total_devices();
  }
  return options;
}

}  // namespace

ServingEngine::ServingEngine(ServerOptions options, TimeSource* clock,
                             std::shared_ptr<ShardedRecipeCache> cache)
    : options_(normalize(std::move(options))),
      clock_(clock),
      config_key_part_(
          '\n' + scheduler_config_key(options_.scheduler, options_.protocol)),
      optimizer_(cache ? std::move(cache)
                       : std::make_shared<ShardedRecipeCache>(options_.cache)) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("ServingEngine: clock must not be null");
  }
  if (options_.pool.empty()) {
    classes_.push_back(WorkerClass{options_.device,
                                   '\n' + options_.device + "\nbatch=",
                                   options_.num_workers});
  } else {
    for (const DeviceClass& c : options_.pool.classes) {
      classes_.push_back(WorkerClass{
          c.spec.name, '\n' + c.spec.name + "\nbatch=", c.count});
    }
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    for (int i = 0; i < classes_[c].count; ++i) {
      worker_class_.push_back(static_cast<int>(c));
    }
  }
  worker_free_.assign(static_cast<std::size_t>(options_.num_workers), 0.0);
  worker_busy_.assign(static_cast<std::size_t>(options_.num_workers), 0.0);
  worker_dead_.assign(static_cast<std::size_t>(options_.num_workers), 0);
  class_alive_.clear();
  for (const WorkerClass& c : classes_) class_alive_.push_back(c.count);
  service_.resize(classes_.size());
}

bool ServingEngine::retire(int batch_id) {
  return outstanding_.erase(batch_id) > 0;
}

KillResult ServingEngine::kill_worker(int worker) {
  if (worker < 0 || worker >= options_.num_workers) {
    throw std::out_of_range("ServingEngine::kill_worker: no worker " +
                            std::to_string(worker));
  }
  const auto wi = static_cast<std::size_t>(worker);
  if (worker_dead_[wi]) {
    throw std::invalid_argument("ServingEngine::kill_worker: worker " +
                                std::to_string(worker) + " is already dead");
  }
  // Ascending id; the stable sort then yields (start_us, batch id) order.
  // std::map iterators stay valid across the inserts submit() makes below.
  std::vector<std::map<int, Outstanding>::iterator> stolen;
  for (auto it = outstanding_.begin(); it != outstanding_.end(); ++it) {
    if (it->second.worker == worker) stolen.push_back(it);
  }
  if (!stolen.empty() && alive_workers() == 1) {
    throw std::runtime_error(
        "ServingEngine::kill_worker: worker " + std::to_string(worker) +
        " is the last alive worker; its batches would have nowhere to go");
  }
  std::stable_sort(stolen.begin(), stolen.end(), [](auto a, auto b) {
    return a->second.start_us < b->second.start_us;
  });

  KillResult result;
  result.record.time_us = advance_now();
  result.record.worker = worker;
  worker_dead_[wi] = 1;
  --class_alive_[static_cast<std::size_t>(worker_class_[wi])];
  for (const auto& it : stolen) {
    result.record.stolen_batches.push_back(it->first);
    for (const EngineRequest& member : it->second.members) {
      result.record.requeued.push_back(member.id);
      for (EngineBatch& b : submit(member.id, member.model)) {
        result.batches.push_back(std::move(b));
      }
    }
    outstanding_.erase(it);
  }
  return result;
}

bool ServingEngine::worker_alive(int worker) const {
  if (worker < 0 || worker >= options_.num_workers) {
    throw std::out_of_range("ServingEngine::worker_alive: no worker " +
                            std::to_string(worker));
  }
  return !worker_dead_[static_cast<std::size_t>(worker)];
}

int ServingEngine::alive_workers() const {
  int alive = 0;
  for (int n : class_alive_) alive += n;
  return alive;
}

int ServingEngine::alive_in_class(std::size_t cls) const {
  return class_alive_.at(cls);
}

std::string ServingEngine::cache_key(const std::string& model, int batch,
                                     std::size_t cls) const {
  // Equivalent to serving_cache_key(model, class device, batch, ...) with
  // the constant parts preassembled (pinned by ServingCacheKey tests).
  return model + classes_[cls].key_part + std::to_string(batch) +
         config_key_part_;
}

double ServingEngine::resolve_latency(const std::string& model, int batch,
                                      std::size_t cls, bool* computed) {
  if (const std::optional<double> latency =
          cache().latency_if_cached(cache_key(model, batch, cls))) {
    if (computed) *computed = false;
    return *latency;
  }
  OptimizationRequest request =
      OptimizationRequest::for_model(model, classes_[cls].device, batch);
  request.options = options_.scheduler;
  request.protocol = options_.protocol;
  request.profile_db = options_.profile_db;
  request.cross_reuse = options_.cross_reuse;
  request.baselines.clear();  // serving needs the schedule, not comparisons
  const OptimizationResult result = optimizer_.optimize(request);
  // Another caller may have filled the entry since the peek.
  if (computed) *computed = !result.cache_hit;
  if (!result.cache_hit) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.optimizations;
    counters_.measurements += result.new_measurements;
  }
  return result.latency_us;
}

void ServingEngine::prewarm(const std::vector<std::string>& models,
                            int threads) {
  struct Config {
    const std::string* model;
    int batch;
    std::size_t cls;
  };
  std::vector<Config> configs;
  for (const std::string& model : models) {
    for (int batch : options_.batching.batch_sizes) {
      for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
        configs.push_back(Config{&model, batch, cls});
      }
    }
  }
  // Misses fan out over the shared process-wide pool (no per-call pool
  // spawn); the inner wave searches draw from the same pool, nesting-safe.
  parallel_for(configs.size(), threads, [&](std::size_t i) {
    resolve_latency(*configs[i].model, configs[i].batch, configs[i].cls);
  });
}

double ServingEngine::advance_now() {
  const double now = clock_->now_us();
  if (now < last_now_) {
    throw std::invalid_argument(
        "ServingEngine: time went backwards (monotone clock required)");
  }
  last_now_ = now;
  return now;
}

int ServingEngine::deadline_batch_size(std::size_t len) const {
  int best = 0;
  for (int s : options_.batching.batch_sizes) {
    if (static_cast<std::size_t>(s) <= len) best = s;
  }
  return best > 0 ? best : static_cast<int>(len);
}

const SloClass& ServingEngine::slo_for(const std::string& model) const {
  const auto it = options_.slo.models.find(model);
  return it == options_.slo.models.end() ? options_.slo.fallback : it->second;
}

ServingEngine::ModelQueue& ServingEngine::queue_for(const std::string& model) {
  ModelQueue& q = queues_[model];
  if (q.slo == nullptr) q.slo = &slo_for(model);
  return q;
}

double ServingEngine::min_service_estimate(const std::string& model,
                                           int size) {
  double best = kInf;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (class_alive_[c] == 0) continue;
    best = std::min(best, resolve_latency(model, size, c));
  }
  return best == kInf ? 0 : best;
}

double ServingEngine::earliest_free_us(double now) const {
  double best = kInf;
  for (std::size_t w = 0; w < worker_free_.size(); ++w) {
    if (worker_dead_[w]) continue;
    best = std::min(best, std::max(now, worker_free_[w]));
  }
  return best == kInf ? now : best;
}

double ServingEngine::queue_flush_time(const std::string& model,
                                       const ModelQueue& q, double now) {
  const EngineRequest& front = q.pending.front();
  double t = front.arrival_us + options_.batching.max_queue_delay_us;
  if (options_.slo.deadline_flush && std::isfinite(q.slo->slo_us)) {
    // The oldest request must dispatch by (deadline - service) to have a
    // chance: pull the flush up to its slack point, never later than the
    // global timer.
    const double est =
        min_service_estimate(model, deadline_batch_size(q.pending.size()));
    const double slack = front.arrival_us + q.slo->slo_us - est;
    if (slack <= front.arrival_us) {
      // An SLO shorter than the service itself: flush immediately.
      t = std::min(t, front.arrival_us);
    } else {
      // Backlog-aware: the dispatch will sit behind the earliest-free
      // worker's backlog, so pull the flush earlier by that wait — a
      // just-in-time flush against the SLO as workers actually free up,
      // not as if one were idle. When the backlog alone already makes the
      // deadline hopeless, rushing a partial batch out only burns
      // capacity — keep the slack point and let the queue fill.
      const double wait = earliest_free_us(now) - now;
      const double pulled = slack - wait;
      t = std::min(t, pulled >= front.arrival_us ? pulled : slack);
    }
  }
  return t;
}

int ServingEngine::effective_priority(const ModelQueue& q, double now) const {
  if (q.pending.empty()) return std::numeric_limits<int>::min();
  if (now - q.pending.front().arrival_us >=
      options_.slo.starvation_limit_us - kTimeEps) {
    return std::numeric_limits<int>::max();
  }
  return q.slo->priority;
}

int ServingEngine::lowest_queued_priority() const {
  int lowest = std::numeric_limits<int>::max();
  for (const auto& [model, q] : queues_) {
    if (q.pending.empty()) continue;
    lowest = std::min(lowest, q.slo->priority);
  }
  return lowest;
}

bool ServingEngine::maybe_shed(const std::string& model, ModelQueue& q,
                               double now) {
  if (!options_.slo.shed) return false;
  const SloClass& slo = *q.slo;
  if (!std::isfinite(slo.slo_us)) return false;
  const EngineRequest& front = q.pending.front();
  // Past the starvation bound a request is served no matter what.
  if (now - front.arrival_us >=
      options_.slo.starvation_limit_us - kTimeEps) {
    return false;
  }
  // Only ever reject the lowest priority present across all queues.
  if (slo.priority > lowest_queued_priority()) return false;
  // Hopelessness test: even dispatched right now at the smallest
  // configured batch on the earliest-free worker, the request would miss
  // its (slack-scaled) SLO.
  const double best = earliest_free_us(now) +
                      min_service_estimate(model, deadline_batch_size(1));
  if (best <= front.arrival_us + slo.slo_us * options_.slo.shed_slack_factor +
                  kTimeEps) {
    return false;
  }
  shed_.push_back(ShedRecord{front.id, model, front.arrival_us, now,
                             slo.priority, next_batch_id_});
  q.pending.pop_front();
  return true;
}

int ServingEngine::degraded_size(const std::string& model, ModelQueue& q,
                                 int size, double now, bool* degraded) {
  const SloClass& slo = *q.slo;
  if (!options_.slo.degrade || !std::isfinite(slo.slo_us) || size <= 1) {
    return size;
  }
  const double deadline = q.pending.front().arrival_us + slo.slo_us;
  const double free = earliest_free_us(now);
  if (free + min_service_estimate(model, size) <= deadline + kTimeEps) {
    return size;
  }
  // The full batch misses the oldest member's SLO: take the largest
  // smaller configured size that still meets it. When none does the SLO is
  // lost either way — keep the full size for throughput.
  const std::vector<int>& sizes = options_.batching.batch_sizes;
  for (auto it = sizes.rbegin(); it != sizes.rend(); ++it) {
    if (*it >= size) continue;
    if (free + min_service_estimate(model, *it) <= deadline + kTimeEps) {
      *degraded = true;
      return *it;
    }
  }
  return size;
}

void ServingEngine::arm_flush(const std::string& model, ModelQueue& q,
                              double now) {
  if (q.pending.empty()) {
    q.flush_at = kInf;
    return;
  }
  const double t = queue_flush_time(model, q, now);
  if (q.flush_at != t) {
    q.flush_at = t;
    q.arm_seq = next_arm_seq_++;
  }
}

void ServingEngine::rearm_all(double now) {
  for (auto& [queued_model, queue] : queues_) {
    arm_flush(queued_model, queue, now);
  }
}

void ServingEngine::form_batch(const std::string& model, ModelQueue& q,
                               int size, double now, bool degraded,
                               std::vector<EngineBatch>& out) {
  EngineBatch batch;
  batch.record.id = next_batch_id_++;
  batch.record.model = model;
  batch.record.size = size;
  batch.record.formed_us = now;
  batch.record.priority = q.slo->priority;
  batch.record.degraded = degraded;

  // Service time of this (model, size) on every worker class with at least
  // one alive worker — the routing decision needs all of them. Wiped-out
  // classes resolve nothing (their recipes would route nowhere) and do not
  // anchor the inflation penalty.
  double min_service = kInf;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (class_alive_[c] == 0) {
      service_[c] = kInf;
      continue;
    }
    bool computed = false;
    service_[c] = resolve_latency(model, size, c, &computed);
    ++(computed ? batch.resolve_misses : batch.resolve_hits);
    min_service = std::min(min_service, service_[c]);
  }
  if (min_service == kInf) {
    throw std::runtime_error(
        "ServingEngine: no alive workers to route a batch to");
  }

  // Routing score: predicted completion plus the service-time inflation
  // over the batch's best class. The inflation term charges a misroute the
  // extra device time it burns, so under saturation each class keeps the
  // work it is best at; when the best class is backlogged the batch still
  // spills to a worker that genuinely finishes it sooner. With one class
  // the term is zero and this is plain FIFO list scheduling. Dead workers
  // are skipped — an alive one always exists (min_service is finite).
  int worker = -1;
  double best_score = kInf;
  for (int w = 0; w < options_.num_workers; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    if (worker_dead_[wi]) continue;
    const double svc = service_[static_cast<std::size_t>(worker_class_[wi])];
    const double score =
        std::max(now, worker_free_[wi]) + svc + (svc - min_service);
    if (worker < 0 || score < best_score ||
        (score == best_score &&
         worker_free_[wi] < worker_free_[static_cast<std::size_t>(worker)])) {
      best_score = score;
      worker = w;
    }
  }
  const auto wi = static_cast<std::size_t>(worker);
  const std::size_t cls = static_cast<std::size_t>(worker_class_[wi]);
  batch.record.service_us = service_[cls];
  batch.record.worker = worker;
  batch.record.device = classes_[cls].device;
  batch.record.start_us = std::max(now, worker_free_[wi]);
  batch.record.completion_us = batch.record.start_us + batch.record.service_us;
  worker_free_[wi] = batch.record.completion_us;
  worker_busy_[wi] += batch.record.service_us;

  batch.members.reserve(static_cast<std::size_t>(size));
  for (int k = 0; k < size; ++k) {
    batch.members.push_back(std::move(q.pending.front()));
    q.pending.pop_front();
  }
  outstanding_.emplace(batch.record.id, Outstanding{worker,
                                                    batch.record.start_us,
                                                    batch.members});
  out.push_back(std::move(batch));
}

std::vector<EngineBatch> ServingEngine::submit(std::int64_t id,
                                               const std::string& model) {
  const double now = advance_now();
  std::vector<EngineBatch> out;
  ModelQueue& q = queue_for(model);
  q.pending.push_back(EngineRequest{id, model, now});
  const int max_batch = options_.batching.batch_sizes.back();
  while (static_cast<int>(q.pending.size()) >= max_batch) {
    // A full greedy batch can blow the oldest member's deadline when the
    // queue filled slowly (the full batch serves longer than the partial
    // flush the armed deadline was counting on): degrade it like a
    // deadline flush would.
    bool degraded = false;
    const int size = degraded_size(model, q, max_batch, now, &degraded);
    form_batch(model, q, size, now, degraded, out);
  }
  if (out.empty()) {
    arm_flush(model, q, now);
  } else {
    rearm_all(now);
  }
  return out;
}

void ServingEngine::flush_queue(const std::string& model, ModelQueue& q,
                                double now, bool ignore_deadline,
                                std::vector<EngineBatch>& out) {
  q.flush_at = kInf;
  const std::size_t before = out.size();
  while (!q.pending.empty()) {
    if (!ignore_deadline) {
      if (now < queue_flush_time(model, q, now) - kTimeEps) break;
      if (maybe_shed(model, q, now)) continue;
    }
    int size = deadline_batch_size(q.pending.size());
    bool degraded = false;
    if (!ignore_deadline) {
      size = degraded_size(model, q, size, now, &degraded);
    }
    form_batch(model, q, size, now, degraded, out);
  }
  if (out.size() > before) {
    rearm_all(now);
  } else {
    arm_flush(model, q, now);
  }
}

std::vector<EngineBatch> ServingEngine::poll() {
  const double now = advance_now();
  std::vector<EngineBatch> out;
  // Queues whose deadline has passed fire in (priority desc, deadline,
  // arming) order. Without priority classes that is exactly the (time,
  // seq) order of the DES event heap, so a driver that advances a virtual
  // clock deadline-by-deadline reproduces the DES bit for bit even when
  // several queues fall due at one instant; with classes, the
  // highest-effective-priority due queue dispatches first (a queue past
  // the starvation bound outranks every class).
  for (;;) {
    ModelQueue* due = nullptr;
    const std::string* due_model = nullptr;
    int due_priority = 0;
    for (auto& [model, q] : queues_) {
      if (q.flush_at > now) continue;
      const int priority = effective_priority(q, now);
      if (due == nullptr || priority > due_priority ||
          (priority == due_priority &&
           (q.flush_at < due->flush_at ||
            (q.flush_at == due->flush_at && q.arm_seq < due->arm_seq)))) {
        due = &q;
        due_model = &model;
        due_priority = priority;
      }
    }
    if (due == nullptr) break;
    flush_queue(*due_model, *due, now, /*ignore_deadline=*/false, out);
  }
  return out;
}

std::vector<EngineBatch> ServingEngine::drain() {
  const double now = advance_now();
  std::vector<EngineBatch> out;
  for (;;) {
    // (priority desc, arming) order, mirroring poll(): among equal
    // priorities the longest-waiting queue goes first.
    ModelQueue* due = nullptr;
    const std::string* due_model = nullptr;
    int due_priority = 0;
    for (auto& [model, q] : queues_) {
      if (q.pending.empty()) continue;
      const int priority = effective_priority(q, now);
      if (due == nullptr || priority > due_priority ||
          (priority == due_priority &&
           (q.flush_at < due->flush_at ||
            (q.flush_at == due->flush_at && q.arm_seq < due->arm_seq)))) {
        due = &q;
        due_model = &model;
        due_priority = priority;
      }
    }
    if (due == nullptr) break;
    flush_queue(*due_model, *due, now, /*ignore_deadline=*/true, out);
  }
  return out;
}

std::vector<ShedRecord> ServingEngine::take_shed() {
  return std::exchange(shed_, {});
}

double ServingEngine::next_deadline_us() const {
  double next = kInf;
  for (const auto& [model, q] : queues_) {
    next = std::min(next, q.flush_at);
  }
  return next;
}

std::size_t ServingEngine::queued() const {
  std::size_t n = 0;
  for (const auto& [model, q] : queues_) n += q.pending.size();
  return n;
}

std::vector<std::pair<std::string, std::size_t>> ServingEngine::queue_depths()
    const {
  std::vector<std::pair<std::string, std::size_t>> depths;
  for (const auto& [model, q] : queues_) {
    if (!q.pending.empty()) depths.emplace_back(model, q.pending.size());
  }
  return depths;
}

void ServingEngine::reset() {
  queues_.clear();
  worker_free_.assign(worker_free_.size(), 0.0);
  worker_busy_.assign(worker_busy_.size(), 0.0);
  worker_dead_.assign(worker_dead_.size(), 0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    class_alive_[c] = classes_[c].count;
  }
  next_batch_id_ = 0;
  next_arm_seq_ = 0;
  last_now_ = 0;
  shed_.clear();
  outstanding_.clear();
}

EngineCounters ServingEngine::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

std::vector<std::string> ServingEngine::device_classes() const {
  std::vector<std::string> names;
  for (const WorkerClass& c : classes_) names.push_back(c.device);
  return names;
}

std::vector<int> ServingEngine::class_counts() const {
  std::vector<int> counts;
  for (const WorkerClass& c : classes_) counts.push_back(c.count);
  return counts;
}

ServingResult summarize(std::vector<EngineBatch> batches,
                        const ServingEngine& engine,
                        std::size_t num_requests) {
  return summarize(std::move(batches), {}, engine, num_requests);
}

ServingResult summarize(std::vector<EngineBatch> batches,
                        std::vector<ShedRecord> sheds,
                        const ServingEngine& engine,
                        std::size_t num_requests) {
  ServingResult result;
  result.records.resize(num_requests);
  for (EngineBatch& b : batches) {
    // A stolen batch never completed; its members' records come from the
    // batches they were requeued into.
    if (b.record.killed) b.members.clear();
    for (const EngineRequest& m : b.members) {
      if (m.id < 0 || static_cast<std::size_t>(m.id) >= num_requests) {
        throw std::out_of_range(
            "summarize: request id outside [0, num_requests)");
      }
      RequestRecord& r = result.records[static_cast<std::size_t>(m.id)];
      r.index = static_cast<int>(m.id);
      r.model = b.record.model;
      r.arrival_us = m.arrival_us;
      r.dispatch_us = b.record.start_us;
      r.completion_us = b.record.completion_us;
      r.latency_us = b.record.completion_us - m.arrival_us;
      r.batch_size = b.record.size;
      r.batch_id = b.record.id;
      r.worker = b.record.worker;
      r.device = b.record.device;
      r.priority = b.record.priority;
      r.slo_us = engine.slo_for(b.record.model).slo_us;
      r.slo_met = r.latency_us <= r.slo_us + kTimeEps;
    }
    result.stats.cache_hits += b.resolve_hits;
    result.stats.cache_misses += b.resolve_misses;
    if (b.record.degraded) ++result.stats.degraded_batches;
    result.batches.push_back(std::move(b.record));
  }
  for (ShedRecord& s : sheds) {
    if (s.id < 0 || static_cast<std::size_t>(s.id) >= num_requests) {
      throw std::out_of_range(
          "summarize: shed request id outside [0, num_requests)");
    }
    RequestRecord& r = result.records[static_cast<std::size_t>(s.id)];
    r.index = static_cast<int>(s.id);
    r.model = std::move(s.model);
    r.arrival_us = s.arrival_us;
    r.batch_id = -1;
    r.worker = -1;
    r.priority = s.priority;
    r.slo_us = engine.slo_for(r.model).slo_us;
    r.slo_met = false;
    r.shed = true;
    r.shed_us = s.shed_us;
  }
  if (num_requests == 0) return result;

  ServingStats& stats = result.stats;
  stats.requests = static_cast<std::int64_t>(result.records.size());
  stats.batches = static_cast<std::int64_t>(result.batches.size());
  stats.shed = static_cast<std::int64_t>(sheds.size());
  stats.completed = stats.requests - stats.shed;
  // Latency aggregates are over completed requests; attainment charges
  // sheds as misses.
  std::vector<double> latencies, waits;
  latencies.reserve(result.records.size());
  waits.reserve(result.records.size());
  for (const RequestRecord& r : result.records) {
    if (r.shed) continue;
    latencies.push_back(r.latency_us);
    waits.push_back(r.dispatch_us - r.arrival_us);
    if (r.slo_met) ++stats.slo_met;
  }
  stats.slo_attainment = static_cast<double>(stats.slo_met) /
                         static_cast<double>(stats.requests);
  for (const BatchRecord& b : result.batches) {
    if (!b.killed) {
      stats.makespan_us = std::max(stats.makespan_us, b.completion_us);
    }
  }
  const std::vector<double>& worker_busy = engine.worker_busy();
  if (stats.makespan_us > 0) {
    stats.throughput_rps =
        static_cast<double>(stats.completed) / (stats.makespan_us / 1e6);
    double busy = 0;
    for (double b : worker_busy) busy += b;
    stats.worker_utilization =
        busy /
        (static_cast<double>(worker_busy.size()) * stats.makespan_us);
  }
  stats.mean_latency_us = mean(latencies);
  stats.mean_queue_wait_us = mean(waits);
  std::sort(latencies.begin(), latencies.end());
  stats.p50_latency_us = percentile_sorted(latencies, 50);
  stats.p95_latency_us = percentile_sorted(latencies, 95);
  stats.p99_latency_us = percentile_sorted(latencies, 99);
  stats.max_latency_us = latencies.empty() ? 0 : latencies.back();
  if (stats.batches > 0) {
    stats.mean_batch_size = static_cast<double>(stats.completed) /
                            static_cast<double>(stats.batches);
  }
  // Per-class load picture (one row for a homogeneous configuration).
  const std::vector<std::string> classes = engine.device_classes();
  const std::vector<int> counts = engine.class_counts();
  const std::vector<int>& worker_class = engine.worker_class();
  result.device_loads.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    result.device_loads[c].device = classes[c];
    result.device_loads[c].devices = counts[c];
  }
  for (std::size_t w = 0; w < worker_busy.size(); ++w) {
    result.device_loads[static_cast<std::size_t>(worker_class[w])].busy_us +=
        worker_busy[w];
  }
  for (const BatchRecord& b : result.batches) {
    if (b.killed) continue;
    ++result.device_loads[static_cast<std::size_t>(
        worker_class[static_cast<std::size_t>(b.worker)])].batches;
  }
  if (stats.makespan_us > 0) {
    for (DeviceLoad& load : result.device_loads) {
      load.utilization = load.busy_us / (load.devices * stats.makespan_us);
    }
  }
  return result;
}

}  // namespace ios::serve
