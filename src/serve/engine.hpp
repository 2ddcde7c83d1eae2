#pragma once
// ios::serve::ServingEngine — the clock-agnostic batching/routing core of
// the serving layer. IOS (the paper) finds the best schedule for one
// (model, device, batch) point; this engine is the piece that makes those
// schedules pay off under multi-user load, factored so that *how time
// advances* is somebody else's problem:
//
//   * the DES Server (serve/server.hpp) drives it with a VirtualClock,
//     advancing simulated time event by event — a fixed trace always
//     produces bit-identical batches, routing, and latencies;
//   * the network daemon (net/daemon.hpp) drives the very same engine with
//     a WallClock — real sockets, real deadlines, identical decisions for
//     identical arrival times.
//
// The engine owns the three decisions of the serving hot path:
//
//   batching   per-model queues; a queue reaching the largest allowed batch
//              size is flushed greedily; a queue whose oldest request has
//              waited max_queue_delay_us is deadline-flushed into the
//              largest allowed size that fits (a queue shorter than the
//              smallest allowed size is served whole);
//   resolution each formed batch's service time comes from the recipe store
//              of the engine's ios::Optimizer, which searches each
//              (model, device class, batch) configuration at most once, for
//              the serving path and planners using optimizer() alike;
//   routing    the batch goes to the worker minimizing predicted completion
//              max(now, free) + service + (service - best_service), where
//              service is the cached schedule latency on the worker's
//              device class — FIFO list scheduling for one class,
//              device-aware routing for a heterogeneous pool.
//
// It is also the system of record for routed batches: a formed batch stays
// outstanding until its driver retire()s it, and kill_worker steals a dead
// worker's outstanding batches and requeues their members — the one
// worker-death recovery path, shared by the DES and the daemon.
//
// Threading: submit/poll/drain/reset mutate queue and worker state and must
// be externally serialized (the DES is single-threaded; the daemon wraps
// them in one mutex). prewarm, counters(), cache(), optimizer(), and
// options() are safe to call concurrently with each other.

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "place/pool.hpp"
#include "serve/clock.hpp"
#include "serve/recipe_cache.hpp"
#include "serve/trace.hpp"

namespace ios::serve {

/// How the dynamic batcher coalesces a model's request queue.
struct BatchingPolicy {
  /// Batch sizes the batcher may form (deduplicated and sorted ascending by
  /// the engine). A queue reaching the largest size is flushed immediately;
  /// a deadline flush picks the largest entry that fits the queue. The
  /// degenerate policy {1} disables batching entirely.
  std::vector<int> batch_sizes = {1, 2, 4, 8};
  /// Max time a request may wait in the queue before its model's queue is
  /// force-flushed, in engine-clock microseconds.
  double max_queue_delay_us = 2000;
};

/// Latency objective and importance of one model's traffic.
struct SloClass {
  /// Target end-to-end latency (arrival -> completion) in engine-clock
  /// microseconds. Infinity (the default) means "no SLO": flushing falls
  /// back to the global max_queue_delay_us timer and requests of the model
  /// never degrade or shed — the PR 6 behavior, bit for bit.
  double slo_us = std::numeric_limits<double>::infinity();
  /// Priority class: when several queues are due at one instant, higher
  /// priority flushes (and therefore dispatches) first; the shed policy
  /// only ever rejects the lowest priority present. Default 0.
  int priority = 0;
};

/// Per-model SLO/priority policy plus the engine-side adaptation knobs
/// (deadline flushing, degrade, shed, starvation bound). The default
/// policy reproduces the plain global-timer engine bit for bit.
struct SloPolicy {
  /// Per-model overrides; models not listed here use `fallback`.
  std::map<std::string, SloClass> models;
  /// Class for models without an explicit entry.
  SloClass fallback{};
  /// Flush a queue when its oldest request's slack against its SLO runs
  /// out — at arrival + slo - (estimated service of the batch the queue
  /// would form) — instead of waiting for the global max_queue_delay_us
  /// timer. Never flushes later than the timer. No effect on models
  /// without a finite SLO.
  bool deadline_flush = true;
  /// Step a deadline flush down to a smaller configured batch size when
  /// the full-size batch would miss the oldest member's SLO and the
  /// smaller one would not (the batch is marked `degraded`). No effect on
  /// models without a finite SLO.
  bool degrade = true;
  /// Reject a queued request at flush time when even an immediate
  /// minimum-size dispatch on the fastest free worker would miss
  /// slo_us * shed_slack_factor — but only while the request is the
  /// lowest priority present across all queues, and never once it has
  /// crossed the starvation bound. Shed requests are reported via
  /// take_shed(), never batched. Off by default.
  bool shed = false;
  /// Slack multiplier on slo_us in the shed test (> 1 sheds later,
  /// < 1 sheds earlier). Must be > 0.
  double shed_slack_factor = 1.0;
  /// A queue whose oldest request has waited this long outranks every
  /// priority class and becomes exempt from shedding until it flushes —
  /// the per-priority starvation bound. Infinity disables promotion.
  double starvation_limit_us = std::numeric_limits<double>::infinity();
};

/// Knobs of the load-shift detection + re-planning loop (the
/// serve::AdaptiveController). Carried in ServerOptions so the DES Server
/// and the wall-clock daemon construct identical controllers; the engine
/// itself never reads them.
struct AdaptiveOptions {
  /// Master switch: off (the default) runs no controller at all.
  bool enabled = false;
  /// EWMA weight of the fast per-model inter-arrival tracker (0, 1].
  double fast_alpha = 0.3;
  /// EWMA weight of the slow tracker the fast one is compared against.
  double slow_alpha = 0.05;
  /// A model whose fast/slow mean-gap ratio leaves
  /// [1/shift_ratio, shift_ratio] flags a load shift. Must be > 1.
  double shift_ratio = 2.0;
  /// The SLO-attainment EWMA (weight fast_alpha) dropping below this
  /// also flags a shift.
  double attainment_floor = 0.9;
  /// Per-model arrivals observed before shift detection arms.
  int warmup_arrivals = 16;
  /// Hysteresis: minimum engine-clock gap between re-plans.
  double min_replan_gap_us = 100000;
  /// Pre-warm the recipe cache for every (model, batch, class) point the
  /// re-plan anticipates.
  bool prewarm = true;
};

/// Configuration shared by every front end over the engine: the DES Server,
/// the network daemon, and a bare engine in tests.
struct ServerOptions {
  /// Device short or full name (device_names()); all workers simulate it.
  /// Ignored when `pool` is non-empty.
  std::string device = "v100";
  /// Heterogeneous device pool (e.g. pool_from_spec("p100,1080tix2")). When
  /// non-empty, the engine runs one executor worker per pool device
  /// instance, each typed by its device class: schedules are resolved per
  /// (model, class, batch) — every class gets its own optimized recipe —
  /// and the batcher routes each formed batch to the worker minimizing its
  /// predicted completion time (ties fall back on queue depth, i.e. the
  /// earlier-free worker). Class names must be registry devices
  /// (device_names()); `device` and `num_workers` are ignored.
  DevicePool pool{};
  /// Number of executor workers replaying batches concurrently (clamped
  /// to >= 1). With a pool, the worker count is the pool's total device
  /// count instead.
  int num_workers = 1;
  /// Dynamic-batching policy shared by all model queues.
  BatchingPolicy batching{};
  /// DP-search options forwarded to the Optimizer on recipe-cache misses.
  SchedulerOptions scheduler{};
  /// Profiling protocol forwarded to the Optimizer on recipe-cache misses.
  ProfilingProtocol protocol{};
  /// Sizing of the recipe store (ignored when the engine is built around an
  /// external store).
  RecipeCacheOptions cache{};
  /// Persistable profiling-database path forwarded to every Optimizer run a
  /// recipe-store miss triggers (see OptimizationRequest::profile_db). A
  /// warm-started engine whose previous life profiled the same
  /// (model, device, batch) configurations re-runs zero simulations.
  std::string profile_db;
  /// Forward OptimizationRequest::cross_reuse on every recipe-cache miss:
  /// stage latencies and solved block layouts are shared across the models
  /// and batch sizes this engine serves (and across processes when
  /// profile_db is set). Reused values equal what profiling would have
  /// measured, so cached recipes are unchanged — the flag is not part of
  /// the serving cache key. Requires a noise-free protocol.
  bool cross_reuse = false;
  /// Per-model latency SLOs, priorities, and the shed/degrade policy. The
  /// default (no SLOs) reproduces the plain global-timer engine bit for
  /// bit.
  SloPolicy slo{};
  /// Load-shift detection + re-planning loop (off by default; consumed by
  /// the drivers, not the engine).
  AdaptiveOptions adaptive{};
};

/// Per-request outcome of a served trace.
struct RequestRecord {
  int index = 0;            ///< position of the request in the trace
  std::string model;        ///< model the request asked for
  double arrival_us = 0;    ///< engine-clock arrival time
  double dispatch_us = 0;   ///< when its batch started on a worker
  double completion_us = 0; ///< when its batch finished
  double latency_us = 0;    ///< completion - arrival (queueing + service)
  int batch_size = 0;       ///< size of the coalesced batch it rode in
  int batch_id = 0;         ///< id of that batch (index into batch records)
  int worker = 0;           ///< executor worker that ran the batch
  std::string device;       ///< device class of that worker
  int priority = 0;         ///< priority class of the request's model
  /// The model's SLO (infinity when it has none).
  double slo_us = std::numeric_limits<double>::infinity();
  bool slo_met = true;      ///< completed within slo_us (false when shed)
  bool shed = false;        ///< rejected by the shed policy, never served
  double shed_us = 0;       ///< when it was shed (0 when served)
};

/// Per-batch outcome of a served trace.
struct BatchRecord {
  int id = 0;               ///< dense batch id, formation order
  std::string model;        ///< model of every request in the batch
  int size = 0;             ///< number of coalesced requests
  double formed_us = 0;     ///< when the batcher closed the batch
  double start_us = 0;      ///< when a worker started executing it
  double completion_us = 0; ///< start + service time
  double service_us = 0;    ///< schedule latency at this batch size
  int worker = 0;           ///< executor worker it ran on
  std::string device;       ///< device class it ran on
  int priority = 0;         ///< priority class of the batch's model
  /// True when the degrade policy stepped this batch down from the size a
  /// plain deadline flush would have formed, to meet the oldest member's
  /// SLO.
  bool degraded = false;
  /// True when a worker death stole this batch before it completed: its
  /// members were requeued into later batches.
  bool killed = false;
};

/// Aggregates of one served trace, all on the engine clock.
struct ServingStats {
  std::int64_t requests = 0;       ///< requests served
  std::int64_t batches = 0;        ///< batches formed
  double makespan_us = 0;          ///< completion time of the last batch
  double throughput_rps = 0;       ///< requests per engine-clock second
  double mean_latency_us = 0;      ///< mean request latency
  double p50_latency_us = 0;       ///< median request latency
  double p95_latency_us = 0;       ///< 95th percentile request latency
  double p99_latency_us = 0;       ///< 99th percentile request latency
  double max_latency_us = 0;       ///< worst request latency
  double mean_queue_wait_us = 0;   ///< mean dispatch - arrival
  double mean_batch_size = 0;      ///< requests / batches
  double worker_utilization = 0;   ///< busy time / (workers * makespan)
  /// Recipe-cache hits by this run's own lookups (counted per lookup, not
  /// diffed from the cache's global counters — exact even when several
  /// engines share one cache concurrently).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;   ///< recipe-cache misses by this run
  // ---- SLO-aware serving (all zero/neutral without an SloPolicy) ----
  std::int64_t completed = 0;        ///< requests actually served (not shed)
  std::int64_t shed = 0;             ///< requests rejected by the shed policy
  std::int64_t slo_met = 0;          ///< completed within their model's SLO
  /// slo_met / requests; sheds count as misses. 1.0 when every request met
  /// its SLO (vacuously with no finite SLO configured).
  double slo_attainment = 1.0;
  std::int64_t degraded_batches = 0; ///< batches the degrade policy shrank
  // ---- adaptive control loop (filled by the driver, not summarize) ----
  std::int64_t replans = 0;               ///< controller re-plans this run
  std::int64_t replan_optimizations = 0;  ///< Optimizer runs those took
  std::int64_t replan_measurements = 0;   ///< new cost-model measurements
};

/// Per-device-class aggregates of one run (one entry per pool class; a
/// single entry for a homogeneous configuration).
struct DeviceLoad {
  std::string device;        ///< device class name
  int devices = 1;           ///< worker instances of the class
  std::int64_t batches = 0;  ///< batches the class executed
  double busy_us = 0;        ///< summed service time across its workers
  double utilization = 0;    ///< busy / (devices * makespan)
};

/// One worker death and the recovery the engine performed for it.
struct KillRecord {
  double time_us = 0;  ///< engine-clock time of the kill
  int worker = 0;      ///< the worker that died
  std::vector<int> stolen_batches;  ///< batch ids, (start_us, id) order
  std::vector<std::int64_t> requeued;  ///< member ids, resubmission order
};

/// Everything a served trace produced.
struct ServingResult {
  std::vector<RequestRecord> records;  ///< per request, trace order
  std::vector<BatchRecord> batches;    ///< per batch, formation order
  ServingStats stats;                  ///< aggregates of this run
  std::vector<DeviceLoad> device_loads;  ///< per device class, pool order
  /// Worker deaths in firing order. A requeued request's record is that of
  /// the batch it finally rode in, with the kill time as its arrival.
  std::vector<KillRecord> kills;
};

/// One request admitted to the engine: a single sample of `model`, carrying
/// a caller-assigned id (the DES uses the trace index, the daemon a dense
/// admission counter) and the engine-clock time it was admitted.
struct EngineRequest {
  std::int64_t id = 0;
  std::string model;
  double arrival_us = 0;
};

/// A batch the engine formed, resolved, and routed: the decision record
/// plus the member requests in arrival order. `record.start_us` and
/// `record.completion_us` are the engine's predictions from its worker
/// bookkeeping — for the DES they *are* the simulated execution; the daemon
/// additionally measures wall time around the real execution.
struct EngineBatch {
  BatchRecord record;
  std::vector<EngineRequest> members;
  /// Recipe-cache outcome of this batch's per-class schedule resolution
  /// (one lookup per device class).
  int resolve_hits = 0;
  int resolve_misses = 0;
};

/// One request the shed policy rejected instead of batching. Collected by
/// the driver via take_shed() after every submit/poll/drain call; the
/// daemon answers them with an error, the DES folds them into the
/// ServingResult.
struct ShedRecord {
  std::int64_t id = 0;    ///< caller-assigned request id
  std::string model;      ///< model the request asked for
  double arrival_us = 0;  ///< engine-clock admission time
  double shed_us = 0;     ///< engine-clock time of the shed decision
  int priority = 0;       ///< priority class of the request's model
  /// The engine's next batch id at the decision: batches with id < seq
  /// formed before this shed, batches with id >= seq after. Together with
  /// take_shed()'s return order this reconstructs the exact interleaving
  /// of sheds and flushes within one poll instant (the property tests
  /// replay it to check the lowest-priority-present invariant).
  int seq = 0;
};

/// What ServingEngine::kill_worker did: the recovery record plus the
/// batches that resubmitting the stolen members formed.
struct KillResult {
  KillRecord record;                ///< what was stolen and requeued
  std::vector<EngineBatch> batches; ///< batches the resubmission formed
};

/// Lifetime optimizer accounting of one engine, across resets.
struct EngineCounters {
  std::int64_t optimizations = 0;  ///< recipe-cache misses -> Optimizer runs
  std::int64_t measurements = 0;   ///< cost-model profiles those runs took
};

/// The clock-agnostic batching/routing engine (see the file comment for the
/// model and the threading contract).
class ServingEngine {
 public:
  /// Builds an engine reading time from `clock` (not owned, must outlive
  /// the engine) whose Optimizer owns a recipe store sized by
  /// `options.cache` — or shares `cache` when non-null, so several engines
  /// or servers reuse each other's optimized schedules.
  ServingEngine(ServerOptions options, TimeSource* clock,
                std::shared_ptr<ShardedRecipeCache> cache = nullptr);

  /// Admits one single-sample request for `model` at the clock's current
  /// time and greedily forms any full max-size batches this enables.
  /// Arrival times must be non-decreasing across submit/poll/drain calls
  /// (throws std::invalid_argument otherwise); unknown models throw from
  /// the registry on batch resolution.
  std::vector<EngineBatch> submit(std::int64_t id, const std::string& model);

  /// Fires every batching deadline due at the clock's current time: each
  /// queue whose oldest request has waited max_queue_delay_us is flushed
  /// into the largest allowed batch sizes that fit. Due queues flush in
  /// deadline order (ties: arming order), exactly like the DES event heap.
  std::vector<EngineBatch> poll();

  /// The earliest armed flush deadline, or +infinity when no queue is
  /// waiting. Drivers sleep (daemon) or advance the virtual clock (DES) to
  /// this time, then poll().
  double next_deadline_us() const;

  /// Flushes every queue immediately, deadline or not — the daemon's
  /// graceful-drain path. Queues flush in arming order. Never sheds or
  /// degrades: every queued request is served.
  std::vector<EngineBatch> drain();

  /// Returns (and clears) the requests the shed policy rejected since the
  /// last take_shed()/reset(), in decision order. Empty unless
  /// options().slo.shed is on. Mutates run state: externally serialized
  /// like submit/poll/drain.
  std::vector<ShedRecord> take_shed();

  /// The SLO class of `model` under this engine's policy (the explicit
  /// per-model entry, or the fallback).
  const SloClass& slo_for(const std::string& model) const;

  /// Queued (admitted but not yet batched) requests across all models.
  std::size_t queued() const;

  /// Per-model queue depths (non-empty queues only), in deterministic
  /// model-name order — the daemon's `health` verb. Externally serialized
  /// like submit/poll/drain.
  std::vector<std::pair<std::string, std::size_t>> queue_depths() const;

  /// Marks a formed batch finished (in any order), so no later kill steals
  /// it. False when it is not outstanding: a kill stole it (its members
  /// ride in another batch), it was retired before, or reset() forgot it.
  bool retire(int batch_id);

  /// Formed batches neither retired nor stolen since the last reset().
  std::size_t outstanding() const { return outstanding_.size(); }

  /// Marks `worker` dead now and steals its outstanding batches (in flight
  /// or queued) in (start_us, batch id) order, resubmitting their members
  /// through submit() at the current time. Returns the record plus the
  /// batches the resubmission formed, for the driver to dispatch. Throws
  /// std::out_of_range on a bad index, std::invalid_argument when the
  /// worker is already dead, and std::runtime_error, changing no state,
  /// when the last alive worker holds outstanding batches. Killing it with
  /// nothing outstanding is allowed; the next formed batch then throws
  /// std::runtime_error. reset() revives every worker.
  KillResult kill_worker(int worker);

  /// True when `worker` has not been killed since construction or the last
  /// reset(). Throws std::out_of_range on a bad index.
  bool worker_alive(int worker) const;

  /// Workers still alive (num_workers minus kills since the last reset()).
  int alive_workers() const;

  /// Alive workers of device class `cls` (an index into device_classes()).
  /// Zero means the class is wiped out — no batch routes there and its
  /// service time no longer anchors the routing inflation penalty.
  int alive_in_class(std::size_t cls) const;

  /// Forgets queued requests, outstanding batches, and worker bookkeeping
  /// for a fresh run; the recipe cache and lifetime counters are kept. The
  /// driver resets its clock alongside (VirtualClock::reset).
  void reset();

  /// Optimizes every (model, configured batch size, worker device class)
  /// triple into the recipe cache up front, fanning the misses out over
  /// `threads` host threads (<= 0 = one per hardware thread). The cached
  /// results are identical to lazy misses — prewarming changes wall-clock
  /// cost, never engine-clock latencies.
  void prewarm(const std::vector<std::string>& models, int threads = 1);

  /// Lifetime Optimizer invocation/measurement counters (across resets).
  EngineCounters counters() const;

  /// The recipe store this engine resolves schedules through: its
  /// Optimizer's.
  ShardedRecipeCache& cache() { return optimizer_.store(); }
  const ShardedRecipeCache& cache() const { return optimizer_.store(); }

  /// The Optimizer that owns cache(). Planners that optimize() through it
  /// fill the entries the serving path reads, and hit the ones it filled.
  Optimizer& optimizer() { return optimizer_; }

  /// The normalized options (batch sizes deduplicated/sorted, worker count
  /// clamped, device names canonicalized) the engine actually runs with.
  const ServerOptions& options() const { return options_; }

  /// Per-worker busy time (summed service) since the last reset.
  const std::vector<double>& worker_busy() const { return worker_busy_; }

  /// Worker index -> device-class index (into device_classes()).
  const std::vector<int>& worker_class() const { return worker_class_; }

  /// Canonical device name per class, pool order (one entry when
  /// homogeneous).
  std::vector<std::string> device_classes() const;

  /// Worker instances per class, matching device_classes().
  std::vector<int> class_counts() const;

  /// The injected time source (e.g. for drivers that need to re-read now).
  TimeSource& clock() { return *clock_; }

 private:
  /// One device class the engine's workers are typed by.
  struct WorkerClass {
    std::string device;    ///< canonical device name
    std::string key_part;  ///< "\n<device>\nbatch=" serving-key fragment
    int count = 1;         ///< workers of this class
  };

  /// A formed batch a kill could still steal.
  struct Outstanding {
    int worker = 0;
    double start_us = 0;
    std::vector<EngineRequest> members;
  };

  /// One model's pending queue.
  struct ModelQueue {
    std::deque<EngineRequest> pending;  ///< arrival order
    double flush_at = std::numeric_limits<double>::infinity();
    long arm_seq = 0;  ///< when flush_at was (re)armed — DES event order
    /// The model's SLO class (resolved once on queue creation; points into
    /// options_.slo, which is immutable after construction).
    const SloClass* slo = nullptr;
  };

  /// The service latency of (model, batch) on worker class `cls`, from the
  /// recipe store, searching on a miss — the per-batch hot path, which must
  /// not copy a Schedule per dispatch.
  double resolve_latency(const std::string& model, int batch, std::size_t cls,
                         bool* computed = nullptr);

  /// Searches (model, batch) on `device` and accounts it in the lifetime
  /// counters — the compute function behind resolve_latency.
  CachedRecipe optimize_config(const std::string& model, int batch,
                               const std::string& device);

  /// The cache key for (model, batch) on worker class `cls` under this
  /// engine's options (serving_cache_key with the constant device/config
  /// suffixes precomputed).
  std::string cache_key(const std::string& model, int batch,
                        std::size_t cls) const;

  /// Closes a batch of the first `size` queued requests of `q` at time
  /// `now`, resolves its per-class service times, and routes it (see the
  /// file comment). Appends to `out`.
  void form_batch(const std::string& model, ModelQueue& q, int size,
                  double now, bool degraded, std::vector<EngineBatch>& out);

  /// The largest allowed batch size fitting `len` queued requests; a queue
  /// shorter than the smallest allowed size is flushed whole.
  int deadline_batch_size(std::size_t len) const;

  /// The queue the requests of `model` wait in, creating it (and resolving
  /// its SLO class) on first use.
  ModelQueue& queue_for(const std::string& model);

  /// When `q` must flush for its oldest request: the max_queue_delay_us
  /// timer, pulled earlier to the request's SLO slack point
  /// (arrival + slo - estimated service) when its model has a finite SLO
  /// and deadline flushing is on. The slack point is itself pulled earlier
  /// by the earliest-free worker's backlog at `now` — a dispatch queued
  /// behind busy workers must leave sooner to make the same deadline —
  /// unless the backlog alone already makes the deadline hopeless, in
  /// which case the plain slack point stands (keep batching; rushing a
  /// partial batch out only burns capacity).
  double queue_flush_time(const std::string& model, const ModelQueue& q,
                          double now);

  /// Cheapest service estimate of (model, size): the minimum cached
  /// schedule latency across alive worker classes (0 when none is alive —
  /// form_batch throws before the estimate matters).
  double min_service_estimate(const std::string& model, int size);

  /// Earliest time any alive worker is free, but not before `now`.
  double earliest_free_us(double now) const;

  /// The priority `q` flushes at when due at `now`: its SLO class
  /// priority, promoted above every class once its oldest request has
  /// waited past the starvation bound.
  int effective_priority(const ModelQueue& q, double now) const;

  /// The lowest SLO-class priority among all queued requests (INT_MAX when
  /// nothing is queued).
  int lowest_queued_priority() const;

  /// Sheds `q`'s oldest request at `now` when the shed policy condemns it
  /// (hopeless against its SLO and the lowest priority present); returns
  /// true when it did.
  bool maybe_shed(const std::string& model, ModelQueue& q, double now);

  /// The batch size a deadline flush of `q` should actually form: `size`,
  /// stepped down to a smaller configured size when only that meets the
  /// oldest member's SLO (sets *degraded).
  int degraded_size(const std::string& model, ModelQueue& q, int size,
                    double now, bool* degraded);

  /// Re-arms `q`'s flush deadline for its current oldest request, against
  /// the worker backlog as of `now`.
  void arm_flush(const std::string& model, ModelQueue& q, double now);

  /// Re-arms every queue's flush deadline. Called after a dispatch grows
  /// the worker backlog: queues armed against the old (smaller) backlog
  /// hold flush times that are now too late for their SLOs. Deadlines
  /// that do not depend on the backlog (the plain timer, SLO-less
  /// queues) recompute to the same value and keep their arming order.
  void rearm_all(double now);

  /// Flushes one due queue at `now` (the poll/drain inner loop).
  void flush_queue(const std::string& model, ModelQueue& q, double now,
                   bool ignore_deadline, std::vector<EngineBatch>& out);

  /// Reads the clock and enforces monotonicity across engine calls.
  double advance_now();

  ServerOptions options_;
  TimeSource* clock_;
  /// Worker classes (one for a homogeneous configuration, pool order
  /// otherwise) and each worker's class index; built once in the ctor.
  std::vector<WorkerClass> classes_;
  std::vector<int> worker_class_;
  std::string config_key_part_;
  Optimizer optimizer_;

  // ---- per-run state (cleared by reset) ----
  std::map<std::string, ModelQueue> queues_;  ///< deterministic iteration
  std::vector<double> worker_free_;
  std::vector<double> worker_busy_;
  std::vector<char> worker_dead_;  ///< kill_worker flags (reset revives)
  std::vector<int> class_alive_;   ///< alive workers per class
  int next_batch_id_ = 0;
  long next_arm_seq_ = 0;
  double last_now_ = 0;
  std::vector<ShedRecord> shed_;  ///< shed decisions since last take_shed
  std::map<int, Outstanding> outstanding_;  ///< by batch id
  /// Scratch: per-class service times of the batch being formed (kept out
  /// of the per-dispatch hot loop).
  std::vector<double> service_;

  mutable std::mutex counters_mu_;
  EngineCounters counters_;
};

/// Builds the per-request records and aggregate statistics from a stream of
/// engine batches plus the shed decisions of the run — the one
/// summarization path shared by the DES Server and any engine driver
/// (pinned by the DES/engine equivalence tests). Request ids must lie in
/// [0, num_requests) and every id must appear exactly once, as a member of
/// a batch not marked `killed` or as a shed; `records` come back in id
/// order. Latency percentiles, throughput, and mean batch size are over
/// completed (non-shed) requests; slo_attainment counts sheds as misses.
/// Killed batches count in stats.batches only.
ServingResult summarize(std::vector<EngineBatch> batches,
                        std::vector<ShedRecord> sheds,
                        const ServingEngine& engine, std::size_t num_requests);

/// summarize without sheds (a run with the shed policy off).
ServingResult summarize(std::vector<EngineBatch> batches,
                        const ServingEngine& engine, std::size_t num_requests);

}  // namespace ios::serve
