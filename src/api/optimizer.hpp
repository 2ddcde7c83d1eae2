#pragma once
// ios::Optimizer — the single-call facade over the paper's whole pipeline:
// build graph → profile with the CostModel → DP search (Algorithm 1) →
// execute and compare against baselines. Callers describe *what* to optimize
// in an OptimizationRequest (a zoo model by name, or an in-memory Graph) and
// get everything the pipeline produces back in one OptimizationResult.
//
// The facade owns a thread-safe *recipe store* (api/recipe_cache.hpp): a
// repeated request — the serving scenario, where the same deployment
// configuration is optimized over and over — skips the DP search and all
// cost-model profiling entirely. Zoo requests are keyed by
// serving_cache_key, the key of the serving engine's own lookups, and
// in-memory graphs by request_cache_key. A miss searches under its key's
// shard lock, so misses on one shard run one at a time; a standalone
// Optimizer has one shard, a strict LRU of configurable capacity (see
// Optimizer::Optimizer). Results can also be persisted as recipe JSON
// (save/load) and re-evaluated later, possibly on a different device or
// batch size.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/recipe_cache.hpp"
#include "core/scheduler.hpp"
#include "place/pool.hpp"
#include "runtime/canonical_cache.hpp"
#include "runtime/cost_model.hpp"
#include "schedule/serialize.hpp"
#include "sim/device.hpp"

/// The IOS reproduction: graph, scheduler, simulator, and serving layers.
namespace ios {

/// Reference points a request may compare the IOS schedule against: the
/// paper's Section 6.1 schedules plus the simulated framework baselines of
/// Figure 7 and the Nimble extension.
enum class Baseline {
  kSequential,     ///< one operator per stage, paper Section 6.1
  kGreedy,         ///< greedy maximal concurrent stages, Section 6.1
  kTensorFlow,     ///< simulated TensorFlow framework baseline (Figure 7)
  kTensorFlowXla,  ///< simulated TensorFlow-XLA baseline (Figure 7)
  kTaso,           ///< simulated TASO baseline (Figure 7)
  kTvmCudnn,       ///< simulated TVM-cuDNN baseline (Figure 7)
  kTensorRT,       ///< simulated TensorRT baseline (Figure 7)
  kTvmAutoTune,    ///< simulated auto-tuned TVM baseline (Figure 7)
  kNimble,         ///< simulated Nimble extension baseline
};

/// Display name of a baseline (matches the Figure 7 framework specs).
const char* baseline_name(Baseline b);

/// Inverse of baseline_name. Throws std::invalid_argument enumerating all
/// baseline names when `name` is unknown.
Baseline baseline_by_name(const std::string& name);

/// Every baseline, in the order of the enum (sequential, greedy, then the
/// Figure 7 frameworks, then Nimble).
std::vector<Baseline> all_baselines();

/// What to optimize: a model (by zoo name or in-memory graph), the device
/// and batch size to specialize for, and the search/profiling settings.
struct OptimizationRequest {
  /// Model zoo name (a models::registry() key). Ignored when `graph` is set.
  std::string model = "inception_v3";
  /// Optimize this in-memory graph instead of a zoo model. The graph carries
  /// its own batch size, so `batch` below is ignored.
  std::optional<Graph> graph;
  /// Device short or full name (device_names()).
  std::string device = "v100";
  /// Heterogeneous device pool. Empty (the default) means "the single
  /// device above". A non-empty pool is consumed by the placement layer:
  /// ios::Placer::place(request) optimizes the request once per pool device
  /// class and returns the per-device recipes plus a latency- and
  /// load-aware placement plan (src/place/placer.hpp). Optimizer::optimize
  /// itself always targets `device` and ignores the pool.
  DevicePool pool{};
  /// Batch size for zoo models.
  int batch = 1;
  /// DP-search settings (variant, pruning, memoization, engine, threads).
  SchedulerOptions options{};
  /// Cost-model profiling protocol (warmup/repeats/noise).
  ProfilingProtocol protocol{};
  /// Baselines to execute and compare against, in result order.
  std::vector<Baseline> baselines{Baseline::kSequential, Baseline::kGreedy};
  /// Path of a persistable profiling database (runtime/profile_db.hpp).
  /// When non-empty, a cache miss loads the database's stage latencies for
  /// this request's profile context before searching (a missing file is an
  /// empty database) and merges the cost model's measurements back
  /// afterwards — so repeat runs across processes do zero redundant
  /// simulations. Each path is parsed once per process and then kept in a
  /// process-wide registry (merges accumulate in memory, every merge is
  /// written through to the file), so concurrent optimize() calls sharing a
  /// path never clobber each other. Loaded entries equal what profiling
  /// would have measured, so the found schedule is unchanged; the path is
  /// therefore not part of the recipe cache key.
  std::string profile_db;
  /// Cross-request reuse (opt-in). When set, a cache miss attaches the
  /// Optimizer's own canonical stage cache (runtime/canonical_cache.hpp) —
  /// so stages with identical kernel streams are simulated once across the
  /// models, blocks, and batch sizes this Optimizer searches — and its
  /// block template cache (BlockTemplateCache), so structurally identical
  /// blocks are solved once. Both live as long as the Optimizer: a fresh
  /// Optimizer starts cold, whatever else the process ran. When profile_db
  /// is also set, the canonical cache is loaded from / merged into the
  /// database's canonical bucket, extending stage reuse across Optimizers
  /// and processes. Reused latencies equal what profiling would have
  /// measured, so the found schedule is unchanged and this flag is not part
  /// of the recipe cache key. Requires a noise-free protocol (optimize()
  /// throws std::invalid_argument otherwise).
  bool cross_reuse = false;

  /// Shorthand for a zoo-model request.
  static OptimizationRequest for_model(std::string name,
                                       std::string device = "v100",
                                       int batch = 1);
  /// Shorthand for an in-memory graph request.
  static OptimizationRequest for_graph(Graph g, std::string device = "v100");
};

/// Latency of one requested baseline next to the IOS schedule.
struct BaselineResult {
  std::string name;      ///< display name (baseline_name())
  double latency_us = 0; ///< baseline latency on the requested device
  double speedup = 0;    ///< baseline latency / IOS latency
};

/// Everything one Optimizer::optimize call produced.
struct OptimizationResult {
  /// The schedule the DP search chose (or the cached one).
  Schedule schedule;
  /// IOS schedule latency on the requested device, microseconds.
  double latency_us = 0;
  /// One entry per requested baseline, request order.
  std::vector<BaselineResult> baselines;
  /// DP search statistics. On a cache hit these are the stats of the search
  /// that originally filled the cache entry.
  SchedulerStats stats;
  /// Persistable recipe; pass to Optimizer::save / Optimizer::evaluate. For
  /// for_graph requests this embeds a copy of the graph — on every call,
  /// store hit or not, so a result is always save()-able.
  Recipe recipe;
  /// True when the schedule came from the recipe store.
  bool cache_hit = false;
  /// Cost-model profiles run by *this* call — 0 on a cache hit, and 0 on a
  /// profile-db-warmed miss whose stages were all measured in an earlier
  /// run.
  std::int64_t new_measurements = 0;
  /// Stage latencies imported from / merged into request.profile_db by this
  /// call (both 0 when no profile_db was set or the recipe cache hit).
  /// With cross_reuse set, canonical-bucket entries are included. A search
  /// that ran no new measurement, without cross_reuse, against a database
  /// already on disk skips the merge, so it reports 0 saved.
  std::int64_t profile_entries_loaded = 0;
  std::int64_t profile_entries_saved = 0;
  /// Cross-request reuse counters of *this* call (all 0 unless
  /// request.cross_reuse was set and the recipe cache missed): stage
  /// measurements answered by the Optimizer's canonical stage cache, how
  /// many of those were recorded by a different model (or loaded from the
  /// profile db), and blocks replayed from its block template cache.
  std::int64_t canonical_hits = 0;
  std::int64_t cross_model_hits = 0;
  std::int64_t block_cache_hits = 0;
  /// Hash of the recipe-store key the request mapped to.
  std::uint64_t fingerprint = 0;

  /// The entry for a named baseline, or nullptr if it was not requested.
  const BaselineResult* baseline(const std::string& name) const;
};

/// Outcome of replaying a saved recipe (Optimizer::evaluate).
struct EvaluationResult {
  std::string device;  ///< full device name the recipe was evaluated on
  int batch = 1;       ///< batch size the evaluation ran at
  double latency_us = 0;             ///< recipe schedule latency
  double sequential_latency_us = 0;  ///< sequential baseline on same device
  double speedup = 0;                ///< sequential / recipe
};

/// Recipe-store counters (see Optimizer::cache_stats).
using OptimizerCacheStats = RecipeCacheStats;

/// The single-call facade over the paper's whole pipeline: build graph →
/// profile → DP search → execute, with a recipe store in front and, for
/// cross_reuse requests, the stage and block caches they share.
/// Thread-safe; one instance can serve concurrent optimize() calls.
class Optimizer {
 public:
  /// Default recipe-store capacity (entries), plenty for every
  /// (model, device, batch) combination of the paper's experiments.
  static constexpr std::size_t kDefaultCacheCapacity = 256;

  /// Creates an optimizer with its own one-shard recipe store holding at
  /// most `cache_capacity` entries (clamped to >= 1). Eviction policy:
  /// strict least-recently-used — every optimize() lookup (hit or insert)
  /// marks its entry as most-recently-used, and the insert that exceeds the
  /// capacity evicts the entry whose last use is oldest.
  explicit Optimizer(std::size_t cache_capacity = kDefaultCacheCapacity)
      : Optimizer(std::make_shared<ShardedRecipeCache>(
            RecipeCacheOptions{1, cache_capacity})) {}

  /// Creates an optimizer around a caller's (possibly shared) store: the
  /// serving engine builds its Optimizer this way, so its per-batch lookups
  /// read the entries optimize() fills. `store` must not be null.
  explicit Optimizer(std::shared_ptr<ShardedRecipeCache> store)
      : store_(std::move(store)) {}

  /// Runs the full pipeline for the request, or serves the schedule from the
  /// recipe store when an equivalent request was optimized before. Baseline
  /// latencies are (re)computed per call — they only need the executor,
  /// never the profiling cost model. Thread-safe; a miss searches under its
  /// key's shard lock, so it never runs twice for one key.
  OptimizationResult optimize(const OptimizationRequest& request) {
    return run(request, /*use_store=*/true);
  }

  /// optimize() without the store: always searches, and neither reads nor
  /// fills the recipe store. The compute function of a caller's own store
  /// lookup, which holds the key's shard lock and must not re-enter the
  /// store. Thread-safe; concurrent calls search concurrently.
  OptimizationResult search(const OptimizationRequest& request) {
    return run(request, /*use_store=*/false);
  }

  /// Executes a recipe's schedule and the sequential baseline. Empty device /
  /// non-positive batch mean "as recorded in the recipe". Zoo recipes are
  /// rebuilt through models::build_model; recipes with an embedded graph are
  /// re-materialized at the requested batch size.
  EvaluationResult evaluate(const Recipe& recipe,
                            const std::string& device = "",
                            int batch = 0) const;

  /// Persists the result's recipe as JSON at `path`.
  static void save(const OptimizationResult& result, const std::string& path);
  /// Loads a recipe persisted with save().
  static Recipe load(const std::string& path);

  /// The recipe store optimize() reads and fills.
  ShardedRecipeCache& store() { return *store_; }
  const ShardedRecipeCache& store() const { return *store_; }

  /// Resident recipe-store entries.
  std::size_t cache_size() const { return store_->size(); }

  /// Max recipe-store entries before LRU eviction kicks in.
  std::size_t cache_capacity() const {
    return store_->num_shards() * store_->shard_capacity();
  }

  /// Hit/miss/eviction counters of the recipe store (counters survive
  /// clear_cache()).
  OptimizerCacheStats cache_stats() const { return store_->stats(); }

  /// Drops every stored recipe (capacity and counters are kept).
  void clear_cache() { store_->clear(); }

  /// Cost-model profiles run by all optimize() and search() calls on this
  /// Optimizer.
  std::int64_t total_measurements() const {
    return total_measurements_.load();
  }

 private:
  /// optimize() when `use_store`, search() otherwise.
  OptimizationResult run(const OptimizationRequest& request, bool use_store);

  std::shared_ptr<ShardedRecipeCache> store_;
  std::atomic<std::int64_t> total_measurements_{0};
  /// Cross-request reuse state (request.cross_reuse); both thread-safe.
  CanonicalStageCache canonical_;
  BlockTemplateCache templates_;
};

/// The recipe-store key of an in-memory graph request: the serialized graph
/// (which covers batch, topology, and every attribute), the canonical device
/// name, and the options that can change the found schedule.
/// SchedulerOptions::num_threads and ::engine are deliberately excluded —
/// the schedule is identical for every thread count and search engine.
/// OptimizationResult::fingerprint is the hash of the key.
std::string request_cache_key(const Graph& g, const std::string& device,
                              const SchedulerOptions& options,
                              const ProfilingProtocol& protocol);

/// The recipe-store key of a zoo request and of every serving lookup: model
/// name, canonical device name, batch size, and the scheduler/profiling
/// settings that can change the found schedule. Cheap to build (no graph
/// serialization) — suitable for the per-batch hot path.
std::string serving_cache_key(const std::string& model,
                              const std::string& device, int batch,
                              const SchedulerOptions& options,
                              const ProfilingProtocol& protocol);

/// The options/protocol suffix of every recipe-cache key: each
/// SchedulerOptions and ProfilingProtocol field that can change the found
/// schedule (num_threads and engine excluded, see
/// request_cache_key; prune/beam_width appended only when prune != kExact so
/// pre-existing keys stay byte-identical). Shared by request_cache_key and
/// serving_cache_key, so the two key schemes can never drift apart on these
/// fields.
std::string scheduler_config_key(const SchedulerOptions& options,
                                 const ProfilingProtocol& protocol);

/// Re-materializes `g` at a different batch size (round-trips through the
/// graph JSON with the batch replaced; op ids are preserved, so existing
/// schedules stay valid).
Graph graph_with_batch(const Graph& g, int batch);

}  // namespace ios
