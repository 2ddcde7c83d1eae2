#pragma once
// ShardedRecipeCache: the thread-safe store of optimized schedules an
// ios::Optimizer owns — one shard (a plain strict LRU) for a standalone
// Optimizer, N independently locked shards for the serving engine's, whose
// front-end threads resolving different configurations then never contend
// on one lock. A lookup miss runs the caller-supplied compute function (a
// search) while holding only that key's shard lock — misses on *different*
// shards search in parallel, and a second thread asking for the same key
// blocks until the first thread's result is cached, so every configuration
// is searched at most once.
//
// Eviction policy: per shard, strict least-recently-used with a fixed
// capacity (see util/lru_cache.hpp). Keys are distributed over shards by a
// mixed 64-bit hash of the key string, so total capacity is
// num_shards * shard_capacity.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "schedule/schedule.hpp"
#include "util/lru_cache.hpp"

namespace ios {

/// A cached optimization product: everything the serving executor needs to
/// replay one (model, device, batch) configuration without re-searching.
struct CachedRecipe {
  /// The IOS schedule chosen by the Optimizer for this configuration.
  Schedule schedule;
  /// Executor latency of `schedule` on the configuration's device, in
  /// microseconds — the batch service time the serving simulation charges.
  double latency_us = 0;
  /// Statistics of the DP search that produced the schedule.
  SchedulerStats stats;
  /// Cost-model profiles the search ran (0 when a profile database already
  /// held every stage latency).
  std::int64_t measurements = 0;
};

/// Sizing knobs for the sharded cache.
struct RecipeCacheOptions {
  /// Number of independently locked shards (clamped to >= 1).
  std::size_t num_shards = 8;
  /// Max entries per shard; the LRU entry of a full shard is evicted first.
  std::size_t shard_capacity = 64;
};

/// Cumulative cache counters, aggregated over all shards.
struct RecipeCacheStats {
  std::int64_t hits = 0;       ///< lookups answered from a shard
  std::int64_t misses = 0;     ///< lookups that had to run compute()
  std::int64_t evictions = 0;  ///< entries dropped by per-shard LRU
  std::size_t size = 0;        ///< resident entries across all shards
};

/// Thread-safe bounded schedule store: N independently locked shards, each
/// a strict-LRU map (see the file comment for the full contract).
class ShardedRecipeCache {
 public:
  /// Creates `options.num_shards` empty shards.
  explicit ShardedRecipeCache(RecipeCacheOptions options = {});

  /// Returns the cached recipe for `key`, running `compute` to fill the
  /// entry on a miss. The shard lock is held across compute(), so a given
  /// key is computed at most once even under concurrent lookups; lookups
  /// hashing to other shards proceed concurrently. compute() must not
  /// re-enter the cache. Returns a copy (the entry may be evicted any time
  /// after the call returns). When `computed` is non-null it is set to
  /// whether this call ran compute() — callers sharing the cache use it to
  /// keep their own hit/miss counts without racing on the global counters.
  CachedRecipe get_or_compute(const std::string& key,
                              const std::function<CachedRecipe()>& compute,
                              bool* computed = nullptr);

  /// get_or_compute, but returning only the entry's latency_us. The serving
  /// hot path dispatches one batch per lookup and needs its service time,
  /// not a copy of the whole Schedule.
  double latency_or_compute(const std::string& key,
                            const std::function<CachedRecipe()>& compute,
                            bool* computed = nullptr);

  /// True if `key` is resident (promotes it to most-recently-used).
  bool contains(const std::string& key);

  /// Aggregated hit/miss/eviction counters and resident size.
  RecipeCacheStats stats() const;

  /// Resident entries across all shards.
  std::size_t size() const;

  /// Number of independently locked shards.
  std::size_t num_shards() const { return shards_.size(); }

  /// Max entries per shard before LRU eviction.
  std::size_t shard_capacity() const { return shard_capacity_; }

  /// The shard index `key` hashes to (exposed for shard-independence tests).
  std::size_t shard_of(const std::string& key) const;

  /// Drops every entry; counters are kept.
  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    LruCache<CachedRecipe> entries;
    std::int64_t hits = 0;
    std::int64_t misses = 0;

    explicit Shard(std::size_t capacity) : entries(capacity) {}
  };

  std::size_t shard_capacity_;
  /// unique_ptr because Shard owns a mutex and must not move when the
  /// vector is built.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ios
