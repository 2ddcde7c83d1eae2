#pragma once
// ShardedRecipeCache: the thread-safe store of optimized schedules an
// ios::Optimizer owns — one strict-LRU map behind one mutex, with
// single-flight misses. A miss registers an in-flight entry for its key,
// releases the lock, and runs the caller-supplied compute function (a
// search); a second thread asking for that key waits on the entry instead
// of searching again, so every configuration is searched at most once per
// residency, while lookups and misses of other keys proceed. The lock is
// held only for one lookup or one insert, never across a search. (The name
// predates the single map; it is kept so callers compile unchanged.)
//
// Eviction policy: strict least-recently-used with a fixed total capacity
// (see util/lru_cache.hpp).

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

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

/// Sizing of the recipe store.
struct RecipeCacheOptions {
  /// Max resident entries (clamped to >= 1); an insert into a full store
  /// evicts the least-recently-used entry first.
  std::size_t capacity = 512;
};

/// Cumulative store counters.
struct RecipeCacheStats {
  std::int64_t hits = 0;       ///< lookups that did not run compute()
  std::int64_t misses = 0;     ///< lookups that ran compute()
  std::int64_t evictions = 0;  ///< entries dropped by the LRU
  std::size_t size = 0;        ///< resident entries
};

/// Thread-safe bounded schedule store: one strict-LRU map, one mutex, and
/// one in-flight entry per key being computed (see the file comment).
class ShardedRecipeCache {
 public:
  /// Creates an empty store holding at most `options.capacity` entries.
  explicit ShardedRecipeCache(RecipeCacheOptions options = {});

  /// Returns the stored recipe for `key`, running `compute` outside the
  /// lock to fill the entry on a miss. A lookup of a key whose compute() is
  /// running counts as a hit and waits for that result — or rethrows its
  /// exception, after which the next lookup computes again. compute() must
  /// not look up its own key. Returns a copy (the entry may be evicted any
  /// time after the call returns). When `computed` is non-null it is set to
  /// whether this call ran compute() — callers sharing the store use it to
  /// keep their own hit/miss counts without racing on the global counters.
  CachedRecipe get_or_compute(const std::string& key,
                              const std::function<CachedRecipe()>& compute,
                              bool* computed = nullptr);

  /// The resident entry's latency_us, counted as a hit and promoted to
  /// most-recently-used; nullopt, counting nothing, when `key` is not
  /// resident (including while it is being computed). The serving hot path
  /// peeks here and needs the batch service time, not a copy of the whole
  /// Schedule.
  std::optional<double> latency_if_cached(const std::string& key);

  /// True if `key` is resident (promotes it to most-recently-used; counts
  /// nothing).
  bool contains(const std::string& key);

  /// Hit/miss/eviction counters and resident size.
  RecipeCacheStats stats() const;

  /// Resident entries.
  std::size_t size() const;

  /// Max resident entries before LRU eviction.
  std::size_t capacity() const { return entries_.capacity(); }

  /// Drops every resident entry; counters and in-flight computes are kept.
  void clear();

 private:
  mutable std::mutex mu_;
  LruCache<CachedRecipe> entries_;
  /// Keys whose compute() is running, with the result their waiters read.
  std::unordered_map<std::string, std::shared_future<CachedRecipe>>
      in_flight_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace ios
