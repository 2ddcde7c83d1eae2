#pragma once
// CanonicalStageCache: cross-request stage-latency reuse.
//
// The CostModel's regular cache keys stages by stage_fingerprint — ordered
// groups of *operator ids* — so two structurally identical stages from
// different models (or different blocks of the same model) never share an
// entry. The canonical cache keys stages by what the simulator actually
// consumes: the numeric content of the expanded kernel streams (flops,
// bytes, warps, efficiency per kernel, stream boundaries) combined with the
// device/kernel-model/protocol environment. A stage's simulated latency is
// a pure function of exactly that, so equal canonical keys imply equal
// latencies — ResNet-50's fully-connected head can answer Inception V3's.
//
// Entries carry the fingerprint of the graph that recorded them, letting
// the cost model count same-model vs cross-model reuse separately. Reuse is
// strictly opt-in (CostModel::enable_canonical_reuse) because hits make
// measurement statistics depend on what the cache's owner profiled before;
// an ios::Optimizer owns one cache for its lifetime (cross_reuse requests).

#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "util/flat_map.hpp"
#include "util/hash.hpp"

namespace ios {

/// Thread-safe (lock-striped) map from canonical stage keys to simulated
/// latencies, shared by every cost model attached to it. Insert-only: the
/// first value stored for a key wins, which keeps concurrent warm-ups
/// deterministic (every writer computes the same latency for a key).
class CanonicalStageCache {
 public:
  /// A cached latency plus the fingerprint of the graph that recorded it
  /// (0 when installed from a ProfileDb).
  struct Entry {
    double latency_us = 0;     ///< simulated latency of the canonical stage
    std::uint64_t origin = 0;  ///< recording graph's fingerprint (0 = db)
  };

  /// Looks up `key`; empty when the stage was never recorded.
  std::optional<Entry> get(std::uint64_t key) const {
    const Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const Entry* hit = shard.map.find(key)) return *hit;
    return std::nullopt;
  }

  /// Records `latency_us` under `key` unless the key is already present
  /// (first writer wins). Returns the stored entry, and true when this call
  /// inserted it.
  std::pair<Entry, bool> put(std::uint64_t key, double latency_us,
                             std::uint64_t origin) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [slot, fresh] =
        shard.map.try_emplace(key, Entry{latency_us, origin});
    return {*slot, fresh};
  }

  /// Invokes f(key, const Entry&) for every cached stage, unspecified
  /// order. Takes each stripe lock in turn.
  template <typename F>
  void for_each(F&& f) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.for_each(f);
    }
  }

  /// Number of cached stages.
  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.map.size();
    }
    return n;
  }

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    FlatMap64<Entry> map;
  };

  Shard& shard_for(std::uint64_t key) {
    return shards_[shard_index(key, kShards)];
  }
  const Shard& shard_for(std::uint64_t key) const {
    return shards_[shard_index(key, kShards)];
  }

  Shard shards_[kShards];
};

}  // namespace ios
