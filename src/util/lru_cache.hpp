#pragma once
// Bounded string-keyed LRU map. The recipe store (api/recipe_cache.hpp) is
// one, which keeps memory bounded under long-running serving workloads:
// every lookup or insert promotes the entry to most-recently-used, and an
// insert that would exceed the capacity evicts the least-recently-used
// entry first.
//
// Not thread-safe by itself — the recipe store guards its map with its own
// mutex.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ios {

template <typename Value>
class LruCache {
 public:
  /// A cache holding at most `capacity` entries (clamped to >= 1).
  explicit LruCache(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Entries evicted over the cache's lifetime.
  std::int64_t evictions() const { return evictions_; }

  /// Looks up `key` and, on a hit, promotes the entry to most-recently-used.
  /// Returns nullptr on a miss. The pointer stays valid until the entry is
  /// evicted or the cache is cleared.
  Value* get(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or overwrites `key`, promotes it to most-recently-used, and
  /// evicts least-recently-used entries while the cache is over capacity.
  /// Returns a reference to the stored value (valid until eviction/clear).
  Value& put(std::string key, Value value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return it->second->second;
    }
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    while (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    assert(index_.size() == order_.size());
    return order_.front().second;
  }

  void clear() {
    index_.clear();
    order_.clear();
  }

  /// Keys from most- to least-recently-used (exposed for eviction tests).
  std::vector<std::string> keys_by_recency() const {
    std::vector<std::string> keys;
    keys.reserve(order_.size());
    for (const auto& [key, value] : order_) keys.push_back(key);
    return keys;
  }

 private:
  std::size_t capacity_;
  /// Front = most recently used; back = next eviction victim.
  std::list<std::pair<std::string, Value>> order_;
  std::unordered_map<std::string,
                     typename std::list<std::pair<std::string, Value>>::iterator>
      index_;
  std::int64_t evictions_ = 0;
};

}  // namespace ios
