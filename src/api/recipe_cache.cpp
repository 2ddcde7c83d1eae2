#include "api/recipe_cache.hpp"

#include "util/hash.hpp"

namespace ios {

ShardedRecipeCache::ShardedRecipeCache(RecipeCacheOptions options)
    : shard_capacity_(options.shard_capacity < 1 ? 1
                                                 : options.shard_capacity) {
  const std::size_t n = options.num_shards < 1 ? 1 : options.num_shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_capacity_));
  }
}

std::size_t ShardedRecipeCache::shard_of(const std::string& key) const {
  return hash_bytes(key) % shards_.size();
}

CachedRecipe ShardedRecipeCache::get_or_compute(
    const std::string& key, const std::function<CachedRecipe()>& compute,
    bool* computed) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (CachedRecipe* hit = shard.entries.get(key)) {
    ++shard.hits;
    if (computed) *computed = false;
    return *hit;
  }
  ++shard.misses;
  if (computed) *computed = true;
  return shard.entries.put(key, compute());
}

double ShardedRecipeCache::latency_or_compute(
    const std::string& key, const std::function<CachedRecipe()>& compute,
    bool* computed) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (CachedRecipe* hit = shard.entries.get(key)) {
    ++shard.hits;
    if (computed) *computed = false;
    return hit->latency_us;
  }
  ++shard.misses;
  if (computed) *computed = true;
  return shard.entries.put(key, compute()).latency_us;
}

bool ShardedRecipeCache::contains(const std::string& key) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.entries.get(key) != nullptr;
}

RecipeCacheStats ShardedRecipeCache::stats() const {
  RecipeCacheStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->entries.evictions();
    s.size += shard->entries.size();
  }
  return s;
}

std::size_t ShardedRecipeCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->entries.size();
  }
  return n;
}

void ShardedRecipeCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
  }
}

}  // namespace ios
