#include "api/recipe_cache.hpp"

#include <exception>

namespace ios {

ShardedRecipeCache::ShardedRecipeCache(RecipeCacheOptions options)
    : entries_(options.capacity) {}

CachedRecipe ShardedRecipeCache::get_or_compute(
    const std::string& key, const std::function<CachedRecipe()>& compute,
    bool* computed) {
  std::unique_lock<std::mutex> lock(mu_);
  if (CachedRecipe* hit = entries_.get(key)) {
    ++hits_;
    if (computed) *computed = false;
    return *hit;
  }
  if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
    ++hits_;
    const std::shared_future<CachedRecipe> pending = it->second;
    lock.unlock();
    if (computed) *computed = false;
    return pending.get();
  }
  ++misses_;
  std::promise<CachedRecipe> result;
  in_flight_.emplace(key, result.get_future().share());
  lock.unlock();

  if (computed) *computed = true;
  CachedRecipe recipe;
  try {
    recipe = compute();
  } catch (...) {
    lock.lock();
    in_flight_.erase(key);
    lock.unlock();
    result.set_exception(std::current_exception());
    throw;
  }
  // The insert and the erase happen under one lock, so a lookup sees the
  // key either in flight or resident, never absent in between.
  lock.lock();
  entries_.put(key, recipe);
  in_flight_.erase(key);
  lock.unlock();
  result.set_value(recipe);
  return recipe;
}

std::optional<double> ShardedRecipeCache::latency_if_cached(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const CachedRecipe* hit = entries_.get(key);
  if (hit == nullptr) return std::nullopt;
  ++hits_;
  return hit->latency_us;
}

bool ShardedRecipeCache::contains(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.get(key) != nullptr;
}

RecipeCacheStats ShardedRecipeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RecipeCacheStats{hits_, misses_, entries_.evictions(),
                          entries_.size()};
}

std::size_t ShardedRecipeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ShardedRecipeCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace ios
