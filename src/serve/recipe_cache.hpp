#pragma once
// The serving layer's names for the recipe store, which the ios::Optimizer
// owns (api/recipe_cache.hpp); the ServingEngine reads its Optimizer's.

#include "api/optimizer.hpp"

/// The inference-serving layer: request traces, dynamic batching, and the
/// trace-driven serving simulator.
namespace ios::serve {

using ios::CachedRecipe;
using ios::RecipeCacheOptions;
using ios::RecipeCacheStats;
using ios::serving_cache_key;
using ios::ShardedRecipeCache;

}  // namespace ios::serve
