#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/recipe_cache.hpp"
#include "util/lru_cache.hpp"
#include "util/thread_pool.hpp"

namespace ios {
namespace {

using serve::CachedRecipe;
using serve::RecipeCacheOptions;
using serve::RecipeCacheStats;
using serve::ShardedRecipeCache;

CachedRecipe recipe_with_latency(double latency_us) {
  CachedRecipe r;
  r.latency_us = latency_us;
  return r;
}

// ---- LruCache ------------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_EQ(cache.size(), 2u);

  // Touch "a" so "b" becomes the LRU entry, then overflow.
  ASSERT_NE(cache.get("a"), nullptr);
  cache.put("c", 3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.get("b"), nullptr);
  ASSERT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(*cache.get("a"), 1);
  ASSERT_NE(cache.get("c"), nullptr);

  // Recency order after the gets above: c was inserted, then a and c
  // were touched — most recent last touched.
  const std::vector<std::string> order = cache.keys_by_recency();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "c");
  EXPECT_EQ(order[1], "a");
}

TEST(LruCache, PutOverwritesAndPromotes) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  cache.put("a", 10);  // overwrite promotes "a"; "b" is now LRU
  cache.put("c", 3);
  EXPECT_EQ(cache.get("b"), nullptr);
  ASSERT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(*cache.get("a"), 10);
}

TEST(LruCache, CapacityClampedToOne) {
  LruCache<int> cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("a"), nullptr);
  ASSERT_NE(cache.get("b"), nullptr);
}

TEST(LruCache, ClearDropsEntriesKeepsEvictionCount) {
  LruCache<int> cache(1);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_EQ(cache.evictions(), 1);
  cache.clear();
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.get("b"), nullptr);
}

// ---- ShardedRecipeCache --------------------------------------------------

TEST(ShardedRecipeCache, ComputesEachKeyOnceAndCountsHits) {
  ShardedRecipeCache cache(RecipeCacheOptions{32});
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return recipe_with_latency(42);
  };

  EXPECT_DOUBLE_EQ(cache.get_or_compute("k", compute).latency_us, 42);
  EXPECT_DOUBLE_EQ(cache.get_or_compute("k", compute).latency_us, 42);
  EXPECT_EQ(computes, 1);
  EXPECT_TRUE(cache.contains("k"));
  EXPECT_FALSE(cache.contains("other"));

  const RecipeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  // contains() counts as lookups too: one hit for "k", one miss for "other"
  // never materializes an entry, so only get_or_compute misses are counted.
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ShardedRecipeCache, PerShardLruEviction) {
  // Capacity 1: the second key must evict the first.
  ShardedRecipeCache cache(RecipeCacheOptions{1});
  int computes = 0;
  const auto compute = [&] { return recipe_with_latency(++computes); };

  EXPECT_DOUBLE_EQ(cache.get_or_compute("a", compute).latency_us, 1);
  EXPECT_DOUBLE_EQ(cache.get_or_compute("b", compute).latency_us, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 1u);
  // "a" was evicted: recomputed with a fresh value.
  EXPECT_DOUBLE_EQ(cache.get_or_compute("a", compute).latency_us, 3);
}

// Misses on two different keys must be computable concurrently: thread A's
// compute() blocks until thread B's compute() has run. Were compute() run
// under the store's lock, this cross-dependency would deadlock (the test
// then fails by timeout instead of hanging).
TEST(ShardedRecipeCache, MissesOnDifferentShardsRunConcurrently) {
  ShardedRecipeCache cache(RecipeCacheOptions{32});
  const std::string key_a = "key-a";
  const std::string key_b = "key-b";

  std::promise<void> b_computed;
  std::shared_future<void> b_done = b_computed.get_future().share();

  ThreadPool pool(2);
  std::future<bool> a = pool.submit([&] {
    bool b_ran = false;
    cache.get_or_compute(key_a, [&] {
      b_ran = b_done.wait_for(std::chrono::seconds(10)) ==
              std::future_status::ready;
      return recipe_with_latency(1);
    });
    return b_ran;
  });
  std::future<void> b = pool.submit([&] {
    cache.get_or_compute(key_b, [&] {
      b_computed.set_value();
      return recipe_with_latency(2);
    });
  });

  EXPECT_TRUE(a.get()) << "a miss blocked a miss on another key";
  b.get();
  EXPECT_EQ(cache.stats().misses, 2);
}

// compute() may look up any key but its own. The outer lookup runs on a
// detached thread that shares ownership of the store, so a store that
// computed under its lock would fail this test by timeout (the nested
// lookup self-deadlocks) instead of hanging the binary.
TEST(ShardedRecipeCache, ComputeMayLookUpAnotherKey) {
  auto cache = std::make_shared<ShardedRecipeCache>(RecipeCacheOptions{4});
  auto outer = std::make_shared<std::promise<double>>();
  std::future<double> done = outer->get_future();
  std::thread([cache, outer] {
    const CachedRecipe a = cache->get_or_compute("a", [&] {
      return recipe_with_latency(
          cache->get_or_compute("b", [] { return recipe_with_latency(2); })
              .latency_us +
          1);
    });
    outer->set_value(a.latency_us);
  }).detach();

  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a lookup inside compute() deadlocked";
  EXPECT_DOUBLE_EQ(done.get(), 3);
  EXPECT_TRUE(cache->contains("a"));
  EXPECT_TRUE(cache->contains("b"));
  EXPECT_EQ(cache->stats().misses, 2);
}

// A resident key is answered while another key's compute() is still
// running: no search holds the lock a hit needs.
TEST(ShardedRecipeCache, HitReturnsWhileAnotherKeyComputes) {
  ShardedRecipeCache cache(RecipeCacheOptions{4});
  cache.get_or_compute("b", [] { return recipe_with_latency(2); });

  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> release = release_a.get_future().share();
  ThreadPool pool(2);
  std::future<void> a = pool.submit([&] {
    cache.get_or_compute("a", [&] {
      a_started.set_value();
      release.wait_for(std::chrono::seconds(10));
      return recipe_with_latency(1);
    });
  });
  a_started.get_future().wait();
  std::future<double> b = pool.submit([&] {
    return cache.get_or_compute("b", [] { return CachedRecipe{}; })
        .latency_us;
  });
  const bool b_answered =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release_a.set_value();
  a.get();

  EXPECT_TRUE(b_answered) << "a hit waited for another key's compute()";
  EXPECT_DOUBLE_EQ(b.get(), 2);
  const RecipeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
}

// Lookups that wait on an in-flight key share its outcome: when compute()
// throws, each waiter rethrows that exception instead of computing, and the
// key is not stored, so the next lookup computes again. Both threads are
// joined before the shared exception is read.
TEST(ShardedRecipeCache, WaitersRethrowAFailedComputeAndTheNextLookupRetries) {
  ShardedRecipeCache cache(RecipeCacheOptions{4});
  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release = release_first.get_future().share();
  std::atomic<int> waiter_computes{0};
  std::exception_ptr first_error;
  std::exception_ptr waiter_error;

  std::thread first([&] {
    try {
      cache.get_or_compute("k", [&]() -> CachedRecipe {
        first_started.set_value();
        release.wait_for(std::chrono::seconds(10));
        throw std::runtime_error("search failed");
      });
    } catch (...) {
      first_error = std::current_exception();
    }
  });
  first_started.get_future().wait();
  std::thread waiter([&] {
    try {
      cache.get_or_compute("k", [&] {
        waiter_computes.fetch_add(1);
        return recipe_with_latency(7);
      });
    } catch (...) {
      waiter_error = std::current_exception();
    }
  });
  // The waiter counts its hit before it waits; bounded, so a store that
  // blocks the waiter on its lock fails below instead of hanging here.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache.stats().hits == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release_first.set_value();
  first.join();
  waiter.join();

  EXPECT_TRUE(first_error != nullptr);
  ASSERT_TRUE(waiter_error != nullptr) << "the waiter did not rethrow";
  try {
    std::rethrow_exception(waiter_error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "search failed");
  }
  EXPECT_EQ(waiter_computes.load(), 0);
  EXPECT_FALSE(cache.contains("k"));

  bool computed = false;
  EXPECT_DOUBLE_EQ(
      cache.get_or_compute("k", [] { return recipe_with_latency(7); },
                           &computed)
          .latency_us,
      7);
  EXPECT_TRUE(computed);
  const RecipeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ShardedRecipeCache, LatencyIfCachedCountsOnlyResidentHits) {
  ShardedRecipeCache cache(RecipeCacheOptions{4});
  EXPECT_FALSE(cache.latency_if_cached("k").has_value());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);

  cache.get_or_compute("k", [] { return recipe_with_latency(5); });
  const std::optional<double> latency = cache.latency_if_cached("k");
  ASSERT_TRUE(latency.has_value());
  EXPECT_DOUBLE_EQ(*latency, 5);
  const RecipeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ShardedRecipeCache, ConcurrentLookupsComputeEachKeyExactlyOnce) {
  ShardedRecipeCache cache(RecipeCacheOptions{512});
  constexpr int kKeys = 40;
  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> computes{0};

  ThreadPool pool(kThreads);
  std::vector<std::future<void>> jobs;
  for (int t = 0; t < kThreads; ++t) {
    jobs.push_back(pool.submit([&, t] {
      // Each thread walks the keys from a different offset, so inserts and
      // lookups of every key interleave across threads.
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          const int k = (i + t * 7) % kKeys;
          const std::string key = "key-" + std::to_string(k);
          const CachedRecipe r = cache.get_or_compute(key, [&] {
            computes.fetch_add(1);
            return recipe_with_latency(k);
          });
          EXPECT_DOUBLE_EQ(r.latency_us, k);
        }
      }
    }));
  }
  for (auto& j : jobs) j.get();

  EXPECT_EQ(computes.load(), kKeys);  // one in-flight entry per key
  const RecipeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits, kThreads * kRounds * kKeys - kKeys);
  EXPECT_EQ(stats.size, static_cast<std::size_t>(kKeys));
  EXPECT_EQ(stats.evictions, 0);
}

}  // namespace
}  // namespace ios
