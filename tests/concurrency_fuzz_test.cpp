// Concurrency and randomized-model fuzz tests for the repo's hand-rolled
// containers: util/flat_map.hpp (FlatMap64/FlatSet64), util/lru_cache.hpp
// (LruCache), and the serving layer's ShardedRecipeCache. Each sweep drives
// the container with a seeded random operation sequence and cross-checks
// every observable against a trivially correct reference model
// (std::unordered_map / a list-based reference LRU); the recipe store is
// additionally hammered from many threads, where its contract (each key
// computed at most once per residency, values never torn) must hold for
// every interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/recipe_cache.hpp"
#include "util/flat_map.hpp"
#include "util/hash.hpp"
#include "util/lru_cache.hpp"
#include "util/rng.hpp"

namespace ios {
namespace {

using serve::CachedRecipe;
using serve::RecipeCacheOptions;
using serve::RecipeCacheStats;
using serve::ShardedRecipeCache;

// ---------------------------------------------------------------------------
// FlatMap64 vs std::unordered_map
// ---------------------------------------------------------------------------

class FlatMapFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatMapFuzzTest, MatchesUnorderedMapOnRandomOps) {
  Rng rng(GetParam());
  FlatMap64<int> map;
  std::unordered_map<std::uint64_t, int> ref;

  // Keys cluster in a small range (plus the tricky zero key) so inserts
  // collide with finds often; ops mix emplace / overwrite / lookup.
  const auto random_key = [&] {
    return rng.bernoulli(0.05) ? 0
                               : static_cast<std::uint64_t>(
                                     rng.uniform_int(200));
  };
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t key = random_key();
    switch (rng.uniform_int(3)) {
      case 0: {
        const int value = rng.uniform_int(1000);
        const auto [slot, inserted] = map.try_emplace(key, value);
        const auto [it, ref_inserted] = ref.try_emplace(key, value);
        EXPECT_EQ(inserted, ref_inserted);
        EXPECT_EQ(*slot, it->second);
        break;
      }
      case 1: {
        const int value = rng.uniform_int(1000);
        EXPECT_EQ(map.insert_or_assign(key, value), value);
        ref[key] = value;
        break;
      }
      default: {
        const int* found = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }

  // for_each visits exactly the reference contents.
  std::unordered_map<std::uint64_t, int> seen;
  map.for_each([&](std::uint64_t key, const int& value) {
    EXPECT_TRUE(seen.emplace(key, value).second);
  });
  EXPECT_EQ(seen, ref);
}

TEST_P(FlatMapFuzzTest, FrozenTableSupportsConcurrentReaders) {
  Rng rng(GetParam() ^ 0x5eedf00dULL);
  FlatMap64<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int i = 0; i < 500; ++i) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(1000));
    map.try_emplace(key, key * 3);
    ref.try_emplace(key, key * 3);
  }

  // The wave engine's contract: no writers => any number of readers. Every
  // thread must see exactly the frozen contents.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng thread_rng(GetParam() + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        const auto key =
            static_cast<std::uint64_t>(thread_rng.uniform_int(1000));
        const std::uint64_t* found = map.find(key);
        const auto it = ref.find(key);
        const bool ok = (found != nullptr) == (it != ref.end()) &&
                        (found == nullptr || *found == it->second);
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(FlatMapFuzzTest, FlatSetMatchesReference) {
  Rng rng(GetParam() ^ 0xabcdULL);
  FlatSet64 set;
  std::unordered_map<std::uint64_t, bool> ref;
  for (int op = 0; op < 2000; ++op) {
    const auto key =
        rng.bernoulli(0.05) ? 0 : static_cast<std::uint64_t>(
                                      rng.uniform_int(300));
    if (rng.bernoulli(0.5)) {
      EXPECT_EQ(set.insert(key), ref.try_emplace(key, true).second);
    } else {
      EXPECT_EQ(set.contains(key), ref.count(key) > 0);
    }
    ASSERT_EQ(set.size(), ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapFuzzTest,
                         ::testing::Values(1, 2, 3, 42));

// ---------------------------------------------------------------------------
// LruCache vs a reference list-based LRU
// ---------------------------------------------------------------------------

/// Deliberately naive LRU: a recency-ordered list scanned linearly. Slow and
/// obviously correct — the oracle for LruCache's eviction order.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  int* get(const std::string& key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.splice(order_.begin(), order_, it);
        return &order_.front().second;
      }
    }
    return nullptr;
  }

  void put(const std::string& key, int value) {
    if (int* existing = get(key)) {
      *existing = value;
      return;
    }
    order_.emplace_front(key, value);
    while (order_.size() > capacity_) {
      order_.pop_back();
      ++evictions_;
    }
  }

  std::size_t size() const { return order_.size(); }
  std::int64_t evictions() const { return evictions_; }

  std::vector<std::string> keys_by_recency() const {
    std::vector<std::string> keys;
    for (const auto& [key, value] : order_) keys.push_back(key);
    return keys;
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<std::string, int>> order_;
  std::int64_t evictions_ = 0;
};

class LruFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruFuzzTest, MatchesReferenceLruOnRandomOps) {
  Rng rng(GetParam());
  const std::size_t capacity =
      static_cast<std::size_t>(1 + rng.uniform_int(8));
  LruCache<int> cache(capacity);
  ReferenceLru ref(capacity);

  for (int op = 0; op < 3000; ++op) {
    const std::string key = "k" + std::to_string(rng.uniform_int(20));
    if (rng.bernoulli(0.5)) {
      const int value = rng.uniform_int(1000);
      cache.put(key, value);
      ref.put(key, value);
    } else {
      int* got = cache.get(key);
      int* want = ref.get(key);
      ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
      if (got) {
        EXPECT_EQ(*got, *want);
      }
    }
    ASSERT_EQ(cache.size(), ref.size());
    ASSERT_LE(cache.size(), capacity);
    ASSERT_EQ(cache.evictions(), ref.evictions());
    ASSERT_EQ(cache.keys_by_recency(), ref.keys_by_recency()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruFuzzTest, ::testing::Values(1, 2, 7, 99));

// ---------------------------------------------------------------------------
// ShardedRecipeCache under real concurrency
// ---------------------------------------------------------------------------

/// The deterministic value every correct lookup of `key` must return.
CachedRecipe recipe_for_key(const std::string& key) {
  CachedRecipe recipe;
  recipe.latency_us = static_cast<double>(hash_bytes(key) % 100000);
  recipe.measurements = static_cast<std::int64_t>(key.size());
  return recipe;
}

TEST(ShardedCacheFuzz, EachKeyComputedOnceWithoutEvictions) {
  // Capacity far above the key universe: no evictions, so the contract is
  // exactly one compute per key no matter the interleaving.
  ShardedRecipeCache cache(RecipeCacheOptions{512});
  constexpr int kKeys = 48;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 3000;

  std::vector<std::atomic<int>> computes(kKeys);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = rng.uniform_int(kKeys);
        const std::string key = "config-" + std::to_string(k);
        const CachedRecipe got = cache.get_or_compute(key, [&] {
          computes[static_cast<std::size_t>(k)].fetch_add(1);
          return recipe_for_key(key);
        });
        if (got.latency_us != recipe_for_key(key).latency_us) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(computes[static_cast<std::size_t>(k)].load(), 1)
        << "key " << k << " computed more than once";
  }
  const RecipeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.size, static_cast<std::size_t>(kKeys));
}

TEST(ShardedCacheFuzz, EvictionSweepsNeverTearValues) {
  // A tiny store forces constant eviction and recomputation; values must
  // still always be the key's deterministic recipe, and the counters must
  // reconcile: every miss inserts, so misses == evictions + resident.
  ShardedRecipeCache cache(RecipeCacheOptions{16});
  constexpr int kKeys = 64;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(77 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "config-" + std::to_string(rng.uniform_int(kKeys));
        bool computed = false;
        const double latency =
            cache
                .get_or_compute(
                    key, [&] { return recipe_for_key(key); }, &computed)
                .latency_us;
        if (latency != recipe_for_key(key).latency_us) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const RecipeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.misses, stats.evictions +
                              static_cast<std::int64_t>(stats.size));
  EXPECT_LE(stats.size, std::size_t{4 * 4});
  EXPECT_GE(stats.misses, 64);  // every key missed at least once
}

TEST(ShardedCacheFuzz, SeededOpSequenceIsReproducible) {
  // The same seeded single-thread op sequence on two caches must leave
  // byte-identical observable state (determinism is what the serving
  // simulation's reproducibility rests on).
  const auto run = [](ShardedRecipeCache& cache) {
    Rng rng(5);
    std::vector<double> observed;
    for (int i = 0; i < 2000; ++i) {
      const std::string key =
          "config-" + std::to_string(rng.uniform_int(40));
      observed.push_back(
          cache.get_or_compute(key, [&] { return recipe_for_key(key); })
              .latency_us);
    }
    return observed;
  };
  ShardedRecipeCache a(RecipeCacheOptions{32});
  ShardedRecipeCache b(RecipeCacheOptions{32});
  EXPECT_EQ(run(a), run(b));
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().misses, b.stats().misses);
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
}

}  // namespace
}  // namespace ios
