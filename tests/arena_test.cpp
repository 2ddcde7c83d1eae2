// Unit tests for the bump-allocation arena behind the wave engine's
// transition records: alignment, in-place extension, wholesale reset, the
// ArenaVec fill pattern, and the process-wide lease pool.

#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

namespace ios {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  std::vector<std::pair<std::byte*, std::size_t>> blocks;
  for (std::size_t align : {1, 2, 4, 8, 16, 64}) {
    for (std::size_t bytes : {1, 3, 8, 17, 64, 1000}) {
      auto* p = static_cast<std::byte*>(arena.allocate(bytes, align));
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "align " << align << " bytes " << bytes;
      std::memset(p, 0xAB, bytes);  // ASan/TSAN-visible touch
      for (const auto& [q, n] : blocks) {
        const bool disjoint = p + bytes <= q || q + n <= p;
        EXPECT_TRUE(disjoint);
      }
      blocks.emplace_back(p, bytes);
    }
  }
}

TEST(Arena, ZeroByteAllocationsAreDistinct) {
  Arena arena;
  void* a = arena.allocate(0, 1);
  void* b = arena.allocate(0, 1);
  EXPECT_NE(a, b);
}

TEST(Arena, OversizedAllocationGetsOwnChunk) {
  Arena arena{256};
  // Far larger than the chunk size: the arena must still serve it.
  auto* p = arena.allocate_array<std::uint64_t>(4096);
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[4095] = 2;
  EXPECT_GE(arena.bytes_reserved(), 4096 * sizeof(std::uint64_t));
}

TEST(Arena, TryExtendGrowsTailInPlace) {
  Arena arena;
  auto* p = arena.allocate_array<std::uint32_t>(8);
  ASSERT_TRUE(arena.try_extend(p, 8 * sizeof(std::uint32_t),
                               16 * sizeof(std::uint32_t)));
  // The extension must not move: writes through the old pointer land in the
  // extended block.
  for (int i = 0; i < 16; ++i) p[i] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(p[15], 15u);
}

TEST(Arena, TryExtendRefusesNonTailAllocation) {
  Arena arena;
  auto* a = arena.allocate_array<std::uint32_t>(8);
  (void)arena.allocate_array<std::uint32_t>(8);  // now `a` is not the tail
  EXPECT_FALSE(arena.try_extend(a, 8 * sizeof(std::uint32_t),
                                16 * sizeof(std::uint32_t)));
}

TEST(Arena, ShrinkTailReturnsSlack) {
  Arena arena;
  auto* a = arena.allocate_array<std::uint64_t>(64);
  const std::size_t before = arena.bytes_used();
  arena.shrink_tail(a, 64 * sizeof(std::uint64_t), 16 * sizeof(std::uint64_t));
  EXPECT_EQ(arena.bytes_used(), before - 48 * sizeof(std::uint64_t));
  // The next allocation starts right after the shrunk tail.
  auto* b = arena.allocate_array<std::uint64_t>(1);
  EXPECT_EQ(reinterpret_cast<std::byte*>(b),
            reinterpret_cast<std::byte*>(a) + 16 * sizeof(std::uint64_t));
}

TEST(Arena, ResetKeepsChunksAndReusesMemory) {
  Arena arena{1024};
  for (int i = 0; i < 100; ++i) (void)arena.allocate(128, 8);
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  // Steady state: refilling after reset allocates no new chunks.
  for (int i = 0; i < 100; ++i) (void)arena.allocate(128, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaVec, FillPatternPacksExactly) {
  Arena arena;
  ArenaVec<std::uint64_t> v{arena};
  EXPECT_TRUE(v.empty());
  for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
  v.shrink_to_fit();
  ASSERT_EQ(v.size(), 1000u);
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i], i);
  }
  // After shrink_to_fit the next vector starts immediately after this one's
  // last element — the wave engine's exact-fit span layout.
  ArenaVec<std::uint64_t> w{arena};
  w.push_back(7);
  EXPECT_EQ(w.data(), v.data() + v.size());
}

TEST(ArenaVec, ManySmallVectorsShareChunks) {
  Arena arena;
  std::vector<ArenaVec<std::uint32_t>> vecs;
  for (int s = 0; s < 500; ++s) {
    vecs.emplace_back(arena);
    for (int i = 0; i <= s % 7; ++i) {
      vecs.back().push_back(static_cast<std::uint32_t>(s));
    }
    vecs.back().shrink_to_fit();
  }
  for (int s = 0; s < 500; ++s) {
    ASSERT_EQ(vecs[static_cast<std::size_t>(s)].size(),
              static_cast<std::uint32_t>(s % 7 + 1));
    for (std::uint32_t x : vecs[static_cast<std::size_t>(s)]) {
      ASSERT_EQ(x, static_cast<std::uint32_t>(s));
    }
  }
}

TEST(ArenaPool, LeaseReturnsResetArena) {
  ArenaPool pool;
  std::size_t reserved = 0;
  {
    ArenaPool::Lease lease = pool.acquire();
    ASSERT_TRUE(lease);
    (void)lease->allocate(1024, 8);
    reserved = lease->bytes_reserved();
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 1u);
  ArenaPool::Lease again = pool.acquire();
  EXPECT_EQ(again->bytes_used(), 0u);          // reset on return
  EXPECT_EQ(again->bytes_reserved(), reserved);  // chunks retained
}

// A returned arena keeps one standard chunk, however many a big level made
// it take: reused LIFO across levels of different sizes, kept chunks would
// otherwise ratchet the process's idle pool up search after search.
TEST(ArenaPool, ReturnedArenaIsTrimmedToOneChunk) {
  ArenaPool pool;
  {
    ArenaPool::Lease lease = pool.acquire();
    for (int i = 0; i < 8; ++i) {
      (void)lease->allocate(Arena::kDefaultChunkBytes / 2 + 1, 8);
    }
    EXPECT_EQ(lease->bytes_reserved(), 8 * Arena::kDefaultChunkBytes);
  }
  ArenaPool::Lease again = pool.acquire();
  EXPECT_EQ(again->bytes_used(), 0u);
  EXPECT_EQ(again->bytes_reserved(), Arena::kDefaultChunkBytes);
  // The kept chunk serves the next fill without a new allocation.
  (void)again->allocate(64, 8);
  EXPECT_EQ(again->bytes_reserved(), Arena::kDefaultChunkBytes);
}

TEST(Arena, TrimKeepsOnlyAStandardChunk) {
  Arena arena{1024};
  (void)arena.allocate(4096, 8);  // an oversized first chunk
  (void)arena.allocate(512, 8);
  (void)arena.allocate(900, 8);
  EXPECT_EQ(arena.bytes_reserved(), 4096 + 8 + 1024 + 1024u);
  arena.trim();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 1024u);

  Arena oversized_only{1024};
  (void)oversized_only.allocate(4096, 8);
  oversized_only.trim();
  EXPECT_EQ(oversized_only.bytes_reserved(), 0u);
  (void)oversized_only.allocate(8, 8);  // still usable after trimming
  EXPECT_EQ(oversized_only.bytes_reserved(), 1024u);
}

TEST(ArenaPool, EarlyReleaseIsIdempotent) {
  ArenaPool pool;
  ArenaPool::Lease lease = pool.acquire();
  lease.release();
  lease.release();
  EXPECT_FALSE(lease);
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(ArenaPool, MoveTransfersOwnership) {
  ArenaPool pool;
  ArenaPool::Lease a = pool.acquire();
  Arena* raw = &*a;
  ArenaPool::Lease b = std::move(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(&*b, raw);
  b = pool.acquire();  // move-assign over a live lease returns the old arena
  EXPECT_EQ(pool.idle(), 1u);
}

// Concurrent lease/fill/return through the shared pool: each thread's arena
// is exclusively leased, so the only shared state is the pool's free list.
// Run under TSAN this is the wave engine's worker access pattern in
// miniature.
TEST(ArenaPool, ConcurrentLeasesAreExclusive) {
  ArenaPool pool;
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int r = 0; r < kRounds; ++r) {
        ArenaPool::Lease lease = pool.acquire();
        ArenaVec<std::uint64_t> v{*lease};
        const std::uint64_t tag =
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(r);
        for (int i = 0; i < 100; ++i) v.push_back(tag);
        v.shrink_to_fit();
        for (std::uint64_t x : v) {
          ASSERT_EQ(x, tag);  // another thread writing here is a TSAN race
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(pool.idle(), static_cast<std::size_t>(kThreads));
  EXPECT_GE(pool.idle(), 1u);
}

}  // namespace
}  // namespace ios
