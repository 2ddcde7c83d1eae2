#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ios {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&ran] { ++ran; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ReturnsJobResultsThroughFutures) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expected = 0;
  for (int i = 0; i < 16; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, RunsJobsConcurrently) {
  // Both jobs block on the same latch, so they only finish if two workers
  // are actually running at the same time.
  ThreadPool pool(2);
  std::latch both_running(2);
  auto a = pool.submit([&both_running] { both_running.arrive_and_wait(); });
  auto b = pool.submit([&both_running] { both_running.arrive_and_wait(); });
  a.get();
  b.get();
}

TEST(ThreadPool, DestructorDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] { ++ran; });
    }
  }  // destructor joins after the single worker drains the queue
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

// The slot form of parallel_for: the wave search indexes per-worker scratch
// and beam's kept transitions by slot, so slots must be dense, bounded by
// min(workers, chunks), and never held by two threads at once.

TEST(ParallelForSlots, SlotsStayBelowWorkersAndIndices) {
  for (const std::size_t n : {3u, 4u, 5u, 64u, 1001u}) {
    std::atomic<int> max_slot{-1};
    std::atomic<bool> negative{false};
    parallel_for(n, 4, [&](int slot, std::size_t) {
      if (slot < 0) negative = true;
      int seen = max_slot.load();
      while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
      }
    }, 0);
    EXPECT_FALSE(negative.load()) << "n=" << n;
    EXPECT_LT(max_slot.load(), static_cast<int>(std::min<std::size_t>(4, n)))
        << "n=" << n;
  }
}

TEST(ParallelForSlots, NoTwoThreadsHoldOneSlotAtOnce) {
  constexpr int kThreads = 4;
  std::vector<std::atomic<int>> in_use(kThreads);
  std::vector<std::atomic<int>> uses(kThreads);
  std::atomic<int> overlaps{0};
  std::atomic<int> out_of_range{0};
  parallel_for(4000, kThreads, [&](int slot, std::size_t) {
    const auto s = static_cast<std::size_t>(slot);
    if (slot < 0 || s >= in_use.size()) {
      ++out_of_range;
      return;
    }
    if (in_use[s].fetch_add(1) != 0) ++overlaps;
    ++uses[s];
    std::this_thread::yield();  // widen the window a second holder needs
    in_use[s].fetch_sub(1);
  });
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  int total = 0;
  for (const auto& u : uses) total += u.load();
  EXPECT_EQ(total, 4000);
}

TEST(ParallelForSlots, BelowTheCutoffRunsInlineAsSlotZero) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool off_thread = false;
  bool nonzero_slot = false;
  parallel_for(23, 4, [&](int slot, std::size_t i) {
    if (std::this_thread::get_id() != caller) off_thread = true;
    if (slot != 0) nonzero_slot = true;
    order.push_back(i);
  }, 24);
  EXPECT_FALSE(off_thread);
  EXPECT_FALSE(nonzero_slot);
  ASSERT_EQ(order.size(), 23u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForSlots, CoversEveryIndexOnceAcrossUnevenChunks) {
  // 1001 at 4 workers: 33 chunks of 31 indices, the last one short.
  std::vector<std::atomic<int>> hits(1001);
  parallel_for(hits.size(), 4, [&](int, std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForSlots, RethrowsAnIterationsException) {
  EXPECT_THROW(parallel_for(1001, 4,
                            [](int, std::size_t i) {
                              if (i == 500) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace ios
