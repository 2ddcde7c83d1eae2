#pragma once
// Fixed-size thread pool plus the two primitives the search engine is built
// on: a process-wide lazily-initialized shared pool (spawning and joining a
// fresh pool per scheduling call costs more than small blocks' whole DP) and
// a nesting-safe, chunk-claiming parallel_for. Its slot form hands each
// worker a dense slot id for per-worker scratch; the wave search's level
// loops, the block fan-out and the serving prewarm all run on it. Jobs are
// submitted as callables and their results/exceptions come back through
// std::future.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ios {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads) {
    const int n = num_threads < 1 ? 1 : num_threads;
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Joins the workers after draining the queue: jobs already submitted
  /// still run to completion before the destructor returns.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `f` and returns a future for its result. Exceptions thrown by
  /// the job are captured and rethrown from future::get().
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& f) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// A sensible worker count for CPU-bound work on this machine.
  static int hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stopping_ and nothing left to run
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide worker pool, created on first use with one thread per
/// hardware thread and shared by every parallel caller (block-level
/// scheduling, the wave search's per-level fan-out, serving prewarm). A
/// single long-lived pool amortizes thread spawn/join over all calls and
/// keeps the total thread count bounded no matter how many schedulers run.
inline ThreadPool& shared_thread_pool() {
  static ThreadPool pool(ThreadPool::hardware_threads());
  return pool;
}

/// Runs f(slot, i) for every i in [0, n) with up to `num_threads` workers
/// (<= 0 = one per hardware thread), drawing helpers from
/// shared_thread_pool(). Workers claim contiguous index chunks (several per
/// worker, so stragglers rebalance) from one atomic cursor and count
/// completion once per chunk, so the done-counting mutex is touched
/// O(n / chunk) times, not O(n). Each participating thread holds one dense
/// slot in [0, min(workers, chunks)) for the whole call, never shared, so f
/// may index per-worker scratch by it. With fewer than `inline_below`
/// indices or one worker, the loop runs on the calling thread in index
/// order as slot 0: queueing helpers would cost more than the work.
///
/// The calling thread always participates through the same cursor, so the
/// loop completes even if every pool worker is busy. That makes nesting
/// safe: an outer parallel_for over blocks may run an inner one over DP
/// states without pool-exhaustion deadlock (helpers that start after the
/// work is drained return at once). Which thread runs which index is
/// nondeterministic, so f must only write per-index or per-slot state. The
/// first exception thrown ends the rest of its chunk and is rethrown to the
/// caller once every claimed chunk has finished.
inline void parallel_for(std::size_t n, int num_threads,
                         const std::function<void(int, std::size_t)>& f,
                         std::size_t inline_below = 2) {
  const int want =
      num_threads <= 0 ? ThreadPool::hardware_threads() : num_threads;
  if (n < inline_below || n <= 1 || want <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(0, i);
    return;
  }

  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(want) * 8));

  // Shared by the caller and the queued helpers; the shared_ptr keeps it
  // (and the copied f) alive for helpers that start after the caller left.
  struct State {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::function<void(int, std::size_t)> f;
    std::atomic<std::size_t> next{0};
    std::atomic<int> next_slot{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->chunk = chunk;
  state->f = f;

  const auto run = [state] {
    const int slot = state->next_slot.fetch_add(1);
    for (;;) {
      const std::size_t begin = state->next.fetch_add(state->chunk);
      if (begin >= state->n) break;
      const std::size_t end = std::min(state->n, begin + state->chunk);
      std::exception_ptr err;
      try {
        for (std::size_t i = begin; i < end; ++i) state->f(slot, i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (err && !state->error) state->error = err;
      state->done += end - begin;
      if (state->done == state->n) state->cv.notify_all();
    }
  };

  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  const std::size_t helpers = std::min<std::size_t>(
      static_cast<std::size_t>(want) - 1, num_chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    // Fire-and-forget: completion is tracked by state->done, not futures, so
    // the caller never blocks on a helper that was queued but never ran.
    shared_thread_pool().submit(run);
  }
  run();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == state->n; });
  if (state->error) std::rethrow_exception(state->error);
}

/// parallel_for for loops that need no slot id: runs f(i) for i in [0, n).
inline void parallel_for(std::size_t n, int num_threads,
                         const std::function<void(std::size_t)>& f) {
  parallel_for(n, num_threads, [&f](int, std::size_t i) { f(i); });
}

}  // namespace ios
