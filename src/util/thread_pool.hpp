#pragma once
// Fixed-size thread pool plus the two primitives the search engine is built
// on: a process-wide lazily-initialized shared pool (spawning and joining a
// fresh pool per scheduling call costs more than small blocks' whole DP) and
// a nesting-safe parallel_for. Jobs are submitted as callables and their
// results/exceptions come back through std::future.

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

/// Runs f(0) .. f(n-1) with up to `num_threads` workers (<= 0 = one per
/// hardware thread), drawing helpers from shared_thread_pool(). The calling
/// thread always participates and claims indices from the same atomic
/// cursor, so the loop completes even if every pool worker is busy — which
/// makes nesting safe: an outer parallel_for over blocks may invoke an
/// inner parallel_for over DP states without risking pool-exhaustion
/// deadlock (queued helpers that start after the work is drained return
/// immediately). Iterations must be independent; the assignment of indices
/// to threads is nondeterministic, so f must only write to per-index state.
/// The first exception thrown by any iteration is rethrown to the caller
/// after all claimed iterations finish.
inline void parallel_for(std::size_t n, int num_threads,
                         const std::function<void(std::size_t)>& f) {
  const int want =
      num_threads <= 0 ? ThreadPool::hardware_threads() : num_threads;
  if (n <= 1 || want <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }

  // Shared by the caller and the queued helpers; the shared_ptr keeps it
  // (and the copied f) alive for helpers that start after the caller left.
  struct State {
    std::size_t n;
    std::function<void(std::size_t)> f;
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->f = f;

  const auto run = [state] {
    std::size_t i;
    while ((i = state->next.fetch_add(1)) < state->n) {
      std::exception_ptr err;
      try {
        state->f(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (err && !state->error) state->error = err;
      if (++state->done == state->n) state->cv.notify_all();
    }
  };

  const std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(want) - 1, n - 1);
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

}  // namespace ios
