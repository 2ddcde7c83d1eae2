#pragma once
// CostModel: the profiler that Algorithm 1 consults. IOS is a profile-based
// scheduler — GENERATE_STAGE "directly measures the latencies of both
// parallelization strategies on the hardware". Here the hardware is the
// execution simulator; measurements are cached by the canonical stage
// fingerprint, and the model keeps account of how much (simulated) device
// time the profiling consumed, which is what the paper reports as
// optimization cost.
//
// Concurrency: the cache is lock-striped — N independently locked shards,
// stage fingerprints distributed by hash — so the wave-parallel DP's worker
// threads (and concurrent block searches) do not convoy on a single mutex.
// The profiling counters are atomics, making the read accessors lock-free.
// Measurements stay deterministic regardless of thread count: the set of
// distinct stages measured does not depend on the order threads request
// them, and each stage's simulated latency is a pure function of the stage.
//
// Persistence: save_profile/load_profile move the cache contents to/from a
// ProfileDb keyed by stage fingerprint under this model's profile_context()
// (graph + device + kernel params + protocol), so a warm-started process
// re-runs zero simulations for stages any previous run already measured.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/executor.hpp"
#include "util/flat_map.hpp"

namespace ios {

class ProfileDb;  // runtime/profile_db.hpp — persistence only, not hot-path
class CanonicalStageCache;  // runtime/canonical_cache.hpp — opt-in reuse

struct StageChoice {
  double latency_us = 0;
  StageStrategy strategy = StageStrategy::kConcurrent;
};

/// Profiling protocol: warmup runs are discarded, `repeats` runs averaged
/// (the paper averages 5 measurements). `noise_frac` adds multiplicative
/// measurement noise per run (deterministic per seed) — real GPU profiling
/// is noisy, and tests use this to check the DP's robustness.
struct ProfilingProtocol {
  int warmup = 2;
  int repeats = 5;
  double noise_frac = 0.0;
  std::uint64_t noise_seed = 1;
};

class CostModel {
 public:
  /// Default number of independently locked cache shards. Plenty to keep
  /// collision odds low for the wave DP's worker counts (the ablation bench
  /// compares against a single-shard model to show the convoying effect).
  static constexpr int kDefaultCacheShards = 16;

  CostModel(const Graph& g, ExecConfig cfg, ProfilingProtocol protocol = {},
            int cache_shards = kDefaultCacheShards);
  CostModel(const Graph& g, ExecConfig cfg, int warmup, int repeats)
      : CostModel(g, std::move(cfg),
                  ProfilingProtocol{warmup, repeats, 0.0, 1}) {}

  const Graph& graph() const { return executor_.graph(); }
  const Executor& executor() const { return executor_; }
  const ProfilingProtocol& protocol() const { return protocol_; }

  /// Algorithm 1 GENERATE_STAGE: measures "concurrent execution" (groups =
  /// weakly connected components) and, when mergeable, "operator merge";
  /// returns the cheaper strategy and its latency.
  StageChoice generate_stage(std::span<const OpId> ops);

  /// Measured latency of a fully-specified stage, cached by
  /// stage_fingerprint. Thread-safe: the fingerprint picks one of
  /// num_cache_shards() independently locked shards, and the simulation
  /// itself (a const Executor call) runs unlocked. Two threads racing on the
  /// same uncached stage may both simulate it; the simulation is
  /// deterministic, so both compute the same value and only the winning
  /// insert bumps the counters (keeping them order-independent).
  double measure(const Stage& stage);

  /// Cache probe by a precomputed key: `key` MUST equal
  /// stage_fingerprint(make()), and `make` is invoked only on a cache miss.
  /// This is the scheduler's warm fast path — callers that can derive the
  /// fingerprint directly (the wave engine knows each ending's groups from
  /// enumeration) skip materializing the Stage and its per-group vectors
  /// for every repeat lookup, which is the overwhelmingly common case once
  /// a search is underway. Same caching/counter semantics as measure().
  template <typename MakeStage>
  double measure_keyed(std::uint64_t key, MakeStage&& make) {
    Shard& shard = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (const double* hit = shard.cache.find(key)) return *hit;
    }
    const Stage stage = make();
    assert(key == stage_fingerprint(stage));
    return measure_slow(key, stage);
  }

  /// Number of distinct stage configurations profiled so far (lock-free).
  /// Stages installed by load_profile are not counted — they cost nothing.
  std::int64_t num_measurements() const {
    return num_measurements_.load(std::memory_order_relaxed);
  }

  /// Total simulated device time spent profiling, in microseconds. This is
  /// the dominant part of IOS's optimization cost (Figure 9 / Figure 12).
  double profiling_cost_us() const {
    return profiling_cost_us_.load(std::memory_order_relaxed);
  }

  void reset_counters();

  /// Independently locked cache shards (ablation knob; see the constructor).
  int num_cache_shards() const { return static_cast<int>(shards_.size()); }

  /// Fingerprint of everything a cached latency depends on besides the stage
  /// itself: the serialized graph, the device spec, the kernel-model
  /// parameters, and the profiling protocol. ProfileDb entries are bucketed
  /// by this value, so loading a database never applies another
  /// model/device's latencies.
  std::uint64_t profile_context() const;

  /// Exports every cached stage latency into `db` under profile_context().
  /// Returns the number of entries written (cache size).
  int save_profile(ProfileDb& db) const;

  /// Installs `db`'s entries for this model's profile_context() into the
  /// cache and returns how many were installed. Entries of other contexts
  /// are ignored; already-cached fingerprints keep their in-memory value.
  /// Loaded entries do not move the profiling counters — subsequent
  /// measure() calls on them are pure cache hits.
  int load_profile(const ProfileDb& db);

  // -- Cross-request canonical reuse (opt-in) ------------------------------

  /// Turns on canonical stage reuse against `cache` (the Optimizer attaches
  /// its own for cross_reuse requests). On an id-keyed cache miss, measure()
  /// first probes the canonical cache by canonical_stage_key(); a hit is
  /// installed locally without bumping the measurement counters, and every
  /// fresh simulation is published back. Pass nullptr to turn reuse off.
  /// Throws std::invalid_argument when the protocol has measurement noise:
  /// noisy measurements are seeded by the id-keyed fingerprint, so
  /// canonical reuse would change which noise a stage receives (and hence
  /// the schedules found).
  void enable_canonical_reuse(CanonicalStageCache* cache);

  /// Measurements answered by the canonical cache since construction, and
  /// how many of those were recorded by a different graph (or loaded from a
  /// ProfileDb). Lock-free reads.
  std::int64_t canonical_hits() const {
    return canonical_hits_.load(std::memory_order_relaxed);
  }
  std::int64_t cross_model_hits() const {
    return cross_model_hits_.load(std::memory_order_relaxed);
  }

  /// Fingerprint of the measurement environment *without* the graph: device
  /// spec, kernel-model parameters, profiling protocol. Part of every
  /// canonical stage key, so latencies never leak across devices or
  /// protocols.
  std::uint64_t environment_fingerprint() const;

  /// The canonical identity of a stage: environment_fingerprint() combined
  /// with the numeric content of the stage's expanded kernel streams
  /// (per-kernel flops/bytes/warps/efficiency and the stream boundaries —
  /// no operator ids or names). The simulated latency is a pure function of
  /// exactly this, so equal keys imply equal latencies across models,
  /// blocks, and batch sizes.
  std::uint64_t canonical_stage_key(const Stage& stage) const;

  /// Exports the *entire* attached canonical cache into `db` under the
  /// process-independent canonical context; returns entries written. No-op
  /// (0) when reuse is off.
  int save_canonical(ProfileDb& db) const;

  /// Installs `db`'s canonical bucket into the attached cache (origin 0 =
  /// loaded from a database, so hits count as cross-model); returns
  /// entries newly installed. No-op (0) when reuse is off.
  int load_canonical(const ProfileDb& db);

 private:
  struct Shard {
    mutable std::mutex mu;
    FlatMap64<double> cache;
  };

  /// Cache-miss tail shared by measure() and measure_keyed(): canonical
  /// reuse probe, simulation, noise averaging, and the counted insert.
  double measure_slow(std::uint64_t key, const Stage& stage);

  Shard& shard_for(std::uint64_t key) const {
    return *shards_[shard_index(key, shards_.size())];
  }

  Executor executor_;
  ProfilingProtocol protocol_;
  /// unique_ptr because Shard owns a mutex and must not move.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::int64_t> num_measurements_{0};
  std::atomic<double> profiling_cost_us_{0};

  CanonicalStageCache* canonical_ = nullptr;  ///< null = reuse off
  std::uint64_t origin_ = 0;      ///< this graph's fingerprint (reuse on)
  std::uint64_t env_fp_ = 0;      ///< cached environment_fingerprint()
  std::atomic<std::int64_t> canonical_hits_{0};
  std::atomic<std::int64_t> cross_model_hits_{0};
};

}  // namespace ios
