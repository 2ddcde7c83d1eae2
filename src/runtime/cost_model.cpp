#include "runtime/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "runtime/canonical_cache.hpp"
#include "runtime/profile_db.hpp"
#include "schedule/serialize.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace ios {

namespace {

std::uint64_t hash_double(std::uint64_t seed, double v) {
  return hash_combine(seed, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t device_fingerprint(const DeviceSpec& d) {
  std::uint64_t h = hash_bytes(d.name);
  h = hash_combine(h, static_cast<std::uint64_t>(d.num_sms));
  h = hash_combine(h, static_cast<std::uint64_t>(d.warp_slots_per_sm));
  h = hash_double(h, d.peak_tflops);
  h = hash_double(h, d.dram_gbps);
  h = hash_double(h, d.kernel_launch_us);
  h = hash_double(h, d.stage_sync_us);
  h = hash_double(h, d.stream_sync_us);
  h = hash_double(h, d.compute_sat_frac);
  h = hash_double(h, d.memory_sat_frac);
  h = hash_double(h, d.mem_contention_coef);
  return h;
}

std::uint64_t kernel_params_fingerprint(const KernelModelParams& p) {
  std::uint64_t h = 0x6b70u;  // "kp"
  h = hash_double(h, p.elems_per_thread);
  h = hash_double(h, p.conv_efficiency);
  h = hash_double(h, p.sepconv_efficiency);
  h = hash_double(h, p.matmul_efficiency);
  h = hash_double(h, p.pool_efficiency);
  h = hash_double(h, p.memop_efficiency);
  return h;
}

std::uint64_t protocol_fingerprint(const ProfilingProtocol& p) {
  std::uint64_t h = 0x7072u;  // "pr"
  h = hash_combine(h, static_cast<std::uint64_t>(p.warmup));
  h = hash_combine(h, static_cast<std::uint64_t>(p.repeats));
  h = hash_double(h, p.noise_frac);
  h = hash_combine(h, p.noise_seed);
  return h;
}

/// The ProfileDb context canonical entries live under. Process- and
/// graph-independent: the keys themselves embed the environment
/// fingerprint, so one bucket safely holds every device/protocol mix.
constexpr std::uint64_t canonical_profile_context() {
  return 0x63616e6f6e696361ull;  // "canonica"
}

}  // namespace

CostModel::CostModel(const Graph& g, ExecConfig cfg,
                     ProfilingProtocol protocol, int cache_shards)
    : executor_(g, std::move(cfg)), protocol_(protocol) {
  const int n = cache_shards < 1 ? 1 : cache_shards;
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

double CostModel::measure(const Stage& stage) {
  const std::uint64_t key = stage_fingerprint(stage);
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const double* hit = shard.cache.find(key)) return *hit;
  }
  return measure_slow(key, stage);
}

double CostModel::measure_slow(std::uint64_t key, const Stage& stage) {
  Shard& shard = shard_for(key);
  std::uint64_t canon_key = 0;
  if (canonical_ != nullptr) {
    // Canonical reuse: another model/block/batch may have simulated a stage
    // with identical kernel streams. Installing its latency locally skips
    // the simulation and leaves the measurement counters untouched — reuse
    // is free, like a load_profile() entry.
    canon_key = canonical_stage_key(stage);
    if (const auto hit = canonical_->get(canon_key)) {
      bool inserted = false;
      double stored = hit->latency_us;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        const auto [slot, fresh] = shard.cache.try_emplace(key, stored);
        inserted = fresh;
        stored = *slot;
      }
      if (inserted) {
        canonical_hits_.fetch_add(1, std::memory_order_relaxed);
        if (hit->origin != origin_) {
          cross_model_hits_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return stored;
    }
  }

  // Simulate outside the lock so concurrent DPs overlap their profiling.
  // Two threads may race to measure the same stage; the simulation is
  // deterministic, so both compute the same value and only the first
  // insert below bumps the counters (keeping them order-independent).
  const double true_latency = executor_.stage_latency_us(stage);
  double latency = true_latency;
  if (protocol_.noise_frac > 0) {
    // Average `repeats` noisy samples, like real profiling would.
    Rng rng(hash_combine(protocol_.noise_seed, key));
    double sum = 0;
    for (int i = 0; i < protocol_.repeats; ++i) {
      const double jitter =
          1.0 + protocol_.noise_frac * (2.0 * rng.uniform() - 1.0);
      sum += true_latency * jitter;
    }
    latency = sum / protocol_.repeats;
  }

  bool inserted = false;
  double stored = latency;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [slot, fresh] = shard.cache.try_emplace(key, latency);
    inserted = fresh;
    stored = *slot;
  }
  if (inserted) {
    num_measurements_.fetch_add(1, std::memory_order_relaxed);
    profiling_cost_us_.fetch_add(
        true_latency * (protocol_.warmup + protocol_.repeats),
        std::memory_order_relaxed);
  }
  if (canonical_ != nullptr) canonical_->put(canon_key, stored, origin_);
  return stored;
}

StageChoice CostModel::generate_stage(std::span<const OpId> ops) {
  // Concurrent execution: partition into weakly connected groups (L24-25).
  Stage concurrent;
  concurrent.strategy = StageStrategy::kConcurrent;
  concurrent.groups = partition_groups(graph(), ops);
  const double l_concurrent = measure(concurrent);

  // Operator merge (L26-29): only when all operators stack into one kernel.
  double l_merge = std::numeric_limits<double>::infinity();
  if (ops.size() >= 2 && analyze_merge(graph(), ops)) {
    Stage merged;
    merged.strategy = StageStrategy::kMerge;
    merged.groups.push_back(Group{{ops.begin(), ops.end()}});
    l_merge = measure(merged);
  }

  if (l_concurrent <= l_merge) {
    return {l_concurrent, StageStrategy::kConcurrent};
  }
  return {l_merge, StageStrategy::kMerge};
}

void CostModel::reset_counters() {
  num_measurements_.store(0, std::memory_order_relaxed);
  profiling_cost_us_.store(0, std::memory_order_relaxed);
}

std::uint64_t CostModel::profile_context() const {
  std::uint64_t h = hash_bytes(graph_to_json(graph()).dump());
  h = hash_combine(h, device_fingerprint(executor_.device()));
  h = hash_combine(h, kernel_params_fingerprint(executor_.kernel_params()));
  h = hash_combine(h, protocol_fingerprint(protocol_));
  return h;
}

int CostModel::save_profile(ProfileDb& db) const {
  ProfileDb::Entries& entries = db.context_for_update(profile_context());
  // The merged bucket holds at least the larger of the two, and exactly
  // that when one contains the other (a search's cache holds everything it
  // loaded from the bucket).
  std::size_t cached = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    cached += shard->cache.size();
  }
  entries.reserve(std::max(entries.size(), cached));
  int written = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cache.for_each([&](std::uint64_t key, const double& latency) {
      entries.insert_or_assign(key, latency);
      ++written;
    });
  }
  return written;
}

int CostModel::load_profile(const ProfileDb& db) {
  const ProfileDb::Entries* entries = db.context(profile_context());
  if (!entries) return 0;
  // Size every shard once, then install in one pass under every shard's
  // lock (taken in index order; measure() holds at most one at a time).
  const std::size_t n = shards_.size();
  std::vector<std::size_t> incoming(n, 0);
  entries->for_each([&](std::uint64_t key, double) {
    ++incoming[shard_index(key, n)];
  });
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    locks.emplace_back(shards_[i]->mu);
    shards_[i]->cache.reserve(shards_[i]->cache.size() + incoming[i]);
  }
  int loaded = 0;
  entries->for_each([&](std::uint64_t key, double latency) {
    if (shard_for(key).cache.try_emplace(key, latency).second) ++loaded;
  });
  return loaded;
}

void CostModel::enable_canonical_reuse(CanonicalStageCache* cache) {
  if (cache != nullptr && protocol_.noise_frac > 0) {
    throw std::invalid_argument(
        "canonical stage reuse requires a noise-free protocol: noisy "
        "measurements are seeded by the id-keyed stage fingerprint, so "
        "reusing a latency across stages would change the schedules found");
  }
  canonical_ = cache;
  if (cache != nullptr) {
    origin_ = hash_bytes(graph_to_json(graph()).dump());
    env_fp_ = environment_fingerprint();
  }
}

std::uint64_t CostModel::environment_fingerprint() const {
  std::uint64_t h = device_fingerprint(executor_.device());
  h = hash_combine(h, kernel_params_fingerprint(executor_.kernel_params()));
  h = hash_combine(h, protocol_fingerprint(protocol_));
  return h;
}

std::uint64_t CostModel::canonical_stage_key(const Stage& stage) const {
  std::uint64_t h = env_fp_ != 0 ? env_fp_ : environment_fingerprint();
  for (const KernelStream& stream : executor_.stage_streams(stage)) {
    h = hash_combine(h, 0x73ull);  // stream separator
    for (const KernelDesc& k : stream) {
      h = hash_double(h, k.flops);
      h = hash_double(h, k.bytes);
      h = hash_double(h, k.warps);
      h = hash_double(h, k.efficiency);
    }
  }
  return h;
}

int CostModel::save_canonical(ProfileDb& db) const {
  if (canonical_ == nullptr) return 0;
  ProfileDb::Entries& entries =
      db.context_for_update(canonical_profile_context());
  int written = 0;
  canonical_->for_each(
      [&](std::uint64_t key, const CanonicalStageCache::Entry& e) {
        entries[key] = e.latency_us;
        ++written;
      });
  return written;
}

int CostModel::load_canonical(const ProfileDb& db) {
  if (canonical_ == nullptr) return 0;
  const ProfileDb::Entries* entries =
      db.context(canonical_profile_context());
  if (!entries) return 0;
  int loaded = 0;
  entries->for_each([&](std::uint64_t key, double latency) {
    if (canonical_->put(key, latency, /*origin=*/0)) ++loaded;
  });
  return loaded;
}

}  // namespace ios
