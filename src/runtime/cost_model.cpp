#include "runtime/cost_model.hpp"

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
  if (const std::optional<double> hit = cached(key)) return *hit;
  return measure_slow(key, stage);
}

double CostModel::measure_slow(std::uint64_t key, const Stage& stage) {
  Shard& shard = shard_for(key);
  std::uint64_t canon_key = 0;
  std::optional<CanonicalStageCache::Entry> reused;
  if (canonical_ != nullptr) {
    // Canonical reuse: another model/block/batch may have simulated a stage
    // with identical kernel streams. Installing its latency locally skips
    // the simulation and leaves the measurement counters untouched — reuse
    // is free, like a load_profile() entry.
    canon_key = canonical_stage_key(stage);
    reused = canonical_->get(canon_key);
  }

  // Simulate outside the lock so concurrent DPs overlap their profiling.
  // Two threads may race to measure the same stage; the simulation is
  // deterministic, so both compute the same value and only the first
  // insert below bumps the counters (keeping them order-independent).
  const double true_latency =
      reused ? reused->latency_us : executor_.stage_latency_us(stage);
  double latency = true_latency;
  if (!reused && protocol_.noise_frac > 0) {
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

  // A simulation whose canonical put loses to a concurrent stage with the
  // same key reused that stage's latency, as the one-thread order would: a
  // canonical hit, not a measurement. The put shares the lock of the local
  // insert it is counted for.
  bool inserted = false;
  double stored = latency;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [slot, fresh] = shard.cache.try_emplace(key, latency);
    inserted = fresh;
    stored = *slot;
    if (fresh && !reused && canonical_ != nullptr) {
      const auto [entry, put] = canonical_->put(canon_key, latency, origin_);
      if (!put) reused = entry;
    }
  }
  if (inserted && reused) {
    canonical_hits_.fetch_add(1, std::memory_order_relaxed);
    if (reused->origin != origin_) {
      cross_model_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (inserted) {
    num_measurements_.fetch_add(1, std::memory_order_relaxed);
    profiling_cost_us_.fetch_add(
        true_latency * (protocol_.warmup + protocol_.repeats),
        std::memory_order_relaxed);
  }
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
  std::shared_ptr<const FlatMap64<double>> bucket = profile_bucket();
  const int written = static_cast<int>(bucket->size());
  db.merge(profile_context(), std::move(bucket), loaded_.get());
  return written;
}

int CostModel::load_profile(const ProfileDb& db) {
  return load_profile(db.share(profile_context()));
}

int CostModel::load_profile(std::shared_ptr<const FlatMap64<double>> bucket) {
  bool cached_any = loaded_ != nullptr;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    cached_any = cached_any || !shard->cache.empty();
  }
  if (cached_any) {
    throw std::logic_error(
        "CostModel::load_profile: the model has already cached or loaded "
        "stages; load a profile into a fresh model");
  }
  loaded_ = std::move(bucket);
  return loaded_ != nullptr ? static_cast<int>(loaded_->size()) : 0;
}

std::shared_ptr<const FlatMap64<double>> CostModel::profile_bucket() const {
  // Sized once for the snapshot plus every shard: the shards never hold a
  // snapshot key, so the union is exactly that big.
  std::size_t size = loaded_ != nullptr ? loaded_->size() : 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    size += shard->cache.size();
  }
  auto bucket = std::make_shared<FlatMap64<double>>(size);
  const auto add = [&](std::uint64_t key, double latency) {
    bucket->insert_or_assign(key, latency);
  };
  if (loaded_ != nullptr) loaded_->for_each(add);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cache.for_each(add);
  }
  return bucket;
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

std::shared_ptr<const FlatMap64<double>> CostModel::canonical_bucket() const {
  if (canonical_ == nullptr) return nullptr;
  auto bucket = std::make_shared<FlatMap64<double>>(canonical_->size());
  canonical_->for_each(
      [&](std::uint64_t key, const CanonicalStageCache::Entry& e) {
        bucket->insert_or_assign(key, e.latency_us);
      });
  return bucket;
}

int CostModel::save_canonical(
    ProfileDb& db, std::shared_ptr<const FlatMap64<double>> bucket) const {
  if (bucket == nullptr) return 0;
  const int written = static_cast<int>(bucket->size());
  const std::uint64_t ctx = canonical_profile_context();
  // The cache is insert-only and holds every key of loaded_canonical_, so
  // an equal size means equal keys: nothing to add.
  const bool unchanged = loaded_canonical_ != nullptr &&
                         db.context(ctx) == loaded_canonical_.get() &&
                         bucket->size() == loaded_canonical_->size();
  if (!unchanged) db.merge(ctx, std::move(bucket), loaded_canonical_.get());
  return written;
}

int CostModel::load_canonical(const ProfileDb& db) {
  if (canonical_ == nullptr) return 0;
  loaded_canonical_ = db.share(canonical_profile_context());
  if (!loaded_canonical_) return 0;
  int loaded = 0;
  loaded_canonical_->for_each([&](std::uint64_t key, double latency) {
    if (canonical_->put(key, latency, /*origin=*/0).second) ++loaded;
  });
  return loaded;
}

}  // namespace ios
