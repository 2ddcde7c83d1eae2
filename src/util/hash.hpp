#pragma once
// Hashing utilities: a strong 64-bit mixer (splitmix64 finalizer) and a
// hash-combiner used for memoization keys in the scheduler and the stage
// latency cache.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace ios {

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixing function.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent combination of two 64-bit hashes.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return mix64(seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2)));
}

inline std::uint64_t hash_bytes(std::string_view s) {
  // FNV-1a over the bytes, then mixed.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return mix64(h);
}

/// Shard/stripe selector for 64-bit keys that also index FlatMap64 tables:
/// uses the HIGH bits of mix64(key), because the flat tables probe from the
/// low bits of the same mix — selecting shards by those bits would leave
/// every key within a shard agreeing on its home-slot residue and degrade
/// open-addressing probes into long linear runs.
constexpr std::size_t shard_index(std::uint64_t key, std::size_t shards) {
  return static_cast<std::size_t>(mix64(key) >> 32) % shards;
}

/// Canonical fingerprint of a stage-shaped value: a strategy tag combined
/// with ordered groups of operator ids, with group separators so that
/// [a b][c] and [a][b c] hash differently. This is THE stage-identity hash —
/// the cost model's latency cache, the profiling database, and the tests all
/// key stages through it (via ios::stage_fingerprint in schedule/schedule.hpp),
/// so persisted profiles always match the keys the live cache computes.
/// Templated on the group range (anything whose elements expose `.ops`) so
/// util/ does not depend on the schedule IR.
template <typename GroupRange>
constexpr std::uint64_t fingerprint_groups(std::uint64_t strategy_tag,
                                           const GroupRange& groups) {
  std::uint64_t h = strategy_tag;
  for (const auto& grp : groups) {
    h = hash_combine(h, 0x60ull);
    for (const auto id : grp.ops) {
      h = hash_combine(h, static_cast<std::uint64_t>(id));
    }
    h = hash_combine(h, 0xabcdefull);
  }
  return h;
}

/// Hasher for 64-bit keys in unordered containers (identity hashing of a
/// bitmask would cluster badly; mix first).
struct U64Hasher {
  std::size_t operator()(std::uint64_t x) const noexcept {
    return static_cast<std::size_t>(mix64(x));
  }
};

}  // namespace ios
