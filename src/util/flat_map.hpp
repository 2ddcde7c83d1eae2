#pragma once
// Flat open-addressing hash containers keyed by std::uint64_t, used for the
// scheduler's DP memo / ending caches, the cost model's stage-latency cache
// and the profile database's per-context buckets. The DP keys are
// Set64::bits() masks and the cost-model keys are stage fingerprints, so the
// generic std::unordered_map (separate chaining, one allocation per node) is
// replaced by a single contiguous slot array with linear probing — no
// per-entry allocation, cache-friendly probes, and cheap iteration. Keys are
// mixed (splitmix64) before probing, so clustered bitmask keys spread
// uniformly.
//
// Insert-only semantics (no erase): the DP and the caches only ever grow
// within one search, which keeps the table tombstone-free. Not thread-safe;
// concurrent readers are fine only while no writer is active (the beam
// search relies on this: its memo is written only between parallel
// phases).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace ios {

/// Open-addressing map from std::uint64_t to Value. Pointers returned by
/// find/try_emplace are invalidated by any later insert (the slot array
/// rehashes in place) — copy values out instead of holding references
/// across inserts.
template <typename Value>
class FlatMap64 {
 public:
  FlatMap64() = default;
  explicit FlatMap64(std::size_t expected) { reserve(expected); }

  std::size_t size() const { return size_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  Value* find(std::uint64_t key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  const Value* find(std::uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = mix64(key) & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == 0) return nullptr;
    }
  }

  /// Inserts `value` under `key` unless present; returns {slot, inserted}.
  std::pair<Value*, bool> try_emplace(std::uint64_t key, Value value) {
    if (key == 0) {
      if (!has_zero_) {
        has_zero_ = true;
        zero_value_ = std::move(value);
        return {&zero_value_, true};
      }
      return {&zero_value_, false};
    }
    if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) grow();
    for (std::size_t i = mix64(key) & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == 0) {
        slot.key = key;
        slot.value = std::move(value);
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  /// The value of `key`; throws std::out_of_range if absent.
  const Value& at(std::uint64_t key) const {
    const Value* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatMap64::at: no such key");
    return *v;
  }

  /// The value of `key`, value-initialized and inserted if absent.
  Value& operator[](std::uint64_t key) {
    return *try_emplace(key, Value{}).first;
  }

  /// Inserts or overwrites `key`; returns the stored value.
  Value& insert_or_assign(std::uint64_t key, Value value) {
    const auto [slot, inserted] = try_emplace(key, value);
    if (!inserted) *slot = std::move(value);
    return *slot;
  }

  /// Grows the slot array so `n` entries fit without rehashing. Throws
  /// std::length_error when no slot array could hold `n` entries.
  void reserve(std::size_t n) {
    // Also keeps n * 10 and cap * 7 below from overflowing.
    if (n > std::numeric_limits<std::size_t>::max() / 32) {
      throw std::length_error("FlatMap64::reserve: too many entries");
    }
    std::size_t cap = kMinCapacity;
    while (n * 10 > cap * 7) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
    has_zero_ = false;
    zero_value_ = Value{};
  }

  /// Removes every entry but keeps the slot array allocated, so steady-state
  /// refill cycles (e.g. the beam discovery's per-level successor tables)
  /// neither reallocate nor regrow from the minimum capacity.
  void clear_retain() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    has_zero_ = false;
    zero_value_ = Value{};
  }

  /// Invokes f(key, const Value&) for every entry, unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(std::uint64_t{0}, zero_value_);
    for (const Slot& slot : slots_) {
      if (slot.key != 0) f(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 = empty (the zero key lives outside the array)
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  void grow() { rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2); }

  void rehash(std::size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (Slot& slot : old) {
      if (slot.key == 0) continue;
      for (std::size_t i = mix64(slot.key) & mask_;; i = (i + 1) & mask_) {
        if (slots_[i].key == 0) {
          slots_[i] = std::move(slot);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // entries in slots_, excluding the zero key
  bool has_zero_ = false;
  Value zero_value_{};
};

/// Open-addressing set of std::uint64_t keys (same layout and caveats as
/// FlatMap64, minus the values). Used for reachable-state bookkeeping in the
/// wave search and the transition counters.
class FlatSet64 {
 public:
  FlatSet64() = default;
  explicit FlatSet64(std::size_t expected) : map_(expected) {}

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  bool contains(std::uint64_t key) const { return map_.find(key) != nullptr; }

  /// True if `key` was newly inserted.
  bool insert(std::uint64_t key) {
    return map_.try_emplace(key, Empty{}).second;
  }

  void reserve(std::size_t n) { map_.reserve(n); }
  void clear() { map_.clear(); }

 private:
  struct Empty {};
  FlatMap64<Empty> map_;
};

}  // namespace ios
