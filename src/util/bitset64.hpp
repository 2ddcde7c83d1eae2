#pragma once
// Set64: a value-type set of up to 64 small integers, used by the IOS dynamic
// program to represent subsets of the operators of one block (states S and
// endings S' in Algorithm 1 of the paper). All operations are O(1) bit tricks.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ios {

class Set64 {
 public:
  constexpr Set64() = default;
  constexpr explicit Set64(std::uint64_t bits) : bits_(bits) {}

  /// The set {0, 1, ..., n-1}. Requires n <= 64.
  static constexpr Set64 full(int n) {
    assert(n >= 0 && n <= 64);
    if (n == 0) return Set64{};
    if (n == 64) return Set64{~std::uint64_t{0}};
    return Set64{(std::uint64_t{1} << n) - 1};
  }

  static constexpr Set64 single(int i) {
    assert(i >= 0 && i < 64);
    return Set64{std::uint64_t{1} << i};
  }

  constexpr std::uint64_t bits() const { return bits_; }
  constexpr bool empty() const { return bits_ == 0; }
  constexpr int size() const { return std::popcount(bits_); }
  constexpr bool contains(int i) const { return (bits_ >> i) & 1u; }

  constexpr void insert(int i) { bits_ |= std::uint64_t{1} << i; }
  constexpr void erase(int i) { bits_ &= ~(std::uint64_t{1} << i); }

  constexpr bool is_subset_of(Set64 other) const {
    return (bits_ & ~other.bits_) == 0;
  }
  constexpr bool intersects(Set64 other) const {
    return (bits_ & other.bits_) != 0;
  }

  constexpr Set64 operator|(Set64 o) const { return Set64{bits_ | o.bits_}; }
  constexpr Set64 operator&(Set64 o) const { return Set64{bits_ & o.bits_}; }
  constexpr Set64 operator-(Set64 o) const { return Set64{bits_ & ~o.bits_}; }
  constexpr Set64 operator^(Set64 o) const { return Set64{bits_ ^ o.bits_}; }
  constexpr Set64& operator|=(Set64 o) { bits_ |= o.bits_; return *this; }
  constexpr Set64& operator&=(Set64 o) { bits_ &= o.bits_; return *this; }
  constexpr Set64& operator-=(Set64 o) { bits_ &= ~o.bits_; return *this; }
  constexpr bool operator==(const Set64&) const = default;

  /// Index of the smallest element. Requires non-empty.
  constexpr int first() const {
    assert(!empty());
    return std::countr_zero(bits_);
  }

  /// Iterates set members in increasing order.
  class iterator {
   public:
    constexpr explicit iterator(std::uint64_t bits) : bits_(bits) {}
    constexpr int operator*() const { return std::countr_zero(bits_); }
    constexpr iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    constexpr bool operator!=(const iterator& o) const {
      return bits_ != o.bits_;
    }

   private:
    std::uint64_t bits_;
  };

  constexpr iterator begin() const { return iterator{bits_}; }
  constexpr iterator end() const { return iterator{0}; }

  std::vector<int> to_vector() const {
    std::vector<int> v;
    v.reserve(static_cast<std::size_t>(size()));
    for (int i : *this) v.push_back(i);
    return v;
  }

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace ios
