#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/bitset64.hpp"
#include "util/flat_map.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ios {
namespace {

TEST(Set64, EmptyAndFull) {
  Set64 e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.size(), 0);
  EXPECT_EQ(Set64::full(0).size(), 0);
  EXPECT_EQ(Set64::full(5).size(), 5);
  EXPECT_EQ(Set64::full(64).size(), 64);
}

TEST(Set64, InsertEraseContains) {
  Set64 s;
  s.insert(3);
  s.insert(10);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.size(), 2);
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size(), 1);
}

TEST(Set64, SetAlgebra) {
  const Set64 a = Set64::single(1) | Set64::single(2);
  const Set64 b = Set64::single(2) | Set64::single(3);
  EXPECT_EQ((a & b).to_vector(), std::vector<int>{2});
  EXPECT_EQ((a | b).size(), 3);
  EXPECT_EQ((a - b).to_vector(), std::vector<int>{1});
  EXPECT_TRUE((a & b).is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE((a - b).intersects(b));
}

TEST(Set64, IterationAscending) {
  Set64 s;
  s.insert(63);
  s.insert(0);
  s.insert(17);
  EXPECT_EQ(s.to_vector(), (std::vector<int>{0, 17, 63}));
  EXPECT_EQ(s.first(), 0);
}

TEST(Hash, MixIsInjectiveOnSmallRange) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(mix64(i)).second);
  }
}

TEST(Hash, CombineOrderDependent) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

TEST(Rng, DeterministicAndUniform) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());

  Rng r(7);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, UniformIntInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(7);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 7);
  }
}

TEST(Stats, MeanGeomeanStd) {
  const double xs[] = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3);
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
  EXPECT_NEAR(stddev(xs), 1.5275, 1e-3);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(Stats, PercentileEdgeContract) {
  // The documented edge behavior: an empty sample has no percentiles (NaN,
  // never a crash or a fabricated 0), a one-element sample answers that
  // element for every p, and p=0/p=100 are exactly min/max.
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(mean(empty)));
  EXPECT_TRUE(std::isnan(percentile_sorted(empty, 50)));
  EXPECT_TRUE(std::isnan(percentile_sorted(empty, 99)));

  const double one[] = {42.5};
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(one, p), 42.5);
  }

  const double sorted[] = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 50), 2.5);  // interpolated
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long_name", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| long_name"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

TEST(FlatMap64, InsertFindAndOverwrite) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_TRUE(m.try_emplace(42, 1).second);
  EXPECT_FALSE(m.try_emplace(42, 2).second);  // kept the first value
  ASSERT_NE(m.find(42), nullptr);
  EXPECT_EQ(*m.find(42), 1);
  m.insert_or_assign(42, 7);
  EXPECT_EQ(*m.find(42), 7);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64, SupportsTheZeroKey) {
  // Key 0 is the empty-slot sentinel internally; it must still behave like
  // any other key externally (stage fingerprints could in principle be 0).
  FlatMap64<int> m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_TRUE(m.try_emplace(0, 9).second);
  EXPECT_FALSE(m.try_emplace(0, 10).second);
  EXPECT_EQ(*m.find(0), 9);
  EXPECT_EQ(m.size(), 1u);
  int seen = 0;
  m.for_each([&](std::uint64_t key, const int& v) {
    EXPECT_EQ(key, 0u);
    seen = v;
  });
  EXPECT_EQ(seen, 9);
  m.clear();
  EXPECT_EQ(m.find(0), nullptr);
}

TEST(FlatMap64, GrowsAndMatchesReferenceMap) {
  // Adversarial keys: dense small integers AND bit-shifted masks, both of
  // which would cluster badly without the mixing probe.
  FlatMap64<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(7);
  for (int i = 1; i <= 5000; ++i) {
    const std::uint64_t key =
        (i % 3 == 0) ? static_cast<std::uint64_t>(i)
                     : rng.next_u64() | 1;  // mixed dense + random, never 0
    m.try_emplace(key, key * 2);
    ref.try_emplace(key, key * 2);
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [key, value] : ref) {
    ASSERT_NE(m.find(key), nullptr) << key;
    EXPECT_EQ(*m.find(key), value);
  }
  std::size_t visited = 0;
  m.for_each([&](std::uint64_t key, const std::uint64_t& v) {
    ++visited;
    EXPECT_EQ(ref.at(key), v);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap64, ReserveAvoidsIncrementalGrowth) {
  FlatMap64<int> m;
  m.reserve(1000);
  for (std::uint64_t k = 1; k <= 1000; ++k) m.try_emplace(k, 1);
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_EQ(*m.find(500), 1);
}

TEST(FlatMap64, AtThrowsAndSubscriptInserts) {
  FlatMap64<double> m;
  EXPECT_THROW((void)m.at(5), std::out_of_range);
  m[5] = 1.5;
  m[0] += 2.0;  // a missing key starts value-initialized
  EXPECT_EQ(m.at(5), 1.5);
  EXPECT_EQ(m.at(0), 2.0);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap64, ReserveRejectsCountsNoTableCanHold) {
  // The bound check runs before the capacity arithmetic, which would
  // otherwise overflow and spin forever.
  FlatMap64<double> m;
  EXPECT_THROW(m.reserve(std::numeric_limits<std::size_t>::max()),
               std::length_error);
  EXPECT_TRUE(m.empty());
}

TEST(FlatSet64, InsertOnce) {
  FlatSet64 s;
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.contains(3));
  EXPECT_EQ(s.size(), 1u);
  s.clear();
  EXPECT_FALSE(s.contains(3));
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialWhenOneThread) {
  // num_threads = 1 must never touch the pool: indices run in order on the
  // calling thread.
  std::vector<std::size_t> order;
  parallel_for(10, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NestsWithoutDeadlock) {
  // Outer x inner fan-out both drawing from the shared pool; the caller
  // thread always participates, so this completes even on a single core.
  std::atomic<int> total{0};
  parallel_for(8, 4, [&](std::size_t) {
    parallel_for(8, 4, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(16, 4,
                   [&](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(FingerprintGroups, SeparatorsMatter) {
  struct G {
    std::vector<int> ops;
  };
  const std::vector<G> ab_c = {{{1, 2}}, {{3}}};
  const std::vector<G> a_bc = {{{1}}, {{2, 3}}};
  const std::vector<G> abc = {{{1, 2, 3}}};
  EXPECT_NE(fingerprint_groups(1, ab_c), fingerprint_groups(1, a_bc));
  EXPECT_NE(fingerprint_groups(1, ab_c), fingerprint_groups(1, abc));
  EXPECT_NE(fingerprint_groups(1, abc), fingerprint_groups(2, abc));
  EXPECT_EQ(fingerprint_groups(1, ab_c), fingerprint_groups(1, ab_c));
}

}  // namespace
}  // namespace ios
