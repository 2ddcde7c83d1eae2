#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/block_dag.hpp"
#include "models/models.hpp"
#include "util/flat_map.hpp"

namespace ios {
namespace {

/// Builds a single-block graph with the given edges over n conv ops.
struct DagBuilder {
  Graph g{1, "dag"};
  std::vector<OpId> ops;

  explicit DagBuilder(int n, const std::vector<std::pair<int, int>>& edges) {
    const OpId in = g.input(4, 4, 4);
    g.begin_block();
    std::vector<std::vector<int>> preds(static_cast<std::size_t>(n));
    for (auto [u, v] : edges) preds[static_cast<std::size_t>(v)].push_back(u);
    for (int i = 0; i < n; ++i) {
      if (preds[static_cast<std::size_t>(i)].empty()) {
        ops.push_back(g.conv2d(
            in, Conv2dAttrs{.out_channels = 4, .kh = 1, .kw = 1}));
      } else if (preds[static_cast<std::size_t>(i)].size() == 1) {
        ops.push_back(g.conv2d(
            ops[static_cast<std::size_t>(preds[static_cast<std::size_t>(i)][0])],
            Conv2dAttrs{.out_channels = 4, .kh = 1, .kw = 1}));
      } else {
        std::vector<OpId> ins;
        for (int p : preds[static_cast<std::size_t>(i)]) {
          ins.push_back(ops[static_cast<std::size_t>(p)]);
        }
        ops.push_back(g.concat(ins));
      }
    }
  }

  BlockDag dag() const { return BlockDag(g, ops); }
};

std::vector<Set64> all_endings(const BlockDag& dag, Set64 s) {
  std::vector<Set64> out;
  dag.for_each_ending(s, 64, [&](Set64 e) { out.push_back(e); });
  return out;
}

TEST(BlockDag, ChainEndingsAreSuffixes) {
  DagBuilder b(4, {{0, 1}, {1, 2}, {2, 3}});
  const BlockDag dag = b.dag();
  const auto endings = all_endings(dag, dag.all());
  // Endings of a chain are exactly its non-empty suffixes.
  ASSERT_EQ(endings.size(), 4u);
  for (const Set64 e : endings) {
    // A suffix {k, ..., n-1}: contiguous top bits.
    const int lo = e.first();
    EXPECT_EQ(e, Set64::full(4) - Set64::full(lo));
  }
}

TEST(BlockDag, IndependentOpsEndingsAreAllSubsets) {
  DagBuilder b(3, {});
  const BlockDag dag = b.dag();
  EXPECT_EQ(all_endings(dag, dag.all()).size(), 7u);  // 2^3 - 1
}

TEST(BlockDag, EndingsValidNoOutgoingEdges) {
  const Graph g = models::fig2_graph(1);
  const auto blocks = g.blocks();
  const BlockDag dag(g, blocks[0]);
  dag.for_each_ending(dag.all(), 64, [&](Set64 e) {
    for (int u : e) {
      EXPECT_TRUE((dag.succ_mask(u) & dag.all()).is_subset_of(e))
          << "ending has an edge leaving it";
    }
  });
}

TEST(BlockDag, EndingsOfSubsetState) {
  DagBuilder b(3, {{0, 1}});  // 0 -> 1, 2 independent
  const BlockDag dag = b.dag();
  // State {0, 2}: endings are {0}, {2}, {0,2}.
  Set64 s;
  s.insert(0);
  s.insert(2);
  EXPECT_EQ(all_endings(dag, s).size(), 3u);
}

TEST(BlockDag, MaxOpsPrunesLargeEndings) {
  DagBuilder b(4, {});
  const BlockDag dag = b.dag();
  std::size_t count = 0;
  dag.for_each_ending(dag.all(), 2, [&](Set64 e) {
    EXPECT_LE(e.size(), 2);
    ++count;
  });
  EXPECT_EQ(count, 4u + 6u);  // C(4,1) + C(4,2)
}

TEST(BlockDag, ComponentsSplitIndependentParts) {
  DagBuilder b(4, {{0, 1}, {2, 3}});
  const BlockDag dag = b.dag();
  const auto comps = dag.components(dag.all());
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].to_vector(), (std::vector<int>{0, 1}));
  EXPECT_EQ(comps[1].to_vector(), (std::vector<int>{2, 3}));
}

TEST(BlockDag, ComponentsRespectInducedSubgraph) {
  DagBuilder b(3, {{0, 1}, {1, 2}});
  const BlockDag dag = b.dag();
  Set64 s;  // {0, 2}: connected only through the removed op 1
  s.insert(0);
  s.insert(2);
  EXPECT_EQ(dag.components(s).size(), 2u);
}

TEST(BlockDag, WidthOfChainIsOne) {
  DagBuilder b(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(b.dag().width(), 1);
}

TEST(BlockDag, WidthOfAntichainIsN) {
  DagBuilder b(6, {});
  EXPECT_EQ(b.dag().width(), 6);
}

TEST(BlockDag, WidthUsesTransitiveClosure) {
  // 0 -> 1 -> 2 plus 3: width 2 even though 0 and 2 are not adjacent.
  DagBuilder b(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(b.dag().width(), 2);
}

TEST(BlockDag, ChainTransitionCount) {
  // Chain of n: states are the n+1 prefixes (incl. empty); state of size k
  // has k suffix endings. Transitions = n(n+1)/2.
  const int n = 6;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  DagBuilder b(n, edges);
  const auto counts = b.dag().count_transitions();
  EXPECT_EQ(counts.states, n + 1);
  EXPECT_EQ(counts.transitions, n * (n + 1) / 2);
}

TEST(BlockDag, IndependentTransitionCount) {
  // n independent ops: states = all 2^n subsets; each non-empty state S has
  // 2^|S| - 1 endings -> total transitions = 3^n - 2^n.
  const int n = 4;
  DagBuilder b(n, {});
  const auto counts = b.dag().count_transitions();
  EXPECT_EQ(counts.states, 1 << n);
  EXPECT_EQ(counts.transitions, 81 - 16);
}

TEST(BlockDag, ChainScheduleCount) {
  // Schedules of a chain of n = compositions of n = 2^(n-1).
  const int n = 5;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  DagBuilder b(n, edges);
  EXPECT_DOUBLE_EQ(b.dag().count_schedules(), 16.0);
}

TEST(BlockDag, IndependentScheduleCountIsFubini) {
  // Ordered set partitions of 3 independent ops: 13.
  DagBuilder b(3, {});
  EXPECT_DOUBLE_EQ(b.dag().count_schedules(), 13.0);
}

TEST(BlockDag, UpperBoundMatchesPaperTable1) {
  // Inception V3: n=11, d=6 -> ~2.6e4 (paper Table 1).
  EXPECT_NEAR(BlockDag::transition_upper_bound(11, 6) / 2.6e4, 1.0, 0.05);
  // RandWire: n=33, d=8 -> ~3.7e9.
  EXPECT_NEAR(BlockDag::transition_upper_bound(33, 8) / 3.7e9, 1.0, 0.05);
  // NasNet: n=18, d=8 -> ~5.2e6.
  EXPECT_NEAR(BlockDag::transition_upper_bound(18, 8) / 5.2e6, 1.0, 0.05);
  // SqueezeNet: n=6, d=3 -> ~2.2e2.
  EXPECT_NEAR(BlockDag::transition_upper_bound(6, 3) / 2.2e2, 1.0, 0.05);
}

TEST(BlockDag, Fig13BoundIsTight) {
  // For d independent chains of c operators, the transition count reaches
  // the paper's bound ((c+2) choose 2)^d exactly (Appendix A). The bound's
  // per-chain pair count includes the empty ending, so the number of
  // non-empty-ending transitions is bound - #states.
  for (const auto& [c, d] :
       {std::pair{2, 2}, std::pair{3, 2}, std::pair{2, 3}}) {
    const Graph g = models::fig13_chains(1, c, d);
    const BlockDag dag(g, g.blocks()[0]);
    EXPECT_EQ(dag.width(), d);
    const auto counts = dag.count_transitions();
    const double bound = BlockDag::transition_upper_bound(c * d, d);
    EXPECT_DOUBLE_EQ(static_cast<double>(counts.transitions),
                     bound - static_cast<double>(counts.states));
  }
}

TEST(BlockDag, MaxGroupOpsPrunesConnectedEndings) {
  // Chain 0 -> 1 -> 2 -> 3: every multi-op ending is one connected group,
  // so max_group_ops = 1 leaves only the single-op endings.
  DagBuilder b(4, {{0, 1}, {1, 2}, {2, 3}});
  const BlockDag dag = b.dag();
  std::size_t count = 0;
  dag.for_each_ending(dag.all(), 64, 1, [&](Set64 e) {
    EXPECT_EQ(e.size(), 1);
    ++count;
  });
  EXPECT_EQ(count, 1u);  // only {3}: larger suffixes are connected
}

TEST(BlockDag, MaxGroupOpsKeepsDisconnectedEndings) {
  // Independent ops: every subset has singleton groups, so max_group_ops=1
  // prunes nothing.
  DagBuilder b(3, {});
  const BlockDag dag = b.dag();
  std::size_t restricted = 0, unrestricted = 0;
  dag.for_each_ending(dag.all(), 64, 1, [&](Set64) { ++restricted; });
  dag.for_each_ending(dag.all(), 64, [&](Set64) { ++unrestricted; });
  EXPECT_EQ(restricted, unrestricted);
}

TEST(BlockDag, GroupPruningMatchesPostFilter) {
  // The incremental component pruning must enumerate exactly the endings a
  // post-hoc components() filter would keep.
  const Graph g = models::fig2_graph(1);
  const BlockDag dag(g, g.blocks()[0]);
  for (int r = 1; r <= 3; ++r) {
    std::vector<std::uint64_t> pruned, filtered;
    dag.for_each_ending(dag.all(), 64, r,
                        [&](Set64 e) { pruned.push_back(e.bits()); });
    dag.for_each_ending(dag.all(), 64, [&](Set64 e) {
      bool ok = true;
      for (Set64 comp : dag.components(e)) {
        if (comp.size() > r) ok = false;
      }
      if (ok) filtered.push_back(e.bits());
    });
    EXPECT_EQ(pruned, filtered) << "r=" << r;
  }
}

/// visit_endings must emit exactly `reference` (for_each_ending's endings
/// under the same caps, in its order), each with the partition
/// components() computes.
void expect_visits(const BlockDag& dag, Set64 s, int max_ops,
                   int max_group_ops,
                   const std::vector<std::uint64_t>& reference) {
  std::vector<std::uint64_t> visited;
  bool comps_match = true;
  dag.visit_endings(s, max_ops, max_group_ops,
                    [&](Set64 e, const Set64* comps, int ncomps) {
                      visited.push_back(e.bits());
                      Set64 got[64];
                      std::copy(comps, comps + ncomps, got);
                      std::sort(got, got + ncomps, [](Set64 a, Set64 b) {
                        return a.first() < b.first();
                      });
                      const std::vector<Set64> want = dag.components(e);
                      if (!std::equal(got, got + ncomps, want.begin(),
                                      want.end())) {
                        comps_match = false;
                      }
                    });
  ASSERT_EQ(visited, reference)
      << "state " << s.bits() << " caps " << max_ops << "/" << max_group_ops;
  ASSERT_TRUE(comps_match)
      << "state " << s.bits() << " caps " << max_ops << "/" << max_group_ops;
}

std::vector<std::uint64_t> reference_endings(const BlockDag& dag, Set64 s,
                                             int max_ops, int max_group_ops) {
  std::vector<std::uint64_t> out;
  dag.for_each_ending(s, max_ops, max_group_ops,
                      [&](Set64 e) { out.push_back(e.bits()); });
  return out;
}

TEST(BlockDag, VisitEndingsMatchesReferenceOnEveryZooState) {
  // The DP hands P(r, s) to the enumerators as r * s ops per ending and r
  // ops per group; the group count s is checked outside them. Besides
  // P(3, 8), which drives the walk below, check P(2, 1) and P(2, 2).
  constexpr std::pair<int, int> kOtherCaps[] = {{2, 2}, {4, 2}};
  std::size_t states = 0;
  for (const std::string& name : models::model_names()) {
    const Graph g = models::build_model(name, 1);
    for (const std::vector<OpId>& block : g.blocks()) {
      const BlockDag dag(g, block);
      SCOPED_TRACE(name + ", block of " + std::to_string(dag.size()));
      // Every state the DP reaches from the full set under P(3, 8).
      std::vector<Set64> todo{dag.all()};
      FlatSet64 seen;
      seen.insert(dag.all().bits());
      while (!todo.empty()) {
        const Set64 s = todo.back();
        todo.pop_back();
        ++states;
        const std::vector<std::uint64_t> endings =
            reference_endings(dag, s, 24, 3);
        expect_visits(dag, s, 24, 3, endings);
        for (const auto& [max_ops, max_group_ops] : kOtherCaps) {
          expect_visits(dag, s, max_ops, max_group_ops,
                        reference_endings(dag, s, max_ops, max_group_ops));
        }
        if (dag.size() <= 20) {
          expect_visits(dag, s, 64, 64, reference_endings(dag, s, 64, 64));
        }
        if (HasFatalFailure()) return;
        for (const std::uint64_t e : endings) {
          const Set64 sub = s - Set64{e};
          if (sub.empty() || seen.contains(sub.bits()) ||
              dag.components(Set64{e}).size() > 8) {
            continue;
          }
          seen.insert(sub.bits());
          todo.push_back(sub);
        }
      }
    }
  }
  // RandWire's three 33-op stages alone reach over 22k states.
  EXPECT_GT(states, 30000u);
}

TEST(BlockDag, RejectsOversizedBlock) {
  std::vector<std::pair<int, int>> edges;
  DagBuilder b(65, {});
  SUCCEED();  // construction of the graph is fine...
  EXPECT_THROW(BlockDag(b.g, b.ops), std::invalid_argument);  // ...the DAG isn't
}

TEST(BlockDag, LocalOfRoundtrip) {
  DagBuilder b(4, {{0, 1}});
  const BlockDag dag = b.dag();
  for (int i = 0; i < dag.size(); ++i) {
    EXPECT_EQ(dag.local_of(dag.op_of(i)), i);
  }
  EXPECT_THROW(dag.local_of(9999), std::out_of_range);
}

TEST(BlockDag, ToOpsMapsBack) {
  DagBuilder b(3, {});
  const BlockDag dag = b.dag();
  Set64 s;
  s.insert(0);
  s.insert(2);
  const auto ops = dag.to_ops(s);
  EXPECT_EQ(ops, (std::vector<OpId>{b.ops[0], b.ops[2]}));
}

}  // namespace
}  // namespace ios
