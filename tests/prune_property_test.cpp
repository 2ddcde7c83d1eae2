// Pruning exactness harness. The pruning knob must never silently change
// what the search finds:
//  * kExact is bit-identical to the serial reference engine (kSerial) —
//    schedules, latencies, and every SchedulerStats counter;
//  * kDominance is provably exact: its admissible-floor cut can only remove
//    states no optimal chain passes through, so it must reproduce the exact
//    schedule with latency_gap_bound_us == 0;
//  * kBeam is monotone non-worsening in the beam width, never better than
//    exact, and always within its reported latency-gap bound;
//  * every pruned mode is bit-identical across thread counts.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "models/models.hpp"
#include "util/rng.hpp"

namespace ios {
namespace {

ExecConfig v100_config() { return ExecConfig{tesla_v100(), {}}; }

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].strategy, b.stages[i].strategy) << "stage " << i;
    ASSERT_EQ(a.stages[i].groups.size(), b.stages[i].groups.size())
        << "stage " << i;
    for (std::size_t j = 0; j < a.stages[i].groups.size(); ++j) {
      EXPECT_EQ(a.stages[i].groups[j].ops, b.stages[i].groups[j].ops)
          << "stage " << i << " group " << j;
    }
  }
}

struct SearchRun {
  Schedule schedule;
  SchedulerStats stats;
  double latency_us = 0;
};

SearchRun run(const Graph& g, SchedulerOptions options) {
  SearchRun out;
  CostModel cost(g, v100_config());
  out.schedule = IosScheduler(cost, options).schedule_graph(&out.stats);
  out.latency_us =
      Executor(g, v100_config()).schedule_latency_us(out.schedule);
  return out;
}

void expect_identical_runs(const SearchRun& got, const SearchRun& ref) {
  expect_same_schedule(got.schedule, ref.schedule);
  EXPECT_DOUBLE_EQ(got.latency_us, ref.latency_us);
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.stats.measurements, ref.stats.measurements);
  EXPECT_EQ(got.stats.cache_hits, ref.stats.cache_hits);
  EXPECT_EQ(got.stats.pruned_endings, ref.stats.pruned_endings);
  EXPECT_EQ(got.stats.pruned_states, ref.stats.pruned_states);
  EXPECT_EQ(got.stats.beam_trimmed, ref.stats.beam_trimmed);
  EXPECT_DOUBLE_EQ(got.stats.latency_gap_bound_us,
                   ref.stats.latency_gap_bound_us);
}

/// Random single-block DAG, same shape as the search-engine property tests:
/// 5-9 spatial-preserving ops wired to random earlier outputs, closed by a
/// concat of the leaves. One block keeps the whole DP in a single subset
/// search, the richest setting for pruning decisions.
Graph random_block_graph(std::uint64_t seed) {
  Rng rng(seed);
  Graph g(1 + rng.uniform_int(2), "prune_prop_" + std::to_string(seed));
  const OpId in = g.input(8 + 8 * rng.uniform_int(2), 10, 10);
  g.begin_block();

  std::vector<OpId> nodes{in};
  std::vector<bool> consumed{true};  // the input never joins the concat
  const int num_ops = 5 + rng.uniform_int(5);
  for (int i = 0; i < num_ops; ++i) {
    const std::size_t src = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(nodes.size())));
    const OpId x = nodes[src];
    OpId y;
    const std::string name = "op" + std::to_string(i);
    switch (rng.uniform_int(4)) {
      case 0:
        y = g.conv2d(x, Conv2dAttrs{.out_channels = 8 + 8 * rng.uniform_int(2),
                                    .kh = 1, .kw = 1},
                     name);
        break;
      case 1:
        y = g.conv2d(x, Conv2dAttrs{.out_channels = 8, .kh = 3, .kw = 3,
                                    .ph = 1, .pw = 1},
                     name);
        break;
      case 2:
        y = g.pool2d(x, Pool2dAttrs{Pool2dAttrs::Kind::kMax, 3, 3, 1, 1, 1, 1},
                     name);
        break;
      default:
        y = g.sepconv(x, SepConvAttrs{.out_channels = 8}, name);
        break;
    }
    consumed[src] = true;
    nodes.push_back(y);
    consumed.push_back(false);
  }
  std::vector<OpId> leaves;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!consumed[i]) leaves.push_back(nodes[i]);
  }
  if (leaves.size() > 1) {
    g.concat(leaves, "out");
  }
  g.validate();
  return g;
}

class PruneProperty : public ::testing::TestWithParam<std::uint64_t> {};

// (a) The wave engine in exact mode is the serial reference engine,
// bit for bit — same schedules, latencies, and every counter, for default,
// disabled, and tight pruning strategies. (The test name predates kSerial
// being the reference; it is kept so the test's id stays stable.)
TEST_P(PruneProperty, ExactModeMatchesLegacyWaveBitForBit) {
  const Graph g = random_block_graph(GetParam());
  for (const PruningStrategy pruning :
       {PruningStrategy{}, PruningStrategy::none(), PruningStrategy{2, 2}}) {
    SchedulerOptions serial;
    serial.engine = SearchEngine::kSerial;
    serial.pruning = pruning;
    serial.num_threads = 4;
    const SearchRun ref = run(g, serial);

    SchedulerOptions exact = serial;
    exact.engine = SearchEngine::kWave;
    exact.prune = PruneMode::kExact;
    const SearchRun got = run(g, exact);

    SCOPED_TRACE("seed " + std::to_string(GetParam()) +
                 " r=" + std::to_string(pruning.r) +
                 " s=" + std::to_string(pruning.s));
    expect_identical_runs(got, ref);
    // Exact mode never cuts and never owes a gap.
    EXPECT_EQ(got.stats.pruned_states, 0);
    EXPECT_EQ(got.stats.beam_trimmed, 0);
    EXPECT_DOUBLE_EQ(got.stats.latency_gap_bound_us, 0);
  }
}

// (b) Dominance pruning is exact: never worse than its reported bound, and
// the bound itself is always zero (the floor is admissible, so the cut can
// only remove states no optimal chain passes through).
TEST_P(PruneProperty, DominanceIsExactWithZeroGap) {
  const Graph g = random_block_graph(GetParam());
  SchedulerOptions serial;
  serial.engine = SearchEngine::kSerial;
  const SearchRun exact = run(g, serial);

  SchedulerOptions dom;
  dom.prune = PruneMode::kDominance;
  dom.num_threads = 2;
  const SearchRun got = run(g, dom);

  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  // The contract every pruned mode owes: found <= exact + reported bound.
  EXPECT_LE(got.latency_us,
            exact.latency_us + got.stats.latency_gap_bound_us + 1e-9);
  // And the dominance-specific guarantee: the bound is zero and the
  // schedule is the exact one. (beam_trimmed may be nonzero — dominance
  // drops provably off-optimal transitions before evaluating them.)
  EXPECT_DOUBLE_EQ(got.stats.latency_gap_bound_us, 0);
  EXPECT_DOUBLE_EQ(got.latency_us, exact.latency_us);
  expect_same_schedule(got.schedule, exact.schedule);
}

// (c) Beam search is monotone non-worsening in the width: a wider beam
// keeps a superset of every state's endings, so the found latency can only
// improve. Every width stays within its reported gap bound and never beats
// exact; a run that trimmed nothing is exact.
TEST_P(PruneProperty, BeamMonotoneNonWorseningInWidth) {
  const Graph g = random_block_graph(GetParam());
  SchedulerOptions serial;
  serial.engine = SearchEngine::kSerial;
  const SearchRun exact = run(g, serial);

  double prev = std::numeric_limits<double>::infinity();
  for (const int width : {1, 2, 3, 4, 8, 32}) {
    SchedulerOptions beam;
    beam.prune = PruneMode::kBeam;
    beam.beam_width = width;
    beam.num_threads = 2;
    const SearchRun got = run(g, beam);

    SCOPED_TRACE("seed " + std::to_string(GetParam()) +
                 " width=" + std::to_string(width));
    EXPECT_LE(got.latency_us, prev);
    EXPECT_GE(got.latency_us, exact.latency_us - 1e-9);
    EXPECT_LE(got.latency_us,
              exact.latency_us + got.stats.latency_gap_bound_us + 1e-9);
    if (got.stats.beam_trimmed == 0) {
      EXPECT_DOUBLE_EQ(got.latency_us, exact.latency_us);
      expect_same_schedule(got.schedule, exact.schedule);
    }
    prev = got.latency_us;
  }
}

// (d) Pruned modes are deterministic: bit-identical schedules, latencies,
// and counters for every thread count (the cut set is decided serially from
// finalized costs, and the beam keeps a fixed enumeration-order prefix).
TEST_P(PruneProperty, PrunedModesIdenticalAcrossThreadCounts) {
  const Graph g = random_block_graph(GetParam());
  for (const PruneMode mode : {PruneMode::kDominance, PruneMode::kBeam}) {
    SchedulerOptions base;
    base.prune = mode;
    base.beam_width = 2;  // narrow enough to actually trim
    base.num_threads = 1;
    const SearchRun ref = run(g, base);

    for (const int threads : {2, 4}) {
      SchedulerOptions options = base;
      options.num_threads = threads;
      const SearchRun got = run(g, options);
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + " mode=" +
                   prune_mode_name(mode) +
                   " threads=" + std::to_string(threads));
      expect_identical_runs(got, ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// The paper-zoo claim the bench gates also check: on real models dominance
// reproduces the exact schedule with a zero reported gap.
TEST(PrunePropertyZoo, DominanceExactOnSqueezenet) {
  const Graph g = models::squeezenet(1);
  SchedulerOptions exact_opts;
  exact_opts.num_threads = 2;
  const SearchRun exact = run(g, exact_opts);

  SchedulerOptions dom = exact_opts;
  dom.prune = PruneMode::kDominance;
  const SearchRun got = run(g, dom);
  EXPECT_DOUBLE_EQ(got.stats.latency_gap_bound_us, 0);
  EXPECT_DOUBLE_EQ(got.latency_us, exact.latency_us);
  expect_same_schedule(got.schedule, exact.schedule);
}

// Guard rails: pruned modes require the memoized wave engine, and malformed
// --prune specs are rejected with std::invalid_argument.
TEST(PruneOptions, ValidationAndSpecParsing) {
  SchedulerOptions options;
  apply_prune_spec(options, "dominance");
  EXPECT_EQ(options.prune, PruneMode::kDominance);
  apply_prune_spec(options, "beam");
  EXPECT_EQ(options.prune, PruneMode::kBeam);
  apply_prune_spec(options, "beam:12");
  EXPECT_EQ(options.beam_width, 12);
  apply_prune_spec(options, "exact");
  EXPECT_EQ(options.prune, PruneMode::kExact);

  EXPECT_THROW(apply_prune_spec(options, "beam:0"), std::invalid_argument);
  EXPECT_THROW(apply_prune_spec(options, "beam:x"), std::invalid_argument);
  EXPECT_THROW(apply_prune_spec(options, "greedy"), std::invalid_argument);

  SchedulerOptions bad;
  bad.prune = PruneMode::kBeam;
  bad.beam_width = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  SchedulerOptions serial_prune;
  serial_prune.prune = PruneMode::kDominance;
  serial_prune.engine = SearchEngine::kSerial;
  EXPECT_THROW(serial_prune.validate(), std::invalid_argument);

  SchedulerOptions no_memo;
  no_memo.prune = PruneMode::kDominance;
  no_memo.memoize = false;
  EXPECT_THROW(no_memo.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace ios
