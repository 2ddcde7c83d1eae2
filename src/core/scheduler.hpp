#pragma once
// IOS: the Inter-Operator Scheduler (Algorithm 1 of the paper).
//
// For each block of the computation graph, the scheduler runs a dynamic
// program over the block's operator subsets: cost[S] = min over endings S'
// of S of (cost[S - S'] + stage_latency[S']), where stage_latency is
// measured by the profiling CostModel and the stage's parallelization
// strategy ("concurrent execution" vs "operator merge") is chosen by
// GENERATE_STAGE. choice[S] records the argmin so the optimal schedule can
// be reconstructed back-to-front.
//
// Two search engines produce bit-identical results:
//  * kSerial — the reference recursive top-down solver, one thread.
//  * kWave   — an iterative bottom-up solver that groups the states by
//    popcount ("waves") and solves each wave's states in parallel on the
//    shared thread pool (util/thread_pool.hpp's slot-form parallel_for), so
//    even a single large block (NASNet cell, RandWire) uses every core. See
//    IosScheduler::solve_wave.
// Both run one GENERATE_STAGE (IosScheduler::compute_ending), which keys the
// cost model's latency cache by fingerprints derived from an ending's
// component masks. Independent blocks fan out on the same parallel_for.
// Memo and ending caches are flat open-addressing tables (util/flat_map.hpp)
// keyed by Set64::bits().

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/block_dag.hpp"
#include "runtime/cost_model.hpp"
#include "schedule/schedule.hpp"
#include "util/flat_map.hpp"

namespace ios {

/// The pruning strategy P of Section 4.3: an ending is explored only if it
/// has at most `s` groups of at most `r` operators each.
struct PruningStrategy {
  int r = 3;  ///< max operators per group
  int s = 8;  ///< max groups per stage

  static PruningStrategy none() { return {64, 64}; }
  bool unrestricted() const { return r >= 64 && s >= 64; }
};

/// Which parallelization strategies GENERATE_STAGE may use (Section 6.1).
enum class IosVariant {
  kBoth,      ///< IOS-Both: pick the cheaper of merge / concurrent
  kParallel,  ///< IOS-Parallel: concurrent execution only
  kMerge,     ///< IOS-Merge: operator merge only (non-mergeable endings
              ///< execute their operators sequentially on one stream)
};

const char* ios_variant_name(IosVariant v);

/// Which DP solver runs the per-block search. In exact mode both engines
/// explore exactly the same states and produce bit-identical schedules,
/// latencies, and statistics; they differ only in wall-clock behavior. Both
/// hold O(states) memory: neither stores a transition.
enum class SearchEngine {
  kAuto,    ///< kWave when memoization is on and either pruning or more
            ///< than one worker is requested, kSerial otherwise
  kSerial,  ///< reference recursive top-down solver (always one thread);
            ///< the exactness reference for the wave engine
  kWave,    ///< bottom-up solver, wave-parallel on the thread pool; the
            ///< only engine supporting PruneMode
};

const char* search_engine_name(SearchEngine e);

/// How aggressively the DP search may cut state space beyond the paper's
/// P(r, s) transition pruning.
enum class PruneMode {
  /// No state-space cuts: bit-identical schedules, latencies, and
  /// statistics to the reference serial engine. The default.
  kExact,
  /// Argmin dominance: each state tries its endings cheapest admissible
  /// bound first (the stage's roofline floor plus the exact sub-state cost)
  /// and stops once a bound exceeds the best total found, so an ending that
  /// can neither beat nor tie it is never simulated. Provably returns the
  /// exact schedule, so the reported latency_gap_bound_us is always 0 — the
  /// knob saves stage simulations only.
  kDominance,
  /// Per-state transition beam: each state evaluates only its `beam_width`
  /// most promising endings (largest first, enumeration order tie-break)
  /// plus an always-feasible singleton safety valve. Results are monotone
  /// non-worsening in the width and carry a sound latency_gap_bound_us;
  /// schedules may be suboptimal by at most that bound.
  kBeam,
};

const char* prune_mode_name(PruneMode m);

struct SchedulerOptions;

/// Parses a pruning spec — "exact", "dominance", or "beam:<width>" (bare
/// "beam" keeps the default width) — into `options`. Throws
/// std::invalid_argument on unknown specs. This is the string form the CLI
/// (`ios_opt optimize --prune beam:8`) and the benches share.
void apply_prune_spec(SchedulerOptions& options, const std::string& spec);

struct SchedulerOptions {
  PruningStrategy pruning{};
  IosVariant variant = IosVariant::kBoth;
  /// Ablation knob: disable the cost[S] memoization (the DP then re-solves
  /// shared sub-schedules exponentially often). Only the serial engine
  /// supports this — requesting kWave with memoize=false throws.
  bool memoize = true;
  /// DP solver selection; kAuto resolves to the wave engine when
  /// memoization is on and the effective worker count (num_threads, or the
  /// hardware threads when <= 0) exceeds one. The found schedule is
  /// identical either way.
  SearchEngine engine = SearchEngine::kAuto;
  /// Worker-thread target for the whole search: independent blocks run
  /// their DPs concurrently (Section 4.2), and within a block the wave
  /// engine evaluates each popcount level's states concurrently. All
  /// workers come from the shared process-wide pool (shared_thread_pool());
  /// 1 = fully sequential; <= 0 = one per hardware thread. The resulting
  /// schedule is identical regardless of the count.
  int num_threads = 1;
  /// State-space pruning beyond P(r, s). Non-exact modes require the wave
  /// engine (kAuto resolves there; kSerial throws) and memoization.
  /// Results stay bit-identical across thread counts in every mode.
  PruneMode prune = PruneMode::kExact;
  /// Endings each state evaluates under PruneMode::kBeam (>= 1; the
  /// always-feasible safety-valve singleton is added on top). Larger widths
  /// are monotone non-worsening; a width >= the state's ending count is
  /// exact.
  int beam_width = 8;

  /// Throws std::invalid_argument on inconsistent settings (pruning bounds
  /// < 1, wave engine with memoization disabled). Called by the
  /// IosScheduler constructor and by every caching front end *before* its
  /// cache lookup, so an invalid combination is rejected identically
  /// whether or not an equivalent request is already cached.
  void validate() const;
};

struct SchedulerStats {
  std::int64_t states = 0;       ///< distinct S values solved
  std::int64_t transitions = 0;  ///< (S, S') pairs explored (pruned excluded)
  std::int64_t measurements = 0; ///< distinct stage profiles requested
  /// Ending evaluations served from the per-block cache for endings that
  /// survived pruning. Repeat visits to *pruned* endings are counted in
  /// pruned_endings instead, so the two counters partition the repeat
  /// lookups by their verdict.
  std::int64_t cache_hits = 0;
  /// Ending visits cut by P(r, s) — every (S, S') pair whose ending is
  /// pruned, including repeat visits answered from the cache.
  std::int64_t pruned_endings = 0;
  /// States where the dominance bound skipped at least one transition's
  /// evaluation. Zero in exact and beam modes.
  std::int64_t pruned_states = 0;
  /// Transitions cut without their stage being evaluated: by the beam
  /// width cap (beam mode), or by the dominance argmin bound — a
  /// transition whose admissible stage floor plus exact sub-state cost
  /// cannot beat the state's best evaluated total is skipped before its
  /// stage is simulated, which provably changes nothing about the found
  /// schedule. Zero in exact mode.
  std::int64_t beam_trimmed = 0;
  /// Sound upper bound on how far the found latency can sit above the exact
  /// optimum, summed over blocks. Always 0 for kExact and kDominance; a
  /// beam search reports the bound its cut states imply.
  double latency_gap_bound_us = 0;
  /// Blocks whose schedule was replayed from the scheduler's
  /// BlockTemplateCache instead of a DP run (0 without one).
  std::int64_t block_cache_hits = 0;
  /// Stage measurements answered by the cost model's canonical stage cache
  /// (0 unless one is attached), and how many of those were recorded by a
  /// different graph or loaded from a ProfileDb.
  std::int64_t canonical_hits = 0;
  std::int64_t cross_model_hits = 0;
  double profiling_cost_us = 0;  ///< simulated device time spent profiling
  double search_wall_ms = 0;     ///< host time spent in the DP itself

  /// Accumulates another block's stats (used to merge schedule_partition's
  /// per-block stats at join).
  SchedulerStats& operator+=(const SchedulerStats& o) {
    states += o.states;
    transitions += o.transitions;
    measurements += o.measurements;
    cache_hits += o.cache_hits;
    pruned_endings += o.pruned_endings;
    pruned_states += o.pruned_states;
    beam_trimmed += o.beam_trimmed;
    latency_gap_bound_us += o.latency_gap_bound_us;
    block_cache_hits += o.block_cache_hits;
    canonical_hits += o.canonical_hits;
    cross_model_hits += o.cross_model_hits;
    profiling_cost_us += o.profiling_cost_us;
    search_wall_ms += o.search_wall_ms;
    return *this;
  }
};

/// Cross-request block reuse: solved block stage layouts keyed by the
/// canonical block descriptor (operator kinds, attributes, shapes, internal
/// wiring, device, kernel params, protocol, and scheduler config; see
/// IosScheduler::canonical_block_key). A scheduler given a cache replays a
/// hit onto any structurally identical block — in this graph or another one
/// scheduled against the same cache — instead of running the DP. Hits make
/// SchedulerStats depend on what the cache's owner scheduled before, so
/// reuse is scoped to whoever owns the cache (an Optimizer owns one for its
/// lifetime). Thread-safe; insert-only, first writer wins.
class BlockTemplateCache {
 public:
  /// A solved block: its stages first-to-last as (ending mask, stage build)
  /// pairs in block-local indices, plus the block's contribution to
  /// SchedulerStats::latency_gap_bound_us, re-added on every replay.
  struct Template {
    std::vector<std::pair<std::uint64_t, int>> stages;
    double latency_gap_bound_us = 0;
  };

  /// The template solved under `key`; empty when none was stored.
  std::optional<Template> get(const std::string& key) const;
  /// Stores `value` under `key` unless the key is already present.
  void put(const std::string& key, Template value);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Template> map_;
};

class IosScheduler {
 public:
  /// `templates` turns on cross-request block reuse against that cache
  /// (nullptr = off). Throws std::invalid_argument on invalid options, and
  /// when `templates` is set under a noisy protocol: noisy measurements are
  /// seeded per op-id stage fingerprint, so replaying another block's stage
  /// layout would change the schedules found.
  IosScheduler(CostModel& cost, SchedulerOptions options = {},
               BlockTemplateCache* templates = nullptr);

  /// Schedules every block of the cost model's graph and concatenates the
  /// per-block schedules (Section 4.2: blocks are optimized separately).
  Schedule schedule_graph(SchedulerStats* stats = nullptr);

  /// Schedules one block given its operators.
  Schedule schedule_block(std::span<const OpId> block_ops,
                          SchedulerStats* stats = nullptr);

  /// Schedules an explicit partition (e.g. from auto_partition()) instead of
  /// the graph's built-in block annotations.
  Schedule schedule_partition(const std::vector<std::vector<OpId>>& blocks,
                              SchedulerStats* stats = nullptr);

  /// The engine an option set resolves to (kAuto applied).
  SearchEngine resolved_engine() const;

 private:
  /// How the stage for a chosen ending is constructed.
  enum class StageBuild {
    kConcurrentGroups,  ///< one group per weakly connected component
    kMergeSingle,       ///< all ops stacked into one merged kernel
    kSequentialSingle,  ///< one group, one stream (IOS-Merge fallback)
  };

  struct Entry {
    double cost = 0;
    std::uint64_t choice = 0;  // ending mask of the last stage
    StageBuild build = StageBuild::kConcurrentGroups;
  };

  /// Cached per-ending evaluation: GENERATE_STAGE's result plus the pruning
  /// verdict. Both depend only on the ending (not on the DP state), so they
  /// are computed once per distinct ending instead of once per transition.
  struct EndingEval {
    bool pruned = false;
    double latency_us = 0;
    StageBuild build = StageBuild::kConcurrentGroups;
  };

  struct BlockContext {
    const BlockDag& dag;
    FlatMap64<Entry> memo;
    FlatMap64<EndingEval> ending_cache;  // serial engine only
  };

  /// The wave engine's shared ending cache: stripes of independently locked
  /// flat tables (defined in scheduler.cpp).
  struct EndingStripes;

  /// GENERATE_STAGE (Algorithm 1 L23-33) specialized by the variant, plus
  /// the P(r, s) pruning verdict, for an ending whose `ncomps` weakly
  /// connected components are `comps`, in any order (the wave enumerator
  /// maintains them as it recurses). A null `comps` means
  /// dag.components(ending). Pure with respect to the DP state, and the one
  /// GENERATE_STAGE both engines run. The stage fingerprints are derived
  /// from the component masks, so a warm latency cache is probed without
  /// materializing any Stage; a miss builds its stage once.
  EndingEval compute_ending(const BlockDag& dag, Set64 ending,
                            const Set64* comps = nullptr,
                            int ncomps = 0) const;

  /// compute_ending memoized in ctx.ending_cache with hit/pruned counting
  /// (serial engine path).
  EndingEval evaluate_ending(BlockContext& ctx, Set64 ending,
                             SchedulerStats* stats);

  /// SCHEDULER (Algorithm 1 L13-22): the reference recursive solver.
  double solve(BlockContext& ctx, Set64 s, SchedulerStats* stats);

  /// The wave engine: fills ctx.memo in one pass over the states, level by
  /// level in ascending popcount, each level's states in parallel. In
  /// exact and dominance mode the states are the block's non-empty
  /// down-sets (BlockDag::down_sets), and each state evaluates its endings
  /// as it solves, storing no transition. Exact mode produces bit-identical
  /// memo entries and statistics to solve(ctx, dag.all()). kDominance
  /// evaluates lazily, skipping every ending whose floor-plus-exact-sub-cost
  /// bound cannot beat the state's running best — bit-identical results
  /// with fewer simulations. kBeam first discovers its states top-down,
  /// evaluating only the `beam_width` endings selected per state and
  /// keeping those for the pass. Returns the block's certified latency gap
  /// bound (0 outside kBeam), computed whether or not `stats` is given. See
  /// scheduler.cpp for the machinery.
  double solve_wave(BlockContext& ctx, SchedulerStats* stats);

  /// schedule_block with the block's canonical_block_key already built
  /// (`known_key`, ignored without a template cache); null builds it here.
  Schedule schedule_block_keyed(std::span<const OpId> block_ops,
                                const std::string* known_key,
                                SchedulerStats* stats);

  /// The cross-request identity of a block: operator kinds, attributes (as
  /// attrs_to_json lists them), and shapes by local index, internal wiring,
  /// external-input sharing structure and shapes, the scheduler config, and
  /// the measurement environment. Equal keys get bit-identical DP outcomes,
  /// so the block template cache can replay the stage layout.
  std::string canonical_block_key(const BlockDag& dag) const;

  Stage build_stage(const BlockDag& dag, Set64 ending, StageBuild build) const;

  /// The concurrent stage for an ending whose weakly connected components
  /// are already known, one group per component in the given order.
  static Stage concurrent_stage(const BlockDag& dag,
                                std::span<const Set64> comps);

  CostModel& cost_;
  SchedulerOptions options_;
  BlockTemplateCache* templates_;  ///< null = no cross-request block reuse
};

}  // namespace ios
