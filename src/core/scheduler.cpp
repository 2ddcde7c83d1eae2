#include "core/scheduler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "sim/kernel_model.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ios {

const char* ios_variant_name(IosVariant v) {
  switch (v) {
    case IosVariant::kBoth: return "IOS-Both";
    case IosVariant::kParallel: return "IOS-Parallel";
    case IosVariant::kMerge: return "IOS-Merge";
  }
  return "?";
}

const char* search_engine_name(SearchEngine e) {
  switch (e) {
    case SearchEngine::kAuto: return "auto";
    case SearchEngine::kSerial: return "serial";
    case SearchEngine::kWave: return "wave";
  }
  return "?";
}

const char* prune_mode_name(PruneMode m) {
  switch (m) {
    case PruneMode::kExact: return "exact";
    case PruneMode::kDominance: return "dominance";
    case PruneMode::kBeam: return "beam";
  }
  return "?";
}

void apply_prune_spec(SchedulerOptions& options, const std::string& spec) {
  if (spec == "exact") {
    options.prune = PruneMode::kExact;
    return;
  }
  if (spec == "dominance") {
    options.prune = PruneMode::kDominance;
    return;
  }
  if (spec == "beam") {  // bare "beam" keeps the default width
    options.prune = PruneMode::kBeam;
    return;
  }
  if (spec.rfind("beam:", 0) == 0) {
    const std::string width = spec.substr(5);
    std::size_t pos = 0;
    int w = 0;
    try {
      w = std::stoi(width, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != width.size() || w < 1) {
      throw std::invalid_argument("invalid beam width '" + width +
                                  "' (expected an integer >= 1)");
    }
    options.prune = PruneMode::kBeam;
    options.beam_width = w;
    return;
  }
  throw std::invalid_argument("unknown prune spec '" + spec +
                              "' (expected exact, dominance, or beam:<width>)");
}

void SchedulerOptions::validate() const {
  if (pruning.r < 1 || pruning.s < 1) {
    throw std::invalid_argument("pruning parameters must be >= 1");
  }
  if (beam_width < 1) {
    throw std::invalid_argument("beam_width must be >= 1");
  }
  if (engine == SearchEngine::kWave && !memoize) {
    throw std::invalid_argument(
        "the wave engine memoizes by construction; use engine=kSerial for "
        "the memoize=false ablation");
  }
  if (prune != PruneMode::kExact) {
    if (!memoize) {
      throw std::invalid_argument(
          "pruned search modes require memoization (the bounds are relaxed "
          "over the memoized state graph)");
    }
    if (engine == SearchEngine::kSerial) {
      throw std::invalid_argument(
          "pruned search modes require the wave engine (engine=kAuto or "
          "kWave)");
    }
  }
}

std::optional<BlockTemplateCache::Template> BlockTemplateCache::get(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void BlockTemplateCache::put(const std::string& key, Template value) {
  std::lock_guard<std::mutex> lock(mu_);
  map_.try_emplace(key, std::move(value));
}

IosScheduler::IosScheduler(CostModel& cost, SchedulerOptions options,
                           BlockTemplateCache* templates)
    : cost_(cost), options_(options), templates_(templates) {
  options_.validate();
  if (templates_ != nullptr && cost_.protocol().noise_frac > 0) {
    throw std::invalid_argument(
        "cross-block reuse requires a noise-free protocol: noisy "
        "measurements are seeded per op-id stage fingerprint, so replaying "
        "another block's stage layout would change the schedules found");
  }
}

SearchEngine IosScheduler::resolved_engine() const {
  if (options_.engine != SearchEngine::kAuto) return options_.engine;
  if (!options_.memoize) return SearchEngine::kSerial;
  // Pruned modes exist only in the wave engine.
  if (options_.prune != PruneMode::kExact) return SearchEngine::kWave;
  // Both engines hold O(states) memory, and a single-worker wave search is
  // somewhat faster. Single-threaded callers (the serving prewarm among
  // them) still get the recursive engine, so their search path and timing
  // stay what the serving benchmarks have measured;
  // SearchEngine.AutoResolvesByMemoizationAndWorkers pins the choice. The
  // schedule is identical either way.
  const int workers = options_.num_threads > 0 ? options_.num_threads
                                               : ThreadPool::hardware_threads();
  return workers > 1 ? SearchEngine::kWave : SearchEngine::kSerial;
}

Stage IosScheduler::concurrent_stage(const BlockDag& dag,
                                     std::span<const Set64> comps) {
  Stage stage;
  stage.strategy = StageStrategy::kConcurrent;
  for (Set64 comp : comps) {
    stage.groups.push_back(Group{dag.to_ops(comp)});
  }
  return stage;
}

Stage IosScheduler::build_stage(const BlockDag& dag, Set64 ending,
                                StageBuild build) const {
  Stage stage;
  switch (build) {
    case StageBuild::kConcurrentGroups:
      return concurrent_stage(dag, dag.components(ending));
    case StageBuild::kMergeSingle:
      stage.strategy = StageStrategy::kMerge;
      stage.groups.push_back(Group{dag.to_ops(ending)});
      break;
    case StageBuild::kSequentialSingle:
      stage.strategy = StageStrategy::kConcurrent;
      stage.groups.push_back(Group{dag.to_ops(ending)});
      break;
  }
  return stage;
}

IosScheduler::EndingEval IosScheduler::compute_ending(const BlockDag& dag,
                                                      Set64 ending,
                                                      const Set64* comps,
                                                      int ncomps) const {
  std::vector<Set64> own;
  if (comps == nullptr) {
    own = dag.components(ending);
    comps = own.data();
    ncomps = static_cast<int>(own.size());
  }
  EndingEval eval;
  // Pruning strategy P(r, s): group sizes were already bounded by the
  // enumeration; the group-count bound s is checked here.
  if (!options_.pruning.unrestricted() && ncomps > options_.pruning.s) {
    eval.pruned = true;
    return eval;
  }

  // The components double as the concurrent stage's groups. Sort a local
  // copy by smallest member (dag.components' order; the wave enumerator
  // hands them over in merge order), so each fingerprint derived below
  // equals stage_fingerprint of the stage it names.
  Set64 sorted[64];
  std::copy(comps, comps + ncomps, sorted);
  std::sort(sorted, sorted + ncomps, [](Set64 a, Set64 b) {
    return std::countr_zero(a.bits()) < std::countr_zero(b.bits());
  });
  const std::span<const Set64> groups(sorted,
                                      static_cast<std::size_t>(ncomps));

  // Tags and separators mirror stage_fingerprint / fingerprint_groups; a
  // miss builds its stage once, inside measure_keyed. search_engine_test
  // pins these keys to stage_fingerprint.
  constexpr std::uint64_t kConcurrentTag = 0x51edu;
  constexpr std::uint64_t kMergeTag = 0x9e37u;
  const auto group_fp = [&dag](std::uint64_t h, Set64 comp) {
    h = hash_combine(h, 0x60ull);
    for (int i : comp) {
      h = hash_combine(h, static_cast<std::uint64_t>(dag.op_of(i)));
    }
    return hash_combine(h, 0xabcdefull);
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  double l_concurrent = kInf;
  if (options_.variant != IosVariant::kMerge) {
    std::uint64_t fp = kConcurrentTag;
    for (const Set64 comp : groups) fp = group_fp(fp, comp);
    l_concurrent = cost_.measure_keyed(
        fp, [&] { return concurrent_stage(dag, groups); });
  }

  double l_merge = kInf;
  if (options_.variant != IosVariant::kParallel && ending.size() >= 2) {
    // Cheap structural pre-check before the full analyze_merge walk: every
    // op must be a single-input convolution for a merge to be possible, and
    // almost every ending fails on its first op — without ever building the
    // op-id vector.
    const Graph& g = cost_.graph();
    bool maybe_merge = true;
    for (int i : ending) {
      const Op& op = g.op(dag.op_of(i));
      if (op.kind != OpKind::kConv2d || op.inputs.size() != 1) {
        maybe_merge = false;
        break;
      }
    }
    if (maybe_merge) {
      const std::vector<OpId> ops = dag.to_ops(ending);
      if (analyze_merge(g, ops)) {
        l_merge = cost_.measure_keyed(group_fp(kMergeTag, ending), [&] {
          return build_stage(dag, ending, StageBuild::kMergeSingle);
        });
      }
    }
  }

  if (options_.variant == IosVariant::kMerge && !std::isfinite(l_merge)) {
    // IOS-Merge fallback: execute the ending's operators sequentially on a
    // single stream (so IOS-Merge degenerates to the sequential schedule on
    // networks with nothing to merge, as reported in Section 6.1).
    eval.build = StageBuild::kSequentialSingle;
    eval.latency_us =
        cost_.measure_keyed(group_fp(kConcurrentTag, ending), [&] {
          return build_stage(dag, ending, StageBuild::kSequentialSingle);
        });
  } else if (l_concurrent <= l_merge) {
    eval.build = StageBuild::kConcurrentGroups;
    eval.latency_us = l_concurrent;
  } else {
    eval.build = StageBuild::kMergeSingle;
    eval.latency_us = l_merge;
  }
  return eval;
}

IosScheduler::EndingEval IosScheduler::evaluate_ending(BlockContext& ctx,
                                                       Set64 ending,
                                                       SchedulerStats* stats) {
  if (const EndingEval* hit = ctx.ending_cache.find(ending.bits())) {
    // Attribute the repeat visit by its verdict: a cached *pruned* ending is
    // another pruned (S, S') pair, not a productive cache hit — fig9's
    // pruning statistics count every cut transition.
    if (stats) {
      if (hit->pruned) {
        ++stats->pruned_endings;
      } else {
        ++stats->cache_hits;
      }
    }
    return *hit;
  }

  const EndingEval eval = compute_ending(ctx.dag, ending);
  if (stats && eval.pruned) ++stats->pruned_endings;
  ctx.ending_cache.try_emplace(ending.bits(), eval);
  return eval;
}

double IosScheduler::solve(BlockContext& ctx, Set64 s, SchedulerStats* stats) {
  if (s.empty()) return 0;  // cost[emptyset] = 0
  if (options_.memoize) {
    if (const Entry* hit = ctx.memo.find(s.bits())) return hit->cost;
  }
  if (stats) ++stats->states;

  Entry best;
  best.cost = std::numeric_limits<double>::infinity();
  const int max_ops = options_.pruning.unrestricted()
                          ? 64
                          : options_.pruning.r * options_.pruning.s;
  const int max_group_ops =
      options_.pruning.unrestricted() ? 64 : options_.pruning.r;
  ctx.dag.for_each_ending(s, max_ops, max_group_ops, [&](Set64 ending) {
    // By value: the recursion below inserts into the flat ending cache,
    // which invalidates pointers into it.
    const EndingEval eval = evaluate_ending(ctx, ending, stats);
    if (eval.pruned) return;
    if (stats) ++stats->transitions;
    const double total = solve(ctx, s - ending, stats) + eval.latency_us;
    if (total < best.cost) {
      best.cost = total;
      best.choice = ending.bits();
      best.build = eval.build;
    }
  });

  if (!std::isfinite(best.cost)) {
    throw std::logic_error("no feasible ending found for a non-empty state");
  }
  ctx.memo.insert_or_assign(s.bits(), best);
  return best.cost;
}

// ---------------------------------------------------------------------------
// Wave engines
// ---------------------------------------------------------------------------

namespace {

/// A transition the beam search keeps between its two passes: 16 bytes. The
/// stage build is not stored — the cost pass re-reads it from the frozen
/// ending stripes for the one argmin choice per state.
struct WaveTransition {
  std::uint64_t ending = 0;
  double latency_us = 0;
};

/// A surviving ending of a dominance-mode state: its lower bound on the
/// state's total through it (stage floor plus the exact sub-state cost) and
/// its position among the state's surviving endings, the tie-break.
struct DominanceCandidate {
  double bound = 0;
  std::uint32_t index = 0;
  std::uint64_t ending = 0;
};

/// An admissible lower bound ("floor") on the remaining-schedule latency of
/// a DP state, derived from the simulator's own resource model. For any
/// stage partition of the op set S the simulated latency is at least
///  * compute:  sum over ops of flops/efficiency, divided by the device's
///    best-case throughput peak * effc(slots) — the simulator allocates at
///    most `slots` warps, and its per-epoch aggregate compute rate never
///    exceeds that ceiling (shares sum to one; operator merge only adds
///    flops-equivalents, since merged kernels pad to the max kernel size);
///  * memory:   weights + outputs only, at bw * effm(slots) — merged
///    kernels deduplicate the shared input read, so input bytes are not a
///    schedule-independent cost, while every schedule moves all weights
///    and all outputs at least once (contention only slows this further);
///  * structure: every stage of m ops issues m kernels spread over at most
///    s streams (a merged stage has m <= s by the group-count bound), each
///    kernel costing kernel_launch_us of serialized stream time.
/// The three are ceilings on different resources that overlap in time, so
/// they combine by max, never sum. Stage/stream sync overhead is charged
/// only to multi-stream stages and is therefore not schedule-independent —
/// it is deliberately left out. Under measurement noise every sample is at
/// least (1 - noise_frac) times the true latency, so the floors are
/// pre-scaled by that factor to stay admissible in the measured metric.
struct PruneFloor {
  double cost_c[64] = {};    ///< per-op compute floor, us (noise-scaled)
  double cost_m[64] = {};    ///< per-op memory floor, us (noise-scaled)
  double tight[64] = {};     ///< per-kernel exec floor, us: the simulator's
                             ///< rate for op i's own kernel never exceeds the
                             ///< device rate at saturation(min(warps_i,
                             ///< slots)) — eff(T) * a / T is maximized at
                             ///< T = a — so one launch of that kernel takes
                             ///< at least max(C_i, M_i) at its own-demand
                             ///< efficiency. Exact for a single-op stage
                             ///< (contention = 1, share = 1, no sync). Only
                             ///< valid for builds that launch op kernels
                             ///< verbatim, i.e. never for a merged stage.
  std::uint64_t merge_mask[64] = {};  ///< ops whose kernels could stack with
                                      ///< op i (conservative superset of
                                      ///< analyze_merge: conv2d, one input,
                                      ///< same producer). An ending can merge
                                      ///< only if it is a subset of its first
                                      ///< op's mask; all-zero when the
                                      ///< variant never merges.
  double launch_per_op = 0;  ///< structural floor per op, us (noise-scaled)
  double launch_single = 0;  ///< floor on any one stage's wall, us: the
                             ///< executor starts a stage's first kernel only
                             ///< after a full kernel_launch_us, so no stage
                             ///< finishes sooner (noise-scaled)

  double eval(Set64 s) const {
    double c = 0;
    double m = 0;
    for (int i : s) {
      c += cost_c[i];
      m += cost_m[i];
    }
    const double structural = launch_per_op * static_cast<double>(s.size());
    return std::max(structural, std::max(c, m));
  }

};

PruneFloor make_prune_floor(const BlockDag& dag, const CostModel& cost,
                            const PruningStrategy& pruning,
                            IosVariant variant) {
  const Graph& g = cost.graph();
  const DeviceSpec& dev = cost.executor().device();
  // saturation(slots, slots, frac) — the simulator's efficiency ceiling
  // (its warp allocation never exceeds the slot count).
  const double eff_c = 1.0 - std::exp(-1.0 / dev.compute_sat_frac);
  const double eff_m = 1.0 - std::exp(-1.0 / dev.memory_sat_frac);
  const double slots = static_cast<double>(dev.total_warp_slots());
  const double peak = dev.peak_flops_per_us();
  const double bw = dev.bytes_per_us();
  const double noise =
      std::max(0.0, 1.0 - cost.protocol().noise_frac);

  PruneFloor floor;
  for (int i = 0; i < dag.size(); ++i) {
    const OpId id = dag.op_of(i);
    const KernelDesc k = kernel_for_op(g, id, cost.executor().kernel_params());
    if (k.flops > 0 && k.efficiency > 0) {
      floor.cost_c[i] = noise * (k.flops / k.efficiency) / (peak * eff_c);
    }
    const double bytes =
        static_cast<double>(g.weight_bytes(id) + g.output_bytes(id));
    floor.cost_m[i] = noise * bytes / (bw * eff_m);
    // Own-demand efficiency: allocation never exceeds min(warps, slots), and
    // eff(T) * alloc / T falls as T grows past alloc, so the kernel's rate is
    // capped by the device rate at its own saturation point. Contention and
    // sharing only slow it further.
    const double own = std::min(k.warps, slots);
    if (own > 0 && slots > 0) {
      const double ec = 1.0 - std::exp(-own / (slots * dev.compute_sat_frac));
      const double em = 1.0 - std::exp(-own / (slots * dev.memory_sat_frac));
      double tc = 0;
      if (k.flops > 0 && k.efficiency > 0 && ec > 0) {
        tc = (k.flops / k.efficiency) / (peak * ec);
      }
      const double tm = em > 0 ? k.bytes / (bw * em) : 0;
      floor.tight[i] = noise * std::max(tc, tm);
    }
  }
  if (variant != IosVariant::kParallel) {
    // Group stackable convolutions by their shared input producer; a
    // superset of analyze_merge's test (stride/padding/extent checks are
    // skipped), which only makes the floor more conservative.
    FlatMap64<std::uint64_t> groups;
    for (int i = 0; i < dag.size(); ++i) {
      const Op& op = g.op(dag.op_of(i));
      if (op.kind != OpKind::kConv2d || op.inputs.size() != 1) continue;
      const auto [slot, inserted] =
          groups.try_emplace(static_cast<std::uint64_t>(op.inputs[0]), 0);
      *slot |= std::uint64_t{1} << i;
    }
    for (int i = 0; i < dag.size(); ++i) {
      const Op& op = g.op(dag.op_of(i));
      if (op.kind != OpKind::kConv2d || op.inputs.size() != 1) continue;
      const std::uint64_t* mask =
          groups.find(static_cast<std::uint64_t>(op.inputs[0]));
      floor.merge_mask[i] = mask != nullptr ? *mask : 0;
    }
  }
  const double s_eff =
      pruning.unrestricted() ? 64.0 : static_cast<double>(pruning.s);
  floor.launch_per_op = noise * dev.kernel_launch_us / s_eff;
  floor.launch_single = noise * dev.kernel_launch_us;
  return floor;
}

/// One structural scan of an ending, fused for the dominance mode's
/// candidate collection: the P(r, s) group-count verdict (compute_ending's
/// prune test — returns true when the ending is pruned) and, when it survives,
/// the admissible stage floor written to *lb. Components come straight
/// from the enumerator (visit_endings maintains them for its group-size
/// cut) — no allocation, no flood fill, and no cost-model probe.
///
/// The floor sharpens PruneFloor::eval(ending) with a per-build stage term.
/// A concurrent stage runs each component on its own stream: k kernels
/// back-to-back, each paying a full launch gap plus at least its own-
/// saturation exec time (PruneFloor::tight) — exact for single-op stages. A
/// merged stage launches one kernel whose padded flops and moved bytes
/// include every op's sums; merging is structurally impossible unless the
/// whole ending stacks over one shared input (merge_mask), so the tight
/// per-kernel term applies whenever it is not. A sequential stream is a
/// superset of the concurrent per-stream bound. Near-exact for the small
/// stages that dominate deep states, which is what makes the lazy skip
/// test bite.
bool scan_ending(const PruningStrategy& pruning, const PruneFloor& floor,
                 Set64 ending, const Set64* comps, int ncomps, double* lb) {
  const int cap = pruning.unrestricted() ? 64 : pruning.s;
  if (ncomps > cap) return true;
  double conc = 0;    // slowest concurrent stream's floor
  double c_all = 0;   // aggregate compute floor of the whole ending
  double m_all = 0;   // aggregate memory floor of the whole ending
  int ops_total = 0;
  for (int ci = 0; ci < ncomps; ++ci) {
    double c = 0;
    double m = 0;
    double t = 0;
    int k = 0;
    for (int i : comps[ci]) {
      c += floor.cost_c[i];
      m += floor.cost_m[i];
      t += floor.tight[i];
      ++k;
    }
    c_all += c;
    m_all += m;
    ops_total += k;
    const double stream_floor =
        std::max(std::max(c, m),
                 static_cast<double>(k) * floor.launch_single + t);
    conc = std::max(conc, stream_floor);
  }
  double stage = conc;
  const std::uint64_t e = ending.bits();
  const int first = std::countr_zero(e);
  if (ops_total >= 2 && first < 64 &&
      (e & ~floor.merge_mask[first]) == 0) {
    // The ending might merge into one kernel: one launch, aggregate sums at
    // the global efficiency ceiling. The cheaper possible build bounds the
    // stage from below.
    stage = std::min(stage, floor.launch_single + std::max(c_all, m_all));
  }
  const double structural =
      floor.launch_per_op * static_cast<double>(ops_total);
  *lb = std::max(std::max(structural, stage), std::max(c_all, m_all));
  return false;
}

/// Below this many states a level runs on the calling thread (parallel_for's
/// inline cutoff). Chosen from the paper zoo: inception-style blocks have
/// hundreds of levels of a handful of states each, where pool dispatch
/// dominated the level's own work.
constexpr std::size_t kSerialLevelCutoff = 24;

/// Below this many fresh entries, EndingStripes::drain runs on the calling
/// thread, as small levels do: the migration is then too short to be worth
/// waking pool helpers.
constexpr std::size_t kDrainInlineBelow = 4096;

}  // namespace

/// Lock-striped ending cache shared by the worker threads of one block's
/// wave search. Each stripe holds two generations: fresh entries in a
/// locked table, and a frozen shard that is never written during a
/// parallel phase and is therefore read without any lock. At each of the
/// wave engine's serial points drain() migrates every stripe's fresh
/// entries into its own frozen shard, the stripes spread over the pool.
/// Most repeat lookups are cross-level — an ending evaluated once recurs
/// under most states of every later wave — so after the first level the
/// hot hit path takes no stripe lock at all. A lookup holds its stripe's
/// lock only around the fresh-table lookup/insert, never across the
/// measurement, so stripes stay available while stages simulate; two
/// threads racing on the same uncached ending both evaluate it
/// (deterministically) and the first insert wins.
struct IosScheduler::EndingStripes {
  static constexpr std::size_t kStripes = 32;  // power of two

  /// A frozen slot; key 0 marks it empty (an ending is never empty).
  struct FrozenSlot {
    std::uint64_t key = 0;
    EndingEval eval;
  };
  /// Every stripe's frozen shard in one slot array, written only by
  /// drain(): stripe i owns the frozen_cap slots from i * frozen_cap, an
  /// open-addressing table probed linearly from the low bits of the key's
  /// hash (shard_index picks the stripe from the high bits). A growth step
  /// is then one allocation, as for a single table: 32 separately growing
  /// tables left enough heap holes to raise a warm optimize's peak RSS by
  /// ~3%.
  std::vector<FrozenSlot> frozen;
  std::size_t frozen_cap = 0;  ///< slots per shard: 0 or a power of two

  /// Aligned so the writers' lock and fresh table share no cache line with
  /// the frozen array's header, which every lookup reads.
  struct alignas(64) Stripe {
    std::mutex mu;
    FlatMap64<EndingEval> fresh;
    std::size_t frozen_size = 0;        ///< entries in this stripe's shard
    std::int64_t frozen_unpruned = 0;   ///< of which not pruned
  };
  std::array<Stripe, kStripes> stripes;
  /// False when the whole search runs on the calling thread — the stripes
  /// are then only ever touched sequentially and the (per-lookup) lock cost
  /// would be pure overhead on the serial fast path.
  bool locked = true;

  explicit EndingStripes(bool locked_) : locked(locked_) {}

  /// The entry for `key` in stripe i's frozen shard, or null.
  const EndingEval* frozen_find(std::size_t i, std::uint64_t key) const {
    if (frozen_cap == 0) return nullptr;
    const FrozenSlot* shard = frozen.data() + i * frozen_cap;
    const std::size_t mask = frozen_cap - 1;
    for (std::size_t j = mix64(key) & mask;; j = (j + 1) & mask) {
      if (shard[j].key == key) return &shard[j].eval;
      if (shard[j].key == 0) return nullptr;
    }
  }

  /// Inserts `key`, known to be absent, into a shard of `cap` slots.
  static void frozen_put(FrozenSlot* shard, std::size_t cap,
                         std::uint64_t key, const EndingEval& eval) {
    const std::size_t mask = cap - 1;
    for (std::size_t j = mix64(key) & mask;; j = (j + 1) & mask) {
      if (shard[j].key == 0) {
        shard[j] = FrozenSlot{key, eval};
        return;
      }
    }
  }

  /// The cached evaluation of `ending`, or evaluate()'s result (the
  /// caller's compute_ending call), cached.
  template <typename Evaluate>
  EndingEval get_or_eval(Set64 ending, Evaluate&& evaluate) {
    const std::uint64_t key = ending.bits();
    const std::size_t i = shard_index(key, kStripes);
    if (const EndingEval* hit = frozen_find(i, key)) return *hit;
    Stripe& stripe = stripes[i];
    if (!locked) {
      if (const EndingEval* hit = stripe.fresh.find(key)) return *hit;
      return *stripe.fresh.try_emplace(key, evaluate()).first;
    }
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      if (const EndingEval* hit = stripe.fresh.find(key)) return *hit;
    }
    const EndingEval eval = evaluate();
    std::lock_guard<std::mutex> lock(stripe.mu);
    return *stripe.fresh.try_emplace(key, eval).first;
  }

  /// Lock-free lookup for after discovery, when the stripes are quiescent
  /// (no writer runs concurrently with the cost pass). The key must have
  /// been evaluated; returns null otherwise.
  const EndingEval* find_frozen(std::uint64_t key) const {
    const std::size_t i = shard_index(key, kStripes);
    if (const EndingEval* hit = frozen_find(i, key)) return hit;
    return stripes[i].fresh.find(key);
  }

  /// Migrates every fresh entry into its stripe's frozen shard, one stripe
  /// per task on `threads` workers (inline when few entries are fresh),
  /// first growing every shard to what the fullest stripe needs. Only the
  /// wave engine calls this, between its parallel phases; after the call,
  /// lookups of everything evaluated so far are lock-free. Because drains
  /// happen only at serial points, the frozen contents after each level
  /// are deterministic regardless of thread count.
  void drain(int threads) {
    std::size_t added = 0;
    std::size_t fullest = 0;
    for (const Stripe& stripe : stripes) {
      added += stripe.fresh.size();
      fullest = std::max(fullest, stripe.frozen_size + stripe.fresh.size());
    }
    if (added == 0) return;
    // The flat tables' load limit: at most 70% of the slots in use.
    std::size_t cap = std::max<std::size_t>(frozen_cap, 16);
    while (fullest * 10 > cap * 7) cap <<= 1;
    std::vector<FrozenSlot> grown;
    if (cap != frozen_cap) grown.resize(kStripes * cap);
    parallel_for(kStripes, added < kDrainInlineBelow ? 1 : threads,
                 [&](std::size_t i) {
      Stripe& stripe = stripes[i];
      FrozenSlot* shard = nullptr;
      if (grown.empty()) {
        shard = &frozen[i * cap];
      } else {
        shard = &grown[i * cap];
        for (std::size_t j = 0; j < frozen_cap; ++j) {
          const FrozenSlot& old = frozen[i * frozen_cap + j];
          if (old.key != 0) frozen_put(shard, cap, old.key, old.eval);
        }
      }
      stripe.fresh.for_each([&](std::uint64_t key, const EndingEval& eval) {
        frozen_put(shard, cap, key, eval);
        if (!eval.pruned) ++stripe.frozen_unpruned;
      });
      stripe.frozen_size += stripe.fresh.size();
      stripe.fresh.clear_retain();
    });
    if (!grown.empty()) {
      frozen.swap(grown);
      frozen_cap = cap;
    }
  }

  /// Distinct non-pruned endings evaluated. Single-threaded use only, after
  /// a drain() with no evaluation since.
  std::int64_t distinct_unpruned() const {
    std::int64_t n = 0;
    for (const Stripe& stripe : stripes) n += stripe.frozen_unpruned;
    return n;
  }
};

double IosScheduler::solve_wave(BlockContext& ctx, SchedulerStats* stats) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const BlockDag& dag = ctx.dag;
  FlatMap64<Entry>& memo = ctx.memo;
  const PruneMode mode = options_.prune;
  const int beam_width = options_.beam_width;  // read in kBeam only
  const int n = dag.size();
  if (n == 0) return 0;
  const int max_ops = options_.pruning.unrestricted()
                          ? 64
                          : options_.pruning.r * options_.pruning.s;
  const int max_group_ops =
      options_.pruning.unrestricted() ? 64 : options_.pruning.r;
  const int threads = options_.num_threads;
  const int workers =
      threads <= 0 ? ThreadPool::hardware_threads() : threads;
  EndingStripes endings(/*locked=*/workers > 1);
  PruneFloor floor;
  if (mode != PruneMode::kExact) {
    floor = make_prune_floor(dag, cost_, options_.pruning, options_.variant);
  }

  std::int64_t transitions = 0;    // endings visited that P(r, s) kept
  std::int64_t pruned_calls = 0;   // endings visited that P(r, s) cut
  std::int64_t pruned_states = 0;  // dominance: states with >= 1 skip
  std::int64_t trimmed = 0;        // endings cut unevaluated (beam keep-set
                                   // or dominance argmin bound)
  std::int64_t lazy_evals = 0;     // dominance: ending lookups
  double min_cut = kInf;  // beam: min f + h over trim points; kInf = no cut

  // Per-worker scratch, indexed by parallel_for's slot and reused across
  // levels: the beam discovery's successor dedup and collect-then-select
  // enumeration, and the dominance mode's candidate list.
  struct WorkerScratch {
    // Successors met this level, each with its minimum prefix cost via
    // this worker's states.
    FlatMap64<double> met;
    std::vector<std::uint64_t> fresh;  // the keys of met, to fold
    std::vector<std::uint64_t> collected;
    std::vector<std::uint32_t> kept;
    std::vector<DominanceCandidate> candidates;
  };
  std::vector<WorkerScratch> scratch(
      static_cast<std::size_t>(std::max(1, workers)));

  // The DP states bucketed by popcount, each level ascending by mask.
  // Popcount levels are a topological order of the DP dependency graph:
  // an ending strictly shrinks its state.
  //
  // Exact and dominance mode reach exactly the block's non-empty down-sets
  // (predecessor-closed op sets), so they generate them directly instead of
  // discovering them. Every down-set D is reached: in a down-set S above D,
  // the highest op of S - D has no successor in S (D is closed under
  // predecessors), so its singleton is an ending — one group of one op,
  // which P(r, s) never cuts (r, s >= 1) and IOS-Merge runs sequentially —
  // and removing such singletons walks from the full set down to D.
  // Nothing else is reached: removing an ending E from a down-set S leaves
  // a down-set, because E is closed under in-S successors, so no op left in
  // S - E has a predecessor in E. search_engine_test pins the state count
  // to a brute-force down-set count.
  //
  // Beam mode discovers its states top-down instead: which states it
  // reaches depends on each state's keep set, and its gap bound on the
  // prefix costs. It keeps only the transitions it will replay, at most
  // beam_width + 1 per state, in per-level, per-worker vectors.
  std::vector<std::vector<Set64>> levels;
  struct BeamSpan {
    std::uint32_t slot = 0;  // the worker vector holding the transitions
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  struct BeamLevel {
    std::vector<std::vector<WaveTransition>> by_slot;
    std::vector<BeamSpan> spans;  // per state
  };
  std::vector<BeamLevel> beam;
  std::size_t total_states = 0;

  if (mode != PruneMode::kBeam) {
    levels = dag.down_sets();
    for (int p = 1; p <= n; ++p) {
      total_states += levels[static_cast<std::size_t>(p)].size();
    }
  } else {
    // ---- Beam discovery (popcount descending) ---------------------------
    // Each state evaluates its kept endings, fanned out across the level's
    // states, and meets their successors. fcost[S] is the cheapest known
    // prefix cost from the full set down to S. Each worker keeps its own
    // minimum per successor while a level runs, and the serial step folds
    // those minima in. Since endings strictly shrink states, every
    // transition into S comes from a strictly higher level, so fcost[S] is
    // final before S's level expands. The floor supplies the admissible
    // remainder bound h(S); min over trim points of f + h is the certified
    // lower bound behind latency_gap_bound_us. Each level is sorted by
    // state bits before it expands, so level contents are deterministic
    // regardless of thread count.
    levels.resize(static_cast<std::size_t>(n) + 1);
    beam.resize(static_cast<std::size_t>(n) + 1);
    levels[static_cast<std::size_t>(n)].push_back(dag.all());
    FlatSet64 seen;
    seen.insert(dag.all().bits());
    FlatMap64<double> fcost;
    fcost.try_emplace(dag.all().bits(), 0.0);
    for (int p = n; p >= 1; --p) {
      std::vector<Set64>& level = levels[static_cast<std::size_t>(p)];
      if (level.empty()) continue;
      std::sort(level.begin(), level.end(),
                [](Set64 a, Set64 b) { return a.bits() < b.bits(); });
      const std::size_t cnt = level.size();
      BeamLevel& kept = beam[static_cast<std::size_t>(p)];
      kept.by_slot.resize(scratch.size());
      kept.spans.resize(cnt);
      std::vector<std::int32_t> pruned_per_state(cnt, 0);
      std::vector<std::int32_t> trimmed_per_state(cnt, 0);

      parallel_for(cnt, threads, [&](int slot, std::size_t i) {
        const Set64 s = level[i];
        WorkerScratch& sc = scratch[static_cast<std::size_t>(slot)];
        std::vector<WaveTransition>& out =
            kept.by_slot[static_cast<std::size_t>(slot)];
        const std::size_t offset = out.size();
        const double* f = fcost.find(s.bits());
        const double f_here = f ? *f : 0;

        // Keeps a surviving ending and meets its successor. Every
        // successor, seen or not: its prefix bound may still drop.
        const auto eval_one = [&](std::uint64_t bits) {
          const EndingEval eval = endings.get_or_eval(
              Set64{bits}, [&] { return compute_ending(dag, Set64{bits}); });
          if (eval.pruned) {
            ++pruned_per_state[i];
            return;
          }
          out.push_back({bits, eval.latency_us});
          const std::uint64_t sub = s.bits() & ~bits;
          if (sub == 0) return;
          const double via = f_here + eval.latency_us;
          const auto [fsub, first] = sc.met.try_emplace(sub, via);
          if (first) {
            sc.fresh.push_back(sub);
          } else if (via < *fsub) {
            *fsub = via;
          }
        };

        // Collect every ending without evaluating, then keep the beam: the
        // `beam_width` best under (popcount desc, enumeration index asc) —
        // bigger endings mean fewer stages — plus the safety valve, the
        // singleton of the state's topologically last op. The valve is
        // always enumerated (excluding everything else is legal), never
        // P-pruned (one group of one op), and always feasible, so every
        // state keeps at least one transition and the DP always completes.
        // The keep set is a prefix of one fixed total order, so it is
        // nested across widths — results are monotone in beam_width.
        sc.collected.clear();
        dag.visit_endings(s, max_ops, max_group_ops,
                          [&sc](Set64 ending, const Set64*, int) {
                            sc.collected.push_back(ending.bits());
                          });
        const std::uint32_t total =
            static_cast<std::uint32_t>(sc.collected.size());
        if (total <= static_cast<std::uint32_t>(beam_width)) {
          for (const std::uint64_t bits : sc.collected) eval_one(bits);
        } else {
          sc.kept.resize(total);
          std::iota(sc.kept.begin(), sc.kept.end(), 0u);
          const std::vector<std::uint64_t>& col = sc.collected;
          const auto better = [&col](std::uint32_t a, std::uint32_t b) {
            const int pa = std::popcount(col[a]);
            const int pb = std::popcount(col[b]);
            if (pa != pb) return pa > pb;
            return a < b;
          };
          std::nth_element(sc.kept.begin(),
                           sc.kept.begin() + beam_width, sc.kept.end(),
                           better);
          sc.kept.resize(static_cast<std::size_t>(beam_width));
          const int top = 63 - std::countl_zero(s.bits());
          const std::uint64_t valve = std::uint64_t{1} << top;
          bool have_valve = false;
          for (const std::uint32_t j : sc.kept) {
            if (col[j] == valve) {
              have_valve = true;
              break;
            }
          }
          if (!have_valve) {
            for (std::uint32_t j = 0; j < total; ++j) {
              if (col[j] == valve) {
                sc.kept.push_back(j);
                break;
              }
            }
          }
          // Ascending collection index restores enumeration order, keeping
          // the cost pass's argmin tie-break identical to the serial
          // engine's.
          std::sort(sc.kept.begin(), sc.kept.end());
          trimmed_per_state[i] =
              static_cast<std::int32_t>(total - sc.kept.size());
          for (const std::uint32_t j : sc.kept) eval_one(col[j]);
        }
        kept.spans[i] = BeamSpan{static_cast<std::uint32_t>(slot),
                                 static_cast<std::uint32_t>(offset),
                                 static_cast<std::uint32_t>(out.size() -
                                                            offset)};
      }, kSerialLevelCutoff);

      // Serial step, O(states + workers x new states): statistics, the
      // gap bound, and the fold of the workers' successors.
      for (std::size_t i = 0; i < cnt; ++i) {
        transitions += kept.spans[i].count;
        pruned_calls += pruned_per_state[i];
        if (trimmed_per_state[i] > 0) {
          trimmed += trimmed_per_state[i];
          // Any schedule reaching this state through a trimmed ending costs
          // at least f + h; together with the found cost this certifies the
          // reported gap bound.
          const double* f = fcost.find(level[i].bits());
          min_cut = std::min(min_cut, (f ? *f : 0) + floor.eval(level[i]));
        }
      }
      for (WorkerScratch& sc : scratch) {
        for (const std::uint64_t sub : sc.fresh) {
          const double via = *sc.met.find(sub);
          const auto [f, first] = fcost.try_emplace(sub, via);
          if (!first && via < *f) *f = via;
          if (seen.insert(sub)) {
            levels[static_cast<std::size_t>(std::popcount(sub))].push_back(
                Set64{sub});
          }
        }
        sc.fresh.clear();
        sc.met.clear_retain();
      }
      // Freeze this level's fresh endings: every later wave's repeat
      // lookups of them become lock-free hits.
      endings.drain(threads);
    }
    total_states = seen.size();
  }

  // ---- One ascending pass (popcount ascending) ---------------------------
  // Each state reads its sub-states' costs from strictly lower levels,
  // frozen in the memo while the level runs, and keeps the first minimum in
  // enumeration order (strict <) — the serial engine's tie-break.
  //  * Exact mode enumerates the state's endings and evaluates each on the
  //    spot, through the shared ending stripes; no transition is stored.
  //  * Dominance mode collects each surviving ending with its admissible
  //    stage floor plus the exact sub-state cost, a lower bound on its
  //    total. It then evaluates the candidates cheapest-bound-first and
  //    stops once the bound alone exceeds the best total found — a skipped
  //    candidate provably cannot beat (or tie) the running best, so the
  //    argmin, its tie-break and the found latency are bit-identical to
  //    exact mode while many stages are never simulated at all.
  //  * Beam mode replays its kept transitions. A sub-state may have no
  //    memo entry (it was cut); such transitions are skipped, and a state
  //    left with no finite cost simply gets no entry of its own.
  memo.reserve(total_states);
  struct Solved {
    Entry best;
    std::int32_t transitions = 0;  // exact, dominance: surviving endings
    std::int32_t pruned = 0;       // exact, dominance: P(r, s)-cut endings
    std::int32_t evals = 0;        // dominance: endings evaluated
  };
  std::vector<Solved> solved;
  for (int p = 1; p <= n; ++p) {
    std::vector<Set64>& level = levels[static_cast<std::size_t>(p)];
    if (level.empty()) continue;
    const std::size_t cnt = level.size();
    solved.assign(cnt, Solved{});
    parallel_for(cnt, threads, [&](int slot, std::size_t i) {
      const Set64 s = level[i];
      Solved& r = solved[i];
      Entry& best = r.best;
      best.cost = kInf;
      // The exact cost of S - ending: a lower-level state, or 0 for the
      // empty one. Exact and dominance mode always have its entry.
      const auto sub_cost = [&memo](std::uint64_t sub) {
        return sub == 0 ? 0.0 : memo.find(sub)->cost;
      };

      if (mode == PruneMode::kExact) {
        dag.visit_endings(
            s, max_ops, max_group_ops,
            [&](Set64 ending, const Set64* comps, int ncomps) {
              const EndingEval eval = endings.get_or_eval(ending, [&] {
                return compute_ending(dag, ending, comps, ncomps);
              });
              if (eval.pruned) {
                ++r.pruned;
                return;
              }
              ++r.transitions;
              const double total =
                  eval.latency_us + sub_cost(s.bits() & ~ending.bits());
              if (total < best.cost) {
                best.cost = total;
                best.choice = ending.bits();
                best.build = eval.build;
              }
            });
      } else if (mode == PruneMode::kDominance) {
        std::vector<DominanceCandidate>& cands =
            scratch[static_cast<std::size_t>(slot)].candidates;
        cands.clear();
        dag.visit_endings(
            s, max_ops, max_group_ops,
            [&](Set64 ending, const Set64* comps, int ncomps) {
              double lb = 0;
              if (scan_ending(options_.pruning, floor, ending, comps, ncomps,
                              &lb)) {
                ++r.pruned;
                return;
              }
              lb += sub_cost(s.bits() & ~ending.bits());
              cands.push_back({lb, static_cast<std::uint32_t>(cands.size()),
                               ending.bits()});
            });
        r.transitions = static_cast<std::int32_t>(cands.size());
        std::sort(cands.begin(), cands.end(),
                  [](const DominanceCandidate& a, const DominanceCandidate& b) {
                    if (a.bound != b.bound) return a.bound < b.bound;
                    return a.index < b.index;
                  });
        std::uint32_t best_index = std::numeric_limits<std::uint32_t>::max();
        for (const DominanceCandidate& c : cands) {
          // Strictly above the running best: this candidate can neither
          // beat nor tie it, and the order is sorted, so every remaining
          // candidate is out too. Ties (bound == best) are still evaluated
          // so the enumeration-order tie-break sees every minimal one.
          if (c.bound > best.cost || !std::isfinite(c.bound)) break;
          const Set64 ending{c.ending};
          const EndingEval eval = endings.get_or_eval(
              ending, [&] { return compute_ending(dag, ending); });
          ++r.evals;
          if (eval.pruned) continue;  // scan_ending already excluded these
          const double total =
              eval.latency_us + sub_cost(s.bits() & ~c.ending);
          if (total < best.cost ||
              (total == best.cost && c.index < best_index)) {
            best.cost = total;
            best.choice = c.ending;
            best.build = eval.build;
            best_index = c.index;
          }
        }
      } else {
        const BeamLevel& kept = beam[static_cast<std::size_t>(p)];
        const BeamSpan& span = kept.spans[i];
        const WaveTransition* tr =
            kept.by_slot[span.slot].data() + span.offset;
        for (std::uint32_t t = 0; t < span.count; ++t) {
          const std::uint64_t sub = s.bits() & ~tr[t].ending;
          double total = tr[t].latency_us;
          if (sub != 0) {
            const Entry* e = memo.find(sub);
            if (!e) continue;  // the sub-state was cut
            total += e->cost;
          }
          if (total < best.cost) {
            best.cost = total;
            best.choice = tr[t].ending;
          }
        }
        if (std::isfinite(best.cost)) {
          best.build = endings.find_frozen(best.choice)->build;
        }
        return;  // a state the cuts left infeasible gets no memo entry
      }
      if (!std::isfinite(best.cost)) {
        throw std::logic_error(
            "no feasible ending found for a non-empty state");
      }
    }, kSerialLevelCutoff);

    // Serial step: the level's costs enter the memo, its counts the totals,
    // and its fresh endings the frozen stripes, so every later level's
    // repeat lookups of them are lock-free hits.
    for (std::size_t i = 0; i < cnt; ++i) {
      const Solved& r = solved[i];
      if (std::isfinite(r.best.cost)) {
        memo.try_emplace(level[i].bits(), r.best);
      }
      transitions += r.transitions;
      pruned_calls += r.pruned;
      lazy_evals += r.evals;
      if (mode == PruneMode::kDominance && r.evals < r.transitions) {
        trimmed += r.transitions - r.evals;
        ++pruned_states;
      }
    }
    endings.drain(threads);
    std::vector<Set64>().swap(level);
    if (mode == PruneMode::kBeam) {
      beam[static_cast<std::size_t>(p)] = BeamLevel{};
    }
  }

  const Entry* root = memo.find(dag.all().bits());
  if (!root) {
    throw std::logic_error("wave search found no feasible schedule");
  }

  if (stats) {
    stats->states += static_cast<std::int64_t>(total_states);
    stats->transitions += transitions;
    stats->pruned_endings += pruned_calls;
    if (mode == PruneMode::kDominance) {
      // Lazy evaluation: only `lazy_evals` of the transitions ever touched
      // the ending cache, so repeat lookups among those are the hits.
      stats->cache_hits += lazy_evals - endings.distinct_unpruned();
    } else {
      // Identical to the serial engine's counting by construction: the same
      // multiset of (S, S') pairs is visited exactly once per solved state,
      // and repeat lookups of surviving endings are cache hits.
      stats->cache_hits += transitions - endings.distinct_unpruned();
    }
    stats->pruned_states += pruned_states;
    stats->beam_trimmed += trimmed;
  }
  // Certified bound: every schedule the trims could have lost costs at
  // least min_cut, so the optimum is >= min(found, min_cut). Dominance
  // never trims a candidate that could beat or tie the best, so nothing
  // feeds min_cut there and the gap is exactly zero.
  const double found = root->cost;
  return std::max(0.0, found - std::min(found, min_cut));
}

std::string IosScheduler::canonical_block_key(const BlockDag& dag) const {
  const Graph& g = cost_.graph();
  std::string key;
  key.reserve(64 + static_cast<std::size_t>(dag.size()) * 48);
  const auto num = [&key](std::int64_t v) {
    key += std::to_string(v);
    key += ',';
  };
  key += "env:";
  num(static_cast<std::int64_t>(cost_.environment_fingerprint()));
  key += "cfg:";
  num(static_cast<int>(options_.variant));
  num(options_.pruning.r);
  num(options_.pruning.s);
  num(static_cast<int>(options_.prune));
  num(options_.prune == PruneMode::kBeam ? options_.beam_width : 0);

  // External producers are identified by first-appearance alias, not OpId:
  // two blocks match when the *sharing structure* of their outside inputs
  // matches (analyze_merge keys on shared-input identity), regardless of
  // where in their graphs they sit.
  std::vector<OpId> external;
  for (int i = 0; i < dag.size(); ++i) {
    const Op& op = g.op(dag.op_of(i));
    key += "op:";
    num(static_cast<int>(op.kind));
    key += attrs_to_json(op).dump();
    key += "out:";
    num(op.output.n);
    num(op.output.c);
    num(op.output.h);
    num(op.output.w);
    key += "in:";
    for (const OpId in : op.inputs) {
      bool internal = false;
      for (int j = 0; j < dag.size(); ++j) {
        if (dag.op_of(j) == in) {
          key += 'i';
          num(j);
          internal = true;
          break;
        }
      }
      if (internal) continue;
      std::size_t alias = 0;
      for (; alias < external.size(); ++alias) {
        if (external[alias] == in) break;
      }
      if (alias == external.size()) external.push_back(in);
      const TensorDesc& d = g.op(in).output;
      key += 'x';
      num(static_cast<std::int64_t>(alias));
      num(d.n);
      num(d.c);
      num(d.h);
      num(d.w);
    }
  }
  return key;
}

Schedule IosScheduler::schedule_block(std::span<const OpId> block_ops,
                                      SchedulerStats* stats) {
  return schedule_block_keyed(block_ops, nullptr, stats);
}

Schedule IosScheduler::schedule_block_keyed(std::span<const OpId> block_ops,
                                            const std::string* known_key,
                                            SchedulerStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t measurements_before = cost_.num_measurements();
  const double profiling_before = cost_.profiling_cost_us();
  const std::int64_t canonical_before = cost_.canonical_hits();
  const std::int64_t cross_before = cost_.cross_model_hits();

  const auto finish = [&](SchedulerStats* st) {
    if (!st) return;
    st->measurements += cost_.num_measurements() - measurements_before;
    st->profiling_cost_us += cost_.profiling_cost_us() - profiling_before;
    st->canonical_hits += cost_.canonical_hits() - canonical_before;
    st->cross_model_hits += cost_.cross_model_hits() - cross_before;
    st->search_wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  };

  BlockDag dag(cost_.graph(), block_ops);

  std::string block_key;
  if (templates_ != nullptr) {
    block_key = known_key ? *known_key : canonical_block_key(dag);
    if (const auto tpl = templates_->get(block_key)) {
      // A structurally identical block was already solved against this
      // cache: replay its stage layout and the gap bound its search owed.
      Schedule q;
      for (const auto& [ending, build] : tpl->stages) {
        q.stages.push_back(
            build_stage(dag, Set64{ending}, static_cast<StageBuild>(build)));
      }
      if (stats) {
        ++stats->block_cache_hits;
        stats->latency_gap_bound_us += tpl->latency_gap_bound_us;
      }
      finish(stats);
      return q;
    }
  }

  BlockContext ctx{dag, {}, {}};
  double gap_bound_us = 0;
  if (resolved_engine() == SearchEngine::kWave) {
    gap_bound_us = solve_wave(ctx, stats);
  } else {
    solve(ctx, dag.all(), stats);
  }
  if (stats) stats->latency_gap_bound_us += gap_bound_us;

  // Schedule construction (Algorithm 1 L6-11): walk choice[] from the full
  // set back to the empty set; the walk yields stages last-to-first, so
  // append and reverse once instead of inserting at the front (O(n) vs the
  // quadratic element shifting of repeated begin() inserts).
  Schedule q;
  BlockTemplateCache::Template tpl{{}, gap_bound_us};
  Set64 s = dag.all();
  while (!s.empty()) {
    const Entry& e = *ctx.memo.find(s.bits());
    const Set64 ending{e.choice};
    q.stages.push_back(build_stage(dag, ending, e.build));
    if (templates_ != nullptr) {
      tpl.stages.emplace_back(e.choice, static_cast<int>(e.build));
    }
    s -= ending;
  }
  std::reverse(q.stages.begin(), q.stages.end());

  if (templates_ != nullptr) {
    std::reverse(tpl.stages.begin(), tpl.stages.end());
    templates_->put(block_key, std::move(tpl));
  }

  finish(stats);
  return q;
}

Schedule IosScheduler::schedule_partition(
    const std::vector<std::vector<OpId>>& blocks, SchedulerStats* stats) {
  // Each block DP is independent (own BlockContext); only the CostModel is
  // shared, and its measurement path is thread-safe. The blocks fan out on
  // parallel_for, which runs them in order on the calling thread at one
  // worker; schedule_block still fans out within a block when the wave
  // engine has threads to use. Per-block stats are accumulated locally and
  // merged at join so worker threads never contend on the caller's
  // counters.
  std::vector<Schedule> per_block(blocks.size());
  std::vector<SchedulerStats> per_stats(blocks.size());
  // schedule_block attributes measurements (and canonical-reuse hits) by
  // diffing the shared CostModel counters, which interleave across
  // concurrent blocks; take one global delta over the whole run instead.
  // Likewise, per-block wall times overlap, so search_wall_ms is the
  // elapsed time of the whole fan-out, not the sum of the workers'.
  const std::int64_t measurements_before = cost_.num_measurements();
  const double profiling_before = cost_.profiling_cost_us();
  const std::int64_t canonical_before = cost_.canonical_hits();
  const std::int64_t cross_before = cost_.cross_model_hits();
  const auto t0 = std::chrono::steady_clock::now();
  if (templates_ == nullptr) {
    parallel_for(blocks.size(), options_.num_threads, [&](std::size_t i) {
      per_block[i] =
          schedule_block(blocks[i], stats ? &per_stats[i] : nullptr);
    });
  } else {
    // Which blocks replay a template must not depend on which concurrent
    // block finishes first. So the keys are built serially, in block order,
    // and a block is searched only if no earlier block has its key and the
    // cache held none for it when the call began. Those searches fan out;
    // the other blocks then replay. At one worker this is the in-order
    // result.
    std::vector<std::string> keys(blocks.size());
    std::unordered_set<std::string> first_seen;
    std::vector<std::size_t> searched;
    std::vector<std::size_t> replayed;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      keys[i] = canonical_block_key(BlockDag(cost_.graph(), blocks[i]));
      const bool search =
          !templates_->get(keys[i]) && first_seen.insert(keys[i]).second;
      (search ? searched : replayed).push_back(i);
    }
    for (const std::vector<std::size_t>* phase : {&searched, &replayed}) {
      parallel_for(phase->size(), options_.num_threads, [&](std::size_t j) {
        const std::size_t i = (*phase)[j];
        per_block[i] = schedule_block_keyed(
            blocks[i], &keys[i], stats ? &per_stats[i] : nullptr);
      });
    }
  }

  Schedule q;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (Stage& stage : per_block[i].stages) {
      q.stages.push_back(std::move(stage));
    }
    if (stats) {
      per_stats[i].measurements = 0;
      per_stats[i].profiling_cost_us = 0;
      per_stats[i].canonical_hits = 0;
      per_stats[i].cross_model_hits = 0;
      per_stats[i].search_wall_ms = 0;
      *stats += per_stats[i];
    }
  }
  if (stats) {
    stats->measurements += cost_.num_measurements() - measurements_before;
    stats->profiling_cost_us += cost_.profiling_cost_us() - profiling_before;
    stats->canonical_hits += cost_.canonical_hits() - canonical_before;
    stats->cross_model_hits += cost_.cross_model_hits() - cross_before;
    stats->search_wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  return q;
}

Schedule IosScheduler::schedule_graph(SchedulerStats* stats) {
  return schedule_partition(cost_.graph().blocks(), stats);
}

}  // namespace ios
