#include "core/scheduler.hpp"

#include <algorithm>
#include <atomic>
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
  // The wave engine is faster at every worker count, and only it runs the
  // pruned modes. The serial engine stays the exactness reference and the
  // memoize=false ablation. The schedule is identical either way.
  return SearchEngine::kWave;
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
/// stage build is not stored — the cost pass re-reads it from the ending
/// store for the one argmin choice per state.
struct WaveTransition {
  std::uint64_t ending = 0;
  double latency_us = 0;
};

/// A surviving ending of a dominance-mode state: its lower bound on the
/// state's total through it (stage floor plus the exact sub-state cost), its
/// position among the state's surviving endings (the tie-break), its trie
/// node, and the down-set id it leaves.
struct DominanceCandidate {
  double bound = 0;
  std::uint32_t index = 0;
  std::uint32_t node = 0;
  std::uint32_t sub = 0;
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

}  // namespace

BlockTemplateCache::Stages IosScheduler::memo_stages(
    const FlatMap64<Entry>& memo, Set64 all) {
  // Schedule construction (Algorithm 1 L6-11): walk choice[] from the full
  // set back to the empty set. The walk yields stages last-to-first, so
  // append and reverse once.
  BlockTemplateCache::Stages stages;
  for (Set64 s = all; !s.empty();) {
    const Entry& e = *memo.find(s.bits());
    stages.emplace_back(e.choice, static_cast<int>(e.build));
    s -= Set64{e.choice};
  }
  std::reverse(stages.begin(), stages.end());
  return stages;
}

BlockTemplateCache::Template IosScheduler::solve_wave(const BlockDag& dag,
                                                      SchedulerStats* stats) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const PruneMode mode = options_.prune;
  if (mode == PruneMode::kBeam) return solve_beam(dag, stats);
  const int n = dag.size();
  if (n == 0) return {};
  const int max_ops = options_.pruning.unrestricted()
                          ? 64
                          : options_.pruning.r * options_.pruning.s;
  const int max_group_ops =
      options_.pruning.unrestricted() ? 64 : options_.pruning.r;
  const int threads = options_.num_threads;
  const int workers =
      threads <= 0 ? ThreadPool::hardware_threads() : threads;
  PruneFloor floor;
  if (mode == PruneMode::kDominance) {
    floor = make_prune_floor(dag, cost_, options_.pruning, options_.variant);
  }

  // The states are the block's down-sets (predecessor-closed op sets), in
  // popcount levels: an ending strictly shrinks its state, so the levels
  // are a topological order of the DP. Every down-set D is reached: in a
  // down-set S above D, the highest op of S - D has no successor in S (D is
  // closed under predecessors), so its singleton is an ending — one group
  // of one op, which P(r, s) never cuts (r, s >= 1) and IOS-Merge runs
  // sequentially — and removing such singletons walks from the full set
  // down to D. Nothing else is reached: removing an ending E from a
  // down-set S leaves a down-set, because E is closed under in-S
  // successors, so no op left in S - E has a predecessor in E.
  // search_engine_test pins the state count to a brute-force down-set
  // count.
  const BlockDag::DownSetIndex downs = dag.down_set_index();
  const BlockDag::EndingTrie trie = dag.ending_trie(max_ops, max_group_ops);

  // Per trie node, its ending's stage latency — NaN until first evaluated,
  // +inf when P(r, s)'s group count cuts it — and its stage build. Both are
  // read and written through relaxed atomic_refs: two threads that meet
  // the same fresh ending both evaluate it and store the same values, and
  // the cost model counts one measurement. The build is read only after
  // the pass, when every store is visible.
  constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> latency(trie.size(), kUnknown);
  std::vector<std::uint8_t> build(trie.size(), 0);
  const auto latency_of = [&](std::uint32_t node, Set64 ending,
                              const Set64* comps, int ncomps) {
    const std::atomic_ref<double> slot(latency[node]);
    double l = slot.load(std::memory_order_relaxed);
    if (std::isnan(l)) {
      const EndingEval eval = compute_ending(dag, ending, comps, ncomps);
      l = eval.pruned ? kInf : eval.latency_us;
      std::atomic_ref<std::uint8_t>(build[node])
          .store(static_cast<std::uint8_t>(eval.build),
                 std::memory_order_relaxed);
      slot.store(l, std::memory_order_relaxed);
    }
    return l;
  };
  // Dominance mode's stage floor per trie node, filled the same way (+inf:
  // cut by the group count). It depends on the ending alone: the enumerator
  // adds an ending's ops in one order from every state, so it hands over
  // the same component list each time.
  std::vector<double> stage_floor;
  if (mode == PruneMode::kDominance) stage_floor.assign(trie.size(), kUnknown);
  const auto stage_floor_of = [&](std::uint32_t node, Set64 ending,
                                  const Set64* comps, int ncomps) {
    const std::atomic_ref<double> slot(stage_floor[node]);
    double lb = slot.load(std::memory_order_relaxed);
    if (std::isnan(lb)) {
      if (scan_ending(options_.pruning, floor, ending, comps, ncomps, &lb)) {
        lb = kInf;
      }
      slot.store(lb, std::memory_order_relaxed);
    }
    return lb;
  };

  // Per down-set, its cost and argmin: the chosen ending's trie node and
  // the id it leaves. Only the state's own task writes them, and the
  // level's parallel_for join publishes them to the later levels.
  struct Choice {
    std::uint32_t node = 0;
    std::uint32_t sub = 0;
  };
  std::vector<double> cost(downs.size(), 0.0);  // cost[0]: the empty set
  std::vector<Choice> choice(downs.size());

  // Per-worker scratch and counters, indexed by parallel_for's slot.
  struct WorkerScratch {
    std::vector<DominanceCandidate> candidates;
    std::int64_t transitions = 0;    // endings visited that P(r, s) kept
    std::int64_t pruned = 0;         // endings visited that P(r, s) cut
    std::int64_t evals = 0;          // dominance: latency look-ups
    std::int64_t pruned_states = 0;  // dominance: states with >= 1 skip
    std::int64_t trimmed = 0;        // dominance: endings cut unevaluated
  };
  std::vector<WorkerScratch> scratch(
      static_cast<std::size_t>(std::max(1, workers)));

  // ---- One ascending pass (popcount ascending) ---------------------------
  // Each state reads its sub-states' costs from strictly lower levels and
  // keeps the first minimum in enumeration order (strict <) — the serial
  // engine's tie-break.
  //  * Exact mode enumerates the state's endings and evaluates each on the
  //    spot; no transition is stored.
  //  * Dominance mode collects each surviving ending with its admissible
  //    stage floor plus the exact sub-state cost, a lower bound on its
  //    total. It then evaluates the candidates cheapest-bound-first and
  //    stops once the bound alone exceeds the best total found — a skipped
  //    candidate provably cannot beat (or tie) the running best, so the
  //    argmin, its tie-break and the found latency are bit-identical to
  //    exact mode while many stages are never simulated at all.
  for (int p = 1; p <= n; ++p) {
    const std::uint32_t first = downs.level_begin[static_cast<std::size_t>(p)];
    const std::size_t cnt =
        downs.level_begin[static_cast<std::size_t>(p) + 1] - first;
    parallel_for(cnt, threads, [&](int slot, std::size_t i) {
      const auto id = static_cast<std::uint32_t>(first + i);
      WorkerScratch& sc = scratch[static_cast<std::size_t>(slot)];
      double best = kInf;
      Choice pick;
      std::int64_t transitions = 0;
      std::int64_t pruned = 0;
      if (mode == PruneMode::kExact) {
        dag.visit_endings(
            downs, id, trie,
            [&](Set64 ending, const Set64* comps, int ncomps,
                std::uint32_t node, std::uint32_t sub) {
              const double l = latency_of(node, ending, comps, ncomps);
              if (l == kInf) {
                ++pruned;
                return;
              }
              ++transitions;
              const double total = l + cost[sub];
              if (total < best) {
                best = total;
                pick = {node, sub};
              }
            });
      } else {
        std::vector<DominanceCandidate>& cands = sc.candidates;
        cands.clear();
        dag.visit_endings(
            downs, id, trie,
            [&](Set64 ending, const Set64* comps, int ncomps,
                std::uint32_t node, std::uint32_t sub) {
              const double lb = stage_floor_of(node, ending, comps, ncomps);
              if (lb == kInf) {
                ++pruned;
                return;
              }
              cands.push_back({lb + cost[sub],
                               static_cast<std::uint32_t>(cands.size()), node,
                               sub});
            });
        transitions = static_cast<std::int64_t>(cands.size());
        // A min-heap on (bound, index): the evaluation below usually stops
        // long before the last candidate, so popping them in order is
        // cheaper than sorting them all.
        const auto after = [](const DominanceCandidate& a,
                              const DominanceCandidate& b) {
          if (a.bound != b.bound) return a.bound > b.bound;
          return a.index > b.index;
        };
        std::make_heap(cands.begin(), cands.end(), after);
        const std::uint64_t s = downs.sets[id];
        std::uint32_t best_index = std::numeric_limits<std::uint32_t>::max();
        std::int64_t evals = 0;
        for (auto end = cands.end(); end != cands.begin(); --end) {
          std::pop_heap(cands.begin(), end, after);
          const DominanceCandidate& c = *(end - 1);
          // Strictly above the running best: this candidate can neither
          // beat nor tie it, and it has the least bound left, so every
          // remaining candidate is out too. Ties (bound == best) are still
          // evaluated so the enumeration-order tie-break sees every minimal
          // one.
          if (c.bound > best || !std::isfinite(c.bound)) break;
          const double l =
              latency_of(c.node, Set64{s & ~downs.sets[c.sub]}, nullptr, 0);
          ++evals;
          if (l == kInf) continue;  // scan_ending already excluded these
          const double total = l + cost[c.sub];
          if (total < best || (total == best && c.index < best_index)) {
            best = total;
            pick = {c.node, c.sub};
            best_index = c.index;
          }
        }
        sc.evals += evals;
        if (evals < transitions) {
          sc.trimmed += transitions - evals;
          ++sc.pruned_states;
        }
      }
      sc.transitions += transitions;
      sc.pruned += pruned;
      if (!std::isfinite(best)) {
        throw std::logic_error(
            "no feasible ending found for a non-empty state");
      }
      cost[id] = best;
      choice[id] = pick;
    }, kSerialLevelCutoff);
  }

  if (stats) {
    WorkerScratch total;
    for (const WorkerScratch& sc : scratch) {
      total.transitions += sc.transitions;
      total.pruned += sc.pruned;
      total.evals += sc.evals;
      total.pruned_states += sc.pruned_states;
      total.trimmed += sc.trimmed;
    }
    // The distinct surviving endings evaluated; every other look-up of a
    // surviving ending is a cache hit. That is every transition in exact
    // mode, as the serial engine counts them, and only the evaluated
    // candidates in dominance mode.
    std::int64_t distinct = 0;
    for (const double l : latency) distinct += std::isfinite(l) ? 1 : 0;
    stats->states += static_cast<std::int64_t>(downs.size()) - 1;
    stats->transitions += total.transitions;
    stats->pruned_endings += total.pruned;
    stats->cache_hits +=
        (mode == PruneMode::kDominance ? total.evals : total.transitions) -
        distinct;
    stats->pruned_states += total.pruned_states;
    stats->beam_trimmed += total.trimmed;
  }

  // Schedule construction: walk the choices from the full set (the last
  // id) down to the empty one (id 0), then put the stages first-to-last.
  BlockTemplateCache::Template tpl;
  for (auto id = static_cast<std::uint32_t>(downs.size() - 1); id != 0;
       id = choice[id].sub) {
    const Choice c = choice[id];
    tpl.stages.emplace_back(downs.sets[id] & ~downs.sets[c.sub],
                            static_cast<int>(build[c.node]));
  }
  std::reverse(tpl.stages.begin(), tpl.stages.end());
  return tpl;
}

BlockTemplateCache::Template IosScheduler::solve_beam(const BlockDag& dag,
                                                      SchedulerStats* stats) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int beam_width = options_.beam_width;
  const int n = dag.size();
  if (n == 0) return {};
  const int max_ops = options_.pruning.unrestricted()
                          ? 64
                          : options_.pruning.r * options_.pruning.s;
  const int max_group_ops =
      options_.pruning.unrestricted() ? 64 : options_.pruning.r;
  const int threads = options_.num_threads;
  const int workers =
      threads <= 0 ? ThreadPool::hardware_threads() : threads;
  const PruneFloor floor =
      make_prune_floor(dag, cost_, options_.pruning, options_.variant);

  // The ending store: one table behind one mutex, which look-ups and
  // inserts hold and evaluations run outside of. Two threads that meet the
  // same fresh ending both evaluate it (deterministically) and the first
  // insert wins. A reached state evaluates at most beam_width + 1 endings,
  // too few to build a trie for.
  std::mutex endings_mu;
  FlatMap64<EndingEval> endings;
  const auto evaluate = [&](Set64 ending) {
    {
      std::lock_guard<std::mutex> lock(endings_mu);
      if (const EndingEval* hit = endings.find(ending.bits())) return *hit;
    }
    const EndingEval eval = compute_ending(dag, ending);
    std::lock_guard<std::mutex> lock(endings_mu);
    return *endings.try_emplace(ending.bits(), eval).first;
  };

  std::int64_t transitions = 0;   // endings kept that P(r, s) kept
  std::int64_t pruned_calls = 0;  // endings kept that P(r, s) cut
  std::int64_t trimmed = 0;       // endings cut unevaluated by the keep set
  double min_cut = kInf;  // min f + h over trim points; kInf = no cut

  // Per-worker scratch, indexed by parallel_for's slot and reused across
  // levels: the discovery's successor dedup and collect-then-select
  // enumeration.
  struct WorkerScratch {
    // Successors met this level, each with its minimum prefix cost via
    // this worker's states.
    FlatMap64<double> met;
    std::vector<std::uint64_t> fresh;  // the keys of met, to fold
    std::vector<std::uint64_t> collected;
    std::vector<std::uint32_t> kept;
  };
  std::vector<WorkerScratch> scratch(
      static_cast<std::size_t>(std::max(1, workers)));

  // The states bucketed by popcount, each level ascending by mask. Which
  // states the beam reaches depends on each state's keep set, and its gap
  // bound on the prefix costs, so it discovers them top-down. It keeps only
  // the transitions it will replay, at most beam_width + 1 per state, in
  // per-level, per-worker vectors.
  std::vector<std::vector<Set64>> levels(static_cast<std::size_t>(n) + 1);
  struct BeamSpan {
    std::uint32_t slot = 0;  // the worker vector holding the transitions
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  struct BeamLevel {
    std::vector<std::vector<WaveTransition>> by_slot;
    std::vector<BeamSpan> spans;  // per state
  };
  std::vector<BeamLevel> beam(static_cast<std::size_t>(n) + 1);

  // ---- Discovery (popcount descending) -----------------------------------
  // Each state evaluates its kept endings, fanned out across the level's
  // states, and meets their successors. fcost[S] is the cheapest known
  // prefix cost from the full set down to S. Each worker keeps its own
  // minimum per successor while a level runs, and the serial step folds
  // those minima in. Since endings strictly shrink states, every transition
  // into S comes from a strictly higher level, so fcost[S] is final before
  // S's level expands. The floor supplies the admissible remainder bound
  // h(S); min over trim points of f + h is the certified lower bound behind
  // latency_gap_bound_us. Each level is sorted by state bits before it
  // expands, so level contents are deterministic regardless of thread
  // count.
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

      // Keeps a surviving ending and meets its successor. Every successor,
      // seen or not: its prefix bound may still drop.
      const auto eval_one = [&](std::uint64_t bits) {
        const EndingEval eval = evaluate(Set64{bits});
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
      // singleton of the state's topologically last op. The valve is always
      // enumerated (excluding everything else is legal), never P-pruned
      // (one group of one op), and always feasible, so every state keeps at
      // least one transition and the DP always completes. The keep set is a
      // prefix of one fixed total order, so it is nested across widths —
      // results are monotone in beam_width.
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
        std::nth_element(sc.kept.begin(), sc.kept.begin() + beam_width,
                         sc.kept.end(), better);
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
      kept.spans[i] = BeamSpan{
          static_cast<std::uint32_t>(slot), static_cast<std::uint32_t>(offset),
          static_cast<std::uint32_t>(out.size() - offset)};
    }, kSerialLevelCutoff);

    // Serial step, O(states + workers x new states): statistics, the gap
    // bound, and the fold of the workers' successors.
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
  }

  // ---- One ascending pass (popcount ascending) ---------------------------
  // Each state replays its kept transitions, reading its sub-states' costs
  // from strictly lower levels, frozen in the memo while the level runs,
  // and keeps the first minimum in enumeration order (strict <) — the
  // serial engine's tie-break. A sub-state may have no memo entry (it was
  // cut); such transitions are skipped, and a state left with no finite
  // cost simply gets no entry of its own. No writer touches the ending
  // store any more, so the argmin's build is read from it without a lock.
  FlatMap64<Entry> memo(seen.size());
  std::vector<Entry> solved;
  for (int p = 1; p <= n; ++p) {
    std::vector<Set64>& level = levels[static_cast<std::size_t>(p)];
    if (level.empty()) continue;
    const std::size_t cnt = level.size();
    const BeamLevel& kept = beam[static_cast<std::size_t>(p)];
    solved.assign(cnt, Entry{});
    parallel_for(cnt, threads, [&](int, std::size_t i) {
      const Set64 s = level[i];
      Entry& best = solved[i];
      best.cost = kInf;
      const BeamSpan& span = kept.spans[i];
      const WaveTransition* tr = kept.by_slot[span.slot].data() + span.offset;
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
        best.build = endings.find(best.choice)->build;
      }
    }, kSerialLevelCutoff);

    // Serial step: the level's costs enter the memo.
    for (std::size_t i = 0; i < cnt; ++i) {
      if (std::isfinite(solved[i].cost)) {
        memo.try_emplace(level[i].bits(), solved[i]);
      }
    }
    std::vector<Set64>().swap(level);
    beam[static_cast<std::size_t>(p)] = BeamLevel{};
  }

  const Entry* root = memo.find(dag.all().bits());
  if (!root) {
    throw std::logic_error("wave search found no feasible schedule");
  }
  if (stats) {
    std::int64_t distinct = 0;  // distinct surviving endings evaluated
    endings.for_each([&distinct](std::uint64_t, const EndingEval& eval) {
      if (!eval.pruned) ++distinct;
    });
    stats->states += static_cast<std::int64_t>(seen.size());
    stats->transitions += transitions;
    stats->pruned_endings += pruned_calls;
    // Identical to the serial engine's counting: repeat lookups of
    // surviving endings are cache hits.
    stats->cache_hits += transitions - distinct;
    stats->beam_trimmed += trimmed;
  }
  // Certified bound: every schedule the trims could have lost costs at
  // least min_cut, so the optimum is >= min(found, min_cut).
  const double found = root->cost;
  return {memo_stages(memo, dag.all()),
          std::max(0.0, found - std::min(found, min_cut))};
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

  // The block's stages as (ending, build) pairs: a template replay's, or a
  // search's. A structurally identical block already solved against the
  // template cache replays its stage layout and the gap bound its search
  // owed.
  std::string block_key;
  std::optional<BlockTemplateCache::Template> tpl;
  if (templates_ != nullptr) {
    block_key = known_key ? *known_key : canonical_block_key(dag);
    tpl = templates_->get(block_key);
    if (tpl && stats) ++stats->block_cache_hits;
  }
  if (!tpl) {
    if (resolved_engine() == SearchEngine::kWave) {
      tpl = solve_wave(dag, stats);
    } else {
      BlockContext ctx{dag, {}, {}};
      solve(ctx, dag.all(), stats);
      tpl = BlockTemplateCache::Template{memo_stages(ctx.memo, dag.all()), 0};
    }
    if (templates_ != nullptr) templates_->put(block_key, *tpl);
  }
  if (stats) stats->latency_gap_bound_us += tpl->latency_gap_bound_us;

  Schedule q;
  for (const auto& [ending, build] : tpl->stages) {
    q.stages.push_back(
        build_stage(dag, Set64{ending}, static_cast<StageBuild>(build)));
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
