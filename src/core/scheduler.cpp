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
#include <utility>

#include "sim/kernel_model.hpp"
#include "util/arena.hpp"
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
  // A single-worker wave search is faster than the recursive engine, but it
  // holds every surviving transition between its two passes —
  // O(transitions) memory where the recursive engine needs O(states) — for
  // zero parallelism. Single-threaded callers (the serving prewarm among
  // them) keep the lean engine. The schedule is identical either way.
  const int workers = options_.num_threads > 0 ? options_.num_threads
                                               : ThreadPool::hardware_threads();
  return workers > 1 ? SearchEngine::kWave : SearchEngine::kSerial;
}

Stage IosScheduler::concurrent_stage(const BlockDag& dag,
                                     const std::vector<Set64>& comps) {
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
                                                      Set64 ending) const {
  EndingEval eval;
  // Pruning strategy P(r, s): group sizes were already bounded by the
  // enumeration; the group-count bound s is checked here. The components
  // double as the concurrent stage's groups below.
  const std::vector<Set64> comps = dag.components(ending);
  if (!options_.pruning.unrestricted() &&
      static_cast<int>(comps.size()) > options_.pruning.s) {
    eval.pruned = true;
    return eval;
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<OpId> ops = dag.to_ops(ending);

  double l_concurrent = kInf;
  if (options_.variant != IosVariant::kMerge) {
    l_concurrent = cost_.measure(concurrent_stage(dag, comps));
  }

  double l_merge = kInf;
  if (options_.variant != IosVariant::kParallel && ops.size() >= 2 &&
      analyze_merge(cost_.graph(), ops)) {
    l_merge =
        cost_.measure(build_stage(dag, ending, StageBuild::kMergeSingle));
  }

  if (options_.variant == IosVariant::kMerge && !std::isfinite(l_merge)) {
    // IOS-Merge fallback: execute the ending's operators sequentially on a
    // single stream (so IOS-Merge degenerates to the sequential schedule on
    // networks with nothing to merge, as reported in Section 6.1).
    eval.build = StageBuild::kSequentialSingle;
    eval.latency_us =
        cost_.measure(build_stage(dag, ending, StageBuild::kSequentialSingle));
  } else if (l_concurrent <= l_merge) {
    eval.build = StageBuild::kConcurrentGroups;
    eval.latency_us = l_concurrent;
  } else {
    eval.build = StageBuild::kMergeSingle;
    eval.latency_us = l_merge;
  }
  return eval;
}

IosScheduler::EndingEval IosScheduler::compute_ending_grouped(
    const BlockDag& dag, Set64 ending, const Set64* comps, int ncomps) const {
  EndingEval eval;
  if (!options_.pruning.unrestricted() && ncomps > options_.pruning.s) {
    eval.pruned = true;
    return eval;
  }

  // dag.components orders groups by smallest member; the enumerator hands
  // them over in merge order. Sort a local copy so the derived fingerprints
  // (hence the latency-cache keys and any noise streams seeded by them)
  // match compute_ending bit for bit.
  Set64 sorted[64];
  std::copy(comps, comps + ncomps, sorted);
  std::sort(sorted, sorted + ncomps, [](Set64 a, Set64 b) {
    return std::countr_zero(a.bits()) < std::countr_zero(b.bits());
  });

  // Tags and separators mirror stage_fingerprint / fingerprint_groups;
  // measure_keyed asserts the keys agree with the materialized stage.
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
    for (int c = 0; c < ncomps; ++c) fp = group_fp(fp, sorted[c]);
    l_concurrent = cost_.measure_keyed(fp, [&] {
      return concurrent_stage(dag,
                              std::vector<Set64>(sorted, sorted + ncomps));
    });
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
    // IOS-Merge fallback, as in compute_ending: one sequential stream.
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

/// A recorded DP transition of the arena wave engine: 16 bytes. The stage
/// build is not stored — the cost pass re-reads it from the frozen ending
/// stripes for the one argmin choice per state. Transitions live in
/// exact-fit arena spans, so there is no per-state vector header or
/// capacity slack either; the bench's peak-RSS limit pins the result.
struct WaveTransition {
  std::uint64_t ending = 0;
  double latency_us = 0;
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
/// discovery pass: the P(r, s) group-count verdict (compute_ending's prune
/// test — returns true when the ending is pruned) and, when it survives,
/// the admissible stage floor written to *lb. Components come straight
/// from the enumerator (visit_endings maintains them for its group-size
/// cut) — no allocation, no flood fill, and no stage build, where
/// compute_ending's component-list materialization would dominate.
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

/// Chunk-claiming fan-out for the wave engine's level loops: a parallel_for
/// that also hands each participating worker a dense slot id, and whose
/// workers grab contiguous index chunks from one atomic cursor and report
/// completion once per chunk, so the done-counting mutex is touched
/// O(n / chunk) times instead of O(n) — on a 100k-state level that is the
/// difference between 100k lock round-trips and ~32.
/// Small levels (`n` below `serial_below`) run inline on the caller: the
/// fixed cost of queueing pool helpers exceeds the whole level's work on
/// the many tiny levels of shallow blocks. Iterations write per-index
/// state only and the caller merges serially, so results are deterministic
/// regardless of chunking or thread count.
void wave_level_for(std::size_t n, int num_threads, std::size_t serial_below,
                    const std::function<void(int, std::size_t)>& f) {
  const int want =
      num_threads <= 0 ? ThreadPool::hardware_threads() : num_threads;
  if (n < serial_below || n <= 1 || want <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(0, i);
    return;
  }

  // Aim for several chunks per worker so stragglers rebalance, while
  // keeping chunks big enough that claiming stays off the hot path.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(want) * 8));

  struct State {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::function<void(int, std::size_t)> f;
    std::atomic<std::size_t> next{0};
    std::atomic<int> next_slot{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->chunk = chunk;
  state->f = f;

  const auto run = [state] {
    const int slot = state->next_slot.fetch_add(1);
    for (;;) {
      const std::size_t begin = state->next.fetch_add(state->chunk);
      if (begin >= state->n) break;
      const std::size_t end = std::min(state->n, begin + state->chunk);
      std::exception_ptr err;
      try {
        for (std::size_t i = begin; i < end; ++i) state->f(slot, i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (err && !state->error) state->error = err;
      state->done += end - begin;
      if (state->done == state->n) state->cv.notify_all();
    }
  };

  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  const std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(want) - 1,
                            num_chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    // Fire-and-forget, like parallel_for: completion is tracked by
    // state->done, so the caller never blocks on a helper that was queued
    // but never ran.
    shared_thread_pool().submit(run);
  }
  run();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == state->n; });
  if (state->error) std::rethrow_exception(state->error);
}

/// Below this many states a level runs on the calling thread (see
/// wave_level_for). Chosen from the paper zoo: inception-style blocks have
/// hundreds of levels of a handful of states each, where pool dispatch
/// dominated the level's own work.
constexpr std::size_t kSerialLevelCutoff = 24;

/// Below this many fresh entries, EndingStripes::drain runs on the calling
/// thread, as wave_level_for runs small levels: the migration is then too
/// short to be worth waking pool helpers.
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

  /// The cached evaluation of `key`, or compute()'s result, cached.
  template <typename Compute>
  EndingEval get_or_compute(std::uint64_t key, Compute&& compute) {
    const std::size_t i = shard_index(key, kStripes);
    if (const EndingEval* hit = frozen_find(i, key)) return *hit;
    Stripe& stripe = stripes[i];
    if (!locked) {
      if (const EndingEval* hit = stripe.fresh.find(key)) return *hit;
      return *stripe.fresh.try_emplace(key, compute()).first;
    }
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      if (const EndingEval* hit = stripe.fresh.find(key)) return *hit;
    }
    const EndingEval eval = compute();
    std::lock_guard<std::mutex> lock(stripe.mu);
    return *stripe.fresh.try_emplace(key, eval).first;
  }

  EndingEval get_or_eval(const IosScheduler& sched, const BlockDag& dag,
                         Set64 ending) {
    return get_or_compute(ending.bits(),
                          [&] { return sched.compute_ending(dag, ending); });
  }

  /// get_or_eval for callers that already hold the ending's components
  /// (the wave discovery pass): misses evaluate via compute_ending_grouped,
  /// skipping the flood fill and the stage materialization. Cached results
  /// are identical either way.
  EndingEval get_or_eval_grouped(const IosScheduler& sched,
                                 const BlockDag& dag, Set64 ending,
                                 const Set64* comps, int ncomps) {
    return get_or_compute(ending.bits(), [&] {
      return sched.compute_ending_grouped(dag, ending, comps, ncomps);
    });
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
    wave_level_for(kStripes, added < kDrainInlineBelow ? 1 : threads, 0,
                   [&](int, std::size_t i) {
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

  // Reachable DP states bucketed by popcount, each with an exact-fit span of
  // surviving transitions in arena memory (leased per worker, returned when
  // the cost pass has consumed the level). Popcount levels are a topological
  // order of the DP dependency graph in both directions.
  struct Span {
    const WaveTransition* tr = nullptr;
    std::uint32_t count = 0;
  };
  struct WaveLevel {
    std::vector<std::uint64_t> states;
    std::vector<Span> spans;
    std::vector<ArenaPool::Lease> leases;
  };
  std::vector<WaveLevel> levels(static_cast<std::size_t>(n) + 1);
  levels[static_cast<std::size_t>(n)].states.push_back(dag.all().bits());
  FlatSet64 seen;
  seen.insert(dag.all().bits());

  // Bound bookkeeping (beam mode): fcost[S] is the cheapest known prefix
  // cost from the full set down to S. Each worker keeps its own minimum per
  // successor while a level runs, and the serial step folds those minima in.
  // Since endings strictly shrink states, every transition into S comes from
  // a strictly higher level, so fcost[S] is final before S's level expands.
  // The floor supplies the admissible remainder bound h(S); min over trim
  // points of f + h is the certified lower bound behind
  // latency_gap_bound_us. Dominance mode needs no prefix bookkeeping — its
  // trims are local argmin dominance in the cost pass (see below) and never
  // lose a schedule, so its gap is structurally zero.
  const bool track_bounds = mode == PruneMode::kBeam;
  PruneFloor floor;
  FlatMap64<double> fcost;
  if (mode != PruneMode::kExact) {
    floor = make_prune_floor(dag, cost_, options_.pruning, options_.variant);
  }
  if (track_bounds) {
    fcost.try_emplace(dag.all().bits(), 0.0);
  }
  double min_cut = kInf;  // min f + h over trim points; kInf = nothing cut

  // Per-worker scratch, indexed by wave_level_for's slot and reused across
  // levels: the worker's successor dedup for the current level, and the
  // beam mode's collect-then-select enumeration.
  struct WorkerScratch {
    // Successors met this level; beam mode maps each to its minimum prefix
    // cost via this worker's states.
    FlatMap64<double> met;
    std::vector<std::uint64_t> fresh;  // the keys of met, to fold
    std::vector<std::uint64_t> collected;
    std::vector<std::uint32_t> kept;
  };
  std::vector<WorkerScratch> scratch(
      static_cast<std::size_t>(std::max(1, workers)));

  std::int64_t states_expanded = 0;
  std::int64_t enumerated = 0;     // endings visited, pruned included
  std::int64_t pruned_calls = 0;   // of which P(r, s)-pruned
  std::int64_t pruned_states = 0;  // dominance: states with >= 1 trim
  std::int64_t trimmed = 0;        // endings cut unevaluated (beam keep-set
                                   // or dominance argmin bound)
  std::int64_t lazy_evals = 0;     // dominance: cost-pass ending lookups

  // ---- Discovery pass (popcount descending) ----------------------------
  // Finds every state the (pruned) transition relation reaches from the
  // full set. Exact and beam modes evaluate every surviving ending here —
  // all their measurements happen in this pass, fanned out across the
  // wave's states. Dominance mode records transitions *structurally* (the
  // P(r, s) verdict is a component count, no simulation needed) and stores
  // each transition's admissible stage floor in the latency slot instead;
  // its measurements happen lazily in the cost pass, where exact sub-costs
  // make the floor a sharp skip test. Successors are deduplicated inside
  // the fan-out: each worker drops the ones already in `seen` (read-only
  // while the level runs) or already met by itself, so the serial step
  // between waves folds only the workers' fresh lists — O(workers x new
  // states), not O(transitions). Each level is sorted by state bits before
  // it expands, so level contents are deterministic regardless of thread
  // count.
  for (int p = n; p >= 1; --p) {
    WaveLevel& wave = levels[static_cast<std::size_t>(p)];
    if (wave.states.empty()) continue;
    std::sort(wave.states.begin(), wave.states.end());
    const std::size_t cnt = wave.states.size();

    wave.spans.assign(cnt, Span{});
    const int lease_n = std::max(
        1, std::min(workers, static_cast<int>(cnt)));
    wave.leases.reserve(static_cast<std::size_t>(lease_n));
    for (int i = 0; i < lease_n; ++i) {
      wave.leases.push_back(shared_arena_pool().acquire());
    }
    std::vector<std::int32_t> pruned_per_state(cnt, 0);
    std::vector<std::int32_t> trimmed_per_state(
        mode == PruneMode::kBeam ? cnt : 0, 0);

    wave_level_for(cnt, threads, kSerialLevelCutoff,
                   [&](int slot, std::size_t i) {
      const Set64 s{wave.states[i]};
      Arena& arena = *wave.leases[static_cast<std::size_t>(slot)];
      ArenaVec<WaveTransition> out(arena);
      WorkerScratch& sc = scratch[static_cast<std::size_t>(slot)];
      double f_here = 0;  // beam: final, since every level above has folded
      if (track_bounds) {
        const double* f = fcost.find(s.bits());
        f_here = f ? *f : 0;
      }
      // Records a surviving transition and meets its successor.
      const auto record = [&](std::uint64_t ending, double latency_us) {
        out.push_back({ending, latency_us});
        const std::uint64_t sub = s.bits() & ~ending;
        if (sub == 0) return;
        if (track_bounds) {
          // Every successor, seen or not: its prefix bound may still drop.
          const double via = f_here + latency_us;
          const auto [f, first] = sc.met.try_emplace(sub, via);
          if (first) {
            sc.fresh.push_back(sub);
          } else if (via < *f) {
            *f = via;
          }
        } else if (!seen.contains(sub) && sc.met.try_emplace(sub, 0).second) {
          sc.fresh.push_back(sub);
        }
      };

      if (mode == PruneMode::kBeam) {
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
        const auto eval_one = [&](std::uint64_t bits) {
          const EndingEval eval = endings.get_or_eval(*this, dag, Set64{bits});
          if (eval.pruned) {
            ++pruned_per_state[i];
            return;
          }
          record(bits, eval.latency_us);
        };
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
      } else if (mode == PruneMode::kDominance) {
        // Structural discovery: no stage is simulated here. Each surviving
        // transition records its admissible stage floor — the larger of the
        // resource floor and the single launch latency every stage pays —
        // in the latency slot; the cost pass reads it back as the skip
        // test's lower bound and evaluates lazily.
        dag.visit_endings(
            s, max_ops, max_group_ops,
            [&](Set64 ending, const Set64* comps, int ncomps) {
              double lb = 0;
              if (scan_ending(options_.pruning, floor, ending, comps, ncomps,
                              &lb)) {
                ++pruned_per_state[i];
                return;
              }
              record(ending.bits(), lb);
            });
      } else {
        dag.visit_endings(
            s, max_ops, max_group_ops,
            [&](Set64 ending, const Set64* comps, int ncomps) {
              const EndingEval eval = endings.get_or_eval_grouped(
                  *this, dag, ending, comps, ncomps);
              if (eval.pruned) {
                ++pruned_per_state[i];
                return;
              }
              record(ending.bits(), eval.latency_us);
            });
      }

      out.shrink_to_fit();
      wave.spans[i] = Span{out.data(), out.size()};
    });

    // Serial step, O(states + workers x new states): statistics, the beam
    // gap bound, and the fold of the workers' successors.
    states_expanded += static_cast<std::int64_t>(cnt);
    for (std::size_t i = 0; i < cnt; ++i) {
      enumerated += pruned_per_state[i] + wave.spans[i].count;
      pruned_calls += pruned_per_state[i];
      if (track_bounds && trimmed_per_state[i] > 0) {
        trimmed += trimmed_per_state[i];
        // Any schedule reaching this state through a trimmed ending costs
        // at least f + h; together with the found cost this certifies the
        // reported gap bound.
        const Set64 s{wave.states[i]};
        const double* f = fcost.find(s.bits());
        min_cut = std::min(min_cut, (f ? *f : 0) + floor.eval(s));
      }
    }
    for (WorkerScratch& sc : scratch) {
      if (sc.fresh.empty()) continue;
      for (const std::uint64_t sub : sc.fresh) {
        if (track_bounds) {
          const double via = *sc.met.find(sub);
          const auto [f, first] = fcost.try_emplace(sub, via);
          if (!first && via < *f) *f = via;
        }
        if (seen.insert(sub)) {
          levels[static_cast<std::size_t>(std::popcount(sub))]
              .states.push_back(sub);
        }
      }
      sc.fresh.clear();
      sc.met.clear_retain();
    }
    // Freeze this level's fresh endings: every later wave's repeat lookups
    // of them become lock-free hits.
    endings.drain(threads);
  }

  // ---- Cost pass (popcount ascending) ----------------------------------
  // Measurement-free: each state replays its recorded span, reads sub-state
  // costs from strictly lower levels (frozen during the wave), and takes
  // the argmin in enumeration order — the same tie-breaking as the serial
  // engine. For exact and beam modes the pass is measurement-free (recorded
  // latencies; the argmin's stage build is re-read from the frozen
  // stripes). Dominance mode measures *here*, lazily: each transition's
  // recorded stage floor plus the exact sub-cost is a lower bound on its
  // total, so candidates are tried cheapest-bound-first and evaluation
  // stops once the bound alone exceeds the best total found — a transition
  // skipped that way provably cannot beat (or tie) the running best, so
  // the argmin, its enumeration-order tie-break, and the found latency are
  // bit-identical to exact mode while many stages are never simulated at
  // all. In beam mode a sub-state may have no memo entry (it was cut);
  // such transitions are skipped, and a state left with no finite cost
  // simply gets no entry of its own.
  memo.reserve(static_cast<std::size_t>(seen.size()));
  std::uint64_t root_bits = dag.all().bits();
  struct LazyScratch {
    std::vector<std::uint32_t> order;
    std::vector<double> lb;
  };
  std::vector<LazyScratch> lazy_scratch(
      mode == PruneMode::kDominance
          ? static_cast<std::size_t>(std::max(1, workers))
          : 0);
  for (int p = 1; p <= n; ++p) {
    WaveLevel& wave = levels[static_cast<std::size_t>(p)];
    if (wave.states.empty()) continue;
    const std::size_t cnt = wave.states.size();
    std::vector<Entry> entries(cnt);
    std::vector<char> has(cnt, 0);
    std::vector<std::int32_t> evals_per_state(
        mode == PruneMode::kDominance ? cnt : 0, 0);
    wave_level_for(cnt, threads, kSerialLevelCutoff,
                   [&](int slot, std::size_t i) {
      const std::uint64_t s = wave.states[i];
      const Span& span = wave.spans[i];
      Entry best;
      best.cost = kInf;
      if (mode == PruneMode::kDominance) {
        LazyScratch& sc = lazy_scratch[static_cast<std::size_t>(slot)];
        sc.order.resize(span.count);
        sc.lb.resize(span.count);
        for (std::uint32_t t = 0; t < span.count; ++t) {
          const WaveTransition& tr = span.tr[t];
          const std::uint64_t sub = s & ~tr.ending;
          double bound = tr.latency_us;  // the recorded stage floor
          if (sub != 0) {
            const Entry* e = memo.find(sub);
            bound = e ? bound + e->cost : kInf;
          }
          sc.order[t] = t;
          sc.lb[t] = bound;
        }
        std::sort(sc.order.begin(), sc.order.end(),
                  [&sc](std::uint32_t a, std::uint32_t b) {
                    if (sc.lb[a] != sc.lb[b]) return sc.lb[a] < sc.lb[b];
                    return a < b;
                  });
        std::uint32_t best_t = std::numeric_limits<std::uint32_t>::max();
        for (const std::uint32_t t : sc.order) {
          // Strictly above the running best: this candidate can neither
          // beat nor tie it, and the order is sorted, so every remaining
          // candidate is out too. Ties (lb == best) are still evaluated so
          // the enumeration-order tie-break sees every minimal candidate.
          if (sc.lb[t] > best.cost || !std::isfinite(sc.lb[t])) break;
          const WaveTransition& tr = span.tr[t];
          const EndingEval eval =
              endings.get_or_eval(*this, dag, Set64{tr.ending});
          ++evals_per_state[i];
          if (eval.pruned) continue;  // discovery already excluded these
          const std::uint64_t sub = s & ~tr.ending;
          double total = eval.latency_us;
          if (sub != 0) total += memo.find(sub)->cost;
          if (total < best.cost || (total == best.cost && t < best_t)) {
            best.cost = total;
            best.choice = tr.ending;
            best.build = eval.build;
            best_t = t;
          }
        }
        if (!std::isfinite(best.cost)) {
          throw std::logic_error(
              "no feasible ending found for a non-empty state");
        }
        entries[i] = best;
        has[i] = 1;
        return;
      }
      for (std::uint32_t t = 0; t < span.count; ++t) {
        const WaveTransition& tr = span.tr[t];
        const std::uint64_t sub = s & ~tr.ending;
        double total = tr.latency_us;
        if (sub != 0) {
          const Entry* e = memo.find(sub);
          if (!e) continue;  // sub-state was cut (beam mode only)
          total += e->cost;
        }
        if (total < best.cost) {
          best.cost = total;
          best.choice = tr.ending;
        }
      }
      if (!std::isfinite(best.cost)) {
        if (mode == PruneMode::kExact) {
          throw std::logic_error(
              "no feasible ending found for a non-empty state");
        }
        return;  // unreachable under the cuts; no memo entry
      }
      best.build = endings.find_frozen(best.choice)->build;
      entries[i] = best;
      has[i] = 1;
    });
    for (std::size_t i = 0; i < cnt; ++i) {
      if (has[i]) memo.try_emplace(wave.states[i], entries[i]);
      if (mode == PruneMode::kDominance) {
        lazy_evals += evals_per_state[i];
        const std::int32_t skipped =
            static_cast<std::int32_t>(wave.spans[i].count) -
            evals_per_state[i];
        if (skipped > 0) {
          trimmed += skipped;
          ++pruned_states;
        }
      }
    }
    // Dominance evaluates lazily during this pass; freezing after each
    // level keeps the next level's repeat lookups off the stripe locks.
    if (mode == PruneMode::kDominance) endings.drain(threads);
    // The level's records are dead once its costs are in the memo: return
    // the arenas to the pool and drop the level's vectors.
    wave.leases.clear();
    std::vector<Span>().swap(wave.spans);
    std::vector<std::uint64_t>().swap(wave.states);
  }

  const Entry* root = memo.find(root_bits);
  if (!root) {
    throw std::logic_error("wave search found no feasible schedule");
  }

  if (stats) {
    stats->states += states_expanded;
    const std::int64_t transitions = enumerated - pruned_calls;
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
    switch (op.kind) {
      case OpKind::kConv2d: {
        const Conv2dAttrs& a = op.conv();
        num(a.out_channels);
        num(a.kh);
        num(a.kw);
        num(a.sh);
        num(a.sw);
        num(a.ph);
        num(a.pw);
        num(a.post_relu ? 1 : 0);
        break;
      }
      case OpKind::kSepConv: {
        const SepConvAttrs& a = op.sepconv();
        num(a.out_channels);
        num(a.k);
        num(a.sh);
        num(a.sw);
        num(a.ph);
        num(a.pw);
        num(a.pre_relu ? 1 : 0);
        break;
      }
      case OpKind::kPool2d: {
        const Pool2dAttrs& a = op.pool();
        num(static_cast<int>(a.kind));
        num(a.kh);
        num(a.kw);
        num(a.sh);
        num(a.sw);
        num(a.ph);
        num(a.pw);
        break;
      }
      case OpKind::kMatmul: {
        const MatmulAttrs& a = op.matmul();
        num(a.out_features);
        num(a.post_relu ? 1 : 0);
        break;
      }
      case OpKind::kSplit: {
        const SplitAttrs& a = op.split();
        num(a.begin_channel);
        num(a.end_channel);
        break;
      }
      default:
        break;
    }
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
    block_key = canonical_block_key(dag);
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
  const int want = options_.num_threads > 0 ? options_.num_threads
                                            : ThreadPool::hardware_threads();

  Schedule q;
  if (want <= 1 || blocks.size() <= 1) {
    // One block at a time; schedule_block still fans out within the block
    // when the wave engine has threads to use.
    for (const std::vector<OpId>& block : blocks) {
      Schedule bq = schedule_block(block, stats);
      for (Stage& stage : bq.stages) q.stages.push_back(std::move(stage));
    }
    return q;
  }

  // Each block DP is independent (own BlockContext); only the CostModel is
  // shared, and its measurement path is thread-safe. Per-block stats are
  // accumulated locally and merged at join so worker threads never contend
  // on the caller's counters.
  std::vector<Schedule> per_block(blocks.size());
  std::vector<SchedulerStats> per_stats(blocks.size());
  // schedule_block attributes measurements (and canonical-reuse hits) by
  // diffing the shared CostModel counters, which interleave across
  // concurrent blocks; take one global delta over the whole run instead.
  // Likewise, per-block wall times overlap, so search_wall_ms is the
  // elapsed time of the parallel region, not the sum of the workers'.
  const std::int64_t measurements_before = cost_.num_measurements();
  const double profiling_before = cost_.profiling_cost_us();
  const std::int64_t canonical_before = cost_.canonical_hits();
  const std::int64_t cross_before = cost_.cross_model_hits();
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for(blocks.size(), want, [&](std::size_t i) {
    per_block[i] = schedule_block(blocks[i], stats ? &per_stats[i] : nullptr);
  });

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
