// optimize_cold and optimize_warm: a closed loop with one caller, where one
// op is a fresh ios::Optimizer optimizing the whole suite.
//
//   cold  no recipe cache, no profile db: the DP core and the simulator both
//         work (roughly half of a cold op is stage simulation).
//   warm  every op points at a profile db filled during set-up and must run
//         zero new simulations: the same DP core with the simulator
//         bypassed. A simulator speed-up shows on cold only, a DP speed-up
//         on both.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "gates.hpp"
#include "models/models.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/profile_db.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace iosbench {
namespace {

/// The paper's three largest search spaces. RandWire alone needs ~400k
/// stage simulations cold, so no op is shorter than ~0.5 s and thread-pool
/// wake-ups cannot dominate it.
const std::vector<std::string> kSuite = {"inception_v3", "nasnet", "randwire"};
constexpr int kSearchThreads = 4;
constexpr int kSetupReps = 3;
/// Distinct stages timed through CostModel::measure (traced runs).
constexpr int kMeasureSample = 400;

ios::OptimizationRequest suite_request(const std::string& model,
                                       const std::string& profile_db) {
  auto request = ios::OptimizationRequest::for_model(model, kDevice, 1);
  request.options.num_threads = kSearchThreads;
  request.options.prune = ios::PruneMode::kExact;
  request.baselines = {ios::Baseline::kSequential, ios::Baseline::kGreedy};
  request.profile_db = profile_db;
  return request;
}

/// What one suite op produced.
struct SuiteOp {
  double wall_ms = 0;    ///< fresh Optimizer plus the suite's optimize()s
  double facade_ms = 0;  ///< summed optimize() wall minus search_wall_ms
  ios::SchedulerStats stats;          ///< summed over the suite
  std::int64_t new_measurements = 0;  ///< summed over the suite
  double sim_us = 0;  ///< summed simulated latency of the found schedules
  std::vector<std::string> order;
  std::vector<ios::OptimizationResult> results;  ///< in `order`
};

SuiteOp run_suite(std::vector<std::string> order, const std::string& db,
                  Tracer& tracer, std::int64_t op_id) {
  SuiteOp op;
  const double t0 = now_us();
  const int root = tracer.open("op", t0, -1, op_id);
  ios::Optimizer optimizer;
  for (const std::string& model : order) {
    const double a = now_us();
    ios::OptimizationResult res = optimizer.optimize(suite_request(model, db));
    const double b = now_us();
    tracer.record("api.optimize", a, b, root, op_id);
    op.facade_ms += (b - a) / 1000.0 - res.stats.search_wall_ms;
    op.stats += res.stats;
    op.new_measurements += res.new_measurements;
    op.results.push_back(std::move(res));
  }
  const double t1 = now_us();
  tracer.close(root, t1);
  op.wall_ms = (t1 - t0) / 1000.0;
  // Summed in suite order, so the total does not depend on the shuffle.
  for (const std::string& model : kSuite) {
    const auto at = std::find(order.begin(), order.end(), model);
    op.sim_us += op.results[static_cast<std::size_t>(at - order.begin())]
                     .latency_us;
  }
  op.order = std::move(order);
  return op;
}

/// Host time the checks of one op spent in two layers the benchmark times.
struct CheckTimes {
  double build_ms = 0;     ///< models::build_model over the suite
  double baseline_ms = 0;  ///< Executor on the sequential/greedy schedules
};

/// Gates one op's outputs. `reference` is the first op of the run: every
/// later op must find schedules of exactly the same latency and explore
/// exactly the same search space. Returns the number of problems found.
std::size_t check_op(const SuiteOp& op, bool expect_cold,
                     const SuiteOp& reference, bool self_test, Tracer& tracer,
                     std::int64_t op_id, CheckTimes& times, RunResult& r) {
  const std::size_t before = r.errors.size();
  const int root = tracer.open("check", now_us(), -1, op_id);
  for (std::size_t i = 0; i < op.order.size(); ++i) {
    const std::string& model = op.order[i];
    const ios::OptimizationResult& res = op.results[i];
    const double a = now_us();
    const ios::Graph g = ios::models::build_model(model, 1);
    const double b = now_us();
    const Baselines base = eval_baselines(g);
    const double c = now_us();
    const std::string err =
        check_schedule(g, res.schedule, res.latency_us, base);
    const double d = now_us();
    tracer.record("models.build", a, b, root, op_id);
    tracer.record("runtime.baseline_eval", b, c, root, op_id);
    tracer.record("gate.check_schedule", c, d, root, op_id);
    times.build_ms += (b - a) / 1000.0;
    times.baseline_ms += (c - b) / 1000.0;
    if (!err.empty()) r.fail(err);
    if (res.cache_hit) r.fail(model + ": a fresh Optimizer hit its cache");
    if (expect_cold && res.new_measurements == 0) {
      r.fail(model + ": a cold search ran no simulations");
    }
    if (!expect_cold && res.new_measurements != 0) {
      r.fail(model + ": a warm search ran " +
             std::to_string(res.new_measurements) + " new simulations");
    }
    if (self_test) {
      const std::string e =
          self_test_schedule(g, res.schedule, res.latency_us, base);
      if (!e.empty()) r.fail(e);
    }
  }
  tracer.close(root, now_us());
  if (op.sim_us != reference.sim_us) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "suite schedule latency %.17g us differs from %.17g us",
                  op.sim_us, reference.sim_us);
    r.fail(buf);
  }
  if (op.stats.states != reference.stats.states ||
      op.stats.transitions != reference.stats.transitions) {
    r.fail("the exact search explored a different state space");
  }
  return r.errors.size() - before;
}

/// CostModel::measure per call on a fresh model over a seeded sample of
/// distinct stages of the suite: first as misses, then again as hits.
void time_measure(ios::Rng& rng, Tracer& tracer, RunResult& r) {
  std::vector<ios::Graph> graphs;
  for (const std::string& m : kSuite) {
    graphs.push_back(ios::models::build_model(m, 1));
  }
  const ios::ExecConfig cfg{ios::device_by_name(kDevice), {}};
  std::vector<double> miss_us, hit_us;
  for (const ios::Graph& g : graphs) {
    const auto blocks = g.blocks();
    std::vector<ios::Stage> stages;
    std::vector<std::uint64_t> seen;
    for (int tries = 0; stages.size() < kMeasureSample / graphs.size() &&
                        tries < 20 * kMeasureSample;
         ++tries) {
      const auto& block =
          blocks[static_cast<std::size_t>(
              rng.uniform_int(static_cast<int>(blocks.size())))];
      if (block.empty()) continue;
      std::vector<ios::OpId> ops;
      const int k = 1 + rng.uniform_int(std::min<int>(4, static_cast<int>(
                                                             block.size())));
      while (static_cast<int>(ops.size()) < k) {
        const ios::OpId op = block[static_cast<std::size_t>(
            rng.uniform_int(static_cast<int>(block.size())))];
        if (std::find(ops.begin(), ops.end(), op) == ops.end()) {
          ops.push_back(op);
        }
      }
      std::sort(ops.begin(), ops.end());
      ios::Stage stage;
      stage.groups = ios::partition_groups(g, ops);
      const std::uint64_t fp = ios::stage_fingerprint(stage);
      if (std::find(seen.begin(), seen.end(), fp) != seen.end()) continue;
      seen.push_back(fp);
      stages.push_back(std::move(stage));
    }
    ios::CostModel cost(g, cfg);
    for (auto* out : {&miss_us, &hit_us}) {
      const double pass_start = now_us();
      for (const ios::Stage& s : stages) {
        const double a = now_us();
        const double lat = cost.measure(s);
        out->push_back(now_us() - a);
        if (!(lat > 0)) r.fail(g.name() + ": a stage measured non-positive");
      }
      tracer.record(out == &miss_us ? "runtime.measure_miss"
                                    : "runtime.measure_hit",
                    pass_start, now_us());
    }
    if (cost.num_measurements() != static_cast<std::int64_t>(stages.size())) {
      r.fail(g.name() + ": repeated measure() calls were not cache hits");
    }
  }
  r.per_layer["runtime.measure_miss_us"] = median(miss_us);
  r.per_layer["runtime.measure_hit_us"] = median(hit_us);
}

/// ProfileDb::load / save and CostModel::load_profile on the set-up db.
void time_profile_db(const std::string& path, const std::string& scratch,
                     Tracer& tracer, RunResult& r) {
  const double a = now_us();
  const ios::ProfileDb db = ios::ProfileDb::load(path);
  const double b = now_us();
  tracer.record("runtime.profile_db_load", a, b);
  double load_profile_ms = 0;
  const ios::ExecConfig cfg{ios::device_by_name(kDevice), {}};
  for (const std::string& m : kSuite) {
    const ios::Graph g = ios::models::build_model(m, 1);
    ios::CostModel cost(g, cfg);
    const double c = now_us();
    const int installed = cost.load_profile(db);
    const double d = now_us();
    tracer.record("runtime.load_profile", c, d);
    load_profile_ms += (d - c) / 1000.0;
    if (installed <= 0) r.fail(m + ": the set-up profile db had no entries");
  }
  const std::string copy = scratch + "/resave.db";
  const double e = now_us();
  db.save(copy);
  const double f = now_us();
  tracer.record("runtime.profile_db_save", e, f);
  std::filesystem::remove(copy);
  r.per_layer["runtime.profile_db_load_ms"] = (b - a) / 1000.0;
  r.per_layer["runtime.profile_db_save_ms"] = (f - e) / 1000.0;
  r.per_layer["runtime.load_profile_ms"] = load_profile_ms;
}

}  // namespace

void run_optimize(const RunConfig& cfg, bool warm, Tracer& tracer,
                  RunResult& r) {
  ios::Rng rng(cfg.seed);
  auto shuffled = [&rng] {
    std::vector<std::string> order = kSuite;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(static_cast<int>(i)))]);
    }
    return order;
  };
  Tracer untraced(false);

  // Set-up, kSetupReps times, in suite order (the db is rewritten after
  // each model, so its cost depends on the order). Cold: one untimed cold
  // op, which also pays the process's lazy set-up (thread pool, allocator).
  // Warm: fill a fresh profile db; ops then point at the last one.
  std::vector<double> setup_s;
  SuiteOp reference;
  std::string db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db = warm ? cfg.out_dir + "/profile-" + std::to_string(rep) + ".db" : "";
    if (warm) std::filesystem::remove(db);
    const double a = now_us();
    SuiteOp op = run_suite(kSuite, db, untraced, -1);
    setup_s.push_back((now_us() - a) / 1e6);
    if (rep == 0) {
      // Peak RSS of a fresh process that has done the set-up once: the
      // memory a one-shot caller of the workload sees.
      r.end_to_end["peak_rss_mb"] = peak_rss_mb();
      reference = op;
    }
    CheckTimes unused;
    check_op(op, /*expect_cold=*/true, reference, /*self_test=*/rep == 0,
             untraced, -1, unused, r);
    if (warm && !ios::ProfileDb::exists(db)) {
      r.fail("set-up left no profile db at " + db);
    }
  }
  r.end_to_end["setup_s"] = median(setup_s);
  // Schedule quality as the suite's sequential latency over the found
  // schedules' latency: simulated, so it must repeat exactly, and a worse
  // schedule lowers it.
  double sequential_us = 0;
  for (const std::string& m : kSuite) {
    sequential_us +=
        eval_baselines(ios::models::build_model(m, 1)).sequential_us;
  }
  r.end_to_end["schedule_speedup"] = sequential_us / reference.sim_us;
  note("setup: %d reps, median %.3f s; suite schedules %.3f simulated us, "
       "sequential %.3f us",
       kSetupReps, median(setup_s), reference.sim_us, sequential_us);

  // The closed loop. A traced run traces every other op, so the tracing
  // overhead is the gap between the two halves.
  const double budget_us = cfg.seconds * 1e6 * (cfg.trace ? 0.8 : 1.0);
  const double start = now_us();
  std::vector<double> wall, traced_wall, untraced_wall, facade, search, build,
      baseline;
  SuiteOp last;
  for (std::int64_t i = 0; i < 2 || now_us() - start < budget_us; ++i) {
    const bool traced = cfg.trace && i % 2 == 0;
    Tracer& t = traced ? tracer : untraced;
    ++r.attempted;
    try {
      SuiteOp op = run_suite(shuffled(), db, t, i);
      CheckTimes times;
      if (check_op(op, !warm, reference, false, t, i, times, r) > 0) {
        ++r.failed;
      }
      wall.push_back(op.wall_ms);
      (traced ? traced_wall : untraced_wall).push_back(op.wall_ms);
      facade.push_back(op.facade_ms);
      search.push_back(op.stats.search_wall_ms);
      build.push_back(times.build_ms);
      baseline.push_back(times.baseline_ms);
      last = std::move(op);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(std::string("op threw: ") + e.what());
    }
  }
  std::string walls;
  for (double w : wall) walls += " " + std::to_string(static_cast<int>(w));
  note("loop: %zu ops, p50 %.1f ms, p90 %.1f ms; op ms:%s", wall.size(),
       percentile(wall, 50), percentile(wall, 90), walls.c_str());
  // Whole-run figures: every op counts, so a slowdown that hits only some
  // ops (periodic stalls, allocator spikes) moves them too.
  double total_ms = 0;
  for (double w : wall) total_ms += w;
  r.end_to_end["latency_p50_ms"] = percentile(wall, 50);
  r.end_to_end["throughput_per_s"] =
      total_ms > 0 ? static_cast<double>(wall.size()) / (total_ms / 1000.0)
                   : 0;
  if (!cfg.trace) return;

  r.per_layer["op.latency_p90_ms"] = percentile(wall, 90);
  r.per_layer["models.build_ms"] = median(build);
  r.per_layer["api.facade_ms"] = median(facade);
  r.per_layer["core.search_ms"] = median(search);
  r.per_layer["core.states"] = static_cast<double>(last.stats.states);
  r.per_layer["core.transitions"] =
      static_cast<double>(last.stats.transitions);
  r.per_layer["core.pruned_endings"] =
      static_cast<double>(last.stats.pruned_endings);
  r.per_layer["runtime.cost_misses"] =
      static_cast<double>(last.new_measurements);
  r.per_layer["runtime.baseline_eval_ms"] = median(baseline);
  r.per_layer["sim.profiling_sim_s"] = last.stats.profiling_cost_us / 1e6;
  const double untraced_p50 = median(untraced_wall);
  r.per_layer["trace.overhead_pct"] =
      untraced_p50 > 0
          ? (median(traced_wall) - untraced_p50) / untraced_p50 * 100.0
          : 0;
  // Its own stream: the loop above drew a timing-dependent number of
  // shuffles from `rng`, and the sample must depend on the seed alone.
  ios::Rng sample_rng(cfg.seed ^ 0x5eed0f57a9e5ull);
  time_measure(sample_rng, tracer, r);
  if (warm) time_profile_db(db, cfg.out_dir, tracer, r);
}

}  // namespace iosbench
