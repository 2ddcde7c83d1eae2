#include "api/optimizer.hpp"

#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "frameworks/frameworks.hpp"
#include "models/models.hpp"
#include "runtime/profile_db.hpp"
#include "schedule/baselines.hpp"
#include "util/hash.hpp"
#include "util/names.hpp"

namespace ios {

namespace {

/// Process-wide registry of open profiling databases, one per path. Each
/// file is parsed once (on first touch), merges accumulate in memory, and
/// merges that add entries are written through to disk — so concurrent
/// optimize() calls (e.g. a server prewarm fan-out) sharing one path never
/// clobber each other's contexts and never re-parse a growing file per
/// call. Every open database carries its own mutex, so calls on different
/// paths never serialize on each other. Deleting the file resets the path
/// on next open (operators delete a database to start it over); external
/// *edits* to a file this process already opened are not re-read — within
/// one process the registry is authoritative, and writers in other
/// processes are last-write-wins, as with any unlocked shared file.
struct OpenProfileDb {
  std::mutex mu;
  ProfileDb db;
  /// True once the database is known to be on disk (loaded from an existing
  /// file, or written by us). Guards the deleted-file reset below: a path
  /// whose first write has not happened yet must NOT be reset — concurrent
  /// first-time misses open the path before the first save creates the
  /// file, and resetting then would split them across registry entries.
  std::atomic<bool> on_disk{false};
};

struct ProfileDbRegistry {
  std::mutex mu;  // guards by_path; per-db access uses OpenProfileDb::mu
  std::map<std::string, std::shared_ptr<OpenProfileDb>> by_path;

  std::shared_ptr<OpenProfileDb> open(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = by_path.find(path);
    if (it != by_path.end()) {
      std::shared_ptr<OpenProfileDb>& handle = it->second;
      if (handle->on_disk.load() && !ProfileDb::exists(path)) {
        // The file was deleted: reset the contents IN PLACE (lock order:
        // registry.mu then handle->mu, never the reverse). Keeping the same
        // handle means optimize() calls still holding it merge into the
        // reset database rather than forking a second writer for the path.
        std::lock_guard<std::mutex> db_lock(handle->mu);
        handle->db = ProfileDb{};
        handle->on_disk.store(false);
      }
      return handle;
    }
    auto opened = std::make_shared<OpenProfileDb>();
    opened->on_disk.store(ProfileDb::exists(path));
    try {
      opened->db = ProfileDb::load(path);
    } catch (const CorruptFileError& e) {
      // A truncated/corrupt warm-start cache costs re-simulation, never the
      // process: fall back to a cold database and let the next save (which
      // is atomic) replace the bad file with a good one.
      std::fprintf(stderr,
                   "ios: %s; starting with a cold profile database\n",
                   e.what());
      opened->db = ProfileDb{};
      opened->on_disk.store(false);
    }
    by_path.emplace(path, opened);
    return opened;
  }
};

ProfileDbRegistry& profile_db_registry() {
  static ProfileDbRegistry registry;
  return registry;
}

constexpr Baseline kAllBaselines[] = {
    Baseline::kSequential, Baseline::kGreedy,      Baseline::kTensorFlow,
    Baseline::kTensorFlowXla, Baseline::kTaso,     Baseline::kTvmCudnn,
    Baseline::kTensorRT,   Baseline::kTvmAutoTune, Baseline::kNimble,
};

double run_baseline(Baseline b, const Graph& g, const DeviceSpec& device,
                    const Executor& executor) {
  switch (b) {
    case Baseline::kSequential:
      return executor.schedule_latency_us(sequential_schedule(g));
    case Baseline::kGreedy:
      return executor.schedule_latency_us(greedy_schedule(g));
    case Baseline::kTensorFlow:
      return frameworks::run_framework(g, device, frameworks::tensorflow_spec())
          .latency_us;
    case Baseline::kTensorFlowXla:
      return frameworks::run_framework(g, device,
                                       frameworks::tensorflow_xla_spec())
          .latency_us;
    case Baseline::kTaso:
      return frameworks::run_framework(g, device, frameworks::taso_spec())
          .latency_us;
    case Baseline::kTvmCudnn:
      return frameworks::run_framework(g, device, frameworks::tvm_cudnn_spec())
          .latency_us;
    case Baseline::kTensorRT:
      return frameworks::run_framework(g, device, frameworks::tensorrt_spec())
          .latency_us;
    case Baseline::kTvmAutoTune:
      return frameworks::run_framework(g, device,
                                       frameworks::tvm_autotune_spec())
          .latency_us;
    case Baseline::kNimble:
      return frameworks::run_nimble(g, device).latency_us;
  }
  throw std::logic_error("unhandled baseline");
}

}  // namespace

const char* baseline_name(Baseline b) {
  switch (b) {
    case Baseline::kSequential: return "sequential";
    case Baseline::kGreedy: return "greedy";
    // Framework baselines keep the display names of frameworks.cpp so tables
    // printed from OptimizationResult line up with the Figure 7 benches.
    case Baseline::kTensorFlow: return "TensorFlow";
    case Baseline::kTensorFlowXla: return "TensorFlow-XLA";
    case Baseline::kTaso: return "TASO";
    case Baseline::kTvmCudnn: return "TVM-cuDNN";
    case Baseline::kTensorRT: return "TensorRT";
    case Baseline::kTvmAutoTune: return "TVM-AutoTune";
    case Baseline::kNimble: return "Nimble";
  }
  return "?";
}

Baseline baseline_by_name(const std::string& name) {
  for (Baseline b : kAllBaselines) {
    if (name == baseline_name(b)) return b;
  }
  std::vector<std::string> known;
  for (Baseline b : kAllBaselines) known.push_back(baseline_name(b));
  throw std::invalid_argument(unknown_name_message("baseline", name, known));
}

std::vector<Baseline> all_baselines() {
  return {std::begin(kAllBaselines), std::end(kAllBaselines)};
}

OptimizationRequest OptimizationRequest::for_model(std::string name,
                                                   std::string device,
                                                   int batch) {
  OptimizationRequest r;
  r.model = std::move(name);
  r.device = std::move(device);
  r.batch = batch;
  return r;
}

OptimizationRequest OptimizationRequest::for_graph(Graph g,
                                                   std::string device) {
  OptimizationRequest r;
  r.graph = std::move(g);
  r.device = std::move(device);
  return r;
}

const BaselineResult* OptimizationResult::baseline(
    const std::string& name) const {
  for (const BaselineResult& b : baselines) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

std::string scheduler_config_key(const SchedulerOptions& options,
                                 const ProfilingProtocol& protocol) {
  std::string key = "variant=";
  key += ios_variant_name(options.variant);
  key += ";r=" + std::to_string(options.pruning.r);
  key += ";s=" + std::to_string(options.pruning.s);
  key += ";memoize=" + std::to_string(options.memoize ? 1 : 0);
  key += ";warmup=" + std::to_string(protocol.warmup);
  key += ";repeats=" + std::to_string(protocol.repeats);
  key += ";noise=" +
         std::to_string(std::bit_cast<std::uint64_t>(protocol.noise_frac));
  key += ";seed=" + std::to_string(protocol.noise_seed);
  // Pruned-mode fields are appended only when active so every key minted
  // before the pruning knob existed stays byte-identical (pinned golden
  // recipes and serving cache keys must not churn). Cross-request reuse is
  // deliberately excluded: replayed block templates reproduce the search's
  // own schedule bit for bit.
  if (options.prune != PruneMode::kExact) {
    key += ";prune=";
    key += prune_mode_name(options.prune);
    if (options.prune == PruneMode::kBeam) {
      key += ";beam=" + std::to_string(options.beam_width);
    }
  }
  return key;
}

std::string serving_cache_key(const std::string& model,
                              const std::string& device, int batch,
                              const SchedulerOptions& options,
                              const ProfilingProtocol& protocol) {
  std::string key = model;
  key += '\n';
  key += device;
  key += "\nbatch=" + std::to_string(batch);
  key += '\n';
  key += scheduler_config_key(options, protocol);
  return key;
}

std::string request_cache_key(const Graph& g, const std::string& device,
                              const SchedulerOptions& options,
                              const ProfilingProtocol& protocol) {
  std::string key = graph_to_json(g).dump();
  key += '\n';
  key += device;
  key += '\n';
  key += scheduler_config_key(options, protocol);
  return key;
}

Graph graph_with_batch(const Graph& g, int batch) {
  if (batch == g.batch()) return g;
  JsonValue doc = graph_to_json(g);
  doc.set("batch", batch);
  return graph_from_json(doc);
}

OptimizationResult Optimizer::optimize(const OptimizationRequest& request) {
  // Before the store lookup: an invalid option combination must throw even
  // when an equivalent request (the key excludes the engine) is stored.
  request.options.validate();
  const DeviceSpec device = device_by_name(request.device);
  // Bind the graph by reference: a for_graph request must not deep-copy the
  // graph on the store-hit serving path.
  std::optional<Graph> built;
  const Graph& g =
      request.graph
          ? *request.graph
          : built.emplace(models::build_model(request.model, request.batch));
  const ExecConfig config{device, KernelModelParams{}};

  // A zoo request shares the serving engine's key, so the engine's lookups
  // and a planner optimizing through the engine's Optimizer fill one entry.
  const std::string key =
      request.graph ? request_cache_key(g, device.name, request.options,
                                        request.protocol)
                    : serving_cache_key(request.model, device.name,
                                        request.batch, request.options,
                                        request.protocol);
  OptimizationResult result;
  result.fingerprint = hash_bytes(key);

  // The cost model's executor serves the whole call on a miss; a hit
  // builds one only when a baseline needs it.
  std::optional<CostModel> cost_model;
  const auto search_graph = [&] {
    CostModel& cost = cost_model.emplace(g, config, request.protocol);
    if (request.cross_reuse) {
      // Throws under a noisy protocol — reused latencies must equal what
      // profiling would have measured, or the found schedule would change.
      cost.enable_canonical_reuse(&canonical_);
    }
    std::shared_ptr<OpenProfileDb> profile_db;
    if (!request.profile_db.empty()) {
      profile_db = profile_db_registry().open(request.profile_db);
      std::lock_guard<std::mutex> db_lock(profile_db->mu);
      result.profile_entries_loaded = cost.load_profile(profile_db->db);
      if (request.cross_reuse) {
        result.profile_entries_loaded += cost.load_canonical(profile_db->db);
      }
    }
    result.schedule =
        IosScheduler(cost, request.options,
                     request.cross_reuse ? &templates_ : nullptr)
            .schedule_graph(&result.stats);
    validate_schedule(g, result.schedule);
    result.new_measurements = cost.num_measurements();
    result.canonical_hits = result.stats.canonical_hits;
    result.cross_model_hits = result.stats.cross_model_hits;
    result.block_cache_hits = result.stats.block_cache_hits;
    // A search that measured nothing holds only what it loaded from the
    // database, so there is nothing to merge back. Canonical installs add
    // entries without counting as measurements, hence the cross_reuse
    // exclusion; a database not yet on disk is still written.
    const bool nothing_new = result.new_measurements == 0 &&
                             !request.cross_reuse && profile_db &&
                             profile_db->on_disk.load();
    if (profile_db && !nothing_new) {
      std::lock_guard<std::mutex> db_lock(profile_db->mu);
      const std::size_t before = profile_db->db.num_entries();
      result.profile_entries_saved = cost.save_profile(profile_db->db);
      if (request.cross_reuse) {
        result.profile_entries_saved += cost.save_canonical(profile_db->db);
      }
      // Merged values for already-known fingerprints are identical (the
      // simulator is deterministic), so only a growing database is worth a
      // full rewrite — warm runs then do zero file writes.
      if (profile_db->db.num_entries() != before ||
          !profile_db->on_disk.load()) {
        profile_db->db.save(request.profile_db);
        profile_db->on_disk.store(true);
      }
    }
    result.latency_us = cost.executor().schedule_latency_us(result.schedule);
    total_measurements_ += result.new_measurements;
    return CachedRecipe{result.schedule, result.latency_us, result.stats,
                        result.new_measurements};
  };
  bool searched = false;
  CachedRecipe entry = store_->get_or_compute(key, search_graph, &searched);
  if (!searched) {
    result.schedule = std::move(entry.schedule);
    result.stats = entry.stats;
    result.latency_us = entry.latency_us;
    result.cache_hit = true;
  }

  if (!request.baselines.empty()) {
    std::optional<Executor> hit_executor;
    const Executor& executor = cost_model ? cost_model->executor()
                                          : hit_executor.emplace(g, config);
    for (Baseline b : request.baselines) {
      const double latency = run_baseline(b, g, device, executor);
      result.baselines.push_back(
          {baseline_name(b), latency, latency / result.latency_us});
    }
  }

  result.recipe.model = request.graph ? g.name() : request.model;
  result.recipe.device = device.name;
  result.recipe.batch = g.batch();
  result.recipe.variant = request.options.variant;
  result.recipe.pruning = request.options.pruning;
  result.recipe.schedule = result.schedule;
  if (request.graph) result.recipe.graph = g;
  return result;
}

EvaluationResult Optimizer::evaluate(const Recipe& recipe,
                                     const std::string& device,
                                     int batch) const {
  const DeviceSpec spec =
      device_by_name(device.empty() ? recipe.device : device);
  const int eval_batch = batch > 0 ? batch : recipe.batch;
  const Graph g = recipe.graph
                      ? graph_with_batch(*recipe.graph, eval_batch)
                      : models::build_model(recipe.model, eval_batch);
  validate_schedule(g, recipe.schedule);

  const Executor executor(g, ExecConfig{spec, KernelModelParams{}});
  EvaluationResult ev;
  ev.device = spec.name;
  ev.batch = eval_batch;
  ev.latency_us = executor.schedule_latency_us(recipe.schedule);
  ev.sequential_latency_us =
      executor.schedule_latency_us(sequential_schedule(g));
  ev.speedup = ev.sequential_latency_us / ev.latency_us;
  return ev;
}

void Optimizer::save(const OptimizationResult& result,
                     const std::string& path) {
  save_recipe(result.recipe, path);
}

Recipe Optimizer::load(const std::string& path) { return load_recipe(path); }

}  // namespace ios
